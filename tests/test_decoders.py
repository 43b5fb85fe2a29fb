"""Decoding heads: CTC oracle, AR consistency, NAR masking, attention cache."""

import itertools
import tracemalloc

import numpy as np
import pytest

from ssmocr import decoders as D
from ssmocr import ssm
from ssmocr import tensor as T
from ssmocr import vocab as V
from ssmocr.config import RunConfig
from ssmocr.encoder import positional_encoding_1d
from ssmocr.model import build_model
from ssmocr.tensor import Tensor
from gradcheck import check_grads


def ctc_brute_force(logp, targets):
    """-log P(target) by enumerating every frame path and collapsing it."""
    n_frames, n_classes = logp.shape
    target = list(targets)
    total = -np.inf
    for path in itertools.product(range(n_classes), repeat=n_frames):
        if D.ctc_collapse(path) == target:
            total = np.logaddexp(total, sum(logp[t, c] for t, c in enumerate(path)))
    return -total


def ctc_loss_two_recursions(z, targets):
    """The CTC loss and gradient with alpha and beta written out as two
    separate recursions, one frame at a time: the formulation that the
    single reversed-lattice recursion of ``D.ctc_loss`` must reproduce
    bit for bit."""
    targets = np.asarray(targets, dtype=np.int64)
    zf = z.astype(np.float64)
    m = zf.max(axis=-1, keepdims=True)
    logp = zf - (m + np.log(np.exp(zf - m).sum(axis=-1, keepdims=True)))
    n_frames = z.shape[0]
    s_len = 2 * targets.size + 1
    ext = np.zeros(s_len, dtype=np.int64)
    ext[1::2] = targets
    allow = np.zeros(s_len, dtype=bool)
    for s in range(2, s_len):
        allow[s] = ext[s] != 0 and ext[s] != ext[s - 2]
    neg = -np.inf
    alpha = np.full((n_frames, s_len), neg)
    alpha[0, 0] = logp[0, ext[0]]
    if s_len > 1:
        alpha[0, 1] = logp[0, ext[1]]
    for t in range(1, n_frames):
        prev = alpha[t - 1]
        acc = np.logaddexp(prev, np.concatenate([[neg], prev])[:s_len])
        skip = np.concatenate([[neg, neg], prev])[:s_len]
        acc = np.where(allow, np.logaddexp(acc, skip), acc)
        alpha[t] = acc + logp[t, ext]
    log_z = alpha[-1, -1]
    if s_len > 1:
        log_z = np.logaddexp(log_z, alpha[-1, -2])
    beta = np.full((n_frames, s_len), neg)
    beta[-1, -1] = logp[-1, ext[-1]]
    if s_len > 1:
        beta[-1, -2] = logp[-1, ext[-2]]
    allow_fwd = np.zeros(s_len, dtype=bool)
    allow_fwd[: s_len - 2] = allow[2:]
    for t in range(n_frames - 2, -1, -1):
        nxt = beta[t + 1]
        acc = np.logaddexp(nxt, np.concatenate([nxt[1:], [neg]]))
        skip = np.concatenate([nxt[2:], [neg, neg]])[:s_len]
        acc = np.where(allow_fwd, np.logaddexp(acc, skip), acc)
        beta[t] = acc + logp[t, ext]
    gamma = np.zeros_like(zf)
    with np.errstate(under="ignore"):
        occ = np.exp(alpha + beta - logp[:, ext] - log_z)
    for s in range(s_len):
        gamma[:, ext[s]] += occ[:, s]
    grad = (np.exp(logp) - gamma) * 1.0
    return np.asarray(-log_z, dtype=z.dtype), grad.astype(z.dtype)


def random_lattice(rng, dtype):
    """Random logits and targets: repeated labels, the empty target, and
    frame counts from exactly the required number upwards."""
    n_classes = int(rng.integers(2, 8))
    t_len = int(rng.integers(0, 7))
    targets = rng.integers(1, n_classes, size=t_len)
    if t_len > 1 and rng.random() < 0.4:
        targets[1:] = np.where(rng.random(t_len - 1) < 0.5, targets[:-1], targets[1:])
    required = max(D.ctc_required_frames(targets), 1)
    n_frames = required if rng.random() < 0.3 else required + int(rng.integers(1, 9))
    scale = rng.uniform(0.1, 6.0)
    return (rng.standard_normal((n_frames, n_classes)) * scale).astype(dtype), targets


def ctc_value_and_grad(z, targets):
    x = Tensor(z, requires_grad=True)
    loss = D.ctc_loss(x, targets)
    T.backward(loss)
    return loss.data, x.grad


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestCtcLoss:
    def test_single_frame_single_char(self):
        # p(class 1) = 0.7 on the only frame
        p = np.log(np.array([[0.2, 0.7, 0.1]]))
        loss = D.ctc_loss(Tensor(p, dtype="f64"), [1])
        assert abs(loss.item() - (-np.log(0.7))) < 1e-9

    def test_two_frames_uniform(self):
        # L=2, target one char, uniform over {blank, a, b}: 3 of 9 paths map
        logp = np.log(np.full((2, 3), 1.0 / 3.0))
        loss = D.ctc_loss(Tensor(logp, dtype="f64"), [1])
        assert abs(loss.item() - np.log(3.0)) < 1e-9

    def test_empty_target_is_all_blank_path(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((4, 3))
        loss = D.ctc_loss(Tensor(z, dtype="f64"), [])
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        assert abs(loss.item() - (-logp[:, 0].sum())) < 1e-9

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(1)
        cases = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n_frames = int(rng.integers(1, 7))
            n_classes = int(rng.integers(2, 5))  # blank + up to 3 chars
            t_len = int(rng.integers(0, 4))
            targets = list(rng.integers(1, n_classes, size=t_len))
            required = D.ctc_required_frames(targets)
            if n_frames < required:
                continue
            z = rng.standard_normal((n_frames, n_classes))
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            got = D.ctc_loss(Tensor(z, dtype="f64"), targets).item()
            want = ctc_brute_force(logp, targets)
            assert abs(got - want) < 1e-6, (n_frames, n_classes, targets)
            cases += 1
        assert cases >= 15

    def test_infeasible_target_raises(self):
        z = np.zeros((2, 3))
        with pytest.raises(D.InfeasibleAlignmentError):
            D.ctc_loss(Tensor(z, dtype="f64"), [1, 1])  # repeat needs 3 frames

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        z = Tensor(rng.standard_normal((5, 4)), dtype="f64", requires_grad=True)
        check_grads(lambda: D.ctc_loss(z, [1, 2, 1]), [z])

    def test_bad_target_id(self):
        with pytest.raises(V.VocabularyError):
            D.ctc_loss(Tensor(np.zeros((3, 3)), dtype="f64"), [0])

    def test_zero_frames_raise(self):
        with pytest.raises(D.InfeasibleAlignmentError):
            D.ctc_loss(Tensor(np.zeros((0, 3)), dtype="f64"), [])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_two_recursions(self, dtype):
        rng = np.random.default_rng(13)
        kinds = set()
        for _ in range(150):
            z, targets = random_lattice(rng, dtype)
            want_loss, want_grad = ctc_loss_two_recursions(z, targets)
            loss, grad = ctc_value_and_grad(z, targets)
            assert loss.dtype == want_loss.dtype and grad.dtype == want_grad.dtype
            assert loss.tobytes() == want_loss.tobytes(), (z.shape, targets)
            assert grad.tobytes() == want_grad.tobytes(), (z.shape, targets)
            kinds.add(("empty" if targets.size == 0 else
                       "repeat" if np.any(targets[1:] == targets[:-1]) else "plain",
                       z.shape[0] == max(D.ctc_required_frames(targets), 1)))
        # every lattice kind, each at the minimum and above it
        assert len(kinds) == 6

    def test_gradient_rows_sum_to_zero(self):
        # softmax and the occupation probabilities are both distributions
        # per frame, so any error in beta shows as a nonzero row sum
        rng = np.random.default_rng(14)
        for _ in range(100):
            z, targets = random_lattice(rng, np.float64)
            _, grad = ctc_value_and_grad(z, targets)
            assert np.abs(grad.sum(axis=1)).max() < 1e-12, (z.shape, targets)


class TestCtcGreedy:
    @pytest.fixture
    def vocab(self):
        return V.Vocabulary(["a", "b"])

    def path_logits(self, path, k=3):
        z = np.zeros((len(path), k))
        for t, c in enumerate(path):
            z[t, c] = 5.0
        return z

    def test_all_blank(self, vocab):
        assert D.ctc_greedy_decode(self.path_logits([0, 0, 0]), vocab) == ""

    def test_collapse_rule(self, vocab):
        # a a blank a b b -> aab
        z = self.path_logits([1, 1, 0, 1, 2, 2])
        assert D.ctc_greedy_decode(z, vocab) == "aab"

    def test_single_symbol(self, vocab):
        assert D.ctc_greedy_decode(self.path_logits([0, 1, 0]), vocab) == "a"

    def test_tie_breaks_to_lowest_id(self, vocab):
        z = np.zeros((2, 3))  # all-equal logits: argmax picks class 0 (blank)
        assert D.ctc_greedy_decode(z, vocab) == ""

    def test_determinism(self, vocab):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((50, 3))
        texts = {D.ctc_greedy_decode(z, vocab) for _ in range(5)}
        assert len(texts) == 1


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        k = 7
        logits = Tensor(np.zeros((4, k)), dtype="f64")
        loss = D.cross_entropy_rows(logits, [0, 3, 5, 6])
        assert abs(loss.item() - np.log(k)) < 1e-12

    def test_masked_positions_do_not_matter(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((6, 5))
        tampered = base.copy()
        tampered[3:] += rng.standard_normal((3, 5)) * 10
        ids = np.array([1, 2, 3], dtype=np.int64)
        a = D.masked_ce_loss(Tensor(base, dtype="f64"), ids[:2]).item()
        b = D.masked_ce_loss(Tensor(tampered, dtype="f64"), ids[:2]).item()
        assert a == b

    def test_boundary_all_slots_supervised(self):
        t_max = 4
        logits = Tensor(np.zeros((t_max, 6)), dtype="f64")
        loss = D.masked_ce_loss(logits, [4, 5, 4])  # T = t_max - 1
        assert abs(loss.item() - np.log(6)) < 1e-12

    def test_too_long_target(self):
        with pytest.raises(D.TargetTooLongError):
            D.masked_ce_loss(Tensor(np.zeros((3, 6)), dtype="f64"), [4, 5, 4])

    def test_gradient(self):
        rng = np.random.default_rng(5)
        z = Tensor(rng.standard_normal((5, 4)), dtype="f64", requires_grad=True)
        mask = np.array([True, True, False, True, False])
        check_grads(lambda: D.cross_entropy_rows(z, [1, 0, 2, 3, 1], mask), [z])


def make_ar(seed=0, d=8, vocab_size=8, dtype="f64", **kw):
    return D.ArDecoder(d, vocab_size, n_layers=2, n_state=3, expand=2,
                       rng=np.random.default_rng(seed), dtype=dtype, **kw)


def make_attn(seed=0, d=8, vocab_size=8, dtype="f64", **kw):
    return D.AttentionBaselineDecoder(d, vocab_size, n_layers=2, n_heads=2,
                                      rng=np.random.default_rng(seed),
                                      dtype=dtype, **kw)


# both autoregressive decoders generate through the same greedy loop
both_ar = pytest.mark.parametrize("make", [make_ar, make_attn], ids=["mamba-ar", "attn"])


class TestArDecoder:
    def test_causal_contract(self):
        dec = make_ar(0)
        rng = np.random.default_rng(0)
        h = Tensor(rng.standard_normal((6, 8)), dtype="f64")
        ids = np.array([4, 5, 6, 7])
        base = dec.teacher_logits(h, ids).data
        ids2 = ids.copy()
        ids2[2] = 5  # perturb y_3: predictions for steps <= 2 i.e. rows 0..2 fixed
        pert = dec.teacher_logits(h, ids2).data
        assert np.array_equal(base[:3], pert[:3])
        assert not np.array_equal(base[3:], pert[3:])

    @both_ar
    def test_teacher_equals_forced_incremental(self, make):
        dec = make(1)
        rng = np.random.default_rng(1)
        h = rng.standard_normal((10, 8))
        ids = np.array([4, 6, 5, 7, 4])
        teacher = dec.teacher_logits(Tensor(h, dtype="f64"), ids).data
        gen = dec.generate(h, force_ids=ids)
        assert gen.step_logits.shape == teacher[:-1].shape or \
            gen.step_logits.shape == teacher.shape
        n = gen.step_logits.shape[0]
        assert np.abs(teacher[:n] - gen.step_logits).max() <= 1e-5

    def test_empty_target_supervises_eos_only(self):
        dec = make_ar(2)
        h = Tensor(np.zeros((4, 8)), dtype="f64")
        logits = dec.teacher_logits(h, [])
        assert logits.shape == (1, 8)

    @both_ar
    def test_immediate_eos_gives_empty(self, make):
        dec = make(3)
        dec.b_out.data[...] = 0.0
        dec.b_out.data[V.EOS] = 50.0  # rig the head toward eos
        gen = dec.generate(np.zeros((4, 8)))
        assert gen.ids == [] and not gen.truncated

    @both_ar
    def test_never_emits_control_ids(self, make):
        for seed in range(10):
            dec = make(seed)
            h = np.random.default_rng(seed).standard_normal((5, 8))
            gen = dec.generate(h, max_len=20)
            assert all(i not in (V.BLANK, V.PAD, V.SOS) for i in gen.ids)

    def test_cache_bytes_constant_in_length(self):
        dec = make_ar(4, max_len=1200)
        h = np.random.default_rng(4).standard_normal((5, 8))
        short = dec.generate(h, max_len=1, force_ids=[4])
        long = dec.generate(h, max_len=1000, force_ids=[4] * 1000)
        assert long.cache_bytes == short.cache_bytes
        assert long.cache_bytes / short.cache_bytes == 1.0

    def test_unknown_token_id(self):
        dec = make_ar(5)
        with pytest.raises(V.VocabularyError):
            dec.teacher_logits(Tensor(np.zeros((3, 8)), dtype="f64"), [99])

    @both_ar
    def test_target_longer_than_max_len_refused(self, make):
        dec = make(13, max_len=3)
        with pytest.raises(D.TargetTooLongError):
            dec.teacher_logits(Tensor(np.zeros((4, 8)), dtype="f64"), [4, 5, 6, 7, 4, 5])
        assert dec.teacher_logits(Tensor(np.zeros((4, 8)), dtype="f64"),
                                  [4, 5, 6]).shape == (4, 8)

    @both_ar
    @pytest.mark.parametrize("bad_id", [8, 99, -1])
    def test_target_id_outside_the_table_refused(self, make, bad_id):
        dec = make(14)
        with pytest.raises(V.VocabularyError):
            dec.teacher_logits(Tensor(np.zeros((3, 8)), dtype="f64"), [4, bad_id])

    @both_ar
    def test_generation_budget_above_max_len_refused(self, make):
        dec = make(15, max_len=4)
        with pytest.raises(D.TargetTooLongError):
            dec.generate(np.zeros((3, 8)), max_len=5)
        assert dec.generate(np.zeros((3, 8)), max_len=4).steps <= 4

    @both_ar
    @pytest.mark.parametrize("max_len", [0, -3])
    def test_generation_budget_below_one_refused(self, make, max_len):
        dec = make(16)
        with pytest.raises(ValueError, match="max_len"):
            dec.generate(np.zeros((3, 8)), max_len=max_len)


def make_nar(seed=0, d=8, vocab_size=8, t_max=6):
    return D.NarDecoder(d, vocab_size, t_max=t_max, n_layers=2, n_state=3,
                        expand=2, rng=np.random.default_rng(seed), dtype="f64")


class TestNarDecoder:
    def test_fixed_output_shape(self):
        dec = make_nar(0)
        rng = np.random.default_rng(0)
        for length in (3, 9, 17):
            h = Tensor(rng.standard_normal((length, 8)), dtype="f64")
            assert dec.logits(h).shape == (6, 8)

    def test_sensitive_to_visual_stream(self):
        dec = make_nar(1)
        rng = np.random.default_rng(1)
        a = dec.logits(Tensor(rng.standard_normal((5, 8)), dtype="f64")).data
        b = dec.logits(Tensor(rng.standard_normal((5, 8)), dtype="f64")).data
        assert np.abs(a - b).max() > 1e-6

    def test_bias_only_head_gives_uniform_rows(self):
        dec = make_nar(2)
        for p in dec.params().values():
            p.data[...] = 0.0
        logits = dec.logits(Tensor(np.zeros((4, 8)), dtype="f64"))
        assert np.all(logits.data == 0.0)  # identical logit per class

    def test_decode_rules(self):
        eos, pad = V.EOS, V.PAD
        a, b, c = 4, 5, 6

        def logits_for(ids, k=8):
            z = np.zeros((len(ids), k))
            for t, i in enumerate(ids):
                z[t, i] = 9.0
            return z

        assert D.nar_decode(logits_for([eos, a])).ids == []
        res = D.nar_decode(logits_for([a, b, eos, c]))
        assert res.ids == [a, b] and not res.truncated
        res = D.nar_decode(logits_for([a, pad, b, c]))
        assert res.ids == [a, b, c] and res.truncated  # no eos in budget


def make_model(kind):
    cfg = RunConfig(model_kind=kind, d_model=16, n_state=4, expand=2, layers=2,
                    enc_channels=(4, 4, 8, 8), seed=1)
    return build_model(cfg, V.Vocabulary(list("abc"))).eval()


LINE = (np.random.default_rng(5).random((32, 48)) * 255).astype(np.uint8)


class TestMambaStackOffTheTape:
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_unrecorded_logits_equal_the_tape_bitwise(self, dtype):
        rng = np.random.default_rng(3)
        common = dict(n_layers=2, n_state=16, expand=2, rng=rng, dtype=dtype)
        # I*N = 32*16 makes 128-row ZOH blocks: 300 visual rows span three
        h = Tensor(rng.standard_normal((300, 16)), dtype=dtype)
        ids = np.array([4, 6, 5, 7, 4])
        runs = [(D.CtcDecoder(16, 8, **common).frame_logits, (h,)),
                (D.NarDecoder(16, 8, t_max=40, **common).logits, (h,)),
                (D.ArDecoder(16, 8, **common).teacher_logits, (h, ids))]
        for run, args in runs:
            taped = run(*args).data
            with T.no_grad():
                fast = run(*args).data
            assert fast.dtype == taped.dtype and np.array_equal(fast, taped)
        T.active_tape().reset()

    @pytest.mark.parametrize("kind", ["mamba-ctc", "mamba-nar", "mamba-ar"])
    def test_only_recorded_stacks_reach_the_tape_chain(self, monkeypatch, kind):
        chain = [(ssm, "discretize_zoh"), (ssm, "selective_scan"), (T, "mul_rowbcast")]
        calls = dict.fromkeys((name for _, name in chain), 0)
        for module, name in chain:
            def counted(*args, _op=getattr(module, name), _name=name, **kw):
                calls[_name] += 1
                return _op(*args, **kw)
            monkeypatch.setattr(module, name, counted)
        model = make_model(kind)
        T.active_tape().reset()
        model.transcribe(LINE, max_len=3)
        # the connector's forward and flipped passes alone
        assert calls == dict.fromkeys(calls, 2)
        assert len(T.active_tape()) == 0
        calls.update(dict.fromkeys(calls, 0))
        model.loss(LINE, "ab")
        assert calls == dict.fromkeys(calls, 2 + model.cfg.layers)
        T.active_tape().reset()

    @pytest.mark.parametrize("kind,poison", [
        ("mamba-ar", lambda dec: dec.embed.data[V.SOS]),
        ("attn-ar-baseline", lambda dec: dec.embed.data[V.SOS]),
        ("mamba-ar", lambda dec: dec.layers[0].block.w_out.data),
    ], ids=["mamba-ar-sos", "attn-sos", "mamba-ar-w_out"])
    def test_non_finite_generation_raises(self, kind, poison):
        model = make_model(kind)
        poison(model.decoder)[...] = np.nan
        with pytest.raises(T.NonFiniteError):
            model.transcribe(LINE, max_len=3)


class TestAttentionBaseline:
    def test_cache_bytes_affine_formula(self):
        dec = make_attn(0)
        h = np.random.default_rng(0).standard_normal((7, 8))
        itemsize = 8  # f64
        for t in (1, 5, 12):
            gen = dec.generate(h, max_len=t, force_ids=[4] * t)
            expect = 2 * (7 + t) * 8 * 2 * itemsize
            assert gen.cache_bytes == expect

    def test_prefill_only_cache(self):
        dec = make_attn(1)
        h = np.random.default_rng(1).standard_normal((5, 8))
        cache = dec.start_stream(h)
        assert cache.length == 5
        assert cache.nbytes == 2 * 5 * 8 * 2 * 8

    def test_step_matches_batch_forward(self):
        dec = make_attn(2)
        rng = np.random.default_rng(2)
        h = rng.standard_normal((6, 8))
        ids = np.array([4, 5, 6, 4])
        teacher = dec.teacher_logits(Tensor(h, dtype="f64"), ids).data
        gen = dec.generate(h, force_ids=ids)
        n = gen.step_logits.shape[0]
        assert np.abs(teacher[:n] - gen.step_logits).max() <= 1e-5

    @pytest.mark.parametrize("prefill", [17, 100, 512])
    def test_f32_forced_matches_teacher(self, prefill):
        dec = make_attn(5, d=32, vocab_size=12, dtype="f32")
        rng = np.random.default_rng(prefill)
        h = rng.standard_normal((prefill, 32)).astype(np.float32)
        ids = rng.integers(4, 12, size=40)
        teacher = dec.teacher_logits(Tensor(h), ids).data
        gen = dec.generate(h, force_ids=ids)
        assert gen.step_logits.dtype == np.float32
        assert gen.step_logits.shape == (40, 12)
        assert np.abs(teacher[:40] - gen.step_logits).max() <= 1e-5

    def test_context_overflow(self):
        dec = make_attn(3, max_ctx=8)
        h = np.random.default_rng(3).standard_normal((6, 8))
        with pytest.raises(D.ContextOverflowError):
            dec.generate(h, max_len=10, force_ids=[4] * 10)

    def test_steps_write_into_the_prefill_buffers(self):
        dec = make_attn(7, max_ctx=32)
        h = np.random.default_rng(7).standard_normal((6, 8))
        cache = dec.start_stream(h)
        keys, values = list(cache.keys), list(cache.values)
        assert all(b.shape == (2, 32, 4) for b in keys + values)
        for t in range(1, 21):
            dec.step(4 + t % 4, t - 1, cache)
            assert cache.length == 6 + t
            assert cache.nbytes == 2 * (6 + t) * 8 * 2 * 8
            assert all(a is b for a, b in zip(cache.keys + cache.values, keys + values))

    def test_capacity_is_max_ctx(self):
        dec = make_attn(8, max_ctx=10)
        rng = np.random.default_rng(8)
        for prefill in (10, 13):  # a longer prefill keeps every row
            full = dec.start_stream(rng.standard_normal((prefill, 8)))
            assert full.length == prefill
            assert full.nbytes == 2 * prefill * 8 * 2 * 8
            with pytest.raises(D.ContextOverflowError):
                dec.step(4, 0, full)
        cache = dec.start_stream(rng.standard_normal((9, 8)))
        dec.step(4, 0, cache)
        assert cache.length == 10
        with pytest.raises(D.ContextOverflowError):
            dec.step(5, 1, cache)

    @pytest.mark.parametrize("dtype,tol", [("f64", 1e-12), ("f32", 1e-5)])
    @pytest.mark.parametrize("s", [1, D.ATTN_BLOCK_ROWS - 1, D.ATTN_BLOCK_ROWS,
                                   D.ATTN_BLOCK_ROWS + 1, 2 * D.ATTN_BLOCK_ROWS + 3])
    def test_causal_attention_matches_the_per_head_formula(self, s, dtype, tol):
        n_heads, d = 2, 8
        dh = d // n_heads
        rng = np.random.default_rng(s)
        arrays = [rng.standard_normal((s, d)) for _ in range(3)]
        weight = Tensor(rng.standard_normal((s, d)), dtype=dtype)

        def per_head(q, k, v):
            mask = Tensor(np.triu(np.full((s, s), D.NEG_MASK), k=1), dtype=dtype)
            heads = []
            for hd in range(n_heads):
                qh, kh, vh = (T.narrow(x, 1, hd * dh, dh) for x in (q, k, v))
                scores = T.mul(T.matmul(qh, T.permute(kh, (1, 0))), 1.0 / np.sqrt(dh))
                heads.append(T.matmul(T.softmax_lastdim(T.add(scores, mask)), vh))
            return T.concat(heads, axis=1)

        def run(attend):
            qkv = [Tensor(x, dtype=dtype, requires_grad=True) for x in arrays]
            out = attend(*qkv)
            T.backward(T.sum_all(T.mul(out, weight)))
            return [out.data] + [x.grad for x in qkv]

        got = run(lambda q, k, v: D.causal_attention(q, k, v, n_heads))
        want = run(per_head)
        for g, w, name in zip(got, want, ("out", "gq", "gk", "gv")):
            assert g.dtype == w.dtype
            assert np.abs(g - w).max() <= tol * np.abs(w).max(), name

    def test_causal_attention_keeps_probabilities_only_on_the_tape(self):
        s, n_heads, rows = 1024, 2, D.ATTN_BLOCK_ROWS
        rng = np.random.default_rng(11)
        qkv = [Tensor(rng.standard_normal((s, 8)), dtype="f64", requires_grad=True)
               for _ in range(3)]
        ends = [min(a + rows, s) for a in range(0, s, rows)]
        prob_bytes = n_heads * sum((b - a) * b for a, b in zip(range(0, s, rows), ends)) * 8

        def peak_bytes():
            tracemalloc.start()
            try:
                D.causal_attention(*qkv, n_heads)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                T.active_tape().reset()

        assert peak_bytes() >= prob_bytes
        with T.no_grad():
            assert peak_bytes() < prob_bytes / 2

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("d", [8, 64])
    def test_step_positional_row_is_the_table_row(self, monkeypatch, d, dtype):
        np_dtype = {"f32": np.float32, "f64": np.float64}[dtype]
        table = positional_encoding_1d(4096, d, np_dtype)
        for p in range(4096):
            row = positional_encoding_1d(1, d, np_dtype, start=p)
            assert row.shape == (1, d) and np.array_equal(row[0], table[p]), p
        rows = []

        def spy(*args, **kwargs):
            rows.append(positional_encoding_1d(*args, **kwargs))
            return rows[-1]

        monkeypatch.setattr(D, "positional_encoding_1d", spy)
        dec = make_attn(12, d=d, dtype=dtype)
        h = np.random.default_rng(12).standard_normal((3, d)).astype(np_dtype)
        cache = dec.start_stream(h)
        positions = [0, 1, 2, 511, 4095]
        for p in positions:
            dec.step(4, p, cache)
        assert len(rows) == len(positions)
        for row, p in zip(rows, positions):
            assert row.shape == (1, d) and np.array_equal(row[0], table[p]), p

    def test_trainable(self):
        dec = make_attn(4)
        rng = np.random.default_rng(4)
        h = Tensor(rng.standard_normal((4, 8)), dtype="f64")
        loss = dec.loss(h, [4, 5])
        T.backward(loss)
        assert dec.embed.grad is not None


class TestVocabulary:
    def test_roundtrip_and_ids(self):
        v = V.Vocabulary(["a", "b", "c"])
        assert v.size == 7 and v.ctc_size == 4
        ids = v.encode("cab")
        assert list(ids) == [6, 4, 5]
        assert v.decode(ids) == "cab"
        assert v.decode([V.SOS, 4, V.EOS]) == "a"

    def test_ctc_mapping(self):
        v = V.Vocabulary(["x", "y"])
        full = v.encode("yx")
        ctc = v.to_ctc(full)
        assert list(ctc) == [2, 1]
        assert np.array_equal(v.from_ctc(ctc), full)

    def test_unknown_char(self):
        v = V.Vocabulary(["a"])
        with pytest.raises(V.VocabularyError, match="'z'"):
            v.encode("az")

    def test_from_texts_sorted_dedup(self):
        v = V.Vocabulary.from_texts(["ba", "ab"])
        assert v.chars == ["a", "b"]
