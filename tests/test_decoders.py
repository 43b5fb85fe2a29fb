"""Decoding heads: CTC oracle, AR consistency, NAR masking, attention cache."""

import itertools

import numpy as np
import pytest

from ssmocr import decoders as D
from ssmocr import tensor as T
from ssmocr import vocab as V
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
        ids = rng.integers(4, 12, size=24)
        teacher = dec.teacher_logits(Tensor(h), ids).data
        gen = dec.generate(h, force_ids=ids)
        assert gen.step_logits.dtype == np.float32
        assert gen.step_logits.shape == (24, 12)
        assert np.abs(teacher[:24] - gen.step_logits).max() <= 1e-5

    def test_context_overflow(self):
        dec = make_attn(3, max_ctx=8)
        h = np.random.default_rng(3).standard_normal((6, 8))
        with pytest.raises(D.ContextOverflowError):
            dec.generate(h, max_len=10, force_ids=[4] * 10)

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
