"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The memorization and
scaling criteria train/time real models and take a few minutes.
"""

import itertools
import time

import numpy as np
import pytest

from ssmocr import bench as B
from ssmocr import decoders as D
from ssmocr import metrics as M
from ssmocr import ssm
from ssmocr import tensor as T
from ssmocr import train as TR
from ssmocr.checkpoint import apply_to_model, collect_from_model, load, save
from ssmocr.cli import run_step_latency
from ssmocr.config import RunConfig, config_to_mapping
from ssmocr.model import build_model
from ssmocr.rover import Slot, _align, rover_combine
from ssmocr.synth import SynthConfig, make_dataset
from ssmocr.tensor import Tensor
from ssmocr.vocab import Vocabulary
from gradcheck import check_grads


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[acceptance {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}",
          flush=True)
    assert ok, f"criterion {criterion}: {detail}"


# -- 1 ----------------------------------------------------------------------

def test_c01_scan_equivalence():
    t0 = time.perf_counter()
    worst = {"f32": 0.0, "f64": 0.0}
    tol = {"f32": 1e-5, "f64": 1e-10}
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_steps = int(rng.integers(1, 1025))
        d_inner = int(rng.integers(1, 65))
        n_state = int(rng.integers(1, 33))
        a = rng.uniform(0.0, 1.0, (n_steps, d_inner, n_state))
        bx = rng.standard_normal((n_steps, d_inner, n_state))
        c = rng.standard_normal((n_steps, n_state))
        for dtype in ("f32", "f64"):
            args = [Tensor(v, dtype=dtype) for v in (a, bx, c)]
            ys = ssm.selective_scan(*args, mode="sequential")
            yp = ssm.selective_scan(*args, mode="parallel")
            worst[dtype] = max(worst[dtype], float(np.abs(ys.data - yp.data).max()))
    ok = worst["f32"] <= tol["f32"] and worst["f64"] <= tol["f64"]
    report(1, ok, f"scan modes agree over 100 configs: max diff "
                  f"f32 {worst['f32']:.2e} (tol 1e-5), "
                  f"f64 {worst['f64']:.2e} (tol 1e-10), "
                  f"{time.perf_counter() - t0:.1f}s")


# -- 2 ----------------------------------------------------------------------

def _op_cases(rng):
    t = lambda shape, scale=1.0: Tensor(rng.standard_normal(shape) * scale,
                                        dtype="f64", requires_grad=True)
    mm_a, mm_b = t((3, 4)), t((4, 2))
    conv_x, conv_w, conv_b = t((2, 5, 5)), t((2, 2, 3, 3), 0.5), t(2)
    pool_x = Tensor(rng.permutation(18).reshape(2, 3, 3) * 1.0, dtype="f64",
                    requires_grad=True)
    act_x = t((3, 4))
    ln_x, ln_g, ln_b = t((3, 5)), t(5), t(5)
    bn_x, bn_g, bn_b = t((2, 3, 4)), t(2), t(2)
    emb = t((5, 3))
    emb_ids = rng.integers(0, 5, size=4)
    cc_x, cc_w, cc_b = t((5, 3)), t((3, 4)), t(3)
    zoh_a = Tensor(-np.exp(rng.standard_normal((2, 3))), dtype="f64",
                   requires_grad=True)
    zoh_d = Tensor(rng.uniform(0.01, 0.4, (4, 2)), dtype="f64", requires_grad=True)
    zoh_b = t((4, 3))

    def zoh_loss():
        a_bar, b_bar = ssm.discretize_zoh(zoh_a, zoh_d, zoh_b)
        return T.add(T.sum_all(T.mul(a_bar, a_bar)), T.sum_all(T.gelu(b_bar)))

    sc_a = Tensor(rng.uniform(0.1, 0.9, (4, 2, 3)), dtype="f64", requires_grad=True)
    sc_bx, sc_c, sc_d, sc_x = t((4, 2, 3)), t((4, 3)), t(2), t((4, 2))
    at_q, at_k, at_v = t((5, 4)), t((5, 4)), t((5, 4))
    ctc_z = t((5, 4))
    ce_z = t((4, 5))
    return {
        "matmul": ([mm_a, mm_b], lambda: T.sum_all(T.gelu(T.matmul(mm_a, mm_b)))),
        "conv2d": ([conv_x, conv_w, conv_b],
                   lambda: T.sum_all(T.silu(T.conv2d(conv_x, conv_w, conv_b,
                                                     stride=2, padding=1)))),
        "maxpool2d": ([pool_x], lambda: T.sum_all(T.gelu(T.maxpool2d(pool_x, (2, 2))))),
        "gelu": ([act_x], lambda: T.sum_all(T.gelu(act_x))),
        "silu": ([act_x], lambda: T.sum_all(T.silu(act_x))),
        "softplus": ([act_x], lambda: T.sum_all(T.softplus(act_x))),
        "exp": ([act_x], lambda: T.sum_all(T.exp(T.mul(act_x, 0.3)))),
        "softmax": ([act_x], lambda: T.sum_all(T.mul(T.softmax_lastdim(act_x), act_x))),
        "layernorm": ([ln_x, ln_g, ln_b],
                      lambda: T.sum_all(T.silu(T.layernorm_lastdim(ln_x, ln_g, ln_b)))),
        "batchnorm": ([bn_x, bn_g, bn_b],
                      lambda: T.sum_all(T.gelu(T.batchnorm2d(
                          bn_x, bn_g, bn_b, np.zeros(2), np.ones(2), training=True)))),
        "embedding": ([emb], lambda: T.sum_all(T.gelu(T.embedding(emb, emb_ids)))),
        "causal_conv1d": ([cc_x, cc_w, cc_b],
                          lambda: T.sum_all(T.silu(ssm.causal_conv1d(cc_x, cc_w, cc_b)))),
        "discretize_zoh": ([zoh_a, zoh_d, zoh_b], zoh_loss),
        "selective_scan": ([sc_a, sc_bx, sc_c, sc_d, sc_x], lambda: T.sum_all(
            T.gelu(ssm.selective_scan(sc_a, sc_bx, sc_c, sc_d, sc_x)))),
        "causal_attention": ([at_q, at_k, at_v], lambda: T.sum_all(
            T.gelu(D.causal_attention(at_q, at_k, at_v, 2)))),
        "ctc_loss": ([ctc_z], lambda: D.ctc_loss(ctc_z, [1, 2])),
        "cross_entropy": ([ce_z], lambda: D.cross_entropy_rows(
            ce_z, [1, 0, 4, 2], np.array([True, True, False, True]))),
    }


def test_c02_gradient_suite():
    t0 = time.perf_counter()
    n_seeds = 50
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        for name, (params, loss) in _op_cases(rng).items():
            check_grads(loss, params)
    blocks = connectors = 0
    for seed in range(n_seeds):
        block = ssm.MambaBlock(3, n_state=2, expand=2,
                               rng=np.random.default_rng(seed), dtype="f64")
        x = Tensor(np.random.default_rng(1000 + seed).standard_normal((4, 3)),
                   dtype="f64", requires_grad=True)
        check_grads(lambda: T.sum_all(T.gelu(block.forward(x))),
                    [x] + list(block.params().values()))
        blocks += 1
        conn = ssm.BiMambaConnector(3, n_state=2, expand=2,
                                    rng=np.random.default_rng(seed), dtype="f64")
        xc = Tensor(np.random.default_rng(2000 + seed).standard_normal((3, 3)),
                    dtype="f64", requires_grad=True)
        check_grads(lambda: T.sum_all(T.gelu(conn.forward(xc))),
                    [xc] + list(conn.params().values()))
        connectors += 1
    report(2, True, f"finite differences pass for 17 ops, {blocks} blocks, "
                    f"{connectors} connectors x {n_seeds} seeds "
                    f"({time.perf_counter() - t0:.1f}s)")


# -- 3 ----------------------------------------------------------------------

def test_c03_ctc_brute_force_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for n_classes in (2, 3, 4):          # blank + |V| in 1..3
        chars = list(range(1, n_classes))
        targets = []
        for t_len in range(0, 4):
            targets += [list(p) for p in itertools.product(chars, repeat=t_len)]
        for n_frames in range(1, 7):
            rng = np.random.default_rng(n_classes * 100 + n_frames)
            z = rng.standard_normal((n_frames, n_classes))
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            # enumerate every path once, pool probabilities per collapse
            pooled: dict[tuple, float] = {}
            for path in itertools.product(range(n_classes), repeat=n_frames):
                key = tuple(D.ctc_collapse(path))
                lp = sum(logp[t, c] for t, c in enumerate(path))
                pooled[key] = np.logaddexp(pooled.get(key, -np.inf), lp)
            for target in targets:
                if n_frames < D.ctc_required_frames(target):
                    continue
                want = -pooled.get(tuple(target), -np.inf)
                got = D.ctc_loss(Tensor(z, dtype="f64"), target).item()
                worst = max(worst, abs(got - want))
                cases += 1
    report(3, worst <= 1e-6,
           f"forward algorithm equals path enumeration on {cases} cases, "
           f"max |diff| {worst:.2e} (tol 1e-6, {time.perf_counter() - t0:.1f}s)")


# -- 4 ----------------------------------------------------------------------

def test_c04_ar_incremental_consistency():
    worst = 0.0
    for seed, n_vis in ((0, 512), (1, 100), (2, 17)):
        dec = D.ArDecoder(64, 30, n_layers=4, n_state=16, expand=2, max_len=600,
                          rng=np.random.default_rng(seed), dtype="f32")
        rng = np.random.default_rng(100 + seed)
        h = rng.standard_normal((n_vis, 64)).astype(np.float32)
        ids = rng.integers(4, 30, size=40)
        teacher = dec.teacher_logits(Tensor(h, dtype="f32"), ids).data
        gen = dec.generate(h, force_ids=ids)
        n = gen.step_logits.shape[0]
        worst = max(worst, float(np.abs(teacher[:n] - gen.step_logits).max()))
    report(4, worst <= 1e-5,
           f"teacher-forced vs cached incremental logits (f32, L up to 512): "
           f"max |diff| {worst:.2e} (tol 1e-5)")


# -- 5 ----------------------------------------------------------------------

def test_c05_bimamba_flip_equivariance():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        conn = ssm.BiMambaConnector(8, n_state=4, expand=2, rng=rng, dtype="f32")
        x = rng.standard_normal((int(rng.integers(1, 40)), 8)).astype(np.float32)
        a = conn.forward(Tensor(x, dtype="f32")).data
        b = conn.forward(Tensor(x[::-1].copy(), dtype="f32")).data
        worst = max(worst, float(np.abs(a - b[::-1]).max()))
    report(5, worst <= 1e-5,
           f"connector(flip(x)) == flip(connector(x)) over 50 seeds: "
           f"max |diff| {worst:.2e} (tol 1e-5)")


# -- 6 ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def memorization_dataset(tmp_path_factory):
    td = tmp_path_factory.mktemp("memorize")
    info = make_dataset(SynthConfig(out_dir=str(td), n_samples=32,
                                    splits=(1.0, 0, 0), seed=11,
                                    line_chars=(10, 22), glyph_scale=3,
                                    line_height=32))
    return info.manifests["train"]


def test_c06_memorization(memorization_dataset):
    budget_s = 600
    results = []
    for kind, target, lr in (("mamba-ctc", 2.0, 2e-3),
                             ("mamba-ar", 5.0, 1e-3),
                             ("mamba-nar", 5.0, 1e-3)):
        cfg = RunConfig(model_kind=kind, train_manifest=memorization_dataset,
                        max_steps=2000, eval_every=50, target_cer=target,
                        t_max=48, batch_size=4, lr=lr, seed=5,
                        out_dir=f"/tmp/ssmocr-accept-{kind}")
        t0 = time.perf_counter()
        res = TR.train_run(cfg)
        wall = time.perf_counter() - t0
        ok = res.best_cer <= target and res.steps <= 2000 and wall <= budget_s
        results.append((kind, res.best_cer, target, res.steps, wall, ok))
    detail = "; ".join(
        f"{k}: CER {c:.2f}% (<= {t}%) in {s} steps, {w:.0f}s"
        for k, c, t, s, w, ok in results)
    report(6, all(r[-1] for r in results), detail)


# -- 7 ----------------------------------------------------------------------

def test_c07_memory_scaling_and_step_latency():
    t0 = time.perf_counter()
    cfg = RunConfig()  # desk preset
    prefill = 200
    table = B.growth_table(
        [("mamba-ar", lambda t: B.mamba_cache_bytes(cfg, t)),
         ("attn-ar-baseline", lambda t: B.attention_cache_bytes(cfg, prefill, t))])
    mamba_f = table.factors("mamba-ar")[1000]
    attn_f = table.factors("attn-ar-baseline")[1000]
    _, fits = run_step_latency(cfg, prefill=prefill, n_steps=2000)
    mamba_fit = fits["mamba-ar"]
    attn_fit = fits["attn-ar-baseline"]
    ok = (mamba_f <= 1.05 and attn_f >= 2.0
          and abs(mamba_fit.relative_slope) < 0.05 and attn_fit.slope > 0)
    report(7, ok,
           f"cache growth at 1000 vs 100 chars: mamba {mamba_f:.2f}x (<= 1.05), "
           f"attention {attn_f:.2f}x (>= 2.0); step-latency slope: mamba "
           f"{mamba_fit.relative_slope * 100:.3f}% of intercept (< 5%), "
           f"attention {attn_fit.slope * 1e9:.1f} ns/step (> 0) "
           f"({time.perf_counter() - t0:.1f}s)")


# -- 8 ----------------------------------------------------------------------

def _dp_oracle(a, b):
    a, b = list(a), list(b)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_c08_metrics_oracle():
    rng = np.random.default_rng(8)
    alphabet = list("abcde é")
    mismatches = 0
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(0, 14))))
        b = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(0, 14))))
        if M.edit_distance(a, b)[0] != _dp_oracle(a, b):
            mismatches += 1
        if a.strip() and M.edit_distance(a.split(), b.split())[0] != _dp_oracle(
                a.split(), b.split()):
            mismatches += 1
    published = M.cer("kitten", "sitting")
    ok = mismatches == 0 and published == 50.0
    report(8, ok, f"CER/WER match the independent DP on 1000 pairs exactly "
                  f"(mismatches {mismatches}); kitten/sitting CER "
                  f"{published:.1f}% (= 50.0%)")


# -- 9 ----------------------------------------------------------------------

def _oracle_network(hyps, weights):
    """Rebuild the confusion network with the shared alignment, then pick
    winners by explicit enumeration (independent of Slot.winner)."""
    network = [Slot() for _ in hyps[0]]
    for slot, ch in zip(network, hyps[0]):
        slot.add(ch, weights[0], 0)
    aligned = [(0, weights[0])]
    for e in range(1, len(hyps)):
        ops = _align(network, hyps[e])
        rebuilt = []
        for kind, idx, ch in ops:
            if kind == "align":
                network[idx].add(ch, weights[e], e)
                rebuilt.append(network[idx])
            elif kind == "skip":
                network[idx].add("", weights[e], e)
                rebuilt.append(network[idx])
            else:
                slot = Slot()
                for pe, pw in aligned:
                    slot.add("", pw, pe)
                slot.add(ch, weights[e], e)
                rebuilt.append(slot)
        network = rebuilt
        aligned.append((e, weights[e]))
    out = []
    for slot in network:
        best_sym, best_key = None, None
        for sym, (total, single, engine) in slot.votes.items():
            key = (total, single, -engine)
            if best_key is None or key > best_key:
                best_sym, best_key = sym, key
        out.append(best_sym)
    return "".join(out)


def test_c09_rover():
    assert rover_combine(["same line", "same line", "same line"]) == "same line"
    assert rover_combine(["abc", "abc", "abd"], [5, 3, 3]) == "abc"
    rng = np.random.default_rng(9)
    alphabet = list("abcd")
    agree = 0
    for _ in range(200):
        base = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(1, 10))))
        hyps = []
        for _ in range(3):
            h = list(base)
            for _ in range(int(rng.integers(0, 3))):  # a few random edits
                op = rng.integers(0, 3)
                pos = int(rng.integers(0, max(len(h), 1)))
                if op == 0 and h:
                    h[min(pos, len(h) - 1)] = str(rng.choice(alphabet))
                elif op == 1 and h:
                    del h[min(pos, len(h) - 1)]
                else:
                    h.insert(pos, str(rng.choice(alphabet)))
            hyps.append("".join(h))
        weights = [float(rng.integers(1, 6)) for _ in range(3)]
        if rover_combine(hyps, weights) == _oracle_network(hyps, weights):
            agree += 1
    report(9, agree == 200,
           f"idempotence and weighted-vote example hold; {agree}/200 randomized "
           f"cases match the slot-enumeration oracle")


# -- 10 ---------------------------------------------------------------------

def test_c10_reproducibility(tmp_path, monkeypatch):
    t0 = time.perf_counter()

    def one_run(root):
        root.mkdir(parents=True, exist_ok=True)
        monkeypatch.chdir(root)
        make_dataset(SynthConfig(out_dir="data", n_samples=12, splits=(1.0, 0, 0),
                                 seed=4, line_chars=(4, 9), glyph_scale=2,
                                 line_height=32))
        cfg = RunConfig(model_kind="mamba-ctc", train_manifest="data/train.tsv",
                        out_dir="run", d_model=16, n_state=4, expand=2, layers=2,
                        enc_channels=(4, 4, 8, 8), max_steps=20, eval_every=0,
                        batch_size=2, lr=1e-3, seed=21)
        res = TR.train_run(cfg)
        return (root / res.last_path).read_bytes()

    bytes_a = one_run(tmp_path / "one")
    bytes_b = one_run(tmp_path / "two")
    identical = bytes_a == bytes_b

    # checkpoint roundtrip preserves forward outputs bit-exactly
    monkeypatch.chdir(tmp_path / "one")
    cfg = RunConfig(model_kind="mamba-ctc", d_model=16, n_state=4, expand=2,
                    layers=2, enc_channels=(4, 4, 8, 8), seed=3)
    vocabulary = Vocabulary(list("abc"))
    model = build_model(cfg, vocabulary)
    model.eval()
    img = (np.random.default_rng(6).random((32, 40)) * 255).astype(np.uint8)
    with T.no_grad():
        before = model.encode(img).data.copy()
    save(tmp_path / "rt.ckpt", collect_from_model(model, config_to_mapping(cfg)))
    model2 = build_model(cfg, vocabulary)
    apply_to_model(load(tmp_path / "rt.ckpt"), model2)
    model2.eval()
    with T.no_grad():
        after = model2.encode(img).data
    bit_exact = np.array_equal(before, after)
    report(10, identical and bit_exact,
           f"two synth+train runs byte-identical: {identical}; checkpoint "
           f"roundtrip forward bit-exact: {bit_exact} "
           f"({time.perf_counter() - t0:.1f}s)")
