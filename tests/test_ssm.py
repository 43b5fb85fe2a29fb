"""Selective-SSM core: discretization, scan modes, block and connector."""

import gc

import numpy as np
import pytest

from ssmocr import ssm
from ssmocr import tensor as T
from ssmocr.tensor import Tensor
from gradcheck import check_grads, rel_err
from memtrace import traced_bytes


def tt(x, grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


def zoh_chain_oracle(a, delta, b, u, c, d_skip, gy):
    """Forward and adjoint of discretize_zoh -> mul_rowbcast ->
    selective_scan in elementwise form: the series mask over the full
    (L, I, N) grid, dr/d(delta) and dr/da as arrays, and every contraction
    as an explicit multiply and sum."""
    cut = ssm.ZOH_SERIES_CUTOFF
    da = delta[:, :, None] * a
    a_bar = np.exp(da)
    small = np.abs(da) < cut
    safe_a = np.where(small, 1.0, np.broadcast_to(a, da.shape))
    r = np.where(small, delta[:, :, None] * (1.0 + 0.5 * da), (a_bar - 1.0) / safe_a)
    b_bar = r * b[:, None, :]
    bx = b_bar * u[:, :, None]
    h = np.zeros_like(bx)
    prev = np.zeros_like(bx[0])
    for t in range(len(bx)):
        prev = a_bar[t] * prev + bx[t]
        h[t] = prev
    y = (h * c[:, None, :]).sum(axis=2) + d_skip * u
    # scan adjoint
    dc = (gy[:, :, None] * h).sum(axis=1)
    g = gy[:, :, None] * c[:, None, :]
    for t in range(len(g) - 2, -1, -1):
        g[t] += a_bar[t + 1] * g[t + 1]
    ga_bar = np.zeros_like(g)
    ga_bar[1:] = g[1:] * h[:-1]
    gd_skip = (gy * u).sum(axis=0)
    # mul_rowbcast
    gb_bar = g * u[:, :, None]
    gu = gy * d_skip + (g * b_bar).sum(axis=2)
    # discretize
    dr_ddelta = np.where(small, 1.0 + da, a_bar)
    dr_da = np.where(small, 0.5 * delta[:, :, None] ** 2,
                     (da * a_bar - (a_bar - 1.0)) / (safe_a * safe_a))
    gb_r = gb_bar * b[:, None, :]
    gdelta = (ga_bar * a_bar * a).sum(axis=2) + (gb_r * dr_ddelta).sum(axis=2)
    ga = (ga_bar * a_bar * delta[:, :, None]).sum(axis=0) + (gb_r * dr_da).sum(axis=0)
    gb = (gb_bar * r).sum(axis=1)
    return y, [ga, gdelta, gb, gu, dc, gd_skip]


class TestDiscretizeZoh:
    def test_channel_prefilter_is_exact(self):
        rng = np.random.default_rng(12)
        cut = ssm.ZOH_SERIES_CUTOFF
        outcomes = set()
        for trial in range(600):
            L, i, n = (int(v) for v in rng.integers(1, 6, 3))
            L = 0 if trial % 50 == 0 else L
            delta = 10.0 ** rng.uniform(-8, -1, (L, i))
            delta[rng.random(L) < 0.2] = 0.0  # delta = 0 rows
            if trial % 3 == 0:  # products within a few ulps of the cutoff
                a = -(cut / delta.max(initial=1.0)) * (1.0 + rng.integers(-3, 4, (i, n)) * 1e-16)
            else:
                a = -(10.0 ** rng.uniform(-4, 1, (i, n)))
            a[rng.random((i, n)) < 0.1] = 0.0  # a = 0 entries
            dtype = np.float32 if trial % 2 else np.float64
            delta, a = delta.astype(dtype), a.astype(dtype)
            da = delta[:, :, None] * a
            full = np.abs(da) < cut
            small = ssm._series_entries(a, delta, da)
            assert (small is not None) == full.any()
            if small is not None:
                assert np.array_equal(small, full)
            outcomes.add(small is not None)
        assert outcomes == {True, False}

    def test_gradients_with_series_entries(self):
        rng = np.random.default_rng(3)
        a_np = -np.exp(rng.standard_normal((3, 2)))
        a_np[1, 0] = 0.0
        d_np = rng.uniform(0.01, 0.5, (4, 3))
        d_np[1] = 1e-9
        d_np[2, 2] = 0.0
        a = Tensor(a_np, requires_grad=True)
        delta = Tensor(d_np, requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        small = np.abs(d_np[:, :, None] * a_np) < ssm.ZOH_SERIES_CUTOFF
        assert 0 < small.sum() < small.size

        def loss():
            a_bar, b_bar = ssm.discretize_zoh(a, delta, b)
            return T.sum_all(T.add(T.mul(a_bar, a_bar), T.gelu(b_bar)))

        check_grads(loss, [a, delta, b])

    @pytest.mark.parametrize("series", [False, True])
    def test_chain_matches_elementwise_formulas_f64(self, series):
        rng = np.random.default_rng(21 + series)
        L, i, n = 40, 6, 4
        a = -np.tile(np.arange(1.0, n + 1), (i, 1)) * rng.uniform(0.5, 2.0, (i, n))
        delta = rng.uniform(1e-3, 0.5, (L, i))
        if series:
            delta[5] = 1e-9
            delta[17, 2] = 0.0
            a[3, 1] = 0.0
        b, c = rng.standard_normal((L, n)), rng.standard_normal((L, n))
        u, d_skip = rng.standard_normal((L, i)), rng.standard_normal(i)
        gy = rng.standard_normal((L, i))
        expect_y, expect_grads = zoh_chain_oracle(a, delta, b, u, c, d_skip, gy)

        ts = [Tensor(v, requires_grad=True) for v in (a, delta, b, u, c, d_skip)]
        at, dt, bt, ut, ct, st = ts
        a_bar, b_bar = ssm.discretize_zoh(at, dt, bt)
        y = ssm.selective_scan(a_bar, T.mul_rowbcast(b_bar, ut), ct, st, ut)
        T.backward(T.sum_all(T.mul(y, Tensor(gy))))

        def rel(got, expect):
            return np.abs(got - expect).max() / np.abs(expect).max()

        assert rel(y.data, expect_y) <= 1e-12
        for t, expect in zip(ts, expect_grads):
            assert rel(t.grad, expect) <= 1e-12

    def test_chain_matches_oracle_across_row_blocks(self):
        # desk I*N, so the ZOH runs in row blocks; series rows sit inside a
        # middle block and on the first row of the last block
        rng = np.random.default_rng(23)
        i, n = 128, 16
        rows = ssm._block_rows(i * n)
        L = 2 * rows + 7
        a = -np.tile(np.arange(1.0, n + 1), (i, 1)) * rng.uniform(0.5, 2.0, (i, n))
        a[3, 1] = 0.0
        delta = rng.uniform(1e-3, 0.5, (L, i))
        delta[rows + rows // 2] = 1e-9
        delta[2 * rows] = 1e-9
        delta[2 * rows, 5] = 0.0
        b, c = rng.standard_normal((L, n)), rng.standard_normal((L, n))
        u, d_skip = rng.standard_normal((L, i)), rng.standard_normal(i)
        gy = rng.standard_normal((L, i))
        expect_y, expect_grads = zoh_chain_oracle(a, delta, b, u, c, d_skip, gy)

        ts = [Tensor(v, requires_grad=True) for v in (a, delta, b, u, c, d_skip)]
        at, dt, bt, ut, ct, st = ts
        a_bar, b_bar = ssm.discretize_zoh(at, dt, bt)
        y = ssm.selective_scan(a_bar, T.mul_rowbcast(b_bar, ut), ct, st, ut)
        T.backward(T.sum_all(T.mul(y, Tensor(gy))))

        def rel(got, expect):
            return np.abs(got - expect).max() / np.abs(expect).max()

        assert rel(y.data, expect_y) <= 1e-12
        for t, expect in zip(ts, expect_grads):
            assert rel(t.grad, expect) <= 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_single_row_series_decision_at_the_cutoff(self, dtype):
        # one-row ZOH (the recurrent step) with min|delta| * min|a| and
        # min|da| within a few ulps of the cutoff on either side: the series
        # decision must agree with the full mask, and the factors with the
        # elementwise formulas
        rng = np.random.default_rng(31)
        cut = dtype(ssm.ZOH_SERIES_CUTOFF)
        outcomes = set()
        for trial in range(300):
            i, n = (int(v) for v in rng.integers(1, 6, 2))
            delta = (10.0 ** rng.uniform(-8, -1, i)).astype(dtype)
            base = cut / delta.min()
            steps = rng.integers(-3, 4, (i, n)) if trial % 2 else rng.integers(0, 4, (i, n))
            a = -(base + steps * np.spacing(base)).astype(dtype)
            bound = delta.min() * np.abs(a).min()
            assert abs(bound - cut) <= 8 * np.spacing(cut)
            da = delta[:, None] * a
            assert abs(np.abs(da).min() - cut) <= 8 * np.spacing(cut)
            full = np.abs(da) < cut
            small = ssm._series_entries(a, delta, da)
            assert (small is not None) == full.any()
            if small is not None:
                assert np.array_equal(small, full)
            a_bar, r = np.empty_like(a), np.empty_like(a)
            ssm._zoh_np(a, delta, a_bar, r)
            safe_a = np.where(full, 1.0, a).astype(dtype)
            expect_r = np.where(full, delta[:, None] * (1.0 + 0.5 * da), (np.exp(da) - 1.0) / safe_a)
            assert np.array_equal(a_bar, np.exp(da))
            assert np.array_equal(r, expect_r)
            outcomes.add(bool(full.any()))
        assert outcomes == {True, False}

    def test_closed_form_point(self):
        a = tt([[-1.0]])
        delta = tt([[np.log(2.0)]])
        b = tt([[1.0]])
        a_bar, b_bar = ssm.discretize_zoh(a, delta, b)
        assert abs(a_bar.data[0, 0, 0] - 0.5) < 1e-12
        assert abs(b_bar.data[0, 0, 0] - 0.5) < 1e-12

    def test_zero_timescale_limit(self):
        a_bar, b_bar = ssm.discretize_zoh(tt([[-2.0]]), tt([[0.0]]), tt([[3.0]]))
        assert a_bar.data[0, 0, 0] == 1.0
        assert b_bar.data[0, 0, 0] == 0.0

    def test_series_branch_matches_exact_form(self):
        # just above the cutoff the exact formula runs; compare it against
        # the series at the same point
        a_val, delta_val, b_val = -1.0, 1e-5, 1.7
        _, b_bar = ssm.discretize_zoh(tt([[a_val]]), tt([[delta_val]]), tt([[b_val]]))
        series = delta_val * b_val * (1 + delta_val * a_val / 2)
        assert abs(b_bar.data[0, 0, 0] - series) < 1e-9

    def test_gradients(self):
        rng = np.random.default_rng(0)
        a = Tensor(-np.exp(rng.standard_normal((3, 2))), dtype="f64", requires_grad=True)
        delta = Tensor(rng.uniform(0.01, 0.5, (4, 3)), dtype="f64", requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), dtype="f64", requires_grad=True)

        def loss():
            a_bar, b_bar = ssm.discretize_zoh(a, delta, b)
            return T.sum_all(T.add(T.mul(a_bar, a_bar), T.gelu(b_bar)))

        check_grads(loss, [a, delta, b])


class TestSelectiveProject:
    def _params(self, rng=None, dtype="f64"):
        rng = rng or np.random.default_rng(1)
        return ssm.SsmParams(d_inner=5, n_state=3, rng=rng, dtype=dtype)

    def test_zero_weights_zero_bias(self):
        p = self._params()
        for t in (p.w_b, p.b_b, p.w_c, p.b_c, p.w_dt, p.dt_bias):
            t.data[...] = 0.0
        b, c, delta = p.project(Tensor(np.zeros((4, 5)), dtype="f64"))
        assert np.all(b.data == 0) and np.all(c.data == 0)
        assert np.allclose(delta.data, np.log(2.0))

    def test_zero_input_gives_biases(self):
        p = self._params()
        p.b_b.data[...] = [1.0, 2.0, 3.0]
        p.b_c.data[...] = [-1.0, 0.5, 0.25]
        b, c, delta = p.project(Tensor(np.zeros((2, 5)), dtype="f64"))
        assert np.allclose(b.data, [[1, 2, 3]] * 2)
        assert np.allclose(c.data, [[-1, 0.5, 0.25]] * 2)
        assert np.allclose(delta.data, T.softplus_np(p.dt_bias.data))

    def test_delta_positive_all_seeds(self):
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            p = self._params(rng)
            u = Tensor(rng.standard_normal((3, 5)) * 5, dtype="f64")
            _, _, delta = p.project(u)
            assert np.all(delta.data > 0)


class TestSelectiveScan:
    def test_memoryless_when_a_zero(self):
        rng = np.random.default_rng(2)
        bx = rng.standard_normal((6, 4, 3))
        c = rng.standard_normal((6, 3))
        y = ssm.selective_scan(tt(np.zeros_like(bx)), tt(bx), tt(c), mode="sequential")
        assert np.allclose(y.data, np.einsum("lin,ln->li", bx, c))

    def test_cumulative_count(self):
        ones = np.ones((7, 1, 1))
        y = ssm.selective_scan(tt(ones), tt(ones), tt(np.ones((7, 1))),
                               mode="sequential")
        assert np.allclose(y.data[:, 0], np.arange(1, 8))

    def test_empty_sequence(self):
        z = np.zeros((0, 2, 3))
        y = ssm.selective_scan(tt(z), tt(z), tt(np.zeros((0, 3))))
        assert y.shape == (0, 2)

    def test_parallel_matches_sequential_long_f32(self):
        rng = np.random.default_rng(3)
        shape = (1024, 8, 4)
        a = rng.uniform(0.0, 1.0, shape).astype(np.float32)
        bx = rng.standard_normal(shape).astype(np.float32)
        c = rng.standard_normal((1024, 4)).astype(np.float32)
        ys = ssm.selective_scan(Tensor(a), Tensor(bx), Tensor(c), mode="sequential")
        yp = ssm.selective_scan(Tensor(a), Tensor(bx), Tensor(c), mode="parallel")
        assert np.abs(ys.data - yp.data).max() <= 1e-5

    @pytest.mark.parametrize("dtype,tol", [("f32", 1e-5), ("f64", 1e-10)])
    def test_mode_agreement_random_shapes(self, dtype, tol):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            L = int(rng.integers(1, 257))
            i = int(rng.integers(1, 17))
            n = int(rng.integers(1, 9))
            a = rng.uniform(0.0, 1.0, (L, i, n))
            bx = rng.standard_normal((L, i, n))
            c = rng.standard_normal((L, n))
            args = [Tensor(v, dtype=dtype) for v in (a, bx, c)]
            ys = ssm.selective_scan(*args, mode="sequential")
            yp = ssm.selective_scan(*args, mode="parallel")
            assert np.abs(ys.data - yp.data).max() <= tol

    def test_default_mode_is_the_sequential_recurrence(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.0, 1.0, (33, 6, 4)).astype(np.float32)
        bx = rng.standard_normal((33, 6, 4)).astype(np.float32)
        c = rng.standard_normal((33, 4)).astype(np.float32)
        y = ssm.selective_scan(Tensor(a), Tensor(bx), Tensor(c))
        expect = np.einsum("lin,ln->li", ssm._scan_sequential(a, bx), c)
        assert y.data.tobytes() == expect.tobytes()

    @staticmethod
    def _scan_args(rng, L, i=2, n=2, skip=True):
        args = [
            Tensor(rng.uniform(0.5, 0.99, (L, i, n)), dtype="f64", requires_grad=True),
            Tensor(rng.standard_normal((L, i, n)), dtype="f64", requires_grad=True),
            Tensor(rng.standard_normal((L, n)), dtype="f64", requires_grad=True),
        ]
        if skip:
            args += [Tensor(rng.standard_normal(i), dtype="f64", requires_grad=True),
                     Tensor(rng.standard_normal((L, i)), dtype="f64", requires_grad=True)]
        return args

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("L", [1, 2, 300])
    def test_adjoint_gradcheck(self, L, skip):
        args = self._scan_args(np.random.default_rng(L), L, skip=skip)
        check_grads(lambda: T.sum_all(T.gelu(ssm.selective_scan(*args))), args)

    @pytest.mark.parametrize("skip", [False, True])
    def test_empty_sequence_backward(self, skip):
        args = self._scan_args(np.random.default_rng(0), 0, i=3, n=2, skip=skip)
        y = ssm.selective_scan(*args)
        assert y.shape == (0, 3)
        T.backward(T.sum_all(y))
        assert args[0].grad.shape == (0, 3, 2) and args[1].grad.shape == (0, 3, 2)
        assert args[2].grad.shape == (0, 2)
        if skip:
            assert np.array_equal(args[3].grad, np.zeros(3))
            assert args[4].grad.shape == (0, 3)

    def test_one_adjoint_for_both_modes(self):
        args = self._scan_args(np.random.default_rng(6), 257, i=5, n=3)
        grads = {}
        for mode in ("sequential", "parallel"):
            for t in args:
                t.grad = None
            T.backward(T.sum_all(T.gelu(ssm.selective_scan(*args, mode=mode))))
            grads[mode] = [t.grad.copy() for t in args]
        for gs, gp in zip(grads["sequential"], grads["parallel"]):
            assert np.abs(gs - gp).max() <= 1e-10

    def test_unknown_mode_rejected(self):
        z = np.zeros((2, 1, 1))
        with pytest.raises(ValueError, match="scan mode"):
            ssm.selective_scan(tt(z), tt(z), tt(np.zeros((2, 1))), mode="blocked")

    def test_gradients_with_skip(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.uniform(0.1, 0.9, (5, 3, 2)), dtype="f64", requires_grad=True)
        bx = Tensor(rng.standard_normal((5, 3, 2)), dtype="f64", requires_grad=True)
        c = Tensor(rng.standard_normal((5, 2)), dtype="f64", requires_grad=True)
        d = Tensor(rng.standard_normal(3), dtype="f64", requires_grad=True)
        x = Tensor(rng.standard_normal((5, 3)), dtype="f64", requires_grad=True)

        def loss():
            return T.sum_all(T.gelu(ssm.selective_scan(a, bx, c, d, x)))

        check_grads(loss, [a, bx, c, d, x])


class TestCausalConv1d:
    def test_causal_shift(self):
        x = tt(np.eye(6)[:, :2], grad=False)  # impulse at t=0 (ch 0), t=1 (ch 1)
        w = tt(np.tile([[0.0, 0.0, 0.0, 1.0]], (2, 1)))
        b = tt(np.zeros(2))
        y = ssm.causal_conv1d(x, w, b)
        assert np.allclose(y.data, x.data)  # kernel tap at current position

    def test_gradients(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((6, 3)), dtype="f64", requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), dtype="f64", requires_grad=True)
        b = Tensor(rng.standard_normal(3), dtype="f64", requires_grad=True)
        check_grads(lambda: T.sum_all(T.silu(ssm.causal_conv1d(x, w, b))), [x, w, b])


# L = blocks * rows + extra_rows around the row blocks of the off-tape forward
across_row_blocks = pytest.mark.parametrize(
    "blocks,extra_rows", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
# the same with L >= 1, and around the second block edge, where a recording
# chain starts to rerun blocks
block_edges = pytest.mark.parametrize(
    "blocks,extra_rows", [(0, 1), (1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1), (3, 7)])


def make_block(seed=0, d=4, n=3, expand=2, dtype="f64"):
    return ssm.MambaBlock(d, n_state=n, expand=expand,
                          rng=np.random.default_rng(seed), dtype=dtype)


DESK_ROWS = ssm._block_rows(128 * 16)  # row block at desk (I, N) = (128, 16)


def chain_inputs(L, dtype, series=True):
    """Desk-width inputs to the ZOH -> b_bar * u -> scan chain: (a, delta,
    b, c, u, d_skip). With ``series``, whole rows of delta take the ZOH
    series branch, mid-block and on a block's first row."""
    i, n = 128, 16
    rng = np.random.default_rng(60 + L)
    a = -np.tile(np.arange(1.0, n + 1), (i, 1)) * rng.uniform(0.5, 2.0, (i, n))
    delta = rng.uniform(1e-3, 0.5, (L, i))
    if series:
        for t in (DESK_ROWS // 2, DESK_ROWS, 2 * DESK_ROWS + 3):
            delta[t:t + 1] = 1e-9
    b, c = rng.standard_normal((L, n)), rng.standard_normal((L, n))
    u, d_skip = rng.standard_normal((L, i)), rng.standard_normal(i)
    return [Tensor(v, dtype=dtype) for v in (a, delta, b, c, u, d_skip)]


def recorded(ts):
    return [Tensor(t.data, requires_grad=True) for t in ts]


class TestUnrecordedChain:
    """Off the tape ``discretize_zoh`` keeps r in one row block and
    ``selective_scan`` walks row blocks: each equals its recorded output
    bitwise and builds nothing that only its backward reads."""

    @across_row_blocks
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_zoh_equals_the_recorded_zoh_bitwise(self, blocks, extra_rows, dtype):
        a, delta, b, *_ = chain_inputs(blocks * DESK_ROWS + extra_rows, dtype)
        taped = ssm.discretize_zoh(*recorded([a, delta, b]))
        assert taped[0].node is not None
        T.active_tape().reset()
        fast = ssm.discretize_zoh(a, delta, b)
        for got, expect in zip(fast, taped):
            assert got.node is None and got.data.dtype == expect.data.dtype
            assert np.array_equal(got.data, expect.data)

    @across_row_blocks
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_scan_equals_the_recorded_scan_bitwise(self, blocks, extra_rows, skip, dtype):
        a, delta, b, c, u, d_skip = chain_inputs(blocks * DESK_ROWS + extra_rows, dtype)
        a_bar, b_bar = ssm.discretize_zoh(a, delta, b)
        args = [a_bar, T.mul_rowbcast(b_bar, u), c] + ([d_skip, u] if skip else [])
        taped = ssm.selective_scan(*recorded(args))
        assert taped.node is not None
        T.active_tape().reset()
        with T.no_grad():
            fast = ssm.selective_scan(*recorded(args))
        assert fast.node is None and fast.data.dtype == taped.data.dtype
        assert np.array_equal(fast.data, taped.data)

    def test_scan_peak_stays_below_one_state_array(self):
        a, delta, b, c, u, d_skip = chain_inputs(3 * DESK_ROWS + 7, "f32")
        a_bar, b_bar = ssm.discretize_zoh(a, delta, b)
        bx = T.mul_rowbcast(b_bar, u)
        with T.no_grad():
            _, peak, _ = traced_bytes(lambda: ssm.selective_scan(a_bar, bx, c, d_skip, u))
        assert peak < a_bar.data.nbytes

    def test_zoh_peak_stays_below_three_state_arrays(self):
        # its two (L, I, N) outputs plus row blocks (2.56 arrays here)
        a, delta, b, *_ = chain_inputs(3 * DESK_ROWS + 7, "f32", series=False)
        with T.no_grad():
            (a_bar, _), peak, _ = traced_bytes(lambda: ssm.discretize_zoh(a, delta, b))
        assert peak < 3 * a_bar.data.nbytes

    def test_zoh_peak_with_series_rows_stays_within_2_6_state_arrays(self):
        # three whole rows on the series branch: the series is evaluated on
        # the masked entries alone and |da| goes to the r block, so a series
        # block adds only masks (block-sized temporaries read 3.13 arrays)
        a, delta, b, *_ = chain_inputs(3 * DESK_ROWS + 7, "f32", series=True)
        with T.no_grad():
            (a_bar, _), peak, _ = traced_bytes(lambda: ssm.discretize_zoh(a, delta, b))
        assert peak <= 2.6 * a_bar.data.nbytes



def unrecorded_chain(L, dtype, skip=True):
    """(a_bar, b_bar * u, c[, d_skip, u]) at desk widths, off the tape."""
    a, delta, b, c, u, d_skip = chain_inputs(L, dtype)
    with T.no_grad():
        a_bar, b_bar = ssm.discretize_zoh(a, delta, b)
        bx = T.mul_rowbcast(b_bar, u)
    return [a_bar, bx, c] + ([d_skip, u] if skip else [])


def rows_of(t, blk):
    return t if t.data.ndim == 1 else Tensor(t.data[blk])


class TestScanState:
    """``selective_scan(state=)`` takes h_(-1) as a Tensor and returns the
    final state beside y, so a sequence scanned in row blocks is one scan."""

    @across_row_blocks
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_split_at_row_blocks_equals_one_call_bitwise(self, blocks, extra_rows,
                                                         skip, dtype):
        L = blocks * DESK_ROWS + extra_rows
        args = unrecorded_chain(L, dtype, skip)
        whole = ssm.selective_scan(*args).data
        state = Tensor(np.zeros((128, 16), dtype=args[1].data.dtype))
        parts = []
        for s in range(0, L, DESK_ROWS):
            blk = slice(s, s + DESK_ROWS)
            y, state = ssm.selective_scan(*(rows_of(t, blk) for t in args), state=state)
            assert y.node is None and state.node is None
            parts.append(y.data)
        split = np.concatenate(parts) if parts else np.zeros_like(whole)
        assert split.dtype == whole.dtype and split.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_zero_state_is_no_state(self, dtype):
        args = unrecorded_chain(2 * DESK_ROWS + 5, dtype)
        state = Tensor(np.zeros((128, 16), dtype=args[1].data.dtype))
        got, final = ssm.selective_scan(*args, state=state)
        assert got.data.tobytes() == ssm.selective_scan(*args).data.tobytes()
        assert np.any(final.data != 0.0) and not state.data.any()

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_final_state_is_the_prefill_state_bitwise(self, dtype):
        blk = make_block(7, d=64, n=16, dtype=dtype)
        L, i = 3 * DESK_ROWS + 7, blk.d_inner
        x = np.random.default_rng(7).standard_normal((L, 64)).astype(blk.w_in.data.dtype)
        _, prefill = blk.forward_np(x)
        xz = x @ blk.w_in.data + blk.b_in.data
        u = ssm._silu_np(ssm._causal_conv_np(xz[:, :i], blk.conv_w.data, blk.conv_b.data)[0])
        b, c, delta = blk.ssm._project_np(u)
        a, u = Tensor(-np.exp(blk.ssm.a_log.data)), Tensor(u)
        with T.no_grad():
            a_bar, b_bar = ssm.discretize_zoh(a, Tensor(delta), Tensor(b))
            _, state = ssm.selective_scan(a_bar, T.mul_rowbcast(b_bar, u), Tensor(c),
                                          blk.ssm.d_skip, u, state=Tensor(np.zeros_like(prefill.h)))
        assert state.data.tobytes() == prefill.h.tobytes()

    def test_parallel_scan_or_a_misshapen_state_is_refused(self):
        args = unrecorded_chain(9, "f64")
        with pytest.raises(ValueError, match="state"):
            ssm.selective_scan(*recorded(args), mode="parallel", state=Tensor(np.zeros((128, 16))))
        assert len(T.active_tape()) == 0
        with pytest.raises(T.ShapeError):
            ssm.selective_scan(*args, state=Tensor(np.zeros((16, 128))))

    @block_edges
    @pytest.mark.parametrize("skip", [False, True])
    def test_recorded_split_at_row_blocks_equals_one_call(self, blocks, extra_rows, skip):
        # a Tensor state is an input of each call and its final state an
        # output, so the adjoint is carried back across the block edges
        L = blocks * DESK_ROWS + extra_rows
        args = unrecorded_chain(L, "f64", skip)
        gy = np.random.default_rng(L).standard_normal((L, 128))
        whole_in = recorded(args)
        whole = ssm.selective_scan(*whole_in)
        T.backward(T.sum_all(T.mul(whole, Tensor(gy))))
        split_in = recorded(args)
        state, parts = Tensor(np.zeros((128, 16)), requires_grad=True), []
        for s in range(0, L, DESK_ROWS):
            m = min(DESK_ROWS, L - s)
            part = (t if t.data.ndim == 1 else T.narrow(t, 0, s, m) for t in split_in)
            y, state = ssm.selective_scan(*part, state=state)
            parts.append(y)
        split = T.concat(parts)
        assert split.data.tobytes() == whole.data.tobytes()
        T.backward(T.sum_all(T.mul(split, Tensor(gy))))
        for got, expect in zip(split_in, whole_in):
            assert rel_err(got.grad, expect.grad) <= 1e-12

    @pytest.mark.parametrize("L", [0, 1, 5])
    def test_entering_state_gradient_passes_finite_differences(self, L):
        # the loss reads y and the final state, so both adjoints flow
        rng = np.random.default_rng(30 + L)
        args = TestSelectiveScan._scan_args(rng, L, i=3, n=2)
        h0 = Tensor(rng.standard_normal((3, 2)), dtype="f64", requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), dtype="f64")

        def loss():
            y, h = ssm.selective_scan(*args, state=h0)
            return T.add(T.sum_all(T.gelu(y)), T.sum_all(T.mul(h, w)))

        check_grads(loss, args + [h0])


class TestMambaBlock:
    def test_causality_bit_exact(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            block = make_block(seed)
            x = rng.standard_normal((9, 4))
            y0 = block.forward(Tensor(x, dtype="f64")).data
            t = int(rng.integers(1, 9))
            xp = x.copy()
            xp[t] += rng.standard_normal(4)
            y1 = block.forward(Tensor(xp, dtype="f64")).data
            assert np.array_equal(y0[:t], y1[:t])

    def test_zero_input_zero_biases_gives_zero(self):
        block = make_block(1)
        for name, p in block.params().items():
            if name.endswith(".b") or "bias" in name or name.endswith("b_b"):
                p.data[...] = 0.0
        block.b_in.data[...] = 0.0
        block.conv_b.data[...] = 0.0
        block.b_out.data[...] = 0.0
        block.ssm.b_b.data[...] = 0.0
        block.ssm.b_c.data[...] = 0.0
        block.ssm.dt_bias.data[...] = 0.0
        y = block.forward(Tensor(np.zeros((5, 4)), dtype="f64"))
        assert np.all(y.data == 0)

    def test_step_matches_full_sequence(self):
        for seed in range(5):
            block = make_block(seed, d=6, n=4)
            rng = np.random.default_rng(100 + seed)
            x = rng.standard_normal((40, 6))
            full = block.forward(Tensor(x, dtype="f64")).data
            state = block.init_state()
            stepped = np.stack([block.step(row, state) for row in x])
            assert np.abs(full - stepped).max() <= 1e-5

    def test_forward_np_matches_tape_path_and_state(self):
        block = make_block(3, d=5, n=3)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((17, 5))
        y_tape = block.forward(Tensor(x, dtype="f64")).data
        y_np, state = block.forward_np(x)
        assert np.abs(y_tape - y_np).max() < 1e-12
        # continuing from the captured state equals running the longer sequence
        extra = rng.standard_normal((3, 5))
        cont = np.stack([block.step(row, state) for row in extra])
        full = block.forward(Tensor(np.vstack([x, extra]), dtype="f64")).data
        assert np.abs(full[17:] - cont).max() <= 1e-8

    @across_row_blocks
    def test_forward_np_across_row_blocks(self, blocks, extra_rows):
        # desk widths (I*N = 128*16): the prefill runs in row blocks of `rows`
        block = make_block(5, d=64, n=16)
        rows = ssm._block_rows(block.d_inner * block.n_state)
        L = blocks * rows + extra_rows
        rng = np.random.default_rng(50 + L)
        x = rng.standard_normal((L, 64))
        y_np, state = block.forward_np(x)
        assert y_np.shape == (L, 64)
        assert np.abs(block.forward(Tensor(x, dtype="f64")).data - y_np).max(initial=0) <= 1e-12
        extra = rng.standard_normal((3, 64))
        cont = np.stack([block.step(row, state) for row in extra])
        full = block.forward(Tensor(np.vstack([x, extra]), dtype="f64")).data
        assert np.abs(full[L:] - cont).max() <= 1e-8

    def test_state_bounded_on_long_input(self):
        block = make_block(7, d=4, n=3)
        rng = np.random.default_rng(7)
        state = block.init_state()
        norms = []
        for t in range(10_000):
            block.step(rng.uniform(-1, 1, 4), state)
            if t % 500 == 0:
                norms.append(np.abs(state.h).max())
        assert np.isfinite(norms).all()
        assert max(norms) < 1e3

    def test_gradients_full_block(self):
        block = make_block(11, d=3, n=2)
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((4, 3)), dtype="f64", requires_grad=True)
        params = [x] + list(block.params().values())
        check_grads(lambda: T.sum_all(T.gelu(block.forward(x))), params)

    def test_recurrent_state_bytes_constant(self):
        block = make_block(2)
        state = block.init_state()
        before = state.nbytes
        for _ in range(50):
            block.step(np.zeros(4), state)
        assert state.nbytes == before


def make_connector(seed=0, d=4, n=2, expand=2, dtype="f64"):
    return ssm.BiMambaConnector(d, n_state=n, expand=expand,
                                rng=np.random.default_rng(seed), dtype=dtype)


class TestBiMambaConnector:
    def test_flip_equivariance(self):
        for seed in range(10):
            conn = make_connector(seed)
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((11, 4))
            a = conn.forward(Tensor(x, dtype="f64")).data
            b = conn.forward(Tensor(x[::-1].copy(), dtype="f64")).data
            assert np.abs(a - b[::-1]).max() <= 1e-5

    def test_singleton_sequence_doubles_block_output(self):
        conn = make_connector(5)
        x = Tensor(np.random.default_rng(5).standard_normal((1, 4)), dtype="f64")
        xt = T.gelu(T.linear(
            T.layernorm_lastdim(x, conn.norm1_g, conn.norm1_b), conn.w1, conn.b1))
        single = conn.block.forward(xt).data
        fwd = conn.block.forward(xt).data
        bwd = np.flip(conn.block.forward(T.flip(xt, 0)).data, 0)
        assert np.allclose(fwd + bwd, 2 * single, atol=1e-12)

    def test_bidirectional_sensitivity(self):
        conn = make_connector(9)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 4))
        y0 = conn.forward(Tensor(x, dtype="f64")).data
        xp = x.copy()
        # non-uniform bump: a constant shift would be erased by layernorm
        xp[-1] += np.array([2.0, -1.0, 0.5, -3.0])
        y1 = conn.forward(Tensor(xp, dtype="f64")).data
        assert np.abs(y1[0] - y0[0]).max() > 0  # last input reaches position 0

    def test_gradients_full_connector(self):
        conn = make_connector(13, d=3, n=2)
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((3, 3)), dtype="f64", requires_grad=True)
        params = [x] + list(conn.params().values())
        check_grads(lambda: T.sum_all(T.gelu(conn.forward(x))), params)


    @across_row_blocks
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_unrecorded_forward_is_the_tape_forward_bitwise(self, monkeypatch, blocks,
                                                            extra_rows, dtype):
        # desk widths (I*N = 128*16). Settings as in TestMambaLayer's twin:
        # a zero window of inputs to a direction puts its row on the ZOH
        # series branch, here mid-block and on a block's first row
        conn = make_connector(5, d=64, n=16, dtype=dtype)
        blk = conn.block
        rows = ssm._block_rows(blk.d_inner * blk.n_state)
        L = blocks * rows + extra_rows
        blk.ssm.dt_bias.data[...] = -30.0
        blk.ssm.w_dt.data[...] = 100.0
        x = np.random.default_rng(50 + L).standard_normal((L, 64))
        series_rows = [t for t in (rows // 2, rows, 2 * rows + 3) if t < L]
        for t in series_rows:  # zero x gives zero block input at init
            x[t - ssm.CONV_WIDTH + 1 : t + 1] = 0.0  # forward direction
            x[L - 1 - t : L - 1 - t + ssm.CONV_WIDTH] = 0.0  # flipped direction
        xt = Tensor(x, dtype=dtype)

        calls = {"zoh": 0, "rowbcast": 0, "scan": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ssm, "discretize_zoh", counted("zoh", ssm.discretize_zoh))
        monkeypatch.setattr(T, "mul_rowbcast", counted("rowbcast", T.mul_rowbcast))
        monkeypatch.setattr(ssm, "selective_scan", counted("scan", ssm.selective_scan))
        taped = conn.forward(xt)
        assert taped.node is not None
        T.active_tape().reset()
        # a block per call, except that under two blocks the chain records whole
        assert set(calls.values()) == {2 * (-(-L // rows) if L >= 2 * rows else 1)}
        calls.update(dict.fromkeys(calls, 0))

        zoh, seen = ssm._zoh_np, []

        def spy(a, delta, a_bar, r):
            small = zoh(a, delta, a_bar, r)
            seen.append(np.zeros(len(delta), bool) if small is None else small.all(axis=(1, 2)))
            return small

        monkeypatch.setattr(ssm, "_zoh_np", spy)
        with T.no_grad():
            fast = conn.forward(xt).data
        assert len(T.active_tape()) == 0
        assert fast.dtype == taped.data.dtype and fast.tobytes() == taped.data.tobytes()
        assert set(calls.values()) == {2 * max(1, -(-L // rows))}
        series = np.concatenate(seen) if seen else np.zeros(0, bool)
        for direction in (series[:L], series[L:]):
            assert set(series_rows) <= set(np.flatnonzero(direction))
            assert L < rows or not direction.all()


def whole_chain(a, delta, b, c, u, d_skip):
    """The chain over the whole sequence, one recorded call per op."""
    a_bar, b_bar = ssm.discretize_zoh(a, delta, b)
    return ssm.selective_scan(a_bar, T.mul_rowbcast(b_bar, u), c, d_skip, u)


def loss_and_grads(forward, leaves, gy):
    """y, the loss sum(y * gy), both as bytes, and the leaves' gradients."""
    for t in leaves:
        t.grad = None
    y = forward()
    loss = T.sum_all(T.mul(y, Tensor(gy)))
    out = y.data.tobytes(), loss.data.tobytes()
    T.backward(loss)
    return out, [t.grad for t in leaves]


GRAD_RTOL = {"f32": 1e-5, "f64": 1e-12}


class TestBlockCheckpoints:
    """A recording chain keeps its tail on a tape and only the entering
    state of each block before it; backward reruns those blocks. Values
    and losses are the whole-sequence chain's bit for bit, and gradients
    its gradients to roundoff."""

    @block_edges
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_chain_gradients_match_the_whole_sequence_chain(self, blocks, extra_rows,
                                                            dtype):
        L = blocks * DESK_ROWS + extra_rows
        leaves = recorded(chain_inputs(L, dtype))  # series rows as in chain_inputs
        gy = np.random.default_rng(L).standard_normal((L, 128)).astype(leaves[0].data.dtype)
        expect, g_whole = loss_and_grads(lambda: whole_chain(*leaves), leaves, gy)
        got, g_blocks = loss_and_grads(lambda: ssm._chain_blocks(leaves), leaves, gy)
        assert got == expect
        for g, e in zip(g_blocks, g_whole):
            assert g.dtype == e.dtype and rel_err(g, e) <= GRAD_RTOL[dtype]

    @block_edges
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("module", ["block", "connector"])
    def test_module_gradients_match_the_whole_sequence_chain(self, monkeypatch, blocks,
                                                             extra_rows, dtype, module):
        # desk widths; zero input windows put rows of each direction on the
        # ZOH series branch, mid-block and on a block's first row
        conn = make_connector(8, d=64, n=16, dtype=dtype)
        blk = conn.block
        blk.ssm.dt_bias.data[...] = -30.0
        blk.ssm.w_dt.data[...] = 100.0
        L = blocks * DESK_ROWS + extra_rows
        x = np.random.default_rng(70 + L).standard_normal((L, 64))
        for t in (DESK_ROWS // 2, DESK_ROWS, 2 * DESK_ROWS + 3):
            if t < L:
                x[max(0, t - ssm.CONV_WIDTH + 1) : t + 1] = 0.0
                x[L - 1 - t : L - 1 - t + ssm.CONV_WIDTH] = 0.0
        xt = Tensor(x, dtype=dtype, requires_grad=True)
        target = conn if module == "connector" else blk
        leaves = [xt] + list(target.params().values())
        gy = np.random.default_rng(L).standard_normal((L, 64)).astype(xt.data.dtype)
        got, g_blocks = loss_and_grads(lambda: target.forward(xt), leaves, gy)
        monkeypatch.setattr(ssm, "_chain_blocks", lambda chain: whole_chain(*chain))
        expect, g_whole = loss_and_grads(lambda: target.forward(xt), leaves, gy)
        assert got == expect
        for g, e in zip(g_blocks, g_whole):
            assert rel_err(g, e) <= GRAD_RTOL[dtype]

    @pytest.mark.parametrize("elems", [48, 72])
    def test_multi_block_gradients_pass_finite_differences(self, monkeypatch, elems):
        # I * N = 8 * 3: rows of 2 or 3, so L = 11 reruns 5 or 3 blocks
        monkeypatch.setattr(ssm, "ZOH_BLOCK_ELEMS", elems)
        block = make_block(17, d=4, n=3)
        assert ssm._block_rows(block.d_inner * block.n_state) == elems // 24
        x = Tensor(np.random.default_rng(17).standard_normal((11, 4)), requires_grad=True)
        check_grads(lambda: T.sum_all(T.gelu(block.forward(x))),
                    [x] + list(block.params().values()))

    def test_a_chain_dropped_unwalked_leaves_no_cycles(self):
        # the module tape reset after a forward, as train does when a later
        # op fails: the last blocks' own tapes go with it, cycle collector off
        conn = make_connector(3, d=64, n=16, dtype="f32")
        x = Tensor(np.random.default_rng(3).standard_normal((3 * DESK_ROWS + 7, 64)),
                   dtype="f32", requires_grad=True)

        def forward_then_reset():
            conn.forward(x)
            T.active_tape().reset()

        forward_then_reset()
        gc.disable()
        try:
            _, _, left = traced_bytes(forward_then_reset)
        finally:
            gc.enable()
        assert left < 64 * 2**10  # one last block's tape holds 5 x 56 KiB

    @pytest.mark.parametrize("owner,op", [(ssm, "discretize_zoh"), (T, "mul_rowbcast")])
    def test_a_failing_recompute_propagates_and_the_next_sample_trains(self, monkeypatch,
                                                                       owner, op):
        # the op raises on its second call in the backward: a rerun tape then
        # holds nothing (ZOH) or the ZOH's node (mul_rowbcast), and is reset
        monkeypatch.setattr(ssm, "ZOH_BLOCK_ELEMS", 48)  # rows of 2: 4 blocks rerun
        tapes = []

        class SeenTape(T.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(self)

        monkeypatch.setattr(T, "Tape", SeenTape)
        x = Tensor(np.random.default_rng(19).standard_normal((9, 4)), requires_grad=True)

        def sample(block):
            return T.sum_all(T.gelu(block.forward(x)))

        block, module_tape = make_block(19), T.active_tape()
        loss = sample(block)
        fn, calls = getattr(owner, op), []

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:
                raise T.NonFiniteError(f"{op}: injected")
            return fn(*args)

        monkeypatch.setattr(owner, op, failing)
        with pytest.raises(T.NonFiniteError, match="injected") as failure:
            T.backward(loss)
        assert len(calls) == 2 and len(tapes) == 3  # the kept tape and two reruns
        assert all(len(t) == 0 for t in tapes) and failure.value is not None
        assert T.active_tape() is module_tape and len(module_tape) == 0
        monkeypatch.setattr(owner, op, fn)
        grads = []
        for b in (block, make_block(19)):  # the failed block, and one never run
            leaves = [x] + list(b.params().values())
            for t in leaves:
                t.grad = None
            T.backward(sample(b))
            grads.append([t.grad.tobytes() for t in leaves])
        assert grads[0] == grads[1]


class TestMambaLayer:
    def test_residual_wrapping_and_step(self):
        layer = ssm.MambaLayer(5, n_state=3, rng=np.random.default_rng(21), dtype="f64")
        rng = np.random.default_rng(22)
        x = rng.standard_normal((12, 5))
        full = layer.forward(Tensor(x, dtype="f64")).data
        state = layer.block.init_state()
        stepped = np.stack([layer.step(row, state) for row in x])
        assert np.abs(full - stepped).max() <= 1e-8
        y_np, _ = layer.forward_np(x)
        assert np.abs(full - y_np).max() <= 1e-12

    @across_row_blocks
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_unrecorded_forward_is_the_tape_forward_bitwise(self, monkeypatch, blocks,
                                                            extra_rows, dtype):
        # desk widths (I*N = 128*16); nothing records under no_grad, so the
        # layer runs forward_np, and finite differences (c02) rely on equality
        layer = ssm.MambaLayer(64, n_state=16, rng=np.random.default_rng(5), dtype=dtype)
        blk = layer.block
        rows = ssm._block_rows(blk.d_inner * blk.n_state)
        L = blocks * rows + extra_rows
        # a zero window of inputs gives u = 0 and delta = softplus(-30), so every
        # entry of its last row takes the ZOH series branch; elsewhere a large
        # w_dt puts delta above the cutoff wherever sum(u) > 0.2
        blk.ssm.dt_bias.data[...] = -30.0
        blk.ssm.w_dt.data[...] = 100.0
        x = np.random.default_rng(50 + L).standard_normal((L, 64))
        series_rows = [t for t in (rows // 2, rows, 2 * rows + 3) if t < L]
        for t in series_rows:  # mid-block, a block's first row, mid-block
            x[t - ssm.CONV_WIDTH + 1 : t + 1] = 0.0
        xt = Tensor(x, dtype=dtype)
        taped = layer.forward(xt).data
        T.active_tape().reset()

        zoh, seen = ssm._zoh_np, []

        def spy(a, delta, a_bar, r):
            small = zoh(a, delta, a_bar, r)
            seen.append(np.zeros(len(delta), bool) if small is None else small.all(axis=(1, 2)))
            return small

        monkeypatch.setattr(ssm, "_zoh_np", spy)
        with T.no_grad():
            fast = layer.forward(xt).data
        assert len(T.active_tape()) == 0
        assert fast.dtype == taped.dtype and np.array_equal(fast, taped)
        series = np.concatenate(seen) if seen else np.zeros(0, bool)
        assert set(series_rows) <= set(np.flatnonzero(series))
        assert L < rows or not series.all()
