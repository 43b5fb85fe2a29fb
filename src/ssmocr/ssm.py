"""Selective state-space machinery.

A diagonal linear recurrence h_t = a_t * h_(t-1) + b_t with
input-dependent coefficients. The sequential recurrence, O(L) work, is
the production path on a CPU (tape forward, adjoint and prefill); the
log-depth doubling scan, O(L log L) work, is kept only as its cross-check.
Discretisation walks the sequence in row blocks whose (rows, I, N)
temporaries fit in cache. Off the tape the scan and its readout walk the
same row blocks (``_scan_block``), so no (L, I, N) state is built.
The MambaBlock wraps the scan in the canonical gated block (in-projection,
depthwise causal conv, SiLU, skip gain), and the BiMambaConnector runs one
shared block over both temporal directions with additive fusion. The
block's ZOH -> b_bar * u -> scan chain runs one row block at a time, the
scan state carried between blocks (``_chain_blocks``). Off the tape no
(L, I, N) array is built: the connector runs the three tape ops per
block, the generation prefill and unrecorded MambaLayer forwards run
``forward_np``. In training the tape keeps only each block's entering
state and the last block's chain, and the backward reruns the earlier
blocks through the same three ops (Mamba's recomputation, Gu & Dao,
arXiv 2312.00752, section 3.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

CONV_WIDTH = 4
ZOH_SERIES_CUTOFF = 1e-6
DT_INIT_RANGE = (1e-3, 1e-1)  # softplus(dt_bias) lands here
# (rows, I, N) elements in one ZOH row block: the block's f32 temporaries
# (256 KiB each) stay in a core's L2 instead of streaming through memory
ZOH_BLOCK_ELEMS = 1 << 16
FFN_MULT = 4  # feedforward width over d_model, connector and attention baseline


# ---------------------------------------------------------------------------
# numpy kernels shared by the tape ops and the recurrent step


def _scan_sequential(a: np.ndarray, b: np.ndarray, h0: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Recurrence h_t = a_t * h_(t-1) + b_t, step by step, written into out
    (fresh when None); h_(-1) = h0, or zero when h0 is None."""
    out = np.empty_like(b) if out is None else out
    if not len(b):
        return out
    if h0 is None:
        out[0] = b[0]
    else:
        np.multiply(a[0], h0, out=out[0])
        out[0] += b[0]
    for a_t, h_prev, h_t, b_t in zip(a[1:], out[:-1], out[1:], b[1:]):
        np.multiply(a_t, h_prev, out=h_t)
        h_t += b_t
    return out


def _scan_block(a, bx, c, h, out) -> None:
    """Scan one (rows, I, N) block from the state carried in h[0] and read
    it out, out_t = h_t @ c_t. h is a (rows + 1, I, N) buffer: the states
    go to h[1:], and the block's last one is carried back into h[0]."""
    m = len(bx)
    _scan_sequential(a, bx, h[0], out=h[1 : m + 1])
    out[...] = (h[1 : m + 1] @ c[:, :, None])[:, :, 0]
    h[0] = h[m]


def _scan_parallel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Log-depth doubling scan of the associative pair combination
    (a_l, b_l) then (a_r, b_r) -> (a_r * a_l, b_r + a_r * b_l)."""
    av = a.copy()
    bv = b.copy()
    n = a.shape[0]
    d = 1
    while d < n:
        bv[d:] = bv[d:] + av[d:] * bv[:-d]
        av[d:] = av[d:] * av[:-d]
        d *= 2
    return bv


def _series_entries(a: np.ndarray, delta: np.ndarray, da: np.ndarray, work=None):
    """Mask of the entries of da = delta[..., None] * a with
    |da| < ZOH_SERIES_CUTOFF, or None when no entry is that small; |da|
    goes to ``work`` (a free da-shaped buffer) when one is given.

    The mask is only built when some entry needs it. One row (I,) first
    tests min |da|, one abs and one reduction. For delta (L, I) the test
    first runs on the (I, N) products min_l |delta| * |a|; it is exact,
    because rounding a product of non-negative floats is monotone in each
    factor.
    """
    if delta.ndim == 1 and da.size:
        # the ufunc, without ndarray.min's Python wrapper: this runs per token
        if np.minimum.reduce(np.abs(da), axis=None) >= ZOH_SERIES_CUTOFF:
            return None
    if delta.ndim == 2 and delta.size:
        d_lo = np.abs(delta).min(axis=0)
        if not (d_lo[:, None] * np.abs(a) < ZOH_SERIES_CUTOFF).any():
            return None
    small = np.abs(da, out=work) < ZOH_SERIES_CUTOFF
    return small if small.any() else None


def _block_rows(inner: int) -> int:
    """Rows per ZOH row block for I * N = inner state entries per row."""
    return max(1, ZOH_BLOCK_ELEMS // inner)


def _zoh_np(a: np.ndarray, delta: np.ndarray, a_bar: np.ndarray, r: np.ndarray):
    """Zero-order-hold factors for diagonal dynamics a (I, N) and one row
    block of timescales delta (rows, I), or one row (I,).

    Writes a_bar = exp(delta*a) and r, with b_bar = r * b, into the
    preallocated a_bar and r of shape delta.shape + (N,):
    r = (exp(delta*a) - 1)/a, switching to the series delta*(1 + delta*a/2)
    on the entries of the returned mask (None when there are none) to
    avoid 0/0. Callers walk long sequences in row blocks of
    ``_block_rows(a.size)``, so the temporaries stay cache-resident.
    """
    da = np.multiply(delta[..., None], a, out=a_bar)
    small = _series_entries(a, delta, da, work=r)
    if small is not None:  # the series on the masked entries alone
        series = np.broadcast_to(delta[..., None], da.shape)[small] * (1.0 + 0.5 * da[small])
    np.exp(da, out=a_bar)
    np.subtract(a_bar, 1.0, out=r)
    if small is None:
        r /= a
    else:
        np.divide(r, a, out=r, where=~small)
        r[small] = series
    return small


def _causal_conv_np(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Depthwise causal conv of x (L, C) with taps w (C, K) and bias b (C,):
    returns y (L, C) and the zero-history window view (L, K, C) it read."""
    k = w.shape[1]
    xp = np.pad(x, ((k - 1, 0), (0, 0)))
    sr, sc = xp.strides
    win = np.lib.stride_tricks.as_strided(xp, (x.shape[0], k, x.shape[1]), (sr, sr, sc))
    return np.einsum("tkc,ck->tc", win, w) + b, win


def _silu_np(x):
    return x * T.sigmoid_np(x)


def softplus_inverse(y):
    """Bias value whose softplus equals y (y > 0)."""
    return np.log(np.expm1(y))


# ---------------------------------------------------------------------------
# tape ops


def discretize_zoh(a: Tensor, delta: Tensor, b: Tensor):
    """(a_bar, b_bar) from diagonal values a (I, N), timescales
    delta (L, I) > 0, and input projections b (L, N); both outputs (L, I, N).

    With r = (a_bar - 1)/a, P = g_b_bar * b and Q = a_bar * (g_a_bar * a + P),
    the adjoint is three contractions: g_delta = sum_n Q,
    g_a = (sum_l delta * Q - sum_l P * r) / a and g_b = sum_i g_b_bar * r.
    Entries on the series branch take their own derivatives instead.
    Off the tape r lives in one row block and no series mask is kept.
    """
    ad, dd, bd = a.data, delta.data, b.data
    if dd.ndim != 2 or ad.shape[0] != dd.shape[1]:
        raise T.ShapeError(f"discretize_zoh: delta {delta.shape} does not fit a {a.shape}")
    if bd.shape != (dd.shape[0], ad.shape[1]):
        raise T.ShapeError(f"discretize_zoh: b {b.shape} does not fit a {a.shape}")
    length, rows = dd.shape[0], _block_rows(ad.size)
    keep = T.records((a, delta, b))  # only the backward reads r and small
    a_bar = np.empty((length,) + ad.shape, dtype=np.result_type(ad, dd))
    r = np.empty((length if keep else min(rows, length),) + ad.shape, dtype=a_bar.dtype)
    b_bar = np.empty(a_bar.shape, dtype=np.result_type(a_bar, bd))
    small = None
    for s in range(0, length, rows):
        blk = slice(s, s + rows)
        r_blk = r[blk] if keep else r[: len(dd[blk])]
        blk_small = _zoh_np(ad, dd[blk], a_bar[blk], r_blk)
        np.multiply(r_blk, bd[blk, None, :], out=b_bar[blk])
        if keep and blk_small is not None:
            if small is None:
                small = np.zeros(a_bar.shape, dtype=bool)
            small[blk] = blk_small
        del blk_small  # an unkept mask dies with its block

    def bwd(ga_bar, gb_bar):
        p = gb_bar * bd[:, None, :]
        q = ga_bar * ad
        q += p
        q *= a_bar
        gb = np.einsum("lin,lin->ln", gb_bar, r)
        if small is not None:
            # series r = delta*(1 + delta*a/2): dr/d(delta) = 1 + delta*a and
            # dr/da = delta^2/2; these entries leave the closed forms
            dl = dd[:, :, None]
            ag = ga_bar * a_bar
            gdelta_s = np.where(small, ag * ad + p * (1.0 + dl * ad), 0.0).sum(axis=2)
            ga_s = np.where(small, ag * dl + p * (0.5 * dl * dl), 0.0).sum(axis=0)
            q[small] = 0.0
            p[small] = 0.0
        gdelta = np.einsum("lin->li", q)
        ga = np.einsum("li,lin->in", dd, q)
        ga -= np.einsum("lin,lin->in", p, r)
        ga /= np.where(ad == 0.0, 1.0, ad)  # a = 0 columns are all series
        if small is not None:
            gdelta += gdelta_s
            ga += ga_s
        return ga, gdelta, gb

    return T.custom_op_multi("discretize_zoh", (a_bar, b_bar), (a, delta, b), bwd)


def selective_scan(a_bar: Tensor, b_bar_x: Tensor, c: Tensor,
                   d_skip: Tensor | None = None, x: Tensor | None = None,
                   mode: str = "sequential", state: Tensor | None = None):
    """y_t[i] = sum_n c_t[n] * h_t[i, n] (+ d_skip[i] * x_t[i]) where
    h_t = a_bar_t * h_(t-1) + b_bar_x_t, h_(-1) = 0.

    a_bar, b_bar_x: (L, I, N); c: (L, N). L = 0 is valid. The default
    sequential recurrence is the production path; mode="parallel" runs the
    doubling scan as its cross-check. Both share one reverse-time adjoint.
    Off the tape the sequential scan walks row blocks and keeps no h.

    ``state``, an (I, N) Tensor, is h_(-1) of a sequential scan and an
    input of the op; the call then returns (y, final state), and the
    adjoint takes the final state's gradient and gives the entering
    state's. Calls on consecutive row slices of a sequence, each given
    the state the one before returned, give the whole sequence's y bit
    for bit and carry the adjoint back across the slices.
    """
    ad, bd, cd = a_bar.data, b_bar_x.data, c.data
    if ad.shape != bd.shape or ad.ndim != 3:
        raise T.ShapeError(f"selective_scan: a_bar {a_bar.shape} vs b_bar_x {b_bar_x.shape}")
    if cd.shape != (ad.shape[0], ad.shape[2]):
        raise T.ShapeError(f"selective_scan: c {c.shape} does not fit {a_bar.shape}")
    if (d_skip is None) != (x is None):
        raise T.ShapeError("selective_scan: d_skip and x must be given together")
    if mode not in ("sequential", "parallel"):
        raise ValueError(f"unknown scan mode {mode!r}")
    inputs = [a_bar, b_bar_x, c] + ([] if d_skip is None else [d_skip, x])
    h0 = None if state is None else state.data
    if state is not None:
        if mode != "sequential":
            raise ValueError("selective_scan: state= needs a sequential scan")
        if h0.shape != ad.shape[1:]:
            raise T.ShapeError(f"selective_scan: state {h0.shape} does not fit {a_bar.shape}")
        inputs.append(state)
    recording = T.records(inputs)
    if mode == "sequential" and not recording:  # no backward reads h
        length, rows = ad.shape[0], _block_rows(ad.shape[1] * ad.shape[2])
        h = np.zeros((min(rows, length) + 1,) + ad.shape[1:], dtype=bd.dtype)
        if h0 is not None:
            h[0] = h0
        y = np.empty(ad.shape[:2], dtype=np.result_type(bd, cd))
        for s in range(0, length, rows):
            blk = slice(s, s + rows)
            _scan_block(ad[blk], bd[blk], cd[blk], h, y[blk])
        final = h[0]
    else:
        h = _scan_sequential(ad, bd, h0) if mode == "sequential" else _scan_parallel(ad, bd)
        y = (h @ cd[:, :, None])[:, :, 0]
        final = h[-1] if len(h) else h0
    if d_skip is not None:
        y = y + d_skip.data * x.data
        xd, sd = x.data, d_skip.data

    def bwd(gy, g_final=None):
        dc = (gy[:, None, :] @ h)[:, 0, :]
        # adjoint g_t = dh_t + a_(t+1) * g_(t+1), run backwards in place
        g = gy[:, :, None] * cd[:, None, :]
        if g_final is not None and len(g):
            g[-1] += g_final
        carry = np.empty(ad.shape[1:], dtype=g.dtype)
        for a_next, g_next, g_t in zip(ad[:0:-1], g[:0:-1], g[-2::-1]):
            np.multiply(a_next, g_next, out=carry)
            g_t += carry
        # da_t = g_t * h_(t-1)
        da = np.empty_like(g)
        da[:1] = 0.0 if h0 is None else g[:1] * h0
        np.multiply(g[1:], h[:-1], out=da[1:])
        grads = [da, g, dc]
        if d_skip is not None:
            grads += [(gy * xd).sum(axis=0), gy * sd]
        if state is not None:
            grads.append(ad[0] * g[0] if len(g) else g_final)
        return tuple(grads)

    y = np.ascontiguousarray(y)
    if state is None:
        return T.custom_op("selective_scan", y, tuple(inputs), bwd)
    return T.custom_op_multi("selective_scan", (y, final.copy()), tuple(inputs), bwd)


def _zoh_scan(a, delta, b, c, u, d_skip, state=None):
    """The block's three-op chain over the rows of delta, b, c and u, each
    op looked up at call time."""
    a_bar, b_bar = discretize_zoh(a, delta, b)
    return selective_scan(a_bar, T.mul_rowbcast(b_bar, u), c, d_skip, u, state=state)


def _record_block(data, blk, h0):
    """Record the chain over rows blk of (a, delta, b, c, u, d_skip), from
    entering state h0, onto the active tape: its leaves (a, the four row
    slices, d_skip, h0), its y and its final state."""
    a, delta, b, c, u, d_skip = data
    leaves = [T.wrap_checked(v, requires_grad=True)
              for v in (a, delta[blk], b[blk], c[blk], u[blk], d_skip, h0)]
    return (leaves, *_zoh_scan(*leaves[:6], state=leaves[6]))


def _chain_blocks(chain) -> Tensor:
    """y (L, I) of the chain over (a, delta, b, c, u, d_skip), run one row
    block of ``_block_rows(I * N)`` rows at a time with the scan state
    carried, which gives the whole-sequence chain's y bit for bit.

    Recording, a sequence under two blocks records the whole chain on the
    module tape: a rerun would cost a block's chain to save one block of
    tape. A longer one records its last block in the forward; the blocks
    before it run off the tape and keep their entering state only, and
    one node stands for the walk. Its backward walks the last block's
    tape, then reruns each earlier block, last first, on a fresh tape
    (block checkpoints, Chen et al., arXiv 1604.06174) seeded with its
    rows of gy and its final state's adjoint from the block after it.
    """
    data = [t.data for t in chain]
    a, delta, b, c, u, d_skip = data
    length, rows = len(u), _block_rows(a.size)
    keep = T.records(chain)
    tail = (length - 1) // rows * rows if length >= 2 * rows else 0
    if keep and not tail:
        return _zoh_scan(*chain)
    dt = np.result_type(*data)
    y, state = np.empty(u.shape, dtype=dt), T.wrap_checked(np.zeros(a.shape, dtype=dt))
    fixed = T.wrap_checked(a), T.wrap_checked(d_skip)
    edges = []  # the scan state entering each block that the backward reruns
    for s in range(0, tail, rows) if keep else range(0, max(length, 1), rows):
        if keep:
            edges.append(state.data)
        blk = slice(s, s + rows)
        part = (T.wrap_checked(v[blk]) for v in (delta, b, c, u))
        y_b, state = _zoh_scan(fixed[0], *part, fixed[1], state=state)
        y[blk] = y_b.data
    if not keep:
        return T.wrap_checked(y)
    kept = T.Tape()
    with T.recording_to(kept):
        last = _record_block(data, slice(tail, None), state.data)
    y[tail:] = last[1].data

    def bwd(gy):
        grads = [np.zeros_like(v) for v in data]
        g_state = None  # nothing reads the sequence's final state
        for j in reversed(range(len(edges) + 1)):
            blk = slice(j * rows, None if j == len(edges) else (j + 1) * rows)
            tape = kept if j == len(edges) else T.Tape()
            with T.recording_to(tape):
                leaves, y_b, h_b = last if tape is kept else _record_block(data, blk, edges[j])
                T.walk(tape, ((y_b, gy[blk]), (h_b, g_state)))
            grads[0] += leaves[0].grad
            grads[5] += leaves[5].grad
            for g, leaf in zip(grads[1:5], leaves[1:5]):
                g[blk] = leaf.grad
            g_state = leaves[6].grad
        return tuple(grads)

    return T.custom_op("mamba_chain", y, chain, bwd)


def causal_conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Depthwise causal convolution over (L, C): output at t sees
    inputs t-K+1..t only (zero history)."""
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise T.ShapeError(f"causal_conv1d: x {x.shape} vs w {w.shape}")
    k = wd.shape[1]
    n, ch = xd.shape
    y, win = _causal_conv_np(xd, wd, b.data)

    def bwd(g):
        gw = np.einsum("tc,tkc->ck", g, win)
        gxp = np.zeros((n + k - 1, ch), dtype=xd.dtype)
        for j in range(k):
            gxp[j : j + n] += g * wd[:, j]
        return np.ascontiguousarray(gxp[k - 1 :]), gw, g.sum(axis=0)

    return T.custom_op("causal_conv1d", y, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# parameter bundles


class SsmParams:
    """Diagonal dynamics plus the input-dependent projections.

    a_log parameterizes a = -exp(a_log), so a < 0 elementwise and
    |exp(delta * a)| < 1 for every positive timescale: the scan cannot
    blow up regardless of input.
    """

    def __init__(self, d_inner: int, n_state: int, rng, dtype="f32"):
        self.d_inner = d_inner
        self.n_state = n_state
        self.a_log = Tensor(
            np.tile(np.log(np.arange(1, n_state + 1)), (d_inner, 1)),
            dtype=dtype, requires_grad=True,
        )
        self.w_b = T.uniform_param(rng, (d_inner, n_state), d_inner, dtype)
        self.b_b = T.const_param(n_state, 0.0, dtype)
        self.w_c = T.uniform_param(rng, (d_inner, n_state), d_inner, dtype)
        self.b_c = T.const_param(n_state, 0.0, dtype)
        self.w_dt = T.uniform_param(rng, (d_inner, 1), d_inner, dtype)
        dt = np.exp(rng.uniform(np.log(DT_INIT_RANGE[0]), np.log(DT_INIT_RANGE[1]),
                                size=d_inner))
        self.dt_bias = Tensor(softplus_inverse(dt), dtype=dtype, requires_grad=True)
        self.d_skip = T.const_param(d_inner, 1.0, dtype)

    def project(self, u: Tensor):
        """Input-dependent (B, C, delta) from post-conv activations u (L, I);
        delta = softplus(rank-1 projection + per-channel bias) > 0."""
        b = T.linear(u, self.w_b, self.b_b)
        c = T.linear(u, self.w_c, self.b_c)
        pre = T.add_bias(T.repeat_cols(T.matmul(u, self.w_dt), self.d_inner),
                         self.dt_bias)
        return b, c, T.softplus(pre)

    def a(self) -> Tensor:
        return T.neg(T.exp(self.a_log))

    def params(self) -> dict[str, Tensor]:
        return {
            "a_log": self.a_log, "w_b": self.w_b, "b_b": self.b_b,
            "w_c": self.w_c, "b_c": self.b_c, "w_dt": self.w_dt,
            "dt_bias": self.dt_bias, "d_skip": self.d_skip,
        }

    # numpy-side projections of one row (I,) or a sequence (L, I), off the tape
    def _project_np(self, u: np.ndarray):
        b = u @ self.w_b.data + self.b_b.data
        c = u @ self.w_c.data + self.b_c.data
        delta = T.softplus_np(u @ self.w_dt.data + self.dt_bias.data)
        return b, c, delta


@dataclass
class RecurrentState:
    """Constant-size per-stream inference state: the scan state plus the
    rolling window for the causal conv. Its byte size never depends on
    how many steps have been taken."""

    h: np.ndarray          # (d_inner, n_state)
    conv_buf: np.ndarray   # (CONV_WIDTH - 1, d_inner), oldest first

    @property
    def nbytes(self) -> int:
        return self.h.nbytes + self.conv_buf.nbytes


class MambaBlock:
    """Gated selective-SSM block, unidirectional and strictly causal."""

    def __init__(self, d_model: int, n_state: int = 16, expand: int = 2, *,
                 rng, dtype="f32"):
        self.d_model = d_model
        self.d_inner = expand * d_model
        self.n_state = n_state
        i = self.d_inner
        self.w_in = T.uniform_param(rng, (d_model, 2 * i), d_model, dtype)
        self.b_in = T.const_param(2 * i, 0.0, dtype)
        self.conv_w = T.uniform_param(rng, (i, CONV_WIDTH), CONV_WIDTH, dtype)
        self.conv_b = T.const_param(i, 0.0, dtype)
        self.ssm = SsmParams(i, n_state, rng, dtype)
        self.w_out = T.uniform_param(rng, (i, d_model), i, dtype)
        self.b_out = T.const_param(d_model, 0.0, dtype)

    def forward(self, x: Tensor) -> Tensor:
        """Tape forward. The ZOH -> b_bar * u -> scan chain walks row
        blocks (``_chain_blocks``): off the tape it builds no (L, I, N)
        array, and in training the tape keeps the last block's chain only
        (a sequence under two blocks records its whole chain)."""
        i = self.d_inner
        xz = T.linear(x, self.w_in, self.b_in)
        main = T.narrow(xz, 1, 0, i)
        gate = T.narrow(xz, 1, i, i)
        u = T.silu(causal_conv1d(main, self.conv_w, self.conv_b))
        b, c, delta = self.ssm.project(u)
        y = _chain_blocks((self.ssm.a(), delta, b, c, u, self.ssm.d_skip))
        return T.linear(T.mul(y, T.silu(gate)), self.w_out, self.b_out)

    # -- recurrent inference path (numpy, no tape) --

    def init_state(self) -> RecurrentState:
        dt = self.w_in.data.dtype
        return RecurrentState(
            np.zeros((self.d_inner, self.n_state), dtype=dt),
            np.zeros((CONV_WIDTH - 1, self.d_inner), dtype=dt),
        )

    def step(self, x_row: np.ndarray, state: RecurrentState) -> np.ndarray:
        """Advance one position; updates state in place, returns the output row."""
        i = self.d_inner
        xz = x_row @ self.w_in.data + self.b_in.data
        main = xz[:i]
        buf, w = state.conv_buf, self.conv_w.data
        conv = np.einsum("kc,ck->c", buf, w[:, :-1])  # the window is buf, then main
        conv += main * w[:, -1]
        conv += self.conv_b.data
        buf[:-1] = buf[1:]
        buf[-1] = main
        xz[:i] = conv  # one SiLU pass over [conv, gate]
        act = _silu_np(xz)
        u, gate = act[:i], act[i:]
        b, c, delta = self.ssm._project_np(u)
        a = -np.exp(self.ssm.a_log.data)
        a_bar, bx = np.empty_like(a), np.empty_like(a)
        _zoh_np(a, delta, a_bar, bx)
        bx *= b
        bx *= u[:, None]
        h = state.h
        h *= a_bar
        h += bx
        y = h @ c + self.ssm.d_skip.data * u
        return (y * gate) @ self.w_out.data + self.b_out.data

    def forward_np(self, x: np.ndarray):
        """Full-sequence forward on raw arrays, also returning the final
        RecurrentState (used to prefill generation streams). Bitwise equal
        to the tape ``forward``, which ``MambaLayer.forward`` relies on.

        ZOH, b_bar * u, the scan (seeded with the state carried from the
        previous block) and the readout run one row block at a time, so no
        (L, I, N) array is ever built. A non-finite output raises
        NonFiniteError.
        """
        i, n = self.d_inner, self.n_state
        xz = x @ self.w_in.data + self.b_in.data
        main, gate = xz[:, :i], xz[:, i:]
        u = _silu_np(_causal_conv_np(main, self.conv_w.data, self.conv_b.data)[0])
        b, c, delta = self.ssm._project_np(u)
        a = -np.exp(self.ssm.a_log.data)
        state = self.init_state()
        length, rows = x.shape[0], _block_rows(a.size)
        a_bar, bx = (np.empty((min(rows, length), i, n), dtype=u.dtype) for _ in range(2))
        h = np.zeros((min(rows, length) + 1, i, n), dtype=u.dtype)
        y = np.empty_like(u)
        for s in range(0, length, rows):
            blk, m = slice(s, s + rows), min(rows, length - s)
            ab, bxb = a_bar[:m], bx[:m]
            _zoh_np(a, delta[blk], ab, bxb)
            bxb *= b[blk, None, :]
            bxb *= u[blk, :, None]
            _scan_block(ab, bxb, c[blk], h, y[blk])
        state.h[...] = h[0]
        y += self.ssm.d_skip.data * u
        out = (y * _silu_np(gate)) @ self.w_out.data + self.b_out.data
        T.check_finite(out, "mamba_block")
        tail = min(CONV_WIDTH - 1, length)
        if tail:
            state.conv_buf[-tail:] = main[-tail:]
        return out, state

    def params(self) -> dict[str, Tensor]:
        out = {"in_proj.w": self.w_in, "in_proj.b": self.b_in,
               "conv.w": self.conv_w, "conv.b": self.conv_b,
               "out_proj.w": self.w_out, "out_proj.b": self.b_out}
        out.update({f"ssm.{k}": v for k, v in self.ssm.params().items()})
        return out


class BiMambaConnector:
    """Bidirectional context layer: one shared MambaBlock applied forward
    and on the flipped sequence, fused by addition, wrapped in pre-norm
    residual plumbing with a GELU feedforward."""

    def __init__(self, d_model: int, n_state: int = 16, expand: int = 2, *,
                 rng, dtype="f32"):
        d = d_model
        self.d_model = d
        self.norm1_g = T.const_param(d, 1.0, dtype)
        self.norm1_b = T.const_param(d, 0.0, dtype)
        self.w1 = T.uniform_param(rng, (d, d), d, dtype)
        self.b1 = T.const_param(d, 0.0, dtype)
        self.block = MambaBlock(d, n_state, expand, rng=rng, dtype=dtype)
        self.norm2_g = T.const_param(d, 1.0, dtype)
        self.norm2_b = T.const_param(d, 0.0, dtype)
        h = FFN_MULT * d
        self.ffn_w1 = T.uniform_param(rng, (d, h), d, dtype)
        self.ffn_b1 = T.const_param(h, 0.0, dtype)
        self.ffn_w2 = T.uniform_param(rng, (h, d), h, dtype)
        self.ffn_b2 = T.const_param(d, 0.0, dtype)

    def forward(self, x: Tensor) -> Tensor:
        xt = T.gelu(T.linear(
            T.layernorm_lastdim(x, self.norm1_g, self.norm1_b), self.w1, self.b1))
        fwd = self.block.forward(xt)
        bwd = T.flip(self.block.forward(T.flip(xt, 0)), 0)
        fused = T.add(T.add(fwd, bwd), x)
        ff = T.linear(T.gelu(T.linear(
            T.layernorm_lastdim(fused, self.norm2_g, self.norm2_b),
            self.ffn_w1, self.ffn_b1)), self.ffn_w2, self.ffn_b2)
        return T.add(fused, ff)

    def params(self) -> dict[str, Tensor]:
        out = {"norm1.g": self.norm1_g, "norm1.b": self.norm1_b,
               "lin1.w": self.w1, "lin1.b": self.b1,
               "norm2.g": self.norm2_g, "norm2.b": self.norm2_b,
               "ffn.w1": self.ffn_w1, "ffn.b1": self.ffn_b1,
               "ffn.w2": self.ffn_w2, "ffn.b2": self.ffn_b2}
        out.update({f"mamba.{k}": v for k, v in self.block.params().items()})
        return out


class MambaLayer:
    """Pre-norm residual wrapper: x + Block(LayerNorm(x))."""

    def __init__(self, d_model: int, n_state: int = 16, expand: int = 2, *,
                 rng, dtype="f32"):
        self.norm_g = T.const_param(d_model, 1.0, dtype)
        self.norm_b = T.const_param(d_model, 0.0, dtype)
        self.block = MambaBlock(d_model, n_state, expand, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        if not T.records([x, *self.params().values()]):  # nothing for a backward
            return T.custom_op("mamba_layer", self.forward_np(x.data)[0], (), None)
        xn = T.layernorm_lastdim(x, self.norm_g, self.norm_b)
        return T.add(x, self.block.forward(xn))

    def step(self, x_row: np.ndarray, state: RecurrentState) -> np.ndarray:
        xn = T.layernorm_np(x_row, self.norm_g, self.norm_b)
        return x_row + self.block.step(xn, state)

    def forward_np(self, x: np.ndarray):
        y, state = self.block.forward_np(T.layernorm_np(x, self.norm_g, self.norm_b))
        return x + y, state

    def params(self) -> dict[str, Tensor]:
        out = {"norm.g": self.norm_g, "norm.b": self.norm_b}
        out.update({f"mamba.{k}": v for k, v in self.block.params().items()})
        return out
