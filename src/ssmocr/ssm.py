"""Selective state-space machinery.

A diagonal linear recurrence h_t = a_t * h_(t-1) + b_t with
input-dependent coefficients. The sequential recurrence, O(L) work, is
the production path on a CPU (tape forward, adjoint and prefill); the
log-depth doubling scan, O(L log L) work, is kept only as its cross-check.
The MambaBlock wraps the scan in the canonical gated block (in-projection,
depthwise causal conv, SiLU, skip gain), and the BiMambaConnector runs one
shared block over both temporal directions with additive fusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import tensor as T
from .tensor import Tensor

CONV_WIDTH = 4
ZOH_SERIES_CUTOFF = 1e-6
DT_INIT_RANGE = (1e-3, 1e-1)  # softplus(dt_bias) lands here


# ---------------------------------------------------------------------------
# numpy kernels shared by the tape ops and the recurrent step


def _scan_sequential(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Recurrence h_t = a_t * h_(t-1) + b_t, h_0 = 0, step by step in place."""
    out = np.empty_like(b)
    out[:1] = b[:1]
    for a_t, h_prev, h_t, b_t in zip(a[1:], out[:-1], out[1:], b[1:]):
        np.multiply(a_t, h_prev, out=h_t)
        h_t += b_t
    return out


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


def _zoh_np(a: np.ndarray, delta: np.ndarray):
    """Zero-order-hold factors for diagonal dynamics.

    Returns (a_bar, r) with a_bar = exp(delta*a) and r such that
    b_bar = r * b; r = (exp(delta*a) - 1)/a, switching to the series
    delta*(1 + delta*a/2) below the cutoff to avoid 0/0.
    """
    da = delta[..., None] * a
    a_bar = np.exp(da)
    small = np.abs(da) < ZOH_SERIES_CUTOFF
    if not small.any():
        return a_bar, (a_bar - 1.0) / a
    safe_a = np.where(small, 1.0, np.broadcast_to(a, da.shape))
    exact = (a_bar - 1.0) / safe_a
    series = delta[..., None] * (1.0 + 0.5 * da)
    return a_bar, np.where(small, series, exact)


def _silu_np(x):
    return x * expit(x)


def _softplus_np(x):
    return np.logaddexp(0.0, x)


def softplus_inverse(y):
    """Bias value whose softplus equals y (y > 0)."""
    return np.log(np.expm1(y))


# ---------------------------------------------------------------------------
# tape ops


def discretize_zoh(a: Tensor, delta: Tensor, b: Tensor):
    """(a_bar, b_bar) from diagonal values a (I, N), timescales
    delta (L, I) > 0, and input projections b (L, N); both outputs (L, I, N)."""
    ad, dd, bd = a.data, delta.data, b.data
    if dd.ndim != 2 or ad.shape[0] != dd.shape[1]:
        raise T.ShapeError(f"discretize_zoh: delta {delta.shape} does not fit a {a.shape}")
    if bd.shape != (dd.shape[0], ad.shape[1]):
        raise T.ShapeError(f"discretize_zoh: b {b.shape} does not fit a {a.shape}")
    da = dd[:, :, None] * ad
    a_bar = np.exp(da)
    small = np.abs(da) < ZOH_SERIES_CUTOFF
    has_small = bool(small.any())
    if has_small:
        safe_a = np.where(small, 1.0, np.broadcast_to(ad, da.shape))
        r = np.where(small, dd[:, :, None] * (1.0 + 0.5 * da), (a_bar - 1.0) / safe_a)
    else:
        safe_a = ad
        r = (a_bar - 1.0) / ad
    b_bar = r * bd[:, None, :]

    def bwd(ga_bar, gb_bar):
        # r = (exp(da)-1)/a: dr/d(delta) = exp(da); dr/da = (da*a_bar - (a_bar-1))/a^2
        dr_ddelta = a_bar
        dr_da = (da * a_bar - (a_bar - 1.0)) / (safe_a * safe_a)
        if has_small:
            dr_ddelta = np.where(small, 1.0 + da, dr_ddelta)
            dr_da = np.where(small, 0.5 * dd[:, :, None] ** 2, dr_da)
        gb_r = gb_bar * bd[:, None, :]
        gdelta = (ga_bar * a_bar * ad).sum(axis=2) + (gb_r * dr_ddelta).sum(axis=2)
        ga = (ga_bar * a_bar * dd[:, :, None]).sum(axis=0) + (gb_r * dr_da).sum(axis=0)
        gb = (gb_bar * r).sum(axis=1)
        return ga, gdelta, gb

    return T.custom_op_multi("discretize_zoh", (a_bar, b_bar), (a, delta, b), bwd)


def selective_scan(a_bar: Tensor, b_bar_x: Tensor, c: Tensor,
                   d_skip: Tensor | None = None, x: Tensor | None = None,
                   mode: str = "sequential") -> Tensor:
    """y_t[i] = sum_n c_t[n] * h_t[i, n] (+ d_skip[i] * x_t[i]) where
    h_t = a_bar_t * h_(t-1) + b_bar_x_t, h_0 = 0.

    a_bar, b_bar_x: (L, I, N); c: (L, N). L = 0 is valid. The default
    sequential recurrence is the production path; mode="parallel" runs the
    doubling scan as its cross-check. Both share one reverse-time adjoint.
    """
    ad, bd, cd = a_bar.data, b_bar_x.data, c.data
    if ad.shape != bd.shape or ad.ndim != 3:
        raise T.ShapeError(f"selective_scan: a_bar {a_bar.shape} vs b_bar_x {b_bar_x.shape}")
    if cd.shape != (ad.shape[0], ad.shape[2]):
        raise T.ShapeError(f"selective_scan: c {c.shape} does not fit {a_bar.shape}")
    if (d_skip is None) != (x is None):
        raise T.ShapeError("selective_scan: d_skip and x must be given together")
    if mode == "sequential":
        h = _scan_sequential(ad, bd)
    elif mode == "parallel":
        h = _scan_parallel(ad, bd)
    else:
        raise ValueError(f"unknown scan mode {mode!r}")
    y = np.einsum("lin,ln->li", h, cd)
    inputs = [a_bar, b_bar_x, c]
    if d_skip is not None:
        y = y + d_skip.data * x.data
        inputs += [d_skip, x]
        xd, sd = x.data, d_skip.data

    def bwd(gy):
        dc = np.einsum("li,lin->ln", gy, h)
        # adjoint g_t = dh_t + a_(t+1) * g_(t+1), run backwards in place
        g = gy[:, :, None] * cd[:, None, :]
        carry = np.empty(ad.shape[1:], dtype=g.dtype)
        for a_next, g_next, g_t in zip(ad[:0:-1], g[:0:-1], g[-2::-1]):
            np.multiply(a_next, g_next, out=carry)
            g_t += carry
        # da_t = g_t * h_(t-1), with h_0 = 0
        da = np.empty_like(g)
        da[:1] = 0.0
        np.multiply(g[1:], h[:-1], out=da[1:])
        grads = [da, g, dc]
        if d_skip is not None:
            grads += [(gy * xd).sum(axis=0), gy * sd]
        return tuple(grads)

    return T.custom_op("selective_scan", np.ascontiguousarray(y), tuple(inputs), bwd)


def causal_conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Depthwise causal convolution over (L, C): output at t sees
    inputs t-K+1..t only (zero history)."""
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise T.ShapeError(f"causal_conv1d: x {x.shape} vs w {w.shape}")
    k = wd.shape[1]
    n, ch = xd.shape
    xp = np.pad(xd, ((k - 1, 0), (0, 0)))
    sr, sc = xp.strides
    win = np.lib.stride_tricks.as_strided(xp, (n, k, ch), (sr, sr, sc))
    y = np.einsum("tkc,ck->tc", win, wd) + b.data

    def bwd(g):
        gw = np.einsum("tc,tkc->ck", g, win)
        gxp = np.zeros_like(xp)
        for j in range(k):
            gxp[j : j + n] += g * wd[:, j]
        return np.ascontiguousarray(gxp[k - 1 :]), gw, g.sum(axis=0)

    return T.custom_op("causal_conv1d", y, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# parameter bundles


def _uniform(rng, shape, fan_in, dtype):
    k = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-k, k, size=shape), dtype=dtype, requires_grad=True)


def _zeros(shape, dtype):
    return Tensor(np.zeros(shape), dtype=dtype, requires_grad=True)


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
        self.w_b = _uniform(rng, (d_inner, n_state), d_inner, dtype)
        self.b_b = _zeros(n_state, dtype)
        self.w_c = _uniform(rng, (d_inner, n_state), d_inner, dtype)
        self.b_c = _zeros(n_state, dtype)
        self.w_dt = _uniform(rng, (d_inner, 1), d_inner, dtype)
        dt = np.exp(rng.uniform(np.log(DT_INIT_RANGE[0]), np.log(DT_INIT_RANGE[1]),
                                size=d_inner))
        self.dt_bias = Tensor(softplus_inverse(dt), dtype=dtype, requires_grad=True)
        self.d_skip = Tensor(np.ones(d_inner), dtype=dtype, requires_grad=True)

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

    # numpy-side projections used by the recurrent step
    def _project_np(self, u: np.ndarray):
        b = u @ self.w_b.data + self.b_b.data
        c = u @ self.w_c.data + self.b_c.data
        delta = _softplus_np(float(u @ self.w_dt.data[:, 0]) + self.dt_bias.data)
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

    def copy(self) -> "RecurrentState":
        return RecurrentState(self.h.copy(), self.conv_buf.copy())


class MambaBlock:
    """Gated selective-SSM block, unidirectional and strictly causal."""

    def __init__(self, d_model: int, n_state: int = 16, expand: int = 2,
                 rng=None, dtype="f32"):
        rng = np.random.default_rng() if rng is None else rng
        self.d_model = d_model
        self.d_inner = expand * d_model
        self.n_state = n_state
        i = self.d_inner
        self.w_in = _uniform(rng, (d_model, 2 * i), d_model, dtype)
        self.b_in = _zeros(2 * i, dtype)
        self.conv_w = _uniform(rng, (i, CONV_WIDTH), CONV_WIDTH, dtype)
        self.conv_b = _zeros(i, dtype)
        self.ssm = SsmParams(i, n_state, rng, dtype)
        self.w_out = _uniform(rng, (i, d_model), i, dtype)
        self.b_out = _zeros(d_model, dtype)

    def forward(self, x: Tensor) -> Tensor:
        i = self.d_inner
        xz = T.linear(x, self.w_in, self.b_in)
        main = T.narrow(xz, 1, 0, i)
        gate = T.narrow(xz, 1, i, i)
        u = T.silu(causal_conv1d(main, self.conv_w, self.conv_b))
        b, c, delta = self.ssm.project(u)
        a_bar, b_bar = discretize_zoh(self.ssm.a(), delta, b)
        y = selective_scan(a_bar, T.mul_rowbcast(b_bar, u), c, self.ssm.d_skip, u)
        return T.linear(T.mul(y, T.silu(gate)), self.w_out, self.b_out)

    # -- recurrent inference path (numpy, no tape) --

    def init_state(self) -> RecurrentState:
        dt = self.w_in.data.dtype
        return RecurrentState(
            np.zeros((self.d_inner, self.n_state), dtype=dt),
            np.zeros((CONV_WIDTH - 1, self.d_inner), dtype=dt),
        )

    def step(self, x_row: np.ndarray, state: RecurrentState) -> np.ndarray:
        """Advance one position; mutates state, returns the output row."""
        i = self.d_inner
        xz = x_row @ self.w_in.data + self.b_in.data
        main, gate = xz[:i], xz[i:]
        win = np.concatenate([state.conv_buf, main[None]], axis=0)
        conv = np.einsum("kc,ck->c", win, self.conv_w.data) + self.conv_b.data
        state.conv_buf[:-1] = state.conv_buf[1:]
        state.conv_buf[-1] = main
        u = _silu_np(conv)
        b, c, delta = self.ssm._project_np(u)
        a = -np.exp(self.ssm.a_log.data)
        a_bar, r = _zoh_np(a, delta)
        state.h = a_bar * state.h + (r * b) * u[:, None]
        y = state.h @ c + self.ssm.d_skip.data * u
        return (y * _silu_np(gate)) @ self.w_out.data + self.b_out.data

    def forward_np(self, x: np.ndarray):
        """Full-sequence forward on raw arrays, also returning the final
        RecurrentState (used to prefill generation streams)."""
        i = self.d_inner
        xz = x @ self.w_in.data + self.b_in.data
        main, gate = xz[:, :i], xz[:, i:]
        k = CONV_WIDTH
        xp = np.pad(main, ((k - 1, 0), (0, 0)))
        sr, sc = xp.strides
        win = np.lib.stride_tricks.as_strided(xp, (x.shape[0], k, i), (sr, sr, sc))
        u = _silu_np(np.einsum("tkc,ck->tc", win, self.conv_w.data) + self.conv_b.data)
        b = u @ self.ssm.w_b.data + self.ssm.b_b.data
        c = u @ self.ssm.w_c.data + self.ssm.b_c.data
        delta = _softplus_np(u @ self.ssm.w_dt.data + self.ssm.dt_bias.data)
        a = -np.exp(self.ssm.a_log.data)
        a_bar, r = _zoh_np(a, delta)
        h = _scan_sequential(a_bar, (r * b[:, None, :]) * u[:, :, None])
        y = np.einsum("lin,ln->li", h, c) + self.ssm.d_skip.data * u
        out = (y * _silu_np(gate)) @ self.w_out.data + self.b_out.data
        state = self.init_state()
        if x.shape[0]:
            state.h = h[-1].copy()
            tail = min(k - 1, x.shape[0])
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

    def __init__(self, d_model: int, n_state: int = 16, expand: int = 2,
                 ffn_mult: int = 4, rng=None, dtype="f32"):
        rng = np.random.default_rng() if rng is None else rng
        d = d_model
        self.d_model = d
        self.norm1_g = Tensor(np.ones(d), dtype=dtype, requires_grad=True)
        self.norm1_b = _zeros(d, dtype)
        self.w1 = _uniform(rng, (d, d), d, dtype)
        self.b1 = _zeros(d, dtype)
        self.block = MambaBlock(d, n_state, expand, rng, dtype)
        self.norm2_g = Tensor(np.ones(d), dtype=dtype, requires_grad=True)
        self.norm2_b = _zeros(d, dtype)
        h = ffn_mult * d
        self.ffn_w1 = _uniform(rng, (d, h), d, dtype)
        self.ffn_b1 = _zeros(h, dtype)
        self.ffn_w2 = _uniform(rng, (h, d), h, dtype)
        self.ffn_b2 = _zeros(d, dtype)

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

    def __init__(self, d_model: int, n_state: int = 16, expand: int = 2,
                 rng=None, dtype="f32"):
        rng = np.random.default_rng() if rng is None else rng
        self.norm_g = Tensor(np.ones(d_model), dtype=dtype, requires_grad=True)
        self.norm_b = _zeros(d_model, dtype)
        self.block = MambaBlock(d_model, n_state, expand, rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
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
