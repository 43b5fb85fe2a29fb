"""Dense tensors with reverse-mode differentiation.

Data lives in row-major numpy arrays, float32 or float64 only. Every op
checks its output for NaN/Inf and, when an input is attached to the
active tape, records a node whose closure maps the output gradient back
to input gradients. ``backward`` walks the tape once in reverse and
consumes it.

Broadcasting is deliberately restricted to scalar-tensor and last-dim
bias adds so that loop oracles in the test suite stay trivial.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from scipy.special import erf, expit

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)
LN_EPS = 1e-5  # layernorm epsilon


class ShapeError(ValueError):
    """Operand shapes or dtypes do not fit the operation."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


class TapeError(RuntimeError):
    """Misuse of the gradient tape."""


def _as_dtype(dtype) -> np.dtype:
    if dtype is None:
        return F32
    if dtype == "f32":
        return F32
    if dtype == "f64":
        return F64
    d = np.dtype(dtype)
    if d not in (F32, F64):
        raise ShapeError(f"unsupported dtype {dtype!r}; use f32 or f64")
    return d


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{op}: output contains NaN or Inf")


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data)
        if dtype is None and arr.dtype in (F32, F64):
            dt = arr.dtype
        else:
            dt = _as_dtype(dtype)
        arr = np.ascontiguousarray(arr, dtype=dt)
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> str:
        return "f32" if self.data.dtype == F32 else "f64"

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.requires_grad = False
        out.grad = None
        out.node = None
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"


class Node:
    """One recorded operation: inputs, outputs, and the gradient closure."""

    __slots__ = ("op", "inputs", "outputs", "backward")

    def __init__(self, op, inputs, outputs, backward):
        self.op = op
        self.inputs = inputs
        self.outputs = outputs
        self.backward = backward


class Tape:
    """Execution-ordered op log; execution order is a topological order."""

    def __init__(self):
        self.nodes: list[Node] = []

    def reset(self) -> None:
        self.nodes.clear()

    def __len__(self) -> int:
        return len(self.nodes)


_tape = Tape()
_grad_enabled = True


def active_tape() -> Tape:
    return _tape


@contextlib.contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _wrap(data: np.ndarray) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out.node = None
    return out


def _attached(t: Tensor) -> bool:
    return t.requires_grad or t.node is not None


def custom_op(op: str, data: np.ndarray, inputs, backward) -> Tensor:
    """Record a single-output op. ``backward(grad_out)`` returns one
    gradient array (or None) per input, in order."""
    _check_finite(data, op)
    out = _wrap(data)
    if _grad_enabled and any(_attached(t) for t in inputs):
        node = Node(op, tuple(inputs), (out,), backward)
        out.node = node
        _tape.nodes.append(node)
    return out


def custom_op_multi(op: str, datas, inputs, backward) -> tuple[Tensor, ...]:
    """Record a multi-output op. ``backward(*grad_outs)`` receives one
    gradient array per output (zeros where unused)."""
    outs = []
    for data in datas:
        _check_finite(data, op)
        outs.append(_wrap(data))
    if _grad_enabled and any(_attached(t) for t in inputs):
        node = Node(op, tuple(inputs), tuple(outs), backward)
        for o in outs:
            o.node = node
        _tape.nodes.append(node)
    return tuple(outs)


def backward(loss: Tensor) -> None:
    """Reverse-topological gradient accumulation from a scalar loss.

    Gradients sum over fan-out and accumulate into ``.grad`` of every
    requires_grad tensor reached. The tape is consumed.
    """
    if loss.node is None:
        raise TapeError("backward on a tensor that is not connected to the tape")
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    try:
        for node in reversed(_tape.nodes):
            outs = [flowing.get(id(o)) for o in node.outputs]
            if all(g is None for g in outs):
                continue
            outs = [
                g if g is not None else np.zeros_like(o.data)
                for g, o in zip(outs, node.outputs)
            ]
            in_grads = node.backward(*outs)
            for t, g in zip(node.inputs, in_grads):
                if g is None:
                    continue
                if t.requires_grad:
                    t.grad = g.copy() if t.grad is None else t.grad + g
                if t.node is not None:
                    prev = flowing.get(id(t))
                    flowing[id(t)] = g if prev is None else prev + g
            for o in node.outputs:
                flowing.pop(id(o), None)
    finally:
        _tape.reset()


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# elementwise and shape ops


def _binary_data(a: Tensor, b, op: str):
    """Resolve the second operand: same-shape tensor or python scalar."""
    if isinstance(b, Tensor):
        if a.data.dtype != b.data.dtype:
            raise ShapeError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")
        if a.shape != b.shape:
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} mismatch")
        return b
    return float(b)


def add(a: Tensor, b) -> Tensor:
    b = _binary_data(a, b, "add")
    if isinstance(b, Tensor):
        return custom_op("add", a.data + b.data, (a, b), lambda g: (g, g))
    return custom_op("add", a.data + a.data.dtype.type(b), (a,), lambda g: (g,))


def sub(a: Tensor, b: Tensor) -> Tensor:
    b = _binary_data(a, b, "sub")
    if isinstance(b, Tensor):
        return custom_op("sub", a.data - b.data, (a, b), lambda g: (g, -g))
    return custom_op("sub", a.data - a.data.dtype.type(b), (a,), lambda g: (g,))


def mul(a: Tensor, b) -> Tensor:
    b = _binary_data(a, b, "mul")
    if isinstance(b, Tensor):
        ad, bd = a.data, b.data
        return custom_op("mul", ad * bd, (a, b), lambda g: (g * bd, g * ad))
    s = a.data.dtype.type(b)
    return custom_op("mul", a.data * s, (a,), lambda g: (g * s,))


def neg(a: Tensor) -> Tensor:
    return custom_op("neg", -a.data, (a,), lambda g: (-g,))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., d] + b[d]; the one non-scalar broadcast this module allows."""
    if x.data.dtype != b.data.dtype:
        raise ShapeError(f"add_bias: dtype mismatch {x.dtype} vs {b.dtype}")
    if b.data.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: bias {b.shape} does not fit last dim of {x.shape}")
    axes = tuple(range(x.data.ndim - 1))
    return custom_op(
        "add_bias", x.data + b.data, (x, b), lambda g: (g, g.sum(axis=axes))
    )


def repeat_cols(x: Tensor, n: int) -> Tensor:
    """(L, 1) -> (L, n) by repetition."""
    if x.data.ndim != 2 or x.shape[1] != 1:
        raise ShapeError(f"repeat_cols expects (L, 1), got {x.shape}")
    return custom_op(
        "repeat_cols",
        np.repeat(x.data, n, axis=1),
        (x,),
        lambda g: (g.sum(axis=1, keepdims=True),),
    )


def mul_rowbcast(a: Tensor, u: Tensor) -> Tensor:
    """a[l, i, n] * u[l, i]."""
    if a.shape[:2] != u.shape:
        raise ShapeError(f"mul_rowbcast: shapes {a.shape} and {u.shape} mismatch")
    ad, ud = a.data, u.data
    return custom_op(
        "mul_rowbcast",
        ad * ud[:, :, None],
        (a, u),
        lambda g: (g * ud[:, :, None], (g * ad).sum(axis=2)),
    )


def reshape(x: Tensor, shape) -> Tensor:
    old = x.shape
    return custom_op(
        "reshape", x.data.reshape(shape), (x,), lambda g: (g.reshape(old),)
    )


def permute(x: Tensor, axes) -> Tensor:
    inv = tuple(np.argsort(axes))
    return custom_op(
        "permute", np.ascontiguousarray(x.data.transpose(axes)), (x,),
        lambda g: (np.ascontiguousarray(g.transpose(inv)),),
    )


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose2d expects 2-d, got {x.shape}")
    return permute(x, (1, 0))


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    if axis < 0 or axis >= x.data.ndim:
        raise ShapeError(f"narrow: axis {axis} out of range for shape {x.shape}")
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeError(
            f"narrow: [{start}:{start + length}] out of range on axis {axis} of {x.shape}"
        )
    idx = tuple(
        slice(start, start + length) if a == axis else slice(None)
        for a in range(x.data.ndim)
    )
    shape = x.shape

    def bwd(g):
        gx = np.zeros(shape, dtype=g.dtype)
        gx[idx] = g
        return (gx,)

    return custom_op("narrow", np.ascontiguousarray(x.data[idx]), (x,), bwd)


def concat(xs, axis: int = 0) -> Tensor:
    xs = list(xs)
    if not xs:
        raise ShapeError("concat of an empty list")
    dt = xs[0].data.dtype
    if any(x.data.dtype != dt for x in xs):
        raise ShapeError("concat: dtype mismatch")
    sizes = [x.shape[axis] for x in xs]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        pieces = []
        for k in range(len(sizes)):
            idx = tuple(
                slice(offsets[k], offsets[k + 1]) if a == axis else slice(None)
                for a in range(g.ndim)
            )
            pieces.append(np.ascontiguousarray(g[idx]))
        return tuple(pieces)

    return custom_op(
        "concat", np.concatenate([x.data for x in xs], axis=axis), tuple(xs), bwd
    )


def flip(x: Tensor, axis: int = 0) -> Tensor:
    return custom_op(
        "flip",
        np.ascontiguousarray(np.flip(x.data, axis=axis)),
        (x,),
        lambda g: (np.ascontiguousarray(np.flip(g, axis=axis)),),
    )


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather from (V, D); gradients scatter-add back into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"embedding ids must be 1-d, got shape {ids.shape}")
    v = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise ShapeError(f"embedding ids out of range [0, {v})")

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return custom_op("embedding", table.data[ids].copy(), (table,), bwd)


def sum_all(x: Tensor) -> Tensor:
    shape, dt = x.shape, x.data.dtype
    return custom_op(
        "sum", np.asarray(x.data.sum(), dtype=dt), (x,),
        lambda g: (np.broadcast_to(g, shape).astype(dt, copy=True),),
    )


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    shape, dt = x.shape, x.data.dtype
    return custom_op(
        "mean", np.asarray(x.data.mean(), dtype=dt), (x,),
        lambda g: ((np.broadcast_to(g, shape) / n).astype(dt, copy=True),),
    )


# ---------------------------------------------------------------------------
# matmul / conv / pooling


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"matmul: dtype mismatch {a.dtype} vs {b.dtype}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} mismatch")
    ad, bd = a.data, b.data
    return custom_op(
        "matmul", ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g)
    )


def _pair(v) -> tuple[int, int]:
    if isinstance(v, int):
        return (v, v)
    a, b = v
    return (int(a), int(b))


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """Cross-correlation of (C, H, W) with kernels (O, C, kh, kw),
    zero padding. Output H' = (H + 2p - kh) // stride + 1."""
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise ShapeError(f"conv2d expects (C,H,W) and (O,C,kh,kw), got {x.shape}, {w.shape}")
    if x.data.dtype != w.data.dtype:
        raise ShapeError(f"conv2d: dtype mismatch {x.dtype} vs {w.dtype}")
    c, h, wd = x.shape
    o, cw, kh, kw = w.shape
    if cw != c:
        raise ShapeError(f"conv2d: input channels {c} != kernel channels {cw}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    hp, wp = h + 2 * ph, wd + 2 * pw
    if kh > hp or kw > wp:
        raise ShapeError(
            f"conv2d: kernel ({kh},{kw}) larger than padded input ({hp},{wp})"
        )
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1
    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw)))

    sc, srow, scol = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (c, kh, kw, ho, wo), (sc, srow, scol, srow * sh, scol * sw)
    )
    cols = np.ascontiguousarray(win.reshape(c * kh * kw, ho * wo))
    out = (w.data.reshape(o, -1) @ cols).reshape(o, ho, wo)
    if bias is not None:
        if bias.shape != (o,):
            raise ShapeError(f"conv2d: bias shape {bias.shape} != ({o},)")
        out = out + bias.data[:, None, None]
    wd_data = w.data
    inputs = (x, w) if bias is None else (x, w, bias)

    def bwd(g):
        gflat = g.reshape(o, -1)
        gw = (gflat @ cols.T).reshape(w.shape)
        gcols = (wd_data.reshape(o, -1).T @ gflat).reshape(c, kh, kw, ho, wo)
        gxp = np.zeros_like(xp)
        for u in range(kh):
            for v in range(kw):
                gxp[:, u : u + sh * (ho - 1) + 1 : sh,
                       v : v + sw * (wo - 1) + 1 : sw] += gcols[:, u, v]
        gx = gxp[:, ph : ph + h, pw : pw + wd] if (ph or pw) else gxp
        gx = np.ascontiguousarray(gx)
        if bias is None:
            return (gx, gw)
        return (gx, gw, g.sum(axis=(1, 2)))

    return custom_op("conv2d", np.ascontiguousarray(out), inputs, bwd)


def maxpool2d(x: Tensor, window) -> Tensor:
    """Max over (ph, pw) windows, ceil mode with ragged edges; gradient is
    routed to the argmax cell (ties broken by lowest flat index)."""
    ph, pw = _pair(window)
    if ph < 1 or pw < 1:
        raise ShapeError(f"maxpool2d: window ({ph},{pw}) must be positive")
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool2d expects (C,H,W), got {x.shape}")
    c, h, w = x.shape
    hb = -(-h // ph)
    wb = -(-w // pw)
    pad_h, pad_w = hb * ph - h, wb * pw - w
    xp = np.pad(x.data, ((0, 0), (0, pad_h), (0, pad_w)), constant_values=-np.inf)
    tiles = xp.reshape(c, hb, ph, wb, pw).transpose(0, 1, 3, 2, 4).reshape(c, hb, wb, ph * pw)
    arg = tiles.argmax(axis=3)
    out = np.take_along_axis(tiles, arg[..., None], axis=3)[..., 0]
    shape = x.shape

    def bwd(g):
        gx = np.zeros(shape, dtype=g.dtype)
        ci, hi, wi = np.indices(arg.shape)
        rows = hi * ph + arg // pw
        cols = wi * pw + arg % pw
        np.add.at(gx, (ci.ravel(), rows.ravel(), cols.ravel()), g.ravel())
        return (gx,)

    return custom_op("maxpool2d", np.ascontiguousarray(out), (x,), bwd)


# ---------------------------------------------------------------------------
# activations and normalization

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * xd.dtype.type(_SQRT1_2)))
    out = xd * cdf

    def bwd(g):
        pdf = np.exp(-0.5 * xd * xd) * xd.dtype.type(_INV_SQRT_2PI)
        return (g * (cdf + xd * pdf),)

    return custom_op("gelu", out, (x,), bwd)


def silu(x: Tensor) -> Tensor:
    xd = x.data
    sig = expit(xd)
    return custom_op(
        "silu", xd * sig, (x,), lambda g: (g * sig * (1.0 + xd * (1.0 - sig)),)
    )


def softplus(x: Tensor) -> Tensor:
    xd = x.data
    return custom_op(
        "softplus",
        np.logaddexp(xd.dtype.type(0.0), xd),
        (x,),
        lambda g: (g * expit(xd),),
    )


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow becomes NonFiniteError
        out = np.exp(x.data)
    return custom_op("exp", out, (x,), lambda g: (g * out,))


def softmax_lastdim(x: Tensor) -> Tensor:
    xd = x.data
    shifted = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return custom_op("softmax", y, (x,), bwd)


def _normalize_lastdim(x: np.ndarray):
    """(x - mean) * inv over the last axis, and inv = 1/sqrt(var + eps)."""
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + x.dtype.type(LN_EPS))
    return (x - mu) * inv, inv


def layernorm_np(x: np.ndarray, scale: Tensor, shift: Tensor) -> np.ndarray:
    """Last-dim layernorm of a raw array, off the tape; bitwise equal to
    ``layernorm_lastdim(Tensor(x), scale, shift).data``."""
    return scale.data * _normalize_lastdim(x)[0] + shift.data


def layernorm_lastdim(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    d = x.shape[-1]
    if d < 1:
        raise ShapeError("layernorm requires last-dim extent >= 1")
    if scale.shape != (d,) or shift.shape != (d,):
        raise ShapeError(
            f"layernorm: scale/shift {scale.shape}/{shift.shape} do not fit last dim {d}"
        )
    xd = x.data
    xhat, inv = _normalize_lastdim(xd)
    out = scale.data * xhat + shift.data
    axes = tuple(range(xd.ndim - 1))

    def bwd(g):
        gscale = (g * xhat).sum(axis=axes)
        gshift = g.sum(axis=axes)
        gh = g * scale.data
        gx = inv * (
            gh
            - gh.mean(axis=-1, keepdims=True)
            - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
        )
        return (gx, gscale, gshift)

    return custom_op("layernorm", out, (x, scale, shift), bwd)


_ACTIVATIONS = {
    "gelu": gelu,
    "silu": silu,
    "softplus": softplus,
    "exp": exp,
    "softmax_lastdim": softmax_lastdim,
}


def activation(kind: str, x: Tensor, scale: Tensor | None = None,
               shift: Tensor | None = None) -> Tensor:
    """Dispatch on kind; layernorm_lastdim requires learned scale/shift."""
    if kind == "layernorm_lastdim":
        if scale is None or shift is None:
            raise ShapeError("layernorm_lastdim requires scale and shift")
        return layernorm_lastdim(x, scale, shift)
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ShapeError(f"unknown activation kind {kind!r}") from None
    return fn(x)


def batchnorm2d(x: Tensor, scale: Tensor, shift: Tensor,
                running_mean: np.ndarray, running_var: np.ndarray,
                training: bool, momentum: float = 0.1,
                eps: float = 1e-5) -> Tensor:
    """Per-channel normalization of (C, H, W).

    Training mode normalizes with the sample's own spatial statistics and
    updates the running buffers in place (unbiased variance, EMA).
    Eval mode uses the frozen running statistics.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"batchnorm2d expects (C,H,W), got {x.shape}")
    c = x.shape[0]
    if scale.shape != (c,) or shift.shape != (c,):
        raise ShapeError("batchnorm2d: scale/shift must have one entry per channel")
    xd = x.data
    dt = xd.dtype
    if training:
        mu = xd.mean(axis=(1, 2))
        var = xd.var(axis=(1, 2))
        n = xd.shape[1] * xd.shape[2]
        unbiased = var * (n / max(n - 1, 1))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu.astype(running_mean.dtype)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased.astype(running_var.dtype)
    else:
        mu = running_mean.astype(dt)
        var = running_var.astype(dt)
    inv = 1.0 / np.sqrt(var + dt.type(eps))
    xhat = (xd - mu[:, None, None]) * inv[:, None, None]
    out = scale.data[:, None, None] * xhat + shift.data[:, None, None]

    def bwd(g):
        gscale = (g * xhat).sum(axis=(1, 2))
        gshift = g.sum(axis=(1, 2))
        gh = g * scale.data[:, None, None]
        if training:
            gx = inv[:, None, None] * (
                gh
                - gh.mean(axis=(1, 2), keepdims=True)
                - xhat * (gh * xhat).mean(axis=(1, 2), keepdims=True)
            )
        else:
            gx = gh * inv[:, None, None]
        return (gx, gscale, gshift)

    return custom_op("batchnorm2d", out, (x, scale, shift), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w with optional last-dim bias."""
    y = matmul(x, w)
    return y if b is None else add_bias(y, b)
