"""Dense tensors with reverse-mode differentiation.

Data lives in row-major numpy arrays, float32 or float64 only. Every op
checks its output for NaN/Inf and, when an input is attached to the
active tape, records a node whose closure maps the output gradient back
to input gradients. ``backward`` walks the tape once in reverse and
consumes it: each node is released as it is walked, so a sample's tape
is freed by reference counting rather than by the cycle collector, and
the consumed loss is left detached. An op whose backward recomputes its
forward records that recompute on a tape of its own (``recording_to``)
and walks it from several seeds (``walk``). batchnorm2d, silu and conv2d
rebuild xhat, the sigmoid and the padded input from their input in the
backward: no op writes its inputs, so the rebuild reads what the forward read.

Broadcasting is deliberately restricted to scalar-tensor and last-dim
bias adds so that loop oracles in the test suite stay trivial.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from scipy.special import erf

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)
LN_EPS = 1e-5  # layernorm epsilon
BN_EPS = 1e-5  # batchnorm epsilon
BN_MOMENTUM = 0.1  # weight of the newest sample in the batchnorm running stats
CONV_BLOCK_ELEMS = 1 << 18  # im2col entries per conv2d row block: 1 MiB of f32


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


def check_finite(arr: np.ndarray, op: str) -> None:
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
        check_finite(arr, "tensor")
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

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"


def uniform_param(rng, shape, fan_in: int, dtype) -> Tensor:
    """Trainable weights drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    k = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-k, k, size=shape), dtype=dtype, requires_grad=True)


def const_param(shape, value: float, dtype) -> Tensor:
    """Trainable weights all set to value (layernorm gains, biases)."""
    return Tensor(np.full(shape, value), dtype=dtype, requires_grad=True)


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
        """Drop every node, detaching its outputs so that nothing waits
        for the cyclic garbage collector."""
        for node in self.nodes:
            for o in node.outputs:
                o.node = None
        self.nodes.clear()

    def __len__(self) -> int:
        return len(self.nodes)

    def __del__(self):  # a kept tape dropped unwalked leaves no cycles
        self.reset()


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


@contextlib.contextmanager
def recording_to(tape: Tape):
    """Record onto ``tape`` instead of the module tape within the body,
    gradients enabled; the module tape is active again on exit. A body
    that raises leaves ``tape`` reset."""
    global _tape, _grad_enabled
    prev = _tape, _grad_enabled
    _tape, _grad_enabled = tape, True
    try:
        yield tape
    except BaseException:
        tape.reset()
        raise
    finally:
        _tape, _grad_enabled = prev


def wrap_checked(data: np.ndarray, requires_grad: bool = False) -> Tensor:
    """A Tensor over data whose every entry an op output has already
    passed through ``check_finite``: slices and assemblies of op outputs
    are not checked a second time. Untracked unless ``requires_grad``."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = requires_grad
    out.grad = None
    out.node = None
    return out


def _attached(t: Tensor) -> bool:
    return t.requires_grad or t.node is not None


def records(inputs) -> bool:
    """Whether an op over ``inputs`` lands on the tape, and so whether it
    must keep what its backward reads."""
    return _grad_enabled and any(_attached(t) for t in inputs)


def custom_op(op: str, data: np.ndarray, inputs, backward) -> Tensor:
    """Record a single-output op. ``backward(grad_out)`` returns one
    gradient array (or None) per input, in order."""
    check_finite(data, op)
    out = wrap_checked(data)
    if records(inputs):
        node = Node(op, tuple(inputs), (out,), backward)
        out.node = node
        _tape.nodes.append(node)
    return out


def custom_op_multi(op: str, datas, inputs, backward) -> tuple[Tensor, ...]:
    """Record a multi-output op. ``backward(*grad_outs)`` receives one
    gradient array per output (zeros where unused)."""
    outs = []
    for data in datas:
        check_finite(data, op)
        outs.append(wrap_checked(data))
    if records(inputs):
        node = Node(op, tuple(inputs), tuple(outs), backward)
        for o in outs:
            o.node = node
        _tape.nodes.append(node)
    return tuple(outs)


def walk(tape: Tape, seeds) -> None:
    """Reverse-topological gradient accumulation over ``tape`` from
    (tensor, gradient) seeds; a None gradient seeds nothing.

    Gradients sum over fan-out and accumulate into ``.grad`` of every
    requires_grad tensor reached. The tape is consumed: each node is
    popped and its outputs detached before its closure runs, so the node,
    the closure and the arrays only it holds are released as the walk
    goes.
    """
    nodes = tape.nodes
    flowing: dict[int, np.ndarray] = {id(t): g for t, g in seeds if g is not None}
    while nodes:
        node = nodes.pop()
        outs = []
        for o in node.outputs:
            o.node = None
            outs.append(flowing.pop(id(o), None))
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


def backward(loss: Tensor) -> None:
    """``walk`` the module tape from a scalar loss.

    The loss itself is detached, and a second ``backward`` on it raises
    TapeError. The tape is reset on every exit, a rejected loss included.
    """
    try:
        if loss.node is None:
            raise TapeError("backward on a tensor that is not connected to the tape")
        if loss.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
        walk(_tape, ((loss, np.ones_like(loss.data)),))
    finally:
        _tape.reset()


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
    """a[l, i, n] * u[l, i]; the u gradient contracts n with einsum."""
    if a.shape[:2] != u.shape:
        raise ShapeError(f"mul_rowbcast: shapes {a.shape} and {u.shape} mismatch")
    ad, ud = a.data, u.data
    return custom_op(
        "mul_rowbcast",
        ad * ud[:, :, None],
        (a, u),
        lambda g: (g * ud[:, :, None], np.einsum("lin,lin->li", g, ad)),
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


def conv_block_rows(c: int, kh: int, kw: int, wo: int) -> int:
    """Output rows per conv2d row block, the rows of one im2col GEMM."""
    return max(1, CONV_BLOCK_ELEMS // (c * kh * kw * wo))


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """Cross-correlation of (C, H, W) with kernels (O, C, kh, kw),
    zero padding. Output H' = (H + 2p - kh) // stride + 1. The backward
    re-pads x and rebuilds the im2col columns rather than keep either."""
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
    if bias is not None and bias.shape != (o,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({o},)")
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1
    xd = x.data

    def windows():  # (c, kh, kw, ho, wo) view of a fresh zero-padded copy of xd
        xp = np.pad(xd, ((0, 0), (ph, ph), (pw, pw)))
        sc, srow, scol = xp.strides
        return np.lib.stride_tricks.as_strided(
            xp, (c, kh, kw, ho, wo), (sc, srow, scol, srow * sh, scol * sw))

    # im2col one block of output rows at a time, each GEMM into its slice
    win = windows()
    out = np.empty((o, ho, wo), dtype=xd.dtype)
    flat, wmat = out.reshape(o, -1), w.data.reshape(o, -1)
    rows = conv_block_rows(c, kh, kw, wo)
    for r in range(0, ho, rows):
        cols = win[:, :, :, r : r + rows].reshape(c * kh * kw, -1)
        np.matmul(wmat, cols, out=flat[:, r * wo : (r + rows) * wo])
    if bias is not None:
        out += bias.data[:, None, None]
    inputs = (x, w) if bias is None else (x, w, bias)
    x_attached = _attached(x)  # a detached image (stage 1) needs no gx

    def bwd(g):
        gflat = g.reshape(o, -1)
        cols = windows().reshape(c * kh * kw, ho * wo)
        gw = (gflat @ cols.T).reshape(w.shape)
        del cols  # freed before gx needs gcols and gxp
        gx = None
        if x_attached:
            gcols = (wmat.T @ gflat).reshape(c, kh, kw, ho, wo)
            gxp = np.zeros((c, hp, wp), dtype=xd.dtype)
            for u in range(kh):
                for v in range(kw):
                    gxp[:, u : u + sh * (ho - 1) + 1 : sh,
                           v : v + sw * (wo - 1) + 1 : sw] += gcols[:, u, v]
            gx = gxp[:, ph : ph + h, pw : pw + wd] if (ph or pw) else gxp
            gx = np.ascontiguousarray(gx)
        if bias is None:
            return (gx, gw)
        return (gx, gw, g.sum(axis=(1, 2)))

    return custom_op("conv2d", out, inputs, bwd)


def maxpool2d(x: Tensor, window) -> Tensor:
    """Max over (ph, pw) windows, ceil mode with ragged edges; gradient is
    routed to the argmax cell (ties broken by lowest flat index).

    Cell (u, v) of every window is the strided view x[:, u::ph, v::pw]; on
    a ragged edge it covers fewer windows, so nothing is padded or copied.
    The forward folds the ph*pw views with np.maximum; the backward builds
    one first-hit mask per cell and writes the gradient through its view.

    A zero max takes the sign of its window's first equal cell. That
    fix-up can change a bit only where a window holds a -0.0, so it runs
    only when some max is zero and x holds a -0.0: without one, every zero
    max is already +0.0. -0.0 is the one float whose bits, read as a
    signed integer of its width, are that integer type's minimum, so one
    integer reduction finds it exactly.
    """
    ph, pw = _pair(window)
    if ph < 1 or pw < 1:
        raise ShapeError(f"maxpool2d: window ({ph},{pw}) must be positive")
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool2d expects (C,H,W), got {x.shape}")
    xd = x.data
    _, h, w = x.shape
    # (windows the cell covers, the cell's view of x), in flat window order
    cells = [(np.s_[:, : -(-(h - u) // ph), : -(-(w - v) // pw)], np.s_[:, u::ph, v::pw])
             for u in range(ph) for v in range(pw)]
    out = xd[cells[0][1]].copy()
    for o, s in cells[1:]:
        np.maximum(out[o], xd[s], out=out[o])
    bits = np.dtype(f"i{xd.itemsize}")
    if not out.all() and np.minimum.reduce(xd.view(bits), axis=None) == np.iinfo(bits).min:
        for o, s in reversed(cells):
            np.copyto(out[o], xd[s], where=xd[s] == out[o])

    def bwd(g):
        gx = np.empty(xd.shape, dtype=g.dtype)  # every cell view is written
        free = np.ones(out.shape, dtype=bool)   # windows whose max is unclaimed
        for o, s in cells:
            hit = xd[s] == out[o]
            hit &= free[o]
            free[o] &= ~hit
            gs = gx[s]
            np.multiply(g[o], hit, out=gs)
            gs += 0.0  # -0.0 -> +0.0, as 0 + g would give
        return (gx,)

    return custom_op("maxpool2d", out, (x,), bwd)


# ---------------------------------------------------------------------------
# activations and normalization

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gauss_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a raw array, 0.5 * (1 + erf(x / sqrt(2)))."""
    return 0.5 * (1.0 + erf(x * x.dtype.type(_SQRT1_2)))


def gelu_np(x: np.ndarray) -> np.ndarray:
    """Exact GELU x * Phi(x) of a raw array, off the tape; bitwise equal to
    ``gelu(Tensor(x)).data``."""
    return x * _gauss_cdf(x)


def gelu(x: Tensor) -> Tensor:
    xd = x.data
    cdf = _gauss_cdf(xd)
    out = xd * cdf

    def bwd(g):
        pdf = np.exp(-0.5 * xd * xd) * xd.dtype.type(_INV_SQRT_2PI)
        return (g * (cdf + xd * pdf),)

    return custom_op("gelu", out, (x,), bwd)


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Logistic function of a raw array as 0.5 * (1 + tanh(x / 2)), one
    fresh buffer updated in place."""
    s = np.multiply(x, 0.5, out=np.empty_like(x))  # an array even when 0-d
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def softplus_np(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) of a raw array as max(x, 0) + log1p(exp(-|x|)),
    which neither overflows nor loses the small tail."""
    t = np.abs(x, out=np.empty_like(x))
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    t += np.maximum(x, 0)
    return t


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x) over the sigmoid's buffer; the backward recomputes
    the sigmoid and forms g * s * (1 + x * (1 - s)) in two full maps."""
    xd = x.data

    def bwd(g):
        s = sigmoid_np(xd)
        t = 1.0 - s
        t *= xd
        t += 1.0
        s *= g
        s *= t
        return (s,)

    sig = sigmoid_np(xd)
    return custom_op("silu", np.multiply(xd, sig, out=sig), (x,), bwd)


def softplus(x: Tensor) -> Tensor:
    xd = x.data
    return custom_op(
        "softplus", softplus_np(xd), (x,), lambda g: (g * sigmoid_np(xd),)
    )


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow becomes NonFiniteError
        out = np.exp(x.data)
    return custom_op("exp", out, (x,), lambda g: (g * out,))


def softmax_np(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Last-axis softmax of a raw array, shifted by the row maximum so
    that exp cannot overflow, into ``out`` (fresh when None; x itself for
    an in-place softmax); ``softmax_lastdim`` computes through it."""
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_lastdim(x: Tensor) -> Tensor:
    y = softmax_np(x.data)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return custom_op("softmax", y, (x,), bwd)


def _normalize_lastdim(x: np.ndarray):
    """(x - mean) * inv over the last axis, and inv = 1/sqrt(var + eps).

    x is centred once and the variance is the mean square of the centred
    values, the same sums and divisions ``x.mean`` / ``x.var`` run, without
    their Python-level wrappers or var's second centring.
    """
    n = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + x.dtype.type(LN_EPS))
    xc *= inv
    return xc, inv


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


def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over (h, w) of a * b per channel of (C, H, W), as C BLAS dots."""
    c = a.shape[0]
    return (a.reshape(c, 1, -1) @ b.reshape(c, -1, 1)).reshape(c)


def batchnorm2d(x: Tensor, scale: Tensor, shift: Tensor,
                running_mean: np.ndarray, running_var: np.ndarray,
                training: bool) -> Tensor:
    """Per-channel normalization of (C, H, W).

    Training mode normalizes with the sample's own spatial statistics and
    updates the running buffers in place (unbiased variance, EMA).
    Eval mode uses the frozen running statistics.

    The input is centred once, the variance comes from the centred array
    and the normalisation and affine map run in place on it. The backward
    rebuilds xhat = (x - centre) * inv from the input and per-channel
    vectors; in training it is the closed form
    gx = scale*inv*(g - mean(g) - xhat*mean(g*xhat)), in place on xhat.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"batchnorm2d expects (C,H,W), got {x.shape}")
    c = x.shape[0]
    if scale.shape != (c,) or shift.shape != (c,):
        raise ShapeError("batchnorm2d: scale/shift must have one entry per channel")
    xd = x.data
    dt = xd.dtype
    n = xd.shape[1] * xd.shape[2]
    if training:
        centre = xd.mean(axis=(1, 2))
        out = xd - centre[:, None, None]
        var = _channel_dot(out, out) / n
        unbiased = var * (n / max(n - 1, 1))
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * centre.astype(running_mean.dtype)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * unbiased.astype(running_var.dtype)
    else:
        var = running_var.astype(dt)
        centre = running_mean.astype(dt)  # a copy: a later sample updates the buffer
        out = xd - centre[:, None, None]
    inv = 1.0 / np.sqrt(var + dt.type(BN_EPS))
    out *= inv[:, None, None]
    out *= scale.data[:, None, None]
    out += shift.data[:, None, None]
    gain = (scale.data * inv)[:, None, None]

    def bwd(g):
        xhat = xd - centre[:, None, None]
        xhat *= inv[:, None, None]
        gscale = _channel_dot(g, xhat)
        gshift = g.sum(axis=(1, 2))
        if not training:
            return (g * gain, gscale, gshift)
        gx = np.multiply(xhat, (-gscale / n)[:, None, None], out=xhat)
        gx += g
        gx -= (gshift / n)[:, None, None]
        gx *= gain
        return (gx, gscale, gshift)

    return custom_op("batchnorm2d", out, (x, scale, shift), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w with optional last-dim bias."""
    y = matmul(x, w)
    return y if b is None else add_bias(y, b)
