"""The decoding heads over the shared visual sequence.

Three Mamba heads (CTC frames, autoregressive with a constant-size
recurrent cache, non-autoregressive with learned queries) plus a causal
attention decoder whose key-value cache grows with every generated
token; the latter exists as the quadratic counterpart in the memory
scaling benchmark.

The three Mamba heads are one ``MambaStack`` (layers and read-out) each,
run over the visual rows alone (CTC) or with token embeddings (AR) or
learned queries (NAR) appended and read from the tail. Both
autoregressive heads speak one stream protocol, ``start_stream`` and
``step(token, position, stream)``, over which ``AutoregressiveHead``
gives them one loss and one greedy ``generate``. The attention decoder's
teacher forcing and prefill are one batch forward through the
row-blocked ``causal_attention`` op; the prefill runs it off the tape,
and copies the K/V rows once into preallocated buffers that each step
writes one row of. Every Mamba stack that records nothing (CTC and NAR
decoding, teacher forcing under ``no_grad``) and the Mamba decoder's
prefill run the row-blocked recurrence of ``MambaLayer.forward_np``; the
prefill keeps its final state. ``generate`` refuses non-finite step
logits with NonFiniteError instead of decoding them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from . import vocab as V
from .encoder import positional_encoding_1d
from .ssm import FFN_MULT, MambaLayer
from .tensor import Tensor

NEG_MASK = -1e30  # additive logit mask; finite so softmax stays NaN-free
# query rows per ``causal_attention`` block: 1.4 MiB of f32 scores at 4
# heads and 1,400 rows; 32 to 128 time a long prefill within 10 %
ATTN_BLOCK_ROWS = 64


class InfeasibleAlignmentError(ValueError):
    """Too few frames to align the target under CTC rules."""


class TargetTooLongError(ValueError):
    """Target does not fit the decoder's fixed query budget."""


class ContextOverflowError(RuntimeError):
    """Attention cache grew past the configured context."""


# ---------------------------------------------------------------------------
# CTC


def ctc_required_frames(targets) -> int:
    t = np.asarray(targets, dtype=np.int64)
    return int(t.size + np.count_nonzero(t[1:] == t[:-1]))


def ctc_loss(frame_logits: Tensor, targets) -> Tensor:
    """Negative log marginal over all blank-augmented monotonic alignments.

    frame_logits: (L, K) with blank at class 0; targets: character classes
    in 1..K-1. The forward algorithm runs in f64 log space; the backward
    variables are the forward variables of the reversed lattice (Graves et
    al., 2006, section 4.1), and the gradient is the frame posterior
    deficit (softmax minus occupation probability).
    """
    targets = np.asarray(list(targets), dtype=np.int64)
    zl = frame_logits.data
    n_frames, n_classes = zl.shape
    if targets.size and (targets.min() < 1 or targets.max() >= n_classes):
        raise V.VocabularyError(f"CTC target ids must lie in [1, {n_classes})")
    required = max(ctc_required_frames(targets), 1)
    if n_frames < required:
        raise InfeasibleAlignmentError(
            f"{n_frames} frames cannot align a target needing {required}"
        )

    z = zl.astype(np.float64)
    logp = z - _logsumexp_rows(z)
    ext, allow = _ctc_lattice(targets)
    lp = logp[:, ext]
    alpha = _ctc_alpha(lp, allow)
    log_z = np.logaddexp.reduce(alpha[-1, -2:])
    loss = np.asarray(-log_z, dtype=zl.dtype)

    def bwd(g):
        _, allow_rev = _ctc_lattice(targets[::-1])
        beta = _ctc_alpha(lp[::-1, ::-1], allow_rev)[::-1, ::-1]
        occupancy = alpha + beta - lp - log_z  # log q_t(s)
        gamma = np.zeros_like(z)
        with np.errstate(under="ignore"):
            occ = np.exp(occupancy)
        for s in range(ext.size):
            gamma[:, ext[s]] += occ[:, s]
        grad = (np.exp(logp) - gamma) * float(g)
        return (grad.astype(zl.dtype),)

    return T.custom_op("ctc_loss", loss, (frame_logits,), bwd)


def _ctc_lattice(targets: np.ndarray):
    """The 2U+1 blank-augmented states and the mask of states s that may
    be entered from s-2 (a label differing from the label two back)."""
    ext = np.zeros(2 * targets.size + 1, dtype=np.int64)
    ext[1::2] = targets
    allow = np.zeros(ext.size, dtype=bool)
    allow[2:] = (ext[2:] != 0) & (ext[2:] != ext[:-2])
    return ext, allow


def _ctc_alpha(lp: np.ndarray, allow: np.ndarray) -> np.ndarray:
    """Log forward variables over a lattice whose frame t emits state s
    with log-probability lp[t, s]; paths start in state 0 or 1."""
    alpha = np.full(lp.shape, -np.inf)
    alpha[0, :2] = lp[0, :2]
    for t in range(1, len(lp)):
        prev, cur = alpha[t - 1], alpha[t]
        cur[:] = prev
        np.logaddexp(cur[1:], prev[:-1], out=cur[1:])
        np.logaddexp(cur[2:], prev[:-2], out=cur[2:], where=allow[2:])
        cur += lp[t]
    return alpha


def _logsumexp_rows(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def ctc_collapse(path) -> list[int]:
    """Merge consecutive repeats, then delete blanks."""
    out = []
    prev = None
    for p in path:
        p = int(p)
        if p != prev and p != V.BLANK:
            out.append(p)
        prev = p
    return out


def ctc_greedy_decode(frame_logits, vocabulary: V.Vocabulary) -> str:
    """Per-frame argmax (ties to the lowest id), collapse, to text."""
    z = frame_logits.data if isinstance(frame_logits, Tensor) else np.asarray(frame_logits)
    path = z.argmax(axis=1)
    ctc_ids = ctc_collapse(path)
    if not ctc_ids:
        return ""
    return vocabulary.decode(vocabulary.from_ctc(np.asarray(ctc_ids)))


# ---------------------------------------------------------------------------
# cross-entropy


def cross_entropy_rows(logits: Tensor, targets, mask=None) -> Tensor:
    """Mean negative log-likelihood over the selected rows."""
    z = logits.data
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (z.shape[0],):
        raise T.ShapeError(f"cross_entropy: {targets.shape} targets for {z.shape} logits")
    sel = np.ones(z.shape[0], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    n_sel = int(sel.sum())
    if n_sel == 0:
        raise T.ShapeError("cross_entropy: no supervised rows")
    logp = z - _logsumexp_rows(z)
    rows = np.arange(z.shape[0])
    loss = np.asarray(-(logp[rows, targets] * sel).sum() / n_sel, dtype=z.dtype)

    def bwd(g):
        grad = np.exp(logp)
        grad[rows, targets] -= 1.0
        grad *= (sel[:, None] * float(g)) / n_sel
        return (grad.astype(z.dtype),)

    return T.custom_op("cross_entropy", loss, (logits,), bwd)


def masked_ce_loss(logits: Tensor, target_ids) -> Tensor:
    """Supervise slots 0..T-1 with the gold characters and slot T with
    eos; slots beyond T are excluded from the mean."""
    target_ids = np.asarray(target_ids, dtype=np.int64)
    t_max = logits.shape[0]
    t = target_ids.size
    if t + 1 > t_max:
        raise TargetTooLongError(f"target length {t} + eos exceeds {t_max} slots")
    full = np.full(t_max, V.PAD, dtype=np.int64)
    full[:t] = target_ids
    full[t] = V.EOS
    mask = np.zeros(t_max, dtype=bool)
    mask[: t + 1] = True
    return cross_entropy_rows(logits, full, mask)


# ---------------------------------------------------------------------------
# the Mamba heads


def _head_init(rng, d, n_out, dtype):
    return T.uniform_param(rng, (d, n_out), d, dtype), T.const_param(n_out, 0.0, dtype)


class MambaStack:
    """The unidirectional Mamba layers and linear read-out that every
    Mamba head runs; a head draws its own parameters before the stack's."""

    def __init__(self, d_model, n_out, n_layers, n_state, expand, *, rng, dtype):
        self.layers = [MambaLayer(d_model, n_state, expand, rng=rng, dtype=dtype)
                       for _ in range(n_layers)]
        self.w_out, self.b_out = _head_init(rng, d_model, n_out, dtype)

    def read(self, h: Tensor, tail: Tensor | None = None) -> Tensor:
        """Run the layers over h, or over [h; tail] when tail is given, and
        read out every row, or only the tail rows."""
        x = h if tail is None else T.concat([h, tail], axis=0)
        for layer in self.layers:
            x = layer.forward(x)
        if tail is not None:
            x = T.narrow(x, 0, h.shape[0], tail.shape[0])
        return T.linear(x, self.w_out, self.b_out)

    def params(self):
        out = {f"layer{i}.{k}": v for i, layer in enumerate(self.layers)
               for k, v in layer.params().items()}
        out.update({"head.w": self.w_out, "head.b": self.b_out})
        return out


class CtcDecoder(MambaStack):
    """Unidirectional stack projecting every visual frame onto V+blank."""

    def __init__(self, d_model, ctc_size, n_layers=4, n_state=16, expand=2,
                 *, rng, dtype="f32"):
        super().__init__(d_model, ctc_size, n_layers, n_state, expand, rng=rng, dtype=dtype)

    def frame_logits(self, h: Tensor) -> Tensor:
        return self.read(h)

    def loss(self, h: Tensor, ctc_targets) -> Tensor:
        return ctc_loss(self.frame_logits(h), ctc_targets)


class NarDecoder(MambaStack):
    """Fixed learned queries appended after the visual stream; one pass
    predicts every slot, read from the last T_max positions."""

    def __init__(self, d_model, vocab_size, t_max=160, n_layers=4, n_state=16,
                 expand=2, *, rng, dtype="f32"):
        self.t_max = t_max
        self.queries = Tensor(rng.standard_normal((t_max, d_model)) * 0.02,
                              dtype=dtype, requires_grad=True)
        super().__init__(d_model, vocab_size, n_layers, n_state, expand, rng=rng, dtype=dtype)

    def logits(self, h: Tensor) -> Tensor:
        return self.read(h, self.queries)

    def loss(self, h: Tensor, target_ids) -> Tensor:
        return masked_ce_loss(self.logits(h), target_ids)

    def params(self):
        return {"queries": self.queries, **super().params()}


@dataclass
class NarDecodeResult:
    ids: list[int]
    truncated: bool


def nar_decode(logits) -> NarDecodeResult:
    """Per-slot argmax (ties to the lowest id); truncate at the first eos;
    strip pad. No eos within the budget flags the result truncated."""
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    slots = z.argmax(axis=1)
    ids = []
    for s in slots:
        s = int(s)
        if s == V.EOS:
            return NarDecodeResult(ids, truncated=False)
        if s != V.PAD:
            ids.append(s)
    return NarDecodeResult(ids, truncated=True)


# ---------------------------------------------------------------------------
# the autoregressive protocol


@dataclass
class GenerationResult:
    ids: list[int]                      # emitted character ids (full table)
    truncated: bool
    step_logits: np.ndarray             # (steps, vocab), pre-mask
    cache_bytes: int                    # decoder state bytes when done
    steps: int = 0

    def __post_init__(self):
        self.steps = len(self.step_logits)


def _check_targets(target_ids, max_len: int, vocab_size: int) -> np.ndarray:
    """The gold path [sos, y_1..y_T] of an autoregressive head as int64,
    refused when T exceeds max_len or an id lies outside the table."""
    target_ids = np.asarray(target_ids, dtype=np.int64)
    if target_ids.size > max_len:
        raise TargetTooLongError(f"target length {target_ids.size} exceeds max_len {max_len}")
    if target_ids.size and (target_ids.min() < 0 or target_ids.max() >= vocab_size):
        raise V.VocabularyError("target id outside the embedding table")
    return np.concatenate([[V.SOS], target_ids])


class AutoregressiveHead:
    """The loss and greedy generation of an autoregressive head, over its
    ``teacher_logits(h, target_ids)``, ``start_stream(h_np) -> stream``
    (``stream.nbytes`` is the cache size) and ``step(token, position,
    stream) -> logits``, which feeds one token, sos at position 0.
    Subclasses set ``vocab_size`` and ``max_len``."""

    def loss(self, h: Tensor, target_ids) -> Tensor:
        target_ids = np.asarray(target_ids, dtype=np.int64)
        logits = self.teacher_logits(h, target_ids)
        return cross_entropy_rows(logits, np.concatenate([target_ids, [V.EOS]]))

    def generate(self, h_np: np.ndarray, max_len: int | None = None,
                 force_ids=None) -> GenerationResult:
        """Greedy generation from sos (ties to the lowest id) until eos or
        max_len, which defaults to and may not exceed the head's.

        force_ids, when given, feeds the gold tokens instead of the argmax
        so incremental logits can be compared against teacher forcing.
        pad/sos/blank never surface: their logits are masked at the argmax.
        """
        max_len = self.max_len if max_len is None else max_len
        if max_len < 1:
            raise ValueError(f"generation max_len must be at least 1, got {max_len}")
        if max_len > self.max_len:
            raise TargetTooLongError(f"max_len {max_len} exceeds {self.max_len}")
        stream = self.start_stream(h_np)
        mask = np.zeros(self.vocab_size)
        mask[[V.BLANK, V.PAD, V.SOS]] = NEG_MASK
        logits = self.step(V.SOS, 0, stream)
        ids: list[int] = []
        step_logits = [logits]
        truncated = force_ids is None
        n_steps = max_len if force_ids is None else min(len(force_ids), max_len)
        for t in range(n_steps):
            T.check_finite(logits, "generate")
            if force_ids is None:
                tok = int(np.argmax(logits + mask))
                if tok == V.EOS:
                    truncated = False
                    break
            else:
                tok = int(force_ids[t])
            ids.append(tok)
            if t + 1 == n_steps:
                break
            logits = self.step(tok, t + 1, stream)
            step_logits.append(logits)
        return GenerationResult(ids, truncated, np.asarray(step_logits), stream.nbytes)


class RecurrentStream(list):
    """The Mamba decoder's stream: one RecurrentState per layer."""

    @property
    def nbytes(self) -> int:
        return sum(s.nbytes for s in self)


class ArDecoder(MambaStack, AutoregressiveHead):
    """Autoregressive head: visual context and token embeddings are fused
    by concatenation along the sequence, predictions are read from the
    stream tail, and generation steps with one RecurrentState per layer."""

    def __init__(self, d_model, vocab_size, n_layers=4, n_state=16, expand=2,
                 max_len=512, *, rng, dtype="f32"):
        self.vocab_size = vocab_size
        self.max_len = max_len
        self.embed = T.uniform_param(rng, (vocab_size, d_model), d_model, dtype)
        super().__init__(d_model, vocab_size, n_layers, n_state, expand, rng=rng, dtype=dtype)

    def teacher_logits(self, h: Tensor, target_ids) -> Tensor:
        """Logits for steps 1..T+1 along the gold path [sos, y_1..y_T]."""
        tokens = _check_targets(target_ids, self.max_len, self.vocab_size)
        return self.read(h, T.embedding(self.embed, tokens))

    def start_stream(self, h_np: np.ndarray) -> RecurrentStream:
        """Prefill the visual positions once; per-stream memory afterwards
        is the sum of the layer states, independent of generated length."""
        states = RecurrentStream()
        x = h_np
        for layer in self.layers:
            x, state = layer.forward_np(x)
            states.append(state)
        return states

    def step(self, token: int, position: int, states) -> np.ndarray:
        row = self.embed.data[token]
        for layer, state in zip(self.layers, states):
            row = layer.step(row, state)
        return row @ self.w_out.data + self.b_out.data

    def params(self):
        return {"embed": self.embed, **super().params()}


# ---------------------------------------------------------------------------
# causal-attention counterpart


@dataclass
class KvCache:
    """Per-layer key/value rows, head-major: one (H, cap, dh) buffer per
    layer for keys and one for values, allocated once by ``start_stream``.
    Rows ``[:length]`` are live; each step writes row ``length`` and
    advances it, so nothing is copied per token."""

    keys: list      # one (H, cap, dh) buffer per layer
    values: list
    length: int

    @property
    def nbytes(self) -> int:
        """Bytes of the live rows: 2 * length * D * layers * itemsize."""
        return sum(k[:, :self.length].nbytes + v[:, :self.length].nbytes
                   for k, v in zip(self.keys, self.values))


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Causal softmax(q_h k_h^T / sqrt(dh)) v_h for each of n_heads column
    groups of the (S, D) projections. Query rows go in blocks of
    ``ATTN_BLOCK_ROWS``; block [a, b) scores keys [0, b) only and masks
    the later keys of its diagonal sub-block. A recorded op keeps each
    block's probabilities (about half of H * S^2) for the backward; off
    the tape it keeps nothing."""
    s, d = q.shape
    if k.shape != (s, d) or v.shape != (s, d) or d % n_heads:
        raise T.ShapeError(f"causal_attention: {q.shape}, {k.shape}, {v.shape}, {n_heads} heads")
    dh = d // n_heads
    scale = q.data.dtype.type(1.0 / np.sqrt(dh))

    def heads(x):  # (S, D) -> (H, S, dh); a view when x is contiguous
        return x.reshape(s, n_heads, dh).transpose(1, 0, 2)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    out = np.empty((s, d), dtype=q.data.dtype)
    oh = heads(out)
    later = np.triu(np.ones((ATTN_BLOCK_ROWS, ATTN_BLOCK_ROWS), dtype=bool), k=1)
    keep = T.records((q, k, v))
    probs = []
    for a in range(0, s, ATTN_BLOCK_ROWS):
        b = min(a + ATTN_BLOCK_ROWS, s)
        p = qh[:, a:b] @ kh[:, :b].transpose(0, 2, 1)
        p *= scale
        np.copyto(p[:, :, a:], NEG_MASK, where=later[:b - a, :b - a])
        T.softmax_np(p, out=p)
        oh[:, a:b] = p @ vh[:, :b]
        if keep:
            probs.append(p)

    def bwd(g):
        gq, gk, gv = (np.zeros((s, d), dtype=g.dtype) for _ in range(3))
        gh, gqh, gkh, gvh = heads(g), heads(gq), heads(gk), heads(gv)
        for p in probs:
            b = p.shape[2]
            a = b - p.shape[1]
            go = gh[:, a:b]
            gvh[:, :b] += p.transpose(0, 2, 1) @ go
            gs = go @ vh[:, :b].transpose(0, 2, 1)
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= scale
            gqh[:, a:b] = gs @ kh[:, :b]
            gkh[:, :b] += gs.transpose(0, 2, 1) @ qh[:, a:b]
        return gq, gk, gv

    return T.custom_op("causal_attention", out, (q, k, v), bwd)


class AttentionBaselineDecoder(AutoregressiveHead):
    """Pre-norm causal transformer over the concatenated [visual; token]
    stream. Cross-modal attention happens through input-level fusion, so
    each layer keeps exactly one K/V pair per stream position:
    cache bytes = 2 * (L + t) * D * layers * itemsize."""

    def __init__(self, d_model, vocab_size, n_layers=4, n_heads=4,
                 max_ctx=4096, max_len=512, *, rng, dtype="f32"):
        if d_model % n_heads:
            raise T.ShapeError(f"d_model {d_model} not divisible by {n_heads} heads")
        self.d_model = d_model
        self.n_heads = n_heads
        self.vocab_size = vocab_size
        self.max_ctx = max_ctx
        self.max_len = max_len
        self.embed = T.uniform_param(rng, (vocab_size, d_model), d_model, dtype)
        self.layers = []
        for _ in range(n_layers):
            layer = {}
            for name in ("wq", "wk", "wv", "wo"):
                layer[name], layer[name.replace("w", "b")] = _head_init(
                    rng, d_model, d_model, dtype)
            layer["ln1_g"] = T.const_param(d_model, 1.0, dtype)
            layer["ln1_b"] = T.const_param(d_model, 0.0, dtype)
            layer["ln2_g"] = T.const_param(d_model, 1.0, dtype)
            layer["ln2_b"] = T.const_param(d_model, 0.0, dtype)
            hdim = FFN_MULT * d_model
            layer["ffn_w1"], layer["ffn_b1"] = _head_init(rng, d_model, hdim, dtype)
            layer["ffn_w2"] = T.uniform_param(rng, (hdim, d_model), hdim, dtype)
            layer["ffn_b2"] = T.const_param(d_model, 0.0, dtype)
            self.layers.append(layer)
        self.final_g = T.const_param(d_model, 1.0, dtype)
        self.final_b = T.const_param(d_model, 0.0, dtype)
        self.w_out, self.b_out = _head_init(rng, d_model, vocab_size, dtype)

    # -- batch path (tape) --

    def _attn(self, xn: Tensor, layer):
        """Causal multi-head self-attention; returns (out, k, v)."""
        q = T.linear(xn, layer["wq"], layer["bq"])
        k = T.linear(xn, layer["wk"], layer["bk"])
        v = T.linear(xn, layer["wv"], layer["bv"])
        a = causal_attention(q, k, v, self.n_heads)
        return T.linear(a, layer["wo"], layer["bo"]), k, v

    def _trunk(self, x: Tensor):
        """The pre-norm stack; returns (x, keys, values), one (S, D) key and
        value array per layer."""
        keys, values = [], []
        for layer in self.layers:
            xn = T.layernorm_lastdim(x, layer["ln1_g"], layer["ln1_b"])
            a, k, v = self._attn(xn, layer)
            keys.append(k.data)
            values.append(v.data)
            x = T.add(x, a)
            xn = T.layernorm_lastdim(x, layer["ln2_g"], layer["ln2_b"])
            ff = T.linear(T.gelu(T.linear(xn, layer["ffn_w1"], layer["ffn_b1"])),
                          layer["ffn_w2"], layer["ffn_b2"])
            x = T.add(x, ff)
        return T.layernorm_lastdim(x, self.final_g, self.final_b), keys, values

    def teacher_logits(self, h: Tensor, target_ids) -> Tensor:
        """Logits for steps 1..T+1 along the gold path [sos, y_1..y_T]."""
        tokens = _check_targets(target_ids, self.max_len, self.vocab_size)
        e = T.embedding(self.embed, tokens)
        pe = positional_encoding_1d(tokens.size, self.d_model, e.data.dtype)
        x = T.concat([h, T.add(e, Tensor(pe))], axis=0)
        x, _, _ = self._trunk(x)
        tail = T.narrow(x, 0, h.shape[0], tokens.size)
        return T.linear(tail, self.w_out, self.b_out)

    # -- incremental path: batch prefill, numpy steps --

    def start_stream(self, h_np: np.ndarray) -> KvCache:
        """Run the visual prefix once through the batch forward, off the
        tape, and copy its K/V rows into head-major buffers sized for the
        longest context ``step`` accepts (``max_ctx``, or the prefill when
        that is longer). The buffers come from ``np.empty``, so rows no
        step reaches cost no resident memory."""
        with T.no_grad():
            _, keys, values = self._trunk(Tensor(h_np))
        s, h = keys[0].shape[0], self.n_heads
        shape = (h, max(self.max_ctx, s), self.d_model // h)
        bufs = []
        for arr in keys + values:
            buf = np.empty(shape, dtype=arr.dtype)
            buf[:, :s] = arr.reshape(s, h, -1).transpose(1, 0, 2)
            bufs.append(buf)
        return KvCache(bufs[:len(keys)], bufs[len(keys):], s)

    def step(self, token: int, position: int, cache: KvCache) -> np.ndarray:
        """Write one K/V row per layer at the cache cursor, attend over the
        live rows with two batched matmuls per layer, and return
        next-token logits."""
        n = cache.length
        if n >= self.max_ctx:
            raise ContextOverflowError(f"context {n} at capacity {self.max_ctx}")
        dh = self.d_model // self.n_heads
        inv_scale = 1.0 / float(np.sqrt(dh))
        pe = positional_encoding_1d(1, self.d_model, self.embed.data.dtype,
                                    start=position)[0]
        x = self.embed.data[token] + pe
        for i, layer in enumerate(self.layers):
            xn = T.layernorm_np(x, layer["ln1_g"], layer["ln1_b"])
            q = (xn @ layer["wq"].data + layer["bq"].data).reshape(self.n_heads, dh)
            ks, vs = cache.keys[i], cache.values[i]
            ks[:, n] = (xn @ layer["wk"].data + layer["bk"].data).reshape(self.n_heads, dh)
            vs[:, n] = (xn @ layer["wv"].data + layer["bv"].data).reshape(self.n_heads, dh)
            scores = (ks[:, :n + 1] @ q[:, :, None])[:, :, 0] * inv_scale
            attn = T.softmax_np(scores)
            ctx = (attn[:, None, :] @ vs[:, :n + 1]).reshape(self.d_model)
            x = x + ctx @ layer["wo"].data + layer["bo"].data
            xn = T.layernorm_np(x, layer["ln2_g"], layer["ln2_b"])
            x = x + T.gelu_np(xn @ layer["ffn_w1"].data + layer["ffn_b1"].data) \
                @ layer["ffn_w2"].data + layer["ffn_b2"].data
        cache.length = n + 1
        x = T.layernorm_np(x, self.final_g, self.final_b)
        return x @ self.w_out.data + self.b_out.data

    def params(self):
        out = {"embed": self.embed, "final.g": self.final_g, "final.b": self.final_b,
               "head.w": self.w_out, "head.b": self.b_out}
        for i, layer in enumerate(self.layers):
            for k, vv in layer.items():
                out[f"layer{i}.{k}"] = vv
        return out

