"""The decoding heads over the shared visual sequence.

Three Mamba heads (CTC frames, autoregressive with a constant-size
recurrent cache, non-autoregressive with learned queries) plus a causal
attention decoder whose key-value cache grows with every generated
token; the latter exists as the quadratic counterpart in the memory
scaling benchmark.

Both autoregressive decoders generate through one greedy loop
(``_greedy``) over a per-token numpy step. The attention decoder's
prefill is its batch forward run off the tape, which yields the K/V
cache; the Mamba decoder's prefill is the recurrence in
``MambaLayer.forward_np``, which yields the final state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from . import vocab as V
from .ssm import MambaLayer, RecurrentState
from .tensor import Tensor

NEG_MASK = -1e30  # additive logit mask; finite so softmax stays NaN-free


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
    in 1..K-1. The forward algorithm runs in f64 log space; the gradient
    is the frame posterior deficit (softmax minus occupation probability).
    """
    targets = np.asarray(list(targets), dtype=np.int64)
    zl = frame_logits.data
    n_frames, n_classes = zl.shape
    if targets.size and (targets.min() < 1 or targets.max() >= n_classes):
        raise V.VocabularyError(f"CTC target ids must lie in [1, {n_classes})")
    required = ctc_required_frames(targets)
    if n_frames < required:
        raise InfeasibleAlignmentError(
            f"{n_frames} frames cannot align a target needing {required}"
        )

    z = zl.astype(np.float64)
    logp = z - _logsumexp_rows(z)
    s_len = 2 * targets.size + 1
    ext = np.zeros(s_len, dtype=np.int64)
    ext[1::2] = targets
    # transition s-2 -> s allowed when ext[s] is a label differing from ext[s-2]
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
        step = np.concatenate([[neg], prev])[:s_len]
        acc = np.logaddexp(prev, step)
        skip = np.concatenate([[neg, neg], prev])[:s_len]
        acc = np.where(allow, np.logaddexp(acc, skip), acc)
        alpha[t] = acc + logp[t, ext]
    log_z = alpha[-1, -1]
    if s_len > 1:
        log_z = np.logaddexp(log_z, alpha[-1, -2])
    loss = np.asarray(-log_z, dtype=zl.dtype)

    def bwd(g):
        beta = np.full((n_frames, s_len), neg)
        beta[-1, -1] = logp[-1, ext[-1]]
        if s_len > 1:
            beta[-1, -2] = logp[-1, ext[-2]]
        allow_fwd = np.zeros(s_len, dtype=bool)  # transition s -> s+2
        allow_fwd[: s_len - 2] = allow[2:]
        for t in range(n_frames - 2, -1, -1):
            nxt = beta[t + 1]
            step = np.concatenate([nxt[1:], [neg]])
            acc = np.logaddexp(nxt, step)
            skip = np.concatenate([nxt[2:], [neg, neg]])[:s_len]
            acc = np.where(allow_fwd, np.logaddexp(acc, skip), acc)
            beta[t] = acc + logp[t, ext]
        occupancy = alpha + beta - logp[:, ext] - log_z  # log q_t(s)
        gamma = np.zeros_like(z)
        with np.errstate(under="ignore"):
            occ = np.exp(occupancy)
        for s in range(s_len):
            gamma[:, ext[s]] += occ[:, s]
        grad = (np.exp(logp) - gamma) * float(g)
        return (grad.astype(zl.dtype),)

    return T.custom_op("ctc_loss", loss, (frame_logits,), bwd)


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
# shared stack plumbing


def _build_stack(n_layers, d_model, n_state, expand, rng, dtype):
    return [MambaLayer(d_model, n_state, expand, rng, dtype) for _ in range(n_layers)]


def _stack_params(layers, prefix):
    out = {}
    for i, layer in enumerate(layers):
        out.update({f"{prefix}{i}.{k}": v for k, v in layer.params().items()})
    return out


def _head_init(rng, d, n_out, dtype):
    k = 1.0 / np.sqrt(d)
    w = Tensor(rng.uniform(-k, k, (d, n_out)), dtype=dtype, requires_grad=True)
    b = Tensor(np.zeros(n_out), dtype=dtype, requires_grad=True)
    return w, b


@dataclass
class GenerationResult:
    ids: list[int]                      # emitted character ids (full table)
    truncated: bool
    step_logits: np.ndarray             # (steps, vocab), pre-mask
    cache_bytes: int                    # decoder state bytes when done
    steps: int = 0

    def __post_init__(self):
        self.steps = len(self.step_logits)


def _greedy(step, vocab_size: int, max_len: int, force_ids):
    """Greedy generation from sos (ties to the lowest id) until eos or
    max_len; ``step(token, position) -> logits`` feeds one token, sos at
    position 0. Returns (ids, truncated, step_logits).

    force_ids, when given, feeds the gold tokens instead of the argmax
    so incremental logits can be compared against teacher forcing.
    pad/sos/blank never surface: their logits are masked at the argmax.
    """
    mask = np.zeros(vocab_size)
    mask[[V.BLANK, V.PAD, V.SOS]] = NEG_MASK
    logits = step(V.SOS, 0)
    ids: list[int] = []
    step_logits = [logits]
    truncated = force_ids is None
    n_steps = max_len if force_ids is None else min(len(force_ids), max_len)
    for t in range(n_steps):
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
        logits = step(tok, t + 1)
        step_logits.append(logits)
    return ids, truncated, np.asarray(step_logits)


class CtcDecoder:
    """Unidirectional stack projecting every visual frame onto V+blank."""

    def __init__(self, d_model, ctc_size, n_layers=4, n_state=16, expand=2,
                 rng=None, dtype="f32"):
        rng = np.random.default_rng() if rng is None else rng
        self.layers = _build_stack(n_layers, d_model, n_state, expand, rng, dtype)
        self.w_out, self.b_out = _head_init(rng, d_model, ctc_size, dtype)

    def frame_logits(self, h: Tensor) -> Tensor:
        x = h
        for layer in self.layers:
            x = layer.forward(x)
        return T.linear(x, self.w_out, self.b_out)

    def loss(self, h: Tensor, ctc_targets) -> Tensor:
        return ctc_loss(self.frame_logits(h), ctc_targets)

    def params(self):
        out = _stack_params(self.layers, "layer")
        out.update({"head.w": self.w_out, "head.b": self.b_out})
        return out


class ArDecoder:
    """Autoregressive head: visual context and token embeddings are fused
    by concatenation along the sequence, predictions are read from the
    stream tail, and generation steps with one RecurrentState per layer."""

    def __init__(self, d_model, vocab_size, n_layers=4, n_state=16, expand=2,
                 max_len=512, rng=None, dtype="f32"):
        rng = np.random.default_rng() if rng is None else rng
        self.vocab_size = vocab_size
        self.max_len = max_len
        k = 1.0 / np.sqrt(d_model)
        self.embed = Tensor(rng.uniform(-k, k, (vocab_size, d_model)),
                            dtype=dtype, requires_grad=True)
        self.layers = _build_stack(n_layers, d_model, n_state, expand, rng, dtype)
        self.w_out, self.b_out = _head_init(rng, d_model, vocab_size, dtype)

    def teacher_logits(self, h: Tensor, target_ids) -> Tensor:
        """Logits for steps 1..T+1 along the gold path [sos, y_1..y_T]."""
        target_ids = np.asarray(target_ids, dtype=np.int64)
        if target_ids.size > self.max_len:
            raise TargetTooLongError(
                f"target length {target_ids.size} exceeds max_len {self.max_len}"
            )
        if target_ids.size and target_ids.max() >= self.vocab_size:
            raise V.VocabularyError("target id outside the embedding table")
        tokens = np.concatenate([[V.SOS], target_ids])
        x = T.concat([h, T.embedding(self.embed, tokens)], axis=0)
        for layer in self.layers:
            x = layer.forward(x)
        tail = T.narrow(x, 0, h.shape[0], tokens.size)
        return T.linear(tail, self.w_out, self.b_out)

    def loss(self, h: Tensor, target_ids) -> Tensor:
        target_ids = np.asarray(target_ids, dtype=np.int64)
        logits = self.teacher_logits(h, target_ids)
        return cross_entropy_rows(logits, np.concatenate([target_ids, [V.EOS]]))

    def start_stream(self, h_np: np.ndarray) -> list[RecurrentState]:
        """Prefill the visual positions once; per-stream memory afterwards
        is the sum of the layer states, independent of generated length."""
        states = []
        x = h_np
        for layer in self.layers:
            x, state = layer.forward_np(x)
            states.append(state)
        return states

    def _step(self, token: int, states) -> np.ndarray:
        row = self.embed.data[token]
        for layer, state in zip(self.layers, states):
            row = layer.step(row, state)
        return row @ self.w_out.data + self.b_out.data

    def generate(self, h_np: np.ndarray, max_len: int | None = None,
                 force_ids=None) -> GenerationResult:
        """Greedy generation until eos or max_len (see ``_greedy``)."""
        max_len = self.max_len if max_len is None else max_len
        if max_len > self.max_len:
            raise TargetTooLongError(f"max_len {max_len} exceeds {self.max_len}")
        states = self.start_stream(h_np)
        cache_bytes = sum(s.nbytes for s in states)
        out = _greedy(lambda tok, _pos: self._step(tok, states), self.vocab_size,
                      max_len, force_ids)
        return GenerationResult(*out, cache_bytes)

    def params(self):
        out = {"embed": self.embed}
        out.update(_stack_params(self.layers, "layer"))
        out.update({"head.w": self.w_out, "head.b": self.b_out})
        return out


class NarDecoder:
    """Fixed learned queries appended after the visual stream; one pass
    predicts every slot, read from the last T_max positions."""

    def __init__(self, d_model, vocab_size, t_max=160, n_layers=4, n_state=16,
                 expand=2, rng=None, dtype="f32"):
        rng = np.random.default_rng() if rng is None else rng
        self.t_max = t_max
        self.queries = Tensor(rng.standard_normal((t_max, d_model)) * 0.02,
                              dtype=dtype, requires_grad=True)
        self.layers = _build_stack(n_layers, d_model, n_state, expand, rng, dtype)
        self.w_out, self.b_out = _head_init(rng, d_model, vocab_size, dtype)

    def logits(self, h: Tensor) -> Tensor:
        x = T.concat([h, self.queries], axis=0)
        for layer in self.layers:
            x = layer.forward(x)
        tail = T.narrow(x, 0, h.shape[0], self.t_max)
        return T.linear(tail, self.w_out, self.b_out)

    def loss(self, h: Tensor, target_ids) -> Tensor:
        return masked_ce_loss(self.logits(h), target_ids)

    def params(self):
        out = {"queries": self.queries}
        out.update(_stack_params(self.layers, "layer"))
        out.update({"head.w": self.w_out, "head.b": self.b_out})
        return out


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
# causal-attention counterpart


def positional_encoding_1d(n: int, d: int, dtype=np.float32) -> np.ndarray:
    i = np.arange(d // 2)
    inv_freq = 1.0 / (10000.0 ** (2.0 * i / d))
    pos = np.arange(n)[:, None] * inv_freq[None, :]
    out = np.zeros((n, d), dtype=dtype)
    out[:, 0::2] = np.sin(pos)
    out[:, 1::2] = np.cos(pos)
    return out


@dataclass
class KvCache:
    """Per-layer key/value rows; grows by one row per generated token."""

    keys: list      # one (S, D) array per layer
    values: list

    @property
    def nbytes(self) -> int:
        return sum(k.nbytes + v.nbytes for k, v in zip(self.keys, self.values))

    @property
    def length(self) -> int:
        return self.keys[0].shape[0] if self.keys else 0


class AttentionBaselineDecoder:
    """Pre-norm causal transformer over the concatenated [visual; token]
    stream. Cross-modal attention happens through input-level fusion, so
    each layer keeps exactly one K/V pair per stream position:
    cache bytes = 2 * (L + t) * D * layers * itemsize."""

    def __init__(self, d_model, vocab_size, n_layers=4, n_heads=4, ffn_mult=4,
                 max_ctx=4096, max_len=512, rng=None, dtype="f32"):
        rng = np.random.default_rng() if rng is None else rng
        if d_model % n_heads:
            raise T.ShapeError(f"d_model {d_model} not divisible by {n_heads} heads")
        self.d_model = d_model
        self.n_heads = n_heads
        self.vocab_size = vocab_size
        self.max_ctx = max_ctx
        self.max_len = max_len
        k = 1.0 / np.sqrt(d_model)
        self.embed = Tensor(rng.uniform(-k, k, (vocab_size, d_model)),
                            dtype=dtype, requires_grad=True)
        self.layers = []
        for _ in range(n_layers):
            layer = {}
            for name in ("wq", "wk", "wv", "wo"):
                layer[name], layer[name.replace("w", "b")] = _head_init(
                    rng, d_model, d_model, dtype)
            layer["ln1_g"] = Tensor(np.ones(d_model), dtype=dtype, requires_grad=True)
            layer["ln1_b"] = Tensor(np.zeros(d_model), dtype=dtype, requires_grad=True)
            layer["ln2_g"] = Tensor(np.ones(d_model), dtype=dtype, requires_grad=True)
            layer["ln2_b"] = Tensor(np.zeros(d_model), dtype=dtype, requires_grad=True)
            hdim = ffn_mult * d_model
            layer["ffn_w1"], layer["ffn_b1"] = _head_init(rng, d_model, hdim, dtype)
            kf = 1.0 / np.sqrt(hdim)
            layer["ffn_w2"] = Tensor(rng.uniform(-kf, kf, (hdim, d_model)),
                                     dtype=dtype, requires_grad=True)
            layer["ffn_b2"] = Tensor(np.zeros(d_model), dtype=dtype, requires_grad=True)
            self.layers.append(layer)
        self.final_g = Tensor(np.ones(d_model), dtype=dtype, requires_grad=True)
        self.final_b = Tensor(np.zeros(d_model), dtype=dtype, requires_grad=True)
        self.w_out, self.b_out = _head_init(rng, d_model, vocab_size, dtype)

    # -- batch path (tape) --

    def _attn(self, xn: Tensor, layer):
        """Causal multi-head self-attention; returns (out, k, v)."""
        s = xn.shape[0]
        dh = self.d_model // self.n_heads
        q = T.linear(xn, layer["wq"], layer["bq"])
        k = T.linear(xn, layer["wk"], layer["bk"])
        v = T.linear(xn, layer["wv"], layer["bv"])
        mask = np.triu(np.full((s, s), NEG_MASK, dtype=xn.data.dtype), k=1)
        mask_t = Tensor(mask)
        heads = []
        for hd in range(self.n_heads):
            qh = T.narrow(q, 1, hd * dh, dh)
            kh = T.narrow(k, 1, hd * dh, dh)
            vh = T.narrow(v, 1, hd * dh, dh)
            scores = T.mul(T.matmul(qh, T.transpose2d(kh)), 1.0 / np.sqrt(dh))
            attn = T.softmax_lastdim(T.add(scores, mask_t))
            heads.append(T.matmul(attn, vh))
        return T.linear(T.concat(heads, axis=1), layer["wo"], layer["bo"]), k, v

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
        target_ids = np.asarray(target_ids, dtype=np.int64)
        tokens = np.concatenate([[V.SOS], target_ids])
        e = T.embedding(self.embed, tokens)
        pe = positional_encoding_1d(tokens.size, self.d_model, e.data.dtype)
        x = T.concat([h, T.add(e, Tensor(pe))], axis=0)
        x, _, _ = self._trunk(x)
        tail = T.narrow(x, 0, h.shape[0], tokens.size)
        return T.linear(tail, self.w_out, self.b_out)

    def loss(self, h: Tensor, target_ids) -> Tensor:
        target_ids = np.asarray(target_ids, dtype=np.int64)
        logits = self.teacher_logits(h, target_ids)
        return cross_entropy_rows(logits, np.concatenate([target_ids, [V.EOS]]))

    # -- incremental path: batch prefill, numpy steps --

    def start_stream(self, h_np: np.ndarray) -> KvCache:
        """Run the visual prefix once through the batch forward, off the
        tape, and keep its K/V rows per layer."""
        with T.no_grad():
            _, keys, values = self._trunk(Tensor(h_np))
        return KvCache(keys, values)

    def step(self, token: int, position: int, cache: KvCache) -> np.ndarray:
        """Append one K/V pair per layer and return next-token logits."""
        if cache.length >= self.max_ctx:
            raise ContextOverflowError(f"context {cache.length} at capacity {self.max_ctx}")
        dh = self.d_model // self.n_heads
        inv_scale = 1.0 / float(np.sqrt(dh))
        pe = positional_encoding_1d(position + 1, self.d_model,
                                    self.embed.data.dtype)[position]
        x = self.embed.data[token] + pe
        for i, layer in enumerate(self.layers):
            xn = T.layernorm_np(x, layer["ln1_g"], layer["ln1_b"])
            q = (xn @ layer["wq"].data + layer["bq"].data).reshape(self.n_heads, dh)
            k = xn @ layer["wk"].data + layer["bk"].data
            v = xn @ layer["wv"].data + layer["bv"].data
            cache.keys[i] = np.concatenate([cache.keys[i], k[None]], axis=0)
            cache.values[i] = np.concatenate([cache.values[i], v[None]], axis=0)
            ks = cache.keys[i].reshape(-1, self.n_heads, dh)
            vs = cache.values[i].reshape(-1, self.n_heads, dh)
            scores = np.einsum("hd,jhd->hj", q, ks) * inv_scale
            attn = _softmax_np(scores)
            ctx = np.einsum("hj,jhd->hd", attn, vs).reshape(self.d_model)
            x = x + ctx @ layer["wo"].data + layer["bo"].data
            xn = T.layernorm_np(x, layer["ln2_g"], layer["ln2_b"])
            x = x + _gelu_np(xn @ layer["ffn_w1"].data + layer["ffn_b1"].data) \
                @ layer["ffn_w2"].data + layer["ffn_b2"].data
        x = T.layernorm_np(x, self.final_g, self.final_b)
        return x @ self.w_out.data + self.b_out.data

    def generate(self, h_np: np.ndarray, max_len: int | None = None,
                 force_ids=None) -> GenerationResult:
        """Greedy generation until eos or max_len (see ``_greedy``)."""
        max_len = self.max_len if max_len is None else max_len
        cache = self.start_stream(h_np)
        out = _greedy(lambda tok, pos: self.step(tok, pos, cache), self.vocab_size,
                      max_len, force_ids)
        return GenerationResult(*out, cache.nbytes)

    def params(self):
        out = {"embed": self.embed, "final.g": self.final_g, "final.b": self.final_b,
               "head.w": self.w_out, "head.b": self.b_out}
        for i, layer in enumerate(self.layers):
            for k, vv in layer.items():
                out[f"layer{i}.{k}"] = vv
        return out


def _softmax_np(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


_SQRT1_2 = 0.7071067811865476


def _gelu_np(x):
    from scipy.special import erf as _erf

    return 0.5 * x * (1.0 + _erf(x * _SQRT1_2))
