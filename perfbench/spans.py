"""Layer tracing from outside the library.

A ``Tracer`` replaces public ssmocr functions and methods with timing
wrappers, each at the name its caller resolves at call time, and
restores the originals on exit. Spans live in memory as (name, start,
end, parent, request, round) and are written out when the run ends. A
span's self time is its duration minus the time its child spans cover.

Backward work is timed by wrapping the closure handed to
``tensor.custom_op`` / ``custom_op_multi``. The closure is charged to the
outermost open boundary that owns a backward (a tape op, a scan kernel or
a loss), so ``masked_ce_loss`` keeps the backward of the cross-entropy it
calls; closures created outside such a boundary become ``tensor.bwd.<op>``
spans, which leaves ``tensor.backward`` self time to the tape walk itself.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import os
import time

import numpy as np
from ssmocr.bench import fit_step_slope

# tape ops timed individually; the key is the function name in ssmocr.tensor
TAPE_OPS = ("conv2d", "maxpool2d", "batchnorm2d", "matmul", "layernorm_lastdim",
            "mul_rowbcast", "concat", "flip")

# (module, attribute, span name, owns backward)
FUNCTIONS = [("ssmocr.tensor", op, f"tensor.op.{op}", True) for op in TAPE_OPS] + [
    ("ssmocr.ssm", "selective_scan", "ssm.scan", True),
    ("ssmocr.ssm", "discretize_zoh", "ssm.zoh", True),
    ("ssmocr.ssm", "causal_conv1d", "ssm.conv1d", True),
    ("ssmocr.decoders", "ctc_loss", "decoders.loss.ctc", True),
    ("ssmocr.decoders", "cross_entropy_rows", "decoders.loss.ce", True),
    ("ssmocr.decoders", "masked_ce_loss", "decoders.loss.masked_ce", True),
    ("ssmocr.model", "ctc_greedy_decode", "decoders.ctc.greedy", False),
    ("ssmocr.model", "nar_decode", "decoders.nar.decode", False),
    ("ssmocr.train", "clip_global_norm", "train.clip", False),
    ("ssmocr.train", "evaluate", "train.eval", False),
    ("ssmocr.train", "read_pgm", "pgm.read", False),
    ("ssmocr.pgm", "read_pgm", "pgm.read", False),
    ("ssmocr.checkpoint", "save", "checkpoint.save", False),
    ("ssmocr.checkpoint", "load", "checkpoint.load", False),
    ("ssmocr.synth", "make_dataset", "synth.make_dataset", False),
]

# (module, class, method, span name)
METHODS = [
    ("ssmocr.encoder", "ConvEncoder", "forward", "encoder.forward"),
    ("ssmocr.ssm", "BiMambaConnector", "forward", "ssm.connector"),
    ("ssmocr.ssm", "MambaLayer", "forward_np", "ssm.prefill"),
    ("ssmocr.ssm", "MambaLayer", "step", "ssm.step"),
    ("ssmocr.decoders", "ArDecoder", "generate", "decoders.ar.generate"),
    ("ssmocr.decoders", "AttentionBaselineDecoder", "start_stream", "decoders.attn.prefill"),
    ("ssmocr.decoders", "AttentionBaselineDecoder", "step", "decoders.attn.step"),
    ("ssmocr.decoders", "AttentionBaselineDecoder", "generate", "decoders.attn.generate"),
    ("ssmocr.model", "OcrModel", "encode", "model.encode"),
    ("ssmocr.model", "OcrModel", "loss", "model.loss"),
    ("ssmocr.model", "OcrModel", "transcribe", "model.transcribe"),
    ("ssmocr.train", "AdamW", "step", "train.optimizer"),
]


class Tracer:
    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.rounds: list[int] = []
        self.values: dict[str, list] = {}   # name -> [(round, value)]
        self.stack: list[int] = []
        self.owners: list[str] = []         # open spans that own a backward
        self.request = 0
        self.round = -1                     # -1: set-up, k >= 0: timed round k
        self._last_step = None              # (request, end time)
        self._saved = []

    # -- spans --

    def intern(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request)
        self.rounds.append(self.round)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> float:
        t = self.ends[idx] = time.perf_counter()
        self.stack.pop()
        return t

    def value(self, name: str, v) -> None:
        self.values.setdefault(name, []).append((self.round, v))

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def child_time(self, idx: int, name: str) -> float:
        nid = self.name_ids.get(name)
        return sum(self.ends[j] - self.starts[j]
                   for j in range(idx + 1, len(self.span_name))
                   if self.parents[j] == idx and self.span_name[j] == nid)

    # -- wrappers --

    def wrap(self, fn, name: str, owns_backward: bool = False, after=None):
        nid = self.intern(name)
        bwd = name + ".bwd" if owns_backward else None
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(nid)
            if bwd:
                tracer.owners.append(bwd)
            try:
                result = fn(*args, **kwargs)
            finally:
                if bwd:
                    tracer.owners.pop()
                tracer.end(idx)
            if after is not None:
                after(tracer, idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def timed_backward(self, op: str, closure):
        name = self.owners[0] if self.owners else "tensor.bwd." + op
        return self.wrap(closure, name)

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every boundary; a missing name raises AttributeError."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        mod = importlib.import_module
        for module, attr, name, owns in FUNCTIONS:
            m = mod(module)
            self._patch(m, attr, self.wrap(getattr(m, attr), name, owns, AFTER.get(name)))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(mod(module), cls_name)
            self._patch(cls, attr, self.wrap(getattr(cls, attr), name, after=AFTER.get(name)))
        tensor = mod("ssmocr.tensor")
        for attr in ("custom_op", "custom_op_multi"):
            self._patch(tensor, attr, self._custom_op(getattr(tensor, attr)))
        self._patch(tensor, "backward", self._backward(tensor))

    def _custom_op(self, orig):
        tracer = self

        def custom_op(op, data, inputs, backward):
            return orig(op, data, inputs, tracer.timed_backward(op, backward))

        custom_op.__wrapped__ = orig
        return custom_op

    def _backward(self, tensor):
        traced = self.wrap(tensor.backward, "tensor.backward")
        tracer = self

        def backward(loss):
            nodes = tensor.active_tape().nodes
            tracer.value("tensor.nodes", len(nodes))
            tracer.value("tensor.tape_bytes",
                         sum(o.data.nbytes for n in nodes for o in n.outputs))
            return traced(loss)

        backward.__wrapped__ = traced.__wrapped__
        return backward

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output --

    def write(self, path) -> None:
        """Spans as gzip JSON lines: [name, start, end, parent, request, round]."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for k, nid in enumerate(self.span_name):
                f.write(json.dumps([self.names[nid], self.starts[k], self.ends[k],
                                    self.parents[k], self.requests[k],
                                    self.rounds[k]]) + "\n")


def _after_encoder(tracer, idx, args, grid):
    tracer.value("encoder.frames", grid.height * grid.width)


def _after_scan(tracer, idx, args, y):
    tracer.value("ssm.scan.elements", int(np.prod(args[0].shape)))


def _after_ar_generate(tracer, idx, args, gen):
    if gen.steps:
        own = tracer.duration(idx) - tracer.child_time(idx, "ssm.prefill")
        tracer.value("decoders.ar.token_s", own / gen.steps)
    tracer.value("decoders.ar.cache_bytes", gen.cache_bytes)


def _after_attn_step(tracer, idx, args, logits):
    # args: (decoder, token, position, cache)
    tracer.value("decoders.attn.step", (int(args[2]), tracer.duration(idx)))


def _after_attn_generate(tracer, idx, args, gen):
    tracer.value("decoders.attn.cache_bytes", gen.cache_bytes)


def _after_optimizer(tracer, idx, args, result):
    # one train_run per request, so steps of one request share an optimizer
    end = tracer.ends[idx]
    if tracer._last_step is not None and tracer._last_step[0] == tracer.request:
        tracer.value("train.step_s", end - tracer._last_step[1])
    tracer._last_step = (tracer.request, end)


def _after_save(tracer, idx, args, result):
    tracer.value("checkpoint.bytes", os.path.getsize(args[0]))


# span name -> hook(tracer, span index, call args, result) run after the call
AFTER = {
    "encoder.forward": _after_encoder,
    "ssm.scan": _after_scan,
    "decoders.ar.generate": _after_ar_generate,
    "decoders.attn.step": _after_attn_step,
    "decoders.attn.generate": _after_attn_generate,
    "train.optimizer": _after_optimizer,
    "checkpoint.save": _after_save,
}


# ---------------------------------------------------------------------------
# per-layer metrics


def _mean(span):
    return ("mean", span)


LAYER_METRICS = [
    # (name, unit, how)
    ("tensor.nodes_per_sample", "count", ("value_mean", "tensor.nodes")),
    ("tensor.backward.self_s", "s", ("self_mean", "tensor.backward")),
    ("tensor.tape_bytes.peak", "bytes", ("value_max", "tensor.tape_bytes")),
]
for _op in TAPE_OPS:
    LAYER_METRICS += [
        (f"tensor.op.{_op}.fwd_s", "s", _mean(f"tensor.op.{_op}")),
        (f"tensor.op.{_op}.bwd_s", "s", _mean(f"tensor.op.{_op}.bwd")),
        (f"tensor.op.{_op}.calls", "count", ("calls", f"tensor.op.{_op}")),
    ]
LAYER_METRICS += [
    ("encoder.forward_s", "s", _mean("encoder.forward")),
    ("encoder.frames", "count", ("value_per_round", "encoder.frames")),
    ("ssm.connector.fwd_s", "s", _mean("ssm.connector")),
    ("ssm.scan.fwd_s", "s", _mean("ssm.scan")),
    ("ssm.scan.bwd_s", "s", _mean("ssm.scan.bwd")),
    ("ssm.scan.elements", "count", ("value_per_round", "ssm.scan.elements")),
    ("ssm.zoh.fwd_s", "s", _mean("ssm.zoh")),
    ("ssm.zoh.bwd_s", "s", _mean("ssm.zoh.bwd")),
    ("ssm.conv1d.fwd_s", "s", _mean("ssm.conv1d")),
    ("ssm.conv1d.bwd_s", "s", _mean("ssm.conv1d.bwd")),
    ("ssm.prefill_s", "s", _mean("ssm.prefill")),
    ("ssm.step_s", "s", _mean("ssm.step")),
    ("ssm.step.calls", "count", ("calls", "ssm.step")),
]
for _loss in ("ctc", "ce", "masked_ce"):
    LAYER_METRICS += [
        (f"decoders.loss.{_loss}.fwd_s", "s", _mean(f"decoders.loss.{_loss}")),
        (f"decoders.loss.{_loss}.bwd_s", "s", _mean(f"decoders.loss.{_loss}.bwd")),
    ]
LAYER_METRICS += [
    ("decoders.ar.token_us.p50", "us", ("value_p50", "decoders.ar.token_s", 1e6)),
    ("decoders.attn.token_us.p50", "us", ("step_p50", "decoders.attn.step", 1e6)),
    ("decoders.attn.token_us.slope", "us/pos", ("step_slope", "decoders.attn.step", 1e6)),
    ("decoders.attn.prefill_s", "s", _mean("decoders.attn.prefill")),
    ("decoders.ar.cache_bytes.max", "bytes", ("value_max", "decoders.ar.cache_bytes")),
    ("decoders.attn.cache_bytes.max", "bytes", ("value_max", "decoders.attn.cache_bytes")),
    ("decoders.ctc.greedy_s", "s", _mean("decoders.ctc.greedy")),
    ("decoders.nar.decode_s", "s", _mean("decoders.nar.decode")),
    ("model.encode_s", "s", _mean("model.encode")),
    ("model.loss_s", "s", _mean("model.loss")),
    ("model.transcribe_s", "s", _mean("model.transcribe")),
    ("train.optimizer_s", "s", _mean("train.optimizer")),
    ("train.clip_s", "s", _mean("train.clip")),
    ("train.eval_s", "s", _mean("train.eval")),
    ("train.step_ms.p50", "ms", ("value_p50", "train.step_s", 1e3)),
    ("checkpoint.save_s", "s", _mean("checkpoint.save")),
    ("checkpoint.load_s", "s", _mean("checkpoint.load")),
    ("checkpoint.bytes", "bytes", ("value_mean", "checkpoint.bytes")),
    ("pgm.read_s", "s", _mean("pgm.read")),
    ("synth.make_dataset_s", "s", _mean("synth.make_dataset")),
]
# reported by the runner, not derived from spans
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio")


def layer_metrics(tracer: Tracer, n_rounds: int) -> dict[str, float]:
    """Every per-layer metric. Times are means per call over all traced
    spans (set-up included); counts are per traced round. A boundary
    that never ran reads 0."""
    n = len(tracer.span_name)
    names = np.asarray(tracer.span_name, dtype=np.int64)
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    parents = np.asarray(tracer.parents, dtype=np.int64)
    rounds = np.asarray(tracer.rounds, dtype=np.int64)
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child[:n]
    per_round = max(n_rounds, 1)

    def select(span):
        nid = tracer.name_ids.get(span)
        return np.zeros(n, dtype=bool) if nid is None else names == nid

    def vals(name, timed_only=False):
        return [v for r, v in tracer.values.get(name, []) if r >= 0 or not timed_only]

    def step_medians(name):
        by_pos: dict[int, list] = {}
        for pos, t in vals(name):
            by_pos.setdefault(pos, []).append(t)
        run = 0
        while run in by_pos:
            run += 1
        return np.array([np.median(by_pos[p]) for p in range(run)])

    out = {}
    for metric, _, how in LAYER_METRICS:
        kind, key = how[0], how[1]
        scale = how[2] if len(how) > 2 else 1.0
        if kind in ("mean", "self_mean"):
            sel = select(key)
            src = dur if kind == "mean" else self_time
            v = float(src[sel].mean()) if sel.any() else 0.0
        elif kind == "calls":
            v = float((select(key) & (rounds >= 0)).sum()) / per_round
        elif kind == "value_per_round":
            v = float(sum(vals(key, timed_only=True))) / per_round
        elif kind == "value_mean":
            xs = vals(key)
            v = float(np.mean(xs)) if xs else 0.0
        elif kind == "value_max":
            xs = vals(key)
            v = float(max(xs)) if xs else 0.0
        elif kind == "value_p50":
            xs = vals(key)
            v = float(np.median(xs)) * scale if xs else 0.0
        elif kind == "step_p50":
            xs = [t for _, t in vals(key)]
            v = float(np.median(xs)) * scale if xs else 0.0
        elif kind == "step_slope":
            med = step_medians(key)
            v = fit_step_slope(med).slope * scale if med.size >= 2 else 0.0
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        out[metric] = v
    return out
