"""The benchmark's workloads: seeded inputs, closed-loop rounds, checks.

Every workload runs the same way. Set-up (rendering inputs and building
models) repeats ``SETUP_REPEATS`` times and reports its median. A short
untimed warm-up follows. Timed rounds then run until ``seconds`` have
passed; each round sends every request once, one at a time, the next only
after the previous returned. Round 0 also runs the output checks, after
each request and outside its timing; every later round must reproduce
round 0's outputs exactly. A head's throughput sums, over its requests,
each request's median time across the untraced rounds.

In a traced run, timed rounds alternate untraced and traced, starting
untraced, for at least three rounds, so the run measures its own tracing
overhead and checks that tracing leaves outputs unchanged.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from ssmocr import bench as B
from ssmocr import checkpoint as C
from ssmocr import cli
from ssmocr import model as M
from ssmocr import pgm as P
from ssmocr import synth as S
from ssmocr import tensor as T
from ssmocr import train as TR
from ssmocr.config import RunConfig, config_to_mapping
from ssmocr.model import build_model
from ssmocr.vocab import Vocabulary

import checks
import spans

SETUP_REPEATS = 15
MODEL_SEED = 5   # the c06 recipe's RunConfig seed
HEADS = (("mamba-ctc", "ctc"), ("mamba-ar", "ar"), ("mamba-nar", "nar"),
         ("attn-ar-baseline", "attn"))
LEARNING_RATES = {"mamba-ctc": 2e-3, "mamba-ar": 1e-3, "mamba-nar": 1e-3,
                  "attn-ar-baseline": 1e-3}

# end-to-end metrics reported by every workload: (name, unit)
E2E_METRICS = [("setup_s", "s"), ("peak_rss_mb", "MiB")] + [
    (f"{tag}.items_per_s", "1/s") for _, tag in HEADS]


def _sub_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def render(root: Path, seed: int, shapes, kind: str):
    """One make_dataset call per sample, each with a fixed shape
    (lines, characters per line), so every seed renders the same amount
    of ink and only the words differ. Returns samples relative to root."""

    samples = []
    for k, (n_lines, chars) in enumerate(shapes):
        sub = f"{kind}{k:03d}"
        info = S.make_dataset(S.SynthConfig(
            out_dir=str(root / sub), n_samples=1, splits=(1.0, 0.0, 0.0),
            seed=_sub_seed(seed, k), kind=kind, line_chars=(chars, chars),
            paragraph_lines=(n_lines, n_lines), glyph_scale=3, line_height=32))
        [s] = S.load_manifest(info.manifests["train"])
        samples.append(S.Sample(f"{sub}/{s.image_path}", s.transcript))
    return samples


@dataclass
class Request:
    key: str
    head: str          # e2e tag: ctc, ar, nar, attn
    units: int         # samples, lines or characters the request delivers
    fn: object         # () -> output; this call alone is timed
    is_line: bool = False
    item: object = None  # the input a check needs, if any


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainSpec:
    """The c06 memorization recipe, run through ``train_run`` for a fixed
    step count with ``eval_every = 0`` and a two-sample valid split."""

    name: str
    line_chars: tuple          # (shortest, longest) train line, stratified
    t_max: int
    steps: int
    n_train: int = 16
    valid_chars: int = 8       # both valid lines
    batch_size: int = 4
    model: tuple = ()          # RunConfig overrides, (key, value) pairs

    def train_lengths(self) -> list[int]:
        lo, hi = self.line_chars
        return [int(round(x)) for x in np.linspace(lo, hi, self.n_train)]

    def prepare(self, root: Path, seed: int) -> dict:
        # two short valid lines bound the closing eval, whose stop point
        # depends on the weights, to a small and steady share of the run
        lengths = self.train_lengths() + [self.valid_chars] * 2
        samples = render(root, seed, [(1, c) for c in lengths], "line")
        S.save_manifest(root / "train.tsv", samples[: self.n_train])
        S.save_manifest(root / "valid.tsv", samples[self.n_train:])
        vocab = Vocabulary.from_texts([s.transcript for s in samples])
        for kind, _ in HEADS:
            build_model(RunConfig(model_kind=kind, seed=MODEL_SEED, t_max=self.t_max,
                                  **dict(self.model)), vocab)
        return {"root": root}

    def _request(self, inputs: dict, out_root: Path, kind: str, tag: str,
                 steps: int) -> Request:
        cfg = RunConfig(
            model_kind=kind, train_manifest=str(inputs["root"] / "train.tsv"),
            valid_manifest=str(inputs["root"] / "valid.tsv"),
            max_steps=steps, eval_every=0, t_max=self.t_max,
            batch_size=self.batch_size, lr=LEARNING_RATES[kind], seed=MODEL_SEED,
            out_dir=str(out_root / tag), **dict(self.model))
        return Request(f"train:{tag}", tag, steps * self.batch_size,
                       lambda: tuple(TR.train_run(cfg).loss_history))

    def requests(self, inputs: dict, out_root: Path) -> list[Request]:
        return [self._request(inputs, out_root, kind, tag, self.steps) for kind, tag in HEADS]

    def warmup(self, inputs: dict, out_root: Path) -> list[Request]:
        """One step per head: the same code paths at a fraction of the cost."""
        return [self._request(inputs, out_root, kind, tag, 1) for kind, tag in HEADS]

    def capture(self, req: Request):
        return contextlib.nullcontext()

    def check(self, req, out, seen, inputs, warm, ledger: checks.Ledger) -> None:
        ledger.check(len(out) == self.steps and bool(np.all(np.isfinite(out))),
                     f"{req.key}: loss history {out} is not {self.steps} finite values")
        if warm.get(req.head) is not None:
            ledger.check(out[0] == warm[req.head][0],
                         f"{req.key}: first loss {out[0]} differs from the warm-up's "
                         f"{warm[req.head][0]} under the same seed")

    def report_names(self) -> dict[str, tuple[str, str]]:
        return {tag: (f"train.{tag}.samples_per_s", "samples/s") for _, tag in HEADS}


# ---------------------------------------------------------------------------
# decoding


@dataclass
class Paragraph:
    image: Path
    gold: np.ndarray


@dataclass(frozen=True)
class DecodeSpec:
    """Random-weight models saved with ``checkpoint.save`` and loaded the
    way ``ssmocr decode`` loads them. CTC and NAR transcribe lines; mamba-ar
    and the attention baseline encode paragraphs and generate with the
    gold tokens forced, so the step count is a property of the input."""

    name: str
    line_chars: tuple = tuple(range(10, 121, 10))
    paragraphs: tuple = ((1, 40), (3, 70), (6, 100))   # (lines, chars per line)
    max_len: int = 640
    model: tuple = ()

    def prepare(self, root: Path, seed: int) -> dict:
        lines = render(root, seed, [(1, c) for c in self.line_chars], "line")
        paras = render(root, _sub_seed(seed, 1 << 20), self.paragraphs, "paragraph")
        vocab = Vocabulary.from_texts([" ".join(S.word_pool()) + "\n"])
        models = {}
        for kind, tag in HEADS:
            cfg = RunConfig(model_kind=kind, seed=MODEL_SEED, max_len=self.max_len,
                            **dict(self.model))
            path = root / f"{tag}.ckpt"
            C.save(path, C.collect_from_model(build_model(cfg, vocab), config_to_mapping(cfg)))
            models[tag], _, _ = cli.model_from_checkpoint(path)
        return {
            "models": models,
            "lines": [root / s.image_path for s in lines],
            "paragraphs": [Paragraph(root / s.image_path, vocab.encode(s.transcript))
                           for s in paras],
        }

    def requests(self, inputs: dict, out_root: Path) -> list[Request]:
        reqs = []
        for tag in ("ctc", "nar"):
            model = inputs["models"][tag]
            for k, path in enumerate(inputs["lines"]):
                def fn(model=model, path=path):
                    return model.transcribe(P.read_pgm(path)).text

                reqs.append(Request(f"{tag}:line{k}", tag, 1, fn, is_line=True))
        for tag in ("ar", "attn"):
            model = inputs["models"][tag]
            for k, para in enumerate(inputs["paragraphs"]):
                def fn(model=model, para=para):
                    img = P.read_pgm(para.image)
                    with T.no_grad():
                        h = model.encode(img)
                        gen = model.decoder.generate(h.data, force_ids=para.gold)
                    return Generated(gen, h)

                reqs.append(Request(f"{tag}:para{k}", tag, int(para.gold.size), fn,
                                    item=para))
        return reqs

    def warmup(self, inputs: dict, out_root: Path) -> list[Request]:
        """The middle request of each head: every code path at a fraction
        of the cost of the largest."""
        by_head: dict[str, list] = {}
        for req in self.requests(inputs, out_root):
            by_head.setdefault(req.head, []).append(req)
        return [reqs[len(reqs) // 2] for reqs in by_head.values()]

    def capture(self, req: Request):
        """Keep the logits ``transcribe`` hands to the greedy decoder."""
        hook = {"ctc": "ctc_greedy_decode", "nar": "nar_decode"}.get(req.head)
        return checks.capture_first_arg(M, hook) if hook else contextlib.nullcontext()

    def check(self, req, out, seen, inputs, warm, ledger: checks.Ledger) -> None:
        if req.head in ("ar", "attn"):
            self._check_generation(req, inputs, out, ledger)
            return
        ref = checks.ctc_reference if req.head == "ctc" else checks.nar_reference
        logits = np.asarray(getattr(seen[-1], "data", seen[-1]))
        ledger.check(out == ref(logits, inputs["models"][req.head].vocab.chars),
                     f"{req.key}: text differs from the argmax reference")

    def _check_generation(self, req, inputs, out, ledger) -> None:
        model = inputs["models"][req.head]
        para = req.item
        gen, h = out.gen, out.h
        ledger.check(gen.steps == para.gold.size and list(gen.ids) == para.gold.tolist(),
                     f"{req.key}: {gen.steps} forced steps for {para.gold.size} gold tokens")
        with T.no_grad():
            teacher = model.decoder.teacher_logits(h, para.gold).data
        diff = checks.max_logit_diff(teacher, gen.step_logits)
        ledger.check(diff <= checks.LOGIT_TOL,
                     f"{req.key}: step logits differ from teacher forcing by {diff:.2e}")
        if req.head == "ar":
            expected = B.mamba_cache_bytes(model.cfg, gen.steps)
        else:
            expected = B.attention_cache_bytes(model.cfg, h.shape[0], gen.steps)
        ledger.check(gen.cache_bytes == expected,
                     f"{req.key}: cache {gen.cache_bytes} B, closed form {expected} B")

    def report_names(self) -> dict[str, tuple[str, str]]:
        return {"ctc": ("decode.ctc.lines_per_s", "lines/s"),
                "nar": ("decode.nar.lines_per_s", "lines/s"),
                "ar": ("decode.ar.chars_per_s", "chars/s"),
                "attn": ("decode.attn.chars_per_s", "chars/s")}


@dataclass
class Generated:
    gen: object
    h: object

    def __eq__(self, other) -> bool:
        return (isinstance(other, Generated)
                and list(self.gen.ids) == list(other.gen.ids)
                and self.gen.cache_bytes == other.gen.cache_bytes
                and np.array_equal(self.gen.step_logits, other.gen.step_logits))


SPECS = {
    "train-short": TrainSpec("train-short", line_chars=(10, 22), t_max=48, steps=4),
    "train-long": TrainSpec("train-long", line_chars=(80, 120), t_max=160, steps=2),
    "decode-mixed": DecodeSpec("decode-mixed"),
}


# ---------------------------------------------------------------------------
# the run


@dataclass
class RunResult:
    workload: str
    e2e: dict = field(default_factory=dict)        # generic name -> value
    report: list = field(default_factory=list)     # (name, value, unit, note)
    layers: dict | None = None
    ledger: checks.Ledger = field(default_factory=checks.Ledger)
    outputs: dict = field(default_factory=dict)    # request key -> round 0 output
    tracer: spans.Tracer | None = None
    rounds: list = field(default_factory=list)     # per timed round: traced, wall seconds
    times: dict = field(default_factory=dict)      # request key -> untraced seconds per round
    setup_times: list = field(default_factory=list)


def interleave(requests: list[Request]) -> list[Request]:
    """Spread each head's requests evenly over the round, so that a slow
    spell of the machine lands on all heads alike instead of on one."""
    by_head: dict[str, list] = {}
    for req in requests:
        by_head.setdefault(req.head, []).append(req)
    keyed = [((i + 0.5) / len(reqs), req) for reqs in by_head.values()
             for i, req in enumerate(reqs)]
    return [req for _, req in sorted(keyed, key=lambda kr: kr[0])]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(spec, seed: int, seconds: float, trace: bool, work_dir: Path) -> RunResult:
    result = RunResult(spec.name)
    ledger = result.ledger
    tracer = result.tracer = spans.Tracer() if trace else None
    work_dir.mkdir(parents=True, exist_ok=True)

    # set-up, several times; the last one's inputs are used
    setup_times = []
    inputs = None
    for k in range(SETUP_REPEATS):
        root = work_dir / f"setup{k}"
        gc.collect()
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            inputs = spec.prepare(root, seed)
            setup_times.append(time.perf_counter() - t0)
        finally:
            if tracer:
                tracer.uninstall()
        if k:
            # keeping every earlier set-up's files made the later set-ups
            # measurably slower
            shutil.rmtree(work_dir / f"setup{k - 1}", ignore_errors=True)
    result.setup_times = setup_times
    requests = interleave(spec.requests(inputs, work_dir / "out"))

    warm = {}
    for req in spec.warmup(inputs, work_dir / "out"):
        warm[req.head] = ledger.call(req.key, req.fn)
        gc.collect()

    # Timed rounds. Round 0 runs the output checks, after each request and
    # outside its timing; later rounds must reproduce round 0's outputs.
    times: dict[str, list] = {req.key: [] for req in requests}
    line_ms = []
    rounds = []     # (traced, wall seconds)
    # a traced run compares traced rounds with untraced ones after round 0,
    # which alone carries the checks
    min_rounds = 3 if trace else 1
    t_start = time.perf_counter()
    while True:
        k = len(rounds)
        traced = trace and k % 2 == 1
        wall = 0.0
        if traced:
            tracer.round = k
            tracer.install()
        try:
            for req in requests:
                if tracer:
                    tracer.request += 1
                with spec.capture(req) if k == 0 else contextlib.nullcontext() as seen:
                    t0 = time.perf_counter()
                    out = ledger.call(req.key, req.fn)
                    dt = time.perf_counter() - t0
                wall += dt
                if k == 0:
                    result.outputs[req.key] = out
                    if out is not None:
                        spec.check(req, out, seen, inputs, warm, ledger)
                elif out is not None or result.outputs[req.key] is not None:
                    ledger.check(out == result.outputs[req.key],
                                 f"{req.key}: round {k} output differs from round 0")
                if out is not None and not traced:
                    times[req.key].append(dt)
                    if req.is_line:
                        line_ms.append(dt * 1e3)
                gc.collect()
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, wall))
        # stop where the next round would end further past `seconds` than
        # this point falls short of it
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds and len(rounds) >= min_rounds:
            break
    result.rounds = [{"traced": tr, "wall_s": w} for tr, w in rounds]
    result.times = times

    # each request's median over the untraced rounds, summed per head
    names = spec.report_names()
    n_plain = sum(1 for tr, _ in rounds if not tr)
    for _, tag in HEADS:
        mine = [req for req in requests if req.head == tag and times[req.key]]
        total = sum(float(np.median(times[req.key])) for req in mine)
        value = sum(req.units for req in mine) / total if total > 0 else 0.0
        result.e2e[f"{tag}.items_per_s"] = value
        name, unit = names[tag]
        result.report.append((name, value, unit,
                              f"{len(mine)} requests, median of {n_plain} rounds each"))
    result.e2e["setup_s"] = float(np.median(setup_times))
    result.e2e["peak_rss_mb"] = peak_rss_mb()
    if line_ms:
        for q in (50, 90):
            at = float(np.percentile(line_ms, q))
            beyond = sum(ms > at for ms in line_ms)
            result.report.append((f"decode.line_ms.p{q}", at, "ms",
                                  f"{len(line_ms)} line requests, {beyond} beyond"))
    result.report.append(("setup_s", result.e2e["setup_s"], "s",
                          f"median of {len(setup_times)} set-ups"))
    result.report.append(("peak_rss_mb", result.e2e["peak_rss_mb"], "MiB", "whole process"))
    result.report.append(("failed_ratio", ledger.failed / max(ledger.attempted, 1), "ratio",
                          f"{ledger.failed} of {ledger.attempted} operations"))
    if tracer:
        result.layers = spans.layer_metrics(tracer, sum(1 for tr, _ in rounds if tr))
        traced_wall = np.median([w for tr, w in rounds if tr])
        plain_wall = np.median([w for tr, w in rounds[1:] if not tr])
        result.layers[spans.OVERHEAD_METRIC[0]] = float(traced_wall / plain_wall - 1.0)
    return result
