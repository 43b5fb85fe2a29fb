"""Latency and inference-memory scaling measurements.

Decoder cache sizes are computed by exact byte accounting, never sampled
from the OS, so the growth table is bit-reproducible. Latency runs are
strictly serial and report median plus median absolute deviation over
repeats after discarding warmup runs.
"""

from __future__ import annotations

import csv
import gc
import os
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig

DEFAULT_LENGTHS = (100, 300, 600, 1000)
ITEMSIZE = {"f32": 4, "f64": 8}


class BenchConfigError(RuntimeError):
    """Benchmark preconditions not met (threads, repeats, lengths)."""


def thread_count() -> int:
    return int(os.environ.get("SSMOCR_THREADS", "1"))


def live_threads() -> int | None:
    """OS threads of this process after a warm matmul, by when a BLAS pool,
    if any, has started; None where /proc/self/task does not exist."""
    if not os.path.isdir("/proc/self/task"):
        return None
    np.ones((256, 256)) @ np.ones((256, 256))
    return len(os.listdir("/proc/self/task"))


def require_single_thread() -> None:
    n = thread_count()
    if n != 1:
        raise BenchConfigError(
            f"benchmarks require single-thread pinning; SSMOCR_THREADS={n}")
    live = live_threads()
    if live is not None and live > 1:
        raise BenchConfigError(
            f"benchmarks require single-thread pinning; {live} threads are live "
            "(numpy was imported before ssmocr, or a BLAS thread variable is above 1)")


# ---------------------------------------------------------------------------
# exact byte accounting


def mamba_cache_bytes(cfg: RunConfig, output_len: int, dtype: str = "f32") -> int:
    """Per-stream decoder state: layers * (inner state + conv window).
    Independent of output_len by construction."""
    if output_len < 1:
        raise ValueError("output_len must be >= 1")
    d_inner = cfg.expand * cfg.d_model
    per_layer = d_inner * cfg.n_state + 3 * d_inner
    return cfg.layers * per_layer * ITEMSIZE[dtype]


def attention_cache_bytes(cfg: RunConfig, prefill: int, output_len: int,
                          dtype: str = "f32") -> int:
    """Key/value rows for every stream position: 2*(L+t)*D per layer."""
    if output_len < 1:
        raise ValueError("output_len must be >= 1")
    return cfg.layers * 2 * (prefill + output_len) * cfg.d_model * ITEMSIZE[dtype]


@dataclass
class BenchRecord:
    model: str
    seq_len: int
    latency_ms: float      # median over repeats
    latency_mad_ms: float
    throughput: float      # items per second at the median
    cache_bytes: int
    peak_activation_bytes: int = 0


@dataclass
class GrowthRow:
    model: str
    length: int
    bytes: int
    factor: float


@dataclass
class GrowthTable:
    base_length: int
    rows: list = field(default_factory=list)

    def add_model(self, model_tag: str, lengths, bytes_fn) -> None:
        base = bytes_fn(lengths[0])
        for length in lengths:
            b = bytes_fn(length)
            self.rows.append(GrowthRow(model_tag, length, b, b / base))

    def factors(self, model_tag: str) -> dict[int, float]:
        return {r.length: r.factor for r in self.rows if r.model == model_tag}

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["model", "length", "bytes", "factor"])
            for r in self.rows:
                w.writerow([r.model, r.length, r.bytes, f"{r.factor:.4f}"])

    def write_plot_data(self, path) -> None:
        """gnuplot-style blocks: two whitespace-separated columns per model
        series, blank line between series."""
        models = []
        for r in self.rows:
            if r.model not in models:
                models.append(r.model)
        with open(path, "w", encoding="utf-8") as f:
            for i, m in enumerate(models):
                if i:
                    f.write("\n\n")
                f.write(f"# {m}: length bytes\n")
                for r in self.rows:
                    if r.model == m:
                        f.write(f"{r.length} {r.bytes}\n")


def growth_table(models, lengths=DEFAULT_LENGTHS) -> GrowthTable:
    """models: list of (tag, bytes_fn(length) -> int)."""
    models = list(models)
    if not models:
        raise ValueError("growth_table needs at least one model")
    lengths = list(lengths)
    if lengths != sorted(lengths):
        raise ValueError("lengths must be sorted ascending (first is the base)")
    table = GrowthTable(base_length=lengths[0])
    for tag, fn in models:
        table.add_model(tag, lengths, fn)
    return table


# ---------------------------------------------------------------------------
# timing


def peak_allocation_bytes(fn) -> int:
    """Allocator-tracked peak of one call (tracemalloc sees numpy buffers)."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def measure_latency(fn, inputs, warmup: int = 2, repeats: int = 5,
                    model_tag: str = "model", seq_len: int = 0,
                    cache_bytes: int = 0, track_peak: bool = False) -> BenchRecord:
    """Median / MAD wall time of fn(x) over all inputs per run."""
    if repeats < 3:
        raise BenchConfigError("repeats must be >= 3")
    require_single_thread()
    times = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for r in range(warmup + repeats):
            t0 = time.perf_counter()
            for x in inputs:
                fn(x)
            dt = time.perf_counter() - t0
            if r >= warmup:
                times.append(dt)
    finally:
        if gc_was_enabled:
            gc.enable()
    peak = 0
    if track_peak and inputs:
        # outside the timing loop: tracemalloc slows allocation noticeably
        peak = peak_allocation_bytes(lambda: fn(inputs[0]))
    times = np.asarray(times)
    med = float(np.median(times))
    mad = float(np.median(np.abs(times - med)))
    return BenchRecord(
        model=model_tag, seq_len=seq_len,
        latency_ms=med * 1e3 / max(len(inputs), 1),
        latency_mad_ms=mad * 1e3 / max(len(inputs), 1),
        throughput=len(inputs) / med if med > 0 else float("inf"),
        cache_bytes=cache_bytes,
        peak_activation_bytes=peak,
    )


def step_latencies(step_fn, n_steps: int, passes: int = 3) -> np.ndarray:
    """Per-step wall times, median over passes; step_fn(pass) must return
    a fresh callable advancing one generation step at a time."""
    require_single_thread()
    all_times = np.empty((passes, n_steps))
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for p in range(passes):
            advance = step_fn(p)
            for t in range(n_steps):
                t0 = time.perf_counter()
                advance()
                all_times[p, t] = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return np.median(all_times, axis=0)


@dataclass
class SlopeFit:
    slope: float        # seconds per step
    intercept: float    # seconds
    relative_slope: float

    @property
    def flat(self) -> bool:
        return abs(self.relative_slope) < 0.05


def fit_step_slope(times: np.ndarray) -> SlopeFit:
    """Least-squares line through per-step times; relative_slope compares
    the per-step drift against the base step cost."""
    t = np.arange(times.size)
    slope, intercept = np.polyfit(t, times, 1)
    return SlopeFit(float(slope), float(intercept),
                    float(slope / intercept) if intercept > 0 else float("inf"))


def write_latency_csv(path, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["model", "seq_len", "latency_ms", "latency_mad_ms",
                    "throughput_per_s", "cache_bytes", "peak_activation_bytes"])
        for r in records:
            w.writerow([r.model, r.seq_len, f"{r.latency_ms:.4f}",
                        f"{r.latency_mad_ms:.4f}", f"{r.throughput:.3f}",
                        r.cache_bytes, r.peak_activation_bytes])
