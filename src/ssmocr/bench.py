"""Latency and inference-memory scaling measurements.

Decoder cache sizes are computed by exact byte accounting, never sampled
from the OS, so the growth table is bit-reproducible. Step-latency runs
are strictly serial, with the cyclic collector off, and keep each step's
median over passes.
"""

from __future__ import annotations

import csv
import gc
import json
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig

DEFAULT_LENGTHS = (100, 300, 600, 1000)
ITEMSIZE = 4  # bytes per f32 state element


class BenchConfigError(RuntimeError):
    """Benchmark preconditions not met (thread pinning)."""


def thread_count() -> int:
    return int(os.environ.get("SSMOCR_THREADS", "1"))


def live_threads() -> int | None:
    """OS threads of this process after a warm matmul, by when a BLAS pool,
    if any, has started; None where /proc/self/task does not exist."""
    if not os.path.isdir("/proc/self/task"):
        return None
    np.ones((256, 256)) @ np.ones((256, 256))
    return len(os.listdir("/proc/self/task"))


def write_environment(path) -> None:
    """Write the facts a timing depends on to ``path`` as JSON."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "SSMOCR_THREADS": thread_count(),
        "live_threads": live_threads(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(env, f, indent=1)
        f.write("\n")


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


def mamba_cache_bytes(cfg: RunConfig, output_len: int) -> int:
    """Per-stream decoder state: layers * (inner state + conv window).
    Independent of output_len by construction."""
    if output_len < 1:
        raise ValueError("output_len must be >= 1")
    d_inner = cfg.expand * cfg.d_model
    per_layer = d_inner * cfg.n_state + 3 * d_inner
    return cfg.layers * per_layer * ITEMSIZE


def attention_cache_bytes(cfg: RunConfig, prefill: int, output_len: int) -> int:
    """Key/value rows for every stream position: 2*(L+t)*D per layer."""
    if output_len < 1:
        raise ValueError("output_len must be >= 1")
    return cfg.layers * 2 * (prefill + output_len) * cfg.d_model * ITEMSIZE


@dataclass
class BenchRecord:
    model: str
    seq_len: int
    latency_ms: float      # median over repeats
    latency_mad_ms: float
    throughput: float      # items per second at the median
    cache_bytes: int


@dataclass
class GrowthRow:
    model: str
    length: int
    bytes: int
    factor: float


@dataclass
class GrowthTable:
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
    table = GrowthTable()
    for tag, fn in models:
        table.add_model(tag, lengths, fn)
    return table


# ---------------------------------------------------------------------------
# timing


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
    slope_se: float     # standard error of the slope, seconds per step

    @property
    def flat(self) -> bool:
        return abs(self.relative_slope) < 0.05


def fit_step_slope(times: np.ndarray) -> SlopeFit:
    """Least-squares line through per-step times; relative_slope compares
    the per-step drift against the base step cost. The slope's standard
    error comes from the residuals (n - 2 degrees of freedom; infinite
    below three points). It is a within-run error: it treats the steps as
    independent, while neighbouring step times are correlated, and between
    runs the slope spreads 10-50x wider than it, so size a margin from
    repeated runs, not from one run's slope_se."""
    t = np.arange(times.size)
    slope, intercept = np.polyfit(t, times, 1)
    if times.size > 2:
        resid = times - (slope * t + intercept)
        sxx = float(((t - t.mean()) ** 2).sum())
        slope_se = float(np.sqrt(resid @ resid / (times.size - 2) / sxx))
    else:
        slope_se = float("inf")
    return SlopeFit(float(slope), float(intercept),
                    float(slope / intercept) if intercept > 0 else float("inf"),
                    slope_se)


def write_latency_csv(path, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["model", "seq_len", "latency_ms", "latency_mad_ms",
                    "throughput_per_s", "cache_bytes"])
        for r in records:
            w.writerow([r.model, r.seq_len, f"{r.latency_ms:.4f}",
                        f"{r.latency_mad_ms:.4f}", f"{r.throughput:.3f}",
                        r.cache_bytes])
