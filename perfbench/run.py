"""Benchmark for ssmocr: three seeded closed-loop workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Inputs, the full
result record and, for traced runs, the spans go under
``.perfbench-out/`` in the repository root. ``--workload all`` runs
each workload in a process of its own.

The benchmark imports ssmocr from the ``src`` directory beside it and
exits non-zero, without a result line, when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import envinfo

envinfo.pin_threads()   # before anything imports numpy

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ssmocr
    except ImportError as e:
        raise SystemExit(f"error: cannot import ssmocr from {src}: {e}") from None
    if Path(ssmocr.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: ssmocr resolved to {ssmocr.__file__}, not {src}")


def _declared_metrics(trace: bool) -> list[dict]:
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)["per_layer" if trace else "end_to_end"]


def run_one(args) -> int:
    _import_library()
    env = envinfo.record()
    if env["live_threads"] != 1:
        print(f"error: {env['live_threads']} OS threads live after a warm matmul; "
              "the benchmark needs exactly one", file=sys.stderr)
        return 1

    import workloads

    spec = workloads.SPECS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}-{os.getpid()}"
    work_dir = OUT_DIR / tag
    try:
        result = workloads.run(spec, args.seed, args.seconds, bool(args.trace),
                               work_dir / "inputs")
    finally:
        shutil.rmtree(work_dir / "inputs", ignore_errors=True)

    values = result.layers if args.trace else result.e2e
    metrics = {}
    for m in _declared_metrics(bool(args.trace)):
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    ledger = result.ledger
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "environment": env,
        "report": [{"name": n, "value": v, "unit": u, "note": note}
                   for n, v, u, note in result.report],
        "setup_s": result.setup_times, "rounds": result.rounds, "request_s": result.times, "metrics": metrics,
        "attempted": ledger.attempted, "failed": ledger.failed, "failures": ledger.failures,
    }
    with open(work_dir / "result.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if result.tracer is not None:
        result.tracer.write(work_dir / "spans.jsonl.gz")

    print(f"# {args.workload} seed {args.seed}: {args.seconds} s timed, "
          f"trace {int(args.trace)}; records in {work_dir.relative_to(ROOT)}")
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, value, unit, note in result.report:
        print(f"{name} = {value:.6g} {unit} ({note})")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory and allocator
    state do not carry from one into the next."""
    status = 0
    for name in ("train-short", "train-long", "decode-mixed"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["train-short", "train-long", "decode-mixed", "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
