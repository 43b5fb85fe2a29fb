"""Command-line surface: synth, train, eval, decode, bench, rover.

Exit codes: 0 success, 1 runtime failure, 2 usage error. SSMOCR_THREADS
caps internal op parallelism; importing the ``ssmocr`` package applies it
before numpy loads (default 1, benchmarks refuse anything else).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import bench as B
from . import checkpoint as C
from .config import (ConfigError, config_from_checkpoint_mapping,
                     config_from_mapping, load_config, parse_config_text)
from .metrics import EvalReport
from .model import build_model
from .pgm import PgmError, read_pgm
from .rover import rover_combine
from .synth import AugmentSpec, SynthConfig, make_dataset
from .train import TrainAbort, load_samples, train_run
from .vocab import Vocabulary

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def model_from_checkpoint(path):
    ck = C.load(path)
    cfg = config_from_checkpoint_mapping(ck.config)
    vocabulary = Vocabulary(list(ck.vocab_chars))
    model = build_model(cfg, vocabulary)
    C.apply_to_model(ck, model)
    model.eval()
    return model, cfg, ck


def cmd_synth(args) -> int:
    spec = AugmentSpec(prob=args.augment_prob, seed=args.seed) if args.augment else None
    cfg = SynthConfig(
        out_dir=args.out, n_samples=args.n, seed=args.seed, kind=args.kind,
        line_chars=(args.min_chars, args.max_chars),
        paragraph_lines=(args.min_lines, args.max_lines),
        glyph_scale=args.scale, line_height=args.height,
        splits=tuple(args.splits), augment_spec=spec, text_file=args.text_file,
    )
    info = make_dataset(cfg)
    for split, count in info.counts.items():
        print(f"{split}: {count} samples -> {info.manifests[split]}")
    print(f"charset ({len(info.charset)}): {info.charset!r}")
    return 0


def _load_run_config(args):
    """The config file's entries, updated by the ``--set`` entries."""
    entries = {}
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            entries = parse_config_text(f.read(), args.config)
    entries.update(parse_config_text("\n".join(args.set or []), "<cli>"))
    return config_from_mapping(entries)


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    result = train_run(cfg, log=print)
    print(f"finished at step {result.steps}: loss {result.final_loss:.4f}, "
          f"best CER {result.best_cer:.3f}% (step {result.best_step})")
    print(f"last checkpoint: {result.last_path}")
    print(f"best checkpoint: {result.best_path}")
    return 0


def cmd_eval(args) -> int:
    model, cfg, _ = model_from_checkpoint(args.checkpoint)
    samples = load_samples(args.manifest)
    if not samples:
        print(f"error: empty manifest {args.manifest}", file=sys.stderr)
        return RUNTIME_ERROR
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = EvalReport()
    failures = 0
    for k, s in enumerate(samples):
        missing = {ch for ch in s.transcript if ch not in model.vocab}
        if missing:
            print(f"warning: sample {k} has uncovered characters {sorted(missing)}",
                  file=sys.stderr)
        try:
            res = model.transcribe(s.image)
        except Exception as e:  # keep going, report per sample
            print(f"warning: sample {k} failed: {e}", file=sys.stderr)
            failures += 1
            continue
        report.add(f"sample{k}", s.transcript, res.text)
    if not report.rows:
        print("error: no sample produced a score", file=sys.stderr)
        return RUNTIME_ERROR
    report.write_csv(out_dir / "per_sample.csv")
    report.write_summary(out_dir / "summary.txt")
    print(report.summary())
    if failures:
        print(f"{failures} samples failed", file=sys.stderr)
    return 0


def cmd_decode(args) -> int:
    model, _, _ = model_from_checkpoint(args.checkpoint)
    status = 0
    for path in args.images:
        try:
            img = read_pgm(path)
            res = model.transcribe(img)
            print(res.text)
        except (PgmError, OSError) as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            status = RUNTIME_ERROR
    return status


def cmd_bench(args) -> int:
    B.require_single_thread()
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = config_from_mapping({})
    lengths = [int(x) for x in args.lengths.split(",")]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefill = args.prefill

    table = B.growth_table(
        [
            ("mamba-ar", lambda t: B.mamba_cache_bytes(cfg, t)),
            ("attn-ar-baseline",
             lambda t: B.attention_cache_bytes(cfg, prefill, t)),
        ],
        lengths,
    )
    table.write_csv(out_dir / "growth.csv")
    table.write_plot_data(out_dir / "growth.dat")
    B.write_environment(out_dir / "env.json")
    print(f"{'model':<18} {'length':>7} {'bytes':>12} {'factor':>8}")
    for r in table.rows:
        print(f"{r.model:<18} {r.length:>7} {r.bytes:>12} {r.factor:>7.2f}x")

    records = []
    if args.latency:
        records, fits = run_step_latency(cfg, prefill, args.steps)
        B.write_latency_csv(out_dir / "latency.csv", records)
        for tag, fit in fits.items():
            print(f"{tag}: step {fit.intercept * 1e6:.1f} us, slope "
                  f"{fit.slope * 1e9:.2f} +/- {fit.slope_se * 1e9:.2f} ns/step "
                  f"({fit.relative_slope * 100:.3f}% of intercept)")
    print(f"wrote {out_dir / 'growth.csv'} (models randomly initialized)")
    return 0


def run_step_latency(cfg, prefill: int, n_steps: int):
    """Per-token generation latency for both decoder families."""
    from .decoders import ArDecoder, AttentionBaselineDecoder

    rng = np.random.default_rng(0)
    vocab_size = 30
    h = rng.standard_normal((prefill, cfg.d_model)).astype(np.float32)
    mamba = ArDecoder(cfg.d_model, vocab_size, n_layers=cfg.layers,
                      n_state=cfg.n_state, expand=cfg.expand,
                      max_len=n_steps + 8, rng=np.random.default_rng(1))
    attn = AttentionBaselineDecoder(cfg.d_model, vocab_size,
                                    n_layers=cfg.layers, n_heads=4,
                                    max_ctx=prefill + n_steps + 8,
                                    max_len=n_steps + 8,
                                    rng=np.random.default_rng(2))

    def make_pass(dec):
        def start(_):
            stream = dec.start_stream(h)
            positions = itertools.count()
            return lambda: dec.step(4 % vocab_size, next(positions), stream)

        return start

    fits, records = {}, []
    for tag, dec, cache_bytes in (
            ("mamba-ar", mamba, B.mamba_cache_bytes(cfg, n_steps)),
            ("attn-ar-baseline", attn,
             B.attention_cache_bytes(cfg, prefill, n_steps))):
        times = B.step_latencies(make_pass(dec), n_steps)
        fits[tag] = B.fit_step_slope(times)
        med = float(np.median(times))
        records.append(B.BenchRecord(
            tag, n_steps, med * 1e3, float(np.median(np.abs(times - med))) * 1e3,
            1.0 / med, cache_bytes))
    return records, fits


def cmd_rover(args) -> int:
    weights = None
    if args.weights:
        weights = [float(w) for w in args.weights.split(",")]
        if len(weights) != len(args.files):
            print(f"error: {len(weights)} weights for {len(args.files)} files",
                  file=sys.stderr)
            return USAGE_ERROR
    contents = []
    for path in args.files:
        with open(path, encoding="utf-8") as f:
            contents.append(f.read().splitlines())
    counts = {path: len(lines) for path, lines in zip(args.files, contents)}
    if len(set(counts.values())) > 1:
        detail = ", ".join(f"{p}: {n}" for p, n in counts.items())
        print(f"error: line-count mismatch ({detail})", file=sys.stderr)
        return RUNTIME_ERROR
    for rows in zip(*contents):
        print(rover_combine(list(rows), weights))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ssmocr",
        description="Selective state-space OCR: synthetic data, training, "
                    "evaluation, decoding, scaling benchmarks, transcript voting.",
    )
    sub = p.add_subparsers(dest="command", metavar="command")

    sp = sub.add_parser("synth", help="generate a synthetic dataset")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--n", type=int, default=100, help="number of samples")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--kind", choices=("line", "paragraph"), default="line")
    sp.add_argument("--min-chars", type=int, default=12)
    sp.add_argument("--max-chars", type=int, default=28)
    sp.add_argument("--min-lines", type=int, default=1)
    sp.add_argument("--max-lines", type=int, default=3)
    sp.add_argument("--scale", type=int, default=3, help="glyph pixel scale")
    sp.add_argument("--height", type=int, default=32, help="line image height")
    sp.add_argument("--splits", type=float, nargs=3, default=(0.8, 0.1, 0.1),
                    metavar=("TRAIN", "VALID", "TEST"))
    sp.add_argument("--augment", action="store_true")
    sp.add_argument("--augment-prob", type=float, default=0.5)
    sp.add_argument("--text-file", help="word pool file (default: built-in)")
    sp.set_defaults(fn=cmd_synth)

    tp = sub.add_parser("train", help="train a model from a config file")
    tp.add_argument("--config", help="key = value config file")
    tp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a config entry (repeatable)")
    tp.set_defaults(fn=cmd_train)

    ep = sub.add_parser("eval", help="score a checkpoint against a manifest")
    ep.add_argument("--checkpoint", required=True)
    ep.add_argument("--manifest", required=True)
    ep.add_argument("--out-dir", default="eval-out")
    ep.set_defaults(fn=cmd_eval)

    dp = sub.add_parser("decode", help="transcribe PGM images")
    dp.add_argument("--checkpoint", required=True)
    dp.add_argument("images", nargs="*", metavar="IMAGE")
    dp.set_defaults(fn=cmd_decode)

    bp = sub.add_parser("bench", help="memory-scaling and latency benchmark")
    bp.add_argument("--config", help="model dims config (default: desk preset)")
    bp.add_argument("--out-dir", default="bench-out")
    bp.add_argument("--lengths", default=",".join(map(str, B.DEFAULT_LENGTHS)))
    bp.add_argument("--prefill", type=int, default=200,
                    help="visual positions held fixed across lengths")
    bp.add_argument("--steps", type=int, default=500,
                    help="generation steps for the latency regression")
    bp.add_argument("--latency", action="store_true",
                    help="also time per-token generation")
    bp.set_defaults(fn=cmd_bench)

    rp = sub.add_parser("rover", help="weighted-vote transcript combination")
    rp.add_argument("files", nargs="+", metavar="FILE")
    rp.add_argument("--weights", help="comma-separated positive weights")
    rp.set_defaults(fn=cmd_rover)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return USAGE_ERROR
    if args.fn is cmd_decode and not args.images:
        print("usage: ssmocr decode --checkpoint CKPT IMAGE [IMAGE ...]",
              file=sys.stderr)
        print("error: no images given", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_ERROR
    except TrainAbort as e:
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_ERROR
    except (C.CheckpointError, PgmError, B.BenchConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
