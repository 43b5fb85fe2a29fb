"""The cost ledger: tracemalloc peaks of fixed seeded inputs at desk sizes.

    PYTHONPATH=src python3 tests/costs.py           # print each peak beside the ledger's
    PYTHONPATH=src python3 tests/costs.py --write   # rewrite BENCH_costs.json

The peaks do not drift between runs, so ``tests/test_costs.py`` holds each
one to the ledger's value plus its slack. A change that lowers a cost
rewrites the ledger and quotes the diff; one that raises a cost says why.
"""

import json
import sys
from pathlib import Path

import numpy as np

from ssmocr import ssm
from ssmocr import tensor as T
from ssmocr.config import RunConfig
from ssmocr.model import build_model
from ssmocr.synth import render_line
from ssmocr.tensor import Tensor
from ssmocr.vocab import Vocabulary
from memtrace import traced_bytes

LEDGER = Path(__file__).resolve().parent.parent / "BENCH_costs.json"
SLACK = 0.02  # numpy allocator differences; on one machine the peaks repeat to the byte
MIB = 2**20

# decode-mixed's 6 x 100-character paragraph: 168 x 1,809 px, 6 x 227 frames
PARAGRAPH = (168, 1809)
PARAGRAPH_FRAMES = 6 * 227
# train-long's longest line: 120 characters, 32 x 2,169 px, 269 frames
LONG_TEXT = ("the printer set the evening news in small type " * 3)[:120]
HEADS = ("mamba-ctc", "mamba-ar", "mamba-nar", "attn-ar-baseline")


def connector_paragraph():
    """One no_grad BiMamba connector forward over the paragraph's frames:
    the output and its peak."""
    cfg = RunConfig()
    conn = ssm.BiMambaConnector(cfg.d_model, n_state=cfg.n_state, expand=cfg.expand,
                                rng=np.random.default_rng(5))
    x = Tensor(np.random.default_rng(6).standard_normal((PARAGRAPH_FRAMES, cfg.d_model)),
               dtype="f32")
    with T.no_grad():
        y, peak, _ = traced_bytes(lambda: conn.forward(x))
    return y, peak


def paragraph_encode():
    """One no_grad ``OcrModel.encode`` of the paragraph, encoder plus
    connector: the features and their peak."""
    model = build_model(RunConfig(), Vocabulary.from_texts(["abc"])).eval()
    rng = np.random.default_rng(1)
    img = rng.random(PARAGRAPH).astype(np.float32)
    img[rng.random(PARAGRAPH) < 0.2] = 0.0
    with T.no_grad():
        h, peak, _ = traced_bytes(lambda: model.encode(img))
    return h, peak


def train_long_sample(kind: str):
    """One loss + backward of head ``kind`` on the train-long line, run once
    so that first-call allocations stay out of later measurements, and
    the model's parameters."""
    model = build_model(RunConfig(model_kind=kind),
                        Vocabulary.from_texts([LONG_TEXT])).train()
    img = render_line(LONG_TEXT, height_px=32)

    def sample():
        T.backward(model.loss(img, LONG_TEXT))

    sample()
    return sample, list(model.params().values())


def measure() -> dict[str, int]:
    peaks = {"paragraph.connector": connector_paragraph()[1],
             "paragraph.encode": paragraph_encode()[1]}
    for kind in HEADS:
        peaks[f"train_long_sample.{kind}"] = traced_bytes(train_long_sample(kind)[0])[1]
    return peaks


def ledger() -> dict:
    return json.loads(LEDGER.read_text())


def ceiling(name: str) -> float:
    """The committed peak of ``name`` plus the ledger's slack, in bytes."""
    book = ledger()
    return book["peaks"][name] * (1.0 + book["slack"])


def main(argv) -> int:
    peaks = measure()
    old = ledger()["peaks"] if LEDGER.exists() else {}
    if "--write" in argv:
        LEDGER.write_text(json.dumps({
            "command": "PYTHONPATH=src python3 tests/costs.py --write",
            "unit": "bytes",
            "slack": SLACK,
            "peaks": peaks,
        }, indent=2) + "\n")
    for name, peak in peaks.items():
        was = old.get(name)
        shown = "" if was is None else f"  (ledger {was / MIB:.2f} MiB)"
        print(f"{name:36s} {peak / MIB:8.2f} MiB{shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
