"""Inference memory ceilings: tracemalloc peaks of fixed seeded inputs at
desk sizes. The peaks do not drift between runs, so a change that gives
memory back fails here instead of in a noisy whole-process reading."""

import numpy as np

from ssmocr import ssm
from ssmocr import tensor as T
from ssmocr.config import RunConfig
from ssmocr.model import build_model
from ssmocr.tensor import Tensor
from ssmocr.vocab import Vocabulary
from memtrace import traced_bytes

MIB = 2**20
# decode-mixed's 6 x 100-character paragraph: 168 x 1,809 px, 6 x 227 frames
PARAGRAPH = (168, 1809)
PARAGRAPH_FRAMES = 6 * 227


def test_connector_paragraph_peak_stays_below_12_mib():
    # the three whole-sequence (L, I, N) chain outputs peaked at 39.7 MiB
    cfg = RunConfig()
    conn = ssm.BiMambaConnector(cfg.d_model, n_state=cfg.n_state, expand=cfg.expand,
                                rng=np.random.default_rng(5))
    x = Tensor(np.random.default_rng(6).standard_normal((PARAGRAPH_FRAMES, cfg.d_model)),
               dtype="f32")
    with T.no_grad():
        y, peak, _ = traced_bytes(lambda: conn.forward(x))
    assert y.shape == x.shape
    assert peak < 12 * MIB


def test_paragraph_encode_peak_stays_below_16_mib():
    # encoder plus connector; 41.2 MiB while the connector built (L, I, N) arrays
    model = build_model(RunConfig(), Vocabulary.from_texts(["abc"])).eval()
    rng = np.random.default_rng(1)
    img = rng.random(PARAGRAPH).astype(np.float32)
    img[rng.random(PARAGRAPH) < 0.2] = 0.0
    with T.no_grad():
        h, peak, _ = traced_bytes(lambda: model.encode(img))
    assert h.shape == (PARAGRAPH_FRAMES, model.cfg.d_model)
    assert peak < 16 * MIB
