"""Memory ceilings: tracemalloc peaks of fixed seeded inputs at desk
sizes, at inference and per training sample. The peaks do not drift
between runs, so a change that gives memory back fails here instead of in
a noisy whole-process reading."""

import gc

import numpy as np
import pytest

from ssmocr import ssm
from ssmocr import tensor as T
from ssmocr.config import RunConfig
from ssmocr.model import build_model
from ssmocr.synth import render_line
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


# train-long's longest line: 120 characters, 32 x 2,169 px, 269 frames
LONG_TEXT = ("the printer set the evening news in small type " * 3)[:120]
# one mamba-nar loss + backward on it: 165.9 MiB while the tape held five
# (L, I, N) arrays per Mamba block, 76.2 MiB with block checkpoints
NAR_SAMPLE_CEILING = 84 * MIB


@pytest.fixture(scope="module")
def nar_sample():
    model = build_model(RunConfig(model_kind="mamba-nar"),
                        Vocabulary.from_texts([LONG_TEXT])).train()
    img = render_line(LONG_TEXT, height_px=32)
    params = list(model.params().values())

    def sample():
        T.backward(model.loss(img, LONG_TEXT))

    sample()  # first-call allocations stay out of the measured samples
    return sample, params


def test_nar_train_long_sample_peak_stays_below_84_mib(nar_sample):
    sample, _ = nar_sample
    _, peak, _ = traced_bytes(sample)
    assert peak < NAR_SAMPLE_CEILING


def test_samples_leave_only_gradients_with_the_cycle_collector_off(nar_sample):
    # a tape left holding Tensor <-> Node cycles would pile up over samples
    sample, params = nar_sample
    for p in params:
        p.grad = None
    gc.disable()
    try:
        _, peak, left = traced_bytes(lambda: [sample() for _ in range(3)])
    finally:
        gc.enable()
    grads = sum(p.grad.nbytes for p in params)
    assert peak < NAR_SAMPLE_CEILING
    assert 0 <= left - grads < 64 * 2**10
