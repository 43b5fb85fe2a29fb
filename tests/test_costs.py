"""Memory ceilings: tracemalloc peaks of fixed seeded inputs at desk
sizes, at inference and per training sample, each held to its entry in
BENCH_costs.json plus the ledger's slack (``tests/costs.py`` measures and
writes them). The peaks do not drift between runs, so a change that gives
memory back fails here instead of in a noisy whole-process reading."""

import gc

import pytest

import costs
from memtrace import traced_bytes
from ssmocr.config import RunConfig

FEATURES = (costs.PARAGRAPH_FRAMES, RunConfig().d_model)


def test_connector_paragraph_peak_stays_within_the_ledger():
    # the three whole-sequence (L, I, N) chain outputs peaked at 39.7 MiB
    y, peak = costs.connector_paragraph()
    assert y.shape == FEATURES
    assert peak < costs.ceiling("paragraph.connector")


def test_paragraph_encode_peak_stays_within_the_ledger():
    # encoder plus connector; 41.2 MiB while the connector built (L, I, N) arrays
    h, peak = costs.paragraph_encode()
    assert h.shape == FEATURES
    assert peak < costs.ceiling("paragraph.encode")


@pytest.fixture(scope="module")
def samples():
    built = {}

    def get(kind):
        if kind not in built:
            built[kind] = costs.train_long_sample(kind)
        return built[kind]

    return get


@pytest.mark.parametrize("kind", costs.HEADS)
def test_train_long_sample_peak_stays_within_the_ledger(samples, kind):
    # one loss + backward on the 120-character line. mamba-nar: 165.9 MiB
    # while the tape held five (L, I, N) arrays per Mamba block, 76.2 MiB
    # with block checkpoints; ctc / ar / nar / attn 71.0 / 73.8 / 76.2 /
    # 74.1 MiB while batchnorm2d, silu and conv2d kept xhat, the sigmoid
    # and the padded input
    _, peak, _ = traced_bytes(samples(kind)[0])
    assert peak < costs.ceiling(f"train_long_sample.{kind}")


def test_samples_leave_only_gradients_with_the_cycle_collector_off(samples):
    # a tape left holding Tensor <-> Node cycles would pile up over samples
    sample, params = samples("mamba-nar")
    for p in params:
        p.grad = None
    gc.disable()
    try:
        _, peak, left = traced_bytes(lambda: [sample() for _ in range(3)])
    finally:
        gc.enable()
    grads = sum(p.grad.nbytes for p in params)
    # unlike a single sample's window, this one also holds the gradients
    assert peak < costs.ceiling("train_long_sample.mamba-nar") + grads
    assert 0 <= left - grads < 64 * 2**10
