"""Self-tests of the benchmark: every boundary records on a tiny seeded
input, tracing leaves outputs unchanged, and BENCHMARK.json matches the
metrics the code emits.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

TINY_MODEL = (("d_model", 16), ("n_state", 4), ("layers", 1),
              ("enc_channels", (4, 4, 8, 8)))
TINY = {
    "train": W.TrainSpec("train-tiny", line_chars=(4, 8), t_max=16, steps=2,
                         n_train=4, batch_size=2, model=TINY_MODEL),
    "decode": W.DecodeSpec("decode-tiny", line_chars=(5, 12), paragraphs=((1, 8), (2, 10)),
                           max_len=64, model=TINY_MODEL),
}

# boundaries that only training reaches; decoding runs no tape backward
TRAIN_ONLY = {"tensor.nodes_per_sample", "tensor.backward.self_s", "tensor.tape_bytes.peak",
              "model.loss_s", "train.optimizer_s", "train.clip_s", "train.eval_s",
              "train.step_ms.p50"}
TRAIN_ONLY |= {name for name, _, _ in spans.LAYER_METRICS
               if name.endswith(".bwd_s") or name.startswith("decoders.loss.")}
DECODE_ONLY = {"checkpoint.load_s"}   # training saves checkpoints but never loads one


def _run(kind, tmp_path, trace):
    return W.run(TINY[kind], seed=3, seconds=0, trace=trace,
                 work_dir=tmp_path / f"{kind}-{int(trace)}")


@pytest.fixture(scope="module", params=["train", "decode"])
def traced(request, tmp_path_factory):
    return request.param, _run(request.param, tmp_path_factory.mktemp("traced"), True)


def test_every_layer_metric_records_where_listed(traced):
    kind, result = traced
    assert result.ledger.failures == []
    skip = DECODE_ONLY if kind == "train" else TRAIN_ONLY
    silent = [name for name, _, _ in spans.LAYER_METRICS
              if name not in skip and result.layers[name] == 0]
    assert silent == [], f"{kind}: boundaries recorded nothing: {silent}"
    assert all(result.layers[name] == 0 for name in skip)


def test_tracing_leaves_outputs_unchanged(traced, tmp_path):
    kind, traced_result = traced
    # round 1 is traced and the run checks it against untraced round 0
    assert [r["traced"] for r in traced_result.rounds] == [False, True, False]
    assert traced_result.ledger.failures == []
    assert traced_result.layers[spans.OVERHEAD_METRIC[0]] > -1.0
    # a second, untraced run of the same seed reproduces every output
    plain = _run(kind, tmp_path, False)
    assert plain.ledger.failures == []
    assert plain.outputs.keys() == traced_result.outputs.keys()
    for key, out in plain.outputs.items():
        assert out == traced_result.outputs[key], key


def test_end_to_end_metrics_are_nonzero(tmp_path):
    result = _run("decode", tmp_path, False)
    assert set(result.e2e) == {name for name, _ in W.E2E_METRICS}
    assert all(v > 0 for v in result.e2e.values()), result.e2e
    names = [r[0] for r in result.report]
    assert "decode.line_ms.p90" in names and "failed_ratio" in names


def test_tracer_restores_originals_and_fails_loudly_on_a_rename(monkeypatch):
    from ssmocr import model, tensor

    before = (tensor.matmul, tensor.backward, model.OcrModel.encode)
    tracer = spans.Tracer()
    with tracer.installed():
        assert tensor.matmul is not before[0]
    assert (tensor.matmul, tensor.backward, model.OcrModel.encode) == before
    monkeypatch.setattr(spans, "FUNCTIONS",
                        spans.FUNCTIONS + [("ssmocr.tensor", "no_such_op", "x", False)])
    with pytest.raises(AttributeError):
        tracer.install()
    assert (tensor.matmul, tensor.backward, model.OcrModel.encode) == before


def test_reference_decoders_match_the_library():
    from ssmocr.decoders import ctc_greedy_decode, nar_decode
    from ssmocr.vocab import Vocabulary

    vocab = Vocabulary(list("abcde"))
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.standard_normal((30, vocab.ctc_size))
        assert checks.ctc_reference(z, vocab.chars) == ctc_greedy_decode(z, vocab)
        z = rng.standard_normal((12, vocab.size))
        assert checks.nar_reference(z, vocab.chars) == vocab.decode(nar_decode(z).ids)


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == W.E2E_METRICS
    layer = [(n, u) for n, u, _ in spans.LAYER_METRICS] + [spans.OVERHEAD_METRIC]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layer
    assert [w["name"] for w in doc["workloads"]] == list(W.SPECS)
