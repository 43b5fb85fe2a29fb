"""Config parsing, checkpoint format, and training-loop behaviour."""

import dataclasses
import io

import numpy as np
import pytest

from ssmocr import checkpoint as C
from ssmocr import config as CFG
from ssmocr import train as TR
from ssmocr.model import build_model
from ssmocr.synth import SynthConfig, make_dataset
from ssmocr.vocab import Vocabulary


class TestConfig:
    def test_parse_key_value_with_comments(self):
        text = """
        # a comment
        model.kind = mamba-ar   # trailing comment
        optim.lr = 0.001
        train.batch_size = 2
        """
        cfg = CFG.config_from_mapping(CFG.parse_config_text(text))
        assert cfg.model_kind == "mamba-ar"
        assert cfg.lr == 0.001
        assert cfg.batch_size == 2

    def test_unknown_key_named(self):
        with pytest.raises(CFG.ConfigError, match="model.depht"):
            CFG.config_from_mapping({"model.depht": "4"})

    def test_duplicate_key_rejected(self):
        with pytest.raises(CFG.ConfigError, match="duplicate"):
            CFG.parse_config_text("seed = 1\nseed = 2\n")

    def test_bad_value_reported(self):
        with pytest.raises(CFG.ConfigError, match="optim.lr"):
            CFG.config_from_mapping({"optim.lr": "fast"})

    def test_preset_paper_dims(self):
        cfg = CFG.config_from_mapping({"model.preset": "paper"})
        assert (cfg.d_model, cfg.n_state, cfg.expand, cfg.t_max) == (256, 256, 6, 500)
        assert cfg.pad_min_w == 1000

    def test_explicit_key_overrides_preset(self):
        cfg = CFG.config_from_mapping({"model.preset": "paper", "model.d": "32"})
        assert cfg.d_model == 32

    def test_mapping_roundtrip(self):
        cfg = CFG.config_from_mapping({"model.kind": "mamba-nar", "optim.lr": "0.002"})
        echo = CFG.config_to_mapping(cfg)
        back = CFG.config_from_checkpoint_mapping(echo)
        assert back == cfg

    def test_unknown_kind_rejected(self):
        with pytest.raises(CFG.ConfigError, match="model.kind"):
            CFG.config_from_mapping({"model.kind": "gru-ctc"})


def tiny_cfg(tmp_path, manifest, **kw):
    base = dict(
        model_kind="mamba-ctc", train_manifest=manifest, out_dir=str(tmp_path / "run"),
        d_model=16, n_state=4, expand=2, layers=2, max_steps=4, eval_every=0,
        batch_size=2, lr=1e-3, seed=7,
        enc_channels=(4, 4, 8, 8),
    )
    base.update(kw)
    return CFG.RunConfig(**base)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    td = tmp_path_factory.mktemp("data")
    info = make_dataset(SynthConfig(out_dir=str(td), n_samples=6, splits=(1.0, 0, 0),
                                    seed=2, line_chars=(4, 8), glyph_scale=2,
                                    line_height=32))
    return info.manifests["train"]


class TestCheckpoint:
    def make_ckpt(self):
        rng = np.random.default_rng(0)
        return C.Checkpoint(
            model_kind="mamba-ctc",
            config={"model.kind": "mamba-ctc", "seed": "7"},
            vocab_chars="abc é",
            tensors={
                "w": rng.standard_normal((3, 4)).astype(np.float32),
                "b": rng.standard_normal(5),
            },
            rng_state={"bit_generator": "PCG64", "state": {"state": 123, "inc": 5},
                       "has_uint32": 0, "uinteger": 0},
            step=17,
        )

    def test_roundtrip_byte_identical(self, tmp_path):
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        ck = self.make_ckpt()
        C.save(p1, ck)
        C.save(p2, C.load(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_content_matches(self, tmp_path):
        p = tmp_path / "c.ckpt"
        ck = self.make_ckpt()
        C.save(p, ck)
        back = C.load(p)
        assert back.model_kind == ck.model_kind
        assert back.vocab_chars == ck.vocab_chars
        assert back.step == 17
        assert np.array_equal(back.tensors["w"], ck.tensors["w"])
        assert back.tensors["b"].dtype == np.float64

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOTMAG" + b"\x00" * 64)
        with pytest.raises(C.CheckpointError, match="magic"):
            C.load(p)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "v.ckpt"
        C.save(p, self.make_ckpt())
        raw = bytearray(p.read_bytes())
        raw[6] = 99  # bump the version field
        # keep the CRC consistent so the version check is what fires
        import struct, zlib
        body = bytes(raw[:-4])
        raw[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        p.write_bytes(bytes(raw))
        with pytest.raises(C.VersionError, match="upgrade"):
            C.load(p)

    def test_corrupted_payload_byte(self, tmp_path):
        p = tmp_path / "corrupt.ckpt"
        C.save(p, self.make_ckpt())
        raw = bytearray(p.read_bytes())
        raw[-20] ^= 0xFF  # flip a payload byte, CRC now mismatches
        p.write_bytes(bytes(raw))
        with pytest.raises(C.IntegrityError, match="CRC"):
            C.load(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "trunc.ckpt"
        C.save(p, self.make_ckpt())
        p.write_bytes(p.read_bytes()[:-9])
        with pytest.raises(C.IntegrityError):
            C.load(p)

    def test_interrupted_save_keeps_previous(self, tmp_path, monkeypatch):
        p = tmp_path / "best.ckpt"
        C.save(p, self.make_ckpt())
        before = p.read_bytes()

        class FailingFile(io.FileIO):
            def write(self, data):
                super().write(bytes(data)[: len(data) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(C, "open", FailingFile, raising=False)
        newer = dataclasses.replace(self.make_ckpt(), step=18)
        with pytest.raises(OSError, match="disk full"):
            C.save(p, newer)
        monkeypatch.undo()
        assert p.read_bytes() == before
        assert C.load(p).step == 17
        assert [f.name for f in tmp_path.iterdir()] == ["best.ckpt"]
        C.save(p, newer)
        assert C.load(p).step == 18
        assert [f.name for f in tmp_path.iterdir()] == ["best.ckpt"]

    def test_model_roundtrip_bit_exact_forward(self, tmp_path):
        cfg = CFG.RunConfig(model_kind="mamba-ctc", d_model=16, n_state=4,
                            expand=2, layers=2, enc_channels=(4, 4, 8, 8), seed=1)
        vocabulary = Vocabulary(list("abc"))
        model = build_model(cfg, vocabulary)
        model.eval()
        img = (np.random.default_rng(5).random((32, 48)) * 255).astype(np.uint8)
        before = model.transcribe(img).text
        ck = C.collect_from_model(model, CFG.config_to_mapping(cfg))
        path = tmp_path / "m.ckpt"
        C.save(path, ck)
        model2 = build_model(dataclasses.replace(cfg, seed=999), vocabulary)
        C.apply_to_model(C.load(path), model2)
        model2.eval()
        import ssmocr.tensor as T
        with T.no_grad():
            h1 = model.encode(img).data
            h2 = model2.encode(img).data
        assert np.array_equal(h1, h2)
        assert model2.transcribe(img).text == before

    def test_shape_mismatch_on_apply(self, tmp_path):
        cfg = CFG.RunConfig(model_kind="mamba-ctc", d_model=16, n_state=4,
                            expand=2, layers=2, enc_channels=(4, 4, 8, 8))
        model = build_model(cfg, Vocabulary(list("ab")))
        ck = C.collect_from_model(model, {})
        bigger = build_model(dataclasses.replace(cfg, d_model=32), Vocabulary(list("ab")))
        with pytest.raises(C.CheckpointError, match="shape"):
            C.apply_to_model(ck, bigger)


class TestTraining:
    def test_smoke_and_loss_decreases(self, tiny_dataset, tmp_path):
        cfg = tiny_cfg(tmp_path, tiny_dataset, max_steps=12)
        res = TR.train_run(cfg)
        assert res.steps == 12
        assert res.loss_history[-1] < res.loss_history[0]

    def test_determinism_byte_identical_checkpoints(self, tiny_dataset, tmp_path):
        cfg = tiny_cfg(tmp_path, tiny_dataset)
        first = TR.train_run(cfg)
        snapshot = open(first.last_path, "rb").read()
        second = TR.train_run(cfg)  # same config, seed, dataset
        assert open(second.last_path, "rb").read() == snapshot

    def test_resume_matches_uninterrupted(self, tiny_dataset, tmp_path):
        full = TR.train_run(tiny_cfg(tmp_path / "full", tiny_dataset, max_steps=8))
        first = TR.train_run(tiny_cfg(tmp_path / "half", tiny_dataset, max_steps=4))
        resumed = TR.train_run(tiny_cfg(
            tmp_path / "half", tiny_dataset, max_steps=8, resume=first.last_path))
        assert len(resumed.loss_history) == 4
        tail = full.loss_history[4:]
        assert np.allclose(resumed.loss_history, tail, atol=1e-6)

    def test_nan_loss_aborts_with_diagnostics(self, tiny_dataset, tmp_path):
        cfg = tiny_cfg(tmp_path, tiny_dataset, lr=1e18, clip_norm=0.0, max_steps=50)
        with pytest.raises(TR.TrainAbort) as err:
            TR.train_run(cfg)
        assert err.value.step > 0
        assert err.value.lr == 1e18
        assert err.value.batch_ids

    def test_adamw_moves_toward_minimum(self):
        import ssmocr.tensor as T
        x = T.Tensor(np.array([5.0]), dtype="f64", requires_grad=True)
        opt = TR.AdamW({"x": x}, lr=0.1, weight_decay=0.0)
        for _ in range(200):
            opt.zero_grad()
            T.backward(T.sum_all(T.mul(x, x)))
            opt.step()
        assert abs(x.data[0]) < 0.2

    def test_clip_global_norm(self):
        import ssmocr.tensor as T
        p = T.Tensor(np.zeros(4), dtype="f64", requires_grad=True)
        p.grad = np.full(4, 10.0)
        norm = TR.clip_global_norm({"p": p}, 1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)

    def test_curriculum_pool_ramps(self):
        samples = [TR.LoadedSample(None, "a", 1), TR.LoadedSample(None, "a\nb", 2),
                   TR.LoadedSample(None, "a\nb\nc", 3)]
        cfg = CFG.RunConfig(curriculum=True, ramp_steps=100, max_lines=3)
        assert TR._curriculum_pool(samples, 1, cfg) == [0]
        assert TR._curriculum_pool(samples, 50, cfg) == [0, 1]
        assert TR._curriculum_pool(samples, 100, cfg) == [0, 1, 2]

    def test_ctc_head_rejects_paragraphs(self, tmp_path):
        from ssmocr.synth import SynthConfig, make_dataset

        info = make_dataset(SynthConfig(out_dir=str(tmp_path), n_samples=4,
                                        splits=(1.0, 0, 0), seed=1,
                                        kind="paragraph", paragraph_lines=(2, 2),
                                        line_chars=(3, 6), glyph_scale=2))
        cfg = tiny_cfg(tmp_path, info.manifests["train"])
        with pytest.raises(ValueError, match="line-level only"):
            TR.train_run(cfg)

    def test_paragraph_ar_with_curriculum_and_synth_mix(self, tmp_path):
        from ssmocr.synth import SynthConfig, make_dataset

        real = make_dataset(SynthConfig(out_dir=str(tmp_path / "real"), n_samples=6,
                                        splits=(1.0, 0, 0), seed=1,
                                        kind="paragraph", paragraph_lines=(1, 3),
                                        line_chars=(3, 6), glyph_scale=2))
        synth = make_dataset(SynthConfig(out_dir=str(tmp_path / "synth"), n_samples=4,
                                         splits=(1.0, 0, 0), seed=2,
                                         kind="paragraph", paragraph_lines=(1, 2),
                                         line_chars=(3, 6), glyph_scale=2))
        cfg = tiny_cfg(tmp_path, real.manifests["train"], model_kind="mamba-ar",
                       synth_manifest=synth.manifests["train"], curriculum=True,
                       ramp_steps=4, max_lines=3, synth_mix=0.25, max_steps=4)
        res = TR.train_run(cfg)
        assert res.steps == 4
        assert np.isfinite(res.final_loss)

    def test_ar_single_line_exact_memorization(self, tmp_path):
        # a one-line overfit must reproduce that line exactly
        from ssmocr.pgm import write_pgm
        from ssmocr.synth import GlyphSet, Sample, render_line, save_manifest

        text = "exact recall"
        img = render_line(text, GlyphSet(scale=3), height_px=32)
        write_pgm(tmp_path / "line.pgm", img)
        save_manifest(tmp_path / "train.tsv", [Sample("line.pgm", text)])
        cfg = tiny_cfg(tmp_path, str(tmp_path / "train.tsv"),
                       model_kind="mamba-ar", d_model=32, n_state=8,
                       enc_channels=(8, 8, 16, 16), batch_size=1,
                       max_steps=300, eval_every=25, target_cer=0.0, lr=2e-3)
        res = TR.train_run(cfg)
        assert res.best_cer == 0.0
        from ssmocr import checkpoint as C
        from ssmocr.model import build_model
        from ssmocr.vocab import Vocabulary

        ck = C.load(res.best_path)
        model = build_model(cfg, Vocabulary(list(ck.vocab_chars)))
        C.apply_to_model(ck, model)
        model.eval()
        assert model.transcribe(img).text == text
