"""Config parsing, checkpoint format, and training-loop behaviour."""

import dataclasses
import hashlib
import io
import re

import numpy as np
import pytest

from ssmocr import checkpoint as C
from ssmocr import config as CFG
from ssmocr import tensor as T
from ssmocr import train as TR
from ssmocr.cli import model_from_checkpoint
from ssmocr.encoder import prepare_image
from ssmocr.model import build_model
from ssmocr.synth import SynthConfig, make_dataset
from ssmocr.vocab import Vocabulary


# every RunConfig field set away from its default
NON_DEFAULT = dict(
    model_kind="attn-ar-baseline", seed=7, d_model=48, n_state=8,
    expand=3, layers=2, t_max=90, max_len=300, enc_channels=(8, 8, 16, 16),
    enc_pooling=((2, 2), (2, 2), (2, 1), (2, 1), (2, 1)), pad_min_h=40, pad_min_w=24,
    lr=3e-4, beta1=0.8, beta2=0.99, weight_decay=0.0, clip_norm=2.5, batch_size=3,
    max_steps=17, eval_every=5, target_cer=1.5, resume="runs/a/last.ckpt",
    curriculum=True, ramp_steps=50, max_lines=4, synth_mix=0.25, augment=True,
    augment_prob=0.75, augment_seed=9, train_manifest="train.tsv",
    valid_manifest="valid.tsv", synth_manifest="synth.tsv", out_dir="runs/b",
)


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

    @pytest.mark.parametrize("key", ["seed", "augment.seed"])
    def test_negative_seed_rejected(self, key):
        with pytest.raises(CFG.ConfigError, match=key):
            CFG.config_from_mapping({key: "-1"})

    @pytest.mark.parametrize("key,value", [
        ("train.batch_size", "0"), ("train.batch_size", "-2"),
        ("encoder.channels", "4,4,8"), ("encoder.channels", "4,4,8,8,8"),
        ("encoder.channels", "4,0,8,8"),
        ("encoder.pooling", "2x2,2x2,2x2,2x1"), ("encoder.pooling", "2x2,2x2,2x2,2x1,0x1"),
        ("model.d", "30"), ("model.d", "0"), ("model.d", "-8"),
        ("model.n_state", "0"), ("model.expand", "0"), ("model.layers", "0"),
        ("model.layers", "-1"),
        ("encoder.pad_min_h", "8"), ("encoder.pad_min_h", "31"),
        ("encoder.pad_min_w", "3"), ("encoder.pad_min_w", "0"),
    ])
    def test_unusable_shape_rejected_by_key(self, key, value):
        # rejected when the config is built, before any data loads
        with pytest.raises(CFG.ConfigError, match=key):
            CFG.config_from_mapping({key: value})

    @pytest.mark.parametrize("key,value", [
        ("augment.prob", "7"), ("augment.prob", "-0.1"), ("augment.prob", "nan"),
        ("curriculum.synth_mix", "-2"), ("curriculum.synth_mix", "1.5"),
        ("model.max_len", "0"), ("model.t_max", "0"), ("model.t_max", "-3"),
    ])
    def test_out_of_range_setting_rejected_by_key(self, key, value):
        with pytest.raises(CFG.ConfigError, match=key):
            CFG.config_from_mapping({key: value})

    def test_range_ends_accepted(self):
        cfg = CFG.config_from_mapping({"augment.prob": "1", "curriculum.synth_mix": "0",
                                       "model.max_len": "1", "model.t_max": "1"})
        assert (cfg.augment_prob, cfg.synth_mix, cfg.max_len, cfg.t_max) == (1.0, 0.0, 1, 1)

    def test_keymap_has_exactly_one_key_per_field(self):
        attrs = [attr for attr, _ in CFG.KEYMAP.values()]
        assert len(set(attrs)) == len(attrs)
        assert set(attrs) == {f.name for f in dataclasses.fields(CFG.RunConfig)}

    def test_preset_is_a_file_key_not_a_field(self):
        assert "model.preset" not in CFG.KEYMAP
        assert "preset" not in {f.name for f in dataclasses.fields(CFG.RunConfig)}
        cfg = CFG.config_from_mapping({"model.preset": "paper"})
        assert "model.preset" not in CFG.config_to_mapping(cfg)
        with pytest.raises(CFG.ConfigError, match="model.preset"):
            CFG.config_from_mapping({"model.preset": "huge"})

    @pytest.mark.parametrize("preset", ["desk", "paper"])
    def test_echo_with_preset_key_loads(self, preset):
        # checkpoints from before the preset stopped being a field echo it
        cfg = CFG.RunConfig(**NON_DEFAULT)
        echo = dict(CFG.config_to_mapping(cfg), **{"model.preset": preset})
        assert CFG.config_from_checkpoint_mapping(echo) == cfg

    def test_pad_minima_at_the_encoder_minima_accepted(self):
        # the default pooling's smallest image is 32 rows by 4 columns
        cfg = CFG.config_from_mapping({"encoder.pad_min_h": "32", "encoder.pad_min_w": "4"})
        assert (cfg.pad_min_h, cfg.pad_min_w) == (32, 4)
        assert CFG.min_image_size(cfg.enc_pooling) == (32, 4)

    def test_every_field_roundtrips_through_the_echo(self):
        cfg = CFG.RunConfig(**NON_DEFAULT)
        default = CFG.RunConfig()
        for f in dataclasses.fields(cfg):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        assert CFG.config_from_checkpoint_mapping(CFG.config_to_mapping(cfg)) == cfg

    def test_echo_with_retired_encoder_keys_loads(self):
        # checkpoints from before the encoder had one recipe echo both keys
        cfg = CFG.RunConfig(**NON_DEFAULT)
        echo = dict(CFG.config_to_mapping(cfg), **{"encoder.norm": "batch",
                                                   "encoder.act": "silu"})
        assert CFG.config_from_checkpoint_mapping(echo) == cfg

    @pytest.mark.parametrize("key,value", [("encoder.norm", "instance"),
                                           ("encoder.act", "gelu")])
    def test_retired_encoder_key_rejected_unless_it_matches(self, key, value):
        echo = dict(CFG.config_to_mapping(CFG.RunConfig()), **{key: value})
        with pytest.raises(CFG.ConfigError, match=key):
            CFG.config_from_checkpoint_mapping(echo)
        default_value = CFG.RETIRED_KEYS[key]
        with pytest.raises(CFG.ConfigError, match=f"unknown config key '{key}'"):
            CFG.config_from_mapping({key: default_value})


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

    def test_bytes_equal_the_joined_serializer(self, tmp_path):
        # the format as written before save streamed its pieces: one joined
        # body of tobytes() payloads, then the CRC of the whole body
        rng = np.random.default_rng(1)
        ck = dataclasses.replace(self.make_ckpt(), tensors={
            "w": rng.standard_normal((3, 4)).astype(np.float32),
            "b": rng.standard_normal(5),
            "cube": rng.standard_normal((2, 3, 4)).astype(np.float32),
            "strided": rng.standard_normal((6, 4))[::2, 1:],
            "empty": np.zeros((0, 3), dtype=np.float32),
            "scalar": np.float64(2.5),
        })
        import json, struct, zlib
        directory, payload = [], bytearray()
        for name in sorted(ck.tensors):
            arr = np.ascontiguousarray(ck.tensors[name])
            dtype = "f32" if arr.dtype == np.float32 else "f64"
            raw = arr.astype({"f32": "<f4", "f64": "<f8"}[dtype]).tobytes()
            directory.append({"name": name, "dtype": dtype, "shape": list(arr.shape),
                              "offset": len(payload), "nbytes": len(raw)})
            payload.extend(raw)
        header = json.dumps({
            "model_kind": ck.model_kind, "config": dict(sorted(ck.config.items())),
            "vocab": ck.vocab_chars, "rng_state": ck.rng_state, "step": ck.step,
            "tensors": directory}, sort_keys=True, ensure_ascii=True,
            separators=(",", ":")).encode("ascii")
        body = b"".join([C.MAGIC, struct.pack("<I", C.VERSION),
                         struct.pack("<Q", len(header)), header, bytes(payload)])
        expect = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        C.save(tmp_path / "a.ckpt", ck)
        assert (tmp_path / "a.ckpt").read_bytes() == expect
        C.save(tmp_path / "b.ckpt", C.load(tmp_path / "a.ckpt"))
        assert (tmp_path / "b.ckpt").read_bytes() == expect

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

    @pytest.mark.parametrize("size", [1, 3])
    def test_buffer_shape_mismatch_named(self, size):
        cfg = CFG.RunConfig(model_kind="mamba-ctc", d_model=16, n_state=4,
                            expand=2, layers=2, enc_channels=(4, 4, 8, 8))
        model = build_model(cfg, Vocabulary(list("ab")))
        key = "buffers.encoder.stage0.running_var"
        ck = C.collect_from_model(model, {})
        assert ck.tensors[key].shape == (4,)
        # one element would broadcast into all four channels
        ck.tensors[key] = np.full(size, 7.0, dtype=np.float32)
        with pytest.raises(C.CheckpointError, match=re.escape(key)):
            C.apply_to_model(ck, model)

    def test_missing_buffer_named(self):
        cfg = CFG.RunConfig(model_kind="mamba-ctc", d_model=16, n_state=4,
                            expand=2, layers=2, enc_channels=(4, 4, 8, 8))
        model = build_model(cfg, Vocabulary(list("ab")))
        ck = C.collect_from_model(model, {})
        del ck.tensors["buffers.encoder.stage3.running_mean"]
        with pytest.raises(C.CheckpointError,
                           match=re.escape("buffers.encoder.stage3.running_mean")):
            C.apply_to_model(ck, model)


KINDS = ("mamba-ctc", "mamba-ar", "mamba-nar", "attn-ar-baseline")


def with_retired_conv_bias(ck, seed=0):
    """``ck`` as saved before the encoder's conv stages dropped their bias:
    a nonzero bias with Adam moments per stage, and each running mean
    measured with that bias in it."""
    rng = np.random.default_rng(seed)
    tensors = dict(ck.tensors)
    for s in range(5):
        mean = f"buffers.encoder.stage{s}.running_mean"
        bias = rng.standard_normal(tensors[mean].shape).astype(np.float32)
        tensors[f"encoder.stage{s}.b"] = bias
        tensors[mean] = tensors[mean] + bias
        tensors[f"adam.m.encoder.stage{s}.b"] = rng.standard_normal(bias.shape) * 1e-7
        tensors[f"adam.v.encoder.stage{s}.b"] = rng.random(bias.shape) * 1e-14
    return dataclasses.replace(ck, tensors=tensors)


# (count, sha256 prefix) of the "name:shape" lines of model.params(), in
# order, per kind at the config below: checkpoint keys, their order and
# their shapes must not move when a head is refactored
PARAM_KEY_DIGESTS = {
    "mamba-ctc": (73, "c5b675574ec1edcc"),
    "mamba-ar": (74, "2f58f578fbc5d898"),
    "mamba-nar": (74, "a560ba0b72a63f3d"),
    "attn-ar-baseline": (76, "6cec2a5a60eb8192"),
}


@pytest.mark.parametrize("kind", KINDS)
def test_checkpoint_keys_names_order_and_shapes_pinned(kind):
    cfg = CFG.RunConfig(model_kind=kind, d_model=16, n_state=4, expand=2, layers=2,
                        t_max=6, max_len=6, enc_channels=(4, 4, 8, 8), seed=7)
    params = build_model(cfg, Vocabulary(list("abc"))).params()
    lines = "".join(f"{n}:{tuple(p.shape)}\n" for n, p in params.items())
    digest = hashlib.sha256(lines.encode()).hexdigest()[:16]
    assert (len(params), digest) == PARAM_KEY_DIGESTS[kind]


class TestRetiredConvBias:
    @pytest.fixture(scope="class")
    def trained(self, tiny_dataset, tmp_path_factory):
        # a few steps give the running means something to fold into
        return TR.train_run(tiny_cfg(tmp_path_factory.mktemp("bias"), tiny_dataset))

    def test_legacy_checkpoint_loads_with_the_bias_folded(self, trained, tmp_path):
        legacy = with_retired_conv_bias(C.load(trained.last_path))
        C.save(tmp_path / "legacy.ckpt", legacy)
        plain, _, _ = model_from_checkpoint(trained.last_path)
        folded, _, _ = model_from_checkpoint(tmp_path / "legacy.ckpt")
        img = (np.random.default_rng(5).random((32, 48)) * 255).astype(np.uint8)
        with T.no_grad():
            h_plain = plain.encode(img).data
            h_folded = folded.encode(img).data
            # the stage recipe with the bias, on the legacy tensors as saved
            cfg = folded.cfg
            x = T.Tensor(prepare_image(img, cfg.pad_min_h, cfg.pad_min_w)[None])
            for s, st in enumerate(folded.encoder.stages):
                bias = T.Tensor(legacy.tensors[f"encoder.stage{s}.b"])
                x = T.conv2d(x, st["w"], bias, padding=1)
                x = T.batchnorm2d(
                    x, st["norm_g"], st["norm_b"],
                    legacy.tensors[f"buffers.encoder.stage{s}.running_mean"].copy(),
                    legacy.tensors[f"buffers.encoder.stage{s}.running_var"].copy(),
                    training=False)
                x = T.maxpool2d(T.silu(x), st["pool"])
            grid = folded.encoder.forward(
                prepare_image(img, cfg.pad_min_h, cfg.pad_min_w)).grid.data
        assert np.abs(h_folded - h_plain).max() <= 1e-5 * np.abs(h_plain).max()
        ref = x.data.transpose(1, 2, 0)
        assert np.abs(grid - ref).max() <= 1e-5 * np.abs(ref).max()

    def test_train_run_resumes_from_a_legacy_checkpoint(self, trained, tiny_dataset,
                                                        tmp_path):
        C.save(tmp_path / "legacy.ckpt", with_retired_conv_bias(C.load(trained.last_path)))
        plain, legacy = (TR.train_run(tiny_cfg(tmp_path / tag, tiny_dataset, max_steps=7,
                                               resume=str(path)))
                         for tag, path in (("plain", trained.last_path),
                                           ("legacy", tmp_path / "legacy.ckpt")))
        # training-mode batchnorm never reads the running mean
        assert len(legacy.loss_history) == 3
        assert legacy.loss_history == plain.loss_history
        got, ref = C.load(legacy.last_path).tensors, C.load(plain.last_path).tensors
        assert sorted(got) == sorted(ref)
        for name, arr in ref.items():
            if name.endswith("running_mean"):
                assert np.allclose(got[name], arr, rtol=0, atol=1e-12)
            else:
                assert np.array_equal(got[name], arr), name

    def test_retired_bias_of_the_wrong_shape_rejected(self, trained, tmp_path):
        legacy = with_retired_conv_bias(C.load(trained.last_path))
        legacy.tensors["encoder.stage2.b"] = np.ones(1, dtype=np.float32)
        model = build_model(tiny_cfg(tmp_path, "unused.tsv"), Vocabulary(list(legacy.vocab_chars)))
        with pytest.raises(C.CheckpointError, match="encoder.stage2.b"):
            C.apply_to_model(legacy, model)

    @pytest.mark.parametrize("kind", KINDS)
    def test_params_and_checkpoints_hold_no_conv_bias(self, kind, tiny_dataset,
                                                      tmp_path):
        cfg = tiny_cfg(tmp_path, tiny_dataset, model_kind=kind, max_steps=1)
        res = TR.train_run(cfg)
        model, _, ck = model_from_checkpoint(res.last_path)
        params = model.params()
        assert not [n for n in params if re.fullmatch(r"encoder\.stage\d\.b", n)]
        expect = set(params) | {f"buffers.{n}" for n in model.buffers()}
        expect |= {f"adam.{m}.{n}" for n in params for m in "mv"}
        assert set(ck.tensors) == expect


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
        import ssmocr.tensor as T
        T.active_tape().reset()
        cfg = tiny_cfg(tmp_path, tiny_dataset, lr=1e18, clip_norm=0.0, max_steps=50)
        with pytest.raises(TR.TrainAbort) as err:
            TR.train_run(cfg)
        assert err.value.step > 0
        assert err.value.lr == 1e18
        assert err.value.batch_ids
        assert len(T.active_tape()) == 0  # the failed forward left no nodes

    @pytest.mark.parametrize("clip_norm", [1.0, 0.0])
    def test_non_finite_gradient_stops_before_the_update(self, tiny_dataset, tmp_path,
                                                         monkeypatch, clip_norm):
        clip = TR.clip_global_norm

        def poisoned_clip(params, max_norm):
            next(p for p in params.values() if p.grad is not None).grad.flat[0] = np.inf
            return clip(params, max_norm)

        updates = []
        monkeypatch.setattr(TR, "clip_global_norm", poisoned_clip)
        monkeypatch.setattr(TR.AdamW, "step", lambda self: updates.append(self))
        cfg = tiny_cfg(tmp_path, tiny_dataset, clip_norm=clip_norm, max_steps=1)
        with pytest.raises(TR.TrainAbort, match="gradient norm inf") as err:
            TR.train_run(cfg)
        assert err.value.step == 1
        assert updates == []

    def test_failed_loss_leaves_no_nodes_on_the_tape(self, tiny_dataset, tmp_path,
                                                     monkeypatch):
        from ssmocr import decoders

        recorded = []

        def failing_loss(frame_logits, targets):
            recorded.append(len(T.active_tape()))  # the forward's nodes
            raise RuntimeError("loss failed")

        monkeypatch.setattr(decoders, "ctc_loss", failing_loss)
        T.active_tape().reset()
        with pytest.raises(RuntimeError, match="loss failed"):
            TR.train_run(tiny_cfg(tmp_path, tiny_dataset, batch_size=1))
        assert recorded and recorded[0] > 0
        assert len(T.active_tape()) == 0

    @pytest.mark.parametrize("split", ["train", "synth"])
    def test_unalignable_ctc_sample_refused_before_the_first_step(
            self, split, tiny_dataset, tmp_path, monkeypatch):
        from ssmocr.decoders import InfeasibleAlignmentError
        from ssmocr.pgm import write_pgm
        from ssmocr.synth import Sample, save_manifest

        # a blank 32 x 16 px line gives 2 frames; 26 characters need 26
        write_pgm(tmp_path / "narrow.pgm", np.full((32, 16), 255, dtype=np.uint8))
        save_manifest(tmp_path / "narrow.tsv",
                      [Sample("narrow.pgm", "abcdefghijklmnopqrstuvwxyz")])
        narrow = str(tmp_path / "narrow.tsv")
        built, steps = [], []
        monkeypatch.setattr(TR, "build_model", lambda *a: built.append(a))
        monkeypatch.setattr(TR.AdamW, "step", lambda opt: steps.append(opt.t))
        cfg = (tiny_cfg(tmp_path, narrow) if split == "train" else
               tiny_cfg(tmp_path, tiny_dataset, synth_manifest=narrow, synth_mix=0.5))
        with pytest.raises(InfeasibleAlignmentError, match=rf"{split}:0 .*2 frames.*needs 26"):
            TR.train_run(cfg)
        assert built == [] and steps == []

    @pytest.mark.parametrize("kind,key,size", [
        ("mamba-ar", "model.max_len", {"max_len": 3}),
        ("attn-ar-baseline", "model.max_len", {"max_len": 3}),
        ("mamba-nar", "model.t_max", {"t_max": 4}),
    ])
    def test_over_long_transcript_refused_before_the_first_step(
            self, kind, key, size, tiny_dataset, tmp_path, monkeypatch):
        from ssmocr.decoders import TargetTooLongError

        steps = []
        monkeypatch.setattr(TR.AdamW, "step", lambda opt: steps.append(opt.t))
        cfg = tiny_cfg(tmp_path, tiny_dataset, model_kind=kind, **size)
        with pytest.raises(TargetTooLongError, match=rf"train:\d+ .*{key} allows 3"):
            TR.train_run(cfg)
        assert steps == []

    def test_augment_seed_keys_the_augmentation(self, tiny_dataset, tmp_path,
                                                monkeypatch):
        drawn = []  # the source image of every augmented sample, in order
        real_augment = TR.augment

        def recording_augment(img, spec):
            drawn.append(img.tobytes())
            return real_augment(img, spec)

        monkeypatch.setattr(TR, "augment", recording_augment)

        def run(tag, augment_seed):
            drawn.clear()
            res = TR.train_run(tiny_cfg(tmp_path / tag, tiny_dataset, augment=True,
                                        augment_prob=1.0, augment_seed=augment_seed))
            return res.loss_history, list(drawn)

        loss_a, batches_a = run("a", 3)
        loss_b, batches_b = run("b", 3)
        loss_c, batches_c = run("c", 4)
        assert loss_a == loss_b
        assert loss_a != loss_c
        assert len(batches_a) == 8
        assert batches_a == batches_b == batches_c

    @staticmethod
    def _ctc_model_and_samples(tiny_dataset, tmp_path):
        cfg = tiny_cfg(tmp_path, tiny_dataset)
        samples = TR.load_samples(tiny_dataset)
        vocab = Vocabulary.from_texts([s.transcript for s in samples])
        return build_model(cfg, vocab), samples

    def test_evaluate_leaves_an_eval_model_in_eval_mode(self, tiny_dataset, tmp_path):
        # a model back in training mode would normalise its next transcription
        # with batch statistics and overwrite the running buffers
        model, samples = self._ctc_model_and_samples(tiny_dataset, tmp_path)
        model.eval()
        img = samples[0].image

        def read():
            with T.no_grad():
                logits = model.decoder.frame_logits(model.encode(img)).data.copy()
            return model.transcribe(img).text, logits

        text, logits = read()
        buffers = {k: v.tobytes() for k, v in model.buffers().items()}
        TR.evaluate(model, samples)
        assert not model.encoder.training
        text_after, logits_after = read()
        assert text_after == text
        assert np.array_equal(logits_after, logits)
        assert {k: v.tobytes() for k, v in model.buffers().items()} == buffers

    @pytest.mark.parametrize("training", [True, False])
    def test_a_raising_transcription_restores_the_mode(self, tiny_dataset, tmp_path,
                                                       monkeypatch, training):
        model, samples = self._ctc_model_and_samples(tiny_dataset, tmp_path)
        model.train() if training else model.eval()
        seen = []

        def failing_transcribe(image, max_len=None):
            seen.append(model.encoder.training)
            raise RuntimeError("decode failed")

        monkeypatch.setattr(model, "transcribe", failing_transcribe)
        with pytest.raises(RuntimeError, match="decode failed"):
            TR.evaluate(model, samples)
        assert seen == [False]
        assert model.encoder.training is training

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
