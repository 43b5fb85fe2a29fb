"""Vision encoder: shape law, positional encoding, flattening, PGM I/O."""

import numpy as np
import pytest

from ssmocr import encoder as E
from ssmocr.config import PRESET_OVERRIDES
from ssmocr import pgm
from ssmocr import tensor as T
from ssmocr.tensor import Tensor


PAPER_POOLING = PRESET_OVERRIDES["paper"]["enc_pooling"]


def make_encoder(seed=0, d=16):
    return E.ConvEncoder(d, (4, 4, 8, 8), PAPER_POOLING, rng=np.random.default_rng(seed))


class TestShapes:
    def test_default_pooling_shape_law_at_paper_minima(self):
        enc = make_encoder()
        img = np.full((100, 1000), 0.5, dtype=np.float32)
        grid = enc.forward(img)
        assert (grid.height, grid.width) == (4, 63)
        assert grid.grid.shape == (4, 63, 16)

    def test_shape_law_random_extents(self):
        enc = make_encoder()
        rng = np.random.default_rng(1)
        for _ in range(10):
            h = int(rng.integers(32, 200))
            w = int(rng.integers(16, 300))
            grid = enc.forward(np.zeros((h, w), dtype=np.float32))
            assert grid.height == -(-h // 32)
            assert grid.width == -(-w // 16)

    def test_doubling_width_doubles_grid_width(self):
        enc = make_encoder()
        w1 = enc.forward(np.zeros((32, 160), dtype=np.float32)).width
        w2 = enc.forward(np.zeros((32, 320), dtype=np.float32)).width
        assert abs(w2 - 2 * w1) <= 1

    def test_too_small_image_names_minima(self):
        enc = make_encoder()
        with pytest.raises(E.InputError, match="32x8"):
            enc.forward(np.zeros((8, 4), dtype=np.float32))

    def test_zero_image_zero_biases_gives_zero_grid(self):
        enc = make_encoder()
        for name, p in enc.params().items():
            if name.endswith(".b") or name.endswith("norm_b"):
                p.data[...] = 0.0
        grid = enc.forward(np.zeros((32, 48), dtype=np.float32))
        assert np.all(grid.grid.data == 0)

    def test_stages_carry_no_conv_bias(self):
        # batchnorm's shift is each stage's only per-channel offset
        enc = make_encoder()
        assert sorted(enc.params()) == sorted(
            f"stage{s}.{k}" for s in range(5) for k in ("w", "norm_g", "norm_b"))

    def test_eval_mode_determinism(self):
        enc = make_encoder()
        enc.training = False
        img = np.random.default_rng(2).random((40, 64)).astype(np.float32)
        a = enc.forward(img).grid.data.tobytes()
        b = enc.forward(img).grid.data.tobytes()
        assert a == b


class TestFrameCount:
    @pytest.mark.parametrize("kind,pooling", [
        ("mamba-ctc", None), ("mamba-ar", PAPER_POOLING),
        ("mamba-ctc", ((2, 2), (2, 2), (2, 1), (3, 1), (2, 1)))])
    def test_count_is_the_encoded_length(self, kind, pooling):
        from ssmocr.config import RunConfig, min_image_size
        from ssmocr.model import build_model
        from ssmocr.vocab import Vocabulary

        kw = {} if pooling is None else dict(
            zip(("pad_min_h", "pad_min_w"), min_image_size(pooling)), enc_pooling=pooling)
        cfg = RunConfig(model_kind=kind, d_model=16, n_state=4, layers=1,
                        enc_channels=(4, 4, 8, 8), **kw)
        model = build_model(cfg, Vocabulary(list("ab"))).eval()
        rng = np.random.default_rng(2)
        for h, w in [(8, 3), (32, 16), (33, 17), (45, 100), (20, 257), (70, 1001)]:
            img = (rng.random((h, w)) * 255).astype(np.uint8)
            with T.no_grad():
                frames = model.encode(img).shape[0]
            assert frames == E.frame_count(h, w, cfg.pad_min_h, cfg.pad_min_w,
                                           cfg.enc_pooling)


class TestPrepareImage:
    def test_pads_with_white_to_minima(self):
        img = np.zeros((10, 20), dtype=np.uint8)
        out = E.prepare_image(img, 32, 64)
        assert out.shape == (32, 64)
        assert out[0, 0] == 1.0   # padding is white
        assert out.min() == 0.0   # original content preserved

    def test_color_mean_and_uint8_scaling(self):
        img = np.zeros((40, 40, 3), dtype=np.uint8)
        img[..., 0] = 255
        out = E.prepare_image(img, 1, 1)
        assert np.allclose(out, 1.0 / 3.0, atol=1e-6)


class TestPositionalEncoding:
    def test_origin_phases(self):
        pe = E.positional_encoding_2d(3, 4, 16)
        assert np.all(pe[0, 0, 0:8:2] == 0.0)   # row-half sin at r=0
        assert np.all(pe[0, 0, 1:8:2] == 1.0)   # row-half cos at r=0
        assert np.all(pe[0, 0, 8::2] == 0.0)    # col-half sin at c=0
        assert np.all(pe[0, 0, 9::2] == 1.0)

    def test_row_half_shared_within_row(self):
        pe = E.positional_encoding_2d(3, 5, 16)
        assert np.array_equal(pe[1, 0, :8], pe[1, 4, :8])
        assert not np.array_equal(pe[1, 0, 8:], pe[1, 4, 8:])

    def test_matches_closed_form(self):
        d = 16
        pe = E.positional_encoding_2d(4, 6, d)
        half = d // 2
        r, c = 2, 5
        for i in range(half // 2):
            freq = 1.0 / (10000.0 ** (2.0 * i / half))
            assert np.isclose(pe[r, c, 2 * i], np.sin(r * freq))
            assert np.isclose(pe[r, c, 2 * i + 1], np.cos(r * freq))
            assert np.isclose(pe[r, c, half + 2 * i], np.sin(c * freq))
            assert np.isclose(pe[r, c, half + 2 * i + 1], np.cos(c * freq))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_halves_are_the_1d_tables(self, dtype):
        h, w, d = 5, 9, 24
        pe = E.positional_encoding_2d(h, w, d, dtype)
        rows = E.positional_encoding_1d(h, d // 2, dtype)
        cols = E.positional_encoding_1d(w, d // 2, dtype)
        assert pe.dtype == dtype
        half = (h, w, d // 2)
        assert (np.ascontiguousarray(pe[:, :, :d // 2]).tobytes()
                == np.broadcast_to(rows[:, None], half).tobytes())
        assert (np.ascontiguousarray(pe[:, :, d // 2:]).tobytes()
                == np.broadcast_to(cols[None], half).tobytes())

    def test_d_not_divisible_by_four_rejected(self):
        with pytest.raises(E.ConfigError):
            E.positional_encoding_2d(2, 2, 6)

    def test_translation_sensitivity(self):
        enc = make_encoder()
        img1 = np.ones((32, 64), dtype=np.float32)
        img2 = img1.copy()
        img1[8:16, 8:16] = 0.0
        img2[8:16, 40:48] = 0.0   # same glyph, different column
        f1 = E.flatten_grid(E.positional_encode_2d(enc.forward(img1)))
        f2 = E.flatten_grid(E.positional_encode_2d(enc.forward(img2)))
        assert not np.array_equal(f1.data, f2.data)


class TestFlatten:
    def test_single_row_preserves_order(self):
        g = Tensor(np.arange(12, dtype=np.float64).reshape(1, 4, 3))
        flat = E.flatten_grid(E.FeatureGrid(g))
        assert np.array_equal(flat.data, g.data[0])

    def test_row_major_enumeration(self):
        tags = np.arange(4, dtype=np.float64).reshape(2, 2, 1)
        flat = E.flatten_grid(E.FeatureGrid(Tensor(tags)))
        assert np.array_equal(flat.data[:, 0], [0, 1, 2, 3])

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        g = Tensor(rng.standard_normal((3, 5, 4)))
        flat = E.flatten_grid(E.FeatureGrid(g))
        assert np.array_equal(flat.data, g.data.reshape(15, 4))


class TestPgm:
    def test_p5_roundtrip(self, tmp_path):
        img = np.random.default_rng(4).integers(0, 256, (17, 23)).astype(np.uint8)
        p = tmp_path / "img.pgm"
        pgm.write_pgm(p, img)
        assert np.array_equal(pgm.read_pgm(p), img)

    def test_p2_parsing_with_comments(self, tmp_path):
        p = tmp_path / "plain.pgm"
        p.write_text("P2\n# a comment\n3 2\n255\n0 128 255\n10 20 30\n")
        img = pgm.read_pgm(p)
        assert img.shape == (2, 3)
        assert img[0, 1] == 128 and img[1, 2] == 30

    @pytest.mark.parametrize("maxval", [15, 1])
    @pytest.mark.parametrize("magic", ["P2", "P5"])
    def test_low_maxval_rescaled(self, tmp_path, magic, maxval):
        samples = np.array([[0, maxval // 2, maxval], [maxval, 0, maxval]])
        header = f"{magic}\n3 2\n{maxval}\n".encode("ascii")
        if magic == "P5":
            body = samples.astype(np.uint8).tobytes()
        else:
            body = " ".join(str(v) for v in samples.ravel()).encode("ascii")
        p = tmp_path / "low.pgm"
        p.write_bytes(header + body)
        img = pgm.read_pgm(p)
        assert img.dtype == np.uint8
        expect = np.rint(samples * 255.0 / maxval).astype(np.uint8)
        assert np.array_equal(img, expect)
        assert img[0, 2] == 255 and img[0, 0] == 0

    def test_low_maxval_raw_sample_out_of_range(self, tmp_path):
        p = tmp_path / "over.pgm"
        p.write_bytes(b"P5\n2 1\n15\n\x03\x10")
        with pytest.raises(pgm.PgmError, match="out of range"):
            pgm.read_pgm(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(pgm.PgmError, match="magic"):
            pgm.read_pgm(p)

    @pytest.mark.parametrize("data", [b"P5", b"P5\n3"])
    def test_short_header_rejected(self, tmp_path, data):
        p = tmp_path / "short.pgm"
        p.write_bytes(data)
        with pytest.raises(pgm.PgmError, match="header"):
            pgm.read_pgm(p)

    def test_truncated_raw_rejected(self, tmp_path):
        p = tmp_path / "trunc.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(pgm.PgmError, match="truncated"):
            pgm.read_pgm(p)

    def test_gradient_flows_through_encoder(self):
        enc = make_encoder(seed=5)
        # f64 copy of the encoder for a quick backward smoke test
        for p in enc.params().values():
            p.data = p.data.astype(np.float64)
        grid = enc.forward(np.random.default_rng(5).random((32, 32)))
        loss = T.sum_all(E.flatten_grid(E.positional_encode_2d(grid)))
        T.backward(loss)
        assert enc.stages[0]["w"].grad is not None
