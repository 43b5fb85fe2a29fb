"""Vision encoder: shape law, positional encoding, flattening, PGM I/O."""

import numpy as np
import pytest

from ssmocr import encoder as E
from ssmocr.config import PRESET_OVERRIDES
from ssmocr import pgm
from ssmocr import tensor as T
from ssmocr.tensor import Tensor
from memtrace import traced_bytes


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


def whole_map_forward(enc, image):
    """The five stages over whole maps, each op once per stage: the
    reference every strip walk must equal."""
    x = Tensor(image[None, :, :], dtype=enc.stages[0]["w"].dtype)
    for s, st in enumerate(enc.stages):
        x = T.conv2d(x, st["w"], stride=1, padding=1)
        x = T.batchnorm2d(x, st["norm_g"], st["norm_b"],
                          enc.buffers_[f"stage{s}.running_mean"],
                          enc.buffers_[f"stage{s}.running_var"], training=enc.training)
        x = T.maxpool2d(T.silu(x), st["pool"])
    return T.permute(x, (1, 2, 0))


def eval_encoder(dtype, seed=3):
    """make_encoder's shape in eval mode, with nonzero running statistics
    and batchnorm gains and shifts away from 1 and 0."""
    enc = E.ConvEncoder(16, (4, 4, 8, 8), PAPER_POOLING, rng=np.random.default_rng(seed),
                        dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    for name, buf in enc.buffers_.items():
        buf[...] = (rng.normal(0.0, 0.3, buf.shape) if name.endswith("mean")
                    else rng.uniform(0.5, 2.0, buf.shape))
    for st in enc.stages:
        st["norm_g"].data[...] = rng.uniform(0.5, 1.5, st["norm_g"].shape)
        st["norm_b"].data[...] = rng.normal(0.0, 0.2, st["norm_b"].shape)
    enc.training = False
    return enc


def ink_image(h, w, seed=0):
    """Random gray with exact-zero (black ink) and exact-one pixels."""
    rng = np.random.default_rng(seed)
    img = rng.random((h, w))
    img[rng.random((h, w)) < 0.2] = 0.0
    img[rng.random((h, w)) < 0.2] = 1.0
    return img.astype(np.float32)


def count_convs(monkeypatch, enc):
    """Spy on T.conv2d: returns a list that gets one stage index per call."""
    stage_of = {id(st["w"]): s for s, st in enumerate(enc.stages)}
    calls, conv2d = [], T.conv2d

    def spy(x, w, *args, **kw):
        calls.append(stage_of[id(w)])
        return conv2d(x, w, *args, **kw)

    monkeypatch.setattr(T, "conv2d", spy)
    return calls


def cos_weighted_sum(t):
    return T.sum_all(T.mul(t, Tensor(np.cos(np.arange(t.size)).reshape(t.shape))))


class TestEvalStrips:
    """Off the tape in eval mode each stage walks row strips of its
    output; the grid equals the whole-map stages bit for bit."""

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("h,w,conv_elems,strip_elems,stage0_strips", [
        (64, 80, 1, 1 << 30, 1),          # one strip: the whole map
        (64, 80, 1, 4 * 32 * 80, 2),      # two strips of 32 rows
        (64, 80, 1, 1, 32),               # every strip one pool row
        (64, 80, 3 * 9 * 80, 1, 11),      # 3-row GEMM blocks: 6-row strips
        (70, 90, 1, 4 * 8 * 90, 9),       # 70 rows: the last strip has 6
        (69, 90, 1, 4 * 8 * 90, 9),       # odd height: a ragged pool row
        (32, 8, 1, 1, 16),                # the smallest image the pooling allows
        (64, 80, 1 << 18, 1 << 18, 1),    # the shipped sizes: whole maps here
    ])
    def test_strips_equal_the_whole_map_bitwise(self, monkeypatch, dtype, h, w,
                                                conv_elems, strip_elems, stage0_strips):
        enc = eval_encoder(dtype)
        assert enc.min_size == (32, 8)
        img = ink_image(h, w, seed=h + w)
        monkeypatch.setattr(T, "CONV_BLOCK_ELEMS", conv_elems)
        with T.no_grad():
            expect = whole_map_forward(enc, img).data
            monkeypatch.setattr(E, "STRIP_ELEMS", strip_elems)
            calls = count_convs(monkeypatch, enc)
            got = enc.forward(img).grid.data
        assert calls.count(0) == stage0_strips
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()

    def test_recorded_eval_forward_runs_whole_maps_and_its_backward(self, monkeypatch):
        enc = eval_encoder("f64")
        img = ink_image(40, 48, seed=7).astype(np.float64)
        monkeypatch.setattr(T, "CONV_BLOCK_ELEMS", 1)
        monkeypatch.setattr(E, "STRIP_ELEMS", 1)  # strips would be one pool row
        calls = count_convs(monkeypatch, enc)
        grid = enc.forward(img).grid
        assert calls == [0, 1, 2, 3, 4] and grid.node is not None
        T.backward(cos_weighted_sum(grid))
        grads = {k: p.grad.copy() for k, p in enc.params().items()}
        for p in enc.params().values():
            p.grad = None
        ref = whole_map_forward(enc, img)
        assert grid.data.tobytes() == ref.data.tobytes()
        T.backward(cos_weighted_sum(ref))
        for k, p in enc.params().items():
            assert p.grad.tobytes() == grads[k].tobytes(), k

    def test_training_runs_whole_maps_even_off_the_tape(self, monkeypatch):
        enc = eval_encoder("f32")
        enc.training = True
        img = ink_image(40, 48, seed=8)
        before = {k: v.copy() for k, v in enc.buffers_.items()}
        monkeypatch.setattr(T, "CONV_BLOCK_ELEMS", 1)
        monkeypatch.setattr(E, "STRIP_ELEMS", 1)
        calls = count_convs(monkeypatch, enc)
        with T.no_grad():
            got = enc.forward(img).grid.data
            assert calls == [0, 1, 2, 3, 4]
            after = {k: v.copy() for k, v in enc.buffers_.items()}
            for k, v in before.items():
                enc.buffers_[k][...] = v
            expect = whole_map_forward(enc, img).data
        assert got.tobytes() == expect.tobytes()
        for k, v in enc.buffers_.items():
            assert after[k].tobytes() == v.tobytes(), k

    @pytest.mark.parametrize("stage,param", [(0, "w"), (2, "w"), (3, "norm_g")])
    def test_nan_weight_raises_from_its_op_on_the_strip_path(self, monkeypatch,
                                                             stage, param):
        # halos and stage outputs are not re-checked: the op that first
        # sees the NaN names it
        enc = eval_encoder("f32")
        enc.stages[stage][param].data[0, ...] = np.nan
        monkeypatch.setattr(T, "CONV_BLOCK_ELEMS", 1)
        monkeypatch.setattr(E, "STRIP_ELEMS", 1)  # 32 stage-0 strips
        calls = count_convs(monkeypatch, enc)
        op = "conv2d" if param == "w" else "batchnorm2d"
        with T.no_grad(), pytest.raises(T.NonFiniteError, match=f"^{op}:"):
            enc.forward(ink_image(64, 80, seed=2))
        assert calls[-1] == stage and calls.count(stage) == 1  # its first strip
        assert calls.count(0) == (1 if stage == 0 else 32)

    def test_paragraph_peak_stays_below_16_mib(self):
        # decode-mixed's 6 x 100-character paragraph is 168 x 1,809 px;
        # whole maps peaked at 41.7 MiB, a stage-0 map alone being 18.5
        from ssmocr.config import RunConfig

        cfg = RunConfig()
        enc = E.ConvEncoder(cfg.d_model, cfg.enc_channels, cfg.enc_pooling,
                            rng=np.random.default_rng(5))
        enc.training = False
        img = ink_image(168, 1809, seed=1)
        with T.no_grad():
            grid, peak, _ = traced_bytes(lambda: enc.forward(img))
        assert grid.grid.shape == (6, 227, cfg.d_model)
        assert peak < 16 * 2**20


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
