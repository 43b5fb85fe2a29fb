"""Synthetic data: rendering, augmentation, manifests, datasets, ROVER."""

import numpy as np
import pytest

from ssmocr import synth as S
from ssmocr.pgm import read_pgm
from ssmocr.rover import Slot, rover_combine


class TestRenderLine:
    def test_empty_text_blank_image(self):
        gs = S.GlyphSet(scale=2)
        img = S.render_line("", gs, height_px=40)
        assert img.shape == (40, 2 * gs.margin)
        assert np.all(img == 255)

    def test_ink_count_matches_bitmap_popcount(self):
        gs = S.GlyphSet(scale=3)
        img = S.render_line("I", gs)
        pop = int(gs.bitmap("I").sum())
        assert int((img == 0).sum()) == pop * gs.scale * gs.scale

    def test_deterministic_bytes(self):
        a = S.render_line("Hello, world!", S.GlyphSet(scale=2))
        b = S.render_line("Hello, world!", S.GlyphSet(scale=2))
        assert a.tobytes() == b.tobytes()

    def test_ink_monotone_in_text_length(self):
        gs = S.GlyphSet(scale=2)
        prev = -1
        for k in range(1, 8):
            ink = int((S.render_line("g" * k, gs) == 0).sum())
            assert ink >= prev
            prev = ink

    def test_fallback_box_used_when_present(self):
        gs = S.GlyphSet(scale=2)
        img = S.render_line("€", gs)
        assert int((img == 0).sum()) > 0

    def test_accented_glyphs_distinct(self):
        gs = S.GlyphSet()
        assert not np.array_equal(gs.bitmap("e"), gs.bitmap("é"))
        assert not np.array_equal(gs.bitmap("é"), gs.bitmap("è"))
        assert not np.array_equal(gs.bitmap("c"), gs.bitmap("ç"))

    def test_too_small_height(self):
        with pytest.raises(S.RenderError, match="height"):
            S.render_line("a", S.GlyphSet(scale=3), height_px=10)


class TestRenderParagraph:
    def test_single_line_matches_line_render(self):
        gs = S.GlyphSet(scale=2)
        img, transcript = S.render_paragraph(["abc"], gs)
        core = S._render_core("abc", gs)
        assert transcript == "abc"
        assert img.shape == (core.shape[0] + 2 * gs.margin, core.shape[1])

    def test_three_line_height_arithmetic(self):
        gs = S.GlyphSet(scale=2)
        leading = 2 * gs.scale
        img, _ = S.render_paragraph(["a", "bb", "c"], gs)
        expect = 3 * gs.line_core_h + 2 * leading + 2 * gs.margin
        assert img.shape[0] == expect

    def test_transcript_joins_with_newline(self):
        _, t = S.render_paragraph(["one", "two"], S.GlyphSet(scale=2))
        assert t == "one\ntwo"

    def test_line_cap(self):
        with pytest.raises(S.RenderError, match="1..10"):
            S.render_paragraph(["x"] * 11, S.GlyphSet(scale=2))


def uncached_core(text, gs):
    """The glyph band as drawn before glyph blocks were cached: the bit
    table and its np.kron scaling rebuilt for every character."""
    m = gs.margin
    width = 2 * m + (len(text) * gs.cell_w - S.GLYPH_SPACING * gs.scale if text else 0)
    img = np.full((gs.line_core_h, width), 255, dtype=np.uint8)
    x = m
    for ch in text:
        block = np.kron(gs.bitmap(ch), np.ones((gs.scale, gs.scale), dtype=bool))
        img[:, x : x + S.GLYPH_W * gs.scale][block] = 0
        x += gs.cell_w
    return img


class TestGlyphCache:
    @pytest.mark.parametrize("scale", [1, 2, 3, 4])
    def test_cached_block_is_the_scaled_bitmap_and_read_only(self, scale):
        gs = S.GlyphSet(scale=scale)
        for ch in [*S.FONT, "\u20ac"]:
            block = S._glyph_block(ch, scale)
            expect = np.kron(gs.bitmap(ch), np.ones((scale, scale), dtype=bool))
            assert block.dtype == expect.dtype and np.array_equal(block, expect)
            assert not block.flags.writeable
            assert S._glyph_block(ch, scale) is block

    @pytest.mark.parametrize("scale", [1, 3])
    def test_renders_are_byte_identical_to_the_uncached_formula(self, monkeypatch, scale):
        gs = S.GlyphSet(scale=scale)
        text = "".join(S.FONT) + "\u20ac~"
        lines = ["Quick brown fox.", text, "", "\u00e9t\u00e9 \u20ac 42"]
        got = [S.render_line(text, gs), S.render_paragraph(lines, gs)[0]]
        monkeypatch.setattr(S, "_render_core", uncached_core)
        expect = [S.render_line(text, gs), S.render_paragraph(lines, gs)[0]]
        for g, e in zip(got, expect):
            assert g.shape == e.shape and g.tobytes() == e.tobytes()


class TestAugment:
    def test_zero_probability_is_identity(self):
        img = S.render_line("abc", S.GlyphSet(scale=2))
        spec = S.AugmentSpec(prob=0.0, seed=1)
        assert np.array_equal(S.augment(img, spec), img)

    def test_fixed_seed_bit_deterministic(self):
        img = S.render_line("noise", S.GlyphSet(scale=2))
        spec = S.AugmentSpec(prob=1.0, seed=42)
        a = S.augment(img, spec)
        b = S.augment(img, spec)
        assert np.array_equal(a, b)
        c = S.augment(img, S.AugmentSpec(prob=1.0, seed=43))
        assert not np.array_equal(a, c)

    def test_noise_statistics(self):
        img = np.full((1000, 1000), 128, dtype=np.uint8)
        sigma = np.random.default_rng(5).uniform(4.0, 12.0)  # the op's first draw
        out = S._apply_op("noise", img, np.random.default_rng(5)).astype(np.float64)
        assert abs(out.mean() - 128.0) <= 0.1
        assert abs(out.std() - sigma) <= 0.05 * sigma

    def test_output_stays_in_range(self):
        img = S.render_line("range", S.GlyphSet(scale=2))
        out = S.augment(img, S.AugmentSpec(prob=1.0, seed=7))
        assert out.dtype == np.uint8
        assert out.min() >= 0 and out.max() <= 255


class TestManifest:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("")
        assert S.load_manifest(p) == []

    def test_roundtrip_with_escapes(self, tmp_path):
        p = tmp_path / "m.tsv"
        samples = [
            S.Sample("a.pgm", "plain text"),
            S.Sample("b.pgm", "tab\there and\nnewline + back\\slash"),
        ]
        S.save_manifest(p, samples)
        back = S.load_manifest(p)
        assert back == samples
        assert back[1].line_count == 2

    def test_missing_tab_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("a.pgm\tok\nno tab here\n")
        with pytest.raises(S.ManifestError, match=":2"):
            S.load_manifest(p)


class TestMakeDataset:
    def test_split_counts(self, tmp_path):
        cfg = S.SynthConfig(out_dir=str(tmp_path), n_samples=100, seed=1,
                            line_chars=(5, 10), glyph_scale=2, line_height=32)
        info = S.make_dataset(cfg)
        assert info.counts == {"train": 80, "valid": 10, "test": 10}
        train = S.load_manifest(info.manifests["train"])
        assert len(train) == 80
        img = read_pgm(tmp_path / train[0].image_path)
        assert img.shape[0] == 32

    def test_same_seed_identical_manifests(self, tmp_path):
        cfg_a = S.SynthConfig(out_dir=str(tmp_path / "a"), n_samples=20, seed=9,
                              glyph_scale=2)
        cfg_b = S.SynthConfig(out_dir=str(tmp_path / "b"), n_samples=20, seed=9,
                              glyph_scale=2)
        S.make_dataset(cfg_a)
        S.make_dataset(cfg_b)
        for split in ("train", "valid", "test"):
            assert (tmp_path / "a" / f"{split}.tsv").read_text() == \
                   (tmp_path / "b" / f"{split}.tsv").read_text()

    def test_transcripts_covered_by_glyphs(self, tmp_path):
        cfg = S.SynthConfig(out_dir=str(tmp_path), n_samples=30, seed=3,
                            glyph_scale=2)
        info = S.make_dataset(cfg)
        gs = S.GlyphSet()
        for split in ("train", "valid", "test"):
            for s in S.load_manifest(info.manifests[split]):
                assert not gs.coverage(s.transcript)

    def test_text_file_char_without_glyph_rejected(self, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("price 5€\n", encoding="utf-8")
        cfg = S.SynthConfig(out_dir=str(tmp_path / "d"), n_samples=2,
                            text_file=str(words))
        with pytest.raises(S.RenderError, match="'€'"):
            S.make_dataset(cfg)

    @pytest.mark.parametrize("field,value", [
        ("line_chars", (0, 3)), ("line_chars", (5, 3)),
        ("paragraph_lines", (0, 2)), ("paragraph_lines", (3, 2)),
        ("paragraph_lines", (1, S.MAX_PARAGRAPH_LINES + 1)),
        ("glyph_scale", 0), ("splits", (1.2, -0.1, -0.1)), ("splits", (0.5, 0.5)),
        ("line_height", 20),  # the default glyph_scale 3 draws 21 rows
    ])
    def test_unusable_setting_named(self, tmp_path, field, value):
        with pytest.raises(ValueError, match=field):
            S.SynthConfig(out_dir=str(tmp_path), **{field: value})

    def test_rounded_splits_never_exceed_the_samples(self, tmp_path):
        cfg = S.SynthConfig(out_dir=str(tmp_path), n_samples=3,
                            splits=(0.5, 0.5, 0.0), glyph_scale=2)
        info = S.make_dataset(cfg)
        assert info.counts == {"train": 2, "valid": 1, "test": 0}

    def test_paragraph_kind(self, tmp_path):
        cfg = S.SynthConfig(out_dir=str(tmp_path), n_samples=6, seed=5,
                            kind="paragraph", paragraph_lines=(2, 3),
                            glyph_scale=2, line_chars=(4, 8))
        info = S.make_dataset(cfg)
        samples = S.load_manifest(info.manifests["train"])
        assert any(s.line_count >= 2 for s in samples)


class TestRover:
    def test_single_hypothesis_identity(self):
        assert rover_combine(["exact text"]) == "exact text"

    def test_unanimous_idempotent(self):
        assert rover_combine(["ab", "ab"], [2.0, 5.0]) == "ab"

    def test_weighted_majority_example(self):
        assert rover_combine(["abc", "abc", "abd"], [5, 3, 3]) == "abc"

    def test_majority_can_override_heavy_engine(self):
        # two light engines agreeing (3+3) beat one heavy engine (5)
        assert rover_combine(["abX", "abY", "abY"], [5, 3, 3]) == "abY"

    def test_insertion_votes_epsilon(self):
        # the extra char appears in only one of three equal engines
        assert rover_combine(["ab", "axb", "ab"]) == "ab"

    def test_deletion_votes_epsilon(self):
        assert rover_combine(["ab", "a", "ab"]) == "ab"

    def test_tie_prefers_heavier_engine(self):
        assert rover_combine(["a", "b"], [3, 2]) == "a"
        assert rover_combine(["a", "b"], [2, 3]) == "b"

    def test_overall_tie_prefers_earliest_engine(self):
        assert rover_combine(["a", "b"], [2, 2]) == "a"

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            rover_combine([])

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            rover_combine(["a"], [1, 2])
        with pytest.raises(ValueError):
            rover_combine(["a"], [0.0])

    def test_permutation_covariance_no_ties(self):
        hyps = ["street", "stroet", "strett"]
        weights = [5.0, 3.0, 2.0]
        base = rover_combine(hyps, weights)
        order = [2, 0, 1]
        assert rover_combine([hyps[i] for i in order],
                             [weights[i] for i in order]) == base

    def test_slot_winner_rules(self):
        slot = Slot()
        slot.add("x", 2.0, engine=1)
        slot.add("y", 2.0, engine=0)
        assert slot.winner() == "y"  # equal weight, earlier engine wins
        slot.add("x", 0.5, engine=2)
        assert slot.winner() == "x"  # now heavier in total
