"""CER/WER against an independent quadratic DP oracle."""

import numpy as np
import pytest

from ssmocr import metrics as M
from ssmocr.rover import Slot, _align


def dp_distance_oracle(a, b):
    """Plain quadratic Levenshtein, no backtrace, written independently."""
    a, b = list(a), list(b)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def random_string(rng, alphabet="abcd ", lo=0, hi=12):
    n = int(rng.integers(lo, hi + 1))
    return "".join(rng.choice(list(alphabet)) for _ in range(n))


class TestEditDistance:
    def test_identical(self):
        assert M.edit_distance("same", "same") == (0, 0, 0, 0)

    def test_kitten_sitting(self):
        dist, s, d, i = M.edit_distance("kitten", "sitting")
        assert dist == 3
        assert (s, i, d) == (2, 1, 0)

    def test_pure_insertion(self):
        dist, s, d, i = M.edit_distance("", "ab")
        assert (dist, s, d, i) == (2, 0, 0, 2)

    def test_counts_sum_to_distance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = random_string(rng)
            b = random_string(rng)
            dist, s, d, i = M.edit_distance(a, b)
            assert s + d + i == dist

    def test_matches_oracle_thousand_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a = random_string(rng)
            b = random_string(rng)
            assert M.edit_distance(a, b)[0] == dp_distance_oracle(a, b)

    def test_symmetry_of_distance(self):
        # the value is symmetric; the S/D/I mix of one optimal backtrace
        # need not mirror because distinct optimal alignments can trade a
        # substitution for an insertion plus a deletion
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = random_string(rng)
            b = random_string(rng)
            da, sa, dela, insa = M.edit_distance(a, b)
            db, sb, delb, insb = M.edit_distance(b, a)
            assert da == db
            assert sa + dela + insa == da and sb + delb + insb == db

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b, c = (random_string(rng) for _ in range(3))
            dab = M.edit_distance(a, b)[0]
            dbc = M.edit_distance(b, c)[0]
            dac = M.edit_distance(a, c)[0]
            assert dac <= dab + dbc


    def test_rover_alignment_counts_match(self):
        # one candidate per slot makes the ROVER alignment an edit alignment
        rng = np.random.default_rng(12)
        for _ in range(300):
            a, b = random_string(rng), random_string(rng)
            network = []
            for ch in a:
                network.append(Slot())
                network[-1].add(ch, 1.0, 0)
            ops = _align(network, b)
            s = sum(1 for kind, i, ch in ops if kind == "align" and ch != a[i])
            d = sum(1 for kind, _, _ in ops if kind == "skip")
            ins = sum(1 for kind, _, _ in ops if kind == "insert")
            assert (s, d, ins) == M.edit_distance(a, b)[1:]


class TestCer:
    def test_published_example(self):
        assert M.cer("kitten", "sitting") == 50.0

    def test_identity(self):
        assert M.cer("abc", "abc") == 0.0

    def test_single_deletion(self):
        assert M.cer("a", "") == 100.0

    def test_empty_reference_rejected(self):
        with pytest.raises(M.UndefinedMetricError):
            M.cer("", "abc")

    def test_unicode_scalar_units(self):
        # decomposed vs precomposed differ unless normalization is requested
        ref = "café"
        hyp = "café"
        assert M.cer(ref, hyp) > 0
        assert M.cer(ref, hyp, normalize=True) == 0.0


class TestWer:
    def test_deletion_of_one_word(self):
        assert abs(M.wer("the cat sat", "the cat") - 100.0 / 3.0) < 1e-12

    def test_identity(self):
        assert M.wer("a b c", "a b c") == 0.0

    def test_swap_costs_two(self):
        assert M.wer("a b", "b a") == 100.0

    def test_whitespace_only_reference_rejected(self):
        with pytest.raises(M.UndefinedMetricError):
            M.wer("   ", "a")


class TestEvalReport:
    def test_corpus_cer_from_summed_counts(self):
        rep = M.EvalReport()
        rep.add("s1", "kitten", "sitting")
        rep.add("s2", "abc", "abc")
        # 3 errors over 9 reference chars, not the mean of 50% and 0%
        assert abs(rep.cer - 3 / 9 * 100.0) < 1e-12

    def test_consistency_with_per_sample_sums(self):
        rng = np.random.default_rng(4)
        rep = M.EvalReport()
        total_err = total_n = 0
        for k in range(50):
            ref = random_string(rng, lo=1)
            hyp = random_string(rng)
            row = rep.add(f"s{k}", ref, hyp)
            total_err += row.s + row.d + row.i
            total_n += row.ref_chars
        assert abs(rep.cer - total_err / total_n * 100.0) < 1e-12

    def test_csv_and_summary(self, tmp_path):
        rep = M.EvalReport()
        rep.add("x", "ab", "ac")
        rep.write_csv(tmp_path / "per_sample.csv")
        rep.write_summary(tmp_path / "summary.txt")
        csv_text = (tmp_path / "per_sample.csv").read_text()
        assert csv_text.splitlines()[0].startswith("sample_id,")
        assert "CER: 50.0000%" in (tmp_path / "summary.txt").read_text()
