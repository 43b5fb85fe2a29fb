"""Edit-distance evaluation: CER, WER, and operation counts.

Distances are unit-cost Levenshtein over Unicode scalar values (or
whitespace-split words); corpus rates come from summed counts, never
from averaging per-sample rates.
"""

from __future__ import annotations

import csv
import unicodedata
from dataclasses import dataclass, field


class UndefinedMetricError(ValueError):
    """Empty reference: the normalization N is zero."""


def _alignment(mismatch, m):
    """One minimal unit-cost alignment of n reference positions with m
    hypothesis positions, where ``mismatch[i][j]`` is true when reference
    position i does not match hypothesis position j.

    Returns (distance, ops): ops run from start to end, one
    (kind, i, j) per step, with i and j the reference and hypothesis
    positions the step starts from. "align" pairs i with j (a match or a
    substitution), "delete" consumes i alone and "insert" consumes j alone.
    The backtrace from the end prefers align, then delete, then insert.
    """
    n = len(mismatch)
    dist = [list(range(m + 1))]
    for i, miss in enumerate(mismatch, start=1):
        prev = dist[-1]
        row = [i]
        left = i
        for diag, up, cost in zip(prev, prev[1:], miss):
            left = min(diag + cost, up + 1, left + 1)
            row.append(left)
        dist.append(row)
    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + mismatch[i - 1][j - 1]:
            i, j = i - 1, j - 1
            ops.append(("align", i, j))
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            i -= 1
            ops.append(("delete", i, j))
        else:
            j -= 1
            ops.append(("insert", i, j))
    ops.reverse()
    return dist[n][m], ops


def edit_distance(ref, hyp):
    """Minimal unit-cost alignment via dynamic programming.

    Returns (distance, substitutions, deletions, insertions) from one
    optimal backtrace; ties prefer substitution over deletion over
    insertion.
    """
    hyp = list(hyp)
    mismatch = [[r != h for h in hyp] for r in ref]
    dist, ops = _alignment(mismatch, len(hyp))
    s = sum(1 for kind, i, j in ops if kind == "align" and mismatch[i][j])
    d = sum(1 for kind, _, _ in ops if kind == "delete")
    ins = sum(1 for kind, _, _ in ops if kind == "insert")
    return dist, s, d, ins


def cer(ref: str, hyp: str, normalize: bool = False) -> float:
    """Character error rate in percent; errors on an empty reference."""
    if normalize:
        ref = unicodedata.normalize("NFC", ref)
        hyp = unicodedata.normalize("NFC", hyp)
    if not ref:
        raise UndefinedMetricError("CER undefined for an empty reference")
    dist, _, _, _ = edit_distance(ref, hyp)
    return dist / len(ref) * 100.0


def wer(ref: str, hyp: str) -> float:
    """Word error rate in percent; words split on whitespace runs."""
    ref_words = ref.split()
    if not ref_words:
        raise UndefinedMetricError("WER undefined for a whitespace-only reference")
    dist, _, _, _ = edit_distance(ref_words, hyp.split())
    return dist / len(ref_words) * 100.0


@dataclass
class SampleScore:
    sample_id: str
    ref_chars: int
    ref_words: int
    s: int
    d: int
    i: int
    s_w: int
    d_w: int
    i_w: int

    @property
    def cer(self) -> float:
        return (self.s + self.d + self.i) / self.ref_chars * 100.0


@dataclass
class EvalReport:
    rows: list[SampleScore] = field(default_factory=list)

    def add(self, sample_id: str, ref: str, hyp: str) -> SampleScore:
        if not ref:
            raise UndefinedMetricError(f"{sample_id}: empty reference")
        _, s, d, i = edit_distance(ref, hyp)
        ref_words = ref.split()
        if ref_words:
            _, s_w, d_w, i_w = edit_distance(ref_words, hyp.split())
        else:
            s_w = d_w = i_w = 0
        row = SampleScore(sample_id, len(ref), len(ref_words), s, d, i, s_w, d_w, i_w)
        self.rows.append(row)
        return row

    @property
    def n_chars(self) -> int:
        return sum(r.ref_chars for r in self.rows)

    @property
    def n_words(self) -> int:
        return sum(r.ref_words for r in self.rows)

    @property
    def cer(self) -> float:
        """Corpus CER from summed counts."""
        if self.n_chars == 0:
            raise UndefinedMetricError("no reference characters scored")
        return sum(r.s + r.d + r.i for r in self.rows) / self.n_chars * 100.0

    @property
    def wer(self) -> float:
        if self.n_words == 0:
            raise UndefinedMetricError("no reference words scored")
        return sum(r.s_w + r.d_w + r.i_w for r in self.rows) / self.n_words * 100.0

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["sample_id", "ref_chars", "S", "D", "I", "cer",
                        "ref_words", "S_w", "D_w", "I_w"])
            for r in self.rows:
                w.writerow([r.sample_id, r.ref_chars, r.s, r.d, r.i,
                            f"{r.cer:.4f}", r.ref_words, r.s_w, r.d_w, r.i_w])

    def summary(self) -> str:
        lines = [
            f"samples: {len(self.rows)}",
            f"reference chars: {self.n_chars}",
            f"reference words: {self.n_words}",
            f"CER: {self.cer:.4f}%",
        ]
        try:
            lines.append(f"WER: {self.wer:.4f}%")
        except UndefinedMetricError:
            lines.append("WER: undefined (no words)")
        return "\n".join(lines)

    def write_summary(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.summary() + "\n")
