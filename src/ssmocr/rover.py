"""Weighted-vote combination of competing transcriptions.

Hypotheses are aligned one after another into a character-level
confusion network by unit-cost dynamic programming (epsilon slots
allowed); each slot then emits the candidate with the largest summed
weight. Ties fall to the candidate backed by the single heaviest
engine, then to the earliest engine in list order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import _alignment

EPS = ""  # the empty candidate inside a slot


@dataclass
class Slot:
    # symbol -> [summed weight, heaviest single engine weight, earliest engine]
    votes: dict = field(default_factory=dict)

    def add(self, sym: str, weight: float, engine: int) -> None:
        entry = self.votes.get(sym)
        if entry is None:
            self.votes[sym] = [weight, weight, engine]
        else:
            entry[0] += weight
            if weight > entry[1]:
                entry[1] = weight
            if engine < entry[2]:
                entry[2] = engine

    def winner(self) -> str:
        return max(self.votes.items(),
                   key=lambda kv: (kv[1][0], kv[1][1], -kv[1][2]))[0]


def _align(network: list[Slot], hyp: str):
    """Unit-cost DP between existing slots and hypothesis characters.

    Matching a character costs 0 when the slot already carries it;
    anything else costs 1. Backtrace preference: match/substitute, then
    slot-deletion (epsilon), then insertion of a new slot.
    """
    mismatch = [[ch not in slot.votes for ch in hyp] for slot in network]
    _, ops = _alignment(mismatch, len(hyp))
    # (kind, slot_index, char or None); an insert's index is the slot it precedes
    return [("skip", i, None) if kind == "delete" else (kind, i, hyp[j])
            for kind, i, j in ops]


def rover_combine(hypotheses, weights=None) -> str:
    """Combine transcriptions by per-slot weighted vote."""
    hypotheses = list(hypotheses)
    if not hypotheses:
        raise ValueError("rover_combine needs at least one hypothesis")
    if weights is None:
        weights = [1.0] * len(hypotheses)
    weights = [float(w) for w in weights]
    if len(weights) != len(hypotheses):
        raise ValueError(f"{len(weights)} weights for {len(hypotheses)} hypotheses")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")

    network = [Slot() for _ in hypotheses[0]]
    for slot, ch in zip(network, hypotheses[0]):
        slot.add(ch, weights[0], 0)
    aligned = [(0, weights[0])]  # engines already inside the network

    for engine in range(1, len(hypotheses)):
        hyp, w = hypotheses[engine], weights[engine]
        ops = _align(network, hyp)
        rebuilt = []
        for kind, idx, ch in ops:
            if kind == "align":
                slot = network[idx]
                slot.add(ch, w, engine)
                rebuilt.append(slot)
            elif kind == "skip":
                slot = network[idx]
                slot.add(EPS, w, engine)
                rebuilt.append(slot)
            else:  # insert: previously aligned engines implicitly voted epsilon
                slot = Slot()
                for prev_engine, prev_w in aligned:
                    slot.add(EPS, prev_w, prev_engine)
                slot.add(ch, w, engine)
                rebuilt.append(slot)
        network = rebuilt
        aligned.append((engine, w))

    return "".join(slot.winner() for slot in network)
