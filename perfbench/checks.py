"""Output checks and failure accounting, independent of the library's own
decoding code. Every check runs outside the timed region."""

from __future__ import annotations

import contextlib
import traceback

import numpy as np
from ssmocr.vocab import BLANK, EOS, N_CONTROL

LOGIT_TOL = 1e-5                          # teacher-forced vs incremental, as in c04


class Ledger:
    """Counts attempted and failed operations; keeps a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def call(self, what: str, fn, *args):
        """Run one request; an exception is a failed operation, not a crash."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            self.failures.append(f"{what}: {traceback.format_exc(limit=3)}")
            return None


def ctc_reference(frame_logits: np.ndarray, chars) -> str:
    """Argmax per frame (ties to the lowest id), merge repeats, drop blanks;
    CTC class c >= 1 is character c - 1."""
    out, prev = [], None
    for c in np.argmax(frame_logits, axis=1):
        c = int(c)
        if c != prev and c != BLANK:
            out.append(chars[c - 1])
        prev = c
    return "".join(out)


def nar_reference(slot_logits: np.ndarray, chars) -> str:
    """Argmax per slot, cut at the first eos; control ids carry no text."""
    out = []
    for s in np.argmax(slot_logits, axis=1):
        s = int(s)
        if s == EOS:
            break
        if s >= N_CONTROL:
            out.append(chars[s - N_CONTROL])
    return "".join(out)


@contextlib.contextmanager
def capture_first_arg(module, name: str):
    """Record the first argument of every call to module.<name>."""
    seen = []
    orig = getattr(module, name)

    def capture(*args, **kwargs):
        seen.append(args[0])
        return orig(*args, **kwargs)

    setattr(module, name, capture)
    try:
        yield seen
    finally:
        setattr(module, name, orig)


def max_logit_diff(teacher: np.ndarray, step_logits: np.ndarray) -> float:
    n = step_logits.shape[0]
    if teacher.shape[0] < n:
        return float("inf")
    return float(np.abs(teacher[:n] - step_logits).max()) if n else 0.0
