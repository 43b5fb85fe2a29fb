"""Character inventory shared by all decoding heads.

One dense id table covers the control symbols and the characters:
blank=0 (CTC only), pad=1, sos=2, eos=3, characters from 4 upward. The
CTC head works in its own compact space of size |V|+1 (blank plus the
characters) reached through to_ctc/from_ctc.
"""

from __future__ import annotations

import numpy as np

BLANK = 0
PAD = 1
SOS = 2
EOS = 3
N_CONTROL = 4

class VocabularyError(ValueError):
    """Text or token id outside the vocabulary."""


class Vocabulary:
    def __init__(self, chars):
        chars = list(chars)
        if len(set(chars)) != len(chars):
            raise VocabularyError("duplicate characters in vocabulary")
        for ch in chars:
            if not isinstance(ch, str) or len(ch) != 1:
                raise VocabularyError(f"not a single character: {ch!r}")
        self.chars = chars
        self._char_to_id = {ch: N_CONTROL + k for k, ch in enumerate(chars)}

    @classmethod
    def from_texts(cls, texts) -> "Vocabulary":
        return cls(sorted({ch for t in texts for ch in t}))

    @property
    def size(self) -> int:
        """Full table size: controls plus characters."""
        return N_CONTROL + len(self.chars)

    @property
    def ctc_size(self) -> int:
        """CTC output size: blank plus characters."""
        return 1 + len(self.chars)

    def encode(self, text: str) -> np.ndarray:
        ids = np.empty(len(text), dtype=np.int64)
        for k, ch in enumerate(text):
            try:
                ids[k] = self._char_to_id[ch]
            except KeyError:
                raise VocabularyError(f"character {ch!r} not in vocabulary") from None
        return ids

    def decode(self, ids) -> str:
        """Ids back to text; control ids are dropped."""
        out = []
        for i in ids:
            i = int(i)
            if i >= N_CONTROL:
                if i >= self.size:
                    raise VocabularyError(f"token id {i} out of range [0, {self.size})")
                out.append(self.chars[i - N_CONTROL])
        return "".join(out)

    def to_ctc(self, ids) -> np.ndarray:
        """Full-table character ids to the compact CTC space (char k -> k+1)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < N_CONTROL or ids.max() >= self.size):
            raise VocabularyError("only character ids map into the CTC space")
        return ids - N_CONTROL + 1

    def from_ctc(self, ctc_ids) -> np.ndarray:
        ctc_ids = np.asarray(ctc_ids, dtype=np.int64)
        if ctc_ids.size and (ctc_ids.min() < 1 or ctc_ids.max() >= self.ctc_size):
            raise VocabularyError("CTC id out of character range")
        return ctc_ids - 1 + N_CONTROL

    def __len__(self) -> int:
        return len(self.chars)

    def __contains__(self, ch: str) -> bool:
        return ch in self._char_to_id

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.chars == other.chars
