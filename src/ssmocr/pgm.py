"""8-bit PGM (portable graymap) reading and writing.

Reads both plain (P2) and raw (P5) variants, rescaling samples of a
maxval below 255 to 0..255; writes raw P5. All images are (H, W) uint8
arrays.
"""

from __future__ import annotations

import numpy as np


class PgmError(ValueError):
    """Malformed or unsupported PGM data."""


def _tokens(data: bytes):
    """Header tokens, skipping '#' comments, tracking the byte offset."""
    pos = 0
    n = len(data)
    while pos < n:
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            start = pos
            while pos < n and not data[pos : pos + 1].isspace():
                pos += 1
            yield data[start:pos], pos
    yield None, pos


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    toks = _tokens(data)
    magic, _ = next(toks)
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"{path}: not a PGM file (magic {magic!r})")
    try:
        (w_tok, _), (h_tok, _), (mx_tok, end) = next(toks), next(toks), next(toks)
        width, height, maxval = int(w_tok), int(h_tok), int(mx_tok)
    except (StopIteration, TypeError, ValueError) as e:
        raise PgmError(f"{path}: bad PGM header") from e
    if width < 1 or height < 1:
        raise PgmError(f"{path}: bad extents {width}x{height}")
    if not 0 < maxval <= 255:
        raise PgmError(f"{path}: maxval {maxval} unsupported (8-bit only)")
    if magic == b"P5":
        raw = data[end + 1 : end + 1 + width * height]
        if len(raw) != width * height:
            raise PgmError(f"{path}: truncated pixel data")
        img = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
        if maxval < 255 and img.max() > maxval:
            raise PgmError(f"{path}: sample out of range")
    else:
        vals = data[end:].split()
        if len(vals) != width * height:
            raise PgmError(f"{path}: expected {width * height} samples, got {len(vals)}")
        img = np.array([int(v) for v in vals], dtype=np.int64).reshape(height, width)
        if img.min() < 0 or img.max() > maxval:
            raise PgmError(f"{path}: sample out of range")
        img = img.astype(np.uint8)
    if maxval < 255:
        # rescale to 0..255, the range prepare_image assumes, to nearest
        return ((img.astype(np.uint16) * 255 + maxval // 2) // maxval).astype(np.uint8)
    return img.copy()


def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.ndim != 2:
        raise PgmError(f"write_pgm expects (H, W), got shape {img.shape}")
    img = np.clip(np.rint(img), 0, 255).astype(np.uint8) if img.dtype != np.uint8 else img
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(img.tobytes())
