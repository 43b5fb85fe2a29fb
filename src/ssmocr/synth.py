"""Procedural text-line and paragraph image generation.

A built-in 5x7 bitmap font (ASCII plus common accented forms, accents
composed onto the base letters) renders dark glyphs on white ground.
Augmentations are seeded and bit-deterministic. Datasets are written as
binary PGM files plus TAB-separated manifests.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .pgm import write_pgm

GLYPH_W = 5
GLYPH_H = 7


class RenderError(ValueError):
    """Text cannot be rendered with the given glyph set."""


class ManifestError(ValueError):
    """Malformed manifest line."""


# 7 rows of 5-bit patterns, most significant bit is the leftmost pixel.
_FONT = {
    " ": (0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00),
    "!": (0x04, 0x04, 0x04, 0x04, 0x04, 0x00, 0x04),
    '"': (0x0A, 0x0A, 0x0A, 0x00, 0x00, 0x00, 0x00),
    "#": (0x0A, 0x0A, 0x1F, 0x0A, 0x1F, 0x0A, 0x0A),
    "$": (0x04, 0x0F, 0x14, 0x0E, 0x05, 0x1E, 0x04),
    "%": (0x18, 0x19, 0x02, 0x04, 0x08, 0x13, 0x03),
    "&": (0x0C, 0x12, 0x14, 0x08, 0x15, 0x12, 0x0D),
    "'": (0x04, 0x04, 0x08, 0x00, 0x00, 0x00, 0x00),
    "(": (0x02, 0x04, 0x08, 0x08, 0x08, 0x04, 0x02),
    ")": (0x08, 0x04, 0x02, 0x02, 0x02, 0x04, 0x08),
    "*": (0x00, 0x04, 0x15, 0x0E, 0x15, 0x04, 0x00),
    "+": (0x00, 0x04, 0x04, 0x1F, 0x04, 0x04, 0x00),
    ",": (0x00, 0x00, 0x00, 0x00, 0x0C, 0x04, 0x08),
    "-": (0x00, 0x00, 0x00, 0x1F, 0x00, 0x00, 0x00),
    ".": (0x00, 0x00, 0x00, 0x00, 0x00, 0x0C, 0x0C),
    "/": (0x01, 0x01, 0x02, 0x04, 0x08, 0x10, 0x10),
    "0": (0x0E, 0x11, 0x13, 0x15, 0x19, 0x11, 0x0E),
    "1": (0x04, 0x0C, 0x04, 0x04, 0x04, 0x04, 0x0E),
    "2": (0x0E, 0x11, 0x01, 0x02, 0x04, 0x08, 0x1F),
    "3": (0x1F, 0x02, 0x04, 0x02, 0x01, 0x11, 0x0E),
    "4": (0x02, 0x06, 0x0A, 0x12, 0x1F, 0x02, 0x02),
    "5": (0x1F, 0x10, 0x1E, 0x01, 0x01, 0x11, 0x0E),
    "6": (0x06, 0x08, 0x10, 0x1E, 0x11, 0x11, 0x0E),
    "7": (0x1F, 0x01, 0x02, 0x04, 0x08, 0x08, 0x08),
    "8": (0x0E, 0x11, 0x11, 0x0E, 0x11, 0x11, 0x0E),
    "9": (0x0E, 0x11, 0x11, 0x0F, 0x01, 0x02, 0x0C),
    ":": (0x00, 0x0C, 0x0C, 0x00, 0x0C, 0x0C, 0x00),
    ";": (0x00, 0x0C, 0x0C, 0x00, 0x0C, 0x04, 0x08),
    "<": (0x02, 0x04, 0x08, 0x10, 0x08, 0x04, 0x02),
    "=": (0x00, 0x00, 0x1F, 0x00, 0x1F, 0x00, 0x00),
    ">": (0x08, 0x04, 0x02, 0x01, 0x02, 0x04, 0x08),
    "?": (0x0E, 0x11, 0x01, 0x02, 0x04, 0x00, 0x04),
    "@": (0x0E, 0x11, 0x01, 0x0D, 0x15, 0x15, 0x0E),
    "A": (0x0E, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11),
    "B": (0x1E, 0x11, 0x11, 0x1E, 0x11, 0x11, 0x1E),
    "C": (0x0E, 0x11, 0x10, 0x10, 0x10, 0x11, 0x0E),
    "D": (0x1C, 0x12, 0x11, 0x11, 0x11, 0x12, 0x1C),
    "E": (0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x1F),
    "F": (0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x10),
    "G": (0x0E, 0x11, 0x10, 0x17, 0x11, 0x11, 0x0F),
    "H": (0x11, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11),
    "I": (0x0E, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0E),
    "J": (0x07, 0x02, 0x02, 0x02, 0x02, 0x12, 0x0C),
    "K": (0x11, 0x12, 0x14, 0x18, 0x14, 0x12, 0x11),
    "L": (0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x1F),
    "M": (0x11, 0x1B, 0x15, 0x15, 0x11, 0x11, 0x11),
    "N": (0x11, 0x19, 0x15, 0x13, 0x11, 0x11, 0x11),
    "O": (0x0E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E),
    "P": (0x1E, 0x11, 0x11, 0x1E, 0x10, 0x10, 0x10),
    "Q": (0x0E, 0x11, 0x11, 0x11, 0x15, 0x12, 0x0D),
    "R": (0x1E, 0x11, 0x11, 0x1E, 0x14, 0x12, 0x11),
    "S": (0x0F, 0x10, 0x10, 0x0E, 0x01, 0x01, 0x1E),
    "T": (0x1F, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04),
    "U": (0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E),
    "V": (0x11, 0x11, 0x11, 0x11, 0x11, 0x0A, 0x04),
    "W": (0x11, 0x11, 0x11, 0x15, 0x15, 0x1B, 0x11),
    "X": (0x11, 0x11, 0x0A, 0x04, 0x0A, 0x11, 0x11),
    "Y": (0x11, 0x11, 0x0A, 0x04, 0x04, 0x04, 0x04),
    "Z": (0x1F, 0x01, 0x02, 0x04, 0x08, 0x10, 0x1F),
    "[": (0x0E, 0x08, 0x08, 0x08, 0x08, 0x08, 0x0E),
    "\\": (0x10, 0x10, 0x08, 0x04, 0x02, 0x01, 0x01),
    "]": (0x0E, 0x02, 0x02, 0x02, 0x02, 0x02, 0x0E),
    "^": (0x04, 0x0A, 0x11, 0x00, 0x00, 0x00, 0x00),
    "_": (0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1F),
    "`": (0x08, 0x04, 0x02, 0x00, 0x00, 0x00, 0x00),
    "a": (0x00, 0x00, 0x0E, 0x01, 0x0F, 0x11, 0x0F),
    "b": (0x10, 0x10, 0x1E, 0x11, 0x11, 0x11, 0x1E),
    "c": (0x00, 0x00, 0x0E, 0x11, 0x10, 0x11, 0x0E),
    "d": (0x01, 0x01, 0x0F, 0x11, 0x11, 0x11, 0x0F),
    "e": (0x00, 0x00, 0x0E, 0x11, 0x1F, 0x10, 0x0E),
    "f": (0x06, 0x09, 0x08, 0x1C, 0x08, 0x08, 0x08),
    "g": (0x00, 0x0F, 0x11, 0x11, 0x0F, 0x01, 0x0E),
    "h": (0x10, 0x10, 0x1E, 0x11, 0x11, 0x11, 0x11),
    "i": (0x04, 0x00, 0x0C, 0x04, 0x04, 0x04, 0x0E),
    "j": (0x02, 0x00, 0x06, 0x02, 0x02, 0x12, 0x0C),
    "k": (0x10, 0x10, 0x12, 0x14, 0x18, 0x14, 0x12),
    "l": (0x0C, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0E),
    "m": (0x00, 0x00, 0x1A, 0x15, 0x15, 0x15, 0x15),
    "n": (0x00, 0x00, 0x1E, 0x11, 0x11, 0x11, 0x11),
    "o": (0x00, 0x00, 0x0E, 0x11, 0x11, 0x11, 0x0E),
    "p": (0x00, 0x00, 0x1E, 0x11, 0x1E, 0x10, 0x10),
    "q": (0x00, 0x00, 0x0F, 0x11, 0x0F, 0x01, 0x01),
    "r": (0x00, 0x00, 0x16, 0x19, 0x10, 0x10, 0x10),
    "s": (0x00, 0x00, 0x0F, 0x10, 0x0E, 0x01, 0x1E),
    "t": (0x08, 0x08, 0x1C, 0x08, 0x08, 0x09, 0x06),
    "u": (0x00, 0x00, 0x11, 0x11, 0x11, 0x13, 0x0D),
    "v": (0x00, 0x00, 0x11, 0x11, 0x11, 0x0A, 0x04),
    "w": (0x00, 0x00, 0x11, 0x11, 0x15, 0x15, 0x0A),
    "x": (0x00, 0x00, 0x11, 0x0A, 0x04, 0x0A, 0x11),
    "y": (0x00, 0x00, 0x11, 0x11, 0x0F, 0x01, 0x0E),
    "z": (0x00, 0x00, 0x1F, 0x02, 0x04, 0x08, 0x1F),
    "ç": (0x00, 0x0E, 0x11, 0x10, 0x11, 0x0E, 0x04),
}

# accent overlays for the two top rows of lowercase letters
_ACCENTS = {
    "acute": (0x02, 0x04),
    "grave": (0x08, 0x04),
    "circumflex": (0x04, 0x0A),
    "diaeresis": (0x0A, 0x00),
}

_ACCENTED = {
    "é": ("e", "acute"), "è": ("e", "grave"), "ê": ("e", "circumflex"),
    "ë": ("e", "diaeresis"), "à": ("a", "grave"), "â": ("a", "circumflex"),
    "ä": ("a", "diaeresis"), "á": ("a", "acute"), "ù": ("u", "grave"),
    "û": ("u", "circumflex"), "ü": ("u", "diaeresis"), "ú": ("u", "acute"),
    "î": ("i", "circumflex"), "ï": ("i", "diaeresis"), "í": ("i", "acute"),
    "ì": ("i", "grave"), "ô": ("o", "circumflex"), "ö": ("o", "diaeresis"),
    "ó": ("o", "acute"), "ò": ("o", "grave"),
}

_ACCENTED_UPPER = {
    "É": ("E", "acute"), "È": ("E", "grave"), "Ê": ("E", "circumflex"),
    "À": ("A", "grave"), "Â": ("A", "circumflex"), "Ä": ("A", "diaeresis"),
    "Ô": ("O", "circumflex"), "Ö": ("O", "diaeresis"), "Ü": ("U", "diaeresis"),
    "Û": ("U", "circumflex"), "Ç": ("C", "cedilla"),
}

FALLBACK_BOX = (0x1F, 0x11, 0x11, 0x11, 0x11, 0x11, 0x1F)


def _build_font() -> dict[str, tuple[int, ...]]:
    font = dict(_FONT)
    for ch, (base, accent) in _ACCENTED.items():
        rows = list(font[base])
        a0, a1 = _ACCENTS[accent]
        if base == "i":  # drop the dot, the accent replaces it
            rows[0], rows[1] = a0, a1
        else:
            rows[0] |= a0
            rows[1] |= a1
        font[ch] = tuple(rows)
    for ch, (base, accent) in _ACCENTED_UPPER.items():
        rows = list(font[base])
        if accent == "cedilla":
            rows[6] |= 0x04
        else:
            rows[0] |= _ACCENTS[accent][0]
        font[ch] = tuple(rows)
    return font


FONT = _build_font()
GLYPH_SPACING = 1  # blank glyph columns between neighbours, before scaling


@dataclass
class GlyphSet:
    """The 5x7 font at an integer pixel scale; characters it lacks draw
    as FALLBACK_BOX."""

    scale: int = 3

    def bitmap(self, ch: str) -> np.ndarray:
        rows = FONT.get(ch, FALLBACK_BOX)
        bits = np.array(
            [[(r >> (GLYPH_W - 1 - c)) & 1 for c in range(GLYPH_W)] for r in rows],
            dtype=bool,
        )
        return bits

    def coverage(self, text: str) -> set[str]:
        """Characters in text without a native glyph."""
        return {ch for ch in text if ch not in FONT}

    @property
    def cell_w(self) -> int:
        return (GLYPH_W + GLYPH_SPACING) * self.scale

    @property
    def line_core_h(self) -> int:
        return GLYPH_H * self.scale

    @property
    def margin(self) -> int:
        return 2 * self.scale


@functools.lru_cache(maxsize=1024)
def _glyph_block(ch: str, scale: int) -> np.ndarray:
    """The ink mask of ch at scale, (7*scale, 5*scale), built once per
    (char, scale) and read-only, since every render shares it."""
    block = np.kron(GlyphSet(scale).bitmap(ch), np.ones((scale, scale), dtype=bool))
    block.flags.writeable = False
    return block


def _render_core(text: str, gs: GlyphSet) -> np.ndarray:
    """Glyph band only: height 7*scale, horizontal margins included."""
    m = gs.margin
    width = 2 * m + (len(text) * gs.cell_w - GLYPH_SPACING * gs.scale if text else 0)
    img = np.full((gs.line_core_h, width), 255, dtype=np.uint8)
    x = m
    for ch in text:
        img[:, x : x + GLYPH_W * gs.scale][_glyph_block(ch, gs.scale)] = 0
        x += gs.cell_w
    return img


def render_line(text: str, gs: GlyphSet | None = None,
                height_px: int | None = None) -> np.ndarray:
    """Dark glyphs on white, vertically centered, deterministic layout."""
    gs = gs or GlyphSet()
    core = _render_core(text, gs)
    target_h = height_px if height_px is not None else gs.line_core_h + 2 * gs.margin
    if target_h < gs.line_core_h:
        raise RenderError(
            f"height {target_h} below glyph height {gs.line_core_h} at scale {gs.scale}"
        )
    top = (target_h - core.shape[0]) // 2
    bottom = target_h - core.shape[0] - top
    return np.pad(core, ((top, bottom), (0, 0)), constant_values=255)


MAX_PARAGRAPH_LINES = 10


def render_paragraph(lines, gs: GlyphSet | None = None):
    """Stacked line renders with a fixed leading of 2*scale.

    Returns (image, transcript) with the transcript joining the lines by
    newline. Height = n*line_h + (n-1)*leading + 2*margin.
    """
    gs = gs or GlyphSet()
    lines = list(lines)
    if not 1 <= len(lines) <= MAX_PARAGRAPH_LINES:
        raise RenderError(
            f"paragraph needs 1..{MAX_PARAGRAPH_LINES} lines, got {len(lines)}")
    cores = [_render_core(t, gs) for t in lines]
    width = max(c.shape[1] for c in cores)
    cores = [np.pad(c, ((0, 0), (0, width - c.shape[1])), constant_values=255)
             for c in cores]
    gap = np.full((2 * gs.scale, width), 255, dtype=np.uint8)
    rows = [cores[0]]
    for c in cores[1:]:
        rows += [gap, c]
    body = np.vstack(rows)
    m = gs.margin
    img = np.pad(body, ((m, m), (0, 0)), constant_values=255)
    return img, "\n".join(lines)


# ---------------------------------------------------------------------------
# augmentation

AUGMENT_OPS = ("blur", "noise", "elastic", "perspective", "morphology",
               "contrast", "sharpen")


@dataclass
class AugmentSpec:
    """Each op of AUGMENT_OPS fires with probability ``prob``; ``seed``
    keys the order and every magnitude."""

    prob: float = 0.5
    seed: int = 0


def _homography(src, dst) -> np.ndarray:
    a = []
    for (x, y), (u, v) in zip(src, dst):
        a.append([x, y, 1, 0, 0, 0, -u * x, -u * y])
        a.append([0, 0, 0, x, y, 1, -v * x, -v * y])
    b = np.asarray(dst, dtype=np.float64).reshape(-1)
    h = np.linalg.solve(np.asarray(a, dtype=np.float64), b)
    return np.append(h, 1.0).reshape(3, 3)


def _apply_op(name: str, img: np.ndarray, rng) -> np.ndarray:
    f = img.astype(np.float64)
    h, w = img.shape
    if name == "blur":
        f = ndimage.gaussian_filter(f, rng.uniform(0.3, 1.2))
    elif name == "noise":
        f = f + rng.normal(0.0, rng.uniform(4.0, 12.0), f.shape)
    elif name == "elastic":
        alpha = rng.uniform(1.0, 4.0)  # displacement in pixels, smoothed by sigma 4
        dy = ndimage.gaussian_filter(rng.uniform(-1, 1, f.shape), 4.0) * alpha
        dx = ndimage.gaussian_filter(rng.uniform(-1, 1, f.shape), 4.0) * alpha
        yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        f = ndimage.map_coordinates(f, [yy + dy, xx + dx], order=1,
                                    mode="constant", cval=255.0)
    elif name == "perspective":
        j = 0.04  # corner jitter, as a share of the side
        src = [(0, 0), (w - 1, 0), (w - 1, h - 1), (0, h - 1)]
        dst = [(x + rng.uniform(-j, j) * w, y + rng.uniform(-j, j) * h)
               for x, y in src]
        hm = _homography(dst, src)  # output -> input mapping
        yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        denom = hm[2, 0] * xx + hm[2, 1] * yy + hm[2, 2]
        sx = (hm[0, 0] * xx + hm[0, 1] * yy + hm[0, 2]) / denom
        sy = (hm[1, 0] * xx + hm[1, 1] * yy + hm[1, 2]) / denom
        f = ndimage.map_coordinates(f, [sy, sx], order=1, mode="constant", cval=255.0)
    elif name == "morphology":
        if rng.random() < 0.5:
            f = ndimage.grey_erosion(f, size=(2, 2))
        else:
            f = ndimage.grey_dilation(f, size=(2, 2))
    elif name == "contrast":
        c = rng.uniform(0.7, 1.3)
        b = rng.uniform(-20.0, 20.0)
        f = (f - 128.0) * c + 128.0 + b
    elif name == "sharpen":
        amount = rng.uniform(0.5, 1.5)
        f = f + amount * (f - ndimage.gaussian_filter(f, 1.0))
    return np.clip(np.rint(f), 0, 255).astype(np.uint8)


def augment(img: np.ndarray, spec: AugmentSpec) -> np.ndarray:
    """Each op fires independently with spec.prob, in an order
    shuffled by the seeded rng; bit-deterministic for (image, spec)."""
    rng = np.random.default_rng(spec.seed)
    order = [AUGMENT_OPS[i] for i in rng.permutation(len(AUGMENT_OPS))]
    out = img
    for name in order:
        if rng.random() < spec.prob:
            out = _apply_op(name, out, rng)
    return out


# ---------------------------------------------------------------------------
# manifests and datasets


@dataclass
class Sample:
    image_path: str
    transcript: str

    @property
    def line_count(self) -> int:
        return self.transcript.count("\n") + 1


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _unescape(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "t":
                out.append("\t")
            elif nxt == "n":
                out.append("\n")
            elif nxt == "\\":
                out.append("\\")
            else:
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def save_manifest(path, samples) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for s in samples:
            f.write(f"{s.image_path}\t{_escape(s.transcript)}\n")


def load_manifest(path) -> list[Sample]:
    samples = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ManifestError(f"{path}:{lineno}: expected TAB-separated record")
            image_path, transcript = line.split("\t", 1)
            if "\t" in transcript:
                raise ManifestError(f"{path}:{lineno}: too many TABs")
            samples.append(Sample(image_path, _unescape(transcript)))
    return samples


# word pool for the built-in text source (original filler prose)
_SENTENCES = [
    "The reading room keeps its oldest volumes behind glass.",
    "Several columns of small print cover the front page.",
    "Daily issues arrived by train before sunrise.",
    "La salle des archives conserve les journaux anciens.",
    "Les pages fragiles sont numérisées avec soin.",
    "Un lecteur attentif repère vite les coquilles.",
    "Printing presses ran through the night in winter.",
    "Die alten Seiten sind stark vergilbt und brüchig.",
    "Der Setzer prüft jede Zeile vor dem Druck.",
    "Advertisements filled the margins of page four.",
    "Subscription cost three francs per quarter in 1870.",
    "The editor answered letters every Tuesday.",
    "Chaque numéro compte huit pages serrées.",
    "Morning fog delayed the delivery wagons again.",
    "A careful index lists every town and name.",
    "Quiet hands turn the brittle paper slowly.",
    "New type arrived from the foundry in May.",
    "Late reports reached the office after midnight.",
]


def word_pool() -> list[str]:
    words = []
    for s in _SENTENCES:
        words.extend(s.split())
    return words


@dataclass
class SynthConfig:
    out_dir: str
    n_samples: int = 100
    splits: tuple = (0.8, 0.1, 0.1)
    seed: int = 0
    kind: str = "line"              # line | paragraph
    line_chars: tuple = (12, 28)    # min/max characters per line
    paragraph_lines: tuple = (1, 3)
    glyph_scale: int = 3
    line_height: int = 32
    augment_spec: AugmentSpec | None = None
    text_file: str | None = None

    def __post_init__(self):
        if self.kind not in ("line", "paragraph"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if (len(self.splits) != 3 or min(self.splits) < 0
                or abs(sum(self.splits) - 1.0) > 1e-9):
            raise ValueError("splits must be three non-negative fractions summing "
                             f"to 1, got {tuple(self.splits)}")
        for name, (lo, hi) in (("line_chars", self.line_chars),
                               ("paragraph_lines", self.paragraph_lines)):
            if not 1 <= lo <= hi:
                raise ValueError(f"{name} must satisfy 1 <= min <= max, got ({lo}, {hi})")
        if self.paragraph_lines[1] > MAX_PARAGRAPH_LINES:
            raise ValueError(f"paragraph_lines max must be at most {MAX_PARAGRAPH_LINES}, "
                             f"got {self.paragraph_lines[1]}")
        if self.glyph_scale < 1:
            raise ValueError(f"glyph_scale must be at least 1, got {self.glyph_scale}")
        if self.kind == "line" and self.line_height < GLYPH_H * self.glyph_scale:
            raise ValueError(f"line_height {self.line_height} is below the glyph height "
                             f"{GLYPH_H * self.glyph_scale} at glyph_scale {self.glyph_scale}")


@dataclass
class DatasetInfo:
    manifests: dict[str, str]       # split -> manifest path
    counts: dict[str, int]
    charset: str


def _make_line_text(rng, words, lo, hi) -> str:
    target = int(rng.integers(lo, hi + 1))
    out = []
    length = 0
    while length < target:
        w = words[int(rng.integers(0, len(words)))]
        out.append(w)
        length += len(w) + 1
    return " ".join(out)[:hi].rstrip()


def make_dataset(config: SynthConfig) -> DatasetInfo:
    """Render images and write per-split manifests; samples are assigned
    to disjoint splits by id and everything derives from (config, seed)."""
    rng = np.random.default_rng(config.seed)
    out = Path(config.out_dir)
    img_dir = out / "images"
    img_dir.mkdir(parents=True, exist_ok=True)
    if config.text_file:
        words = Path(config.text_file).read_text(encoding="utf-8").split()
        if not words:
            raise ValueError(f"text file {config.text_file} has no words")
    else:
        words = word_pool()
    gs = GlyphSet(scale=config.glyph_scale)
    for w in words:
        missing = gs.coverage(w)
        if missing:
            raise RenderError(f"text pool characters without glyphs: {sorted(missing)}")

    n = config.n_samples
    n_train = int(round(config.splits[0] * n))
    n_valid = min(int(round(config.splits[1] * n)), n - n_train)
    bounds = {"train": range(0, n_train),
              "valid": range(n_train, n_train + n_valid),
              "test": range(n_train + n_valid, n)}
    lo, hi = config.line_chars
    samples = []
    charset = set()
    for k in range(n):
        if config.kind == "line":
            text = _make_line_text(rng, words, lo, hi)
            img = render_line(text, gs, height_px=config.line_height)
        else:
            n_lines = int(rng.integers(config.paragraph_lines[0],
                                       config.paragraph_lines[1] + 1))
            lines = [_make_line_text(rng, words, lo, hi) for _ in range(n_lines)]
            img, text = render_paragraph(lines, gs)
        if config.augment_spec is not None:
            per_sample = dataclasses.replace(
                config.augment_spec, seed=config.augment_spec.seed + 7919 * k)
            img = augment(img, per_sample)
        rel = f"images/{k:05d}.pgm"
        write_pgm(out / rel, img)
        samples.append(Sample(rel, text))
        charset.update(text)

    manifests = {}
    counts = {}
    for split, ids in bounds.items():
        path = out / f"{split}.tsv"
        save_manifest(path, [samples[i] for i in ids])
        manifests[split] = str(path)
        counts[split] = len(ids)
    return DatasetInfo(manifests, counts, "".join(sorted(charset)))
