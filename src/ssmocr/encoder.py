"""CNN feature extractor with 2D positional encoding.

Five conv3x3/batchnorm/SiLU/max-pool stages map a grayscale image to a
(H', W', D) grid, a fixed sinusoidal encoding marks row and column
positions, and row-major flattening yields the visual sequence every
decoding head consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ConfigError, min_image_size
from .tensor import Tensor


class InputError(ValueError):
    """Image does not meet the encoder's input contract."""


KERNEL = 3  # square conv kernel of every stage
HALO = KERNEL // 2  # rows a stage's conv reads above and below an output row
STRIP_ELEMS = 1 << 18  # conv-output entries per eval row strip: 1 MiB of f32


def prepare_image(img: np.ndarray, min_h: int, min_w: int) -> np.ndarray:
    """Normalize to float [0,1] grayscale and pad with white to the minima.

    Color inputs (H, W, 3) are averaged to one channel; uint8 is scaled
    by 1/255. Aspect ratio is preserved (padding only, no rescaling).
    """
    img = np.asarray(img)
    if img.dtype == np.uint8:
        img = img.astype(np.float32) / 255.0
    else:
        img = img.astype(np.float32)
    if img.ndim == 3 and img.shape[2] == 3:
        img = img.mean(axis=2, dtype=np.float32)
    if img.ndim != 2:
        raise InputError(f"expected (H, W) or (H, W, 3) image, got shape {img.shape}")
    h, w = img.shape
    ph, pw = max(min_h - h, 0), max(min_w - w, 0)
    if ph or pw:
        img = np.pad(img, ((ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2)),
                     constant_values=1.0)
    return img


def frame_count(h: int, w: int, min_h: int, min_w: int, pooling) -> int:
    """Frames the encoder gives an h x w image that ``prepare_image`` pads
    to min_h x min_w: the 3x3 convs keep both sides, and each stage's
    ceil-mode pool divides them."""
    h, w = max(h, min_h), max(w, min_w)
    for ph, pw in pooling:
        h, w = -(-h // ph), -(-w // pw)
    return h * w


@dataclass
class FeatureGrid:
    grid: Tensor  # (H', W', D)

    @property
    def height(self) -> int:
        return self.grid.shape[0]

    @property
    def width(self) -> int:
        return self.grid.shape[1]


class ConvEncoder:
    """Five (conv3x3 -> batchnorm -> SiLU -> max-pool) stages: the first
    four output ``channels``, the fifth ``d_model``, and stage s pools by
    ``pooling[s]`` (rows, columns)."""

    def __init__(self, d_model: int, channels, pooling, *, rng, dtype="f32"):
        self.training = True
        self.min_size = min_image_size(pooling)
        self.stages = []
        self.buffers_: dict[str, np.ndarray] = {}
        c_in = 1
        for s, c_out in enumerate((*channels, d_model)):
            w = T.uniform_param(rng, (c_out, c_in, KERNEL, KERNEL),
                                c_in * KERNEL * KERNEL, dtype)
            ng = T.const_param(c_out, 1.0, dtype)
            nb = T.const_param(c_out, 0.0, dtype)
            self.stages.append({"w": w, "norm_g": ng, "norm_b": nb,
                                "pool": tuple(pooling[s])})
            self.buffers_[f"stage{s}.running_mean"] = np.zeros(c_out, dtype=np.float64)
            self.buffers_[f"stage{s}.running_var"] = np.ones(c_out, dtype=np.float64)
            c_in = c_out

    def forward(self, image: np.ndarray) -> FeatureGrid:
        """Encode a prepared [0,1] grayscale image into a feature grid.

        Off the tape in eval mode each stage walks row strips of its
        output, so no full-size stage map is built; a call that records
        runs whole maps. Both give the same grid (see ``_stage``)."""
        image = np.asarray(image)
        if image.ndim != 2:
            raise InputError(f"encoder expects a 2-d image, got shape {image.shape}")
        h, w = image.shape
        min_h, min_w = self.min_size
        if h < min_h or w < min_w:
            raise InputError(
                f"image {h}x{w} below encoder minima {min_h}x{min_w} "
                "(after padding policy)"
            )
        dt = self.stages[0]["w"].dtype
        x = Tensor(image[None, :, :], dtype=dt)
        for s in range(len(self.stages)):
            x = self._stage(s, x)
        return FeatureGrid(T.permute(x, (1, 2, 0)))

    def _stage(self, s: int, x: Tensor) -> Tensor:
        """Stage s over row strips of its output, written into one
        preallocated stage output. A strip has about ``STRIP_ELEMS`` conv
        outputs and is a whole number of pool rows and of conv2d's row
        blocks, so no pool window straddles two strips and every GEMM has
        the shape it has over the whole map: the strips give the whole
        map's output bit for bit. A strip's conv reads its input rows plus
        a ``HALO`` above and below, zero past the image edges. A call that
        records, and every training call, runs one strip, the whole map:
        batchnorm's statistics and the backward read whole maps. Halos
        and the assembled output hold op outputs (or the checked image)
        only, so they are wrapped without a second finite check."""
        st = self.stages[s]
        c, h, w = st["w"].shape[0], x.shape[1], x.shape[2]
        ph, pw = st["pool"]
        if self.training or T.records((x, st["w"], st["norm_g"], st["norm_b"])):
            rows = h
        else:
            unit = math.lcm(ph, T.conv_block_rows(x.shape[0], KERNEL, KERNEL, w))
            rows = unit * max(1, STRIP_ELEMS // (c * unit * w))
        out = None if rows >= h else np.empty((c, -(-h // ph), -(-w // pw)), x.data.dtype)
        for r in range(0, h, rows):
            if out is None:
                xs, pad = x, HALO
            else:
                end = min(r + rows, h)
                lo, hi = max(r - HALO, 0), min(end + HALO, h)
                rim = ((0, 0), (lo - r + HALO, end + HALO - hi), (0, 0))
                xs, pad = T.wrap_checked(np.pad(x.data[:, lo:hi], rim)), (0, HALO)
            y = T.conv2d(xs, st["w"], stride=1, padding=pad)
            y = T.batchnorm2d(y, st["norm_g"], st["norm_b"],
                              self.buffers_[f"stage{s}.running_mean"],
                              self.buffers_[f"stage{s}.running_var"],
                              training=self.training)
            y = T.maxpool2d(T.silu(y), st["pool"])
            if out is None:
                return y
            out[:, r // ph : r // ph + y.shape[1]] = y.data
        return T.wrap_checked(out)

    def params(self) -> dict[str, Tensor]:
        out = {}
        for s, st in enumerate(self.stages):
            out[f"stage{s}.w"] = st["w"]
            out[f"stage{s}.norm_g"] = st["norm_g"]
            out[f"stage{s}.norm_b"] = st["norm_b"]
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        return self.buffers_


def positional_encoding_1d(n: int, d: int, dtype=np.float32, start: int = 0) -> np.ndarray:
    """Fixed sinusoid for positions start..start+n-1: channels interleave
    sin/cos over geometric wavelengths 10000^(2i/d). Each row depends on
    its position alone, so a slice of a long table equals the short table
    at its offset, bit for bit."""
    i = np.arange(d // 2)
    inv_freq = 1.0 / (10000.0 ** (2.0 * i / d))
    pos = np.arange(start, start + n)[:, None] * inv_freq[None, :]
    out = np.zeros((n, d), dtype=dtype)
    out[:, 0::2] = np.sin(pos)
    out[:, 1::2] = np.cos(pos)
    return out


def positional_encoding_2d(h: int, w: int, d: int, dtype=np.float32) -> np.ndarray:
    """Fixed sinusoid: first d/2 channels are the 1-d encoding of the row
    index, last d/2 that of the column index."""
    if d % 4 != 0:
        raise ConfigError(f"positional encoding needs d divisible by 4, got {d}")
    half = d // 2
    out = np.empty((h, w, d), dtype=dtype)
    out[:, :, :half] = positional_encoding_1d(h, half, dtype)[:, None, :]
    out[:, :, half:] = positional_encoding_1d(w, half, dtype)[None, :, :]
    return out


def positional_encode_2d(grid: FeatureGrid) -> FeatureGrid:
    h, w, d = grid.grid.shape
    pe = positional_encoding_2d(h, w, d, dtype=grid.grid.data.dtype)
    return FeatureGrid(T.add(grid.grid, Tensor(pe)))


def flatten_grid(grid: FeatureGrid) -> Tensor:
    """Row-major (top row left-to-right) flattening: index = r * W' + c."""
    h, w, d = grid.grid.shape
    return T.reshape(grid.grid, (h * w, d))
