"""CNN feature extractor with 2D positional encoding.

Five conv3x3/batchnorm/SiLU/max-pool stages map a grayscale image to a
(H', W', D) grid, a fixed sinusoidal encoding marks row and column
positions, and row-major flattening yields the visual sequence every
decoding head consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ConfigError, min_image_size
from .tensor import Tensor


class InputError(ValueError):
    """Image does not meet the encoder's input contract."""


KERNEL = 3  # square conv kernel of every stage


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
        """Encode a prepared [0,1] grayscale image into a feature grid."""
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
        for s, st in enumerate(self.stages):
            x = T.conv2d(x, st["w"], stride=1, padding=KERNEL // 2)
            x = T.batchnorm2d(x, st["norm_g"], st["norm_b"],
                              self.buffers_[f"stage{s}.running_mean"],
                              self.buffers_[f"stage{s}.running_var"],
                              training=self.training)
            x = T.silu(x)
            x = T.maxpool2d(x, st["pool"])
        return FeatureGrid(T.permute(x, (1, 2, 0)))

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
