"""CNN feature extractor with 2D positional encoding.

Five conv/norm/activation/pool stages map a grayscale image to a
(H', W', D) grid, a fixed sinusoidal encoding marks row and column
positions, and row-major flattening yields the visual sequence every
decoding head consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


class ConfigError(ValueError):
    """Encoder configuration violates a structural constraint."""


class InputError(ValueError):
    """Image does not meet the encoder's input contract."""


DEFAULT_CHANNELS = (16, 32, 64, 128)  # stage 5 outputs d_model
DEFAULT_POOLING = ((2, 2), (2, 2), (2, 2), (2, 2), (2, 1))


@dataclass
class EncoderConfig:
    d_model: int = 64
    channels: tuple = DEFAULT_CHANNELS  # first four stages
    kernel: int = 3
    pooling: tuple = DEFAULT_POOLING
    norm: str = "batch"       # batch | instance | none
    act: str = "silu"
    pad_min_h: int = 100      # white-padding minima applied by prepare_image
    pad_min_w: int = 1000

    def __post_init__(self):
        if len(self.channels) != 4 or len(self.schedule) != 5:
            raise ConfigError("encoder needs a 5-stage channel schedule")
        if len(self.pooling) != 5:
            raise ConfigError("encoder needs a 5-stage pooling schedule")
        if self.norm not in ("batch", "instance", "none"):
            raise ConfigError(f"unknown norm kind {self.norm!r}")

    @property
    def schedule(self) -> tuple:
        return tuple(self.channels) + (self.d_model,)

    @property
    def v_factor(self) -> int:
        return math.prod(p[0] for p in self.pooling)

    @property
    def h_factor(self) -> int:
        return math.prod(p[1] for p in self.pooling)

    @property
    def min_h(self) -> int:
        return self.v_factor

    @property
    def min_w(self) -> int:
        return max(self.h_factor // 2, 1)


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


@dataclass
class FeatureGrid:
    grid: Tensor                 # (H', W', D)
    origin_hw: tuple[int, int]   # image extents before flattening

    @property
    def height(self) -> int:
        return self.grid.shape[0]

    @property
    def width(self) -> int:
        return self.grid.shape[1]


class ConvEncoder:
    """Five (conv -> norm -> activation -> pool) stages."""

    def __init__(self, config: EncoderConfig, rng=None, dtype="f32"):
        rng = np.random.default_rng() if rng is None else rng
        self.config = config
        self.training = True
        self.stages = []
        self.buffers_: dict[str, np.ndarray] = {}
        c_in = 1
        k = config.kernel
        for s, c_out in enumerate(config.schedule):
            bound = 1.0 / np.sqrt(c_in * k * k)
            w = Tensor(rng.uniform(-bound, bound, (c_out, c_in, k, k)),
                       dtype=dtype, requires_grad=True)
            b = Tensor(np.zeros(c_out), dtype=dtype, requires_grad=True)
            ng = Tensor(np.ones(c_out), dtype=dtype, requires_grad=True)
            nb = Tensor(np.zeros(c_out), dtype=dtype, requires_grad=True)
            self.stages.append({"w": w, "b": b, "norm_g": ng, "norm_b": nb,
                                "pool": tuple(config.pooling[s])})
            if config.norm == "batch":
                self.buffers_[f"stage{s}.running_mean"] = np.zeros(c_out, dtype=np.float64)
                self.buffers_[f"stage{s}.running_var"] = np.ones(c_out, dtype=np.float64)
            c_in = c_out

    def forward(self, image: np.ndarray) -> FeatureGrid:
        """Encode a prepared [0,1] grayscale image into a feature grid."""
        image = np.asarray(image)
        if image.ndim != 2:
            raise InputError(f"encoder expects a 2-d image, got shape {image.shape}")
        h, w = image.shape
        cfg = self.config
        if h < cfg.min_h or w < cfg.min_w:
            raise InputError(
                f"image {h}x{w} below encoder minima {cfg.min_h}x{cfg.min_w} "
                "(after padding policy)"
            )
        dt = self.stages[0]["w"].dtype
        x = Tensor(image[None, :, :], dtype=dt)
        for s, st in enumerate(self.stages):
            x = T.conv2d(x, st["w"], st["b"], stride=1, padding=cfg.kernel // 2)
            if cfg.norm == "batch":
                x = T.batchnorm2d(x, st["norm_g"], st["norm_b"],
                                  self.buffers_[f"stage{s}.running_mean"],
                                  self.buffers_[f"stage{s}.running_var"],
                                  training=self.training)
            elif cfg.norm == "instance":
                dummy_m = np.zeros(x.shape[0])
                dummy_v = np.ones(x.shape[0])
                x = T.batchnorm2d(x, st["norm_g"], st["norm_b"], dummy_m, dummy_v,
                                  training=True, momentum=0.0)
            x = T.activation(cfg.act, x)
            x = T.maxpool2d(x, st["pool"])
        return FeatureGrid(T.permute(x, (1, 2, 0)), (h, w))

    def params(self) -> dict[str, Tensor]:
        out = {}
        for s, st in enumerate(self.stages):
            out[f"stage{s}.w"] = st["w"]
            out[f"stage{s}.b"] = st["b"]
            out[f"stage{s}.norm_g"] = st["norm_g"]
            out[f"stage{s}.norm_b"] = st["norm_b"]
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        return self.buffers_


def positional_encoding_2d(h: int, w: int, d: int, dtype=np.float32) -> np.ndarray:
    """Fixed sinusoid: first d/2 channels encode the row index, last d/2
    the column index; each half interleaves sin/cos over geometric
    wavelengths 10000^(2i/(d/2))."""
    if d % 4 != 0:
        raise ConfigError(f"positional encoding needs d divisible by 4, got {d}")
    half = d // 2
    out = np.zeros((h, w, d), dtype=dtype)
    i = np.arange(half // 2)
    inv_freq = 1.0 / (10000.0 ** (2.0 * i / half))
    rows = np.arange(h)[:, None] * inv_freq[None, :]
    cols = np.arange(w)[:, None] * inv_freq[None, :]
    out[:, :, 0:half:2] = np.sin(rows)[:, None, :]
    out[:, :, 1:half:2] = np.cos(rows)[:, None, :]
    out[:, :, half::2] = np.sin(cols)[None, :, :]
    out[:, :, half + 1 :: 2] = np.cos(cols)[None, :, :]
    return out


def positional_encode_2d(grid: FeatureGrid) -> FeatureGrid:
    h, w, d = grid.grid.shape
    pe = positional_encoding_2d(h, w, d, dtype=grid.grid.data.dtype)
    return FeatureGrid(T.add(grid.grid, Tensor(pe)), grid.origin_hw)


def flatten_grid(grid: FeatureGrid) -> Tensor:
    """Row-major (top row left-to-right) flattening: index = r * W' + c."""
    h, w, d = grid.grid.shape
    return T.reshape(grid.grid, (h * w, d))


def unflatten_grid(x: Tensor, h: int, w: int,
                   origin_hw: tuple[int, int] = (0, 0)) -> FeatureGrid:
    return FeatureGrid(T.reshape(x, (h, w, x.shape[1])), origin_hw)
