"""Run configuration: presets, the key=value config file format, validation.

Files are line-oriented ``key = value`` with ``#`` comments and dotted
section keys. Unknown keys are rejected by name so typos cannot silently
fall back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


class ConfigError(ValueError):
    """Bad key, bad value, or unsatisfiable configuration."""


MODEL_KINDS = ("mamba-ctc", "mamba-ar", "mamba-nar", "attn-ar-baseline")


def _parse_bool(v: str) -> bool:
    lv = v.strip().lower()
    if lv in ("true", "1", "yes"):
        return True
    if lv in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {v!r}")


def _parse_ints(v: str) -> tuple:
    return tuple(int(x) for x in v.split(","))


def _parse_pooling(v: str) -> tuple:
    out = []
    for part in v.split(","):
        a, _, b = part.strip().partition("x")
        out.append((int(a), int(b)))
    return tuple(out)


def min_image_size(pooling) -> tuple[int, int]:
    """Smallest (height, width) image the encoder accepts under a pooling
    schedule: the product of the row factors, and half that of the column
    factors."""
    return (math.prod(p[0] for p in pooling),
            max(math.prod(p[1] for p in pooling) // 2, 1))


def _positive_ints(v, n: int) -> bool:
    """v is a tuple or list of exactly n positive ints."""
    return (isinstance(v, (tuple, list)) and len(v) == n
            and all(isinstance(x, int) and x > 0 for x in v))


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        if v and isinstance(v[0], tuple):
            return ",".join(f"{a}x{b}" for a, b in v)
        return ",".join(str(x) for x in v)
    if v is None:
        return ""
    return repr(v) if isinstance(v, float) else str(v)


@dataclass
class RunConfig:
    model_kind: str = "mamba-ctc"
    seed: int = 42
    # dims
    d_model: int = 64
    n_state: int = 16
    expand: int = 2
    layers: int = 4
    t_max: int = 160
    max_len: int = 512
    # encoder
    enc_channels: tuple = (16, 32, 64, 128)
    enc_pooling: tuple = ((2, 2), (2, 2), (2, 2), (2, 1), (2, 1))
    pad_min_h: int = 32
    pad_min_w: int = 16
    # optimizer
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    # training
    batch_size: int = 4
    max_steps: int = 2000
    eval_every: int = 200
    target_cer: float | None = None
    resume: str | None = None
    # curriculum
    curriculum: bool = False
    ramp_steps: int = 1000
    max_lines: int = 10
    synth_mix: float = 0.1
    # augmentation
    augment: bool = False
    augment_prob: float = 0.5
    augment_seed: int = 0
    # paths
    train_manifest: str | None = None
    valid_manifest: str | None = None
    synth_manifest: str | None = None
    out_dir: str = "runs/default"

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(
                f"unknown model.kind {self.model_kind!r}; one of {MODEL_KINDS}")
        for key, value in (("seed", self.seed), ("augment.seed", self.augment_seed)):
            if value < 0:
                raise ConfigError(f"{key} must be non-negative, got {value}")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be at least 1, got {self.batch_size}")
        for key, value in (("model.n_state", self.n_state), ("model.expand", self.expand),
                           ("model.layers", self.layers), ("model.t_max", self.t_max),
                           ("model.max_len", self.max_len)):
            if value < 1:
                raise ConfigError(f"{key} must be at least 1, got {value}")
        for key, value in (("augment.prob", self.augment_prob),
                           ("curriculum.synth_mix", self.synth_mix)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{key} must lie in [0, 1], got {value}")
        if self.d_model <= 0 or self.d_model % 4:
            raise ConfigError(
                f"model.d must be a positive multiple of 4, got {self.d_model}")
        if not _positive_ints(self.enc_channels, 4):
            raise ConfigError(
                f"encoder.channels must be 4 positive ints, got {self.enc_channels!r}")
        pooling = self.enc_pooling
        if not (isinstance(pooling, (tuple, list)) and len(pooling) == 5
                and all(_positive_ints(p, 2) for p in pooling)):
            raise ConfigError(
                f"encoder.pooling must be 5 positive pairs, got {self.enc_pooling!r}")
        min_h, min_w = min_image_size(pooling)
        for key, value, least in (("encoder.pad_min_h", self.pad_min_h, min_h),
                                  ("encoder.pad_min_w", self.pad_min_w, min_w)):
            if value < least:
                raise ConfigError(f"{key} must be at least the encoder minimum "
                                  f"{least} under this pooling, got {value}")


# dotted config key -> (attribute, parser)
KEYMAP = {
    "model.kind": ("model_kind", str),
    "model.d": ("d_model", int),
    "model.n_state": ("n_state", int),
    "model.expand": ("expand", int),
    "model.layers": ("layers", int),
    "model.t_max": ("t_max", int),
    "model.max_len": ("max_len", int),
    "encoder.channels": ("enc_channels", _parse_ints),
    "encoder.pooling": ("enc_pooling", _parse_pooling),
    "encoder.pad_min_h": ("pad_min_h", int),
    "encoder.pad_min_w": ("pad_min_w", int),
    "optim.lr": ("lr", float),
    "optim.beta1": ("beta1", float),
    "optim.beta2": ("beta2", float),
    "optim.weight_decay": ("weight_decay", float),
    "optim.clip_norm": ("clip_norm", float),
    "train.batch_size": ("batch_size", int),
    "train.max_steps": ("max_steps", int),
    "train.eval_every": ("eval_every", int),
    "train.target_cer": ("target_cer", float),
    "train.resume": ("resume", str),
    "curriculum.enabled": ("curriculum", _parse_bool),
    "curriculum.ramp_steps": ("ramp_steps", int),
    "curriculum.max_lines": ("max_lines", int),
    "curriculum.synth_mix": ("synth_mix", float),
    "augment.enabled": ("augment", _parse_bool),
    "augment.prob": ("augment_prob", float),
    "augment.seed": ("augment_seed", int),
    "data.train_manifest": ("train_manifest", str),
    "data.valid_manifest": ("valid_manifest", str),
    "data.synth_manifest": ("synth_manifest", str),
    "out.dir": ("out_dir", str),
    "seed": ("seed", int),
}

# keys echoed by checkpoints from before the encoder had one fixed recipe,
# with the only values that recipe matches
RETIRED_KEYS = {"encoder.norm": "batch", "encoder.act": "silu"}

# model.preset -> the defaults it selects; explicit keys override them, and
# the preset itself is not kept once the config is built
PRESET_OVERRIDES = {
    "desk": {},
    "paper": {
        "d_model": 256, "n_state": 256, "expand": 6, "t_max": 500,
        "enc_pooling": ((2, 2), (2, 2), (2, 2), (2, 2), (2, 1)),
        "pad_min_h": 100, "pad_min_w": 1000,
    },
}


def parse_config_text(text: str, path: str = "<config>") -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def config_from_mapping(entries: dict[str, str]) -> RunConfig:
    """Build a RunConfig: the ``model.preset`` entry picks the defaults,
    and every other entry sets the field KEYMAP names."""
    entries = dict(entries)
    preset = entries.pop("model.preset", "desk")
    unknown = [k for k in entries if k not in KEYMAP]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    if preset not in PRESET_OVERRIDES:
        raise ConfigError(f"unknown model.preset {preset!r}")
    kwargs = dict(PRESET_OVERRIDES[preset])
    for key, raw in entries.items():
        attr, parser = KEYMAP[key]
        try:
            kwargs[attr] = parser(raw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({e})") from None
    return RunConfig(**kwargs)


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as f:
        return config_from_mapping(parse_config_text(f.read(), str(path)))


def config_to_mapping(cfg: RunConfig) -> dict[str, str]:
    """Canonical flat echo of every field, for checkpoints and logs."""
    by_attr = {attr: key for key, (attr, _) in KEYMAP.items()}
    out = {}
    for f in fields(cfg):
        key = by_attr[f.name]
        out[key] = _fmt(getattr(cfg, f.name))
    return dict(sorted(out.items()))


def config_from_checkpoint_mapping(mapping: dict[str, str]) -> RunConfig:
    entries = {k: v for k, v in mapping.items() if v != ""}
    for key, value in RETIRED_KEYS.items():
        found = entries.pop(key, value)
        if found != value:
            raise ConfigError(f"checkpoint sets retired key {key!r} to {found!r}; "
                              f"the encoder only runs {value!r}")
    return config_from_mapping(entries)
