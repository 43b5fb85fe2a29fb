"""Binary checkpoint format.

Layout: magic "SSMOCR", u32 version, u64 header length, a canonical JSON
header (model kind, config echo, vocabulary, rng state, step, tensor
directory), the little-endian tensor payload, and a trailing CRC32 over
everything before it. Canonical serialization makes save -> load -> save
byte-identical; a save replaces the target atomically.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"SSMOCR"
VERSION = 1

_DTYPES = {"f32": "<f4", "f64": "<f8"}


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint."""


class IntegrityError(CheckpointError):
    """Payload truncated or corrupted (CRC mismatch)."""


class VersionError(CheckpointError):
    """Format version not supported; upgrade required."""


@dataclass
class Checkpoint:
    model_kind: str
    config: dict[str, str]
    vocab_chars: str
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    rng_state: dict | None = None
    step: int = 0


def _tensor_dtype(arr: np.ndarray) -> str:
    if arr.dtype == np.float32:
        return "f32"
    if arr.dtype == np.float64:
        return "f64"
    raise CheckpointError(f"unsupported tensor dtype {arr.dtype}")


def save(path, ckpt: Checkpoint) -> None:
    names = sorted(ckpt.tensors)
    directory = []
    payload = bytearray()
    for name in names:
        arr = np.ascontiguousarray(ckpt.tensors[name])
        dtype = _tensor_dtype(arr)
        raw = arr.astype(_DTYPES[dtype], copy=False).tobytes()
        directory.append({
            "name": name, "dtype": dtype, "shape": list(arr.shape),
            "offset": len(payload), "nbytes": len(raw),
        })
        payload.extend(raw)
    header = {
        "model_kind": ckpt.model_kind,
        "config": dict(sorted(ckpt.config.items())),
        "vocab": ckpt.vocab_chars,
        "rng_state": ckpt.rng_state,
        "step": int(ckpt.step),
        "tensors": directory,
    }
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=True,
                              separators=(",", ":")).encode("ascii")
    body = b"".join([
        MAGIC,
        struct.pack("<I", VERSION),
        struct.pack("<Q", len(header_bytes)),
        header_bytes,
        bytes(payload),
    ])
    # write beside the target, then rename over it: an interrupted save
    # leaves the previous checkpoint untouched
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(body)
            f.write(struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load(path) -> Checkpoint:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(MAGIC) + 4 + 8 + 4:
        raise IntegrityError(f"{path}: file too short")
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:len(MAGIC)]!r}")
    (version,) = struct.unpack_from("<I", data, len(MAGIC))
    if version != VERSION:
        raise VersionError(
            f"{path}: format version {version}, this build reads {VERSION}; "
            "upgrade required")
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC) + 4)
    header_start = len(MAGIC) + 4 + 8
    payload_start = header_start + header_len
    body, crc_bytes = data[:-4], data[-4:]
    if payload_start > len(body):
        raise IntegrityError(f"{path}: truncated header")
    (stored_crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise IntegrityError(f"{path}: CRC mismatch, refusing partial load")
    try:
        header = json.loads(body[header_start:payload_start].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise IntegrityError(f"{path}: unreadable header ({e})") from None
    payload = body[payload_start:]
    tensors = {}
    for ent in header["tensors"]:
        start, nbytes = ent["offset"], ent["nbytes"]
        if start + nbytes > len(payload):
            raise IntegrityError(f"{path}: payload shorter than directory claims")
        arr = np.frombuffer(payload[start : start + nbytes],
                            dtype=_DTYPES[ent["dtype"]])
        expected = int(np.prod(ent["shape"])) if ent["shape"] else 1
        if arr.size != expected:
            raise IntegrityError(f"{path}: tensor {ent['name']} size mismatch")
        tensors[ent["name"]] = arr.reshape(ent["shape"]).copy()
    return Checkpoint(
        model_kind=header["model_kind"],
        config=header["config"],
        vocab_chars=header["vocab"],
        tensors=tensors,
        rng_state=header["rng_state"],
        step=header["step"],
    )


def apply_to_model(ckpt: Checkpoint, model) -> None:
    """Copy checkpoint tensors into model params/buffers, validating shapes."""
    params = model.params()
    buffers = model.buffers()
    for name, p in params.items():
        if name not in ckpt.tensors:
            raise CheckpointError(f"checkpoint missing tensor {name!r}")
        arr = ckpt.tensors[name]
        if tuple(arr.shape) != p.shape:
            raise CheckpointError(
                f"tensor {name!r} shape {arr.shape} does not match model {p.shape}")
        p.data = np.ascontiguousarray(arr, dtype=p.data.dtype)
    for name, buf in buffers.items():
        key = f"buffers.{name}"
        if key in ckpt.tensors:
            buf[...] = ckpt.tensors[key].astype(buf.dtype)


def collect_from_model(model, config_map: dict[str, str], rng_state=None,
                       step: int = 0, extra: dict | None = None) -> Checkpoint:
    tensors = {name: p.data for name, p in model.params().items()}
    tensors.update({f"buffers.{k}": v for k, v in model.buffers().items()})
    if extra:
        tensors.update(extra)
    return Checkpoint(
        model_kind=model.kind,
        config=config_map,
        vocab_chars="".join(model.vocab.chars),
        tensors=tensors,
        rng_state=rng_state,
        step=step,
    )
