"""Bit-exact binary checkpoint format for WeightStore.

Layout: magic "MBRT", format version u32 LE, length-prefixed UTF-8 config
text (key=value lines, metadata keys prefixed "meta."), tensor count u32 LE,
then per tensor: length-prefixed name, rank u32 LE, dims u64 LE, raw
row-major little-endian IEEE-754 float32 payload. Tensors are written in
sorted name order so identical stores serialize identically.
"""

from __future__ import annotations

import dataclasses
import io
import math
import struct
from typing import IO

import numpy as np

from .data import atomic_write
from .encoder import EncoderConfig, HEAD_PREFIX, WeightStore, expected_shapes
from .errors import CorruptionError, FormatError

MAGIC = b"MBRT"
FORMAT_VERSION = 1
_READ_CHUNK = 1 << 24

# the config text holds every EncoderConfig field in declaration order,
# ints in decimal and floats by repr
_FIELDS = {f.name: {"int": int, "float": float}[f.type] for f in dataclasses.fields(EncoderConfig)}


def _config_text(store: WeightStore) -> str:
    cfg = store.config
    lines = [f"{k}={getattr(cfg, k)!r}" if kind is float else f"{k}={getattr(cfg, k)}"
             for k, kind in _FIELDS.items()]
    for key in sorted(store.metadata):
        value = store.metadata[key]
        if "\n" in key or "\n" in value or "=" in key:
            raise FormatError(f"metadata entry {key!r} contains a newline or '='")
        lines.append(f"meta.{key}={value}")
    return "\n".join(lines) + "\n"


def _parse_config_text(text: str) -> tuple[EncoderConfig, dict[str, str]]:
    fields: dict[str, str] = {}
    metadata: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno} is not key=value: {line!r}")
        key, value = line.split("=", 1)
        if key.startswith("meta."):
            metadata[key[len("meta."):]] = value
        else:
            fields[key] = value
    try:
        kwargs = {k: kind(fields[k]) for k, kind in _FIELDS.items()}
    except KeyError as e:
        raise FormatError(f"config text missing field {e.args[0]}") from None
    except ValueError as e:
        raise FormatError(f"malformed config value: {e}") from None
    unknown = set(fields) - set(_FIELDS)
    if unknown:
        raise FormatError(f"unknown config fields: {sorted(unknown)}")
    return EncoderConfig(**kwargs), metadata


def save_checkpoint(store: WeightStore, sink: IO[bytes]) -> int:
    """Serialize a validated store; returns the number of bytes written."""
    store.validate()
    written = 0

    def put(data: bytes):
        nonlocal written
        sink.write(data)
        written += len(data)

    put(MAGIC)
    put(struct.pack("<I", FORMAT_VERSION))
    cfg_bytes = _config_text(store).encode("utf-8")
    put(struct.pack("<I", len(cfg_bytes)))
    put(cfg_bytes)
    names = sorted(store.tensors)
    put(struct.pack("<I", len(names)))
    for name in names:
        arr = store.tensors[name]
        name_bytes = name.encode("utf-8")
        put(struct.pack("<I", len(name_bytes)))
        put(name_bytes)
        put(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            put(struct.pack("<Q", dim))
        payload = np.ascontiguousarray(arr, dtype="<f4")
        put(payload.tobytes())
    return written


def save_checkpoint_file(store: WeightStore, path) -> int:
    with atomic_write(path, binary=True) as f:
        return save_checkpoint(store, f)


def _read_exact(source: IO[bytes], n: int, what: str) -> bytes:
    # bounded reads: a stream read asked for n bytes may allocate n up front
    chunks = []
    while n > 0:
        chunk = source.read(min(n, _READ_CHUNK))
        if not chunk:
            raise CorruptionError(f"truncated stream while reading {what}")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read_utf8(source: IO[bytes], n: int, what: str) -> str:
    try:
        return _read_exact(source, n, what).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} is not UTF-8: {e}") from None


def _stream_end(source: IO[bytes]) -> int | None:
    """Offset of the end of a seekable stream, None for one that cannot seek."""
    if not source.seekable():
        return None
    here = source.tell()
    end = source.seek(0, io.SEEK_END)
    source.seek(here)
    return end


def load_checkpoint(source: IO[bytes]) -> WeightStore:
    """Inverse of save_checkpoint; load(save(w)) is bit-identical to w."""
    magic = source.read(len(MAGIC))
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    (version,) = struct.unpack("<I", _read_exact(source, 4, "format version"))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    (cfg_len,) = struct.unpack("<I", _read_exact(source, 4, "config length"))
    config, metadata = _parse_config_text(_read_utf8(source, cfg_len, "config text"))
    want = expected_shapes(config)
    end = _stream_end(source)

    (count,) = struct.unpack("<I", _read_exact(source, 4, "tensor count"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", _read_exact(source, 4, "tensor name length"))
        name = _read_utf8(source, name_len, "tensor name")
        if name in tensors:
            raise CorruptionError(f"duplicate tensor {name}")
        (rank,) = struct.unpack("<I", _read_exact(source, 4, f"rank of {name}"))
        shape = tuple(struct.unpack("<Q", _read_exact(source, 8, f"dims of {name}"))[0]
                      for _ in range(rank))
        if name in want:
            if shape != want[name]:
                raise CorruptionError(f"tensor {name} has shape {shape}, config dictates {want[name]}")
        elif not name.startswith(HEAD_PREFIX):
            raise CorruptionError(f"tensor {name} is not dictated by the embedded config")
        n_bytes = 4 * math.prod(shape)
        if end is not None and n_bytes > end - source.tell():
            raise CorruptionError(f"truncated stream: payload of tensor {name} declares "
                                  f"{n_bytes} bytes, more than the stream holds")
        payload = _read_exact(source, n_bytes, f"payload of tensor {name}")
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
        except ValueError as e:  # an empty tensor with a dimension numpy cannot index
            raise CorruptionError(f"tensor {name} has shape {shape}: {e}") from None
    missing = sorted(set(want) - set(tensors))
    if missing:
        raise CorruptionError(f"missing tensors: {missing}")
    return WeightStore(config, tensors, metadata)


def load_checkpoint_file(path) -> WeightStore:
    with open(path, "rb") as f:
        return load_checkpoint(f)


def roundtrip_bytes(store: WeightStore) -> bytes:
    buf = io.BytesIO()
    save_checkpoint(store, buf)
    return buf.getvalue()
