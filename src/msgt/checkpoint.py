"""Binary checkpoints.

Layout (all integers little-endian): magic bytes ``MSGT``, version u32,
tensor count u32, then per tensor: name length u16, UTF-8 name, rank u8,
one u32 extent per axis, then 32-bit little-endian float values. Saving
writes a sibling ``.tmp`` file and renames it over the target, each
tensor straight from its own buffer. Loading builds the model from its
architecture config, then reads each tensor's values straight into its
parameter and validates the file in place: every name, shape and value
(NaN and Inf are rejected), and that no tensor is missing or unknown.
Only version 2 loads: a file of any other version is rejected, its version named.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import FormatError
from .model import ArchConfig, Model, build_model

MAGIC = b"MSGT"
VERSION = 2


def save_checkpoint(model: Model, path: str) -> None:
    """Write ``model`` to ``path`` atomically: a partial write never replaces a good file."""
    params = model.named_parameters()
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", VERSION, len(params)))
            for name, tensor in params:
                encoded = name.encode("utf-8")
                f.write(struct.pack("<H", len(encoded)))
                f.write(encoded)
                f.write(struct.pack("<B", tensor.data.ndim))
                f.write(struct.pack(f"<{tensor.data.ndim}I", *tensor.data.shape))
                f.write(np.ascontiguousarray(tensor.data, dtype="<f4"))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path: str, cfg: ArchConfig) -> Model:
    """Build a model for ``cfg`` and read the checkpoint at ``path`` straight into its parameters."""
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise FormatError(f"{path}: not a checkpoint (bad magic)")
        version, count = struct.unpack("<II", _read(f, 8, "header"))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        file_size = os.fstat(f.fileno()).st_size
        model = build_model(cfg, seed=0)
        params = dict(model.named_parameters())
        seen, unknown = set(), []  # every name read; those the model lacks, in file order
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read(f, 2, "name length"))
            try:
                name = _read(f, name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: checkpoint tensor name is not UTF-8 ({exc.reason})") from None
            (rank,) = struct.unpack("<B", _read(f, 1, f"rank of {name}"))
            shape = struct.unpack(f"<{rank}I", _read(f, 4 * rank, f"extents of {name}"))
            nbytes, left = 4 * math.prod(shape), file_size - f.tell()
            if nbytes > left:
                raise FormatError(
                    f"{path}: truncated checkpoint: tensor {name!r} with extents {shape} "
                    f"needs {nbytes} bytes, {left} remain"
                )
            if name in seen:
                raise FormatError(f"{path}: checkpoint tensor {name!r} appears twice")
            seen.add(name)
            if name not in params:
                unknown.append(name)
                f.seek(nbytes, os.SEEK_CUR)
                continue
            values = params[name].data
            if shape != values.shape:
                raise FormatError(f"checkpoint tensor {name!r} has shape {shape}, model expects {values.shape}")
            if f.readinto(values) != nbytes:
                raise FormatError(f"truncated checkpoint while reading values of {name}")
            if not np.little_endian:
                values.byteswap(inplace=True)
            if not np.isfinite(values).all():
                raise FormatError(f"{path}: checkpoint tensor {name!r} holds NaN or Inf")
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after the last checkpoint tensor")

    for name in params:
        if name not in seen:
            raise FormatError(f"checkpoint missing tensor {name!r}")
    if unknown:
        raise FormatError(f"checkpoint contains unknown tensor {unknown[0]!r}")
    return model
