"""Datasets for the desk-scale harness.

Two sources: a deterministic synthetic texture task (four classes of
oriented sinusoidal stripes, separable by dominant orientation energy) and
IDX-format binary files (big-endian magic + extent header + raw bytes).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

ORIENTATIONS_DEG = (0.0, 45.0, 90.0, 135.0)


@dataclass(frozen=True)
class DatasetSpec:
    source: str = "synthetic-textures"  # "synthetic-textures" | "idx-files"
    image_size: int = 128
    num_classes: int = 4
    num_train: int = 512
    num_val: int = 128
    seed: int = 0
    noise_sigma: float = 0.1
    images_path: str = ""
    labels_path: str = ""

    def validate(self) -> None:
        bounds = (("seed", self.seed, 0), ("num_train", self.num_train, 1), ("num_val", self.num_val, 0),
                  ("image_size", self.image_size, 1), ("noise_sigma", self.noise_sigma, 0))
        for key, value, least in bounds:
            if not value >= least:  # NaN too
                raise ConfigError(f"data.{key} must be >= {least}, got {value}")
        if self.source not in ("synthetic-textures", "idx-files"):
            raise ConfigError(f"unknown dataset source {self.source!r}")
        if self.source == "synthetic-textures":
            if self.num_classes != len(ORIENTATIONS_DEG):
                raise ConfigError(
                    f"synthetic textures define {len(ORIENTATIONS_DEG)} orientation classes, "
                    f"got num_classes={self.num_classes}"
                )
            total = self.num_train + self.num_val
            if total % self.num_classes:
                raise ConfigError(f"total sample count {total} must divide evenly into classes")
        else:
            if not self.images_path or not self.labels_path:
                raise ConfigError("idx-files source requires images_path and labels_path")


@dataclass
class Dataset:
    """Gray images and their labels.

    Both sources store one channel, ``gray`` (N, S, S, 1) float32 in [0, 1].
    ``images`` broadcasts it to a read-only (N, S, S, 3) RGB view, so the
    bytes read as three equal channels while memory holds one. The splits
    that ``load_data`` returns each own exactly their rows.
    """

    gray: np.ndarray
    labels: np.ndarray  # (N,) int64

    @property
    def images(self) -> np.ndarray:
        return np.broadcast_to(self.gray, self.gray.shape[:3] + (3,))

    def __len__(self) -> int:
        return len(self.labels)


def generate_synthetic(spec: DatasetSpec) -> Dataset:
    """Balanced oriented-stripe images: class k has stripes at k*45 degrees.

    Each image is a sinusoidal grating (random frequency and phase) plus
    Gaussian pixel noise, clipped to [0, 1]. Identical (spec, seed) pairs
    produce identical bytes. Any other ``data.source`` raises ``ConfigError``.
    """
    labels, rows = synthetic_rows(spec)
    return Dataset(gray=rows(0, len(labels)), labels=labels)


def synthetic_rows(spec: DatasetSpec):
    """Check ``spec``, then return the labels and ``rows(lo, hi)``: rows lo:hi in a new array, to be
    called in row order (one rng stream). Nothing is rendered before the first call."""
    if spec.source != "synthetic-textures":
        raise ConfigError(f"data.source {spec.source!r} is not generated; only 'synthetic-textures' is")
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n = spec.num_train + spec.num_val
    size = spec.image_size

    labels = np.tile(np.arange(spec.num_classes, dtype=np.int64), n // spec.num_classes)
    rng.shuffle(labels)

    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32)
    def rows(lo, hi):
        gray = np.empty((hi - lo, size, size, 1), dtype=np.float32)
        for i, label in enumerate(labels[lo:hi]):
            theta = np.deg2rad(ORIENTATIONS_DEG[label]).astype(np.float32)
            freq = rng.uniform(3.0, 8.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave = np.sin(
                2.0 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta)) / size + phase
            )
            img = 0.5 + 0.35 * wave
            if spec.noise_sigma > 0:
                img = img + spec.noise_sigma * rng.standard_normal((size, size))
            gray[i, :, :, 0] = np.clip(img, 0.0, 1.0)
        return gray
    return labels, rows


def load_data(spec: DatasetSpec) -> tuple[Dataset, Dataset]:
    """The first ``num_train`` rows of the source as train, the next ``num_val`` as val.

    Rows are written in load order straight into two arrays, so each split
    owns exactly its rows and neither keeps the other's bytes alive.
    """
    spec.validate()
    t, v = spec.num_train, spec.num_val
    if spec.source == "synthetic-textures":
        labels, rows = synthetic_rows(spec)
    else:
        labels, rows = _idx(spec.images_path, spec.labels_path, spec.image_size)
        bad = np.flatnonzero(labels >= spec.num_classes)
        if bad.size:
            raise ConfigError(f"IDX label {labels[bad[0]]} at index {bad[0]} is out of range "
                              f"for num_classes={spec.num_classes}")
    if len(labels) < t + v:
        raise ConfigError(f"dataset has {len(labels)} samples, need {t + v}")
    train = Dataset(gray=rows(0, t), labels=labels[:t].copy())  # train's rows come first in the rng stream
    return train, Dataset(gray=rows(t, t + v), labels=labels[t : t + v].copy())


# -- IDX binary format -----------------------------------------------------------


def _read_exact(f, path: str, n: int, what: str) -> bytes:
    start = f.tell()
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"{path}: truncated IDX file at byte offset {start + len(buf)}: expected {what}")
    return buf


def _load_idx_array(path: str, expected_magic: int, rank: int) -> np.ndarray:
    with open(path, "rb") as f:
        (magic,) = struct.unpack(">i", _read_exact(f, path, 4, "magic"))
        if magic != expected_magic:
            raise FormatError(
                f"{path}: bad IDX magic 0x{magic:08x} at byte offset 0, "
                f"expected 0x{expected_magic:08x}"
            )
        extents = struct.unpack(f">{rank}i", _read_exact(f, path, 4 * rank, f"{rank} extents"))
        count = int(np.prod(extents))
        raw = _read_exact(f, path, count, f"{count} payload bytes")
        return np.frombuffer(raw, dtype=np.uint8).reshape(extents)


def _idx(images_path: str, labels_path: str, image_size: int):
    """The labels, and ``rows(lo, hi)``: rows lo:hi rescaled to [0, 1] and center-padded, in a new array."""
    images = _load_idx_array(images_path, IDX_IMAGES_MAGIC, rank=3)
    labels = _load_idx_array(labels_path, IDX_LABELS_MAGIC, rank=1)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"IDX image count {images.shape[0]} != label count {labels.shape[0]}"
        )
    _, h, w = images.shape
    if h > image_size or w > image_size:
        raise ConfigError(f"IDX images {h}x{w} exceed configured input size {image_size}")
    top = (image_size - h) // 2
    left = (image_size - w) // 2
    def rows(lo, hi):
        gray = np.zeros((hi - lo, image_size, image_size, 1), dtype=np.float32)
        gray[:, top : top + h, left : left + w, 0] = images[lo:hi].astype(np.float32) / 255.0
        return gray
    return labels.astype(np.int64), rows


def save_idx(images: np.ndarray, labels: np.ndarray, images_path: str, labels_path: str) -> None:
    """Write u8 grayscale images (N, H, W) and labels (N,) in IDX format."""
    if images.dtype != np.uint8 or images.ndim != 3:
        raise ConfigError(f"expected u8 (N, H, W) images, got {images.dtype} {images.shape}")
    if labels.size and not 0 <= labels.min() <= labels.max() <= 255:
        raise ConfigError(
            f"IDX labels are single bytes; got labels in [{labels.min()}, {labels.max()}]"
        )
    n, h, w = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGES_MAGIC, n, h, w))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABELS_MAGIC, n))
        f.write(labels.astype(np.uint8).tobytes())
