"""Window partitioning, shuffle-region grouping, padding, and token merging.

Feature maps are channel-last (B, H, W, C). Partitioning reshapes the map
into a grid of non-overlapped square windows. A stage's messengers are one
plain (B, Gh, Gw, C) tensor, one token per window of the grid, and
:func:`build_region_view` tiles that grid into the regions that exchange
channels. The tensor transformations are differentiable and value-preserving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, PartitionError, ShapeError
from .tensor import Tensor

TOP_LEFT = "top-left"
BOTTOM_RIGHT = "bottom-right"
MERGE_KERNEL, MERGE_STRIDE, MERGE_PAD = 3, 2, 1  # the convolution between stages


def partition_call_count() -> int:
    """Partitions run since import; a run's count is the difference of two reads."""
    return T._counts["partitions"]


@dataclass
class FeatureMap:
    """Patch tokens on their 2-d grid: ``tokens`` is (B, H, W, C)."""

    tokens: Tensor

    @property
    def channels(self) -> int:
        return self.tokens.shape[3]


@dataclass
class WindowedTokens:
    """Windows of tokens: ``windows`` is (B, Gh, Gw, tokens_per_window, C).

    The per-window token axis is ``w**2`` or ``w**2 + 1``. In the second case
    (``with_msg``) slot 0 holds the messenger token; patch tokens follow in
    row-major order.
    """

    windows: Tensor

    def __post_init__(self):
        n = self.windows.shape[3]
        if n - math.isqrt(n) ** 2 > 1:
            raise ShapeError(f"{n} tokens per window is neither a square w**2 nor w**2 + 1")

    @property
    def with_msg(self) -> bool:
        """Whether slot 0 holds a messenger: the token count is not a perfect square."""
        return math.isqrt(self.windows.shape[3]) ** 2 != self.windows.shape[3]

    @property
    def channels(self) -> int:
        return self.windows.shape[4]


def _segments(extent: int, region: int, anchor: str) -> list[tuple[int, int, int]]:
    """Split one grid axis into at most two (start, stop, band) segments.

    The full ``region``-wide bands form one segment and the leftover
    partial band the other; the partial band sits at the end opposite
    ``anchor``.
    """
    partial = extent % region
    if anchor == TOP_LEFT:
        segs = [(0, extent - partial, region), (extent - partial, extent, partial)]
    else:
        segs = [(0, partial, partial), (partial, extent, region)]
    return [seg for seg in segs if seg[0] < seg[1]]


def build_region_view(
    grid_shape: tuple[int, int],
    region_size: int,
    anchor: str = TOP_LEFT,
) -> list[tuple[slice, slice, int, int]]:
    """Tile a window grid into SxS shuffle regions: the at most 2x2 (rows, cols, rh, rw) blocks.

    Complete regions align to ``anchor`` and leftover windows form partial regions at the
    opposite corner, so each axis has at most two segments, and the block at grid slices
    ``rows``, ``cols`` is tiled by rh x rw regions. A region larger than the grid is the whole grid.
    """
    if region_size < 1:
        raise ConfigError(f"region size must be >= 1, got {region_size}")
    if anchor not in (TOP_LEFT, BOTTOM_RIGHT):
        raise ConfigError(f"unknown anchor {anchor!r}")
    (gh, gw), s = grid_shape, region_size
    return [
        (slice(r0, r1), slice(c0, c1), rh, rw)
        for r0, r1, rh in _segments(gh, s, anchor)
        for c0, c1, rw in _segments(gw, s, anchor)
    ]


def regions(grid_shape: tuple[int, int], region_size: int, anchor: str = TOP_LEFT) -> list[np.ndarray]:
    """Per region of :func:`build_region_view`'s tiling, the flat (row-major) window indices it covers."""
    blocks = build_region_view(grid_shape, region_size, anchor)
    rows = sorted({(a, a + rh) for r, _, rh, _ in blocks for a in range(r.start, r.stop, rh)})
    cols = sorted({(a, a + rw) for _, c, _, rw in blocks for a in range(c.start, c.stop, rw)})
    flat = np.arange(grid_shape[0] * grid_shape[1]).reshape(grid_shape)
    return [flat[r0:r1, c0:c1].reshape(-1) for r0, r1 in rows for c0, c1 in cols]


def partition_windows(fm: FeatureMap, window_size: int) -> WindowedTokens:
    """Split (B, H, W, C) into non-overlapped ``window_size`` square windows."""
    b, h, w, c = fm.tokens.shape
    if h % window_size or w % window_size:
        raise PartitionError(
            f"extents {h}x{w} are not divisible by window size {window_size}; "
            "call pad_to_window_multiple first"
        )
    T._counts["partitions"] += 1
    gh, gw = h // window_size, w // window_size
    x = T.reshape(fm.tokens, (b, gh, window_size, gw, window_size, c))
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))
    x = T.reshape(x, (b, gh, gw, window_size * window_size, c))
    return WindowedTokens(x)


def reverse_windows(wt: WindowedTokens) -> FeatureMap:
    """Exact inverse of :func:`partition_windows`."""
    if wt.with_msg:
        raise ContractError("detach messenger tokens before reversing windows")
    b, gh, gw, n, c = wt.windows.shape
    ws = math.isqrt(n)
    x = T.reshape(wt.windows, (b, gh, gw, ws, ws, c))
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))
    x = T.reshape(x, (b, gh * ws, gw * ws, c))
    return FeatureMap(tokens=x)


def pad_to_window_multiple(fm: FeatureMap, window_size: int) -> tuple[FeatureMap, tuple[int, int]]:
    """Zero-pad bottom/right to the next window multiple; returns original extents."""
    b, h, w, c = fm.tokens.shape
    ph = (-h) % window_size
    pw = (-w) % window_size
    if ph == 0 and pw == 0:
        return fm, (h, w)
    padded = T.pad(fm.tokens, [(0, 0), (0, ph), (0, pw), (0, 0)])
    return FeatureMap(tokens=padded), (h, w)


def crop_to(fm: FeatureMap, extents: tuple[int, int]) -> FeatureMap:
    """Drop bottom/right padding, restoring the recorded extents."""
    h, w = extents
    if fm.tokens.shape[1] == h and fm.tokens.shape[2] == w:
        return fm
    return FeatureMap(tokens=fm.tokens[:, :h, :w, :])


def merge_tokens(
    fm: FeatureMap,
    msg: Optional[Tensor],
    weight: Tensor,
    bias: Tensor,
) -> tuple[FeatureMap, Optional[Tensor]]:
    """Downsample between stages with one shared strided 3x3 convolution.

    The patch grid and the messenger grid are convolved with the *same*
    weights (3x3, stride 2, padding 1), halving spatial extents (ceil for odd
    messenger grids) and doubling channels.
    """
    c, k = fm.channels, MERGE_KERNEL
    if weight.shape[:3] != (k, k, c):
        raise ShapeError(f"merge weight {weight.shape} does not match {k}x{k} kernel over {c} channels")
    if msg is not None and msg.shape[3] != c:
        raise ShapeError(f"messenger channels {msg.shape[3]} != patch channels {c}")
    merged = FeatureMap(tokens=T.conv2d(fm.tokens, weight, bias, MERGE_STRIDE, MERGE_PAD))
    merged_msg = None if msg is None else T.conv2d(msg, weight, bias, MERGE_STRIDE, MERGE_PAD)
    return merged, merged_msg
