"""Closed-form cost and receptive-field accounting, in exact arithmetic.

Attention/MLP block costs follow the multiply-accumulate convention of the
instrumented engine (one unit per multiply-add): the block total for a
window of n tokens is ``windows * (4nC^2 + 2n^2C + 8nC^2)``. A classifier
with messengers runs its last block for the messenger rows only: every
slot still gives keys and values, one query per window goes on, so that
block costs ``windows * (3nC^2 + 2nC + 9C^2)``. Convolution
costs are additionally reported at 2 FLOPs per multiply-add, since the two
conventions are commonly mixed; both totals are exposed side by side.

Everything here is integer or `fractions.Fraction` arithmetic so results
can be compared exactly against the instrumented counters.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Optional

from .errors import ConfigError
from .model import PATCH_KERNEL, ArchConfig, msg_only_block, stage_geometry
from .windows import MERGE_KERNEL

SWIN_SHIFT = "swin_shift"
MSG_SHUFFLE = "msg_shuffle"


def flops_block(windows: int, window_size: int, channels: int, with_msg: bool = True) -> int:
    """Exact attention+MLP cost of one block over ``windows`` windows.

    Without messenger tokens: ``windows(4w^2C^2 + 2w^4C) + 2·windows·w^2·4C^2``;
    with them, every per-window token count ``w^2`` becomes ``w^2 + 1``.
    """
    n, c = window_size**2 + with_msg, channels
    return windows * (4 * n * c * c + 2 * n * n * c + 8 * n * c * c)


def flops_msg_block(windows: int, window_size: int, channels: int) -> int:
    """Exact cost of a block in which only the messenger rows go past the keys and values (module docstring)."""
    n, c = window_size**2 + 1, channels
    return windows * (3 * n * c * c + 2 * n * c + 9 * c * c)


def flops_ratio(window_size: int, channels: int) -> Fraction:
    """Relative cost increase from attaching one messenger token per window.

    Returns the headline simplification ``(6C + w^2 + 1) / (6 w^2 C + w^4)``,
    independent of the grid extents. Note this simplification drops a ``w^2``
    from the attention-quadratic term; :func:`flops_ratio_exact` carries it.
    """
    if window_size < 1 or channels < 1:
        raise ConfigError("window size and channels must be positive")
    w2 = window_size**2
    return Fraction(6 * channels + w2 + 1, 6 * w2 * channels + w2 * w2)


def flops_ratio_exact(window_size: int, channels: int) -> Fraction:
    """Exact relative increase of :func:`flops_block`, ``(6C + 2w^2 + 1) / (6 w^2 C + w^4)`` for every grid."""
    if window_size < 1 or channels < 1:
        raise ConfigError("window size and channels must be positive")
    without = flops_block(1, window_size, channels, with_msg=False)
    return Fraction(flops_block(1, window_size, channels) - without, without)


def receptive_field(scheme: str, window_size: int, shuffle_size: Optional[int] = None) -> Fraction:
    """Token area reachable after two attention computations.

    Window shifting reaches ``(3w/2)^2``; messenger shuffling over an SxS
    region reaches ``(S*w)^2``.
    """
    if window_size < 1:
        raise ConfigError("window size must be positive")
    if scheme == SWIN_SHIFT:
        return Fraction(3 * window_size, 2) ** 2
    if scheme == MSG_SHUFFLE:
        if shuffle_size is None or shuffle_size < 1:
            raise ConfigError("msg_shuffle requires a positive shuffle size")
        return Fraction(shuffle_size * window_size) ** 2
    raise ConfigError(f"unknown scheme {scheme!r}; expected {SWIN_SHIFT} or {MSG_SHUFFLE}")


def model_flops(cfg: ArchConfig, input_size: Optional[int] = None) -> dict:
    """Cost breakdown for a full forward pass at ``input_size``.

    Returns multiply-accumulate counts: per-stage attention+MLP totals, the
    messenger-only last block of a classifier (``final_block``, 0 if none), the
    patch-embed / merge / head projection terms (``head`` 0 for a
    det-backbone, which runs no head), and grand totals under
    both the MAC convention (``total_macs``) and with convolutions counted
    at 2 FLOPs per MAC (``total_flops_conv2x``). A config or size that
    ``ArchConfig.validate`` rejects raises its ``ConfigError``.
    """
    cfg = cfg if input_size is None else replace(cfg, input_size=input_size)
    cfg.validate()
    geometry = stage_geometry(cfg)
    h, w = geometry[0][0]
    embed_macs = h * w * PATCH_KERNEL**2 * 3 * cfg.stages[0].dim

    stage_macs: list[int] = []
    merge_macs: list[int] = []
    for i, (s, (_, (gh, gw))) in enumerate(zip(cfg.stages, geometry)):
        windows, ws = gh * gw, cfg.window_size
        last = any(msg_only_block(cfg, i, b) for b in range(s.num_blocks))
        final_macs = flops_msg_block(windows, ws, s.dim) if last else 0
        stage_macs.append((s.num_blocks - last) * flops_block(windows, ws, s.dim, cfg.use_msg) + final_macs)
        if i < len(cfg.stages) - 1:
            # the messengers merge onto the next window grid: ceil(ceil(e/w)/2) = ceil(ceil(e/2)/w)
            (nh, nw), (mh, mw) = geometry[i + 1]
            merged = nh * nw + (mh * mw if cfg.use_msg else 0)
            merge_macs.append(merged * MERGE_KERNEL**2 * s.dim * cfg.stages[i + 1].dim)
    head_macs = cfg.stages[-1].dim * cfg.num_classes if cfg.task == "cls" else 0
    conv_macs = embed_macs + sum(merge_macs)
    attention_mlp = sum(stage_macs)
    return {
        "stages": stage_macs,
        "final_block": final_macs,
        "embed": embed_macs,
        "merges": merge_macs,
        "head": head_macs,
        "attention_mlp": attention_mlp,
        "conv_macs": conv_macs,
        "total_macs": attention_mlp + conv_macs + head_macs,
        "total_flops_conv2x": attention_mlp + 2 * conv_macs + head_macs,
    }
