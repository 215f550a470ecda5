"""The messenger-token transformer block.

Each non-overlapped window carries one extra "messenger" token that
summarizes the window through attention. Between the attention and MLP
halves of a block, messenger tokens belonging to the same shuffle region
exchange channel groups (or are averaged / cyclically shifted, for the
ablation modes), which is the only cross-window communication channel.
A block's ``BlockParams`` states its exchange: region size, anchor, mode.

A stage's messengers are one plain (B, Gh, Gw, C) tensor, one token per
window. Each sits at slot 0 of its window's token sequence for a whole
stage: the model attaches them once after partitioning and detaches them
once before reversing the windows, or a classifier's last block returns
the grid alone.
Block procedure, in order: layer norm, local multi-head self-attention with
relative position bias, residual add, messenger manipulation, layer norm,
two-layer MLP, residual add.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import tensor as T
from . import windows as W
from .errors import ConfigError, ShapeError
from .tensor import Tensor

MODES = ("shuffle", "average", "shift", "none")


# -- relative position bias ---------------------------------------------------


@lru_cache(maxsize=None)
def _bias_gather_index(window_size: int, with_msg: bool) -> np.ndarray:
    """(T, T) index into one head's bias row that assembles its whole bias matrix.

    Patch slots hold their positions in row-major order. Query i and key j
    address table cell (col_i - col_j + w-1, row_i - row_j + w-1) of the
    flattened (2w-1)x(2w-1) table. With messengers, slot 0 is prepended: its
    key column reads position (2w-1)**2, the messenger-key scalar, and its
    query row reads position (2w-1)**2 + 1, a zero: softmax removes a constant row.
    """
    w = window_size
    span = 2 * w - 1
    row, col = np.divmod(np.arange(w * w), w)
    idx = (col[:, None] - col + w - 1) * span + (row[:, None] - row + w - 1)
    if with_msg:
        idx = np.pad(idx, ((0, 0), (1, 0)), constant_values=span * span)
        idx = np.pad(idx, ((1, 0), (0, 0)), constant_values=span * span + 1)
    return idx


def bias_matrix(table: Tensor, msg_key: Optional[Tensor], with_msg: bool) -> Tensor:
    """Assemble the additive attention bias, shape (heads, T, T), for the window of the table's span."""
    heads, span = table.shape[:2]
    flat = T.reshape(table, (heads, -1))
    if with_msg:
        if msg_key is None:
            raise ConfigError("messenger key bias is absent in this block")
        zero = Tensor(np.zeros((heads, 1), dtype=flat.data.dtype))
        flat = T.concat([flat, T.reshape(msg_key, (heads, 1)), zero], axis=1)
    return flat[:, _bias_gather_index((span + 1) // 2, with_msg)]


# -- attention ------------------------------------------------------------------


def local_msa(x: Tensor, params: BlockParams) -> Tensor:
    """Multi-head self-attention inside each window of ``x`` (..., tokens, C).

    A window of ``w**2 + 1`` tokens, w from the bias table's span, carries its messenger at
    slot 0, one of ``w**2`` has none, and any other count raises. Without ``bias_table`` (a
    messenger-only block) only slot 0 queries.
    """
    table, n, bias = params.bias_table, x.shape[-2], None
    if table is not None:
        w = (table.shape[1] + 1) // 2
        if n - w * w not in (0, 1):
            raise ShapeError(f"{n} tokens per window are neither w**2 nor w**2 + 1 for the bias table's w = {w}")
        bias = bias_matrix(table, params.msg_key_bias, n > w * w)
    ctx, _ = T.attention(x, params.qkv_weight, params.qkv_bias, bias, params.num_heads, 1 if table is None else None)
    return T.linear(ctx, params.out_weight, params.out_bias)


# -- messenger attachment ---------------------------------------------------------


def attach_msg(wt: W.WindowedTokens, msg: Tensor) -> W.WindowedTokens:
    """Prepend each window's messenger token, from the (B, Gh, Gw, C) grid ``msg``, at slot 0."""
    if wt.with_msg:
        raise ConfigError("messenger tokens already attached")
    b, gh, gw, n, c = wt.windows.shape
    if msg.shape != (b, gh, gw, c):
        raise ShapeError(f"messenger grid {msg.shape} does not match window grid ({b}, {gh}, {gw}, {c})")
    lead = T.reshape(msg, (b, gh, gw, 1, c))
    return W.WindowedTokens(T.concat([lead, wt.windows], axis=3))


def detach_msg(wt: W.WindowedTokens) -> tuple[W.WindowedTokens, Tensor]:
    """Cut slot 0 back out as the messenger grid; exact inverse of :func:`attach_msg`."""
    if not wt.with_msg:
        raise ConfigError("no messenger tokens attached")
    return W.WindowedTokens(wt.windows[:, :, :, 1:]), wt.windows[:, :, :, 0]


# -- messenger manipulation ---------------------------------------------------------


def _exchange_regions(x: Tensor, rh: int, rw: int, s: int, anchor: str, mode: str) -> Tensor:
    """Exchange within every rh x rw region of a block tiled by such regions.

    ``shuffle`` numbers slots and C's S² channel groups over the full SxS region, the slots of a partial
    region lying away from ``anchor``: slot p's group q swaps with slot q's group p, and a group whose
    partner slot is absent stays. ``shift`` and ``average`` act on the n = rh*rw tokens in row-major order.
    """
    b, bh, bw, c = x.shape
    n, nr, nc = rh * rw, bh // rh, bw // rw
    if n == 1:
        return x
    if mode == "shuffle":
        x = T.reshape(x, (b, nr, rh, nc, rw, s, s, c // (s * s)))
        swap = (0, 1, 5, 3, 6, 2, 4, 7)  # (row, col) slot axes <-> (row, col) group axes
        if (rh, rw) == (s, s):
            return T.reshape(T.transpose(x, swap), (b, bh, bw, c))
        r0, c0 = (0, 0) if anchor == W.TOP_LEFT else (s - rh, s - rw)
        full = T.pad(x, [(0, 0), (0, 0), (r0, s - rh - r0), (0, 0), (c0, s - rw - c0), (0, 0), (0, 0), (0, 0)])
        keep = np.ones((s, s, 1), x.data.dtype)
        keep[r0 : r0 + rh, c0 : c0 + rw] = 0  # groups whose partner slot is present move
        swapped = T.transpose(full, swap)[:, :, r0 : r0 + rh, :, c0 : c0 + rw]
        return T.reshape(T.add(swapped, T.mul(x, Tensor(keep))), (b, bh, bw, c))
    x = T.reshape(x, (b, nr, rh, nc, rw, c))
    x = T.reshape(T.transpose(x, (0, 1, 3, 2, 4, 5)), (b, nr, nc, n, c))
    if mode == "shift":  # token k <- token k-1, cyclically
        x = T.concat([x[:, :, :, n - 1 :], x[:, :, :, : n - 1]], axis=3)
    else:  # every token <- the region mean
        x = T.broadcast_mean(x, axis=3)
    x = T.reshape(x, (b, nr, nc, rh, rw, c))
    return T.reshape(T.transpose(x, (0, 1, 3, 2, 4, 5)), (b, bh, bw, c))


def manipulate_msg(msg: Tensor, region_size: int, anchor: str, mode: str) -> Tensor:
    """Exchange the (B, Gh, Gw, C) messenger grid within its ``region_size`` regions aligned to ``anchor``.

    ``mode`` runs over each block of :func:`windows.build_region_view`'s at most two row bands by two
    column bands, and the grid is reassembled. ``shuffle`` needs S² | C at every grid size.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown manipulation mode {mode!r}; expected one of {MODES}")
    rows, cols = W.build_region_view(msg.shape[1:3], region_size, anchor)
    if mode == "shuffle" and msg.shape[3] % region_size**2:
        raise ConfigError(
            f"channels {msg.shape[3]} do not split into shuffle size {region_size}'s {region_size**2} channel groups"
        )
    if mode == "none":
        return msg
    whole = len(rows) == len(cols) == 1
    parts = [
        [_exchange_regions(msg if whole else msg[:, r, c], rh, rw, region_size, anchor, mode) for c, rw in cols]
        for r, rh in rows
    ]

    def join(parts, axis):
        return T.concat(parts, axis=axis) if len(parts) > 1 else parts[0]

    return join([join(row, 2) for row in parts], 1)


# -- the block ------------------------------------------------------------------------


@dataclass
class BlockParams:
    norm1_gamma: Tensor
    norm1_beta: Tensor
    qkv_weight: Tensor  # (C, 3C)
    qkv_bias: Tensor  # (3C,)
    out_weight: Tensor  # (C, C)
    out_bias: Tensor  # (C,)
    num_heads: int
    bias_table: Optional[Tensor]  # (heads, 2w-1, 2w-1) by patch offset; None in a messenger-only block
    msg_key_bias: Optional[Tensor]  # (heads,) on messenger key columns; None without messengers
    norm2_gamma: Tensor
    norm2_beta: Tensor
    mlp_w1: Tensor  # (C, 4C)
    mlp_b1: Tensor
    mlp_w2: Tensor  # (4C, C)
    mlp_b2: Tensor
    mode: str
    shuffle_size: int  # the exchange's region side, in windows
    anchor: str  # the corner its complete regions align to

    def __post_init__(self):
        c = self.mlp_w1.shape[0]
        if self.mlp_w1.shape != (c, 4 * c) or self.mlp_w2.shape != (4 * c, c):
            raise ConfigError(
                f"MLP must expand to exactly 4x channels; got {self.mlp_w1.shape} / {self.mlp_w2.shape}"
            )
        if self.mode not in MODES:
            raise ConfigError(f"unknown manipulation mode {self.mode!r}; expected one of {MODES}")
        if self.bias_table is None and self.msg_key_bias is not None:
            raise ConfigError("a messenger key bias needs a bias table; a messenger-only block has neither")
        shape = None if self.bias_table is None else self.bias_table.shape
        if shape is not None and (shape != (self.num_heads, shape[-1], shape[-1]) or shape[-1] % 2 == 0):
            raise ShapeError(f"bias table {shape} is not {self.num_heads} heads of odd-sided square grids")

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """The block's tensors under their checkpoint names, in checkpoint order."""
        items = [("norm1.gamma", self.norm1_gamma), ("norm1.beta", self.norm1_beta)]
        items += [("attn.qkv_weight", self.qkv_weight), ("attn.qkv_bias", self.qkv_bias)]
        items += [("attn.out_weight", self.out_weight), ("attn.out_bias", self.out_bias)]
        if self.bias_table is not None:
            items.append(("bias.table", self.bias_table))
        if self.msg_key_bias is not None:
            items.append(("bias.msg_key", self.msg_key_bias))
        items += [("norm2.gamma", self.norm2_gamma), ("norm2.beta", self.norm2_beta)]
        items += [("mlp.w1", self.mlp_w1), ("mlp.b1", self.mlp_b1)]
        return items + [("mlp.w2", self.mlp_w2), ("mlp.b2", self.mlp_b2)]

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def block_forward(wt: W.WindowedTokens, params: BlockParams) -> W.WindowedTokens | Tensor:
    """Run one transformer block over windowed tokens.

    With ``wt.with_msg`` slot 0 of each window is its messenger token, and
    the messengers exchange between the attention and MLP halves, over the
    regions and in the mode that ``params`` holds. Without
    it the block runs the messenger-free ablation: plain local attention
    over ``w**2`` tokens with no cross-window exchange.

    A block without ``bias_table`` is a classifier's messenger-only last block: every slot gives
    keys and values, only slot 0 queries and goes on, and the block returns the messenger grid.
    """
    msg_only = params.bias_table is None
    if msg_only and not wt.with_msg:
        raise ConfigError("a messenger-only block needs messenger tokens attached")
    normed = T.layer_norm(wt.windows, params.norm1_gamma, params.norm1_beta)
    attn_out = local_msa(normed, params)
    tokens = wt.windows[:, :, :, :1] if msg_only else wt.windows
    tokens = T.add(tokens, attn_out)

    exchange = (params.shuffle_size, params.anchor, params.mode)
    if msg_only:
        tokens = manipulate_msg(T.reshape(tokens, tokens.shape[:3] + (-1,)), *exchange)
    elif wt.with_msg:
        patches, mid_msg = detach_msg(W.WindowedTokens(tokens))
        tokens = attach_msg(patches, manipulate_msg(mid_msg, *exchange)).windows

    normed2 = T.layer_norm(tokens, params.norm2_gamma, params.norm2_beta)
    hidden = T.mlp(normed2, params.mlp_w1, params.mlp_b1, params.mlp_w2, params.mlp_b2)
    tokens = T.add(tokens, hidden)
    return tokens if msg_only else W.WindowedTokens(tokens)
