"""Verification probes that run the real machinery.

Two families: information-flow reach (bump one input pixel of a real
model, report which stage-1 windows notice) and the 64-bit
finite-difference gradient suite over single ops, one block, and the full
micro model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import blocks as B
from . import model as M
from . import tensor as T
from . import windows as W
from .model import make_block_params
from .tensor import Tensor
from .train import cross_entropy


def information_reach(
    region_size: int = 2, mode: str = "shuffle", use_msg: bool = True, num_blocks: int = 2, seed: int = 0,
    window: int = 2,
) -> np.ndarray:
    """Boolean (S, S) map of the stage-1 windows whose outputs change when input pixel (0, 0) is bumped.

    Runs ``model.forward`` of a float64 det-backbone whose stage 1 is exactly one S x S region of
    ``window``-sized windows: ``num_blocks`` blocks, one head and S*S channels (the fewest the
    shuffle splits); stages 2-4 have no blocks. Every parameter is redrawn from N(0, 0.2^2), so no
    path is accidentally dead. Pixel (0, 0) lies under stage-1 token (0, 0) alone.
    """
    s, channels = region_size, region_size * region_size
    stages = tuple(M.StageConfig(channels, 1, n, s) for n in (num_blocks, 0, 0, 0))
    cfg = M.ArchConfig(stages, M.PATCH_STRIDE * s * window, 1, "det-backbone", use_msg, mode, window)
    model = M.build_model(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data = rng.standard_normal(p.shape) * 0.2
    images = rng.standard_normal((1, cfg.input_size, cfg.input_size, 3))
    bumped = images.copy()
    bumped[0, 0, 0, 0] += 1e-3  # one channel of one pixel
    with T.no_grad():
        before, after = (M.forward(model, Tensor(x))[0].tokens.data for x in (images, bumped))
    return np.abs(after - before).reshape(s, window, s, window, channels).max(axis=(1, 3, 4)) > 0.0


# -- gradient-check suite -------------------------------------------------------


def single_op_grad_checks(seed: int = 0) -> dict[str, float]:
    """Exhaustive central-difference checks of every differentiable kernel."""
    rng = np.random.default_rng(seed)

    def t(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    x34, y4 = t(3, 4), t(4)
    a23, b32 = t(2, 3), t(3, 2)
    ln_x, ln_g, ln_b = t(2, 3, 4), t(4), t(4)
    conv_x, conv_w, conv_b = t(2, 4, 4, 2), t(3, 3, 2, 3), t(3)
    mean_x = t(2, 4, 3)
    mb_a, mb_b, mb_bias = t(2, 2, 3), t(3, 4), t(4)
    attn_params, mlp_params = [t(2, 5, 4), t(4, 12), t(12), t(2, 5, 5)], [t(2, 3, 4), t(4, 8), t(8), t(8, 4), t(4)]
    getitem_x = t(3, 4)
    msg_rows = [t(2, 5, 4), t(4, 12), t(12), t(2, 1, 5)]  # only slot 0 of each sequence queries
    cat_a, cat_b, pad_x, tr_x = t(2, 3), t(1, 3), t(2, 3), t(2, 3, 4)
    cases = {
        "add": (lambda: _sq(T.add(x34, y4)), [x34, y4]),
        "mul": (lambda: T.tsum(T.mul(x34, T.mul(x34, x34))), [x34]),
        "matmul": (lambda: _sq(T.matmul(a23, b32)), [a23, b32]),
        "log_softmax": (lambda: _sq(T.log_softmax(x34, axis=1)), [x34]),
        "layer_norm": (lambda: _sq(T.layer_norm(ln_x, ln_g, ln_b)), [ln_x, ln_g, ln_b]),
        "conv2d": (lambda: _sq(T.conv2d(conv_x, conv_w, conv_b, stride=2, padding=1)), [conv_x, conv_w, conv_b]),
        "broadcast_mean": (lambda: _sq(T.mul(T.broadcast_mean(mean_x, axis=1), mean_x)), [mean_x]),
        "matmul_bias": (lambda: _sq(T.matmul(mb_a, mb_b, mb_bias)), [mb_a, mb_b, mb_bias]),
        "attention": (lambda: _sq(T.attention(*attn_params, 2)[0]), attn_params),
        "mlp": (lambda: _sq(T.mlp(*mlp_params)), mlp_params),
        "getitem_repeats": (lambda: _sq(T.getitem(getitem_x, (slice(None), np.array([0, 3, 0])))), [getitem_x]),
        "attention_msg_rows": (lambda: _sq(T.attention(*msg_rows, 2, 1)[0]), msg_rows),
        "concat": (lambda: _sq(T.concat([cat_a, cat_b], axis=0)), [cat_a, cat_b]),
        "pad": (lambda: _sq(T.pad(pad_x, [(1, 0), (0, 2)])), [pad_x]),
        "transpose": (lambda: _sq(T.transpose(tr_x, (2, 0, 1))), [tr_x]),
    }
    return {name: T.grad_check(fn, params) for name, (fn, params) in cases.items()}


def _sq(y: Tensor) -> Tensor:
    """The sum of squares: each entry's gradient is twice its own value, so a misplaced one shows."""
    return T.tsum(T.mul(y, y))


def block_grad_check(seed: int = 0, use_msg: bool = True, msg_only: bool = False) -> float:
    """Exhaustive check through one block: w=2, 4 channels, one head.

    With ``use_msg`` the messengers are attached, and with ``msg_only`` only they query (a
    classifier's last block, no bias table); without, the messenger-free block runs over w**2 tokens.
    """
    rng = np.random.default_rng(seed)
    params = make_block_params(rng, 4, 1, 2, 2, mode="shuffle", dtype=np.float64, use_msg=use_msg, msg_only=msg_only)
    for t in params.parameters():
        t.data = rng.standard_normal(t.shape) * 0.3
    wt_data = Tensor(rng.standard_normal((1, 2, 2, 4, 4)), requires_grad=True)
    msg_data = Tensor(rng.standard_normal((1, 2, 2, 4)), requires_grad=True)

    def loss():
        wt = W.WindowedTokens(wt_data)
        out = B.block_forward(B.attach_msg(wt, msg_data) if use_msg else wt, params)
        out = out if msg_only else out.windows
        return T.tsum(T.mul(out, out))

    return T.grad_check(loss, params.parameters() + [wt_data] + [msg_data] * use_msg)


def model_grad_check(max_entries_per_param: Optional[int] = 3, seed: int = 0) -> float:
    """Finite-difference check over every parameter tensor of the micro model, scored on label 1.

    Entries are subsampled deterministically per tensor; pass ``None`` to
    check every entry (slow).
    """
    rng = np.random.default_rng(seed)
    model = M.build_model(M.micro_config(), seed=seed, dtype=np.float64)
    # generic parameter values so every path carries signal
    for _, p in model.named_parameters():
        p.data = rng.standard_normal(p.shape) * 0.1
    images = Tensor(rng.standard_normal((1, 128, 128, 3)))
    label = np.array([1])
    return T.grad_check(
        lambda: cross_entropy(M.forward(model, images), label, 0.0),
        [p for _, p in model.named_parameters()],
        max_entries_per_param=max_entries_per_param,
        seed=seed,
    )
