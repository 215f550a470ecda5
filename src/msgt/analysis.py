"""Verification probes that run the real machinery.

Two families: information-flow reach (bump one input pixel of a real
model, report which stage-1 windows notice) and the 64-bit
finite-difference gradient suite over single ops, one block, and the full
micro model.
"""

from __future__ import annotations

import zlib

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


def _sq(y: Tensor) -> Tensor:
    """The sum of squares: each entry's gradient is twice its own value, so a misplaced one shows."""
    return T.tsum(T.mul(y, y))


# name -> (input shapes, objective of the inputs), one case per differentiable kernel
OP_CASES = {
    "add": (((3, 4), (4,)), lambda x, y: _sq(T.add(x, y))),
    "mul": (((3, 4),), lambda x: T.tsum(T.mul(x, T.mul(x, x)))),
    "matmul": (((2, 3), (3, 2)), lambda a, b: _sq(T.matmul(a, b))),
    "log_softmax": (((3, 4),), lambda x: _sq(T.log_softmax(x, axis=1))),
    "layer_norm": (((2, 3, 4), (4,), (4,)), lambda x, g, b: _sq(T.layer_norm(x, g, b))),
    "conv2d": (((2, 4, 4, 2), (3, 3, 2, 3), (3,)), lambda x, w, b: _sq(T.conv2d(x, w, b, stride=2, padding=1))),
    "broadcast_mean": (((2, 4, 3),), lambda x: _sq(T.mul(T.broadcast_mean(x, axis=1), x))),
    "matmul_bias": (((2, 2, 3), (3, 4), (4,)), lambda a, b, bias: _sq(T.matmul(a, b, bias))),
    "attention": (((2, 5, 4), (4, 12), (12,), (2, 5, 5)), lambda *p: _sq(T.attention(*p, 2)[0])),
    "mlp": (((2, 3, 4), (4, 8), (8,), (8, 4), (4,)), lambda *p: _sq(T.mlp(*p))),
    "getitem_repeats": (((3, 4),), lambda x: _sq(T.getitem(x, (slice(None), np.array([0, 3, 0]))))),
    # only slot 0 of each sequence queries
    "attention_msg_rows": (((2, 5, 4), (4, 12), (12,), (2, 1, 5)), lambda *p: _sq(T.attention(*p, 2, 1)[0])),
    "concat": (((2, 3), (1, 3)), lambda a, b: _sq(T.concat([a, b], axis=0))),
    "pad": (((2, 3),), lambda x: _sq(T.pad(x, [(1, 0), (0, 2)]))),
    "transpose": (((2, 3, 4),), lambda x: _sq(T.transpose(x, (2, 0, 1)))),
}


def single_op_grad_checks() -> dict[str, float]:
    """Exhaustive central-difference checks of every ``OP_CASES`` kernel, in table order.

    A case draws its N(0, 1) inputs from an rng seeded with the CRC-32 of its name alone, so
    adding or deleting a case moves no other case's inputs or error.
    """
    errors = {}
    for name, (shapes, objective) in OP_CASES.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        inputs = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]
        errors[name] = T.grad_check(lambda: objective(*inputs), inputs)
    return errors


def block_grad_check(use_msg: bool = True, msg_only: bool = False) -> float:
    """Exhaustive check through one block: w=2, 4 channels, one head.

    With ``use_msg`` the messengers are attached, and with ``msg_only`` only they query (a
    classifier's last block, no bias table); without, the messenger-free block runs over w**2 tokens.
    """
    rng = np.random.default_rng(0)
    params = make_block_params(rng, 4, 1, 2, 2, mode="shuffle", dtype=np.float64, use_msg=use_msg, msg_only=msg_only)
    for t in params.parameters():
        t.data = rng.standard_normal(t.shape) * 0.3
    wt_data = Tensor(rng.standard_normal((1, 2, 2, 4, 4)), requires_grad=True)
    msg_data = Tensor(rng.standard_normal((1, 2, 2, 4)), requires_grad=True)

    def loss():
        wt = W.WindowedTokens(wt_data)
        out = B.block_forward(B.attach_msg(wt, msg_data) if use_msg else wt, params)
        return _sq(out if msg_only else out.windows)

    return T.grad_check(loss, params.parameters() + [wt_data] + [msg_data] * use_msg)


def model_grad_check() -> float:
    """Finite-difference check over every parameter tensor of the micro model, scored on label 1.

    ``grad_check`` samples 3 entries of each tensor from seed 0; checking every entry is too slow.
    """
    rng = np.random.default_rng(0)
    model = M.build_model(M.micro_config(), seed=0, dtype=np.float64)
    # generic parameter values so every path carries signal
    for _, p in model.named_parameters():
        p.data = rng.standard_normal(p.shape) * 0.1
    images = Tensor(rng.standard_normal((1, 128, 128, 3)))
    label = np.array([1])
    return T.grad_check(
        lambda: cross_entropy(M.forward(model, images), label, 0.0),
        [p for _, p in model.named_parameters()],
        max_entries_per_param=3,
    )
