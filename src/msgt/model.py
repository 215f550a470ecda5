"""Hierarchical model assembly: patch embedding, four windowed-attention
stages with per-stage shuffle sizes, shared-weight token merging between
stages, and the classification head over messenger tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import blocks as B
from . import tensor as T
from . import windows as W
from .errors import ConfigError, ShapeError
from .tensor import Tensor

NUM_STAGES = 4
PATCH_KERNEL, PATCH_STRIDE, PATCH_PAD = 7, 4, 3
INIT_STD = 0.02  # deviation of every trunc-normal draw, input messengers included
INIT_CHUNK = 65_536  # float64 values per trunc-normal draw, whatever the tensor's size
# the preset geometry, also the defaults of a custom ``stages`` config
PRESET_WINDOW, PRESET_INPUT_SIZE = 7, 224
CLS_SHUFFLES = (4, 4, 2, 1)


@dataclass(frozen=True)
class StageConfig:
    dim: int
    num_heads: int
    num_blocks: int
    shuffle_size: int


@dataclass(frozen=True)
class ArchConfig:
    stages: tuple[StageConfig, ...]
    input_size: int
    num_classes: int
    task: str = "cls"  # "cls" | "det-backbone"
    use_msg: bool = True
    manipulation: str = "shuffle"
    window_size: int = PRESET_WINDOW  # every stage's

    def validate(self) -> None:
        if len(self.stages) != NUM_STAGES:
            raise ConfigError(f"expected {NUM_STAGES} stages, got {len(self.stages)}")
        if self.task not in ("cls", "det-backbone"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.manipulation not in B.MODES:
            raise ConfigError(f"unknown manipulation mode {self.manipulation!r}")
        if self.window_size < 1:
            raise ConfigError(f"window size must be >= 1, got {self.window_size}")
        if self.input_size < 1:  # one pixel gives every stage one token, which runs
            raise ConfigError(f"input size must be >= 1, got {self.input_size}")
        shuffles = self.use_msg and self.manipulation == "shuffle"
        for i, s in enumerate(self.stages, start=1):
            if not 1 <= s.num_heads <= s.dim or s.dim % s.num_heads:
                raise ConfigError(f"stage {i}: dim {s.dim} not a positive multiple of {s.num_heads} heads")
            if s.shuffle_size < 1:
                raise ConfigError(f"stage {i}: shuffle size must be >= 1, got {s.shuffle_size}")
            if s.num_blocks < 0:  # 0 blocks is a stage of partition, reverse and merge only
                raise ConfigError(f"stage {i}: number of blocks must be >= 0, got {s.num_blocks}")
            if shuffles and s.num_blocks and s.dim % s.shuffle_size**2:  # the exchange's rule at every size
                raise ConfigError(
                    f"stage {i}: dim {s.dim} does not split into shuffle size {s.shuffle_size}'s "
                    f"{s.shuffle_size**2} channel groups"
                )


def _conv_output(extent: int, kernel: int, stride: int, padding: int) -> int:
    return (extent + 2 * padding - kernel) // stride + 1


def _merged(extent: int) -> int:
    return _conv_output(extent, W.MERGE_KERNEL, W.MERGE_STRIDE, W.MERGE_PAD)


def stage_geometry(
    cfg: ArchConfig, h: Optional[int] = None, w: Optional[int] = None
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Per stage, the token-map extents and the padded window grid for an h x w input (square if ``w`` is None)."""
    h = cfg.input_size if h is None else h
    h, w = (_conv_output(e, PATCH_KERNEL, PATCH_STRIDE, PATCH_PAD) for e in (h, h if w is None else w))
    out, win = [], cfg.window_size
    for _ in cfg.stages:
        out.append(((h, w), (-(-h // win), -(-w // win))))
        h, w = _merged(h), _merged(w)
    return out


def msg_only_block(cfg: ArchConfig, stage: int, block: int) -> bool:
    """Whether block ``block`` of 0-based stage ``stage`` runs only the messenger rows: a classifier's last block."""
    return cfg.task == "cls" and cfg.use_msg and (stage, block) == (NUM_STAGES - 1, cfg.stages[-1].num_blocks - 1)


def _stages(dims, heads, depths, shuffles) -> tuple[StageConfig, ...]:
    return tuple(StageConfig(*stage) for stage in zip(dims, heads, depths, shuffles))


def _preset(dims, heads, depths):
    """A 224-px, window-7 preset; detection backbones shuffle over larger late regions."""

    def config(num_classes: int = 1000, task: str = "cls") -> ArchConfig:
        shuffles = CLS_SHUFFLES if task == "cls" else (4, 4, 8, 4)
        return ArchConfig(
            stages=_stages(dims, heads, depths, shuffles),
            input_size=PRESET_INPUT_SIZE,
            num_classes=num_classes,
            task=task,
        )

    return config


tiny_config = _preset((64, 128, 256, 512), (2, 4, 8, 16), (2, 4, 12, 4))
small_config = _preset((96, 192, 384, 768), (3, 6, 12, 24), (2, 4, 12, 4))
base_config = _preset((96, 192, 384, 768), (3, 6, 12, 24), (2, 4, 28, 4))


def micro_config(num_classes: int = 4, task: str = "cls", **overrides) -> ArchConfig:
    """Desk-scale config: stage-4 resolution (4x4) equals the window size."""
    cfg = ArchConfig(
        stages=_stages((16, 32, 64, 128), (1, 2, 4, 8), (1, 1, 2, 1), (2, 2, 2, 1)),
        input_size=128,
        num_classes=num_classes,
        window_size=4,
        task=task,
    )
    return replace(cfg, **overrides) if overrides else cfg


PRESETS = {"tiny": tiny_config, "small": small_config, "base": base_config, "micro": micro_config}


def preset_config(name: str, **kwargs) -> ArchConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown arch preset {name!r}; expected one of {sorted(PRESETS)}")
    return PRESETS[name](**kwargs)


def with_shuffle_sizes(cfg: ArchConfig, sizes) -> ArchConfig:
    """``cfg`` with stage ``i`` shuffling over ``sizes[i]`` x ``sizes[i]`` regions."""
    if len(sizes) != NUM_STAGES:
        raise ConfigError(f"expected {NUM_STAGES} shuffle sizes, got {len(sizes)}: {sizes}")
    return replace(cfg, stages=tuple(replace(s, shuffle_size=r) for s, r in zip(cfg.stages, sizes)))


# -- initialization -------------------------------------------------------------


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, ``INIT_STD``) truncated at two deviations, allocated once in float32 and filled in place.

    Float64 draws pass through ``INIT_CHUNK``-value (512 KiB) chunks into the output; then each
    round redraws (in C order) and rechecks only the draws still beyond two deviations. Values
    and rng stream equal one whole-tensor draw, as ``standard_normal`` fills sequentially.
    """
    out = np.empty(shape, np.float32)
    flat = out.reshape(-1)
    bad = [np.empty(0, np.intp)]
    for lo in range(0, flat.size, INIT_CHUNK):
        part = rng.standard_normal(min(INIT_CHUNK, flat.size - lo))
        part *= INIT_STD
        flat[lo : lo + part.size] = part
        bad.append(np.flatnonzero(np.abs(part, out=part) > 2 * INIT_STD) + lo)
        del part  # one chunk buffer alive at a time
    bad = np.concatenate(bad)
    while bad.size:
        flat[bad] = redrawn = rng.standard_normal(bad.size) * INIT_STD
        bad = bad[np.abs(redrawn) > 2 * INIT_STD]
    return out


def _param_makers(rng: np.random.Generator):
    """Trainable float32 tensor factories: trunc-normal ``proj``, ``zeros`` and ``ones``."""

    def proj(*shape):
        return Tensor(trunc_normal(rng, shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)

    return proj, zeros, ones


def make_block_params(
    rng: np.random.Generator,
    channels: int,
    num_heads: int,
    window_size: int,
    shuffle_size: int,
    mode: str,
    use_msg: bool,
    msg_only: bool,
    anchor: str = W.TOP_LEFT,
) -> B.BlockParams:
    """Fresh block parameters: trunc-normal projections, zero biases and bias tables (none if ``msg_only``)."""
    proj, zeros, ones = _param_makers(rng)
    span = 2 * window_size - 1
    return B.BlockParams(
        norm1_gamma=ones(channels),
        norm1_beta=zeros(channels),
        qkv_weight=proj(channels, 3 * channels),
        qkv_bias=zeros(3 * channels),
        out_weight=proj(channels, channels),
        out_bias=zeros(channels),
        num_heads=num_heads,
        bias_table=None if msg_only else zeros(num_heads, span, span),
        msg_key_bias=zeros(num_heads) if use_msg and not msg_only else None,
        norm2_gamma=ones(channels),
        norm2_beta=zeros(channels),
        mlp_w1=proj(channels, 4 * channels),
        mlp_b1=zeros(4 * channels),
        mlp_w2=proj(4 * channels, channels),
        mlp_b2=zeros(channels),
        mode=mode,
        shuffle_size=shuffle_size,
        anchor=anchor,
    )


@dataclass
class Model:
    """All learnable state plus the architecture it instantiates."""

    config: ArchConfig
    embed_weight: Tensor
    embed_bias: Tensor
    msg_input: Optional[Tensor]  # (R1, R1, C1), tiled across shuffle regions
    stages: list[list[B.BlockParams]]
    merge_weights: list[Tensor]
    merge_biases: list[Tensor]
    head_norm_gamma: Tensor
    head_norm_beta: Tensor
    head_weight: Tensor
    head_bias: Tensor

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """Every learnable tensor under its checkpoint name, in checkpoint order."""
        items = [("embed.weight", self.embed_weight), ("embed.bias", self.embed_bias)]
        if self.msg_input is not None:
            items.append(("msg_input", self.msg_input))
        for si, stage in enumerate(self.stages, start=1):
            for bi, blk in enumerate(stage):
                items += [(f"stage{si}.block{bi}.{name}", t) for name, t in blk.named_parameters()]
        for mi, (w, b) in enumerate(zip(self.merge_weights, self.merge_biases), start=1):
            items += [(f"merge{mi}.weight", w), (f"merge{mi}.bias", b)]
        items += [("head.norm.gamma", self.head_norm_gamma), ("head.norm.beta", self.head_norm_beta)]
        return items + [("head.weight", self.head_weight), ("head.bias", self.head_bias)]

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def build_model(cfg: ArchConfig, seed: int) -> Model:
    """Deterministically initialize a float32 model from ``seed``."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    proj, zeros, ones = _param_makers(rng)
    c1 = cfg.stages[0].dim
    embed_weight = proj(PATCH_KERNEL, PATCH_KERNEL, 3, c1)
    embed_bias = zeros(c1)

    r1 = cfg.stages[0].shuffle_size
    msg_input = proj(r1, r1, c1) if cfg.use_msg else None

    stages = [
        [
            make_block_params(
                rng, s.dim, s.num_heads, cfg.window_size, s.shuffle_size, mode=cfg.manipulation,
                anchor=W.BOTTOM_RIGHT if cfg.task == "det-backbone" and bi % 2 else W.TOP_LEFT,  # detection alternates
                use_msg=cfg.use_msg, msg_only=msg_only_block(cfg, si, bi),
            )
            for bi in range(s.num_blocks)
        ]
        for si, s in enumerate(cfg.stages)
    ]

    merge_weights, merge_biases = [], []
    for i in range(NUM_STAGES - 1):
        cin, cout = cfg.stages[i].dim, cfg.stages[i + 1].dim
        merge_weights.append(proj(W.MERGE_KERNEL, W.MERGE_KERNEL, cin, cout))
        merge_biases.append(zeros(cout))

    c4 = cfg.stages[-1].dim
    return Model(
        config=cfg,
        embed_weight=embed_weight,
        embed_bias=embed_bias,
        msg_input=msg_input,
        stages=stages,
        merge_weights=merge_weights,
        merge_biases=merge_biases,
        head_norm_gamma=ones(c4),
        head_norm_beta=zeros(c4),
        head_weight=proj(c4, cfg.num_classes),
        head_bias=zeros(cfg.num_classes),
    )


def rerandomize_msg_input(model: Model, seed: int) -> None:
    """Re-sample the input messenger tokens from the init distribution."""
    if model.msg_input is None:
        raise ConfigError("model was built without messenger tokens")
    rng = np.random.default_rng(seed)
    model.msg_input.data = trunc_normal(rng, model.msg_input.shape)


# -- forward --------------------------------------------------------------------


def patch_embed(model: Model, images: Tensor) -> W.FeatureMap:
    """Project (B, H, W, 3) pixels to stage-1 tokens with a 7x7 stride-4 conv."""
    if images.ndim != 4 or images.shape[-1] != 3:
        raise ShapeError(f"expected (B, H, W, 3) images, got {images.shape}")
    tokens = T.conv2d(images, model.embed_weight, model.embed_bias, PATCH_STRIDE, PATCH_PAD)
    return W.FeatureMap(tokens=tokens)


def _initial_msg(msg_input: Tensor, grid: tuple[int, int], batch: int) -> Tensor:
    """Tile the (S, S, C) input messengers over each image's window grid, cropped to it."""
    gh, gw = grid
    s, _, c = msg_input.shape
    nh, nw = -(-gh // s), -(-gw // s)  # whole tiles covering the grid
    copies = Tensor(np.zeros((batch, nh * nw, 1, 1, 1), dtype=msg_input.data.dtype))
    tiles = T.add(T.reshape(msg_input, (1, 1, s, s, c)), copies)
    tiles = T.transpose(T.reshape(tiles, (batch, nh, nw, s, s, c)), (0, 1, 3, 2, 4, 5))
    tiled = T.reshape(tiles, (batch, nh * s, nw * s, c))
    return tiled if (nh * s, nw * s) == (gh, gw) else tiled[:, :gh, :gw]


def forward(
    model: Model,
    images: Tensor,
    mode: str = "eval",
    rng: Optional[np.random.Generator] = None,
):
    """Run the full hierarchy.

    Classification returns (B, num_classes) logits from the pooled final
    messenger tokens; det-backbone mode returns the four per-stage (B, H, W, C)
    patch maps at strides 4/8/16/32 instead.

    No layer is stochastic: ``mode`` and ``rng`` change no output and draw nothing.
    Both go once the benchmark stops passing them (ROADMAP item 7).
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode {mode!r}")
    cfg = model.config
    fm = patch_embed(model, images)
    batch = images.shape[0]

    msg: Optional[Tensor] = None  # the (B, Gh, Gw, C) messenger grid
    stage_outputs: list[Tensor] = []
    for si in range(NUM_STAGES):
        padded, extents = W.pad_to_window_multiple(fm, cfg.window_size)
        wt = W.partition_windows(padded, cfg.window_size)
        if cfg.use_msg:
            if si == 0:
                msg = _initial_msg(model.msg_input, wt.windows.shape[1:3], batch)
            wt = B.attach_msg(wt, msg)  # slot 0 of every window until the stage ends
        for blk in model.stages[si]:
            wt = B.block_forward(wt, blk)
        if isinstance(wt, Tensor):  # a classifier's last block: the head reads only the messengers
            msg = wt
            break
        if cfg.use_msg:
            wt, msg = B.detach_msg(wt)
        fm = W.crop_to(W.reverse_windows(wt), extents)
        if cfg.task == "det-backbone":  # a classifier never reads the stage maps
            stage_outputs.append(fm.tokens)
        if si < NUM_STAGES - 1:
            fm, msg = W.merge_tokens(fm, msg, model.merge_weights[si], model.merge_biases[si])

    if cfg.task == "det-backbone":
        return stage_outputs

    if cfg.use_msg:
        pooled = T.tmean(msg, axis=(1, 2))  # (B, C4): mean over remaining messengers
    else:
        pooled = T.tmean(fm.tokens, axis=(1, 2))  # messenger-free ablation pools patches
    pooled = T.layer_norm(pooled, model.head_norm_gamma, model.head_norm_beta)
    return T.linear(pooled, model.head_weight, model.head_bias)


# -- accounting -------------------------------------------------------------------


def count_params(model: Model) -> dict[str, int]:
    """Exact scalar counts: every parameter, the input messenger tokens, and ``msg_related``.

    ``msg_related`` counts the input messenger tokens plus the per-block messenger-key bias scalars.
    """
    msg_count = 0 if model.msg_input is None else model.msg_input.size
    total = 0
    msg_related = msg_count
    for name, t in model.named_parameters():
        total += t.size
        if ".bias.msg_" in name:
            msg_related += t.size
    return {"total": total, "msg_input": msg_count, "msg_related": msg_related}
