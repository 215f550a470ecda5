"""Model assembly tests: configs, initialization, forward geometry, counting."""

import copy
import functools
import gc
import inspect
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msgt
from msgt import blocks as B
from msgt import complexity as C
from msgt import model as M
from msgt import tensor as T
from msgt import windows as W
from msgt.checkpoint import save_checkpoint
from msgt.errors import ConfigError
from msgt.tensor import Tensor
from msgt.train import AdamW, cross_entropy
from test_tensor import reference_attention, reference_mlp


@pytest.fixture(scope="module")
def tiny_model():
    """The seed-0 tiny model, shared by the tests that only read it."""
    return M.build_model(M.tiny_config(), seed=0)


def rand_images(b, size, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((b, size, size, 3)).astype(np.float32))


def widen(model: M.Model) -> M.Model:
    """A float64 copy of a float32 build, for the checks that run in float64."""
    wide = copy.deepcopy(model)
    for p in wide.parameters():
        p.data = p.data.astype(np.float64)
    return wide


class TestConfigs:
    def test_tiny_matches_reference_layout(self):
        cfg = M.tiny_config()
        cfg.validate()
        assert [s.dim for s in cfg.stages] == [64, 128, 256, 512]
        assert [s.num_heads for s in cfg.stages] == [2, 4, 8, 16]
        assert [s.num_blocks for s in cfg.stages] == [2, 4, 12, 4]
        assert [s.shuffle_size for s in cfg.stages] == [4, 4, 2, 1]
        assert cfg.window_size == 7

    def test_det_shuffle_sizes(self):
        cfg = M.tiny_config(task="det-backbone")
        assert [s.shuffle_size for s in cfg.stages] == [4, 4, 8, 4]

    def test_stage_widths_need_not_double(self):
        """Widths that are not doublings, each a multiple of its heads, run and count model_flops' MACs."""
        cfg = M.micro_config(stages=M._stages((16, 24, 40, 64), (1, 2, 4, 8), (1, 1, 2, 1), (2, 2, 2, 1)))
        model = M.build_model(cfg, seed=0)
        with T.count_macs() as counter:
            logits = M.forward(model, rand_images(2, 128), mode="train", rng=np.random.default_rng(0))
        assert counter["matmul"] + counter["conv"] == 2 * C.model_flops(cfg)["total_macs"] == 2 * 13_408_256
        cross_entropy(logits, np.array([0, 3]), 0.1).backward()
        assert all(np.isfinite(p.grad).all() for p in model.parameters())

    def test_shuffle_divisibility_enforced(self):
        bad = M.micro_config(stages=M._stages((18, 36, 72, 144), (1, 2, 4, 8), (1, 1, 1, 1), (2, 2, 2, 1)))
        with pytest.raises(ConfigError, match="shuffle"):
            bad.validate()

    @pytest.mark.parametrize("window", [0, -3])
    def test_window_below_one_rejected(self, window):
        with pytest.raises(ConfigError, match=f"window size must be >= 1, got {window}"):
            M.micro_config(window_size=window).validate()

    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    def test_negative_block_count_rejected(self, stage):
        depths = tuple(-2 if i == stage else 1 for i in range(1, 5))
        stages = M._stages((16, 32, 64, 128), (1, 2, 4, 8), depths, (2, 2, 2, 1))
        with pytest.raises(ConfigError, match=f"stage {stage}: number of blocks must be >= 0, got -2"):
            M.micro_config(stages=stages).validate()

    @pytest.mark.parametrize(
        "depths", [(0, 2, 2, 1), (1, 0, 2, 1), (1, 2, 0, 1), (1, 1, 2, 0)],
        ids=["stage-1", "stage-2", "stage-3", "stage-4"],
    )
    def test_stage_without_blocks_is_valid_and_runs(self, depths):
        cfg = M.micro_config(stages=M._stages((16, 32, 64, 128), (1, 2, 4, 8), depths, (2, 2, 2, 1)))
        model = M.build_model(cfg, seed=0)
        with T.no_grad(), T.count_macs() as counter:
            logits = M.forward(model, rand_images(1, 128))
        assert logits.shape == (1, 4)
        report = C.model_flops(cfg)
        assert report["stages"][depths.index(0)] == 0
        assert counter["matmul"] + counter["conv"] == report["total_macs"]

    def test_micro_stage4_resolution_equals_window(self):
        cfg = M.micro_config()
        # 128 -> 32 -> 16 -> 8 -> 4 tokens; stage-4 grid is a single window
        assert cfg.input_size // 32 == cfg.window_size


def hand_stage_grids(cfg: M.ArchConfig, size: int) -> list[tuple[int, int]]:
    """Padded window grids, from ceil(size/4) tokens halved (ceil) by each merge."""
    h = -(-size // 4)
    grids = []
    for _ in cfg.stages:
        grids.append((-(-h // cfg.window_size),) * 2)
        h = -(-h // 2)
    return grids


@st.composite
def _geometry_case(draw):
    """A det-backbone config of 16-96 px with a window of 1-5 and shuffle size 1, which runs at every size,
    and a width of 16-96 px other than its input size."""
    stages = tuple(M.StageConfig(4 << i, 1, 1, 1) for i in range(M.NUM_STAGES))
    size = draw(st.integers(16, 96))
    cfg = M.ArchConfig(
        stages, size, 2, task="det-backbone", use_msg=draw(st.booleans()), window_size=draw(st.integers(1, 5))
    )
    return cfg, draw(st.integers(16, 96).filter(lambda w: w != size))


class TestStageGeometry:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(case=_geometry_case())
    def test_extents_are_the_det_backbone_maps(self, case):
        cfg, width = case
        size = cfg.input_size
        model = M.build_model(cfg, seed=0)
        cases = (((size, size), M.stage_geometry(cfg)), ((size, width), M.stage_geometry(cfg, size, width)))
        for (h, w), geometry in cases:
            rows_cols = zip(hand_stage_grids(cfg, h), hand_stage_grids(cfg, w))
            assert [grid for _, grid in geometry] == [(rows, cols) for (rows, _), (_, cols) in rows_cols]
            for extents, grid in geometry:
                assert grid == tuple(-(-e // cfg.window_size) for e in extents)
            images = Tensor(np.random.default_rng(0).standard_normal((1, h, w, 3)).astype(np.float32))
            with T.no_grad():
                maps = M.forward(model, images)
            assert [m.shape for m in maps] == [(1, *e, s.dim) for (e, _), s in zip(geometry, cfg.stages)]

    def test_merged_messenger_grid_is_the_next_window_grid(self):
        """The merge maps e tokens to ceil(e/2), so with one window w it maps a ceil(e/w) grid to
        ceil(e/2w) = ceil(ceil(e/2)/w): the next stage's window grid. No size needs a grid check."""
        for window in range(1, 13):
            cfg = M.micro_config(window_size=window)
            for size in range(7, 700):
                grids = [grid for _, grid in M.stage_geometry(cfg, size, size + 1)]
                assert [tuple(map(M._merged, g)) for g in grids[:-1]] == grids[1:], (window, size)


def exchange_runs(cfg: M.ArchConfig, size: int) -> bool:
    """Whether the shuffle runs on every stage grid at ``size``, on zero tokens."""
    for s, grid in zip(cfg.stages, hand_stage_grids(cfg, size)):
        msg = Tensor(np.zeros((1, *grid, s.dim), dtype=np.float32))
        for bi in range(min(2, s.num_blocks)):
            anchor = W.BOTTOM_RIGHT if cfg.task == "det-backbone" and bi % 2 else W.TOP_LEFT
            try:
                B.manipulate_msg(msg, s.shuffle_size, anchor, "shuffle")
            except ConfigError:
                return False
    return True


@st.composite
def _stage(draw, i):
    """Stage ``i`` (0-based): 1-4 heads, a width of 4 to 32 << i that is any multiple of them, 0-2 blocks
    and shuffle 1-4."""
    heads = draw(st.integers(1, 4))
    dim = heads * draw(st.integers(-(-4 // heads), (32 << i) // heads))
    return M.StageConfig(dim, heads, draw(st.integers(0, 2)), draw(st.integers(1, 4)))


@st.composite
def _small_arch(draw):
    """A small config: stage widths not tied to each other, one window of 1-5, 0-96 px, either task, every
    mode, messengers on or off."""
    return M.ArchConfig(
        tuple(draw(_stage(i)) for i in range(M.NUM_STAGES)),
        draw(st.integers(0, 96)),
        num_classes=3,
        task=draw(st.sampled_from(["cls", "det-backbone"])),
        use_msg=draw(st.sampled_from((True, True, False))),
        manipulation=draw(st.sampled_from(("shuffle",) * 3 + B.MODES)),  # the only mode with a width rule
        window_size=draw(st.integers(1, 5)),
    )


class TestValidateIsExact:
    """``validate`` accepts a config exactly when its forward runs, and an accepted model runs at every
    h x w input of at least one pixel."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(cfg=_small_arch(), width=st.integers(1, 96), batch=st.integers(1, 2))
    def test_accepted_configs_run_and_rejected_ones_do_not(self, cfg, width, batch):
        size = cfg.input_size
        images = Tensor(np.random.default_rng(0).standard_normal((batch, size, size, 3)).astype(np.float32))
        try:
            cfg.validate()
        except ConfigError:
            with mock.patch.object(M.ArchConfig, "validate", lambda self: None), pytest.raises(ConfigError):
                M.forward(M.build_model(cfg, seed=0), images, mode="train", rng=np.random.default_rng(1))
            return
        model = M.build_model(cfg, seed=0)
        with T.count_macs() as counter:
            out = M.forward(model, images, mode="train", rng=np.random.default_rng(1))
        assert counter["matmul"] + counter["conv"] == batch * C.model_flops(cfg)["total_macs"]
        outs = out if cfg.task == "det-backbone" else [out]
        loss = T.tsum(T.concat([T.reshape(T.mul(o, o), (-1,)) for o in outs], axis=0))
        loss.backward()
        assert all(np.isfinite(p.grad).all() for p in model.parameters() if p.grad is not None)

        wide = Tensor(np.random.default_rng(2).standard_normal((1, size, width, 3)).astype(np.float32))
        with T.no_grad():
            out = M.forward(model, wide)
        outs = out if cfg.task == "det-backbone" else [out]
        assert all(np.isfinite(o.data).all() for o in outs)


class TestInputSize:
    def test_presets_and_micro_accepted(self):
        for make in M.PRESETS.values():
            for task in ("cls", "det-backbone"):
                make(task=task).validate()
        for mode in B.MODES:
            M.micro_config(manipulation=mode).validate()
        M.micro_config(use_msg=False, manipulation="none").validate()

    @pytest.mark.parametrize("size", [0, -8])
    def test_input_size_below_one_rejected(self, size):
        with pytest.raises(ConfigError, match=f"input size must be >= 1, got {size}"):
            M.micro_config(input_size=size).validate()

    def test_only_shuffle_needs_groups_that_split_the_channels(self):
        """Stage 2's 40 channels do not split into shuffle size 4's 16 groups: only ``shuffle`` with messengers
        rejects it, and only while the stage has a block."""
        cfg = M.micro_config(stages=M._stages((16, 40, 64, 128), (1, 2, 4, 8), (1, 1, 2, 1), (2, 4, 2, 1)))
        with pytest.raises(ConfigError, match="stage 2: dim 40 does not split into shuffle size 4's 16 channel"):
            cfg.validate()
        for mode in ("average", "shift", "none"):
            replace(cfg, manipulation=mode).validate()
        replace(cfg, use_msg=False).validate()
        M.with_shuffle_sizes(cfg, (2, 2, 2, 1)).validate()
        without_blocks = tuple(replace(s, num_blocks=0) if i == 1 else s for i, s in enumerate(cfg.stages))
        replace(cfg, stages=without_blocks).validate()

    def test_with_shuffle_sizes_needs_one_per_stage(self):
        cfg = M.with_shuffle_sizes(M.tiny_config(), (2, 2, 2, 1))
        assert [s.shuffle_size for s in cfg.stages] == [2, 2, 2, 1]
        for sizes in ((2, 2, 2), (2, 2, 2, 1, 1)):
            with pytest.raises(ConfigError, match="expected 4 shuffle sizes"):
                M.with_shuffle_sizes(cfg, sizes)

    @pytest.mark.parametrize("preset", ["tiny", "small"])
    @pytest.mark.parametrize("task", ["cls", "det-backbone"])
    def test_every_size_is_accepted_and_the_exchange_runs(self, preset, task):
        """Partial regions and regions larger than the grid shuffle over the full region's groups."""
        base = M.PRESETS[preset](task=task)
        for size in range(1, 1400, 15):
            cfg = replace(base, input_size=size)
            cfg.validate()
            assert exchange_runs(cfg, size), f"input size {size}"

    def test_a_zero_pixel_image_raises_before_any_compute(self):
        model = M.build_model(M.micro_config(), seed=0)
        for hw in ((0, 0), (0, 128), (128, 0)):
            with T.no_grad(), T.count_macs() as counter:
                with pytest.raises(ConfigError, match="conv2d output extent"):
                    M.forward(model, Tensor(np.zeros((1, *hw, 3), dtype=np.float32)))
            assert counter.buckets == {"matmul": 0, "conv": 0, "other": 0}

    def test_sizes_off_the_configured_one_run(self):
        """Sizes and h x w inputs with partial shuffle regions run, counting ``model_flops``' MACs."""
        cfg = replace(M.tiny_config(), input_size=256)
        model = M.build_model(cfg, seed=0)
        for size in (160, 200, 263):
            with T.no_grad(), T.count_macs() as counter:
                logits = M.forward(model, rand_images(1, size))
            assert logits.shape == (1, cfg.num_classes) and np.isfinite(logits.data).all(), size
            assert counter["matmul"] + counter["conv"] == C.model_flops(cfg, size)["total_macs"], size
        with T.no_grad():
            assert np.isfinite(M.forward(model, Tensor(np.zeros((1, 176, 160, 3), np.float32))).data).all()
        micro = M.build_model(M.micro_config(), seed=0)
        for hw in ((128, 96), (96, 160), (100, 37), (1, 1), (3, 6)):
            images = Tensor(np.zeros((2, *hw, 3), dtype=np.float32))
            logits = M.forward(micro, images, mode="train", rng=np.random.default_rng(0))
            assert logits.shape == (2, 4) and np.isfinite(logits.data).all(), hw


class TestLiveBytes:
    # tracemalloc's count of what one micro train-mode forward at batch 4
    # leaves alive (the graph the backward reads), measured with numpy 2.4
    LIVE_BYTES = 13_365_223
    # tracemalloc's peak over that forward, measured with numpy 2.4
    FORWARD_PEAK_BYTES = 14_158_681
    # tracemalloc's peak over one whole micro train step at batch 4: forward,
    # loss, backward and AdamW.step, measured with numpy 2.4
    STEP_PEAK_BYTES = 15_032_211

    def test_train_forward_keeps_no_dead_buffer(self):
        model = M.build_model(M.micro_config(), seed=0)
        images = rand_images(4, 128)
        M.forward(model, images, mode="train", rng=np.random.default_rng(0))  # fill any first-call caches
        gc.collect()
        tracemalloc.start()
        try:
            logits = M.forward(model, images, mode="train", rng=np.random.default_rng(0))
            gc.collect()
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert logits.shape == (4, 4)
        assert live <= 1.02 * self.LIVE_BYTES, f"{live:,} live bytes after the forward"
        assert peak <= 1.02 * self.FORWARD_PEAK_BYTES, f"{peak:,} bytes at the forward's traced peak"

    def test_train_step_peak(self):
        model = M.build_model(M.micro_config(), seed=0)
        images = rand_images(4, 128)
        opt = AdamW(model.named_parameters(), 0.05, (0.9, 0.999), 1e-8)

        def step():
            opt.zero_grad()
            logits = M.forward(model, images, mode="train", rng=np.random.default_rng(0))
            cross_entropy(logits, np.arange(4), 0.1).backward()
            opt.step(1e-3)

        step()  # fill any first-call caches
        gc.collect()
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.02 * self.STEP_PEAK_BYTES, f"{peak:,} bytes at the step's traced peak"

    def test_a_dropped_residual_sum_is_freed_while_the_graph_lives(self):
        """The graph keeps no array its backward does not read, so the caller decides what lives."""
        rng = np.random.default_rng(3)
        c, w = 16, 4
        blocks = [M.make_block_params(rng, c, 2, w, 2, "shuffle", use_msg=True, msg_only=False) for _ in range(2)]
        params = [p for blk in blocks for p in blk.parameters()]
        data = rng.standard_normal((2, 2, 2, w * w + 1, c)).astype(np.float32)
        weight = Tensor(rng.standard_normal(data.shape).astype(np.float32))

        def run(keep):
            for p in params:
                p.zero_grad()
            x = Tensor(data, requires_grad=True)
            mid = B.block_forward(W.WindowedTokens(x), blocks[0])
            residual_sum = weakref.ref(mid.windows.data)
            out = B.block_forward(mid, blocks[1])
            loss = T.tsum(T.mul(out.windows, weight))
            if not keep:
                del mid
            alive = residual_sum() is not None
            loss.backward()
            return alive, [x.grad] + [p.grad for p in params]

        kept_alive, kept_grads = run(keep=True)
        dropped_alive, dropped_grads = run(keep=False)
        assert kept_alive and not dropped_alive
        assert all(g is not None for g in dropped_grads)
        for kept, dropped in zip(kept_grads, dropped_grads):
            assert kept.tobytes() == dropped.tobytes()


class TestBuild:
    def test_same_seed_is_bit_identical(self):
        a = M.build_model(M.micro_config(), seed=9)
        b = M.build_model(M.micro_config(), seed=9)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        a = M.build_model(M.micro_config(), seed=9)
        b = M.build_model(M.micro_config(), seed=10)
        assert not np.array_equal(a.embed_weight.data, b.embed_weight.data)

    def test_msg_input_size_is_shuffle_tile_times_channels(self):
        # 4x4 tile at 96 channels: 1536 scalars
        model = M.build_model(M.small_config(num_classes=10), seed=0)
        assert model.msg_input.size == 16 * 96 == 1536
        counts = M.count_params(model)
        assert counts["msg_input"] == 1536
        named = dict(model.named_parameters())  # the total counts the input messengers too
        assert named["msg_input"] is model.msg_input and counts["total"] == sum(t.size for t in named.values())

    def test_frozen_msg_policy(self, tmp_path):
        """``train`` freezes the input messengers by rebinding the built draw as a leaf without grad: the
        optimizer leaves it out, while the counts and checkpoint bytes stay the learnable model's."""
        learned = M.build_model(M.micro_config(), seed=0)
        model = M.build_model(M.micro_config(), seed=0)
        model.msg_input = Tensor(model.msg_input.data)
        assert not model.msg_input.requires_grad and learned.msg_input.requires_grad
        opt = AdamW(model.named_parameters(), weight_decay=0.05, betas=(0.9, 0.999), eps=1e-8)
        assert [n for n, _ in opt.params] == [n for n, _ in learned.named_parameters() if n != "msg_input"]
        assert M.count_params(model) == M.count_params(learned)
        save_checkpoint(model, str(tmp_path / "frozen.ckpt"))
        save_checkpoint(learned, str(tmp_path / "learned.ckpt"))
        assert (tmp_path / "frozen.ckpt").read_bytes() == (tmp_path / "learned.ckpt").read_bytes()

    def test_rerandomize_touches_only_msg_input(self):
        model = M.build_model(M.micro_config(), seed=0)
        before = {n: t.data.copy() for n, t in model.named_parameters()}
        M.rerandomize_msg_input(model, seed=123)
        changed = [n for n, t in model.named_parameters() if not np.array_equal(before[n], t.data)]
        assert changed == ["msg_input"]
        assert model.msg_input.shape == (2, 2, 16)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize(
        "shape",
        [(0,), (3, 0, 2), (1,), (1, 1), (5,), (7, 11), (96, 384), (3, 3, 16, 32)]
        + [(65536,), (65537,), (2, 65536), (300, 300), (3, 3, 64, 128)],  # across INIT_CHUNK boundaries
    )
    def test_trunc_normal_matches_the_full_rescan(self, seed, shape):
        def full_rescan(rng, shape, std):  # the loop that re-checked every entry each round
            out = rng.standard_normal(shape) * std
            bad = np.abs(out) > 2 * std
            while bad.any():
                out[bad] = rng.standard_normal(int(bad.sum())) * std
                bad = np.abs(out) > 2 * std
            return out.astype(np.float32)

        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = M.trunc_normal(got_rng, shape)
        want = full_rescan(want_rng, shape, 0.02)
        assert got.dtype == np.float32 and got.shape == shape
        assert got.tobytes() == want.tobytes()
        assert got_rng.standard_normal() == want_rng.standard_normal()  # the same draws were consumed

    def test_trunc_normal_holds_one_chunk_beyond_its_output(self):
        rng = np.random.default_rng(0)
        M.trunc_normal(rng, (8,))  # fill any first-call caches
        tracemalloc.start()
        try:
            out = M.trunc_normal(rng, (3, 3, 256, 512))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * 2**20, f"{peak:,} bytes at the traced peak for a {out.nbytes:,}-byte result"

    def test_no_msg_build_has_no_msg_parameters(self):
        cfg = M.micro_config(use_msg=False)
        model = M.build_model(cfg, seed=0)
        assert model.msg_input is None
        assert M.count_params(model)["msg_input"] == 0


def reference_named_parameters(model: M.Model) -> list[tuple[str, Tensor]]:
    """The hand-listed checkpoint names and order that ``Model.named_parameters`` must keep.

    A classifier with messengers has no bias in its last block, which only the messengers query.
    """
    cfg = model.config
    items = [("embed.weight", model.embed_weight), ("embed.bias", model.embed_bias)]
    if model.msg_input is not None:
        items.append(("msg_input", model.msg_input))
    for si, stage in enumerate(model.stages, start=1):
        for bi, blk in enumerate(stage):
            prefix = f"stage{si}.block{bi}"
            items += [
                (f"{prefix}.norm1.gamma", blk.norm1_gamma),
                (f"{prefix}.norm1.beta", blk.norm1_beta),
                (f"{prefix}.attn.qkv_weight", blk.qkv_weight),
                (f"{prefix}.attn.qkv_bias", blk.qkv_bias),
                (f"{prefix}.attn.out_weight", blk.out_weight),
                (f"{prefix}.attn.out_bias", blk.out_bias),
            ]
            msg_only = cfg.task == "cls" and cfg.use_msg and (si, bi) == (4, len(stage) - 1)
            assert (blk.bias_table is None) == msg_only
            assert (blk.msg_key_bias is None) == (msg_only or not cfg.use_msg)
            if not msg_only:
                items.append((f"{prefix}.bias.table", blk.bias_table))
            if cfg.use_msg and not msg_only:
                items.append((f"{prefix}.bias.msg_key", blk.msg_key_bias))
            items += [
                (f"{prefix}.norm2.gamma", blk.norm2_gamma),
                (f"{prefix}.norm2.beta", blk.norm2_beta),
                (f"{prefix}.mlp.w1", blk.mlp_w1),
                (f"{prefix}.mlp.b1", blk.mlp_b1),
                (f"{prefix}.mlp.w2", blk.mlp_w2),
                (f"{prefix}.mlp.b2", blk.mlp_b2),
            ]
    for mi, (w, b) in enumerate(zip(model.merge_weights, model.merge_biases), start=1):
        items += [(f"merge{mi}.weight", w), (f"merge{mi}.bias", b)]
    return items + [
        ("head.norm.gamma", model.head_norm_gamma),
        ("head.norm.beta", model.head_norm_beta),
        ("head.weight", model.head_weight),
        ("head.bias", model.head_bias),
    ]


class TestNamedParameters:
    @staticmethod
    def check(model: M.Model) -> None:
        got, ref = model.named_parameters(), reference_named_parameters(model)
        assert [n for n, _ in got] == [n for n, _ in ref]
        assert all(a is b for (_, a), (_, b) in zip(got, ref))
        blk = model.stages[0][0]
        assert blk.parameters() == [t for _, t in blk.named_parameters()]

    @pytest.mark.parametrize(
        "cfg",
        [M.micro_config(), M.micro_config(use_msg=False), M.tiny_config(task="det-backbone")],
        ids=["micro", "micro-no-msg", "tiny-det"],
    )
    def test_names_order_and_tensors_match_reference(self, cfg):
        self.check(M.build_model(cfg, seed=0))

    def test_tiny_names_order_and_tensors_match_reference(self, tiny_model):
        self.check(tiny_model)


class TestInitialMsg:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        gh=st.integers(1, 12),
        gw=st.integers(1, 12),
        s=st.integers(1, 4),
        batch=st.integers(1, 3),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_tile_and_gradient_match_numpy(self, gh, gw, s, batch, dtype):
        """The grid is the cropped np.tile of the input; its gradient is np.add.at's, bit for bit."""
        rng = np.random.default_rng(gh * 1000 + gw * 10 + s)
        msg = Tensor(rng.standard_normal((s, s, 3)).astype(dtype), requires_grad=True)
        grid = M._initial_msg(msg, (gh, gw), batch)
        tile = np.tile(msg.data, (-(-gh // s), -(-gw // s), 1))[:gh, :gw]
        assert grid.shape == (batch, gh, gw, 3)
        assert grid.data.tobytes() == np.broadcast_to(tile, grid.shape).tobytes()

        g = rng.standard_normal(grid.shape).astype(dtype)
        T.tsum(T.mul(grid, Tensor(g))).backward()
        ref = np.zeros((s, s, 3), dtype=dtype)
        np.add.at(ref, (np.arange(gh)[:, None] % s, np.arange(gw)[None, :] % s), g.sum(axis=0))
        assert msg.grad.tobytes() == ref.tobytes()


NUMPY_ONLY_SCRIPT = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
import msgt
for info in pkgutil.iter_modules(msgt.__path__):
    importlib.import_module("msgt." + info.name)
from msgt import model as M, tensor as T
model = M.build_model(M.micro_config(), seed=0)
for p in model.parameters():
    p.data = p.data.astype(np.float64)
images = T.Tensor(np.random.default_rng(0).standard_normal((1, 128, 128, 3)))
T.tsum(M.forward(model, images, mode="train")).backward()
print(sum(p.grad is not None for p in model.parameters()), len(model.parameters()))
"""


def test_runs_without_scipy():
    """Every module imports, and a float64 forward and backward run, with scipy unavailable."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(msgt.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    with_grad, total = map(int, done.stdout.split())
    assert with_grad == total > 0


THREADS_SCRIPT = """
import hashlib, numpy as np
from msgt import model as M, tensor as T
from msgt.train import cross_entropy
rng = np.random.default_rng(0)
micro = M.build_model(M.micro_config(), seed=0)
images = T.Tensor(rng.standard_normal((16, 128, 128, 3)).astype(np.float32))
logits = M.forward(micro, images, mode="train", rng=rng)
cross_entropy(logits, np.arange(16) % 4, 0.1).backward()
tiny = M.build_model(M.tiny_config(), seed=0)
with T.no_grad():
    tiny_images = T.Tensor(rng.standard_normal((1, 224, 224, 3)).astype(np.float32))
    tiny_logits = M.forward(tiny, tiny_images, mode="eval")
print(hashlib.sha256(logits.data.tobytes() + tiny_logits.data.tobytes()).hexdigest())
print(hashlib.sha256(b"".join(p.grad.tobytes() for p in micro.parameters() if p.requires_grad)).hexdigest())
"""


def test_outputs_and_gradients_do_not_depend_on_the_thread_count():
    """Micro train-mode logits and gradients, and tiny 224-px eval logits, hash the same at 1 and 2 threads.

    The BLAS pool is sized when numpy loads, so each count runs in its own process.
    """
    src = os.path.dirname(os.path.dirname(msgt.__file__))
    hashes = []
    for threads in ("1", "2"):
        blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas_vars}
        env["MSGT_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", THREADS_SCRIPT], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        hashes.append(done.stdout.split())
    assert len(hashes[0]) == 2 and hashes[0] == hashes[1]


class TestFloat32Fidelity:
    """The float32 path that trains stays close to float64 on the same weights and images.

    Bounds: the loss within 1e-6 relative, each gradient within 1e-4 relative in norm.
    """

    @staticmethod
    def assert_close_to_float64(f32, images, objective):
        f64 = widen(f32)
        losses = []
        for model, x in ((f32, images), (f64, Tensor(images.data.astype(np.float64)))):
            for p in model.parameters():
                p.zero_grad()
            loss = objective(M.forward(model, x))
            loss.backward()
            losses.append(loss.item())
        assert abs(losses[0] - losses[1]) <= 1e-6 * abs(losses[1])
        for (name, p32), (_, p64) in zip(f32.named_parameters(), f64.named_parameters()):
            if p64.grad is None:  # a det-backbone's head, which no output reads
                assert name.startswith("head.") and p32.grad is None
                continue
            err = np.linalg.norm(p32.grad.astype(np.float64) - p64.grad) / np.linalg.norm(p64.grad)
            assert err <= 1e-4, (name, err)

    @pytest.mark.parametrize("size", [128, 136])
    def test_train_step_matches_float64(self, size):
        f32 = M.build_model(M.micro_config(), seed=0)
        self.assert_close_to_float64(f32, rand_images(4, size), lambda y: cross_entropy(y, np.arange(4), 0.1))

    @pytest.mark.parametrize("size", [128, 136])
    def test_det_backbone_stage_maps_match_float64(self, size):
        f32 = M.build_model(M.micro_config(task="det-backbone"), seed=0)

        def objective(maps):
            return functools.reduce(T.add, [T.tsum(T.mul(m, m)) for m in maps])

        self.assert_close_to_float64(f32, rand_images(4, size), objective)

    def test_train_step_after_20_adamw_steps_matches_float64(self):
        f32 = M.build_model(M.micro_config(), seed=0)
        images, labels = rand_images(8, 128), np.arange(8) % 4
        opt = AdamW(f32.named_parameters(), weight_decay=0.05, betas=(0.9, 0.999), eps=1e-8)
        for _ in range(20):
            opt.zero_grad()
            cross_entropy(M.forward(f32, images), labels, 0.1).backward()
            opt.step(3e-3)
        self.assert_close_to_float64(f32, images, lambda y: cross_entropy(y, labels, 0.1))


class TestPatchEmbed:
    def test_tiny_geometry(self, tiny_model):
        fm = M.patch_embed(tiny_model, rand_images(1, 224))
        assert fm.tokens.shape == (1, 56, 56, 64)

    def test_micro_geometry(self):
        model = M.build_model(M.micro_config(), seed=0)
        fm = M.patch_embed(model, rand_images(1, 128))
        assert fm.tokens.shape == (1, 32, 32, 16)

    @pytest.mark.parametrize("size", [1, 3, 6])
    def test_input_below_the_kernel_gives_one_or_two_tokens(self, size):
        model = M.build_model(M.micro_config(), seed=0)
        fm = M.patch_embed(model, Tensor(np.zeros((1, size, size, 3), dtype=np.float32)))
        assert fm.tokens.shape == (1, -(-size // 4), -(-size // 4), 16)


class TestForward:
    def test_micro_logits_shape(self):
        model = M.build_model(M.micro_config(num_classes=4), seed=0)
        with T.no_grad():
            logits = M.forward(model, rand_images(2, 128))
        assert logits.shape == (2, 4)

    @pytest.mark.slow
    def test_tiny_imagenet_shape(self, tiny_model):
        assert tiny_model.config.num_classes == 1000
        with T.no_grad():
            logits = M.forward(tiny_model, rand_images(1, 224))
        assert logits.shape == (1, 1000)

    def test_training_graph_holds_no_reference_cycle(self):
        """A dropped graph is freed by reference counting, not left to the cycle collector."""
        model = M.build_model(M.micro_config(), seed=0)
        gc.collect()
        gc.disable()
        try:
            logits = M.forward(model, rand_images(1, 128), mode="train", rng=np.random.default_rng(0))
            T.tsum(T.mul(logits, logits)).backward()
            del logits
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_partition_runs_once_per_stage(self):
        model = M.build_model(M.micro_config(), seed=0)
        calls = W.partition_call_count()
        with T.no_grad():
            M.forward(model, rand_images(1, 128))
        assert W.partition_call_count() - calls == 4

    def test_duplicated_sample_in_batch_is_bit_identical(self):
        model = M.build_model(M.micro_config(), seed=0)
        img = rand_images(1, 128, seed=3).data
        batch = Tensor(np.concatenate([img, img], axis=0))
        with T.no_grad():
            logits = M.forward(model, batch).data
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_batch_order_independence(self):
        model = M.build_model(M.micro_config(), seed=0)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((1, 128, 128, 3)).astype(np.float32)
        b = rng.standard_normal((1, 128, 128, 3)).astype(np.float32)
        with T.no_grad():
            ab = M.forward(model, Tensor(np.concatenate([a, b]))).data
            ba = M.forward(model, Tensor(np.concatenate([b, a]))).data
        np.testing.assert_array_equal(ab[0], ba[1])
        np.testing.assert_array_equal(ab[1], ba[0])

    def test_batch_size_invariance_within_float32(self):
        model = M.build_model(M.micro_config(), seed=0)
        img = rand_images(1, 128, seed=5).data
        with T.no_grad():
            one = M.forward(model, Tensor(img)).data
            two = M.forward(model, Tensor(np.concatenate([img, img]))).data
        np.testing.assert_allclose(one[0], two[0], atol=1e-6)

    def test_eval_forward_deterministic(self):
        model = M.build_model(M.micro_config(), seed=0)
        x = rand_images(1, 128, seed=6)
        with T.no_grad():
            a = M.forward(model, x).data
            b = M.forward(model, x).data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("size", [128, 136])  # 136 px pads every stage
    @pytest.mark.parametrize("manipulation", B.MODES)
    def test_train_mode_and_rng_change_nothing(self, manipulation, size):
        """No layer is stochastic: ``mode="train"`` with an rng gives eval's bits and draws nothing."""
        def step(**keywords):
            model = M.build_model(M.micro_config(manipulation=manipulation), seed=0)
            logits = M.forward(model, rand_images(2, size, seed=7), **keywords)
            cross_entropy(logits, np.array([0, 3])).backward()
            return [logits.data] + [p.grad for p in model.parameters()]

        rng = np.random.default_rng(9)
        trained, evaluated = step(mode="train", rng=rng), step(mode="eval")
        for got, want in zip(trained, evaluated, strict=True):
            assert got.tobytes() == want.tobytes()
        assert rng.random() == np.random.default_rng(9).random()

    def test_messenger_key_bias_reaches_the_logits(self):
        """Noise on ``bias.msg_key`` (one column of every patch row) moves the logits.

        The messenger's query row of the bias is zero and has no parameter: one constant
        over a whole score row would be removed by the softmax.
        """
        model = widen(M.build_model(M.micro_config(), seed=0))
        assert not [name for name, _ in model.named_parameters() if "msg_query" in name]
        images = Tensor(np.random.default_rng(8).standard_normal((2, 128, 128, 3)))
        with T.no_grad():
            base = M.forward(model, images).data
        rng = np.random.default_rng(9)
        scalars = [p for name, p in model.named_parameters() if name.endswith(".bias.msg_key")]
        assert len(scalars) == 4  # every block but the messenger-only last one
        for p in scalars:
            p.data = p.data + rng.normal(0.0, 3.0, p.shape)
        with T.no_grad():
            moved = np.abs(M.forward(model, images).data - base).max()
        assert moved > 1e-6

    def test_final_stage_is_single_window_for_micro(self):
        # stage-4 resolution 4x4 equals the window size: one messenger left
        model = M.build_model(M.micro_config(), seed=0)
        maps = M.forward(
            M.build_model(M.micro_config(task="det-backbone"), seed=0),
            rand_images(1, 128),
        )
        assert maps[-1].shape[1:3] == (4, 4)
        assert model.config.stages[-1].shuffle_size == 1

    def test_det_backbone_stride_pyramid(self):
        cfg = M.micro_config(task="det-backbone")
        model = M.build_model(cfg, seed=0)
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((1, 136, 200, 3)).astype(np.float32))
        with T.no_grad():
            maps = M.forward(model, x)
        shapes = [m.shape for m in maps]
        assert shapes == [
            (1, 34, 50, 16),
            (1, 17, 25, 32),
            (1, 9, 13, 64),
            (1, 5, 7, 128),
        ]


    @pytest.mark.parametrize("size", [128, 136, 100])
    @pytest.mark.parametrize("mode", B.MODES)
    def test_det_backbone_returns_four_plain_maps(self, mode, size):
        """Each stage map is a (B, H, W, C) Tensor of the stage's extents and width, not a FeatureMap."""
        cfg = M.micro_config(task="det-backbone", manipulation=mode, input_size=size)
        with T.no_grad():
            maps = M.forward(M.build_model(cfg, seed=0), rand_images(2, size))
        assert [type(m) for m in maps] == [Tensor] * M.NUM_STAGES
        assert [m.shape for m in maps] == [(2, *e, s.dim) for (e, _), s in zip(M.stage_geometry(cfg), cfg.stages)]
        assert all(np.isfinite(m.data).all() for m in maps)

class TestNoDeadOps:
    def test_model_reaches_every_public_tensor_function(self, monkeypatch):
        """An op that no forward or backward of the model calls is dead code.

        Exempt are the checking tools ``grad_check`` and ``phi32`` (the whole-array form of
        the cdf fit the mlp node runs chunk by chunk); ``no_grad`` and ``count_macs`` are classes.
        """
        public = [
            name for name, fn in vars(T).items()
            if inspect.isfunction(fn) and fn.__module__ == T.__name__ and not name.startswith("_")
        ]
        reached = set()

        def recording(name, fn):
            def wrapped(*args, **kwargs):
                reached.add(name)
                return fn(*args, **kwargs)
            return wrapped

        for name in public:
            monkeypatch.setattr(T, name, recording(name, getattr(T, name)))
        for mode in B.MODES:  # 136 px pads every stage and crops the tiled input messengers
            model = M.build_model(M.micro_config(manipulation=mode), seed=0)
            logits = M.forward(model, rand_images(2, 136), mode="train", rng=np.random.default_rng(0))
            cross_entropy(logits, np.array([0, 3])).backward()
        M.forward(M.build_model(M.micro_config(task="det-backbone"), seed=0), rand_images(1, 160))
        with T.no_grad():
            wide = widen(M.build_model(M.micro_config(), seed=0))
            M.forward(wide, Tensor(rand_images(1, 128).data.astype(np.float64)))
        assert sorted(set(public) - reached - {"grad_check", "phi32"}) == []


class TestFusedNodesInModel:
    """With the composed graphs patched back in, a model gives the same bits and MAC buckets."""

    @staticmethod
    def _composed(monkeypatch):
        monkeypatch.setattr(T, "attention", reference_attention)
        monkeypatch.setattr(T, "mlp", reference_mlp)

    def test_micro_train_step(self, monkeypatch):
        def step():
            model = M.build_model(M.micro_config(), seed=0)
            with T.count_macs() as c:
                logits = M.forward(model, rand_images(2, 128), mode="train", rng=np.random.default_rng(0))
                cross_entropy(logits, np.array([0, 3])).backward()
            return c.buckets, [logits.data] + [p.grad for p in model.parameters()]

        fused = step()
        self._composed(monkeypatch)
        composed = step()
        assert fused[0] == composed[0]
        for got, want in zip(fused[1], composed[1]):
            np.testing.assert_array_equal(got, want)

    def test_tiny_forward(self, tiny_model, monkeypatch):
        def forward():
            with T.no_grad(), T.count_macs() as c:
                logits = M.forward(tiny_model, rand_images(1, 224)).data
            return c.buckets, logits

        fused = forward()
        self._composed(monkeypatch)
        composed = forward()
        assert fused[0] == composed[0]
        np.testing.assert_array_equal(fused[1], composed[1])


def reference_forward(model: M.Model, images: Tensor, mode: str = "eval", rng=None) -> Tensor:
    """The classifier forward before its last block ran only the messenger rows.

    Every block runs over all tokens, and every stage ends with
    ``detach_msg``, ``reverse_windows`` and ``crop_to``. The last block, which has no
    bias, gets a random one: the messenger rows it feeds do not read it.
    ``mode`` and ``rng`` take ``forward``'s keywords, which select nothing.
    """
    cfg = model.config
    bias_rng = np.random.default_rng(4)
    fm, msg = M.patch_embed(model, images), None
    for si in range(M.NUM_STAGES):
        padded, extents = W.pad_to_window_multiple(fm, cfg.window_size)
        wt = W.partition_windows(padded, cfg.window_size)
        if si == 0:
            msg = M._initial_msg(model.msg_input, wt.windows.shape[1:3], images.shape[0])
        wt = B.attach_msg(wt, msg)
        for blk in model.stages[si]:
            if blk.bias_table is None:
                span, heads = 2 * cfg.window_size - 1, blk.num_heads
                table, key = bias_rng.standard_normal((heads, span, span)), bias_rng.standard_normal(heads)
                table, key = (Tensor(a.astype(model.embed_weight.dtype)) for a in (table, key))
                blk = replace(blk, bias_table=table, msg_key_bias=key)
            wt = B.block_forward(wt, blk)
        wt, msg = B.detach_msg(wt)
        fm = W.crop_to(W.reverse_windows(wt), extents)
        if si < M.NUM_STAGES - 1:
            fm, msg = W.merge_tokens(fm, msg, model.merge_weights[si], model.merge_biases[si])
    pooled = T.layer_norm(T.tmean(msg, axis=(1, 2)), model.head_norm_gamma, model.head_norm_beta)
    return T.linear(pooled, model.head_weight, model.head_bias)


def _window2_config(input_size=128, mode="shuffle", depths=(1, 1, 1, 1)):
    """Window 2 and shuffle 2 in every stage, so the last block exchanges across a 2x2 or 3x3 grid.

    At 128 px the stage-4 map is 4x4 (one full region); at 136 px it is 5x5,
    padded to 6x6, and its 3x3 window grid has partial regions.
    """
    stages = M._stages((8, 16, 32, 64), (1, 2, 2, 4), depths, (2,) * M.NUM_STAGES)
    return M.ArchConfig(stages, input_size, num_classes=3, manipulation=mode, window_size=2)


class TestMessengerOnlyFinalBlock:
    """A classifier's last block runs only the messenger rows; float64 logits and gradients match the full block."""

    @staticmethod
    def _run(forward, cfg, mode, batch=2):
        model = M.build_model(cfg, seed=0)
        rng = np.random.default_rng(1)
        for p in model.parameters():  # generic float64 values, so every path carries signal
            p.data = rng.standard_normal(p.shape) * 0.3
        images = Tensor(rng.standard_normal((batch, cfg.input_size, cfg.input_size, 3)))
        weights = Tensor(rng.standard_normal((batch, cfg.num_classes)))
        drops = np.random.default_rng(2)
        logits = forward(model, images, mode=mode, rng=drops)
        T.tsum(T.mul(logits, weights)).backward()
        grads = {name: p.grad for name, p in model.named_parameters()}
        return logits.data, grads, drops.random()

    @pytest.mark.parametrize(
        "cfg,mode",
        [(_window2_config(mode=m), "eval") for m in B.MODES]
        + [
            (M.micro_config(), "eval"),
            (_window2_config(input_size=136), "eval"),
            (_window2_config(input_size=136, mode="average", depths=(1, 1, 2, 2)), "train"),
            (_window2_config(depths=(1, 1, 2, 0)), "eval"),
        ],
        ids=[*B.MODES, "micro", "padded-partial", "train-average-partial", "empty-last-stage"],
    )
    def test_matches_full_block_oracle(self, cfg, mode):
        got_logits, got_grads, got_next = self._run(M.forward, cfg, mode)
        want_logits, want_grads, want_next = self._run(reference_forward, cfg, mode)
        assert np.all(np.abs(got_logits - want_logits) <= 1e-12 * np.maximum(1.0, np.abs(want_logits)))
        assert got_grads.keys() == want_grads.keys()
        for name, want in want_grads.items():
            got = got_grads[name]
            if want is None or got is None:
                assert got is want is None or not np.any(want if got is None else got), name
                continue
            assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max()), name
        assert got_next == want_next  # neither forward drew from the rng

    def test_stage4_patch_tokens_are_not_reversed(self, monkeypatch):
        calls = []
        real = W.reverse_windows
        monkeypatch.setattr(W, "reverse_windows", lambda wt: calls.append(wt.channels) or real(wt))
        for cfg, want in ((M.micro_config(), [16, 32, 64]), (M.micro_config(task="det-backbone"), [16, 32, 64, 128])):
            calls.clear()
            with T.no_grad():
                M.forward(M.build_model(cfg, seed=0), rand_images(1, 128))
            assert calls == want


class TestEveryParameterLearns:
    @pytest.mark.parametrize("cfg", [M.micro_config(), M.micro_config(use_msg=False)], ids=["micro", "micro-no-msg"])
    def test_one_train_step_gives_every_trained_parameter_a_nonzero_gradient(self, cfg):
        """A parameter whose gradient is all zero computes nothing, and only fills the checkpoint."""
        model = M.build_model(cfg, seed=0)
        labels = np.random.default_rng(4).integers(0, cfg.num_classes, 16)
        logits = M.forward(model, rand_images(16, 128, seed=3), mode="train", rng=np.random.default_rng(5))
        cross_entropy(logits, labels, 0.1).backward()
        trained = [(name, p) for name, p in model.named_parameters() if p.requires_grad]
        assert len(trained) == len(model.parameters())
        assert [name for name, p in trained if p.grad is None or not np.any(p.grad)] == []


class TestCountParams:
    @staticmethod
    def hand_count(cfg: M.ArchConfig) -> int:
        # Independent summation from the architecture arithmetic alone.
        c1 = cfg.stages[0].dim
        total = 7 * 7 * 3 * c1 + c1  # patch embed
        if cfg.use_msg:
            total += cfg.stages[0].shuffle_size ** 2 * c1
        span = 2 * cfg.window_size - 1
        for s in cfg.stages:
            per_block = 12 * s.dim * s.dim + 13 * s.dim  # four weight matrices; norm affines and bias vectors
            bias = s.num_heads * span * span + (s.num_heads if cfg.use_msg else 0)  # table, messenger-key scalars
            total += s.num_blocks * (per_block + bias)
        if cfg.task == "cls" and cfg.use_msg and cfg.stages[-1].num_blocks:
            total -= bias  # the messenger-only last block has no relative-position bias
        for a, b in zip(cfg.stages[:-1], cfg.stages[1:]):
            total += 3 * 3 * a.dim * b.dim + b.dim
        c4 = cfg.stages[-1].dim
        total += 2 * c4 + c4 * cfg.num_classes + cfg.num_classes
        return total

    def test_micro_count_matches_hand_sum(self):
        cfg = M.micro_config()
        model = M.build_model(cfg, seed=0)
        assert M.count_params(model)["total"] == self.hand_count(cfg)

    def test_tiny_is_about_25m(self):
        cfg = M.tiny_config()
        total = self.hand_count(cfg)
        assert abs(total - 25e6) / 25e6 < 0.10

    def test_hand_sum_matches_build_for_tiny(self, tiny_model):
        # Arithmetic cross-check without allocating the full model.
        assert M.count_params(tiny_model)["total"] == self.hand_count(tiny_model.config)

    def test_msg_related_is_the_input_messengers_and_key_scalars(self):
        counts = M.count_params(M.build_model(M.micro_config(), seed=0))
        # 2x2 input messengers of 16 channels; one key scalar per head in all blocks but the last
        assert counts["msg_input"] == 64
        assert counts["msg_related"] == 64 + (1 + 2 + 4 + 4)
