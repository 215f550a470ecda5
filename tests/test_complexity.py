"""Closed-form cost model tests, including exact cross-checks against the
instrumented engine."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from msgt import blocks as B
from msgt import complexity as C
from msgt import model as M
from msgt import tensor as T
from msgt import windows as W
from msgt.errors import ConfigError, PartitionError
from msgt.tensor import Tensor


class TestFlopsBlock:
    def test_hand_evaluated_single_window(self):
        # 1*(4*49*384^2 + 2*2401*384) + 2*1*49*4*384^2
        assert C.flops_block(1, 7, 384, with_msg=False) == 88_548_096

    def test_msg_increase_matches_exact_ratio(self):
        for windows in (1, 4, 64):
            without = C.flops_block(windows, 7, 384, with_msg=False)
            delta = C.flops_block(windows, 7, 384, with_msg=True) - without
            assert Fraction(delta, without) == C.flops_ratio_exact(7, 384)

    def test_channel_doubling_quadruples_projection_term(self):
        def projection_term(ch):
            # remove the quadratic-in-tokens attention part: 2*w^4*C
            return C.flops_block(1, 7, ch, with_msg=False) - 2 * 7**4 * ch

        assert projection_term(768) == 4 * projection_term(384)

    @pytest.mark.parametrize("grid_h,grid_w,window", [(8, 8, 7), (8, 2, 4), (2, 8, 4)])
    def test_indivisible_grid_rejected(self, grid_h, grid_w, window):
        """Each axis must be a window multiple, not only the token count (8x2 = 16 = 4x4): the partition
        refuses such a map, and the window count priced is that of the map padded axis by axis."""
        rng = np.random.default_rng(0)
        fm = W.FeatureMap(Tensor(rng.standard_normal((1, grid_h, grid_w, 16)).astype(np.float32)))
        with pytest.raises(PartitionError, match="not divisible"):
            W.partition_windows(fm, window)
        wt = W.partition_windows(W.pad_to_window_multiple(fm, window)[0], window)
        windows = wt.windows.shape[1] * wt.windows.shape[2]
        assert windows == -(-grid_h // window) * -(-grid_w // window) > grid_h * grid_w // window**2
        params = M.make_block_params(rng, 16, 2, window, 1)
        with T.count_macs() as counter:
            B.block_forward(wt, params)
        assert counter["matmul"] == C.flops_block(windows, window, 16, with_msg=False)


class TestFlopsRatio:
    def test_reference_channel_width(self):
        r = C.flops_ratio(7, 384)
        assert r == Fraction(2354, 115297)
        assert abs(float(r) - 0.020417) < 1e-6
        # at this scale the dropped w^2 term barely moves the figure
        assert abs(float(C.flops_ratio_exact(7, 384)) - float(r)) < 5e-4

    def test_narrow_channel_width(self):
        assert C.flops_ratio(7, 96) == Fraction(626, 30625)

    def test_grid_independence_sweep(self):
        for w in (2, 4, 7, 14):
            for ch in (16, 96, 384, 768):
                exact = C.flops_ratio_exact(w, ch)
                headline = C.flops_ratio(w, ch)
                # headline simplification understates the token-quadratic term
                assert exact - headline == Fraction(w * w, 6 * w * w * ch + w**4)
                for windows in (1, 16):
                    base = C.flops_block(windows, w, ch, with_msg=False)
                    extra = C.flops_block(windows, w, ch, with_msg=True) - base
                    assert exact * base == extra


class TestReceptiveField:
    def test_shifted_window_value(self):
        assert C.receptive_field(C.SWIN_SHIFT, 7) == Fraction(441, 4)
        assert float(C.receptive_field(C.SWIN_SHIFT, 7)) == 110.25

    def test_shuffle_value(self):
        assert C.receptive_field(C.MSG_SHUFFLE, 7, 4) == 784

    def test_degenerate_single_window(self):
        assert C.receptive_field(C.MSG_SHUFFLE, 7, 1) == 49

    def test_shuffle_dominates_shift_for_s_at_least_two(self):
        for w in (2, 4, 7, 14):
            swin = C.receptive_field(C.SWIN_SHIFT, w)
            for s in range(2, 9):
                assert C.receptive_field(C.MSG_SHUFFLE, w, s) >= swin

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            C.receptive_field("halo", 7, 2)


class TestModelFlops:
    def test_tiny_near_reference_budget(self):
        report = C.model_flops(M.tiny_config())
        assert abs(report["total_flops_conv2x"] - 3.8e9) / 3.8e9 < 0.10
        assert abs(report["total_macs"] - 3.8e9) / 3.8e9 < 0.10

    def test_resolution_doubling_quadruples_attention(self):
        cfg = M.tiny_config()
        small = C.model_flops(cfg, input_size=224)
        big = C.model_flops(cfg, input_size=448)
        assert big["attention_mlp"] == 4 * small["attention_mlp"]

    def test_block_counter_matches_formula_exactly(self):
        rng = np.random.default_rng(0)
        gh = gw = 2
        ws, ch, heads = 4, 16, 2
        params = M.make_block_params(rng, ch, heads, ws, 2)
        wt = W.WindowedTokens(Tensor(rng.standard_normal((1, gh, gw, ws * ws, ch)).astype(np.float32)))
        msg = Tensor(rng.standard_normal((1, gh, gw, ch)).astype(np.float32))
        with T.count_macs() as counter:
            B.detach_msg(B.block_forward(B.attach_msg(wt, msg), params))
        assert counter["matmul"] == C.flops_block(gh * gw, ws, ch)
        assert counter["conv"] == 0

    def test_micro_model_counter_matches_closed_form(self):
        cfg = M.micro_config()
        model = M.build_model(cfg, seed=0)
        x = Tensor(np.random.default_rng(1).standard_normal((1, 128, 128, 3)).astype(np.float32))
        with T.no_grad(), T.count_macs() as counter:
            M.forward(model, x)
        report = C.model_flops(cfg)
        assert counter["matmul"] == report["attention_mlp"] + report["head"]
        assert counter["conv"] == report["conv_macs"]
        assert counter["other"] > 0  # unmodeled ops are bucketed, not dropped

    @pytest.mark.parametrize(
        "cfg,size,final",
        [
            (M.micro_config(task="det-backbone"), 128, 0),
            (M.micro_config(use_msg=False), 128, 0),
            (M.tiny_config(), 224, 41_732_096),
            (M.tiny_config(), 256, 166_928_384),
            (M.tiny_config(), 160, 41_732_096),
            (M.tiny_config(task="det-backbone"), 256, 0),
        ],
        ids=["micro-det-backbone", "micro-no-msg", "tiny-224", "tiny-256", "tiny-160", "tiny-det-backbone-256"],
    )
    def test_counted_macs_equal_model_flops(self, cfg, size, final):
        """The branches besides micro ``cls`` (the test above); only a classifier with messengers has the
        messenger-only last block. A detection backbone runs no head, and ``model_flops`` counts none.
        """
        model = M.build_model(cfg, seed=0)
        x = Tensor(np.random.default_rng(1).standard_normal((1, size, size, 3)).astype(np.float32))
        with T.no_grad(), T.count_macs() as counter:
            M.forward(model, x)
        report = C.model_flops(cfg, size)
        assert counter["matmul"] + counter["conv"] == report["total_macs"]
        assert report["final_block"] == final

    def test_messenger_only_block_formula(self):
        """``windows * (3nC^2 + 2nC + 9C^2)``; the per-image totals these terms give."""
        assert C.flops_msg_block(4, 7, 512) == 4 * (3 * 50 * 512**2 + 2 * 50 * 512 + 9 * 512**2)
        totals = {
            (M.micro_config(), None): 21_709_568,
            (M.micro_config(task="det-backbone"), None): 24_137_984,
            (M.micro_config(use_msg=False), None): 22_790_656,
            (M.tiny_config(), 224): 3_702_749_184,
            (M.tiny_config(), 256): 8_347_373_568,
        }
        for (cfg, size), total in totals.items():
            assert C.model_flops(cfg, size)["total_macs"] == total

    def test_prices_every_size(self):
        """Forward-free: ``model_flops`` prices all 464 preset entries; a size below one pixel raises
        ``validate``'s error."""
        priced = 0
        for make in M.PRESETS.values():
            for task in ("cls", "det-backbone"):
                for use_msg in (True, False):
                    cfg = replace(make(task=task), use_msg=use_msg, manipulation="shuffle" if use_msg else "none")
                    for size in range(64, 513, 16):
                        assert C.model_flops(cfg, size)["total_macs"] > 0
                        priced += 1
                    with pytest.raises(ConfigError, match="input size must be >= 1, got 0"):
                        C.model_flops(cfg, 0)
        assert priced == 464
