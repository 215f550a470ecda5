"""Window partitioning, padding, region grouping, and token merging tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msgt import tensor as T
from msgt import windows as W
from msgt.errors import ConfigError, ContractError, PartitionError, ShapeError
from msgt.tensor import Tensor


def fmap(b, h, w, c, seed=0):
    rng = np.random.default_rng(seed)
    return W.FeatureMap(tokens=Tensor(rng.standard_normal((b, h, w, c)).astype(np.float32)))


class TestPartition:
    def test_stage1_geometry(self):
        wt = W.partition_windows(fmap(1, 56, 56, 8), 7)
        assert wt.windows.shape == (1, 8, 8, 49, 8)

    def test_single_window(self):
        wt = W.partition_windows(fmap(2, 7, 7, 4), 7)
        assert wt.windows.shape == (2, 1, 1, 49, 4)

    def test_slot_layout_is_row_major(self):
        fm = fmap(1, 4, 6, 1, seed=3)
        wt = W.partition_windows(fm, 2)
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    src = fm.tokens.data[0, i * 2 + k // 2, j * 2 + k % 2, 0]
                    assert wt.windows.data[0, i, j, k, 0] == src

    def test_round_trip_bit_exact(self):
        fm = fmap(2, 12, 8, 3, seed=1)
        back = W.reverse_windows(W.partition_windows(fm, 4))
        np.testing.assert_array_equal(back.tokens.data, fm.tokens.data)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        b=st.integers(1, 2),
        gh=st.integers(1, 4),
        gw=st.integers(1, 4),
        ws=st.integers(1, 7),
        c=st.integers(1, 3),
    )
    def test_randomized_round_trips(self, b, gh, gw, ws, c):
        """reverse_windows inverts partition_windows bit for bit."""
        fm = fmap(b, gh * ws, gw * ws, c, seed=gh * 7 + gw)
        back = W.reverse_windows(W.partition_windows(fm, ws))
        np.testing.assert_array_equal(back.tokens.data, fm.tokens.data)

    def test_indivisible_extents_rejected(self):
        with pytest.raises(PartitionError, match="pad"):
            W.partition_windows(fmap(1, 50, 56, 4), 7)

    def test_reverse_refuses_attached_msg(self):
        wt = W.WindowedTokens(Tensor(np.zeros((1, 2, 2, 5, 2), dtype=np.float32)))
        with pytest.raises(ContractError):
            W.reverse_windows(wt)

    def test_partition_is_differentiable(self):
        fm = fmap(1, 4, 4, 2, seed=5)
        fm.tokens = Tensor(fm.tokens.data, requires_grad=True)
        wt = W.partition_windows(fm, 2)
        loss = T.tsum(T.mul(wt.windows, wt.windows))
        loss.backward()
        np.testing.assert_allclose(fm.tokens.grad, 2 * fm.tokens.data)


class TestPadding:
    def test_already_divisible_is_unchanged(self):
        fm = fmap(1, 56, 56, 2)
        padded, extents = W.pad_to_window_multiple(fm, 7)
        assert padded is fm
        assert extents == (56, 56)

    def test_pads_up_to_next_multiple(self):
        padded, extents = W.pad_to_window_multiple(fmap(1, 50, 60, 2), 7)
        assert padded.tokens.shape[1:3] == (56, 63)
        assert extents == (50, 60)
        # padding is zeros, bottom/right
        assert np.all(padded.tokens.data[:, 50:, :, :] == 0)
        assert np.all(padded.tokens.data[:, :, 60:, :] == 0)

    def test_crop_inverts_pad(self):
        fm = fmap(1, 50, 60, 2, seed=2)
        padded, extents = W.pad_to_window_multiple(fm, 7)
        back = W.crop_to(padded, extents)
        np.testing.assert_array_equal(back.tokens.data, fm.tokens.data)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        b=st.integers(1, 2),
        h=st.integers(1, 29),
        w=st.integers(1, 29),
        ws=st.integers(1, 7),
        c=st.integers(1, 3),
    )
    def test_padded_extents_divisible(self, b, h, w, ws, c):
        """Padding reaches a window multiple, and crop_to undoes it bit for bit."""
        fm = fmap(b, h, w, c, seed=h * 31 + w)
        padded, extents = W.pad_to_window_multiple(fm, ws)
        assert extents == (h, w)
        assert padded.tokens.shape[1] % ws == 0
        assert padded.tokens.shape[2] % ws == 0
        np.testing.assert_array_equal(W.crop_to(padded, extents).tokens.data, fm.tokens.data)


class TestRegions:
    def test_full_tiling(self):
        regions = W.regions((8, 8), 4, W.TOP_LEFT)
        assert len(regions) == 4
        assert all(len(r) == 16 for r in regions)

    def test_degenerate_region_size_one(self):
        regions = W.regions((3, 3), 1, W.TOP_LEFT)
        assert len(regions) == 9
        assert all(len(r) == 1 for r in regions)

    def test_bottom_right_anchor_of_irregular_grid(self):
        # 5x5 grid, region 4: complete tile in the bottom-right corner,
        # partial strips along the top and left.
        regions = W.regions((5, 5), 4, W.BOTTOM_RIGHT)
        sizes = sorted(len(r) for r in regions)
        assert sizes == [1, 4, 4, 16]
        full = [r for r in regions if len(r) == 16][0]
        expected = np.array([i * 5 + j for i in range(1, 5) for j in range(1, 5)])
        np.testing.assert_array_equal(np.sort(full), expected)

    def test_every_window_in_exactly_one_region(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            gh, gw = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            rs = int(rng.integers(1, 5))
            anchor = W.TOP_LEFT if rng.integers(2) else W.BOTTOM_RIGHT
            combined = np.concatenate(W.regions((gh, gw), rs, anchor))
            np.testing.assert_array_equal(np.sort(combined), np.arange(gh * gw))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        gh=st.integers(1, 12),
        gw=st.integers(1, 12),
        region=st.integers(1, 5),
        anchor=st.sampled_from([W.TOP_LEFT, W.BOTTOM_RIGHT]),
    )
    def test_blocks_tile_grid_with_one_region_shape_each(self, gh, gw, region, anchor):
        blocks = W.build_region_view((gh, gw), region, anchor)
        assert len(blocks) <= 4
        cover = np.zeros((gh, gw), dtype=int)
        for rows, cols, rh, rw in blocks:
            assert (rows.stop - rows.start) % rh == 0 and (cols.stop - cols.start) % rw == 0
            cover[rows, cols] += 1
        assert (cover == 1).all()
        for idx in W.regions((gh, gw), region, anchor):
            r, c = np.divmod(idx, gw)
            home = [
                (rh, rw)
                for rows, cols, rh, rw in blocks
                if rows.start <= r.min() and r.max() < rows.stop and cols.start <= c.min() and c.max() < cols.stop
            ]
            assert len(home) == 1 and (np.ptp(r) + 1, np.ptp(c) + 1) == home[0]

    def test_oversized_region_is_one_region(self):
        regions = W.regions((2, 2), 4, W.TOP_LEFT)
        assert len(regions) == 1 and len(regions[0]) == 4

    def test_regions_run_row_major_over_region_corners(self):
        # 3x5 grid, region 2, top-left: row bands [0, 2), [2, 3); column bands [0, 2), [2, 4), [4, 5)
        got = [r.tolist() for r in W.regions((3, 5), 2, W.TOP_LEFT)]
        assert got == [[0, 1, 5, 6], [2, 3, 7, 8], [4, 9], [10, 11], [12, 13], [14]]

    @pytest.mark.parametrize("size, anchor", [(0, W.TOP_LEFT), (2, "center")])
    def test_bad_region_size_or_anchor_rejected(self, size, anchor):
        for tiling in (W.build_region_view, W.regions):
            with pytest.raises(ConfigError):
                tiling((2, 2), size, anchor)


class TestMergeTokens:
    def test_stage_transition_shapes(self):
        rng = np.random.default_rng(19)
        fm = W.FeatureMap(tokens=Tensor(rng.standard_normal((1, 56, 56, 64)).astype(np.float32)))
        msg = Tensor(rng.standard_normal((1, 8, 8, 64)).astype(np.float32))
        weight = Tensor(rng.standard_normal((3, 3, 64, 128)).astype(np.float32) * 0.02)
        bias = Tensor(np.zeros(128, dtype=np.float32))
        merged, merged_msg = W.merge_tokens(fm, msg, weight, bias)
        assert merged.tokens.shape == (1, 28, 28, 128)
        assert merged_msg.shape == (1, 4, 4, 128)

    def test_odd_msg_grid_ceil_halves(self):
        rng = np.random.default_rng(23)
        fm = W.FeatureMap(tokens=Tensor(rng.standard_normal((1, 10, 14, 4)).astype(np.float32)))
        msg = Tensor(rng.standard_normal((1, 5, 7, 4)).astype(np.float32))
        weight = Tensor(rng.standard_normal((3, 3, 4, 8)).astype(np.float32))
        bias = Tensor(np.zeros(8, dtype=np.float32))
        _, merged_msg = W.merge_tokens(fm, msg, weight, bias)
        assert merged_msg.shape == (1, 3, 4, 8)

    def test_delta_kernel_preserves_constant(self):
        fm = W.FeatureMap(tokens=Tensor(np.full((1, 8, 8, 1), 2.5, dtype=np.float32)))
        weight = np.zeros((3, 3, 1, 2), dtype=np.float32)
        weight[1, 1, 0, :] = 1.0  # unit center tap
        merged, _ = W.merge_tokens(fm, None, Tensor(weight), Tensor(np.zeros(2, dtype=np.float32)))
        np.testing.assert_allclose(merged.tokens.data, 2.5)

    def test_channel_mismatch_rejected(self):
        fm = fmap(1, 8, 8, 4)
        weight = Tensor(np.zeros((3, 3, 8, 16), dtype=np.float32))
        with pytest.raises(ShapeError):
            W.merge_tokens(fm, None, weight, Tensor(np.zeros(16, dtype=np.float32)))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        b=st.integers(1, 2),
        h=st.integers(1, 11),
        w=st.integers(1, 11),
        mh=st.integers(1, 5),
        mw=st.integers(1, 5),
        c=st.integers(1, 3),
        with_msg=st.booleans(),
    )
    def test_both_grids_take_the_same_strided_convolution(self, b, h, w, mh, mw, c, with_msg):
        """Each grid is the zero-padded stride-2 3x3 convolution of its input, extents halved (ceil),
        and the shared weight's gradient is the sum of what each grid alone gives it."""
        rng = np.random.default_rng(h * 100 + w * 10 + mh)
        x, m = (rng.standard_normal((b, *e, c)) for e in ((h, w), (mh, mw)))
        weight = rng.standard_normal((3, 3, c, 2 * c))
        bias = rng.standard_normal(2 * c)

        def reference(a):
            ap = np.pad(a, ((0, 0), (1, 1), (1, 1), (0, 0)))
            oh, ow = -(-a.shape[1] // 2), -(-a.shape[2] // 2)
            out = np.broadcast_to(bias, (b, oh, ow, 2 * c)).copy()
            for ki in range(3):
                for kj in range(3):
                    out += ap[:, ki : ki + 2 * oh : 2, kj : kj + 2 * ow : 2] @ weight[ki, kj]
            return out

        def weight_grad(*grids):
            wt = Tensor(weight, requires_grad=True)
            fm = W.FeatureMap(tokens=Tensor(grids[0]))
            msg = Tensor(grids[1]) if len(grids) > 1 else None
            merged, merged_msg = W.merge_tokens(fm, msg, wt, Tensor(bias))
            outs = [merged.tokens] + ([merged_msg] if msg is not None else [])
            for out, grid in zip(outs, grids):
                np.testing.assert_allclose(out.data, reference(grid), rtol=1e-12, atol=1e-12)
            loss = T.tsum(outs[0])
            for out in outs[1:]:
                loss = T.add(loss, T.tsum(out))
            loss.backward()
            return wt.grad

        if with_msg:
            np.testing.assert_allclose(weight_grad(x, m), weight_grad(x) + weight_grad(m), rtol=1e-12)
        else:
            weight_grad(x)

    def test_single_weight_shared_between_grids(self):
        # The interface takes one weight tensor; convolving the messenger grid
        # with different parameters is impossible by construction.
        import inspect

        sig = inspect.signature(W.merge_tokens)
        assert list(sig.parameters) == ["fm", "msg", "weight", "bias"]
