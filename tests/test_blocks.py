"""Messenger-token block tests: attachment, bias indexing, local attention,
shuffle/average/shift manipulation, and the composed block."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msgt import blocks as B
from msgt import complexity as C
from msgt import tensor as T
from msgt import windows as W
from msgt.analysis import information_reach
from msgt.errors import ConfigError, ContractError, ShapeError
from msgt.model import make_block_params
from msgt.tensor import Tensor, _accum, _op


# -- reference exchange: flat permutations and segment means, over W.regions for shift and average --


def reference_shuffle_permutation(grid, region, anchor, channels):
    """Scalar permutation over (window, channel) implementing the S²-group swap.

    A window's slot is its place in the full SxS region that covers it, counted on a grid that
    runs on past the edges away from ``anchor``, so a partial region keeps the slots nearest the
    anchor. Channels split into S² groups; windows at slots p and q of one region swap group q
    of p with group p of q, and a group whose partner slot holds no window stays.
    """
    (gh, gw), s = grid, region
    g = channels // (s * s)
    oh, ow = (0, 0) if anchor == W.TOP_LEFT else ((-gh) % s, (-gw) % s)
    window_at = {}  # (region row, region col, slot) -> flat window index
    for i in range(gh):
        for j in range(gw):
            r, c = i + oh, j + ow
            window_at[r // s, c // s, (r % s) * s + c % s] = i * gw + j
    perm = np.arange(gh * gw * channels, dtype=np.int64)
    for (rr, rc, p), a in window_at.items():
        for q in range(s * s):
            b = window_at.get((rr, rc, q))
            if b is not None:
                dst, src = a * channels + q * g, b * channels + p * g
                perm[dst : dst + g] = np.arange(src, src + g)
    return perm


def reference_shift_permutation(regions, windows, channels):
    """Cyclic +1 shift of whole tokens, row-major within each region."""
    perm = np.arange(windows * channels, dtype=np.int64)
    for idx in regions:
        n = len(idx)
        for k in range(n):
            src, dst = idx[(k - 1) % n], idx[k]
            perm[dst * channels : (dst + 1) * channels] = np.arange(src * channels, (src + 1) * channels)
    return perm


def reference_segment_mean(a, segments):
    """Replace each row group of the second-to-last axis by its group mean."""
    y = np.empty_like(a.data)
    for idx in segments:
        y[..., idx, :] = a.data[..., idx, :].mean(axis=-2, keepdims=True)
    na = a._node

    def backward(g):
        buf = np.empty_like(g)
        for idx in segments:
            buf[..., idx, :] = g[..., idx, :].mean(axis=-2, keepdims=True)
        _accum(na, buf)

    return _op(y, (a,), backward)


def reference_manipulate(grid, region, anchor, mode):
    b, gh, gw, c = grid.shape
    regions = W.regions((gh, gw), region, anchor)
    if mode == "average":
        flat = T.reshape(grid, (b, gh * gw, c))
        return T.reshape(reference_segment_mean(flat, regions), (b, gh, gw, c))
    if mode == "shuffle":
        perm = reference_shuffle_permutation((gh, gw), region, anchor, c)
    else:
        perm = reference_shift_permutation(regions, gh * gw, c)
    out = T.getitem(T.reshape(grid, (b, gh * gw * c)), (slice(None), perm))
    return T.reshape(out, (b, gh, gw, c))


def make_windows(b, gh, gw, window_size, c, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((b, gh, gw, window_size**2, c)).astype(dtype)
    return W.WindowedTokens(Tensor(data))


def make_msg(b, gh, gw, c, seed=1, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((b, gh, gw, c)).astype(dtype))


class TestAttachDetach:
    def test_attach_shapes(self):
        wt = make_windows(1, 8, 8, 7, 4)
        out = B.attach_msg(wt, make_msg(1, 8, 8, 4))
        assert out.windows.shape == (1, 8, 8, 50, 4)
        assert out.with_msg

    def test_round_trip_bit_exact(self):
        wt = make_windows(2, 3, 2, 2, 5, seed=2)
        msg = make_msg(2, 3, 2, 5, seed=3)
        back_wt, back_msg = B.detach_msg(B.attach_msg(wt, msg))
        np.testing.assert_array_equal(back_wt.windows.data, wt.windows.data)
        np.testing.assert_array_equal(back_msg.data, msg.data)

    def test_single_window_sequence_length(self):
        wt = make_windows(1, 1, 1, 3, 2)
        out = B.attach_msg(wt, make_msg(1, 1, 1, 2))
        assert out.windows.shape[3] == 3 * 3 + 1

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            B.attach_msg(make_windows(1, 2, 2, 2, 4), make_msg(1, 2, 3, 4))

    @pytest.mark.parametrize("use_patches, use_msg", [(True, True), (True, False), (False, True)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_detach_backward_fills_each_slot_from_its_piece(self, use_patches, use_msg, dtype):
        """Slot 0 gets the grid's gradient and slots 1..n the patches'; a piece with none leaves exact +0.0."""
        rng = np.random.default_rng(7)
        wt, grid = make_windows(2, 2, 3, 2, 4, seed=8, dtype=dtype), make_msg(2, 2, 3, 4, seed=9, dtype=dtype)
        x = Tensor(B.attach_msg(wt, grid).windows.data, requires_grad=True)
        g_patches = -1.0 - rng.random((2, 2, 3, 4, 4)).astype(dtype)  # negative, so only used slots carry a sign
        g_msg = -1.0 - rng.random((2, 2, 3, 4)).astype(dtype)
        patches, msg = B.detach_msg(W.WindowedTokens(x))
        pieces = ((patches.windows, g_patches, use_patches), (msg, g_msg, use_msg))
        functools.reduce(T.add, [T.tsum(T.mul(piece, Tensor(g))) for piece, g, use in pieces if use]).backward()
        assert x.grad.dtype == dtype
        np.testing.assert_array_equal(x.grad[:, :, :, 0], g_msg if use_msg else 0.0)
        np.testing.assert_array_equal(x.grad[:, :, :, 1:], g_patches if use_patches else 0.0)
        used_slots = np.zeros(x.shape, bool)
        used_slots[:, :, :, 0], used_slots[:, :, :, 1:] = use_msg, use_patches
        np.testing.assert_array_equal(np.signbit(x.grad), used_slots)  # unused slots hold +0.0, never -0.0


class TestMessengerSlotFromTokenCount:
    """A record carries a messenger exactly when its token count is w**2 + 1; no flag can say otherwise."""

    def test_direct_record_exchanges_like_an_attached_one(self):
        c, w = 8, 2
        params = make_block_params(np.random.default_rng(38), c, 2, w, 2)
        attached = B.attach_msg(make_windows(1, 2, 2, w, c, seed=39), make_msg(1, 2, 2, c, seed=40))
        direct = W.WindowedTokens(Tensor(attached.windows.data.copy()))
        want = B.block_forward(attached, params).windows.data
        np.testing.assert_array_equal(B.block_forward(direct, params).windows.data, want)
        with pytest.raises(ContractError, match="detach"):
            W.reverse_windows(direct)

    def test_flag_follows_the_count(self):
        counts = {1: False, 2: True, 4: False, 5: True, 9: False, 10: True, 49: False, 50: True}
        for n, with_msg in counts.items():
            assert W.WindowedTokens(Tensor(np.zeros((1, 1, 1, n, 4), np.float32))).with_msg == with_msg, n

    @pytest.mark.parametrize("n", [3, 6, 7, 8, 11, 48])
    def test_count_neither_square_nor_square_plus_one_rejected(self, n):
        with pytest.raises(ShapeError, match=f"{n} tokens per window"):
            W.WindowedTokens(Tensor(np.zeros((1, 1, 1, n, 4), np.float32)))


def reference_bias_source(i, j, w):
    """Per-slot spec of the bias lookup for query slot ``i`` and key slot ``j``.

    Slot 0 is the messenger token and slots 1.. are patch positions in
    row-major order; the offset arithmetic applies to 0-based patch
    positions (slot - 1). Returns ("zero",) for the messenger's query row,
    ("msg-key",) or ("table", row, col).
    """
    if i == 0:
        return ("zero",)
    if j == 0:
        return ("msg-key",)
    pi, pj = i - 1, j - 1
    return ("table", pi % w - pj % w + w - 1, pi // w - pj // w + w - 1)


def reference_bias_matrix(table, msg_key, with_msg):
    """(heads, T, T) bias assembled entry by entry from :func:`reference_bias_source`."""
    w, first = (table.shape[1] + 1) // 2, 0 if with_msg else 1
    n = w * w + 1 - first
    out = np.empty((table.shape[0], n, n), dtype=table.data.dtype)
    for a in range(n):
        for b in range(n):
            src = reference_bias_source(a + first, b + first, w)
            if src[0] == "zero":
                out[:, a, b] = 0
            elif src[0] == "msg-key":
                out[:, a, b] = msg_key.data
            else:
                out[:, a, b] = table.data[:, src[1], src[2]]
    return out


def distinct_bias(w, heads=2, seed=5):
    """A (table, msg_key) pair whose table cells and messenger-key scalars all hold different, nonzero values."""
    rng = np.random.default_rng(seed)
    span = 2 * w - 1
    values = 1 + rng.permutation(heads * (span * span + 1)).astype(np.float32)
    return Tensor(values[: heads * span * span].reshape(heads, span, span)), Tensor(values[-heads:])


class TestBiasIndex:
    def test_msg_query_row_is_zero(self):
        mat = B.bias_matrix(*distinct_bias(2), with_msg=True).data
        assert all(reference_bias_source(0, j, 2) == ("zero",) for j in range(5))
        assert (mat[:, 0, :] == 0).all()
        assert (mat[:, 1:, :] != 0).all()  # every other entry is read from the table or the key scalar

    def test_msg_key_column(self):
        table, msg_key = distinct_bias(2)
        mat = B.bias_matrix(table, msg_key, with_msg=True).data
        assert all(reference_bias_source(i, 0, 2) == ("msg-key",) for i in range(1, 5))
        assert (mat[:, 1:, 0] == msg_key.data[:, None]).all()

    def test_zero_offset_hits_table_center(self):
        for w in (2, 3, 7):
            bias = distinct_bias(w)
            table, mat = bias[0].data, B.bias_matrix(*bias, with_msg=True).data
            for slot in (1, w * w):
                assert reference_bias_source(slot, slot, w) == ("table", w - 1, w - 1)
                np.testing.assert_array_equal(mat[:, slot, slot], table[:, w - 1, w - 1])

    def test_hand_worked_offset(self):
        # window 2x2: query patch position 0, key patch position 3
        table, msg_key = distinct_bias(2)
        assert reference_bias_source(1, 4, 2) == ("table", 0, 0)
        np.testing.assert_array_equal(B.bias_matrix(table, msg_key, with_msg=True).data[:, 1, 4], table.data[:, 0, 0])
        np.testing.assert_array_equal(B.bias_matrix(table, msg_key, with_msg=False).data[:, 0, 3], table.data[:, 0, 0])

    def test_swap_reflects_through_center(self):
        w = 3
        span = 2 * w - 1
        idx = B._bias_gather_index(w, True)[1:]  # patch query rows only
        for i in range(1, w * w + 1):
            for j in range(1, w * w + 1):
                a, b = divmod(int(idx[i - 1, j]), span), divmod(int(idx[j - 1, i]), span)
                assert a == (span - 1 - b[0], span - 1 - b[1])
                assert ("table", *a) == reference_bias_source(i, j, w)

    @pytest.mark.parametrize("with_msg", [False, True])
    @pytest.mark.parametrize("w", range(1, 9))
    def test_bias_matrix_matches_index_oracle(self, w, with_msg):
        bias = distinct_bias(w, heads=3, seed=w)
        mat = B.bias_matrix(*bias, with_msg=with_msg).data
        np.testing.assert_array_equal(mat, reference_bias_matrix(*bias, with_msg))


class TestLocalMsa:
    def _params(self, c, heads, w, seed=7):
        rng = np.random.default_rng(seed)
        return make_block_params(rng, c, heads, w, 1)

    @staticmethod
    def _probabilities(wt, params):
        """The attention node's probabilities under the block's relative-position bias."""
        bias = B.bias_matrix(params.bias_table, params.msg_key_bias, with_msg=wt.with_msg)
        return T.attention(wt.windows, params.qkv_weight, params.qkv_bias, bias, params.num_heads)[1]

    def test_identical_tokens_attend_uniformly(self):
        c, w = 4, 2
        params = self._params(c, 1, w)
        token = np.random.default_rng(8).standard_normal(c).astype(np.float32)
        data = np.broadcast_to(token, (1, 1, 1, w * w + 1, c)).copy()
        wt = W.WindowedTokens(Tensor(data))
        assert wt.with_msg
        out = B.local_msa(wt.windows, params)
        np.testing.assert_allclose(self._probabilities(wt, params), 1.0 / (w * w + 1), atol=1e-7)
        # expected output: out_proj(v) with v identical across tokens
        qkv = token @ params.qkv_weight.data + params.qkv_bias.data
        v = qkv[2 * c :]
        expected = v @ params.out_weight.data + params.out_bias.data
        np.testing.assert_allclose(out.data[0, 0, 0], np.tile(expected, (w * w + 1, 1)), rtol=1e-5)

    def test_windows_are_isolated(self):
        c, w = 8, 2
        params = self._params(c, 2, w, seed=9)
        wt = make_windows(1, 1, 2, w, c, seed=10)
        zeroed = wt.windows.data.copy()
        zeroed[0, 0, 1] = 0.0
        out_full = B.local_msa(wt.windows, params)
        out_zero = B.local_msa(Tensor(zeroed), params)
        np.testing.assert_array_equal(out_full.data[0, 0, 0], out_zero.data[0, 0, 0])

    def test_attention_rows_sum_to_one(self):
        c, w = 12, 3
        params = self._params(c, 3, w, seed=11)
        wt = make_windows(2, 2, 2, w, c, seed=12)
        wt = B.attach_msg(wt, make_msg(2, 2, 2, c, seed=13))
        sums = self._probabilities(wt, params).sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_heads_must_divide_channels(self):
        three_heads = self._params(8, 3, 2)
        for table in (three_heads.bias_table, None):  # a messenger key bias needs a table; 4 tokens read none
            params = replace(three_heads, bias_table=table, msg_key_bias=None)
            with pytest.raises(ConfigError, match="3 heads"):
                B.local_msa(make_windows(1, 1, 1, 2, 8).windows, params)

    @pytest.mark.parametrize("n", [3, 6, 10, 17])
    def test_token_count_off_the_tables_window_named(self, n):
        params = self._params(8, 2, 2)  # w = 2: 4 or 5 tokens per window
        x = Tensor(np.zeros((1, 1, 1, n, 8), np.float32))
        with pytest.raises(ShapeError, match=rf"\b{n} tokens per window.*w = 2\b"):
            B.local_msa(x, params)


class TestShuffle:
    def test_region_of_one_is_identity(self):
        msg = make_msg(1, 3, 3, 4, seed=20)
        out = B.manipulate_msg(msg, 1, W.TOP_LEFT, "shuffle")
        np.testing.assert_array_equal(out.data, msg.data)

    def test_hand_derived_group_transpose(self):
        tokens = np.array(
            [[0.0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]], dtype=np.float32
        ).reshape(1, 2, 2, 4)
        msg = Tensor(tokens)
        out = B.manipulate_msg(msg, 2, W.TOP_LEFT, "shuffle").data.reshape(4, 4)
        expected = np.array(
            [[0.0, 4, 8, 12], [1, 5, 9, 13], [2, 6, 10, 14], [3, 7, 11, 15]], dtype=np.float32
        )
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("anchor", [W.TOP_LEFT, W.BOTTOM_RIGHT])
    @pytest.mark.parametrize("region", [1, 2, 3, 4])
    def test_permutation_and_involution(self, region, anchor):
        """On every grid of 1x1 to 7x7 windows, partial regions and regions larger than the grid included."""
        rng = np.random.default_rng(region)
        for gh in range(1, 8):
            for gw in range(1, 8):
                c = region * region * int(rng.integers(1, 4))
                msg = Tensor(rng.standard_normal((1, gh, gw, c)).astype(np.float32))
                once = B.manipulate_msg(msg, region, anchor, "shuffle")
                np.testing.assert_array_equal(np.sort(once.data.ravel()), np.sort(msg.data.ravel()))
                twice = B.manipulate_msg(once, region, anchor, "shuffle")
                np.testing.assert_array_equal(twice.data, msg.data)

    @pytest.mark.parametrize("grid", [(1, 1), (2, 2), (3, 5)])
    def test_indivisible_channels_named_in_error(self, grid):
        """S² | C is the rule at every grid size, a single window included."""
        msg = make_msg(1, *grid, 6)
        with pytest.raises(ConfigError, match="channels 6 .* shuffle size 2's 4 channel groups"):
            B.manipulate_msg(msg, 2, W.TOP_LEFT, "shuffle")

    def test_partial_region_numbers_groups_over_the_full_region(self):
        """3x1 grid, region 2, bottom-right anchor: a 1-window region at slot 3 and a 2x1 one at slots 1 and 3.
        Slot 1's group 3 swaps with slot 3's group 1; every group whose partner slot is absent stays."""
        msg = Tensor(np.arange(12, dtype=np.float32).reshape(1, 3, 1, 4))
        out = B.manipulate_msg(msg, 2, W.BOTTOM_RIGHT, "shuffle").data.reshape(3, 4)
        np.testing.assert_array_equal(out, [[0, 1, 2, 3], [4, 5, 6, 9], [8, 7, 10, 11]])


class TestExchangeMatchesReference:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        gh=st.integers(1, 10),
        gw=st.integers(1, 10),
        region=st.integers(1, 4),
        anchor=st.sampled_from([W.TOP_LEFT, W.BOTTOM_RIGHT]),
        mode=st.sampled_from(["shuffle", "shift", "average"]),
        dtype=st.sampled_from([np.float32, np.float64]),
        batch=st.integers(2, 3),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical_forward_and_backward(self, gh, gw, region, anchor, mode, dtype, batch, seed):
        channels = region * region * 2
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((batch, gh, gw, channels)).astype(dtype)
        upstream = rng.standard_normal(data.shape).astype(dtype)

        def run(fn):
            x = Tensor(data, requires_grad=True)
            out = fn(x)
            T.tsum(T.mul(out, Tensor(upstream))).backward()
            return out.data, x.grad

        out, grad = run(lambda x: B.manipulate_msg(x, region, anchor, mode))
        ref_out, ref_grad = run(lambda x: reference_manipulate(x, region, anchor, mode))
        assert out.dtype == ref_out.dtype == grad.dtype == dtype
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(grad, ref_grad)

    def test_exchange_uses_no_gather(self, monkeypatch):
        plain = T.getitem

        def slices_only(a, key):
            if any(isinstance(k, (np.ndarray, list)) for k in (key if isinstance(key, tuple) else (key,))):
                raise AssertionError(f"getitem called with an index array: {key!r}")
            return plain(a, key)

        monkeypatch.setattr(T, "getitem", slices_only)
        msg = make_msg(2, 5, 7, 48, seed=24)
        for anchor in (W.TOP_LEFT, W.BOTTOM_RIGHT):
            for mode in ("shuffle", "shift", "average"):
                assert B.manipulate_msg(msg, 4, anchor, mode).shape == msg.shape


class TestManipulate:
    def test_average_replaces_with_region_mean(self):
        grid = np.array([[1.0, 1.0], [3.0, 3.0]], dtype=np.float32).reshape(1, 1, 2, 2)
        msg = Tensor(grid)
        out = B.manipulate_msg(msg, 2, W.TOP_LEFT, "average")
        np.testing.assert_allclose(out.data.reshape(2, 2), [[2.0, 2.0], [2.0, 2.0]])

    def test_shift_is_cyclic_row_major(self):
        tokens = np.arange(4, dtype=np.float32).reshape(1, 2, 2, 1)  # a,b,c,d
        msg = Tensor(tokens)
        out = B.manipulate_msg(msg, 2, W.TOP_LEFT, "shift").data.reshape(4)
        np.testing.assert_array_equal(out, [3.0, 0.0, 1.0, 2.0])  # d,a,b,c

    def test_none_is_identity(self):
        msg = make_msg(1, 2, 2, 4, seed=22)
        out = B.manipulate_msg(msg, 2, W.TOP_LEFT, "none")
        assert out is msg

    def test_unknown_mode_rejected(self):
        msg = make_msg(1, 2, 2, 4)
        with pytest.raises(ConfigError):
            B.manipulate_msg(msg, 2, W.TOP_LEFT, "swap")

    @pytest.mark.parametrize("mode", ["shuffle", "average", "shift", "none"])
    def test_region_one_reduces_to_identity(self, mode):
        msg = make_msg(1, 2, 3, 4, seed=23)
        out = B.manipulate_msg(msg, 1, W.TOP_LEFT, mode)
        np.testing.assert_array_equal(out.data, msg.data)


class TestBlockForward:
    def test_zeroed_projections_make_identity_block(self):
        rng = np.random.default_rng(30)
        c, w = 8, 2
        params = make_block_params(rng, c, 2, w, 2, mode="shuffle")
        params.out_weight.data[:] = 0
        params.out_bias.data[:] = 0
        params.mlp_w2.data[:] = 0
        params.mlp_b2.data[:] = 0
        wt = make_windows(1, 2, 2, w, c, seed=31)
        msg = make_msg(1, 2, 2, c, seed=32)
        out_wt, out_msg = B.detach_msg(B.block_forward(B.attach_msg(wt, msg), params))
        np.testing.assert_array_equal(out_wt.windows.data, wt.windows.data)
        expected_msg = B.manipulate_msg(msg, 2, W.TOP_LEFT, "shuffle").data
        np.testing.assert_array_equal(out_msg.data, expected_msg)

    @pytest.mark.parametrize("anchor", [W.TOP_LEFT, W.BOTTOM_RIGHT])
    @pytest.mark.parametrize("mode", ["shuffle", "shift", "average"])
    def test_block_exchanges_over_its_own_regions(self, anchor, mode):
        """With the residual branches zeroed, the block's messengers leave as its params' exchange of them."""
        c, w = 8, 2
        params = make_block_params(np.random.default_rng(30), c, 2, w, 2, mode=mode, anchor=anchor)
        for t in (params.out_weight, params.out_bias, params.mlp_w2, params.mlp_b2):
            t.data[:] = 0
        msg = make_msg(1, 3, 2, c, seed=32)  # partial regions at the edge opposite the anchor
        out_msg = B.detach_msg(B.block_forward(B.attach_msg(make_windows(1, 3, 2, w, c, seed=31), msg), params))[1]
        np.testing.assert_array_equal(out_msg.data, B.manipulate_msg(msg, 2, anchor, mode).data)
        other = W.BOTTOM_RIGHT if anchor == W.TOP_LEFT else W.TOP_LEFT
        assert not np.array_equal(out_msg.data, B.manipulate_msg(msg, 2, other, mode).data)

    def test_mode_none_keeps_windows_isolated(self):
        reached = information_reach(mode="none", use_msg=True, seed=3)
        assert reached[0, 0]
        assert not reached[0, 1] and not reached[1, 0] and not reached[1, 1]

    def test_shuffle_reaches_whole_region_in_two_blocks(self):
        reached = information_reach(mode="shuffle", use_msg=True, num_blocks=2, seed=4)
        assert reached.all()

    def test_no_msg_blocks_stay_local(self):
        reached = information_reach(mode="none", use_msg=False, num_blocks=3, seed=5)
        assert reached[0, 0] and reached.sum() == 1

    @pytest.mark.parametrize("region", [2, 3, 4])
    @pytest.mark.parametrize("window", [1, 2, 3, 7])
    def test_reach_is_the_receptive_field_formula(self, window, region):
        """Two shuffle blocks reach (S*w)^2 tokens: all S*S windows of w*w; without exchange, one window."""
        reached = information_reach(region, "shuffle", window=window)
        assert reached.all() and reached.sum() * window**2 == C.receptive_field(C.MSG_SHUFFLE, window, region)
        for use_msg in (True, False):
            confined = information_reach(region, "none", use_msg=use_msg, window=window)
            assert confined[0, 0] and confined.sum() == 1

    def test_micro_block_gradients(self):
        rng = np.random.default_rng(33)
        c, w = 4, 2
        params = make_block_params(rng, c, 1, w, 2, mode="shuffle", dtype=np.float64)
        for t in params.parameters():
            t.data = rng.standard_normal(t.shape) * 0.3
        wt_data = Tensor(rng.standard_normal((1, 2, 2, w * w, c)), requires_grad=True)
        msg_data = Tensor(rng.standard_normal((1, 2, 2, c)), requires_grad=True)

        def loss():
            wt = W.WindowedTokens(wt_data)
            msg = msg_data
            out_wt, out_msg = B.detach_msg(B.block_forward(B.attach_msg(wt, msg), params))
            return T.add(T.tsum(T.mul(out_wt.windows, out_wt.windows)), T.tsum(T.mul(out_msg, out_msg)))

        err = T.grad_check(loss, params.parameters() + [wt_data, msg_data])
        assert err < 1e-4, f"block gradient mismatch: {err}"

    def test_messenger_only_block_is_the_full_blocks_messenger_grid(self):
        rng = np.random.default_rng(35)
        c, w = 8, 2
        params = make_block_params(rng, c, 2, w, 2, mode="shuffle", dtype=np.float64)
        for t in params.parameters():
            t.data = rng.standard_normal(t.shape) * 0.3
        f64 = np.float64
        wt = B.attach_msg(make_windows(1, 2, 3, w, c, seed=36, dtype=f64), make_msg(1, 2, 3, c, seed=37, dtype=f64))
        full = B.detach_msg(B.block_forward(wt, params))[1].data  # a 2x2 and a 2x1 region
        msg_only = replace(params, bias_table=None, msg_key_bias=None)  # the messenger's query row of the bias is zero
        alone = B.block_forward(wt, msg_only)
        assert isinstance(alone, Tensor)
        np.testing.assert_allclose(alone.data, full, rtol=0, atol=1e-13)
        with pytest.raises(ConfigError, match="messenger tokens attached"):
            B.block_forward(make_windows(1, 2, 3, w, c), msg_only)

    def test_bias_heads_must_match_attention_heads(self):
        params = make_block_params(np.random.default_rng(34), 8, 2, 2, 2)
        one_head = Tensor(np.zeros((1, 3, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="2 heads"):
            replace(params, bias_table=one_head)
        assert replace(params, bias_table=None, msg_key_bias=None).bias_table is None

    def test_messenger_key_bias_without_bias_table_rejected(self):
        params = make_block_params(np.random.default_rng(34), 8, 2, 2, 2)
        with pytest.raises(ConfigError, match="messenger key bias needs a bias table"):
            replace(params, bias_table=None)

    def test_mlp_must_be_four_x(self):
        rng = np.random.default_rng(34)
        params = make_block_params(rng, 4, 1, 2, 2)
        with pytest.raises(ConfigError):
            replace(
                params,
                mlp_w1=Tensor(np.zeros((4, 8), dtype=np.float32)),
                mlp_b1=Tensor(np.zeros(8, dtype=np.float32)),
                mlp_w2=Tensor(np.zeros((8, 4), dtype=np.float32)),
                mlp_b2=Tensor(np.zeros(4, dtype=np.float32)),
            )
