"""Tensor engine tests: forward kernels, autodiff, and gradient checking."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf as scipy_erf

from msgt import analysis as A
from msgt import blocks as B
from msgt import model as M
from msgt import tensor as T
from msgt import windows as W
from msgt.errors import ConfigError, ContractError, ShapeError
from msgt.tensor import Tensor
from msgt.train import cross_entropy


def t64(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2, dtype=np.float32))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, b.data)

    def test_hand_computed_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_batched_shape(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((4, 3, 5)))
        b = Tensor(rng.standard_normal((4, 5, 2)))
        assert T.matmul(a, b).shape == (4, 3, 2)

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 2)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(a, b)

    def test_bias_added_in_place_to_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor(np.eye(2, dtype=np.float32))
        np.testing.assert_array_equal(T.matmul(a, b, Tensor([10.0, 20.0])).data, [[11.0, 22.0], [13.0, 24.0]])

    def test_bias_may_not_enlarge_product(self):
        a = Tensor(np.zeros((2, 3), dtype=np.float32))
        b = Tensor(np.zeros((3, 4), dtype=np.float32))
        with pytest.raises(ShapeError, match="bias"):
            T.matmul(a, b, Tensor(np.zeros((5, 1, 4), dtype=np.float32)))


class TestSoftmax:
    """The attention node's in-place softmax over the last axis."""

    def test_constant_input_is_uniform(self):
        for c in (0.0, 5.0, -3.25):
            np.testing.assert_allclose(T._softmax_(np.full(3, c, dtype=np.float32)), [1 / 3] * 3, atol=1e-7)

    def test_closed_form(self):
        np.testing.assert_allclose(T._softmax_(np.array([0.0, math.log(2.0)])), [1 / 3, 2 / 3], atol=1e-12)

    def test_rows_sum_to_one_even_for_huge_inputs(self):
        rng = np.random.default_rng(1)
        y = T._softmax_(rng.standard_normal((5, 7)) * 1e4)
        assert np.all(y >= 0)
        np.testing.assert_allclose(y.sum(axis=1), np.ones(5), atol=1e-6)


class TestLogSoftmax:
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_matches_softmax_kernel_along_axis(self, axis):
        x = np.random.default_rng(5).standard_normal((3, 4, 5)) * 3
        want = np.moveaxis(T._softmax_(np.moveaxis(x, axis, -1).copy()), -1, axis)
        np.testing.assert_allclose(np.exp(T.log_softmax(Tensor(x), axis=axis).data), want, rtol=1e-13)

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError, match="axis"):
            T.log_softmax(Tensor([1.0, 2.0]), axis=2)


class TestLayerNorm:
    def test_constant_token_maps_to_zero(self):
        x = Tensor(np.full((2, 4), 3.7))
        y = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(y.data, 0.0, atol=1e-4)

    def test_two_value_token(self):
        # mean 2, population std 1: eps moves each output by under 5e-6
        x = t64([[1.0, 3.0]], requires_grad=False)
        y = T.layer_norm(x, t64(np.ones(2), False), t64(np.zeros(2), False))
        np.testing.assert_allclose(y.data, [[-1.0, 1.0]], atol=1e-5)

    @pytest.mark.parametrize("var", [1.0, 1e-4, 1e-8])
    def test_eps_is_added_to_the_variance(self, var):
        """README's one layer-norm constant, eps = 1e-5, is added to the variance: a token of population
        variance ``var`` maps to +-sqrt(var / (var + eps)), so a near-constant token is damped, not blown up."""
        assert T.LAYER_NORM_EPS == 1e-5
        s = math.sqrt(var)
        x = t64([[2.0 - s, 2.0 + s]], requires_grad=False)
        y = T.layer_norm(x, t64(np.ones(2), False), t64(np.zeros(2), False))
        want = math.sqrt(var / (var + 1e-5))
        np.testing.assert_allclose(y.data, [[-want, want]], rtol=1e-9)

    def test_output_is_centered(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((3, 5, 8)).astype(np.float64))
        y = T.layer_norm(x, t64(np.ones(8), False), t64(np.zeros(8), False))
        assert np.abs(y.data.mean(axis=-1)).max() < 1e-6

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 5, 5, 3)))
        w = Tensor(np.eye(3).reshape(1, 1, 3, 3))
        y = T.conv2d(x, w, None, stride=1, padding=0)
        np.testing.assert_array_equal(y.data, x.data)

    def test_patch_embed_geometry(self):
        x = Tensor(np.zeros((1, 224, 224, 3), dtype=np.float32))
        w = Tensor(np.zeros((7, 7, 3, 8), dtype=np.float32))
        y = T.conv2d(x, w, None, stride=4, padding=3)
        assert y.shape == (1, 56, 56, 8)

    def test_merge_geometry(self):
        x = Tensor(np.zeros((1, 56, 56, 4), dtype=np.float32))
        w = Tensor(np.zeros((3, 3, 4, 8), dtype=np.float32))
        y = T.conv2d(x, w, None, stride=2, padding=1)
        assert y.shape == (1, 28, 28, 8)

    def test_nonpositive_output_extent(self):
        x = Tensor(np.zeros((1, 2, 2, 1), dtype=np.float32))
        w = Tensor(np.zeros((5, 5, 1, 1), dtype=np.float32))
        with pytest.raises(ConfigError):
            T.conv2d(x, w, None, stride=1, padding=0)

    @pytest.mark.parametrize("input_grad", [True, False], ids=["merge", "patch-embed"])
    def test_backward_keeps_no_padded_input(self, input_grad):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 9, 9, 3)).astype(np.float32), requires_grad=input_grad)
        w = Tensor(rng.standard_normal((3, 3, 3, 4)).astype(np.float32), requires_grad=True)
        y = T.conv2d(x, w, None, stride=2, padding=1)
        shapes = []
        for cell in y._node.backward.__closure__:
            value = cell.cell_contents
            assert not isinstance(value, Tensor)  # the closure holds nodes and arrays, never a tensor
            while isinstance(value, np.ndarray):  # an array and every array it views
                shapes.append(value.shape)
                value = value.base
        # the im2col columns are kept for the weight gradient; neither the input nor its padded copy
        assert (50, 27) in shapes and (2, 9, 9, 3) not in shapes and (2, 11, 11, 3) not in shapes


def reference_conv2d(x, w, bias, stride, padding, g):
    """The kh*kw slice-copy im2col conv and its col2im backward, in plain numpy.

    Returns the forward output and the x, weight and bias gradients for the
    output gradient ``g``.
    """
    b, h, wd, cin = x.shape
    k, _, _, cout = w.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0))) if padding else x
    cols = np.empty((b, oh, ow, k, k, cin), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            cols[:, :, :, ki, kj, :] = xp[
                :, ki : ki + stride * (oh - 1) + 1 : stride, kj : kj + stride * (ow - 1) + 1 : stride, :
            ]
    cols2 = cols.reshape(b * oh * ow, k * k * cin)
    w2 = w.reshape(k * k * cin, cout)
    y = (cols2 @ w2 + bias).reshape(b, oh, ow, cout)
    g2 = g.reshape(b * oh * ow, cout)
    gcols = (g2 @ w2.T).reshape(b, oh, ow, k, k, cin)
    gxp = np.zeros_like(xp)
    for ki in range(k):
        for kj in range(k):
            gxp[
                :, ki : ki + stride * (oh - 1) + 1 : stride, kj : kj + stride * (ow - 1) + 1 : stride, :
            ] += gcols[:, :, :, ki, kj, :]
    gx = gxp[:, padding : padding + h, padding : padding + wd, :] if padding else gxp
    return y, gx, (cols2.T @ g2).reshape(w.shape), np.einsum("ij->j", g2)


class TestConv2dMatchesSliceLoop:
    """The strided-view im2col must give the slice-copy loop's bits exactly."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("extent", [(13, 13), (16, 16), (15, 12)])
    @pytest.mark.parametrize(
        "kernel,stride,padding",
        [(7, 4, 3), (3, 2, 1), (3, 1, 0), (1, 1, 0)],
        ids=["patch-embed", "merge", "k3s1", "k1s1"],
    )
    def test_forward_and_gradients_bit_identical(self, kernel, stride, padding, extent, dtype):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + padding + extent[1])
        h, w = extent
        x = rng.standard_normal((3, h, w, 5)).astype(dtype)
        wt = rng.standard_normal((kernel, kernel, 5, 4)).astype(dtype)
        bias = rng.standard_normal(4).astype(dtype)
        xt, wtt, bt = (Tensor(a, requires_grad=True) for a in (x, wt, bias))
        y = T.conv2d(xt, wtt, bt, stride=stride, padding=padding)
        g = rng.standard_normal(y.shape).astype(dtype)
        y.backward(g)
        ry, rgx, rgw, rgb = reference_conv2d(x, wt, bias, stride, padding, g)
        np.testing.assert_array_equal(y.data, ry)
        np.testing.assert_array_equal(xt.grad, rgx)
        np.testing.assert_array_equal(wtt.grad, rgw)
        np.testing.assert_array_equal(bt.grad, rgb)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def row_sum(x, y=None):
    """Last-axis sum of ``x`` (or ``x * y``) through the engine's einsum subscripts, keepdims."""
    x2 = x.reshape(-1, x.shape[-1])
    s = np.einsum("ij->i", x2) if y is None else np.einsum("ij,ij->i", x2, y.reshape(x2.shape))
    return s.reshape(*x.shape[:-1], 1)


def reference_layer_norm(x, gamma, beta, g, eps=1e-5):
    """Layer norm with a fresh array per step; returns y and the x, gamma, beta gradients."""
    c = x.shape[-1]
    xc = x - row_sum(x) / c
    inv = 1.0 / np.sqrt(row_sum(xc, xc) / c + eps)
    xhat = xc * inv
    y = xhat * gamma + beta
    gh = g * gamma
    term = gh - row_sum(gh) / c - xhat * (row_sum(gh, xhat) / c)
    g2, xhat2 = g.reshape(-1, c), xhat.reshape(-1, c)
    return y, term * inv, np.einsum("ij,ij->j", g2, xhat2), np.einsum("ij->j", g2)


def reference_softmax(x, g):
    """Softmax over the last axis through ``x.max``, ``exp`` and a divide; returns y and the x gradient."""
    g = np.ascontiguousarray(g)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / row_sum(e)
    dot = row_sum(g, y)
    return y, y * (g - dot)


def reference_gelu(x, g):
    """gelu's forward and its backward with a fresh array per step; float32 takes the engine's cdf kernel."""
    if x.dtype == np.float32:
        cdf = T.phi32(x)
    else:
        cdf = 0.5 * (1.0 + np.vectorize(math.erf, otypes=[np.float64])(x * _INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return x * cdf, g * (cdf + x * pdf)


def softmax_kernels(x, g):
    """The attention node's softmax on a copy of ``x``, and its backward written in place, as the node does."""
    p = T._softmax_(x.copy())
    gx = g.copy()
    return p, T._softmax_grad(gx, p, gx)


def gelu_kernel(x, g=None):
    """The mlp node's gelu on a copy of ``x``; with ``g``, also the gradient ``g * derivative``."""
    y = np.array(x)  # a C-contiguous copy, as the kernel needs
    d = T._gelu_(y, g is not None)
    return y if g is None else (y, g * d)


def _node(x, reference):
    """A graph node over the last axis from a ``reference(x, g) -> (y, x gradient)``.

    Counts its output size as ``other`` MACs, as the engine's elementwise ops do.
    """
    y = reference(x.data, np.zeros_like(x.data))[0]
    nx, xd = x._node, x.data
    return T._op(y, (x,), lambda g: T._accum(nx, reference(xd, g)[1]), other=y.size)


def softmax_node(x):
    return _node(x, reference_softmax)


def gelu_node(x):
    return _node(x, reference_gelu)


def reference_qkv_split(qkv, c):
    """q, k and v cut out of ``qkv`` by three getitems, each backed by a zero buffer."""
    return [qkv[..., :c], qkv[..., c : 2 * c], qkv[..., 2 * c :]]


class TestKernelsMatchReferences:
    """The in-place kernels must give the fresh-array references' bits exactly."""

    dims = pytest.mark.parametrize("c", [16, 48, 512])
    slots = pytest.mark.parametrize("n", [17, 50])
    dtypes = pytest.mark.parametrize("dtype", [np.float32, np.float64])

    @dims
    @slots
    @dtypes
    def test_layer_norm(self, c, n, dtype):
        rng = np.random.default_rng(c + n)
        x, gamma, beta = (rng.standard_normal(s).astype(dtype) for s in ((2, 3, n, c), (c,), (c,)))
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        y = T.layer_norm(xt, gt, bt)
        g = rng.standard_normal(y.shape).astype(dtype)
        y.backward(g)
        for got, want in zip((y.data, xt.grad, gt.grad, bt.grad), reference_layer_norm(x, gamma, beta, g)):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    @dims
    @slots
    @dtypes
    def test_softmax(self, c, n, dtype):
        rng = np.random.default_rng(c * n)
        x = (rng.standard_normal((2, 3, c // 16, n, n)) * 3).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        for got, want in zip(softmax_kernels(x, g), reference_softmax(x, g)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, T._SCAN_MAX, T._SCAN_MAX + 1])
    @dtypes
    def test_softmax_either_side_of_scan_cutoff(self, n, dtype):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((5, n, n)).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        for got, want in zip(softmax_kernels(x, g), reference_softmax(x, g)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [3, 17, T._SCAN_MAX + 1])
    @dtypes
    def test_row_max_with_nan_and_inf(self, n, dtype):
        x = np.random.default_rng(n).standard_normal((6, n)).astype(dtype)
        x[0, 1] = np.nan
        x[1, -1] = np.inf
        x[2, 0] = -np.inf
        x[3, :] = -np.inf
        x[4, 0], x[4, -1] = np.inf, np.nan
        np.testing.assert_array_equal(T._row_max(x), x.max(axis=1, keepdims=True))
        g = np.ones_like(x)
        with np.errstate(invalid="ignore"):
            ry, _ = reference_softmax(x, g)
            np.testing.assert_array_equal(T._softmax_(x.copy()), ry)

    @dims
    @slots
    @dtypes
    def test_gelu(self, c, n, dtype):
        rng = np.random.default_rng(3 * c + n)
        x = (rng.standard_normal((2, n, 4 * c)) * 3).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        for got, want in zip(gelu_kernel(x, g), reference_gelu(x, g)):
            np.testing.assert_array_equal(got, want)

    @dtypes
    def test_linear_bias_in_matmul(self, dtype):
        rng = np.random.default_rng(6)
        x, w, b = (rng.standard_normal(s).astype(dtype) for s in ((2, 5, 8), (8, 6), (6,)))
        g = rng.standard_normal((2, 5, 6)).astype(dtype)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        y = T.linear(xt, wt, bt)
        y.backward(g)
        x2, g2 = x.reshape(-1, 8), g.reshape(-1, 6)
        np.testing.assert_array_equal(y.data, (x2 @ w + b).reshape(2, 5, 6))
        np.testing.assert_array_equal(xt.grad, (g2 @ w.T).reshape(x.shape))
        np.testing.assert_array_equal(wt.grad, x2.T @ g2)
        np.testing.assert_array_equal(bt.grad, np.einsum("ij->j", g2))

    @dims
    @slots
    @dtypes
    def test_messenger_cut(self, c, n, dtype):
        """``blocks.detach_msg``'s two getitems give numpy's slices as views, and the pieces' gradients side by side."""
        rng = np.random.default_rng(5 * c + n)
        x = rng.standard_normal((2, 2, 3, n, c)).astype(dtype)
        g_patches = rng.standard_normal((2, 2, 3, n - 1, c)).astype(dtype)
        g_msg = rng.standard_normal((2, 2, 3, c)).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        patches, msg = B.detach_msg(W.WindowedTokens(xt))
        for piece, want in ((patches.windows, x[:, :, :, 1:]), (msg, x[:, :, :, 0])):
            np.testing.assert_array_equal(piece.data, want)
            assert np.shares_memory(piece.data, xt.data)
        T.add(T.tsum(T.mul(patches.windows, Tensor(g_patches))), T.tsum(T.mul(msg, Tensor(g_msg)))).backward()
        assert xt.grad.dtype == dtype
        np.testing.assert_array_equal(xt.grad, np.concatenate([g_msg[:, :, :, None], g_patches], axis=3))


def _cut_case(draw):
    shape = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    extent = shape[axis]
    cuts = sorted(draw(st.lists(st.integers(0, extent), max_size=4)))
    bounds = [0, *cuts, extent]
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    used = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    return shape, axis, sizes, used


class TestCut:
    """``getitem`` is the one way to cut a tensor: adjacent slices along an axis, as the messenger cut takes."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(case=st.composite(_cut_case)(), dtype=st.sampled_from([np.float32, np.float64]))
    def test_gradient_is_the_pieces_gradients_scattered(self, case, dtype):
        shape, axis, sizes, used = case
        rng = np.random.default_rng(len(shape) * 7 + sum(sizes))
        data = rng.standard_normal(shape).astype(dtype)
        ax = axis % len(shape)
        starts = np.cumsum([0] + sizes[:-1])
        keys = [(slice(None),) * ax + (slice(lo, lo + n),) for lo, n in zip(starts, sizes)]
        weights = [rng.standard_normal(data[k].shape).astype(dtype) for k in keys]
        a = Tensor(data, requires_grad=True)
        # one extra consumer of ``a``, so each piece's zero buffer is summed with another gradient
        loss = T.tsum(T.mul(a, 0.5))
        want = np.full(shape, 0.5, dtype)
        for key, w, use in zip(keys, weights, used):
            piece = a[key]
            np.testing.assert_array_equal(piece.data, data[key])
            assert piece.data.size == 0 or np.shares_memory(piece.data, data)
            if use:
                loss = T.add(loss, T.tsum(T.mul(piece, Tensor(w))))
                want[key] += w
        loss.backward()
        assert a.grad.dtype == dtype
        np.testing.assert_array_equal(a.grad, want)

    def test_unused_pieces_get_exact_zeros(self):
        a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        first, last = a[:, :1], a[:, 3:]
        T.add(T.tsum(T.mul(first, 2.0)), T.tsum(T.mul(last, 3.0))).backward()
        np.testing.assert_array_equal(a.grad, np.tile([2.0, 0.0, 0.0, 3.0], (3, 1)))
        assert not np.signbit(a.grad).any()

    def test_graph_holds_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            a = Tensor(np.ones((2, 6)), requires_grad=True)
            q, k, v = a[:, :2], a[:, 2:4], a[:, 4:]
            T.tsum(T.mul(q, k)).backward()
            del a, q, k, v
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_grad_pieces_record_nothing(self):
        a = Tensor(np.zeros((2, 6)), requires_grad=True)
        with T.no_grad():
            pieces = [a[:, :3], a[:, 3:]]
        assert all(p._node is None for p in pieces)


def reference_attention(x, w_qkv, b_qkv, bias, heads, queries=None):
    """The composed graph ``blocks.local_msa`` ran before ``T.attention``, for any leading axes.

    With ``queries`` only the first that many slots query, and a ``bias`` of None is no add, as in
    ``T.attention``.
    """
    *lead, n, c = x.shape
    m = queries or n
    d = c // heads
    a = len(lead)
    swap = (*range(a), a + 1, a, a + 2)  # (..., n, heads, d) <-> (..., heads, n, d)
    qkv = T.linear(x, w_qkv, b_qkv)

    def heads_first(part):
        return T.transpose(T.reshape(part, (*lead, n, heads, d)), swap)

    q, k, v = (heads_first(part) for part in reference_qkv_split(qkv, c))
    q = q if m == n else q[(slice(None),) * (a + 1) + (slice(0, m),)]
    scores = T.mul(T.matmul(q, T.transpose(k, (*range(a + 1), a + 2, a + 1))), 1.0 / math.sqrt(d))
    attn = softmax_node(scores if bias is None else T.add(scores, bias))
    ctx = T.matmul(attn, v)
    return T.reshape(T.transpose(ctx, swap), (*lead, m, c)), attn.data


def reference_mlp(x, w1, b1, w2, b2):
    """The composed graph ``blocks._mlp`` ran before ``T.mlp``."""
    return T.linear(gelu_node(T.linear(x, w1, b1)), w2, b2)


@st.composite
def _node_case(draw):
    heads = draw(st.integers(1, 4))
    d = draw(st.integers(2, 16))
    window = draw(st.integers(2, 7))
    with_msg = draw(st.booleans())
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    queries = draw(st.sampled_from([None, 1]))
    biased = draw(st.booleans())
    return heads, d, window, with_msg, lead, dtype, queries, biased


class TestFusedNodes:
    """``attention`` and ``mlp`` give the composed graphs' bits, forward and backward."""

    @staticmethod
    def _leaves(rng, dtype, *shapes):
        return [Tensor((rng.standard_normal(s) * 0.5).astype(dtype), requires_grad=True) for s in shapes]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(case=_node_case())
    @example(case=(2, 16, 4, True, (3,), np.float32, None, True))  # micro stage 2: 2 heads of 16, n = 17
    @example(case=(4, 16, 7, True, (1, 2), np.float64, None, True))  # tiny's window: n = 50
    @example(case=(8, 16, 4, True, (16, 1, 1), np.float32, 1, False))  # micro's last block, messenger rows only
    def test_matches_composed_graph(self, case):
        heads, d, window, with_msg, lead, dtype, queries, biased = case
        c, n, span = heads * d, window * window + with_msg, 2 * window - 1
        rng = np.random.default_rng(heads * 1000 + d * 10 + window)
        shapes = [(*lead, n, c), (c, 3 * c), (3 * c,), (heads, span, span), (heads,)]
        shapes += [(*lead, n, c), (c, 4 * c), (4 * c,), (4 * c, c), (c,)]
        data = [(rng.standard_normal(s) * 0.5).astype(dtype) for s in shapes]
        g_attn = rng.standard_normal((*lead, queries or n, c)).astype(dtype)
        g_mlp = rng.standard_normal((*lead, n, c)).astype(dtype)

        def run(attention, mlp):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in data]
            x, w_qkv, b_qkv, table, msg_k = leaves[:5]
            bias = None
            if biased:  # the first ``queries`` rows of the bias matrix
                bias = B.bias_matrix(table, msg_k if with_msg else None, with_msg)
                bias = bias if queries is None else bias[:, :queries]
            ctx, probs = attention(x, w_qkv, b_qkv, bias, heads, queries)
            ctx.backward(g_attn)
            y = mlp(*leaves[5:])
            y.backward(g_mlp)
            used = leaves[:3] + leaves[5:]
            if biased:
                used += leaves[3:5] if with_msg else leaves[3:4]
            return [ctx.data, probs, y.data] + [t.grad for t in used]

        got, want = run(T.attention, T.mlp), run(reference_attention, reference_mlp)
        for a, b in zip(got, want):
            assert a.dtype == dtype
            np.testing.assert_array_equal(a, b)

    def test_graph_holds_no_reference_cycle(self):
        rng = np.random.default_rng(0)
        gc.collect()
        gc.disable()
        try:
            x, w_qkv, b_qkv, bias = self._leaves(rng, np.float32, (2, 5, 4), (4, 12), (12,), (2, 5, 5))
            ctx, _ = T.attention(x, w_qkv, b_qkv, bias, 2)
            y = T.mlp(ctx, *self._leaves(rng, np.float32, (4, 16), (16,), (16, 4), (4,)))
            T.tsum(T.mul(y, y)).backward()
            del x, w_qkv, b_qkv, bias, ctx, y
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_bias_adds_nothing_and_is_no_parent(self):
        rng = np.random.default_rng(5)
        x, w_qkv, b_qkv = self._leaves(rng, np.float64, (3, 6, 4), (4, 12), (12,))
        zero = Tensor(np.zeros((2, 1, 6)), requires_grad=True)
        for bias in (None, zero):
            ctx, probs = T.attention(x, w_qkv, b_qkv, bias, 2, queries=1)
            assert len(ctx._node.parents) == (3 if bias is None else 4)
            T.tsum(T.mul(ctx, ctx)).backward()
        unbiased, _ = T.attention(x, w_qkv, b_qkv, None, 2, queries=1)
        np.testing.assert_array_equal(unbiased.data, ctx.data)
        assert zero.grad.shape == zero.shape

    def test_probabilities_are_not_written_by_backward(self):
        rng = np.random.default_rng(1)
        x, w_qkv, b_qkv, bias = self._leaves(rng, np.float64, (3, 6, 4), (4, 12), (12,), (2, 6, 6))
        ctx, probs = T.attention(x, w_qkv, b_qkv, bias, 2)
        kept = probs.copy()
        T.tsum(T.mul(ctx, ctx)).backward()
        np.testing.assert_array_equal(probs, kept)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("case", ["no_grad", "constant inputs", "backward"])
    def test_mlp_computes_the_gelu_derivative_only_for_a_backward(self, monkeypatch, case):
        flags = []
        real = T._gelu_

        def record(x, grad):
            flags.append(grad)
            return real(x, grad)

        monkeypatch.setattr(T, "_gelu_", record)
        rng = np.random.default_rng(3)
        leaves = self._leaves(rng, np.float32, (2, 5, 4), (4, 16), (16,), (16, 4), (4,))
        if case == "constant inputs":
            leaves = [Tensor(t.data) for t in leaves]
        if case == "no_grad":
            with T.no_grad():
                y = T.mlp(*leaves)
        else:
            y = T.mlp(*leaves)
        assert flags == [case == "backward"]
        assert y.requires_grad == (case == "backward")

    def test_mlp_independent_of_chunking(self, monkeypatch):
        rng = np.random.default_rng(4)
        data = [(rng.standard_normal(s) * 2).astype(np.float32) for s in ((3, 5, 4), (4, 16), (16,), (16, 4), (4,))]
        g = rng.standard_normal((3, 5, 4)).astype(np.float32)

        def run():
            leaves = [Tensor(a, requires_grad=True) for a in data]
            y = T.mlp(*leaves)
            y.backward(g)
            return [y.data] + [t.grad for t in leaves]

        whole = run()
        monkeypatch.setattr(T, "_ERF_CHUNK", 7)  # 240 hidden values: 34 full chunks and a partial one
        for a, b in zip(run(), whole):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("biased", [True, False])
    def test_counts_the_composed_graphs_macs(self, biased):
        rng = np.random.default_rng(2)
        x, w_qkv, b_qkv, bias, w1, b1, w2, b2 = self._leaves(
            rng, np.float32, (2, 3, 5, 8), (8, 24), (24,), (2, 5, 5), (8, 32), (32,), (32, 8), (8,)
        )
        counts = []
        for attention, mlp in ((T.attention, T.mlp), (reference_attention, reference_mlp)):
            with T.count_macs() as c:
                mlp(attention(x, w_qkv, b_qkv, bias if biased else None, 2)[0], w1, b1, w2, b2)
            counts.append(c.buckets)
        assert counts[0] == counts[1]


def _stage_weight_shapes():
    """(rows, in, out) of each block weight's gradient GEMM: micro stages at batch 16, tiny at batch 1."""
    shapes = set()
    for cfg, batch in ((M.micro_config(), 16), (M.tiny_config(), 1)):
        for stage, (_, (gh, gw)) in zip(cfg.stages, M.stage_geometry(cfg)):
            rows, c = batch * gh * gw * (cfg.window_size**2 + 1), stage.dim
            shapes |= {(rows, c, 3 * c), (rows, c, c), (rows, c, 4 * c), (rows, 4 * c, c)}
    return sorted(shapes)


class TestWeightGrad:
    @pytest.mark.parametrize("rows,n_in,n_out", _stage_weight_shapes())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_long_side_first_matches_plain_product(self, rows, n_in, n_out, dtype):
        rng = np.random.default_rng(rows + n_in + n_out)
        x2 = rng.standard_normal((rows, n_in)).astype(dtype)
        g2 = rng.standard_normal((rows, n_out)).astype(dtype)
        np.testing.assert_array_equal(T._weight_grad(x2, g2), x2.T @ g2)


class TestConstantOperands:
    def test_add_and_mul_skip_constant_operand_gradients(self, monkeypatch):
        """A constant operand's gradient is never formed, so never reduced to its shape."""
        shapes = []
        real = T._unbroadcast

        def record(g, shape):
            shapes.append(shape)
            return real(g, shape)

        monkeypatch.setattr(T, "_unbroadcast", record)
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        scale = Tensor(np.full((1, 3), 2.0))
        shift = Tensor(np.ones((2, 1, 1)))
        T.tsum(T.add(shift, T.mul(scale, x))).backward()
        assert shapes and set(shapes) == {(4, 3)}
        np.testing.assert_array_equal(x.grad, np.full((4, 3), 4.0))


# every width from 1 to 70, then the model widths (channels, 3C and 4C MLP widths) up to 1024
_REDUCTION_WIDTHS = list(range(1, 71)) + [96, 128, 192, 256, 384, 512, 1024]
_ROWS = 37  # odd, so a blocked kernel leaves tail rows; the offsets below include them
_OFFSETS = (0, 1, 2, 3, _ROWS // 2, _ROWS - 2, _ROWS - 1)


@st.composite
def _reduction_case(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rows, c = draw(st.integers(1, 40)), draw(st.sampled_from(_REDUCTION_WIDTHS))
    return dtype, rows, c, draw(st.integers(-20, 20)), draw(st.booleans()), draw(st.integers(0, 2**16))


class TestReductions:
    """``_row_sum`` and ``_col_sum``: a row's (column's) bits do not depend on its position.

    This is what keeps batch order and duplicated samples bit-identical in
    the model. A GEMV against a ones vector breaks it: OpenBLAS rounds a
    matrix's tail rows differently from the same rows elsewhere.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_sum_bits_independent_of_position(self, dtype):
        rng = np.random.default_rng(0)
        for c in _REDUCTION_WIDTHS:
            row, other = rng.standard_normal((2, 1, c)).astype(dtype)
            want, want_dot = T._row_sum(row), T._row_sum(row, other)
            for offset in _OFFSETS:
                x, y = rng.standard_normal((2, _ROWS, c)).astype(dtype)
                x[offset], y[offset] = row[0], other[0]
                assert T._row_sum(x)[offset].tobytes() == want.tobytes(), (c, offset)
                assert T._row_sum(x, y)[offset].tobytes() == want_dot.tobytes(), (c, offset)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_col_sum_bits_independent_of_column(self, dtype):
        """Within one width; a lone column (c = 1) is summed by the row kernel instead."""
        rng = np.random.default_rng(1)
        for c in _REDUCTION_WIDTHS[1:]:
            col, other = rng.standard_normal((2, _ROWS)).astype(dtype)
            sums = set()
            for offset in (0, 1, c // 2, c - 2, c - 1):
                x, y = rng.standard_normal((2, _ROWS, c)).astype(dtype)
                x[:, offset], y[:, offset] = col, other
                sums.add((T._col_sum(x)[offset].tobytes(), T._col_sum(x, y)[offset].tobytes()))
            assert len(sums) == 1, c

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_shaped_input_matches_its_flattening(self, dtype):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, 2, 4, 4, 17, 16)).astype(dtype)  # (B, gh, gw, n, C) windows
        flat_x, flat_y = x.reshape(-1, 16), y.reshape(-1, 16)
        np.testing.assert_array_equal(T._row_sum(x), T._row_sum(flat_x).reshape(2, 4, 4, 17, 1))
        np.testing.assert_array_equal(T._row_sum(x, y), T._row_sum(flat_x, flat_y).reshape(2, 4, 4, 17, 1))
        np.testing.assert_array_equal(T._unbroadcast(x, (17, 16)), T._col_sum(x.reshape(-1, 17 * 16)).reshape(17, 16))

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(case=_reduction_case())
    def test_within_summation_bound_of_fsum(self, case):
        """Within ``n u sum|t|`` of the exact sum (u = 2**-24 or 2**-53); a dot gets one more ``u``."""
        dtype, rows, c, exponent, dot, seed = case
        rng = np.random.default_rng(seed)
        x, y = (rng.standard_normal((2, rows, c)) * 2.0**exponent).astype(dtype)
        u = 2.0 ** -(np.finfo(dtype).nmant + 1)
        terms = (x.astype(np.float64) * y) if dot else x.astype(np.float64)  # exact for float32
        got_rows, got_cols = (T._row_sum(x, y), T._col_sum(x, y)) if dot else (T._row_sum(x), T._col_sum(x))
        for got, along in ((got_rows[:, 0], terms), (got_cols, terms.T)):
            for value, t in zip(got, along):
                exact = math.fsum(t.tolist())
                assert value.dtype == dtype
                assert abs(float(value) - exact) <= (t.size + dot) * u * float(np.abs(t).sum())


class TestGelu:
    """The mlp node's gelu kernel and the cdf fit it takes for float32."""

    def test_zero(self):
        assert gelu_kernel(np.zeros(1, dtype=np.float32))[0] == 0.0

    def test_positive_asymptote(self):
        assert abs(gelu_kernel(np.array([10.0]))[0] - 10.0) < 1e-6

    def test_negative_asymptote(self):
        assert abs(gelu_kernel(np.array([-10.0]))[0]) < 1e-6

    def test_float32_matches_float64_form_on_dense_grid(self):
        x = np.linspace(-10.0, 10.0, 400_001, dtype=np.float32)
        x64 = x.astype(np.float64)
        exact = 0.5 * x64 * (1.0 + scipy_erf(x64 / math.sqrt(2.0)))
        got = gelu_kernel(x)
        assert got.dtype == np.float32
        assert (np.abs(got - exact) / np.maximum(1.0, np.abs(x64))).max() < 2e-6

    def test_phi32_within_4e7_of_exact_cdf(self):
        x = np.linspace(-10.0, 10.0, 400_001, dtype=np.float32)
        exact = 0.5 * (1.0 + scipy_erf(x.astype(np.float64) / math.sqrt(2.0)))
        got = T.phi32(x)
        assert got.dtype == np.float32
        assert np.abs(got - exact).max() <= 4e-7

    def test_phi32_independent_of_chunking(self, monkeypatch):
        x = np.random.default_rng(13).standard_normal(5000).astype(np.float32) * 4
        whole = T.phi32(x)
        monkeypatch.setattr(T, "_ERF_CHUNK", 7)
        np.testing.assert_array_equal(T.phi32(x), whole)
        np.testing.assert_array_equal(T.phi32(x[::-1])[::-1], whole)

    def test_phi32_saturates_where_x_squared_overflows(self):
        x = np.array([np.inf, -np.inf, 1e30, -1e30], np.float32)
        with np.errstate(over="ignore", invalid="raise"):  # x^2 overflows; no inf - inf or 0 * inf
            np.testing.assert_array_equal(T.phi32(x), [1.0, 0.0, 1.0, 0.0])

    def test_phi32_propagates_nan(self):
        assert np.isnan(T.phi32(np.array([np.nan], np.float32))).all()

    def test_phi32_non_decreasing(self):
        assert (np.diff(T.phi32(np.linspace(-12.0, 12.0, 600_001, dtype=np.float32))) >= 0).all()

    def test_phi32_symmetric(self):
        x = np.linspace(-12.0, 12.0, 600_001, dtype=np.float32)
        assert np.abs(T.phi32(x).astype(np.float64) + T.phi32(-x) - 1.0).max() <= 4e-7

    def test_fit_has_no_real_root_at_nonnegative_squares(self):
        # with a positive leading coefficient, H(s) > 0 for every s >= 0
        assert T._PHI_H[0] > 0
        roots = np.roots(T._PHI_H.astype(np.float64))
        assert not [r for r in roots if abs(r.imag) < 1e-9 and r.real >= 0]

    def test_float32_derivative_from_shared_square_matches_two_multiplies(self):
        rng = np.random.default_rng(15)
        x = np.concatenate([rng.standard_normal(5000) * 4, [0.0, -0.0, 1e-25, -1e-25, 2e19, -2e19, 40.0, -40.0]])
        x = x.astype(np.float32)
        with np.errstate(over="ignore"):
            cdf = T.phi32(x)
            t = x * np.float32(-0.5)  # (-0.5 x) x: two multiplies, no shared x^2
            t *= x
            np.exp(t, out=t)
            t *= _INV_SQRT_2PI
            t *= x
            t += cdf
            np.testing.assert_array_equal(T._gelu_(x.copy(), True), t)

    @pytest.mark.parametrize("grad", [False, True], ids=["forward", "derivative"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernel_independent_of_chunking(self, monkeypatch, dtype, grad):
        x = (np.random.default_rng(14).standard_normal(5000) * 4).astype(dtype)
        g = np.ones_like(x) if grad else None
        whole = gelu_kernel(x, g)
        monkeypatch.setattr(T, "_ERF_CHUNK", 7)  # 714 full chunks and a partial one
        np.testing.assert_array_equal(gelu_kernel(x, g), whole)

    def test_float32_backward_matches_float64(self):
        x = np.linspace(-6.0, 6.0, 2001)
        grads = []
        for dtype in (np.float32, np.float64):
            _, grad = gelu_kernel(x.astype(dtype), np.ones(x.shape, dtype))
            grads.append(grad.astype(np.float64))
        assert np.abs(grads[0] - grads[1]).max() < 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infinite_limits_and_nan(self, dtype):
        """gelu(+inf) = inf, gelu(-inf) = 0, derivatives 1 and 0; NaN stays NaN; finite entries keep their bits."""
        x = np.array([np.inf, -np.inf, np.nan, 1.5, -2.0, 0.0], dtype)
        with np.errstate(over="ignore"):  # x^2 overflows at +-inf
            y, y_forward_only, finite = x.copy(), x.copy(), x[3:].copy()
            d, d_finite = T._gelu_(y, True), T._gelu_(finite, True)
            T._gelu_(y_forward_only, False)
        np.testing.assert_array_equal(y[:3], np.array([np.inf, 0.0, np.nan], dtype))
        np.testing.assert_array_equal(d[:3], np.array([1.0, 0.0, np.nan], dtype))
        np.testing.assert_array_equal(y[3:], finite)
        np.testing.assert_array_equal(d[3:], d_finite)
        np.testing.assert_array_equal(y_forward_only, y)

    def test_float64_within_1e15_of_scipy(self):
        x = np.linspace(-10.0, 10.0, 200_001)
        exact = 0.5 * x * (1.0 + scipy_erf(x / math.sqrt(2.0)))
        got = gelu_kernel(x)
        assert (np.abs(got - exact) / np.maximum(1.0, np.abs(x))).max() <= 1e-15


class TestGradCheck:
    def test_quadratic(self):
        p = t64([1.0, -2.0, 0.5])
        err = T.grad_check(lambda: _sq(p), [p])
        assert err < 1e-8

    def test_softmax_cross_entropy_matches_closed_form(self):
        # Independent oracle: d/dz of -log softmax(z)[k] is softmax(z) - onehot(k).
        logits = t64([0.3, -1.1, 2.0])
        target = 1

        def loss():
            return T.mul(T.log_softmax(logits, axis=0)[target], -1.0)

        logits.zero_grad()
        loss().backward()
        z = logits.data
        probs = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        expected = probs.copy()
        expected[target] -= 1.0
        np.testing.assert_allclose(logits.grad, expected, atol=1e-12)
        assert T.grad_check(loss, [logits]) < 1e-7

    def test_non_scalar_objective_rejected(self):
        p = t64([1.0, 2.0])
        with pytest.raises(ContractError):
            T.grad_check(lambda: T.mul(p, 2.0), [p])

    def test_requires_float64(self):
        p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ContractError):
            T.grad_check(lambda: T.tsum(p), [p])

    def test_op_cases_own_their_inputs(self, monkeypatch):
        """Each op case run alone gives its error in the full suite bit for bit, so its inputs depend on
        its name alone, and adding or deleting a case moves no other case's error."""
        cases, errors = dict(A.OP_CASES), A.single_op_grad_checks()
        for name, case in cases.items():
            monkeypatch.setattr(A, "OP_CASES", {name: case})
            assert A.single_op_grad_checks() == {name: errors[name]}, name


def _sq(y):
    return T.tsum(T.mul(y, y))


def _fd_check(make_loss, params, tol=1e-6):
    err = T.grad_check(make_loss, params)
    assert err < tol, f"finite-difference mismatch: {err}"


class TestPerOpGradients:
    """Central finite differences at 64-bit on small random inputs."""

    rng = np.random.default_rng(42)

    def rand(self, *shape):
        return t64(self.rng.standard_normal(shape))

    def test_add_broadcast(self):
        a, b = self.rand(3, 4), self.rand(4)
        _fd_check(lambda: T.tsum(T.mul(T.add(a, b), T.add(a, b))), [a, b])

    def test_mul(self):
        a, b = self.rand(5), self.rand(5)
        _fd_check(lambda: T.tsum(T.mul(a, b)), [a, b])

    def test_mean_axis(self):
        a = self.rand(2, 3)
        _fd_check(lambda: _sq(T.tmean(a, axis=1)), [a])

    def test_reshape_transpose_getitem(self):
        a = self.rand(2, 3)
        _fd_check(lambda: _sq(T.reshape(a, (3, 2))), [a])
        _fd_check(lambda: _sq(T.transpose(a, (1, 0))), [a])
        _fd_check(lambda: _sq(a[1:, :2]), [a])

    def test_getitem_with_repeated_index(self):
        """Each repeat of an index-array entry adds its own gradient."""
        a = t64(np.arange(4.0))
        T.tsum(T.getitem(a, np.array([0, 0, 2]))).backward()
        np.testing.assert_array_equal(a.grad, [2.0, 0.0, 1.0, 0.0])
        b = t64(np.random.default_rng(3).standard_normal((3, 4)))
        _fd_check(lambda: _sq(b[:, [0, 3, 0]]), [b])
        c = self.rand(6)
        _fd_check(lambda: _sq(T.getitem(c, np.array([0, 2, 2, 5, 1]))), [c])

    def test_concat_pad(self):
        a, b = self.rand(2, 2), self.rand(1, 2)
        _fd_check(lambda: _sq(T.concat([a, b], axis=0)), [a, b])
        _fd_check(lambda: _sq(T.pad(a, [(1, 0), (0, 2)])), [a])

    def test_pad_matches_np_pad_and_rejects_bad_pairs(self):
        a = self.rand(2, 3, 1)
        pads = [(1, 0), (0, 2), (3, 1)]
        assert T.pad(a, pads).data.tobytes() == np.pad(a.data, pads).tobytes()
        for bad in ([(1, 0), (0, 2)], [(1, 0), (0, -1), (0, 0)]):
            with pytest.raises(ShapeError, match="pairs of non-negative widths"):
                T.pad(a, bad)

    def test_matmul(self):
        a, b = self.rand(2, 3), self.rand(3, 2)
        _fd_check(lambda: _sq(T.matmul(a, b)), [a, b])

    def test_matmul_batched_against_2d_weight(self):
        a, b = self.rand(2, 2, 3), self.rand(3, 2)
        _fd_check(lambda: _sq(T.matmul(a, b)), [a, b])

    def test_linear(self):
        x, w, b = self.rand(2, 2, 3), self.rand(3, 4), self.rand(4)
        _fd_check(lambda: _sq(T.linear(x, w, b)), [x, w, b])

    def test_matmul_with_broadcast_bias(self):
        a, b, bias = self.rand(2, 2, 3), self.rand(3, 4), self.rand(2, 1, 4)
        _fd_check(lambda: _sq(T.matmul(a, b, bias)), [a, b, bias])

    def test_softmax(self):
        """The reference softmax node; ``TestKernelsMatchReferences`` ties it to the kernels bit for bit."""
        a = self.rand(2, 4)
        _fd_check(lambda: _sq(softmax_node(a)), [a])

    def test_log_softmax(self):
        a = self.rand(2, 4)
        _fd_check(lambda: _sq(T.log_softmax(a, axis=1)), [a])

    def test_layer_norm(self):
        x, g, b = self.rand(2, 3, 4), self.rand(4), self.rand(4)
        _fd_check(lambda: _sq(T.layer_norm(x, g, b)), [x, g, b])

    def test_gelu(self):
        """The reference gelu node, tied to the kernel like the softmax above."""
        a = self.rand(7)
        _fd_check(lambda: _sq(gelu_node(a)), [a])

    def test_conv2d(self):
        x = self.rand(2, 4, 4, 2)
        w = self.rand(3, 3, 2, 3)
        b = self.rand(3)
        _fd_check(lambda: _sq(T.conv2d(x, w, b, stride=2, padding=1)), [x, w, b])


class TestStructuralInvariants:
    def test_reshape_round_trip_is_exact(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((3, 4, 5)))
        y = T.reshape(T.reshape(x, (5, 12)), (3, 4, 5))
        np.testing.assert_array_equal(y.data, x.data)

    def test_transpose_round_trip_is_exact(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 3, 4)))
        y = T.transpose(T.transpose(x, (2, 0, 1)), (1, 2, 0))
        np.testing.assert_array_equal(y.data, x.data)

    def test_value_multiset_preserved(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((4, 6)))
        y = T.transpose(T.reshape(x, (2, 12)), (1, 0))
        np.testing.assert_array_equal(np.sort(y.data.ravel()), np.sort(x.data.ravel()))

    def test_forward_determinism(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 8, 8, 3)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)

        def run():
            y = T.conv2d(Tensor(x), Tensor(w), None, stride=2, padding=1)
            return T.log_softmax(T.reshape(y, (2, -1)), axis=1).data

        np.testing.assert_array_equal(run(), run())


class TestAutogradMechanics:
    def test_gradient_accumulates_across_uses(self):
        p = t64([2.0])
        y = T.add(T.mul(p, 3.0), T.mul(p, 4.0))
        y.backward(np.array([1.0]))
        np.testing.assert_allclose(p.grad, [7.0])

    def test_no_grad_suppresses_graph(self):
        p = t64([2.0])
        with T.no_grad():
            y = T.mul(p, 3.0)
        assert not y.requires_grad

    def test_backward_requires_scalar_without_seed(self):
        p = t64([1.0, 2.0])
        with pytest.raises(ContractError):
            T.mul(p, 2.0).backward()

    def test_mixed_dtype_rejected(self):
        a = Tensor(np.ones(2, dtype=np.float32))
        b = Tensor(np.ones(2, dtype=np.float64))
        with pytest.raises(TypeError):
            T.add(a, b)


class TestBackwardUsesUpTheGraph:
    @pytest.fixture
    def micro_step(self):
        """One micro train-mode step at batch 4, after ``loss.backward()``.

        Also returns a weak reference to a graph node 8 ops below the loss,
        taken while the node was alive.
        """
        model = M.build_model(M.micro_config(), seed=0)
        rng = np.random.default_rng(0)
        images = Tensor(rng.standard_normal((4, 128, 128, 3)).astype(np.float32))
        loss = cross_entropy(M.forward(model, images, mode="train", rng=rng), np.arange(4), 0.1)
        mid = loss._node
        for _ in range(8):
            mid = next(p for p in mid.parents if p.parents)
        mid_ref = weakref.ref(mid)
        del mid
        assert mid_ref() is not None
        loss.backward()
        return model, loss, mid_ref

    def test_interior_nodes_are_freed_while_the_loss_lives(self, micro_step):
        _, loss, mid_ref = micro_step
        assert mid_ref() is None  # freed by reference counting alone: the graph holds no cycle
        assert loss._node.parents == ()

    def test_only_leaves_keep_gradients(self, micro_step):
        model, loss, _ = micro_step
        trained = [p for p in model.parameters() if p.requires_grad]
        assert trained and all(p.grad is not None and p.grad.shape == p.data.shape for p in trained)
        assert loss.grad is None

    def test_second_backward_raises(self, micro_step):
        _, loss, _ = micro_step
        with pytest.raises(ContractError):
            loss.backward()

    def test_shared_subgraph_used_up_by_the_first_backward(self):
        p = t64([1.0, 2.0])
        h = T.mul(p, 3.0)
        T.tsum(h).backward()
        with pytest.raises(ContractError):
            T.tsum(T.mul(h, 2.0)).backward()

    def test_tensor_reads_and_rewraps_its_node(self):
        """``_backward`` reads the node's closure, and a tracer may replace it."""
        a, b = t64([1.0, 2.0]), t64([3.0, 4.0])
        y = T.mul(a, b)
        assert y._node.parents == (a._node, b._node) and y._backward is y._node.backward
        calls = []
        real = y._backward
        y._backward = lambda g: (calls.append(g.shape), real(g))
        T.tsum(y).backward()
        assert calls == [(2,)]
        np.testing.assert_array_equal(a.grad, [3.0, 4.0])
        assert Tensor(np.zeros(2))._node is None and Tensor(np.zeros(2))._backward is None

    def test_leaf_root_keeps_its_seed(self):
        p = t64([1.0, 2.0])
        p.backward(np.array([3.0, 4.0]))
        p.backward(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(p.grad, [4.0, 5.0])


class TestOpConstructor:
    @pytest.mark.parametrize("mode", ["shuffle", "average", "shift"])
    def test_every_graph_node_comes_from_the_op_constructor(self, monkeypatch, mode):
        """Every non-leaf node a micro train step reaches was made by ``_op``.

        136 px pads every stage, so ``pad`` and the crop's ``getitem`` run beside the messenger cut's.
        """
        made = []  # held, so no id is reused while the graph is walked
        op = T._op

        def recording_op(*args, **work):
            out = op(*args, **work)
            made.append(out._node)
            return out

        monkeypatch.setattr(T, "_op", recording_op)
        model = M.build_model(M.micro_config(manipulation=mode), seed=0)
        images = Tensor(np.random.default_rng(0).standard_normal((4, 136, 136, 3)).astype(np.float32))
        loss = cross_entropy(M.forward(model, images), np.arange(4), 0.1)
        allowed = {id(n) for n in made if n is not None}
        seen, stack, ops = set(), [loss._node], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.backward is not None:
                ops.add(node.backward.__qualname__.split(".")[0])
                assert id(node) in allowed, node.backward.__qualname__
            stack.extend(node.parents)
        assert {"getitem", "pad"} <= ops
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())


class TestMacCounter:
    def test_matmul_macs(self):
        a = Tensor(np.zeros((4, 3, 5), dtype=np.float32))
        b = Tensor(np.zeros((4, 5, 2), dtype=np.float32))
        with T.count_macs() as c:
            T.matmul(a, b)
        assert c["matmul"] == 4 * 3 * 5 * 2

    def test_conv_macs(self):
        x = Tensor(np.zeros((1, 8, 8, 3), dtype=np.float32))
        w = Tensor(np.zeros((3, 3, 3, 6), dtype=np.float32))
        with T.count_macs() as c:
            T.conv2d(x, w, None, stride=2, padding=1)
        assert c["conv"] == 4 * 4 * 9 * 3 * 6

    def test_an_op_that_raises_books_no_work(self):
        """The product runs before the bias is found not to broadcast; its 24 MACs are not booked."""
        a = Tensor(np.zeros((2, 3), dtype=np.float32))
        b = Tensor(np.zeros((3, 4), dtype=np.float32))
        with T.count_macs() as c, pytest.raises(ShapeError, match="bias"):
            T.matmul(a, b, Tensor(np.zeros((5, 1, 4), dtype=np.float32)))
        assert c.buckets == {"matmul": 0, "conv": 0, "other": 0}

    def test_nested_blocks_each_count_all_their_work(self):
        """An outer block counts the inner block's MACs too; partitions go to the same table."""
        a = Tensor(np.zeros((3, 5), dtype=np.float32))
        b = Tensor(np.zeros((5, 2), dtype=np.float32))
        model = M.build_model(M.micro_config(), seed=0)
        images = Tensor(np.zeros((1, 128, 128, 3), dtype=np.float32))
        with T.count_macs() as outer:
            T.matmul(a, b)
            with T.count_macs() as inner:
                T.matmul(a, b)
            calls = W.partition_call_count()
            with T.no_grad(), T.count_macs() as fwd:
                M.forward(model, images)
            partitions = W.partition_call_count() - calls
        assert inner["matmul"] == 30 and fwd["conv"] > 0 and partitions == 4
        expected = {k: 2 * inner[k] + fwd[k] for k in ("matmul", "conv", "other")}
        assert outer.buckets == expected
