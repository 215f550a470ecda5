"""Dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap a numpy array (float32 for training, float64 for gradient
checking); one that requires grad also has a graph node (``_Node``): its
gradient, backward closure and parents' nodes. A closure holds nodes plus the
arrays and shapes its backward reads, never a tensor, so an intermediate's
array dies with the forward's last reference to it. ``Tensor.backward`` runs
the graph once in reverse topological order, summing gradients out of place,
and uses it up: once a node's closure has run, the node drops its gradient,
closure and parents. Only leaves keep ``.grad``, and a second backward
through a used-up graph raises ``ContractError``.

One in-place rule: an op may write in place only into an array that it
allocated itself and has not yet returned. A node may overwrite a buffer it
allocated and has not returned (``mlp``'s pre-activation becomes its
activation), never one it returned (``attention``'s probabilities).
Backward closures hand their gradients to ``_accum``, which sums them out
of place, so no op writes into a node's gradient.

The ops are the ones the model runs. Softmax and gelu are not graph ops:
they are in-place array kernels (``_softmax_``, ``_gelu_``) inside the
fused ``attention`` and ``mlp`` nodes.

All kernels are deterministic: identical inputs produce bit-identical
outputs. The hot reductions are einsum sums (``_row_sum``, ``_col_sum``),
which give a row the same bits wherever it sits in the array; a GEMV
against ones does not.

Every op returns through one constructor, ``_op``, the only maker of graph
nodes besides a leaf's ``Tensor(requires_grad=True)``. As the op returns,
``_op`` adds its work to one private table, ``_counts`` (MACs by kernel
family, the fused nodes' included), so an op that raises books nothing; and
when grad reaches a parent, it keeps the op's backward closure, inside which
any work only a backward needs is done. ``count_macs`` reads the table's
growth over a block and ``windows.partition_call_count`` the partitions
``windows.partition_windows`` adds, so nested readers each see all the work
inside them.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
LAYER_NORM_EPS = 1e-5  # added to every layer norm's variance
GRAD_CHECK_STEP = 1e-5  # the central-difference step of ``grad_check``

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (eval-mode forwards)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


# Work done since import, by kind: "matmul" and "conv" count one unit per
# multiply-add pair; "other" tallies output element counts of arithmetic the
# closed-form cost model does not cover (elementwise add/mul, layer norm, and
# the bias adds, softmax and gelu inside the ``attention`` and ``mlp`` nodes);
# "partitions" counts window partitions. Pure data movement is free.
_counts: Counter = Counter()


class count_macs:
    """``with count_macs() as c:`` counts the MACs of all ops run in the block, nested blocks' too.

    After the block, ``c.buckets`` and ``c["matmul"|"conv"|"other"]`` hold
    how much each kind grew in the work table between entry and exit.
    """

    def __enter__(self) -> count_macs:
        self._start = _counts.copy()
        return self

    def __exit__(self, *exc):
        self.buckets = {k: _counts[k] - self._start[k] for k in ("matmul", "conv", "other")}
        return False

    def __getitem__(self, bucket: str) -> int:
        return self.buckets[bucket]


def _as_array(data) -> np.ndarray:
    if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
        return data
    return np.asarray(data, dtype=np.float32)


class _Node:
    """A tensor's gradient so far, backward closure and parents' nodes; a leaf's has no closure."""

    __slots__ = ("grad", "backward", "parents", "__weakref__")

    def __init__(self, parents: tuple[_Node, ...] = (), backward: Optional[Callable[[np.ndarray], None]] = None):
        self.grad: Optional[np.ndarray] = None
        self.backward = backward
        self.parents = parents


class Tensor:
    """N-dimensional array with optional gradient tracking.

    Invariants: ``grad`` (when present) has the same shape and dtype as
    ``data``; reshape/transpose style ops never change the multiset of
    stored values.
    """

    __slots__ = ("data", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self._node: Optional[_Node] = _Node() if requires_grad else None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> Optional[np.ndarray]:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g: Optional[np.ndarray]) -> None:
        self._node.grad = g

    @property
    def _backward(self) -> Optional[Callable[[np.ndarray], None]]:
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn: Callable[[np.ndarray], None]) -> None:
        self._node.backward = fn

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self._node is not None:
            self._node.grad = None

    # -- autodiff -----------------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Accumulate gradients of ``self`` into every reachable leaf, using up the graph."""
        if not self.requires_grad:
            raise ContractError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ContractError(
                    f"backward() without a seed gradient requires a scalar, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ShapeError(f"seed gradient shape {grad.shape} != tensor shape {self.shape}")

        _accum(self._node, grad)
        # Iterative topological sort; graphs from deep models exceed the
        # default recursion limit.
        order: list[_Node] = []
        visited: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        # Popping keeps the list from holding the nodes already run, so each
        # one's gradient, closure and saved arrays are freed as the walk moves on.
        while order:
            node = order.pop()
            if node.backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node.backward(node.grad)
            node.grad, node.backward, node.parents = None, _consumed, ()

    def __getitem__(self, key):
        return getitem(self, key)


# -- graph plumbing ----------------------------------------------------------


def _consumed(g: np.ndarray) -> None:
    raise ContractError("backward() through a graph that an earlier backward() used up")


def _op(data: np.ndarray, parents: tuple[Tensor, ...], backward: Callable[[np.ndarray], None], **work: int) -> Tensor:
    """An op's output: books its ``work`` by kind and keeps ``backward`` if grad reaches a (non-None) parent."""
    for kind, n in work.items():
        _counts[kind] += n
    out = Tensor.__new__(Tensor)
    out.data = data
    nodes = tuple(p._node for p in parents if p is not None and p._node is not None) if _grad_enabled else ()
    out._node = _Node(nodes, backward) if nodes else None
    return out


def _accum(node: Optional[_Node], g: np.ndarray) -> None:
    if node is not None:
        node.grad = g if node.grad is None else node.grad + g


def _row_sum(x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
    """Last-axis sum of ``x``, or of ``x * y`` without forming it, with keepdims."""
    x2 = x.reshape(-1, x.shape[-1])
    s = np.einsum("ij->i", x2) if y is None else np.einsum("ij,ij->i", x2, y.reshape(x2.shape))
    return s.reshape(*x.shape[:-1], 1)


def _col_sum(x2: np.ndarray, y2: Optional[np.ndarray] = None) -> np.ndarray:
    """Row-axis sum of a 2-d ``x2``, or of ``x2 * y2`` without forming it."""
    return np.einsum("ij->j", x2) if y2 is None else np.einsum("ij,ij->j", x2, y2)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    if lead := g.ndim - len(shape):
        g = _col_sum(g.reshape(math.prod(g.shape[:lead]), math.prod(g.shape[lead:]))).reshape(g.shape[lead:])
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        if x.data.dtype != like.data.dtype:
            raise TypeError(f"mixed dtypes {x.data.dtype} and {like.data.dtype}; cast explicitly")
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _check_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} out of range for {ndim}-dimensional tensor")
    return axis % ndim


# -- elementwise and reduction ops --------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    y = a.data + b.data
    na, nb, a_shape, b_shape = a._node, b._node, a.data.shape, b.data.shape
    def backward(g):
        if na is not None:
            _accum(na, _unbroadcast(g, a_shape))
        if nb is not None:
            _accum(nb, _unbroadcast(g, b_shape))
    return _op(y, (a, b), backward, other=y.size)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    y = a.data * b.data
    na, nb, a_shape, b_shape = a._node, b._node, a.data.shape, b.data.shape
    ad, bd = (None if nb is None else a.data), (None if na is None else b.data)  # read by the other's gradient
    def backward(g):
        if na is not None:
            _accum(na, _unbroadcast(g * bd, a_shape))
        if nb is not None:
            _accum(nb, _unbroadcast(g * ad, b_shape))
    return _op(y, (a, b), backward, other=y.size)


def tsum(a: Tensor, axis=None) -> Tensor:
    na, a_shape = a._node, a.data.shape
    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(na, np.broadcast_to(g, a_shape))
    return _op(a.data.sum(axis=axis), (a,), backward)


def tmean(a: Tensor, axis=None) -> Tensor:
    n = a.data.size if axis is None else np.prod([a.data.shape[ax] for ax in np.atleast_1d(axis)])
    return mul(tsum(a, axis), 1.0 / float(n))


# -- structural ops ------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    na, src_shape = a._node, a.data.shape

    def backward(g):
        _accum(na, g.reshape(src_shape))

    return _op(a.data.reshape(shape), (a,), backward)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"axes {axes} are not a permutation of 0..{a.data.ndim - 1}")
    na = a._node

    def backward(g):
        _accum(na, g.transpose(np.argsort(axes)))  # the inverse is worked out only if a backward runs

    return _op(np.ascontiguousarray(a.data.transpose(axes)), (a,), backward)


def getitem(a: Tensor, key) -> Tensor:
    picked = np.asarray(a.data[key])  # a 0-d array where one element is picked
    na, src_shape = a._node, a.data.shape

    def backward(g):
        buf = np.zeros(src_shape, dtype=g.dtype)
        # An index array may repeat an entry; np.add.at sums the repeats,
        # where assignment would keep only one of them.
        parts = key if isinstance(key, tuple) else (key,)
        if any(isinstance(k, (np.ndarray, list)) for k in parts):
            np.add.at(buf, key, g)
        else:
            buf[key] = g
        _accum(na, buf)

    return _op(picked, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    axis = _check_axis(axis, tensors[0].data.ndim)
    nodes = [t._node for t in tensors]
    extents = [t.data.shape[axis] for t in tensors]

    def backward(g):
        start = 0
        for node, extent in zip(nodes, extents):
            _accum(node, g[(slice(None),) * axis + (slice(start, start + extent),)])
            start += extent

    return _op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def pad(a: Tensor, pads: Sequence[tuple[int, int]]) -> Tensor:
    """Zero-pad each axis by (before, after)."""
    pads = tuple((int(lo), int(hi)) for lo, hi in pads)
    if len(pads) != a.data.ndim or any(min(p) < 0 for p in pads):
        raise ShapeError(f"pads {pads} are not {a.data.ndim} pairs of non-negative widths")
    window = tuple(slice(lo, lo + n) for (lo, _), n in zip(pads, a.data.shape))
    data = np.zeros([lo + n + hi for (lo, hi), n in zip(pads, a.data.shape)], a.data.dtype)
    data[window] = a.data  # np.pad loops over the axes in Python, over 10x slower on a small 8-d map
    na = a._node

    def backward(g):
        _accum(na, g[window])

    return _op(data, (a,), backward)


def broadcast_mean(a: Tensor, axis: int) -> Tensor:
    """Replace every entry along ``axis`` by the mean over that axis."""
    axis = _check_axis(axis, a.data.ndim)
    na = a._node
    def backward(g):
        _accum(na, np.broadcast_to(g.mean(axis=axis, keepdims=True), g.shape).copy())
    return _op(np.broadcast_to(a.data.mean(axis=axis, keepdims=True), a.data.shape).copy(), (a,), backward)


# -- linear algebra -------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Batched matrix product with numpy broadcasting over leading axes.

    ``bias`` is added in place into the product; it must broadcast to the
    product's shape without enlarging it.
    """
    b = _coerce(b, a)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul requires 2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"inner extents differ: {a.data.shape} @ {b.data.shape}")
    try:
        y = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"batch extents incompatible: {a.data.shape} @ {b.data.shape}") from exc
    macs = int(np.prod(y.shape[:-2], dtype=np.int64)) * a.data.shape[-2] * a.data.shape[-1] * b.data.shape[-1]
    nbias, bias_shape = None, None
    if bias is not None:
        bias = _coerce(bias, a)
        try:
            y += bias.data
        except ValueError as exc:
            raise ShapeError(f"bias {bias.data.shape} does not broadcast to product {y.shape}") from exc
        nbias, bias_shape = bias._node, bias.data.shape
    na, nb, ad, bd = a._node, b._node, a.data, b.data
    def backward(g):
        if nbias is not None:
            _accum(nbias, _unbroadcast(g, bias_shape))
        if na is not None:
            _accum(na, _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), ad.shape))
        if nb is not None:
            _accum(nb, _unbroadcast(_weight_grad(ad, g), bd.shape))
    return _op(y, (a, b, bias), backward, matmul=macs, other=0 if bias is None else y.size)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` over the last axis, flattening leading axes first.

    Flattening keeps the backward pass a single GEMM per operand instead of
    a large batched product.
    """
    lead = x.data.shape[:-1]
    y = matmul(reshape(x, (-1, x.data.shape[-1])), weight, bias)
    return reshape(y, (*lead, weight.data.shape[-1]))


# -- neural-net kernels ----------------------------------------------------------


# Rows up to this long take their max by a column scan: about 3x faster
# than the reduction for 17-slot rows, slower from about 32 slots on.
_SCAN_MAX = 24


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(-1, keepdims=True)``; a short last axis is scanned column by column.

    The scan gives the same maxima (NaN propagates the same way) and, for
    short rows, avoids the per-row overhead of the reduction.
    """
    n = x.shape[-1]
    if not 1 < n <= _SCAN_MAX:
        return x.max(axis=-1, keepdims=True)
    m = np.maximum(x[..., :1], x[..., 1:2])
    for j in range(2, n):
        np.maximum(m, x[..., j : j + 1], out=m)
    return m


def _softmax_(p: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``p``, in place; subtracts the row max first."""
    p -= _row_max(p)
    np.exp(p, out=p)
    p /= _row_sum(p)
    return p


def _softmax_grad(g: np.ndarray, p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(g - rowsum(g * p)) * p``, the gradient through softmax output ``p``; ``out`` may be ``g``."""
    out = np.subtract(g, _row_sum(g, p), out=out)
    return np.multiply(out, p, out=out)


def log_softmax(x: Tensor, axis: int) -> Tensor:
    axis = _check_axis(axis, x.data.ndim)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - logz
    nx = x._node
    def backward(g):
        _accum(nx, g - np.exp(y) * g.sum(axis=axis, keepdims=True))
    return _op(y, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last (channel) axis to zero mean / unit variance, then affine."""
    c = x.data.shape[-1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(
            f"layer_norm parameters must have shape ({c},); got gamma {gamma.data.shape}, beta {beta.data.shape}"
        )
    xhat = x.data - _row_sum(x.data) / c
    inv = 1.0 / np.sqrt(_row_sum(xhat, xhat) / c + LAYER_NORM_EPS)
    xhat *= inv
    y = xhat * gamma.data
    y += beta.data
    nx, ngamma, nbeta, gamma_data = x._node, gamma._node, beta._node, gamma.data
    def backward(g):
        g2 = g.reshape(-1, c)
        if ngamma is not None:
            _accum(ngamma, _col_sum(g2, xhat.reshape(-1, c)))
        if nbeta is not None:
            _accum(nbeta, _col_sum(g2))
        if nx is not None:
            # ((gh - mean(gh)) - xhat * mean(gh * xhat)) * inv, in this order
            gh = g * gamma_data
            m2 = _row_sum(gh, xhat) / c
            gh -= _row_sum(gh) / c
            gh -= xhat * m2
            gh *= inv
            _accum(nx, gh)
    return _op(y, (x, gamma, beta), backward, other=y.size)


# gelu's float32 cdf is 0.5 (1 + tanh(x H(x^2))), H(s) a degree-6 weighted minimax fit of
# atanh(erf(x / sqrt(2))) / x on [0, 4], highest degree first; over every float32 with
# |x| in [2^-12, 14), the cdf is within 9.3e-8 of the exact one. H is positive for s >= 0,
# so x H(x^2) is odd and saturates tanh to +-1 as x^2 overflows: no clip and no divide.
_PHI_H = np.array(
    (1.7469993e-09, -1.3223715e-07, 3.9672714e-06, -5.533548e-05, -3.2467415e-05, 0.036332894, 0.797885),
    np.float32,
)
_ERF_CHUNK = 1 << 16  # elements per pass; a chunk and its temporaries stay in L2


def _cdf(x: np.ndarray, s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The standard normal cdf of the float32 ``x`` into ``h`` in 17 ufunc passes; leaves x^2 in ``s``.

    Only add, multiply and tanh, each elementwise, so an element's bits depend
    neither on its neighbours nor on ``_ERF_CHUNK``.
    """
    np.multiply(x, x, out=s)
    np.multiply(s, _PHI_H[0], out=h)
    h += _PHI_H[1]
    for co in _PHI_H[2:]:
        h *= s
        h += co
    h *= x
    np.tanh(h, out=h)
    h *= 0.5
    h += 0.5
    return h


def phi32(x: np.ndarray) -> np.ndarray:
    """The standard normal cdf of a float32 array, 0.5 (1 + tanh(x H(x^2))), within 1e-7 of the exact one."""
    return _cdf(x, np.empty(x.shape, np.float32), np.empty(x.shape, np.float32))


@np.errstate(invalid="raise")
def _gelu_(x: np.ndarray, grad: bool) -> Optional[np.ndarray]:
    """Overwrite the C-contiguous ``x`` with gelu(x) = x cdf(x) one chunk at a time; only a chunk of the cdf exists.

    Each chunk has two scratch rows, x^2 and the cdf. float32 takes the cdf from ``_cdf``, 18
    passes per chunk with the product, within ``2e-6 * max(1, |x|)`` of the float64 form;
    float64 takes ``math.erf`` per element, so gradient checks see the reference erf. Returns the
    derivative ``cdf + x * exp(-0.5 * x^2) / sqrt(2 pi)`` if ``grad``, else None; -0.5 * x^2
    reuses the row of x^2 and rounds as (-0.5 * x) * x does. Only x = +-inf makes a 0 * inf; the
    invalid-operation flag then marks the chunk, whose limits are written in: gelu 0 and x,
    derivative 0 and 1. NaN stays NaN.
    """
    src = x.reshape(-1)
    d = np.empty_like(src) if grad else None
    sq, cq = np.empty((2, min(src.size, _ERF_CHUNK)), x.dtype)
    for lo in range(0, src.size, _ERF_CHUNK):
        xc = src[lo : lo + _ERF_CHUNK]
        s, c = sq[: xc.size], cq[: xc.size]
        if x.dtype == np.float32:
            _cdf(xc, s, c)
        else:
            np.multiply(xc, xc, out=s)
            e = np.fromiter(map(math.erf, (xc * _INV_SQRT2).tolist()), np.float64, xc.size)
            np.multiply(e + 1.0, 0.5, out=c)
        if d is not None:
            t = np.multiply(s, -0.5, out=d[lo : lo + _ERF_CHUNK])
            np.exp(t, out=t)
            t *= _INV_SQRT_2PI
            try:
                t *= xc
            except FloatingPointError:  # x pdf(x) at +-inf; numpy wrote the product first
                t[np.isinf(xc)] = 0.0
            t += c
        try:
            xc *= c
        except FloatingPointError:  # -inf * cdf(-inf), where the cdf is exactly 0
            xc[np.isnan(xc) & (c == 0.0)] = 0.0
    return None if d is None else d.reshape(x.shape)


def attention(
    x: Tensor, w_qkv: Tensor, b_qkv: Tensor, bias: Optional[Tensor], heads: int, queries: Optional[int] = None
) -> tuple[Tensor, np.ndarray]:
    """``softmax(q k^T / sqrt(d) + bias) v`` per head over each (..., n, C) sequence, as one node.

    q, k and v are the heads-first thirds of ``x @ w_qkv + b_qkv``; only the first m = ``queries``
    slots (default all n) query. ``bias`` is (heads, m, n) or None. Returns the context (..., m, C)
    and the probabilities (..., heads, m, n). The backward writes dq (zero past slot m), dk and dv
    into one (..., n, 3C) buffer, so one GEMM pair gives the gradients of ``w_qkv`` and ``b_qkv``.
    """
    *lead, n, c = x.data.shape
    if c % heads:
        raise ConfigError(f"channels {c} not divisible by {heads} heads")
    d, m = c // heads, queries or n
    x2 = x.data.reshape(-1, c)
    qkv = np.matmul(x2, w_qkv.data)
    qkv += b_qkv.data
    qkv = qkv.reshape(*lead, n, 3, heads, d)
    q = np.ascontiguousarray(qkv[..., :m, 0, :, :].swapaxes(-3, -2))  # (..., heads, m, d)
    v = np.ascontiguousarray(qkv[..., 2, :, :].swapaxes(-3, -2))  # (..., heads, n, d)
    kt = np.ascontiguousarray(np.moveaxis(qkv[..., 1, :, :], -3, -1))  # (..., heads, d, n)
    del qkv  # not saved for backward; freed before the scores are allocated
    scale = x.data.dtype.type(1.0 / math.sqrt(d))
    p = np.matmul(q, kt)
    p *= scale
    if bias is not None:
        p += bias.data
    _softmax_(p)
    ctx = np.ascontiguousarray(np.matmul(p, v).swapaxes(-3, -2)).reshape(*lead, m, c)
    nx, nw, nb, w = x._node, w_qkv._node, b_qkv._node, w_qkv.data
    nbias, bias_shape = (None, None) if bias is None else (bias._node, bias.shape)
    def backward(g):
        gctx = g.reshape(*lead, m, heads, d).swapaxes(-3, -2)
        gs = np.matmul(gctx, v.swapaxes(-1, -2))
        gqkv = np.empty((*lead, n, 3, heads, d), dtype=g.dtype)
        gqkv[..., 2, :, :] = np.matmul(p.swapaxes(-1, -2), gctx).swapaxes(-3, -2)
        _softmax_grad(gs, p, out=gs)
        if nbias is not None:  # copied: gs is scaled in place next
            _accum(nbias, _unbroadcast(gs, bias_shape).copy())
        gs *= scale
        gqkv[..., :m, 0, :, :] = np.matmul(gs, kt.swapaxes(-1, -2)).swapaxes(-3, -2)
        gqkv[..., m:, 0, :, :] = 0
        gqkv[..., 1, :, :] = np.moveaxis(np.matmul(q.swapaxes(-1, -2), gs), -1, -3)
        _linear_backward(nx, nw, nb, x2, w, gqkv.reshape(-1, 3 * c), (*lead, n, c))
    macs = x2.shape[0] * c * 3 * c + 2 * p.size * d
    other = x2.shape[0] * 3 * c + (2 if bias is None else 3) * p.size
    return _op(ctx, (x, w_qkv, b_qkv, bias), backward, matmul=macs, other=other), p


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``gelu(x @ w1 + b1) @ w2 + b2`` over the last axis, as one node.

    Keeps the activation, written over the pre-activation, and the gelu
    derivative, which is computed in the same pass only if a backward will run.
    """
    x2 = x.data.reshape(-1, x.data.shape[-1])
    act = np.matmul(x2, w1.data)
    act += b1.data
    parents = (x, w1, b1, w2, b2)
    d = _gelu_(act, _grad_enabled and any(p.requires_grad for p in parents))
    y = np.matmul(act, w2.data)
    y += b2.data
    nx, x_shape, w1d, w2d = x._node, x.data.shape, w1.data, w2.data
    nw1, nb1, nw2, nb2 = w1._node, b1._node, w2._node, b2._node
    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        gact = np.matmul(g2, w2d.swapaxes(-1, -2))
        _linear_backward(None, nw2, nb2, act, w2d, g2, None)
        gact *= d
        _linear_backward(nx, nw1, nb1, x2, w1d, gact, x_shape)
    out = y.reshape(*x_shape[:-1], y.shape[1])
    return _op(out, parents, backward, matmul=(x2.size + y.size) * act.shape[1], other=2 * act.size + y.size)


def _linear_backward(nx, nw, nb, x2: np.ndarray, w: np.ndarray, g2: np.ndarray, x_shape) -> None:
    """Gradients of ``x2 @ w + b`` from the (M, out) ``g2`` into the nodes not None; ``x2`` is x as (M, in)."""
    if nb is not None:
        _accum(nb, _col_sum(g2))
    if nx is not None:
        _accum(nx, np.matmul(g2, w.swapaxes(-1, -2)).reshape(x_shape))
    if nw is not None:
        _accum(nw, _weight_grad(x2, g2))


def _weight_grad(x2: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """``x2^T @ g2`` with the longer of (in, out) as the GEMM's row side: faster, same bits."""
    if x2.shape[-1] < g2.shape[-1]:
        return np.matmul(g2.swapaxes(-1, -2), x2).swapaxes(-1, -2)
    return np.matmul(x2.swapaxes(-1, -2), g2)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-d cross-correlation over channel-last maps.

    ``x`` is (B, H, W, Cin), ``weight`` is (K, K, Cin, Cout). Output extent
    per axis is ``(ext + 2*padding - K) // stride + 1``. The forward pass
    gathers every receptive field with one strided-view copy (im2col) and
    runs one GEMM; the backward pass scatters the column gradient back
    one kernel offset at a time.
    """
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and weight, got {x.data.shape} and {weight.data.shape}")
    kh, kw, cin, cout = weight.data.shape
    if kh != kw:
        raise ShapeError(f"conv2d kernel must be square, got {kh}x{kw}")
    if x.data.shape[-1] != cin:
        raise ShapeError(f"input channels {x.data.shape[-1]} != kernel channels {cin}")
    if bias is not None and bias.data.shape != (cout,):
        raise ShapeError(f"bias shape {bias.data.shape} != ({cout},)")
    b, h, w, _ = x.data.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ConfigError(
            f"conv2d output extent {oh}x{ow} is not positive for input {h}x{w}, "
            f"kernel {kh}, stride {stride}, padding {padding}"
        )
    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding), (0, 0))) if padding else x.data
    # im2col: a strided window view over the padded map, copied once into
    # (B, oh, ow, kh, kw, Cin) order, then a single GEMM.
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
    cols2 = cols.reshape(b * oh * ow, kh * kw * cin)
    w2 = weight.data.reshape(kh * kw * cin, cout)
    y = cols2 @ w2
    if bias is not None:
        y += bias.data
    nx, nw, nbias = x._node, weight._node, None if bias is None else bias._node
    def backward(g):
        g2 = g.reshape(b * oh * ow, cout)
        if nbias is not None:
            _accum(nbias, _col_sum(g2))
        if nw is not None:
            _accum(nw, _weight_grad(cols2, g2).reshape(kh, kw, cin, cout))
        if nx is not None:
            gcols = (g2 @ w2.T).reshape(b, oh, ow, kh, kw, cin)
            gxp = np.zeros((b, h + 2 * padding, w + 2 * padding, cin), dtype=cols2.dtype)
            for ki in range(kh):
                for kj in range(kw):
                    gxp[
                        :,
                        ki : ki + stride * (oh - 1) + 1 : stride,
                        kj : kj + stride * (ow - 1) + 1 : stride,
                        :,
                    ] += gcols[:, :, :, ki, kj, :]
            _accum(nx, gxp[:, padding : padding + h, padding : padding + w, :] if padding else gxp)
    return _op(y.reshape(b, oh, ow, cout), (x, weight, bias), backward, conv=cols2.shape[0] * cols2.shape[1] * cout)


# -- gradient checking -------------------------------------------------------------


def grad_check(
    fn: Callable[[], Tensor], params: Iterable[Tensor], max_entries_per_param: Optional[int] = None
) -> float:
    """Compare analytic gradients of a scalar objective against central differences.

    ``fn`` re-evaluates the objective from the current parameter values.
    All parameters must be 64-bit. Returns the max over checked entries of
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``. By default
    every entry is checked; ``max_entries_per_param`` subsamples entries
    for large models, drawn from seed 0.
    """
    params = list(params)
    for p in params:
        if p.data.dtype != np.float64:
            raise ContractError("grad_check requires float64 parameters")
        if not p.requires_grad:
            raise ContractError("grad_check parameters must require grad")
    for p in params:
        p.zero_grad()
    out = fn()
    if out.data.size != 1:
        raise ContractError(f"grad_check objective must be scalar, got shape {out.shape}")
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    rng = np.random.default_rng(0)
    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        if max_entries_per_param is not None and n > max_entries_per_param:
            idx = rng.choice(n, size=max_entries_per_param, replace=False)
        else:
            idx = np.arange(n)
        afl = ana.reshape(-1)
        for i in idx:
            keep = flat[i]
            with no_grad():  # numeric evaluations need values only
                flat[i] = keep + GRAD_CHECK_STEP
                hi = fn().item()
                flat[i] = keep - GRAD_CHECK_STEP
                lo = fn().item()
            flat[i] = keep
            numeric = (hi - lo) / (2.0 * GRAD_CHECK_STEP)
            a = afl[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > worst:
                worst = err
    return worst
