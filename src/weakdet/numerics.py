"""Dense float64 tensors with reverse-mode differentiation.

Tensors are plain numpy arrays (row-major, 64-bit). A :class:`Node` wraps one
array together with its gradient buffer and a backward rule; composing the op
functions below builds an acyclic computation graph. An explicit ``Node(x)``
is a differentiable leaf; a raw array passed to an op is wrapped by
:func:`as_node` as a constant, and an op result is differentiable when any of
its operands is. :func:`backward` visits the differentiable nodes that reach
the loss once each, in reverse creation order (every node is created after
its operands), and gives each its ``grad`` buffer only when it reaches it.

Every op validates its result: a NaN or Inf anywhere raises
:class:`~weakdet.errors.NumericError` instead of propagating. Exponentials
(softmax, log-sum-exp, log-softmax) are max-shifted.

The fused ops at the end (:func:`propagate`, :func:`info_nce`,
:func:`pearson_cols`, :func:`dual_softmax`) each build one node for what
would otherwise be a chain of the elementary ops. Their forward repeats the
chain's numpy expressions in the same order and memory layout, and their
backward repeats its accumulation: an intermediate read by several ops of
the chain sums their contributions in reverse creation order. Values and
gradients are therefore bitwise those of the chain. (An intermediate may
hold -0.0 where the chain's holds +0.0; no rule divides by a gradient, and a
``grad`` buffer starts at +0.0 and only accumulates, so it stores the same
bits.)
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from .errors import (
    DegenerateInputError,
    NumericError,
    ParameterError,
    ShapeError,
    UsageError,
)

EPS_NORM = 1e-12

# Creation stamps: an op's result always gets a larger one than its operands.
_creation = itertools.count()


def all_finite(arr: np.ndarray) -> bool:
    """True when no entry of ``arr`` is NaN or Inf.

    A finite sum proves every entry finite, since a NaN or Inf anywhere makes
    the sum NaN or Inf; only a sum that is not finite (including one that
    overflowed, which numpy reports as a warning) needs the entrywise test.
    """
    return math.isfinite(np.add.reduce(arr, axis=None)) or bool(np.isfinite(arr).all())


class Node:
    """One value in the computation graph.

    Leaf nodes (parameters, constants) have no parents. ``requires_grad``
    is true for an explicit leaf, false for a constant made by
    :func:`as_node`, and for an op result true when any parent's is.
    ``grad`` is None until :func:`backward` reaches the node; from then on it
    has the value's shape and holds d(loss)/d(node). Constants never get one.
    """

    __slots__ = ("value", "grad", "parents", "requires_grad", "_backward", "_consumed", "_order")

    def __init__(self, value, parents: tuple = (), backward: Callable | None = None):
        value = np.asarray(value, dtype=np.float64)
        if not all_finite(value):
            raise NumericError("tensor contains NaN or Inf")
        self.value = value
        self.grad = None
        self.parents = parents
        requires_grad = not parents
        for p in parents:
            if p.requires_grad:
                requires_grad = True
                break
        self.requires_grad = requires_grad
        self._backward = backward
        self._consumed = False
        self._order = next(_creation)

    def __repr__(self):
        return f"Node(shape={self.value.shape}, leaf={self._backward is None})"


def as_node(x) -> Node:
    """Wrap a value as a constant leaf, which gets no gradient; Nodes pass
    through."""
    if isinstance(x, Node):
        return x
    node = Node(x)
    node.requires_grad = False
    return node


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(node) into ``grad`` for every differentiable node
    that reaches the loss.

    Nodes run their backward rules in decreasing creation order, so each
    node's gradient is complete before it passes it on. The root must be
    scalar. A second call on the same graph raises :class:`UsageError`;
    rebuild the graph between passes.
    """
    if loss.value.shape not in ((), (1,), (1, 1)):
        raise UsageError(f"backward root must be scalar, got shape {loss.value.shape}")
    if loss._consumed:
        raise UsageError("backward already ran on this graph; rebuild it first")
    loss._consumed = True
    loss.grad = np.ones_like(loss.value)
    if not loss.requires_grad:
        return
    reached = {loss._order: loss}
    stack = [loss]
    while stack:
        for p in stack.pop().parents:
            if p.requires_grad and p._order not in reached:
                reached[p._order] = p
                stack.append(p)
                if p.grad is None:
                    p.grad = np.zeros(p.value.shape)
    for key in sorted(reached, reverse=True):
        node = reached[key]
        node._consumed = True
        if node._backward is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def _same_shape(a: Node, b: Node, opname: str) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{opname}: shapes {a.value.shape} and {b.value.shape} differ")


def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "add")
    out = Node(a.value + b.value, (a, b))

    def bw(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad += g

    out._backward = bw
    return out


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "sub")
    out = Node(a.value - b.value, (a, b))

    def bw(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad -= g

    out._backward = bw
    return out


def neg(a) -> Node:
    a = as_node(a)
    out = Node(-a.value, (a,))

    def bw(g):
        a.grad -= g

    out._backward = bw
    return out


def mul(a, b) -> Node:
    """Elementwise product (same shape)."""
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "mul")
    out = Node(a.value * b.value, (a, b))

    def bw(g):
        if a.requires_grad:
            a.grad += g * b.value
        if b.requires_grad:
            b.grad += g * a.value

    out._backward = bw
    return out


def div(a, b) -> Node:
    """Elementwise quotient; denominator must be bounded away from zero."""
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "div")
    if np.any(np.abs(b.value) < EPS_NORM):
        raise DegenerateInputError("div: denominator entry is (near) zero")
    out = Node(a.value / b.value, (a, b))

    def bw(g):
        if a.requires_grad:
            a.grad += g / b.value
        if b.requires_grad:
            b.grad -= g * a.value / (b.value * b.value)

    out._backward = bw
    return out


def scale(a, c: float) -> Node:
    """Multiply by a scalar constant."""
    a = as_node(a)
    c = float(c)
    out = Node(a.value * c, (a,))

    def bw(g):
        a.grad += g * c

    out._backward = bw
    return out


def matmul(a, b) -> Node:
    """Matrix product of two 2-D nodes."""
    a, b = as_node(a), as_node(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions {a.value.shape} x {b.value.shape} do not agree"
        )
    out = Node(a.value @ b.value, (a, b))

    def bw(g):
        if a.requires_grad:
            a.grad += g @ b.value.T
        if b.requires_grad:
            b.grad += a.value.T @ g

    out._backward = bw
    return out


def transpose(a) -> Node:
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError("transpose expects a 2-D node")
    out = Node(a.value.T.copy(), (a,))

    def bw(g):
        a.grad += g.T

    out._backward = bw
    return out


def hconcat(a, b) -> Node:
    """Concatenate two 2-D nodes along columns."""
    a, b = as_node(a), as_node(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[0] != b.value.shape[0]:
        raise ShapeError("hconcat expects 2-D nodes with equal row counts")
    na = a.value.shape[1]
    out = Node(np.concatenate([a.value, b.value], axis=1), (a, b))

    def bw(g):
        if a.requires_grad:
            a.grad += g[:, :na]
        if b.requires_grad:
            b.grad += g[:, na:]

    out._backward = bw
    return out


def relu(a) -> Node:
    a = as_node(a)
    mask = a.value > 0
    out = Node(np.where(mask, a.value, 0.0), (a,))

    def bw(g):
        a.grad += g * mask

    out._backward = bw
    return out


def log(a) -> Node:
    a = as_node(a)
    if np.any(a.value <= 0):
        raise NumericError("log: non-positive input")
    out = Node(np.log(a.value), (a,))

    def bw(g):
        a.grad += g / a.value

    out._backward = bw
    return out


def exp(a) -> Node:
    a = as_node(a)
    with np.errstate(over="ignore"):  # Node() turns the inf into NumericError
        out = Node(np.exp(a.value), (a,))
    val = out.value

    def bw(g):
        a.grad += g * val

    out._backward = bw
    return out


def sqrt(a) -> Node:
    a = as_node(a)
    if np.any(a.value < 0):
        raise NumericError("sqrt: negative input")
    out = Node(np.sqrt(a.value), (a,))
    val = out.value

    def bw(g):
        a.grad += g / (2.0 * np.maximum(val, EPS_NORM))

    out._backward = bw
    return out


def clip(a, lo: float, hi: float) -> Node:
    """Clamp to [lo, hi]; gradient passes only through the interior."""
    a = as_node(a)
    mask = (a.value > lo) & (a.value < hi)
    out = Node(np.clip(a.value, lo, hi), (a,))

    def bw(g):
        a.grad += g * mask

    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def total(a) -> Node:
    """Sum of all entries, as a scalar node."""
    a = as_node(a)
    out = Node(np.sum(a.value), (a,))

    def bw(g):
        a.grad += g  # broadcasts over the full array

    out._backward = bw
    return out


def mean(a) -> Node:
    """Mean of all entries, as a scalar node."""
    a = as_node(a)
    n = a.value.size
    if n == 0:
        raise ShapeError("mean of an empty tensor")
    out = Node(np.sum(a.value) / n, (a,))

    def bw(g):
        a.grad += g / n

    out._backward = bw
    return out


def sum_rows(a) -> Node:
    """Row sums of a 2-D node -> 1-D node of length m."""
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError("sum_rows expects a 2-D node")
    out = Node(a.value.sum(axis=1), (a,))

    def bw(g):
        a.grad += g[:, None]

    out._backward = bw
    return out


def sum_cols(a) -> Node:
    """Column sums of a 2-D node -> 1-D node of length n."""
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError("sum_cols expects a 2-D node")
    out = Node(a.value.sum(axis=0), (a,))

    def bw(g):
        a.grad += g[None, :]

    out._backward = bw
    return out


def diag_part(a) -> Node:
    """Diagonal of a square 2-D node as a 1-D node."""
    a = as_node(a)
    if a.value.ndim != 2 or a.value.shape[0] != a.value.shape[1]:
        raise ShapeError("diag_part expects a square 2-D node")
    out = Node(np.diagonal(a.value).copy(), (a,))
    n = a.value.shape[0]

    def bw(g):
        a.grad[np.arange(n), np.arange(n)] += g

    out._backward = bw
    return out


def outer(u, v) -> Node:
    """Outer product of two 1-D nodes."""
    u, v = as_node(u), as_node(v)
    if u.value.ndim != 1 or v.value.ndim != 1:
        raise ShapeError("outer expects 1-D nodes")
    out = Node(np.outer(u.value, v.value), (u, v))

    def bw(g):
        if u.requires_grad:
            u.grad += g @ v.value
        if v.requires_grad:
            v.grad += g.T @ u.value

    out._backward = bw
    return out


def center_cols(a) -> Node:
    """Subtract each column's mean (over rows)."""
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError("center_cols expects a 2-D node")
    m = a.value.shape[0]
    out = Node(a.value - a.value.mean(axis=0, keepdims=True), (a,))

    def bw(g):
        a.grad += g - g.mean(axis=0, keepdims=True)

    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# stabilized exponential family
# ---------------------------------------------------------------------------


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_rows(a) -> Node:
    """Softmax along each row of a 2-D node."""
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError("softmax_rows expects a 2-D node")
    s = _softmax(a.value, axis=1)
    out = Node(s, (a,))

    def bw(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        a.grad += s * (g - dot)

    out._backward = bw
    return out


def softmax_cols(a) -> Node:
    """Softmax along each column of a 2-D node."""
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError("softmax_cols expects a 2-D node")
    s = _softmax(a.value, axis=0)
    out = Node(s, (a,))

    def bw(g):
        dot = (g * s).sum(axis=0, keepdims=True)
        a.grad += s * (g - dot)

    out._backward = bw
    return out


def log_softmax_rows(a) -> Node:
    """Row-wise log-softmax; stable replacement for log(softmax_rows(x))."""
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError("log_softmax_rows expects a 2-D node")
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = Node(shifted - lse, (a,))
    s = np.exp(out.value)

    def bw(g):
        a.grad += g - s * g.sum(axis=1, keepdims=True)

    out._backward = bw
    return out


def logsumexp_rows(a) -> Node:
    """Row-wise log(sum(exp(.))) of a 2-D node -> 1-D node."""
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError("logsumexp_rows expects a 2-D node")
    mx = a.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(a.value - mx).sum(axis=1, keepdims=True)) + mx
    out = Node(lse[:, 0], (a,))
    s = _softmax(a.value, axis=1)

    def bw(g):
        a.grad += s * g[:, None]

    out._backward = bw
    return out


def smooth_max_lse(s, r: float) -> Node:
    """Smooth maximum of a 1-D node: (1/r) * log(mean(exp(r * s))).

    Lies between mean(s) and max(s) for every r > 0 and sharpens toward the
    max as r grows; never more than log(n)/r below the true max.
    """
    s = as_node(s)
    if s.value.ndim != 1:
        raise ShapeError("smooth_max_lse expects a 1-D node")
    n = s.value.size
    if n == 0:
        raise ShapeError("smooth_max_lse of an empty vector")
    r = float(r)
    if r <= 0:
        raise ParameterError(f"smooth_max_lse needs r > 0, got {r}")
    mx = s.value.max()
    val = (np.log(np.exp(r * (s.value - mx)).sum() / n)) / r + mx
    out = Node(val, (s,))
    w = _softmax(r * s.value, axis=0)

    def bw(g):
        s.grad += g * w

    out._backward = bw
    return out


def lse_columns(a, r: float) -> Node:
    """Apply :func:`smooth_max_lse` to each column of a 2-D node -> 1-D node."""
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError("lse_columns expects a 2-D node")
    m = a.value.shape[0]
    if m == 0:
        raise ShapeError("lse_columns of an empty matrix")
    r = float(r)
    if r <= 0:
        raise ParameterError(f"lse_columns needs r > 0, got {r}")
    mx = a.value.max(axis=0, keepdims=True)
    val = np.log(np.exp(r * (a.value - mx)).sum(axis=0) / m) / r + mx[0]
    out = Node(val, (a,))
    w = _softmax(r * a.value, axis=0)

    def bw(g):
        a.grad += w * g[None, :]

    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# geometry on vectors and rows
# ---------------------------------------------------------------------------


def cosine(u, v) -> Node:
    """Cosine similarity of two 1-D nodes, in [-1, 1]."""
    u, v = as_node(u), as_node(v)
    if u.value.ndim != 1 or v.value.ndim != 1 or u.value.shape != v.value.shape:
        raise ShapeError("cosine expects two 1-D nodes of equal length")
    nu = np.linalg.norm(u.value)
    nv = np.linalg.norm(v.value)
    if nu <= EPS_NORM or nv <= EPS_NORM:
        raise DegenerateInputError("cosine: near-zero norm operand")
    c = float(u.value @ v.value) / (nu * nv)
    out = Node(c, (u, v))

    def bw(g):
        g = float(g)
        if u.requires_grad:
            u.grad += g * (v.value / (nu * nv) - c * u.value / (nu * nu))
        if v.requires_grad:
            v.grad += g * (u.value / (nu * nv) - c * v.value / (nv * nv))

    out._backward = bw
    return out


def normalize_rows(a, strict: bool = True) -> Node:
    """Scale each row of a 2-D node to unit L2 norm.

    A (near-)zero row raises :class:`DegenerateInputError` when ``strict``;
    otherwise it stays a zero row and receives zero gradient.
    """
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError("normalize_rows expects a 2-D node")
    norms = np.linalg.norm(a.value, axis=1, keepdims=True)
    bad = norms[:, 0] <= EPS_NORM
    if bad.any():
        if strict:
            raise DegenerateInputError("normalize_rows: zero-norm row")
        norms = np.where(norms <= EPS_NORM, 1.0, norms)
    out_val = a.value / norms
    if bad.any():
        out_val[bad] = 0.0
    out = Node(out_val, (a,))

    def bw(g):
        dot = (g * out_val).sum(axis=1, keepdims=True)
        contrib = (g - out_val * dot) / norms
        if bad.any():
            contrib[bad] = 0.0
        a.grad += contrib

    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# fused ops (one node each; see the module docstring for the bitwise rules)
# ---------------------------------------------------------------------------


def propagate(a_hat: np.ndarray, h, w) -> Node:
    """One graph-convolution step ``a_hat @ (h @ w)`` (Kipf & Welling,
    arXiv 1609.02907): the chain ``matmul(a_hat, matmul(h, w))`` for a fixed
    adjacency ``a_hat``, which gets no gradient and no node."""
    h, w = as_node(h), as_node(w)
    if a_hat.ndim != 2 or h.value.ndim != 2 or w.value.ndim != 2:
        raise ShapeError("propagate expects 2-D operands")
    if h.value.shape[1] != w.value.shape[0] or a_hat.shape[1] != h.value.shape[0]:
        raise ShapeError(
            f"propagate: shapes {a_hat.shape}, {h.value.shape}, {w.value.shape} do not chain"
        )
    hw = h.value @ w.value
    if not all_finite(hw):
        raise NumericError("propagate: h @ w contains NaN or Inf")
    out = Node(a_hat @ hw, (h, w))

    def bw(g):
        g_hw = a_hat.T @ g
        if h.requires_grad:
            h.grad += g_hw @ w.value.T
        if w.requires_grad:
            w.grad += h.value.T @ g_hw

    out._backward = bw
    return out


def info_nce(x, y, tau: float) -> Node:
    """InfoNCE (van den Oord et al., arXiv 1807.03748) with matched rows as
    positives: ``mean(logsumexp_rows(S) - diag(S))`` for
    ``S = tau * x @ y.T``, the chain transpose, matmul, scale,
    logsumexp_rows, diag_part, sub and mean."""
    x, y = as_node(x), as_node(y)
    tau = float(tau)
    if tau <= 0:
        raise ParameterError(f"info_nce needs tau > 0, got {tau}")
    if x.value.ndim != 2 or x.value.shape != y.value.shape:
        raise ShapeError("info_nce operands must be 2-D and share a shape")
    n = x.value.shape[0]
    if n == 0:
        raise ShapeError("info_nce of empty operands")
    yt = y.value.T.copy()
    sim = x.value @ yt * tau
    if not all_finite(sim):
        raise NumericError("info_nce: similarities contain NaN or Inf")
    mx = sim.max(axis=1, keepdims=True)
    e = np.exp(sim - mx)
    e_sum = e.sum(axis=1, keepdims=True)
    lse = np.log(e_sum) + mx
    out = Node(np.sum(lse[:, 0] - np.diagonal(sim).copy()) / n, (x, y))
    s = e / e_sum  # the row softmax, as _softmax computes it
    diag = np.arange(n)

    def bw(g):
        g_lse = g / n
        g_sim = s * g_lse
        g_sim[diag, diag] -= g_lse  # diag_part's term (the sum commutes)
        g_xy = g_sim * tau
        if x.requires_grad:
            x.grad += g_xy @ yt.T
        if y.requires_grad:
            y.grad += (x.value.T @ g_xy).T

    out._backward = bw
    return out


def pearson_cols(a, var_eps: float) -> Node:
    """Symmetric Pearson correlation between the columns of a 2-D node,
    rows as samples: the chain center_cols, transpose, matmul, scale,
    diag_part, sqrt, outer, div, then ``0.5 * (c + c.T)``.

    A column whose variance is not above ``var_eps`` divides by 1 instead,
    its row and column are zeroed and its diagonal entry is 1; those masks
    are data-dependent constants, like a ReLU's.
    """
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError("pearson_cols expects a 2-D node")
    m, d = a.value.shape
    if m == 0:
        raise ShapeError("pearson_cols of an empty matrix")
    inv_m = float(1.0 / m)
    c = a.value - a.value.mean(axis=0, keepdims=True)
    ct = c.T.copy()
    cov = ct @ c * inv_m
    var = np.diagonal(cov).copy()
    ok = var > var_eps
    sd = np.sqrt(np.where(ok, var, 1.0))
    den = np.outer(sd, sd)
    if not (all_finite(cov) and all_finite(den)):
        raise NumericError("pearson_cols: covariance contains NaN or Inf")
    if np.any(np.abs(den) < EPS_NORM):
        raise DegenerateInputError("pearson_cols: standard deviation is (near) zero")
    corr = cov / den
    both = None
    if not ok.all():
        both = np.outer(ok, ok)
        bad = np.flatnonzero(~ok)
        corr = np.where(both, corr + 0.0, 0.0)
        corr[bad, bad] = 1.0
    out = Node((corr + corr.T) * 0.5, (a,))
    diag = np.arange(d)
    two_sd = 2.0 * np.maximum(sd, EPS_NORM)

    def bw(g):
        g_half = g * 0.5
        g_corr = g_half + g_half.T
        if both is not None:
            g_corr = np.where(both, g_corr, 0.0)
        g_cov = g_corr / den
        g_den = -(g_corr * cov / (den * den))
        g_sd_row = g_den @ sd
        g_sd_col = g_den.T @ sd
        g_var = g_sd_col / two_sd + g_sd_row / two_sd
        if both is not None:
            g_var = np.where(ok, g_var, 0.0)
        g_cov[diag, diag] += g_var
        g_gram = g_cov * inv_m
        g_ct = g_gram @ c.T
        g_c = ct.T @ g_gram + g_ct.T
        a.grad += g_c - g_c.mean(axis=0, keepdims=True)

    out._backward = bw
    return out


def dual_softmax(cls, det) -> Node:
    """``softmax_rows(cls) * softmax_cols(det)`` for two same-shape 2-D
    nodes: each entry is a row-wise class probability times a column-wise
    instance probability."""
    cls, det = as_node(cls), as_node(det)
    if cls.value.ndim != 2 or cls.value.shape != det.value.shape:
        raise ShapeError("dual_softmax expects two 2-D nodes of one shape")
    s_rows = _softmax(cls.value, axis=1)
    s_cols = _softmax(det.value, axis=0)
    out = Node(s_rows * s_cols, (cls, det))

    def bw(g):
        if det.requires_grad:
            g_cols = g * s_rows
            dot = (g_cols * s_cols).sum(axis=0, keepdims=True)
            det.grad += s_cols * (g_cols - dot)
        if cls.requires_grad:
            g_rows = g * s_cols
            dot = (g_rows * s_rows).sum(axis=1, keepdims=True)
            cls.grad += s_rows * (g_rows - dot)

    out._backward = bw
    return out
