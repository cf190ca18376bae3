"""Dense float64 tensors with reverse-mode differentiation.

Tensors are plain numpy arrays (row-major, 64-bit). A :class:`Node` wraps one
array together with its gradient buffer and a backward rule; composing the op
functions below builds an acyclic computation graph. An explicit ``Node(x)``
is a differentiable leaf; a raw array passed to an op is wrapped by
:func:`as_node` as a constant, and an op result is differentiable when any of
its operands is. :func:`backward` visits the differentiable nodes that reach
the loss once each, in reverse creation order (every node is created after
its operands). A node's first gradient contribution becomes its ``grad``
buffer; later ones add into it (see :func:`_accumulate`).

Every op validates its result: a NaN or Inf anywhere raises
:class:`~weakdet.errors.NumericError` instead of propagating. Exponentials
(softmax, log-sum-exp, log-softmax) are max-shifted.

Every op records on its result the op (by its module-level name) and its
operands. :func:`replay` finds once which ops of a built graph lie
downstream of a parameter array; each run of its plan, after the array was
written in place, calls exactly those ops again, so every check and
data-dependent mask (a ReLU's) runs again and the values are bitwise a fresh
build's. A run never writes into the base graph and returns values only: the
base nodes' backward rules hold their own intermediates, so nothing may
backpropagate through a replay.

The fused ops at the end each build one node for what would otherwise be a
chain of elementary ops. Their forward repeats the chain's numpy expressions
in the same order and memory layout, and their backward repeats its
accumulation: an intermediate read by several ops of the chain sums their
contributions in reverse creation order. Values and gradients are therefore
bitwise those of the chain, except that a zero may carry the other sign.
The sign of a zero never changes a nonzero result here (no rule divides by a
gradient), and a leaf's buffer turns -0.0 into +0.0, so a leaf stores the
same bits either way.

A forward computes its value and its checks only. What only the backward
reads (a softmax, a mask, an index) the backward rule computes from arrays
the forward made, never from an operand's ``value``, which the gradient audit
overwrites in place. A reduction calls the ufunc numpy's wrapper would call
(``np.add.reduce`` for ``sum`` and ``mean``, ``np.maximum.reduce`` for
``max``): the same operands in the same order give the same bits, faster.
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

    A finite sum of squares proves every entry finite (a NaN makes it NaN, an
    Inf of either sign +Inf); only one that is not, such as one that
    overflowed (silently, in BLAS), needs the entrywise test.
    """
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


class Node:
    """One value in the computation graph.

    Leaf nodes (parameters, constants) have no parents. ``requires_grad``
    is true for an explicit leaf, false for a constant made by
    :func:`as_node`, and for an op result true when any parent's is.
    ``grad`` is None until :func:`backward` reaches the node, unless a caller
    preset a leaf's to a zeroed buffer to add into; from then on it is a
    C-contiguous array of the value's shape holding d(loss)/d(node).
    Constants never get one. ``_record`` is an op result's ``(op, operands)``.
    """

    __slots__ = ("value", "grad", "parents", "requires_grad", "_backward", "_consumed", "_order",
                 "_record")

    def __init__(self, value, parents: tuple = (), backward: Callable | None = None, record=None):
        value = np.asarray(value, dtype=np.float64)
        if not (math.isfinite(np.vdot(value, value)) or np.isfinite(value).all()):  # all_finite
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
        self._record = record

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


def _accumulate(node: Node, contrib, fresh: bool = True) -> None:
    """Add one backward contribution to ``node.grad``.

    The first contribution becomes the buffer. A ``fresh`` one (an array the
    rule just computed and nobody else holds) is taken over when it is a
    C-contiguous array of the node's shape; anything else, such as the
    upstream gradient itself, a view or a broadcast, is copied into a new
    C-ordered buffer. Either way the buffer equals ``0.0 + contrib``, as a
    zero-filled one would: a leaf's -0.0 becomes +0.0 (an intermediate may
    keep it, which only the sign of its zeros can show).
    """
    if node.grad is not None:
        node.grad += contrib
    elif (
        fresh
        and type(contrib) is np.ndarray
        and contrib.flags.c_contiguous
        and contrib.shape == node.value.shape
    ):
        if node._backward is None:
            contrib += 0.0
        node.grad = contrib
    else:
        node.grad = np.add(contrib, 0.0, out=np.empty(node.value.shape))


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
    for key in sorted(reached, reverse=True):
        node = reached[key]
        node._consumed = True
        if node._backward is not None:
            node._backward(node.grad)


def replay(roots, changed: np.ndarray) -> ReplayPlan:
    """Plan the re-evaluation of ``roots`` after the array ``changed`` is
    written in place; each :meth:`ReplayPlan.run` then gives their values.

    A leaf or constant whose value *is* ``changed`` is dirty, and so is an op
    result with a dirty operand, which a run rebuilds from its record. The
    graph walk, the sort and the dirty test happen here, once per
    ``(roots, changed)``; an op result without a record raises
    :class:`UsageError` here too. Plain array operands (an adjacency, tags)
    and what callers derive outside ops (induced labels, graphs) are not
    re-derived: they stay at the values the base graph recorded.
    """
    reached, stack = {r._order: r for r in roots}, list(roots)
    while stack:
        for p in stack.pop().parents:
            if p._order not in reached:
                reached[p._order] = p
                stack.append(p)
    slot: dict[int, int] = {}  # a dirty node's creation stamp -> its step
    steps = []
    for key in sorted(reached):
        node = reached[key]
        if node._record is None:
            if node.parents:
                raise UsageError("replay: an op result carries no record")
            if node.value is changed:
                slot[key] = len(steps)
                steps.append((Node, (changed,), ()))
            continue
        op, args = node._record
        subs = tuple((i, slot[a._order]) for i, a in enumerate(args)
                     if isinstance(a, Node) and a._order in slot)
        if subs:
            slot[key] = len(steps)
            steps.append((op, args, subs))
    return ReplayPlan(steps, [(slot.get(r._order), r.value) for r in roots])


class ReplayPlan:
    """The dirty steps of a :func:`replay`, in creation order.

    Each step is ``(op, args, subs)``: the recorded op (``Node`` for a leaf
    holding the changed array), its recorded operands, and the ``(position,
    step)`` pairs whose operand an earlier step rebuilds. Only this
    bookkeeping is kept: a run calls every op again, so its checks and
    data-dependent masks see the current values.
    """

    def __init__(self, steps: list, picks: list):
        self.steps = steps
        self._picks = picks  # per root: its step, or None and its base value

    def run(self) -> list[np.ndarray]:
        """The roots' values for what the changed array holds now."""
        fresh: list[Node] = []
        for op, args, subs in self.steps:
            if subs:
                args = list(args)
                for i, s in subs:
                    args[i] = fresh[s]
            fresh.append(op(*args))
        return [value if s is None else fresh[s].value for s, value in self._picks]


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------
#
# The benchmark's per-layer table (BENCHMARK.json) names each op below, so
# every one stays here even where only the fused ops' test oracles build it.


def _unary(a: Node, value, rule: Callable, record: tuple, fresh: bool = True) -> Node:
    """A node on one operand whose backward adds ``rule(g)`` into ``a``."""
    return Node(value, (a,), lambda g: _accumulate(a, rule(g), fresh), record)


def _binary(a: Node, b: Node, value, rule_a: Callable, rule_b: Callable, record: tuple,
            fresh: bool = True) -> Node:
    """A node on two operands whose backward adds ``rule_a(g)`` into ``a`` and
    ``rule_b(g)`` into ``b``, each only when that operand needs a gradient."""

    def bw(g):
        if a.requires_grad:
            _accumulate(a, rule_a(g), fresh)
        if b.requires_grad:
            _accumulate(b, rule_b(g), fresh)

    return Node(value, (a, b), bw, record)


def _same_shape(a: Node, b: Node, opname: str) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{opname}: shapes {a.value.shape} and {b.value.shape} differ")


def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "add")
    return _binary(a, b, a.value + b.value, lambda g: g, lambda g: g, (add, (a, b)), fresh=False)


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "sub")
    out = Node(a.value - b.value, (a, b), record=(sub, (a, b)))

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g, fresh=False)
        if b.requires_grad:
            _accumulate(b, -g)

    out._backward = bw
    return out


def neg(a) -> Node:
    a = as_node(a)
    return _unary(a, -a.value, lambda g: -g, (neg, (a,)))


def mul(a, b) -> Node:
    """Elementwise product (same shape)."""
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "mul")
    return _binary(a, b, a.value * b.value, lambda g: g * b.value, lambda g: g * a.value,
                   (mul, (a, b)))


def div(a, b) -> Node:
    """Elementwise quotient; denominator must be bounded away from zero."""
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "div")
    if np.any(np.abs(b.value) < EPS_NORM):
        raise DegenerateInputError("div: denominator entry is (near) zero")
    return _binary(a, b, a.value / b.value, lambda g: g / b.value,
                   lambda g: -(g * a.value / (b.value * b.value)), (div, (a, b)))


def scale(a, c: float) -> Node:
    """Multiply by a scalar constant."""
    a = as_node(a)
    c = float(c)
    return _unary(a, a.value * c, lambda g: g * c, (scale, (a, c)))


def matmul(a, b) -> Node:
    """Matrix product of two 2-D nodes."""
    a, b = as_node(a), as_node(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions {a.value.shape} x {b.value.shape} do not agree"
        )
    return _binary(a, b, a.value @ b.value, lambda g: g @ b.value.T, lambda g: a.value.T @ g,
                   (matmul, (a, b)))


def _matrix(a, opname: str) -> Node:
    a = as_node(a)
    if a.value.ndim != 2:
        raise ShapeError(f"{opname} expects a 2-D node")
    return a


def transpose(a) -> Node:
    a = _matrix(a, "transpose")
    return _unary(a, a.value.T.copy(), lambda g: g.T, (transpose, (a,)), fresh=False)


def hconcat(a, b) -> Node:
    """Concatenate two 2-D nodes along columns."""
    a, b = as_node(a), as_node(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[0] != b.value.shape[0]:
        raise ShapeError("hconcat expects 2-D nodes with equal row counts")
    na = a.value.shape[1]
    return _binary(a, b, np.concatenate([a.value, b.value], axis=1), lambda g: g[:, :na],
                   lambda g: g[:, na:], (hconcat, (a, b)), fresh=False)


def relu(a) -> Node:
    a = as_node(a)
    mask = a.value > 0
    return _unary(a, np.where(mask, a.value, 0.0), lambda g: g * mask, (relu, (a,)))


def log(a) -> Node:
    a = as_node(a)
    if np.any(a.value <= 0):
        raise NumericError("log: non-positive input")
    return _unary(a, np.log(a.value), lambda g: g / a.value, (log, (a,)))


def sqrt(a) -> Node:
    a = as_node(a)
    if np.any(a.value < 0):
        raise NumericError("sqrt: negative input")
    val = np.sqrt(a.value)
    return _unary(a, val, lambda g: g / (2.0 * np.maximum(val, EPS_NORM)), (sqrt, (a,)))


def clip(a, lo: float, hi: float) -> Node:
    """Clamp to [lo, hi]; gradient passes only through the interior."""
    a = as_node(a)
    mask = (a.value > lo) & (a.value < hi)
    return _unary(a, np.clip(a.value, lo, hi), lambda g: g * mask, (clip, (a, lo, hi)))


# ---------------------------------------------------------------------------
# reductions (their gradients broadcast, so the first one is copied)
# ---------------------------------------------------------------------------


def total(a) -> Node:
    """Sum of all entries, as a scalar node."""
    a = as_node(a)
    return _unary(a, np.sum(a.value), lambda g: g, (total, (a,)), fresh=False)


def mean(a) -> Node:
    """Mean of all entries, as a scalar node."""
    a = as_node(a)
    n = a.value.size
    if n == 0:
        raise ShapeError("mean of an empty tensor")
    return _unary(a, np.sum(a.value) / n, lambda g: g / n, (mean, (a,)), fresh=False)


def sum_rows(a) -> Node:
    """Row sums of a 2-D node -> 1-D node of length m."""
    a = _matrix(a, "sum_rows")
    return _unary(a, a.value.sum(axis=1), lambda g: g[:, None], (sum_rows, (a,)), fresh=False)


def sum_cols(a) -> Node:
    """Column sums of a 2-D node -> 1-D node of length n."""
    a = _matrix(a, "sum_cols")
    return _unary(a, np.add.reduce(a.value, axis=0), lambda g: g[None, :], (sum_cols, (a,)),
                  fresh=False)


def diag_part(a) -> Node:
    """Diagonal of a square 2-D node as a 1-D node."""
    a = _matrix(a, "diag_part")
    if a.value.shape[0] != a.value.shape[1]:
        raise ShapeError("diag_part expects a square 2-D node")
    return _unary(a, a.value.diagonal().copy(), np.diag, (diag_part, (a,)))


def outer(u, v) -> Node:
    """Outer product of two 1-D nodes."""
    u, v = as_node(u), as_node(v)
    if u.value.ndim != 1 or v.value.ndim != 1:
        raise ShapeError("outer expects 1-D nodes")
    return _binary(u, v, np.outer(u.value, v.value), lambda g: g @ v.value,
                   lambda g: g.T @ u.value, (outer, (u, v)))


def center_cols(a) -> Node:
    """Subtract each column's mean (over rows)."""
    a = _matrix(a, "center_cols")
    centered = a.value - a.value.mean(axis=0, keepdims=True)
    return _unary(a, centered, lambda g: g - g.mean(axis=0, keepdims=True), (center_cols, (a,)))


# ---------------------------------------------------------------------------
# stabilized exponential family
# ---------------------------------------------------------------------------


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def _softmax_along(a, axis: int, op: Callable, opname: str) -> Node:
    a = _matrix(a, opname)
    s = _softmax(a.value, axis)
    return _unary(a, s, lambda g: s * (g - (g * s).sum(axis=axis, keepdims=True)), (op, (a,)))


def softmax_rows(a) -> Node:
    """Softmax along each row of a 2-D node."""
    return _softmax_along(a, 1, softmax_rows, "softmax_rows")


def softmax_cols(a) -> Node:
    """Softmax along each column of a 2-D node."""
    return _softmax_along(a, 0, softmax_cols, "softmax_cols")


def log_softmax_rows(a) -> Node:
    """Row-wise log-softmax; stable replacement for log(softmax_rows(x))."""
    a = _matrix(a, "log_softmax_rows")
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    log_s = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    s = np.exp(log_s)
    return _unary(a, log_s, lambda g: g - s * g.sum(axis=1, keepdims=True),
                  (log_softmax_rows, (a,)))


def logsumexp_rows(a) -> Node:
    """Row-wise log(sum(exp(.))) of a 2-D node -> 1-D node."""
    a = _matrix(a, "logsumexp_rows")
    mx = a.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(a.value - mx).sum(axis=1, keepdims=True)) + mx
    s = _softmax(a.value, axis=1)
    return _unary(a, lse[:, 0], lambda g: s * g[:, None], (logsumexp_rows, (a,)))


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
    w = _softmax(r * s.value, axis=0)
    return _unary(s, val, lambda g: g * w, (smooth_max_lse, (s, r)))


def _unit_rows(x: np.ndarray, strict: bool, opname: str):
    """The rows of ``x`` scaled to unit L2 norm, and the rule taking their
    gradient back to ``x``. A (near-)zero row raises
    :class:`DegenerateInputError` when ``strict``; otherwise it stays a zero
    row and passes zero gradient."""
    norms = np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))  # np.linalg.norm's sum
    bad = norms[:, 0] <= EPS_NORM
    any_bad = bool(bad.any())
    if any_bad:
        if strict:
            raise DegenerateInputError(f"{opname}: zero-norm row")
        norms = np.where(norms <= EPS_NORM, 1.0, norms)
    unit = x / norms
    if any_bad:
        unit[bad] = 0.0

    def rule(g):
        contrib = (g - unit * np.add.reduce(g * unit, axis=1, keepdims=True)) / norms
        if any_bad:
            contrib[bad] = 0.0
        return contrib

    return unit, rule


def normalize_rows(a, strict: bool = True) -> Node:
    """Scale each row of a 2-D node to unit L2 norm (see :func:`_unit_rows`)."""
    a = _matrix(a, "normalize_rows")
    return _unary(a, *_unit_rows(a.value, strict, "normalize_rows"), (normalize_rows, (a, strict)))


# ---------------------------------------------------------------------------
# fused ops (one node each; see the module docstring for the bitwise rules)
# ---------------------------------------------------------------------------


def matmul_nt(a, b) -> Node:
    """``a @ b.T`` for two 2-D nodes: the chain ``matmul(a, transpose(b))``,
    whose transpose is a contiguous copy."""
    a, b = as_node(a), as_node(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError("matmul_nt expects 2-D operands")
    if a.value.shape[1] != b.value.shape[1]:
        raise ShapeError(
            f"matmul_nt: column counts {a.value.shape} and {b.value.shape} do not agree"
        )
    bt = b.value.T.copy()
    out = Node(a.value @ bt, (a, b), record=(matmul_nt, (a, b)))

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g @ bt.T)
        if b.requires_grad:
            _accumulate(b, (a.value.T @ g).T, fresh=False)

    out._backward = bw
    return out


def _propagated(a_hat: np.ndarray, h: Node, w: Node, opname: str) -> np.ndarray:
    """``a_hat @ (h @ w)``, with the operand checks of both GCN ops."""
    if a_hat.ndim != 2 or h.value.ndim != 2 or w.value.ndim != 2:
        raise ShapeError(f"{opname} expects 2-D operands")
    if h.value.shape[1] != w.value.shape[0] or a_hat.shape[1] != h.value.shape[0]:
        raise ShapeError(
            f"{opname}: shapes {a_hat.shape}, {h.value.shape}, {w.value.shape} do not chain"
        )
    return a_hat @ (h.value @ w.value)


def _propagate_back(a_hat: np.ndarray, h: Node, w: Node, g: np.ndarray) -> None:
    g_hw = a_hat.T @ g
    if h.requires_grad:
        _accumulate(h, g_hw @ w.value.T)
    if w.requires_grad:
        _accumulate(w, h.value.T @ g_hw)


def propagate(a_hat: np.ndarray, h, w) -> Node:
    """One graph-convolution step ``a_hat @ (h @ w)`` (Kipf & Welling,
    arXiv 1609.02907): the chain ``matmul(a_hat, matmul(h, w))`` for a fixed
    adjacency ``a_hat``, which gets no gradient and no node."""
    h, w = as_node(h), as_node(w)
    return Node(_propagated(a_hat, h, w, "propagate"), (h, w),
                lambda g: _propagate_back(a_hat, h, w, g), (propagate, (a_hat, h, w)))


def propagate_unit(a_hat: np.ndarray, h, w) -> Node:
    """:func:`propagate`, then each row scaled to unit L2 norm: the chain
    ``normalize_rows(propagate(a_hat, h, w), strict=False)``. A (near-)zero
    row stays zero and passes no gradient."""
    h, w = as_node(h), as_node(w)
    # A non-finite product leaves a NaN in its unit rows, which Node rejects.
    unit, rule = _unit_rows(_propagated(a_hat, h, w, "propagate_unit"), False, "propagate_unit")
    return Node(unit, (h, w), lambda g: _propagate_back(a_hat, h, w, rule(g)),
                (propagate_unit, (a_hat, h, w)))


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
    mx = np.maximum.reduce(sim, axis=1, keepdims=True)
    e = np.exp(sim - mx)
    e_sum = np.add.reduce(e, axis=1, keepdims=True)
    lse = np.log(e_sum) + mx
    out = Node(np.add.reduce(lse[:, 0] - sim.diagonal()) / n, (x, y),
               record=(info_nce, (x, y, tau)))

    def bw(g):
        g_lse = g / n
        g_sim = e / e_sum * g_lse  # the row softmax, as _softmax computes it
        diag = np.arange(n)
        g_sim[diag, diag] -= g_lse  # diag_part's term (the sum commutes)
        g_xy = g_sim * tau
        if x.requires_grad:
            _accumulate(x, g_xy @ yt.T)
        if y.requires_grad:
            _accumulate(y, (x.value.T @ g_xy).T, fresh=False)

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
    a = _matrix(a, "pearson_cols")
    m, d = a.value.shape
    if m == 0:
        raise ShapeError("pearson_cols of an empty matrix")
    inv_m = float(1.0 / m)
    c = a.value - np.add.reduce(a.value, axis=0, keepdims=True) / m  # ndarray.mean
    ct = c.T.copy()
    cov = ct @ c * inv_m
    var = cov.diagonal()
    ok = var > var_eps
    sd = np.sqrt(np.where(ok, var, 1.0))
    den = sd[:, None] * sd[None, :]  # np.outer
    if not (all_finite(cov) and all_finite(den)):
        raise NumericError("pearson_cols: covariance contains NaN or Inf")
    if (np.abs(den) < EPS_NORM).any():
        raise DegenerateInputError("pearson_cols: standard deviation is (near) zero")
    corr = cov / den
    both = None
    if not ok.all():
        both = np.outer(ok, ok)
        bad = np.flatnonzero(~ok)
        corr = np.where(both, corr + 0.0, 0.0)
        corr[bad, bad] = 1.0
    out = Node((corr + corr.T) * 0.5, (a,), record=(pearson_cols, (a, var_eps)))

    def bw(g):
        g_half = g * 0.5
        g_corr = g_half + g_half.T
        if both is not None:
            g_corr = np.where(both, g_corr, 0.0)
        g_cov = g_corr / den
        g_den = -(g_corr * cov / (den * den))
        g_sd_row = g_den @ sd
        g_sd_col = g_den.T @ sd
        two_sd = 2.0 * np.maximum(sd, EPS_NORM)
        g_var = g_sd_col / two_sd + g_sd_row / two_sd
        if both is not None:
            g_var = np.where(ok, g_var, 0.0)
        diag = np.arange(d)
        g_cov[diag, diag] += g_var
        g_gram = g_cov * inv_m
        g_ct = g_gram @ c.T
        g_c = ct.T @ g_gram + g_ct.T
        _accumulate(a, g_c - np.add.reduce(g_c, axis=0, keepdims=True) / m)

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
    out = Node(s_rows * s_cols, (cls, det), record=(dual_softmax, (cls, det)))

    def bw(g):
        if det.requires_grad:
            g_cols = g * s_rows
            dot = np.add.reduce(g_cols * s_cols, axis=0, keepdims=True)
            _accumulate(det, s_cols * (g_cols - dot))
        if cls.requires_grad:
            g_rows = g * s_cols
            dot = np.add.reduce(g_rows * s_rows, axis=1, keepdims=True)
            _accumulate(cls, s_rows * (g_rows - dot))

    out._backward = bw
    return out


def bce_plus_weighted_ce(image_scores, s_logits, tags, weights, eps: float) -> Node:
    """Image-level binary cross-entropy plus weighted instance cross-entropy:
    ``-sum(tags * log(c) + (1 - tags) * log(1 - c)) - sum(weights *
    log_softmax_rows(s_logits))`` with ``c`` the image scores clamped to
    ``[eps, 1 - eps]``. It is the chain clip, log, mul, sub, log, mul, add,
    total, neg for the first term, log_softmax_rows, mul, total, neg for the
    second, and a final add; ``tags`` and ``weights`` are constants.
    """
    image_scores, s_logits = as_node(image_scores), as_node(s_logits)
    tags = np.asarray(tags, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if (image_scores.value.shape != tags.shape or tags.ndim != 1
            or s_logits.value.shape != weights.shape or weights.ndim != 2):
        raise ShapeError("bce_plus_weighted_ce: scores and tags must be 1-D, logits and "
                         "weights 2-D, each pair of one shape")
    eps = float(eps)
    if not 0.0 < eps < 0.5:
        raise ParameterError(f"bce_plus_weighted_ce needs 0 < eps < 0.5, got {eps}")
    clamped = np.minimum(np.maximum(image_scores.value, eps), 1.0 - eps)  # np.clip on finite input
    rest = 1.0 - clamped
    untagged = 1.0 - tags
    image_term = -np.add.reduce(np.log(clamped) * tags + np.log(rest) * untagged, axis=None)
    shifted = s_logits.value - np.maximum.reduce(s_logits.value, axis=1, keepdims=True)
    log_s = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    out = Node(image_term + -np.add.reduce(log_s * weights, axis=None), (image_scores, s_logits),
               record=(bce_plus_weighted_ce, (image_scores, s_logits, tags, weights, eps)))

    def bw(g):
        g_total = -g  # both totals' gradient, through neg
        if s_logits.requires_grad:
            g_log = g_total * weights
            soft = np.exp(log_s)
            _accumulate(s_logits, g_log - soft * np.add.reduce(g_log, axis=1, keepdims=True))
        if image_scores.requires_grad:
            # the chain's (0 - sub's term) + log's term, bit for bit
            g_clamped = (g_total * tags) / clamped - (g_total * untagged) / rest
            inside = (clamped > eps) & (clamped < 1.0 - eps)  # the scores' interior
            _accumulate(image_scores, g_clamped * inside)

    out._backward = bw
    return out


def cosine_center_loss(z, targets) -> Node:
    """Mean cosine misalignment ``1 - mean_i(unit(z_i) . targets_i)`` between
    the rows of a 2-D node and constant unit rows: the chain
    normalize_rows (strict), mul, sum_rows, mean and ``sub(1.0, .)``."""
    z = as_node(z)
    targets = np.asarray(targets, dtype=np.float64)
    if z.value.ndim != 2 or z.value.shape != targets.shape:
        raise ShapeError("cosine_center_loss expects two 2-D arrays of one shape")
    m = z.value.shape[0]
    if m == 0:
        raise ShapeError("cosine_center_loss of an empty matrix")
    unit, rule = _unit_rows(z.value, True, "cosine_center_loss")
    return Node(1.0 - np.add.reduce(np.add.reduce(unit * targets, axis=1)) / m, (z,),
                lambda g: _accumulate(z, rule(-g / m * targets)),
                (cosine_center_loss, (z, targets)))
