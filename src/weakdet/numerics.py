"""Dense float64 tensors with reverse-mode differentiation.

Tensors are plain numpy arrays (row-major, 64-bit). A :class:`Node` wraps one
array together with its gradient buffer and a backward rule; composing the op
functions below builds an acyclic computation graph. An explicit ``Node(x)``
is a differentiable leaf; a raw array passed to an op is wrapped by
:func:`as_node` as a constant, and an op result is differentiable when any of
its operands is. :func:`backward` visits the differentiable nodes that reach
the loss once each, in reverse creation order (every node is created after
its operands). A node's first gradient contribution becomes its ``grad``
buffer; later ones add into it (see :func:`_accumulate`). A backward clears
the op results' buffers first, so a graph can be differentiated again.

Every op is a value kernel under one node wrapper, :func:`_op`, of any
number of operands. The op makes its kernel, a function of its operands'
arrays that holds the op's constants: it runs the op's shape and domain
checks and returns the value with its backward rules unbuilt. The wrapper
makes the node and checks the value (a NaN or Inf raises
:class:`~weakdet.errors.NumericError`); only the node's backward builds the
rules, once per pass, so a forward-only pass and a replay build none.
Exponentials are max-shifted. Here and in the branches, a reduction calls
the ufunc reduce that numpy's wrapper calls: ``np.add.reduce`` for ``sum``
and ``mean``, ``np.maximum.reduce`` for ``max`` and
``np.minimum.reduce`` for ``min``, the same bits in fewer calls. A row norm
is ``np.linalg.norm``'s own arithmetic for a real vector norm,
``np.sqrt(np.add.reduce(x * x, axis))``.

Every op records its kernel. :func:`replay` finds in one pass which ops of a
built graph lie downstream of each of some arrays; a run of an array's plan
calls exactly those kernels again on arrays, with the same finite check and
no node, so every check and data-dependent mask (a ReLU's) runs again and the
values are bitwise a fresh build's. A run takes a stack of new values of the
array along a new leading axis: the kernels the forward builds index their
core axes from the end, so each slice gets a fresh build's bits. A run sees
the base graph through read-only views, and a backward writes no node value,
so a graph replays the same before and after each backward.

The fused ops at the end each build one node for what would otherwise be a
chain of elementary ops. Their kernels repeat the chain's numpy expressions
in the same order and memory layout, and their rules repeat its
accumulation: an intermediate read by several ops of the chain sums their
contributions in reverse creation order. Values and gradients are therefore
bitwise those of the chain, except that a zero may carry the other sign,
which never changes a nonzero result (no rule divides by a gradient); a
leaf's buffer turns -0.0 into +0.0, so a leaf stores the same bits either way.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, NumericError, ParameterError, ShapeError, UsageError

EPS_NORM = 1e-12
_FLOAT64 = np.dtype(np.float64)

# Creation stamps: an op's result always gets a larger one than its operands.
_creation = itertools.count()


def all_finite(arr: np.ndarray) -> bool:
    """True when no entry of ``arr`` is NaN or Inf.

    A finite sum of squares proves every entry finite (a NaN makes it NaN, an
    Inf of either sign +Inf); only one that is not, such as one that
    overflowed (silently, in BLAS), needs the entrywise test.
    """
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


def _finite(value) -> np.ndarray:
    """``value`` as a float64 array, or :class:`NumericError` if it holds a
    NaN or Inf: the check of every node's value and of every replayed one, in
    one frame (a numpy float64 scalar is tested by ``math.isfinite``)."""
    if type(value) is np.float64:
        if math.isfinite(value):
            return np.asarray(value)
    else:
        if type(value) is not np.ndarray or value.dtype is not _FLOAT64:
            value = np.asarray(value, dtype=np.float64)
        if math.isfinite(np.vdot(value, value)) or np.isfinite(value).all():
            return value
    raise NumericError("tensor contains NaN or Inf")


class Node:
    """One value in the computation graph.

    Leaf nodes (parameters, constants) have no parents. ``requires_grad``
    is true for an explicit leaf, false for a constant made by
    :func:`as_node`, and for an op result true when any parent's is.
    ``grad`` is None until :func:`backward` reaches the node, unless a caller
    preset a leaf's to a zeroed buffer to add into; from then on it is a
    C-contiguous array of the value's shape holding d(loss)/d(node), a leaf's
    summed over the passes since its caller cleared it. Constants never get
    one. ``_record`` is an op result's kernel.
    """

    __slots__ = ("value", "grad", "parents", "requires_grad", "_backward", "_order", "_record")

    def __init__(self, value, parents: tuple = (), backward: Callable | None = None, record=None):
        # _finite's test, inline for the common case of a float64 ndarray
        self.value = value if (type(value) is np.ndarray and value.dtype is _FLOAT64
                               and math.isfinite(np.vdot(value, value))) else _finite(value)
        self.grad = None
        self.parents = parents
        requires_grad = not parents
        for p in parents:
            if p.requires_grad:
                requires_grad = True
                break
        self.requires_grad = requires_grad
        self._backward = backward
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


def _accumulate(node: Node, contrib, upstream) -> None:
    """Add one backward contribution to ``node.grad``.

    The first contribution becomes the buffer. An array the rule just made
    (not a view, nor the ``upstream`` gradient itself) is taken over when it
    is C-contiguous and of the node's shape; anything else, such as a
    broadcast, is copied into a new C-ordered buffer. Either way the buffer
    equals ``0.0 + contrib``, as a zero-filled one would: a leaf's -0.0
    becomes +0.0 (an intermediate may keep it, which only the sign of its
    zeros can show).
    """
    if node.grad is not None:
        node.grad += contrib
    elif (contrib is not upstream and type(contrib) is np.ndarray and contrib.base is None
          and contrib.flags.c_contiguous and contrib.shape == node.value.shape):
        if node._backward is None:
            contrib += 0.0
        node.grad = contrib
    else:
        node.grad = np.add(contrib, 0.0, out=np.empty(node.value.shape))


def _op(kernel: Callable, a, b=None, *more) -> Node:
    """The node of an op on its operands ``a``, ``b``, ...; every op result
    is made here. ``kernel``, called on the operands' arrays, returns the value
    and ``rules``: a function of the upstream gradient ``g`` that does the
    work the operands' rules share and returns one rule per operand, a
    callable of no arguments giving that operand's contribution. The node's
    record is ``kernel``; its backward calls ``rules(g)`` once and adds
    ``rule()`` into each operand that needs a gradient, in operand order. One
    and two operands take paths of their own, which build no argument list."""
    if not isinstance(a, Node):
        a = as_node(a)
    if b is None:
        nodes, (value, rules) = (a,), kernel(a.value)
    elif not more:
        if not isinstance(b, Node):
            b = as_node(b)
        nodes, (value, rules) = (a, b), kernel(a.value, b.value)
    else:
        nodes = (a, *[p if isinstance(p, Node) else as_node(p) for p in (b, *more)])
        value, rules = kernel(*[p.value for p in nodes])
        for p in nodes:
            if p.value.ndim > 2:
                raise ShapeError("an op's operands must be at most 2-D")
    if a.value.ndim > 2 or nodes[-1].value.ndim > 2:  # a stack is a replay's alone
        raise ShapeError("an op's operands must be at most 2-D")

    def backward(g):
        for node, rule in zip(nodes, rules(g)):
            if node.requires_grad:
                _accumulate(node, rule(), g)

    return Node(value, nodes, backward, kernel)


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(node) into ``grad`` for every differentiable node
    that reaches the loss.

    Nodes run their backward rules in decreasing creation order, so each
    node's gradient is complete before it passes it on. The root must be
    scalar. The walk clears the ``grad`` of every op result it reaches, so a
    graph can be differentiated again, from any root; a leaf's ``grad`` is the
    caller's: None starts a buffer, and one already there is added into.
    """
    if loss.value.shape not in ((), (1,), (1, 1)):
        raise UsageError(f"backward root must be scalar, got shape {loss.value.shape}")
    loss.grad = np.ones(loss.value.shape)
    if not loss.requires_grad:
        return
    reached, stack = {loss._order: loss}, [loss]
    while stack:
        for p in stack.pop().parents:
            if p.requires_grad and p._order not in reached:
                reached[p._order] = p
                stack.append(p)
                if p._backward is not None:
                    p.grad = None
    for key in sorted(reached, reverse=True):
        node = reached[key]
        if node._backward is not None:
            node._backward(node.grad)


def replay(roots, arrays) -> list[ReplayPlan]:
    """One :class:`ReplayPlan` per array of ``arrays``, in their order, to
    re-evaluate ``roots`` for new values of that array.

    A leaf or constant whose value *is* an array is dirty for it, and so is
    an op result with an operand dirty for it. One walk, sort and pass in
    creation order serve every array: the pass marks each node with a bitmask
    of the arrays it is dirty for and checks that every op result has a
    record (else :class:`UsageError`). Constants of an op (an adjacency, tags)
    and what callers derive outside ops (induced labels, graphs) stay at the
    values the base graph recorded.
    """
    reached, stack = {r._order: r for r in roots}, list(roots)
    while stack:
        for p in stack.pop().parents:
            if p._order not in reached:
                reached[p._order] = p
                stack.append(p)
    # stamp -> bits of the arrays the node is dirty for; per array: stamp -> index in a run, steps
    dirty, slots, steps = {}, [{} for _ in arrays], [[] for _ in arrays]
    def operands(nodes, i):  # the constants (a C-contiguous one as a read-only buffer), the rest
        return ([(j, memoryview(p.value).toreadonly() if p.value.flags.c_contiguous else p.value)
                 for j, p in enumerate(nodes) if not dirty[p._order] >> i & 1],
                [(j, slots[i].get(p._order, 0)) for j, p in enumerate(nodes)
                 if dirty[p._order] >> i & 1])  # a dirty leaf's value is the run's stack
    for key in sorted(reached):
        node = reached[key]
        if node._record is None and node.parents:
            raise UsageError("replay: an op result carries no record")
        mask = 0 if node.parents else sum(1 << i for i, a in enumerate(arrays) if a is node.value)
        for p in node.parents:
            mask |= dirty[p._order]
        dirty[key] = mask
        for i in range(mask.bit_length()):
            if mask >> i & 1 and node.parents:
                steps[i].append((node._record, *operands(node.parents, i), node.value.shape))
                slots[i][key] = len(steps[i])
    return [ReplayPlan(a.shape, plan, operands(roots, i))
            for i, (a, plan) in enumerate(zip(arrays, steps))]


class ReplayPlan:
    """The dirty steps of one array's :func:`replay`, in creation order.

    A run's value 0 is its stack of the changed array, and value ``i`` the
    result of step ``i``. Each step is ``(kernel, consts, subs, shape)``: the
    recorded kernel, the ``(position, base value)`` of each constant operand,
    the ``(position, value index)`` of each operand a run recomputes, and the
    shape of the step's value in the base graph. A run calls every kernel, so
    its checks and data-dependent masks see the new values.
    """

    def __init__(self, shape: tuple, steps: list, picks: tuple):
        self.shape = shape  # the changed array's
        self.steps = steps
        self._picks = picks  # the roots, as a step's (consts, subs)

    def run(self, stack: np.ndarray) -> list[np.ndarray]:
        """Each root's B values for a ``stack`` of B values of the changed
        array along a new leading axis; a root the array does not reach gets
        its base value as a read-only zero-stride view, as a constant operand
        does. A kernel that takes no stack raises :class:`UsageError`."""
        lead = stack.shape[:1]
        if not lead or stack.shape[1:] != self.shape:
            raise UsageError(f"replay: a stack of shape {stack.shape} holds no {self.shape} arrays")
        fresh = [_finite(stack)]  # the check a leaf of these values would get
        def operands(consts, subs):  # a view over a buffer costs a third of broadcast_to's
            args = [None] * (len(consts) + len(subs))
            for i, c in consts:  # broadcast_to keeps another layout, which bits can follow
                args[i] = (np.ndarray(lead + c.shape, _FLOAT64, c, 0, (0,) + c.strides)
                           if type(c) is memoryview else np.broadcast_to(c, lead + c.shape))
            for i, s in subs:
                args[i] = fresh[s]
            return args
        for kernel, consts, subs, shape in self.steps:
            try:
                value = _finite(kernel(*operands(consts, subs))[0])
            except ShapeError as e:  # a stack's operands have their base shapes under the lead
                raise UsageError(f"replay: a kernel takes no stack: {e}") from e
            if value.shape != lead + shape:
                raise UsageError(f"replay: a kernel gave shape {value.shape}, not {lead + shape}")
            fresh.append(value)
        return operands(*self._picks)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------
#
# The benchmark's per-layer table (BENCHMARK.json) names each op below, so
# every one stays here even where only the fused ops' test oracles build it.


def _same_shape(a: np.ndarray, b: np.ndarray, opname: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} differ")


def _matrix(a: np.ndarray, opname: str, stacks: bool = False) -> None:
    if a.ndim < 2 or a.ndim > 2 and not stacks:  # a stack of 2-D arrays when ``stacks``
        raise ShapeError(f"{opname} expects a 2-D node")


def add(a, b) -> Node:
    def kernel(a, b):
        _same_shape(a, b, "add")
        return a + b, lambda g: (lambda: g, lambda: g)
    return _op(kernel, a, b)


def sub(a, b) -> Node:
    def kernel(a, b):
        _same_shape(a, b, "sub")
        return a - b, lambda g: (lambda: g, lambda: -g)
    return _op(kernel, a, b)


def neg(a) -> Node:
    return _op(lambda a: (-a, lambda g: (lambda: -g,)), a)


def mul(a, b) -> Node:
    """Elementwise product (same shape)."""
    def kernel(a, b):
        _same_shape(a, b, "mul")
        return a * b, lambda g: (lambda: g * b, lambda: g * a)
    return _op(kernel, a, b)


def div(a, b) -> Node:
    """Elementwise quotient; denominator must be bounded away from zero."""
    def kernel(a, b):
        _same_shape(a, b, "div")
        if np.any(np.abs(b) < EPS_NORM):
            raise DegenerateInputError("div: denominator entry is (near) zero")
        return a / b, lambda g: (lambda: g / b, lambda: -(g * a / (b * b)))
    return _op(kernel, a, b)


def scale(a, c: float) -> Node:
    """Multiply by a scalar constant."""
    c = float(c)
    return _op(lambda a: (a * c, lambda g: (lambda: g * c,)), a)


def matmul(a, b) -> Node:
    """Matrix product of two 2-D nodes."""
    def kernel(a, b):
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError("matmul expects 2-D operands")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul: inner dimensions {a.shape} x {b.shape} do not agree")
        return a @ b, lambda g: (lambda: g @ b.T, lambda: a.T @ g)
    return _op(kernel, a, b)


def transpose(a) -> Node:
    def kernel(a):
        _matrix(a, "transpose")
        return a.T.copy(), lambda g: (lambda: g.T,)
    return _op(kernel, a)


def hconcat(a, b) -> Node:
    """Concatenate two 2-D nodes along columns."""
    def kernel(a, b):
        if a.ndim < 2 or a.shape[:-1] != b.shape[:-1]:
            raise ShapeError("hconcat expects 2-D nodes with equal row counts")
        na = a.shape[-1]
        return np.concatenate([a, b], axis=-1), lambda g: (lambda: g[:, :na], lambda: g[:, na:])
    return _op(kernel, a, b)


def relu(a) -> Node:
    def kernel(a):
        mask = a > 0
        return np.where(mask, a, 0.0), lambda g: (lambda: g * mask,)
    return _op(kernel, a)


def log(a) -> Node:
    def kernel(a):
        if np.any(a <= 0):
            raise NumericError("log: non-positive input")
        return np.log(a), lambda g: (lambda: g / a,)
    return _op(kernel, a)


def sqrt(a) -> Node:
    def kernel(a):
        if np.any(a < 0):
            raise NumericError("sqrt: negative input")
        val = np.sqrt(a)
        return val, lambda g: (lambda: g / (2.0 * np.maximum(val, EPS_NORM)),)
    return _op(kernel, a)


def clip(a, lo: float, hi: float) -> Node:
    """Clamp to [lo, hi]; gradient passes only through the interior."""
    def kernel(a):
        mask = (a > lo) & (a < hi)
        return np.clip(a, lo, hi), lambda g: (lambda: g * mask,)
    return _op(kernel, a)


# ---------------------------------------------------------------------------
# reductions (their gradients broadcast, so the first one is copied)
# ---------------------------------------------------------------------------


def total(a) -> Node:
    """Sum of all entries, as a scalar node."""
    return _op(lambda a: (np.sum(a), lambda g: (lambda: g,)), a)


def mean(a) -> Node:
    """Mean of all entries, as a scalar node."""
    def kernel(a):
        n = a.size
        if n == 0:
            raise ShapeError("mean of an empty tensor")
        return np.sum(a) / n, lambda g: (lambda: g / n,)
    return _op(kernel, a)


def sum_rows(a) -> Node:
    """Row sums of a 2-D node -> 1-D node of length m."""
    def kernel(a):
        _matrix(a, "sum_rows")
        return a.sum(axis=1), lambda g: (lambda: g[:, None],)
    return _op(kernel, a)


def sum_cols(a) -> Node:
    """Column sums of a 2-D node -> 1-D node of length n."""
    def kernel(a):
        _matrix(a, "sum_cols", True)
        return np.add.reduce(a, axis=-2), lambda g: (lambda: g[None, :],)
    return _op(kernel, a)


def diag_part(a) -> Node:
    """Diagonal of a square 2-D node as a 1-D node."""
    def kernel(a):
        _matrix(a, "diag_part")
        if a.shape[0] != a.shape[1]:
            raise ShapeError("diag_part expects a square 2-D node")
        return a.diagonal().copy(), lambda g: (lambda: np.diag(g),)
    return _op(kernel, a)


def outer(u, v) -> Node:
    """Outer product of two 1-D nodes."""
    def kernel(u, v):
        if u.ndim != 1 or v.ndim != 1:
            raise ShapeError("outer expects 1-D nodes")
        return np.outer(u, v), lambda g: (lambda: g @ v, lambda: g.T @ u)
    return _op(kernel, u, v)


def center_cols(a) -> Node:
    """Subtract each column's mean (over rows)."""
    def kernel(a):
        _matrix(a, "center_cols")
        return a - a.mean(axis=0, keepdims=True), lambda g: (lambda: g - g.mean(axis=0, keepdims=True),)
    return _op(kernel, a)


# ---------------------------------------------------------------------------
# stabilized exponential family
# ---------------------------------------------------------------------------


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def _softmax_grad(s: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """The gradient through the softmax ``s`` along ``axis`` of ``g``."""
    return s * (g - np.add.reduce(g * s, axis=axis, keepdims=True))


def softmax_rows(a) -> Node:
    """Softmax along each row of a 2-D node."""
    def kernel(a):
        _matrix(a, "softmax_rows")
        s = _softmax(a, 1)
        return s, lambda g: (lambda: _softmax_grad(s, g, 1),)
    return _op(kernel, a)


def softmax_cols(a) -> Node:
    """Softmax along each column of a 2-D node."""
    def kernel(a):
        _matrix(a, "softmax_cols")
        s = _softmax(a, 0)
        return s, lambda g: (lambda: _softmax_grad(s, g, 0),)
    return _op(kernel, a)


def _log_softmax(a: np.ndarray, opname: str) -> np.ndarray:
    """The row-wise log-softmax of a 2-D array."""
    _matrix(a, opname, True)
    shifted = a - np.maximum.reduce(a, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def _log_softmax_grad(log_s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient through the row-wise log-softmax ``log_s`` of ``g``."""
    return g - np.exp(log_s) * np.add.reduce(g, axis=1, keepdims=True)


def log_softmax_rows(a) -> Node:
    """Row-wise log-softmax; stable replacement for log(softmax_rows(x))."""
    def kernel(a):
        log_s = _log_softmax(a, "log_softmax_rows")
        return log_s, lambda g: (lambda: _log_softmax_grad(log_s, g),)
    return _op(kernel, a)


def logsumexp_rows(a) -> Node:
    """Row-wise log(sum(exp(.))) of a 2-D node -> 1-D node."""
    def kernel(a):
        _matrix(a, "logsumexp_rows")
        mx = a.max(axis=1, keepdims=True)
        lse = np.log(np.exp(a - mx).sum(axis=1, keepdims=True)) + mx
        s = _softmax(a, axis=1)
        return lse[:, 0], lambda g: (lambda: s * g[:, None],)
    return _op(kernel, a)


def smooth_max_lse(s, r: float) -> Node:
    """Smooth maximum of a 1-D node: (1/r) * log(mean(exp(r * s))).

    Lies between mean(s) and max(s) for every r > 0 and sharpens toward the
    max as r grows; never more than log(n)/r below the true max.
    """
    r = float(r)
    def kernel(s):
        if s.ndim != 1:
            raise ShapeError("smooth_max_lse expects a 1-D node")
        n = s.size
        if n == 0:
            raise ShapeError("smooth_max_lse of an empty vector")
        if r <= 0:
            raise ParameterError(f"smooth_max_lse needs r > 0, got {r}")
        mx = s.max()
        val = (np.log(np.exp(r * (s - mx)).sum() / n)) / r + mx
        w = _softmax(r * s, axis=0)
        return val, lambda g: (lambda: g * w,)
    return _op(kernel, s)


def _unit_rows(x: np.ndarray, strict: bool, opname: str):
    """Each row of a 2-D array scaled to unit L2 norm, with the divisors and
    the mask of (near-)zero rows, or None, that :func:`_unit_rows_grad` reads.
    A zero row raises :class:`DegenerateInputError` when ``strict``, else it
    stays zero and passes zero gradient."""
    _matrix(x, opname, True)
    norms = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))  # np.linalg.norm's sum
    if (np.minimum.reduce(norms, None, initial=np.inf) > EPS_NORM  # a NaN norm fails this
            or not (bad := norms[..., 0] <= EPS_NORM).any()):  # else the mask decides
        return x / norms, norms, None
    if strict:
        raise DegenerateInputError(f"{opname}: zero-norm row")
    norms = np.where(norms <= EPS_NORM, 1.0, norms)
    unit = x / norms
    unit[bad] = 0.0
    return unit, norms, bad


def _unit_rows_grad(g: np.ndarray, unit: np.ndarray, norms: np.ndarray, bad) -> np.ndarray:
    """The gradient through :func:`_unit_rows` of ``g``."""
    contrib = (g - unit * np.add.reduce(g * unit, axis=1, keepdims=True)) / norms
    if bad is not None:
        contrib[bad] = 0.0
    return contrib


def normalize_rows(a, strict: bool = True) -> Node:
    """Scale each row of a 2-D node to unit L2 norm (see :func:`_unit_rows`)."""
    def kernel(a):
        unit, norms, bad = _unit_rows(a, strict, "normalize_rows")
        return unit, lambda g: (lambda: _unit_rows_grad(g, unit, norms, bad),)
    return _op(kernel, a)


# ---------------------------------------------------------------------------
# fused ops (one node each; see the module docstring for the bitwise rules)
# ---------------------------------------------------------------------------


def matmul_nt(a, b) -> Node:
    """``a @ b.T`` for two 2-D nodes: the chain ``matmul(a, transpose(b))``,
    whose transpose is a contiguous copy."""
    def kernel(a, b):
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError("matmul_nt expects 2-D operands")
        if a.shape[-1] != b.shape[-1]:
            raise ShapeError(f"matmul_nt: column counts {a.shape} and {b.shape} do not agree")
        bt = b.swapaxes(-1, -2).copy()
        return a @ bt, lambda g: (lambda: g @ bt.T, lambda: (a.T @ g).T)
    return _op(kernel, a, b)


def _propagated(a_hat: np.ndarray, h: np.ndarray, w: np.ndarray, unit: bool):
    """The kernel of both GCN ops: ``a_hat @ (h @ w)``, with each row then
    scaled to unit L2 norm when ``unit`` (see :func:`_unit_rows`)."""
    opname = "propagate_unit" if unit else "propagate"
    if a_hat.ndim != 2 or h.ndim < 2 or w.ndim < 2:
        raise ShapeError(f"{opname} expects 2-D operands")
    if h.shape[-1] != w.shape[-2] or a_hat.shape[1] != h.shape[-2]:
        raise ShapeError(f"{opname}: shapes {a_hat.shape}, {h.shape}, {w.shape} do not chain")
    out, norms, bad = a_hat @ (h @ w), None, None
    if unit:  # a non-finite product leaves a NaN in its unit rows
        out, norms, bad = _unit_rows(out, False, opname)

    def rules(g):
        g_hw = a_hat.T @ (g if norms is None else _unit_rows_grad(g, out, norms, bad))
        return lambda: g_hw @ w.T, lambda: h.T @ g_hw
    return out, rules


def propagate(a_hat: np.ndarray, h, w) -> Node:
    """One graph-convolution step ``a_hat @ (h @ w)`` (Kipf & Welling,
    arXiv 1609.02907): the chain ``matmul(a_hat, matmul(h, w))`` for a fixed
    adjacency ``a_hat``, which gets no gradient and no node."""
    return _op(lambda h, w: _propagated(a_hat, h, w, False), h, w)


def propagate_unit(a_hat: np.ndarray, h, w) -> Node:
    """:func:`propagate`, then each row scaled to unit L2 norm: the chain
    ``normalize_rows(propagate(a_hat, h, w), strict=False)``. A (near-)zero
    row stays zero and passes no gradient."""
    return _op(lambda h, w: _propagated(a_hat, h, w, True), h, w)


def info_nce(x, y, tau: float) -> Node:
    """InfoNCE (van den Oord et al., arXiv 1807.03748) with matched rows as
    positives: ``mean(logsumexp_rows(S) - diag(S))`` for
    ``S = tau * x @ y.T``, the chain transpose, matmul, scale,
    logsumexp_rows, diag_part, sub and mean."""
    tau = float(tau)

    def kernel(x, y):
        if tau <= 0:
            raise ParameterError(f"info_nce needs tau > 0, got {tau}")
        if x.ndim < 2 or x.shape != y.shape:
            raise ShapeError("info_nce operands must be 2-D and share a shape")
        n = x.shape[-2]
        if n == 0:
            raise ShapeError("info_nce of empty operands")
        yt = y.swapaxes(-1, -2).copy()
        sim = x @ yt * tau
        if not all_finite(sim):
            raise NumericError("info_nce: similarities contain NaN or Inf")
        mx = np.maximum.reduce(sim, axis=-1, keepdims=True)
        e = np.exp(sim - mx)
        e_sum = np.add.reduce(e, axis=-1, keepdims=True)
        lse = np.log(e_sum) + mx

        def rules(g):
            g_lse = g / n
            g_sim = e / e_sum * g_lse  # the row softmax, as _softmax computes it
            diag = np.arange(n)
            g_sim[diag, diag] -= g_lse  # diag_part's term (the sum commutes)
            g_xy = g_sim * tau
            return lambda: g_xy @ yt.T, lambda: (x.T @ g_xy).T

        return np.add.reduce(lse[..., 0] - sim.diagonal(0, -2, -1), axis=-1) / n, rules
    return _op(kernel, x, y)


def pearson_cols(a, var_eps: float) -> Node:
    """Symmetric Pearson correlation between the columns of a 2-D node,
    rows as samples: the chain center_cols, transpose, matmul, scale,
    diag_part, sqrt, outer, div, then ``0.5 * (c + c.T)``.

    A column whose variance is not above ``var_eps`` divides by 1 instead,
    its row and column are zeroed and its diagonal entry is 1; those masks
    are data-dependent constants, like a ReLU's.
    """
    def kernel(a):
        _matrix(a, "pearson_cols", True)
        m, d = a.shape[-2:]
        if m == 0:
            raise ShapeError("pearson_cols of an empty matrix")
        inv_m = float(1.0 / m)
        c = a - np.add.reduce(a, axis=-2, keepdims=True) / m  # ndarray.mean
        ct = c.swapaxes(-1, -2).copy()
        cov = ct @ c * inv_m
        var = cov.diagonal(0, -2, -1)
        ok = var > var_eps
        sd = np.sqrt(np.where(ok, var, 1.0))
        den = sd[..., :, None] * sd[..., None, :]  # np.outer
        if not (all_finite(cov) and all_finite(den)):
            raise NumericError("pearson_cols: covariance contains NaN or Inf")
        if (np.abs(den) < EPS_NORM).any():
            raise DegenerateInputError("pearson_cols: standard deviation is (near) zero")
        corr = cov / den
        both = None
        if not ok.all():  # only where a slice has such a column: `+ 0.0` turns -0.0 into +0.0
            both = ok[..., :, None] & ok[..., None, :]  # np.outer
            low = ~ok.all(axis=-1)[..., None, None]
            corr = np.where(low, np.where(both, corr + 0.0, 0.0), corr)
            *lead, bad = np.nonzero(~ok)
            corr[(*lead, bad, bad)] = 1.0

        def rules(g):
            def rule():
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
                return g_c - np.add.reduce(g_c, axis=0, keepdims=True) / m
            return (rule,)

        return (corr + corr.swapaxes(-1, -2)) * 0.5, rules
    return _op(kernel, a)


def dual_softmax(cls, det) -> Node:
    """``softmax_rows(cls) * softmax_cols(det)`` for two same-shape 2-D
    nodes: each entry is a row-wise class probability times a column-wise
    instance probability. ``det`` is the node's first operand because the
    chain's backward reaches it first."""
    def kernel(det, cls):
        if cls.ndim < 2 or cls.shape != det.shape:
            raise ShapeError("dual_softmax expects two 2-D nodes of one shape")
        s_rows, s_cols = _softmax(cls, -1), _softmax(det, -2)
        return s_rows * s_cols, lambda g: (lambda: _softmax_grad(s_cols, g * s_rows, 0),
                                           lambda: _softmax_grad(s_rows, g * s_cols, 1))
    return _op(kernel, det, cls)


def bce_plus_weighted_ce(corr_ins, cls_logits, bg_logits, tags, weights, eps: float) -> Node:
    """The instance loss of the branch's three nodes: image-level binary
    cross-entropy plus weighted instance cross-entropy, ``-sum(tags * log(c)
    + (1 - tags) * log(1 - c)) - sum(weights * log_softmax_rows(s))``, with
    ``c`` the sum-pooled image scores ``sum_cols(corr_ins)`` clamped to
    ``[eps, 1 - eps]`` and ``s`` the (K+1)-way logits ``hconcat(cls_logits,
    bg_logits)``. It is the chain sum_cols and hconcat; then clip, log, mul,
    sub, log, mul, add, total, neg for the first term, log_softmax_rows, mul,
    total, neg for the second, and a final add. ``tags`` and ``weights`` are
    constants.
    """
    tags = np.asarray(tags, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    eps = float(eps)

    def kernel(corr_ins, cls_logits, bg_logits):
        if (corr_ins.ndim < 2 or cls_logits.ndim < 2
                or cls_logits.shape[:-1] != bg_logits.shape[:-1]):
            raise ShapeError("bce_plus_weighted_ce expects 2-D nodes, the logits with equal rows")
        image_scores = np.add.reduce(corr_ins, axis=-2)  # sum_cols
        # hconcat's value; in a replay whose logits are both zero-stride views
        # concatenate lays the stack out in another order, whose sums round apart
        s_logits = np.ascontiguousarray(np.concatenate([cls_logits, bg_logits], axis=-1))
        if (tags.ndim != 1 or weights.ndim != 2 or s_logits.shape[-2:] != weights.shape
                or image_scores.shape != s_logits.shape[:-2] + tags.shape):
            raise ShapeError("bce_plus_weighted_ce: image scores and tags must be 1-D, "
                             "logits and weights 2-D, each pair of one shape")
        if not 0.0 < eps < 0.5:
            raise ParameterError(f"bce_plus_weighted_ce needs 0 < eps < 0.5, got {eps}")
        clamped = np.minimum(np.maximum(image_scores, eps), 1.0 - eps)  # np.clip on finite input
        rest = 1.0 - clamped
        untagged = 1.0 - tags
        image_term = -np.add.reduce(np.log(clamped) * tags + np.log(rest) * untagged, axis=-1)
        log_s = _log_softmax(s_logits, "bce_plus_weighted_ce")
        n_cls = cls_logits.shape[-1]

        def rules(g):
            def scores_rule():
                g_total = -g  # the image total's gradient, through neg
                # the chain's (0 - sub's term) + log's term, bit for bit
                g_clamped = (g_total * tags) / clamped - (g_total * untagged) / rest
                # the scores' interior, then sum_cols' broadcast over the rows
                return (g_clamped * ((clamped > eps) & (clamped < 1.0 - eps)))[None, :]
            g_logits = _log_softmax_grad(log_s, -g * weights)  # hconcat's columns share it
            return scores_rule, lambda: g_logits[:, :n_cls], lambda: g_logits[:, n_cls:]

        return image_term + -np.add.reduce(log_s * weights, axis=(-2, -1)), rules
    return _op(kernel, corr_ins, cls_logits, bg_logits)


def cosine_center_loss(z, targets) -> Node:
    """Mean cosine misalignment ``1 - mean_i(unit(z_i) . targets_i)`` between
    the rows of a 2-D node and constant unit rows: the chain
    normalize_rows (strict), mul, sum_rows, mean and ``sub(1.0, .)``."""
    targets = np.asarray(targets, dtype=np.float64)

    def kernel(z):
        if z.ndim < 2 or z.shape[-2:] != targets.shape:
            raise ShapeError("cosine_center_loss expects two 2-D arrays of one shape")
        m = z.shape[-2]
        if m == 0:
            raise ShapeError("cosine_center_loss of an empty matrix")
        unit, norms, _ = _unit_rows(z, True, "cosine_center_loss")  # strict: no zero row
        value = 1.0 - np.add.reduce(np.add.reduce(unit * targets, axis=-1), axis=-1) / m
        return value, lambda g: (lambda: _unit_rows_grad(-g / m * targets, unit, norms, None),)
    return _op(kernel, z)


def composite_loss(weighted, contrast, lam: float) -> Node:
    """The composite objective over its term nodes: ``reduce(add, [*weighted,
    scale(reduce(add, contrast), lam)])``, the weighted terms in order and
    then the contrast terms summed and scaled by ``lam``, the chain of add
    and scale ops it replaces. With no contrast term it is ``reduce(add,
    weighted)``, and a lone weighted term is returned itself: no node is
    built. Every term must have one shape.
    """
    lam = float(lam)
    terms, n_weighted, n_contrast = (*weighted, *contrast), len(weighted), len(contrast)
    if not n_contrast and n_weighted == 1:
        return as_node(weighted[0])
    if not terms:
        raise ShapeError("composite_loss of no terms")

    def kernel(*values):
        total = values[0]
        for v in values:
            if v.shape != total.shape:
                raise ShapeError("composite_loss: the terms differ in shape")
        for v in values[1:n_weighted]:
            total = total + v
        if n_contrast:
            con = values[n_weighted]
            for v in values[n_weighted + 1 :]:
                con = con + v
            total = con * lam if n_weighted == 0 else total + con * lam
        return total, rules

    def rules(g):  # a weighted term's g is copied; each contrast term gets a fresh g * lam
        return (*(lambda: g,) * n_weighted, *(lambda: g * lam,) * n_contrast)

    return _op(kernel, *terms)
