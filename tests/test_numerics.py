import inspect
import itertools
import warnings

import numpy as np
import pytest

from weakdet import numerics as nm
from weakdet.errors import (
    DegenerateInputError,
    NumericError,
    ParameterError,
    ShapeError,
    UsageError,
)
from weakdet.instance_branch import SCORE_EPS
from weakdet.numerics import Node

import extra_ops as xo
from conftest import finite_difference, graph_nodes, max_rel_err


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    a = Node(np.eye(2))
    b = Node([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(nm.matmul(a, b).value, b.value)


def test_matmul_projector_zero_case():
    p = Node([[1.0, 0.0], [0.0, 0.0]])
    x = Node([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(nm.matmul(p, x).value, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_hand_arithmetic():
    a = Node([[1.0, 2.0], [3.0, 4.0]])
    b = Node([[1.0], [1.0]])
    assert np.array_equal(nm.matmul(a, b).value, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        nm.matmul(Node(np.ones((2, 3))), Node(np.ones((2, 3))))


def test_matmul_backward_rule():
    rng = np.random.default_rng(0)
    a = Node(rng.standard_normal((3, 4)))
    b = Node(rng.standard_normal((4, 2)))
    loss = nm.total(nm.matmul(a, b))
    nm.backward(loss)
    g = np.ones((3, 2))
    assert np.allclose(a.grad, g @ b.value.T)
    assert np.allclose(b.grad, a.value.T @ g)


# ---------------------------------------------------------------- softmax


def test_softmax_symmetric_rows():
    out = nm.softmax_rows(Node([[0.0, 0.0, 0.0]])).value
    assert np.allclose(out, 1.0 / 3.0, atol=1e-15)
    out = nm.softmax_rows(Node([[4.2, 4.2]])).value
    assert np.allclose(out, 0.5, atol=1e-15)


def test_softmax_direct_formula():
    out = nm.softmax_rows(Node([[0.0, np.log(3.0)]])).value
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 5)) * 10
    s1 = nm.softmax_rows(Node(x)).value
    s2 = nm.softmax_rows(Node(x + 123.456)).value
    assert np.abs(s1.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(s1 - s2).max() < 1e-12


def test_softmax_cols_matches_transposed_rows():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 3))
    a = nm.softmax_cols(Node(x)).value
    b = nm.softmax_rows(Node(x.T)).value.T
    assert np.allclose(a, b, atol=1e-15)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericError):
        nm.softmax_rows(Node(np.ones((2, 2))) if False else Node([[np.inf, 0.0]]))


# ---------------------------------------------------------------- smooth max


def test_lse_constant_vector():
    for r in (0.5, 1.0, 10.0):
        out = nm.smooth_max_lse(Node([2.5, 2.5, 2.5]), r)
        assert abs(float(out.value) - 2.5) < 1e-12


def test_lse_singleton():
    assert abs(float(nm.smooth_max_lse(Node([0.7]), 3.0).value) - 0.7) < 1e-15


def test_lse_direct_formula():
    out = nm.smooth_max_lse(Node([0.0, 1.0]), 1.0)
    assert abs(float(out.value) - np.log((1 + np.e) / 2)) < 1e-12


def test_lse_bounds_and_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = rng.standard_normal(int(rng.integers(2, 9)))
        node = Node(s)
        prev = -np.inf
        for r in (0.5, 1.0, 2.0, 4.0, 8.0, 100.0):
            v = float(nm.smooth_max_lse(Node(s), r).value)
            assert s.mean() - 1e-10 <= v <= s.max() + 1e-10
            assert v >= s.max() - np.log(s.size) / r - 1e-10
            assert v >= prev - 1e-12
            prev = v


def test_lse_errors():
    with pytest.raises(ShapeError):
        nm.smooth_max_lse(Node(np.zeros(0)), 1.0)
    with pytest.raises(ParameterError):
        nm.smooth_max_lse(Node([1.0]), 0.0)


# ---------------------------------------------------------------- cosine


def test_cosine_identity_and_orthogonal():
    u = Node([1.0, 2.0, -1.0])
    assert abs(float(xo.cosine(u, Node([1.0, 2.0, -1.0])).value) - 1.0) < 1e-12
    assert abs(float(xo.cosine(Node([1.0, 0.0]), Node([0.0, 3.0])).value)) < 1e-15


def test_cosine_direct_formula():
    c = xo.cosine(Node([1.0, 1.0]), Node([1.0, 0.0]))
    assert abs(float(c.value) - 1.0 / np.sqrt(2)) < 1e-12


def test_cosine_degenerate():
    with pytest.raises(DegenerateInputError):
        xo.cosine(Node([0.0, 0.0]), Node([1.0, 0.0]))


# ---------------------------------------------------------------- backward


def test_backward_linear():
    w = Node(np.array([3.0, -1.0, 2.0]))
    nm.backward(nm.total(w))
    assert np.array_equal(w.grad, np.ones(3))


def test_backward_quadratic_identity():
    w = Node(np.array([1.5, -2.0, 0.25]))
    nm.backward(nm.scale(nm.total(nm.mul(w, w)), 0.5))
    assert np.allclose(w.grad, w.value, atol=1e-15)


def test_backward_requires_scalar_root():
    with pytest.raises(UsageError):
        nm.backward(Node(np.ones(3)))


def test_backward_twice_is_an_error():
    w = Node(np.ones(2))
    loss = nm.total(w)
    nm.backward(loss)
    with pytest.raises(UsageError):
        nm.backward(loss)


def test_backward_visits_shared_nodes_once():
    # b feeds the loss twice; gradient must be 2, not 4 or re-accumulated.
    b = Node(np.array([1.0]))
    loss = nm.total(nm.add(b, b))
    nm.backward(loss)
    assert np.array_equal(b.grad, np.array([2.0]))
    # The same through two different ops, one of them mixing in a constant.
    c = Node(np.array([1.0]))
    nm.backward(nm.total(nm.add(nm.mul(c, np.ones(1)), nm.scale(c, 1.0))))
    assert np.array_equal(c.grad, np.array([2.0]))


def test_raw_array_operand_is_a_constant():
    w = Node(np.array([[1.0, 2.0], [3.0, 4.0]]))
    x = np.array([[0.5, -1.0], [2.0, 0.25]])
    prod = nm.matmul(x, w)
    const = prod.parents[0]
    assert w.requires_grad and not const.requires_grad and prod.requires_grad
    nm.backward(nm.total(prod))
    assert const.grad is None
    assert np.array_equal(w.grad, x.T @ np.ones((2, 2)))


def test_ops_on_constants_only_get_no_gradient():
    w = Node(np.array([1.0, -2.0]))
    fixed = xo.exp(nm.as_node(np.array([0.5, 0.25])))
    assert not fixed.requires_grad
    nm.backward(nm.total(nm.mul(w, fixed)))
    assert fixed.grad is None and fixed.parents[0].grad is None
    assert np.array_equal(w.grad, fixed.value)


def test_grad_is_allocated_only_when_backward_reaches_the_node():
    w = Node(np.array([1.0, 2.0]))
    unused = Node(np.array([3.0]))
    loss = nm.total(nm.scale(w, 2.0))
    assert w.grad is None and loss.grad is None
    nm.backward(loss)
    assert w.grad.shape == w.value.shape
    assert unused.grad is None


def _composite_loss(arrays):
    """A loss touching most ops: softmax, matmul, pooling, lse, cosine, concat."""
    a, b, v = Node(arrays["a"]), Node(arrays["b"]), Node(arrays["v"])
    prod = nm.matmul(a, b)
    sm = nm.softmax_rows(prod)
    pooled = nm.sum_cols(nm.mul(sm, nm.softmax_cols(prod)))
    joined = nm.hconcat(nm.log_softmax_rows(prod), nm.relu(prod))
    cos = xo.cosine(v, nm.sum_cols(sm))
    return (
        nm.add(
            nm.add(nm.total(pooled), nm.mean(joined)),
            nm.add(cos, nm.smooth_max_lse(nm.diag_part(nm.matmul(prod, nm.transpose(prod))), 2.0)),
        ),
        (a, b, v),
    )


@pytest.mark.parametrize("seed", range(10))
def test_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    arrays = {
        "a": rng.standard_normal((4, 3)),
        "b": rng.standard_normal((3, 4)),
        "v": rng.standard_normal(4) + 2.0,
    }
    loss, (a, b, v) = _composite_loss(arrays)
    nm.backward(loss)
    analytic = {"a": a.grad, "b": b.grad, "v": v.grad}
    fd = finite_difference(lambda: float(_composite_loss(arrays)[0].value), arrays)
    for name in arrays:
        assert max_rel_err(analytic[name], fd[name]) < 1e-4


# ---------------------------------------------------------------- misc ops


def test_node_rejects_nonfinite():
    with pytest.raises(NumericError):
        Node([1.0, np.nan])
    with pytest.raises(NumericError):
        xo.exp(Node([1000.0]))  # overflows to inf


def test_overflowing_op_result_raises():
    big = np.full((2, 2), 1e200)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError):
            nm.scale(Node([1e308]), 10.0)
        with pytest.raises(NumericError):
            nm.matmul(Node(big), Node(big))
        with pytest.raises(NumericError):
            nm.matmul(big, Node(big))  # a constant operand does not skip the check


def test_log_domain_error():
    with pytest.raises(NumericError):
        nm.log(Node([0.0]))


def test_clip_gradient_mask():
    x = Node(np.array([-1.0, 0.5, 2.0]))
    nm.backward(nm.total(nm.clip(x, 0.0, 1.0)))
    assert np.array_equal(x.grad, np.array([0.0, 1.0, 0.0]))


def test_normalize_rows_strict_and_fallback():
    with pytest.raises(DegenerateInputError):
        nm.normalize_rows(Node(np.zeros((2, 3))))
    x = Node([[0.0, 0.0], [3.0, 4.0]])
    out = nm.normalize_rows(x, strict=False)
    assert np.array_equal(out.value[0], [0.0, 0.0])
    assert np.allclose(out.value[1], [0.6, 0.8])
    nm.backward(nm.total(nm.mul(out, np.array([[1.0, -2.0], [0.5, 3.0]]))))
    assert np.array_equal(x.grad[0], [0.0, 0.0])


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 4))
    a = nm.log_softmax_rows(Node(x)).value
    b = np.log(nm.softmax_rows(Node(x)).value)
    assert np.abs(a - b).max() < 1e-12


def test_logsumexp_rows_value():
    x = np.array([[0.0, np.log(3.0)], [1.0, 1.0]])
    out = nm.logsumexp_rows(Node(x)).value
    assert abs(out[0] - np.log(4.0)) < 1e-12
    assert abs(out[1] - (1.0 + np.log(2.0))) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_elementwise_ops_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    arrays = {"x": rng.uniform(0.5, 2.0, size=(3, 3)), "y": rng.uniform(0.5, 2.0, size=(3, 3))}

    def build():
        x, y = Node(arrays["x"]), Node(arrays["y"])
        expr = nm.div(nm.mul(nm.sqrt(x), xo.exp(nm.scale(y, 0.3))), nm.add(x, y))
        centered = nm.center_cols(nm.sub(expr, y))
        return nm.mean(nm.mul(centered, centered)), (x, y)

    loss, (x, y) = build()
    nm.backward(loss)
    fd = finite_difference(lambda: float(build()[0].value), arrays)
    assert max_rel_err(x.grad, fd["x"]) < 1e-4
    assert max_rel_err(y.grad, fd["y"]) < 1e-4


def test_outer_backward():
    u = Node(np.array([1.0, 2.0]))
    v = Node(np.array([3.0, 4.0, 5.0]))
    weights = np.arange(6.0).reshape(2, 3)
    nm.backward(nm.total(nm.mul(nm.outer(u, v), Node(weights))))
    assert np.allclose(u.grad, weights @ v.value)
    assert np.allclose(v.grad, weights.T @ u.value)


# ---------------------------------------------------------------- fused ops
#
# Each fused op must equal the chain of elementary ops it replaces byte for
# byte, in value and in every operand's gradient. The chains live only here,
# as oracles.

VAR_EPS = 1e-12


def chain_propagate(a_hat, h, w):
    return nm.matmul(a_hat, nm.matmul(h, w))


def chain_info_nce(x, y, tau):
    sim = nm.scale(nm.matmul(x, nm.transpose(y)), tau)
    return nm.mean(nm.sub(nm.logsumexp_rows(sim), nm.diag_part(sim)))


def chain_pearson_cols(z, var_eps):
    """The 12-node correlation (16 with a degenerate column) that
    ``pearson_cols`` replaces."""
    z = nm.as_node(z)
    m = z.value.shape[0]
    centered = nm.center_cols(z)
    cov = nm.scale(nm.matmul(nm.transpose(centered), centered), 1.0 / m)
    var = nm.diag_part(cov)
    ok = var.value > var_eps
    if ok.all():
        corr = nm.div(cov, nm.outer(nm.sqrt(var), nm.sqrt(var)))
    else:
        okf = ok.astype(np.float64)
        var_safe = nm.add(nm.mul(var, okf), 1.0 - okf)
        denom = nm.outer(nm.sqrt(var_safe), nm.sqrt(var_safe))
        corr = nm.mul(nm.div(cov, denom), np.outer(okf, okf))
        corr = nm.add(corr, np.diag(1.0 - okf))
    return nm.scale(nm.add(corr, nm.transpose(corr)), 0.5)


def chain_dual_softmax(cls, det):
    return nm.mul(nm.softmax_rows(cls), nm.softmax_cols(det))


def chain_matmul_nt(a, b):
    return nm.matmul(a, nm.transpose(b))


def chain_propagate_unit(a_hat, h, w):
    return nm.normalize_rows(nm.propagate(a_hat, h, w), strict=False)


def chain_bce_plus_weighted_ce(image_scores, s_logits, tags, weights):
    """The 14-op, 4-constant instance loss that ``bce_plus_weighted_ce``
    replaces."""
    clamped = nm.clip(image_scores, SCORE_EPS, 1.0 - SCORE_EPS)
    pos = nm.mul(nm.log(clamped), tags)
    negv = nm.mul(nm.log(nm.sub(np.ones_like(tags), clamped)), 1.0 - tags)
    image_term = nm.neg(nm.total(nm.add(pos, negv)))
    instance_term = nm.neg(nm.total(nm.mul(nm.log_softmax_rows(s_logits), weights)))
    return nm.add(image_term, instance_term)


def chain_cosine_center_loss(z, targets):
    cos = nm.sum_rows(nm.mul(nm.normalize_rows(z, strict=True), targets))
    return nm.sub(1.0, nm.mean(cos))


def _adjacency(rng, m):
    """A normalized adjacency with self-loops, as the graph builders make."""
    adj = (rng.random((m, m)) < 0.4).astype(np.float64)
    adj = np.maximum(adj, adj.T)
    np.fill_diagonal(adj, 0.0)
    a = adj + np.eye(m)
    inv_sqrt_deg = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]


def _loss_operands(rng, m, k=4):
    """Image scores (one below eps and one above 1 - eps, so the clamp
    bites), (K+1)-way logits, tags and a one-entry-per-row weight mask."""
    scores = rng.uniform(0.0, 1.0, k)
    scores[0], scores[-1] = 1e-9, 1.0
    tags = (rng.random(k) < 0.5).astype(np.float64)
    tags[0] = 1.0
    weights = np.zeros((m, k + 1))
    weights[np.arange(m), rng.integers(0, k + 1, m)] = rng.uniform(0.0, 1.0, m)
    return [scores, rng.standard_normal((m, k + 1)), tags, weights]


def _unit_rows(rng, m, d):
    rows = rng.standard_normal((m, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# name: (fused, chain, operands(rng, rows), indices of operands that may be
# differentiable). Adjacencies, tags, weight masks and center targets are
# always raw arrays.
FUSED = {
    "propagate": (
        lambda a, h, w: nm.propagate(a, h, w),
        chain_propagate,
        lambda rng, m: [_adjacency(rng, m), rng.standard_normal((m, 5)), rng.standard_normal((5, 3))],
        (1, 2),
    ),
    "info_nce": (
        lambda x, y: nm.info_nce(x, y, 5.0),
        lambda x, y: chain_info_nce(x, y, 5.0),
        lambda rng, m: [rng.standard_normal((m, 4)), rng.standard_normal((m, 4))],
        (0, 1),
    ),
    "pearson_cols": (
        lambda z: nm.pearson_cols(z, VAR_EPS),
        lambda z: chain_pearson_cols(z, VAR_EPS),
        lambda rng, m: [rng.standard_normal((m, 5))],
        (0,),
    ),
    "dual_softmax": (
        lambda c, d: nm.dual_softmax(c, d),
        chain_dual_softmax,
        lambda rng, m: [rng.standard_normal((m, 4)), rng.standard_normal((m, 4))],
        (0, 1),
    ),
    "matmul_nt": (
        lambda a, b: nm.matmul_nt(a, b),
        chain_matmul_nt,
        lambda rng, m: [rng.standard_normal((m, 4)), rng.standard_normal((3, 4))],
        (0, 1),
    ),
    "propagate_unit": (
        lambda a, h, w: nm.propagate_unit(a, h, w),
        chain_propagate_unit,
        lambda rng, m: [_adjacency(rng, m), rng.standard_normal((m, 5)), rng.standard_normal((5, 3))],
        (1, 2),
    ),
    "bce_plus_weighted_ce": (
        lambda i, s, t, w: nm.bce_plus_weighted_ce(i, s, t, w, SCORE_EPS),
        chain_bce_plus_weighted_ce,
        _loss_operands,
        (0, 1),
    ),
    "cosine_center_loss": (
        lambda z, c: nm.cosine_center_loss(z, c),
        chain_cosine_center_loss,
        lambda rng, m: [rng.standard_normal((m, 4)), _unit_rows(rng, m, 4)],
        (0,),
    ),
}


def _probe_weights(shape):
    """Fixed weights of both signs, so no operand gets a uniform gradient."""
    n = int(np.prod(shape))
    return np.cos(1.7 * np.arange(1, n + 1)).reshape(shape)


def _probe(out):
    return nm.total(nm.mul(out, _probe_weights(out.value.shape)))


def _run(name, arrays, grad_idx, fused, share=False, same_operand=False):
    """Value of the op and gradients of its differentiable operands.

    Operands outside ``grad_idx`` stay raw arrays (constants). With
    ``share``, every leaf also feeds an op created before the op under test
    and one created after it, so its gradient sums three contributions and
    their order counts. With ``same_operand``, one leaf is passed for every
    operand.
    """
    fn = FUSED[name][0] if fused else FUSED[name][1]
    ops = [Node(a.copy()) if i in grad_idx else a.copy() for i, a in enumerate(arrays)]
    if same_operand:
        ops = [ops[grad_idx[0]]] * len(ops)
    leaves = list({id(ops[i]): ops[i] for i in grad_idx}.values())
    terms = [_probe(nm.scale(leaf, 0.7)) for leaf in leaves] if share else []
    out = fn(*ops)
    terms.append(_probe(out))
    if share:
        terms += [_probe(nm.mul(leaf, leaf)) for leaf in leaves]
    loss = terms[0]
    for t in terms[1:]:
        loss = nm.add(loss, t)
    if loss.requires_grad:
        nm.backward(loss)
    return out.value, [leaf.grad for leaf in leaves]


def _assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _assert_fused_equals_chain(name, arrays, grad_idx, **kw):
    value, grads = _run(name, arrays, grad_idx, fused=True, **kw)
    value_ref, grads_ref = _run(name, arrays, grad_idx, fused=False, **kw)
    _assert_same_bytes(value, value_ref)
    assert len(grads) == len(grads_ref)
    for g, g_ref in zip(grads, grads_ref):
        _assert_same_bytes(g, g_ref)


@pytest.mark.parametrize("name", sorted(FUSED))
@pytest.mark.parametrize("seed", range(8))
def test_fused_op_is_bitwise_its_chain(name, seed):
    rng = np.random.default_rng(500 + seed)
    arrays = FUSED[name][2](rng, int(rng.integers(2, 9)))
    grad_idx = FUSED[name][3]
    _assert_fused_equals_chain(name, arrays, grad_idx)
    _assert_fused_equals_chain(name, arrays, grad_idx, share=True)


# The shapes of a training bag-step (15 to 30 proposals, D = 32, hidden
# width 32, embeddings 16, K = 6). At some of these widths and row counts
# BLAS rounds a product with a transposed view differently from one with a
# contiguous copy, which the small cases above do not reach.
TRAINING_SHAPES = {
    "propagate": lambda rng, m: [_adjacency(rng, m), rng.standard_normal((m, 32)),
                                 rng.standard_normal((32, 16))],
    "info_nce": lambda rng, m: [rng.standard_normal((m, 16)), rng.standard_normal((m, 16))],
    "pearson_cols": lambda rng, m: [rng.standard_normal((m, 6))],
    "dual_softmax": lambda rng, m: [rng.standard_normal((m, 6)), rng.standard_normal((m, 6))],
    "matmul_nt": lambda rng, m: [rng.standard_normal((m, 32)), rng.standard_normal((6, 32))],
    "propagate_unit": lambda rng, m: [_adjacency(rng, m), rng.standard_normal((m, 32)),
                                      rng.standard_normal((32, 16))],
    "bce_plus_weighted_ce": lambda rng, m: _loss_operands(rng, m, 6),
    "cosine_center_loss": lambda rng, m: [rng.standard_normal((m, 6)), _unit_rows(rng, m, 6)],
}


@pytest.mark.parametrize("name", sorted(FUSED))
@pytest.mark.parametrize("m", [9, 12, 17, 22, 30])
def test_fused_op_is_bitwise_its_chain_at_training_shapes(name, m):
    arrays = TRAINING_SHAPES[name](np.random.default_rng(550 + m), m)
    _assert_fused_equals_chain(name, arrays, FUSED[name][3], share=True)


@pytest.mark.parametrize("name", ["info_nce", "dual_softmax", "matmul_nt"])
def test_fused_op_with_one_leaf_for_both_operands(name):
    rng = np.random.default_rng(41)
    arrays = FUSED[name][2](rng, 5)
    _assert_fused_equals_chain(name, arrays, (0, 1), same_operand=True)
    _assert_fused_equals_chain(name, arrays, (0, 1), same_operand=True, share=True)


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_with_constant_operands(name):
    rng = np.random.default_rng(42)
    arrays = FUSED[name][2](rng, 4)
    candidates = FUSED[name][3]
    for r in range(len(candidates)):
        for grad_idx in itertools.combinations(candidates, r):
            _assert_fused_equals_chain(name, arrays, grad_idx, share=True)
    fused = FUSED[name][0](*arrays)
    assert not fused.requires_grad  # constants only: no gradient to give


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_on_one_row(name):
    rng = np.random.default_rng(43)
    arrays = FUSED[name][2](rng, 1)
    _assert_fused_equals_chain(name, arrays, FUSED[name][3], share=True)


def _backward_from(out, upstream):
    """``nm.backward``'s walk, seeded at ``out`` with any upstream gradient.

    ``nm.backward`` starts from a scalar 1.0; this is how the ops' rules meet
    -0.0 from upstream, which an intermediate buffer can hold.
    """
    reached = {}
    stack = [out]
    while stack:
        for p in stack.pop().parents:
            if p.requires_grad and p._order not in reached:
                reached[p._order] = p
                stack.append(p)
    out._backward(upstream)
    for key in sorted(reached, reverse=True):
        if reached[key]._backward is not None:
            reached[key]._backward(reached[key].grad)


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_with_negative_zero_upstream(name):
    rng = np.random.default_rng(44)
    arrays = FUSED[name][2](rng, 5)
    fused_fn, chain_fn, _, grad_idx = FUSED[name]
    shape = fused_fn(*arrays).value.shape
    mixed = rng.standard_normal(shape)
    mixed[rng.random(shape) < 0.5] = -0.0
    for upstream in (np.full(shape, -0.0), mixed, np.zeros(shape)):
        grads = []
        for fn in (fused_fn, chain_fn):
            ops = [Node(a.copy()) if i in grad_idx else a.copy() for i, a in enumerate(arrays)]
            _backward_from(fn(*ops), upstream.copy())
            grads.append([ops[i].grad for i in grad_idx])
        for g, g_ref in zip(*grads):
            _assert_same_bytes(g, g_ref)


@pytest.mark.parametrize("seed", range(4))
def test_pearson_cols_degenerate_columns(seed):
    rng = np.random.default_rng(600 + seed)
    z = rng.standard_normal((6, 5))
    z[:, 1] = 2.5  # constant column
    z[:, 3] = 1.0 + 1e-8 * rng.standard_normal(6)  # variance below VAR_EPS
    _assert_fused_equals_chain("pearson_cols", [z], (0,), share=True)
    corr = nm.pearson_cols(z, VAR_EPS).value
    for k in (1, 3):
        expected = np.zeros(5)
        expected[k] = 1.0
        assert np.array_equal(corr[k], expected) and np.array_equal(corr[:, k], expected)
    flat = np.full((4, 3), 7.0)
    _assert_fused_equals_chain("pearson_cols", [flat], (0,), share=True)
    assert np.array_equal(nm.pearson_cols(flat, VAR_EPS).value, np.eye(3))


# A fused op computes what only its backward reads inside the backward rule,
# from arrays its forward made: a leaf's value may be a view into the flat
# parameter vector, which the gradient audit writes in place after building
# the graph. name: (operands overwritten after the forward, operands whose
# gradient must not change).
DEFERRED = {
    "bce_plus_weighted_ce": ((0, 1), (0, 1)),  # the clamp's mask, the softmax
    "pearson_cols": ((0,), (0,)),  # the centred columns, two_sd, the diagonal
    "info_nce": ((1,), (0,)),  # the row softmax, y's transposed copy
}


@pytest.mark.parametrize("name", sorted(DEFERRED))
def test_backward_reads_no_operand_overwritten_after_the_forward(name):
    overwritten, held = DEFERRED[name]
    fused_fn, _, operands, grad_idx = FUSED[name]
    rng = np.random.default_rng(48)
    arrays = operands(rng, 6)
    grads = []
    for overwrite in (False, True):
        ops = [Node(a.copy()) if i in grad_idx else a.copy() for i, a in enumerate(arrays)]
        loss = _probe(fused_fn(*ops))
        if overwrite:  # inside the clamp's interior, where the scores were not
            for i in overwritten:
                ops[i].value[...] = rng.uniform(0.2, 0.8, ops[i].value.shape)
        nm.backward(loss)
        grads.append([ops[i].grad for i in held])
    for g, g_ref in zip(*grads):
        _assert_same_bytes(g, g_ref)


def test_propagate_unit_keeps_a_zero_row_at_zero():
    rng = np.random.default_rng(45)
    a_hat = _adjacency(rng, 5)
    a_hat[0, :] = a_hat[:, 0] = 0.0
    a_hat[0, 0] = 1.0  # an isolated node...
    h = rng.standard_normal((5, 3))
    h[0] = 0.0  # ...with zero features propagates to a zero row
    w = rng.standard_normal((3, 2))
    _assert_fused_equals_chain("propagate_unit", [a_hat, h, w], (1, 2), share=True)
    out = nm.propagate_unit(a_hat, h, w).value
    assert np.array_equal(out[0], [0.0, 0.0])
    assert np.allclose(np.linalg.norm(out[1:], axis=1), 1.0)
    leaf = Node(h)
    nm.backward(_probe(nm.propagate_unit(a_hat, leaf, w)))
    assert np.array_equal(leaf.grad[0], np.zeros(3))  # the zero row passes no gradient


def test_fused_ops_raise_on_overflow():
    big = np.full((2, 2), 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            nm.propagate(np.eye(2), Node(big), Node(big))
        with pytest.raises(NumericError):
            nm.propagate_unit(np.eye(2), Node(big), Node(big))
        with pytest.raises(NumericError):
            nm.propagate_unit(np.full((2, 2), 1e200), Node(np.eye(2)), Node(big))
        with pytest.raises(NumericError):
            nm.info_nce(Node([[1e200, 0.0]]), Node([[1e200, 0.0]]), 1.0)
        with pytest.raises(NumericError):
            nm.pearson_cols(Node([[1e200], [-1e200]]), VAR_EPS)
        with pytest.raises(NumericError):
            nm.matmul_nt(Node(big), Node(big))
    # dual_softmax multiplies two factors in [0, 1], so it cannot overflow;
    # a non-finite operand is rejected before it runs.
    with pytest.raises(NumericError):
        nm.dual_softmax(np.array([[np.inf, 0.0]]), Node(np.zeros((1, 2))))


def test_fused_op_argument_errors():
    with pytest.raises(ShapeError):
        nm.propagate(np.eye(3), Node(np.ones((2, 2))), Node(np.ones((2, 2))))
    with pytest.raises(ShapeError):
        nm.propagate_unit(np.eye(2), Node(np.ones((2, 3))), Node(np.ones((2, 2))))
    with pytest.raises(ParameterError):
        nm.info_nce(Node(np.ones((2, 2))), Node(np.ones((2, 2))), 0.0)
    with pytest.raises(ShapeError):
        nm.info_nce(Node(np.ones((2, 2))), Node(np.ones((3, 2))), 1.0)
    with pytest.raises(ShapeError):
        nm.pearson_cols(Node(np.ones(3)), VAR_EPS)
    with pytest.raises(ShapeError):
        nm.dual_softmax(Node(np.ones((2, 3))), Node(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        nm.matmul_nt(Node(np.ones((2, 3))), Node(np.ones((3, 2))))
    scores, logits, tags, weights = _loss_operands(np.random.default_rng(0), 3)
    with pytest.raises(ShapeError):
        nm.bce_plus_weighted_ce(scores, logits, tags[:-1], weights, SCORE_EPS)
    with pytest.raises(ShapeError):
        nm.bce_plus_weighted_ce(scores, logits, tags, weights[:, :-1], SCORE_EPS)
    for eps in (0.0, 0.5):
        with pytest.raises(ParameterError):
            nm.bce_plus_weighted_ce(scores, logits, tags, weights, eps)
    with pytest.raises(ShapeError):
        nm.cosine_center_loss(Node(np.ones((2, 3))), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        nm.cosine_center_loss(Node(np.ones((0, 3))), np.ones((0, 3)))
    zero_row = np.array([[1.0, 0.0], [0.0, 0.0]])
    for fn in (nm.cosine_center_loss, chain_cosine_center_loss):
        with pytest.raises(DegenerateInputError):
            fn(Node(zero_row), np.eye(2))


# ---------------------------------------------------------------- lazy buffers
#
# backward makes a node's first gradient contribution its buffer instead of
# adding it to zeros. Against the zero-filled engine it replaced, every leaf
# must hold the same bytes, and no buffer may share memory with another
# buffer or a value, whether the first contribution is fresh, a broadcast
# (total, mean, sum_rows, sum_cols), a view (a transpose, hconcat's column
# slices) or the upstream gradient itself (add).


def _zero_filled_backward(loss):
    """The previous engine: every reached node gets a +0.0 buffer first, so
    each rule adds into zeros."""
    reached = {loss._order: loss}
    stack = [loss]
    while stack:
        for p in stack.pop().parents:
            if p.requires_grad and p._order not in reached:
                reached[p._order] = p
                stack.append(p)
                if p.grad is None:
                    p.grad = np.zeros(p.value.shape)
    loss.grad = np.ones_like(loss.value)
    for key in sorted(reached, reverse=True):
        if reached[key]._backward is not None:
            reached[key]._backward(reached[key].grad)


_OTHER = np.random.default_rng(47).standard_normal((5, 4))

FIRST_CONTRIBUTIONS = {
    "total": lambda w: nm.total(w),
    "total_into_an_op": lambda w: nm.total(nm.relu(w)),
    "mean": lambda w: nm.mean(nm.scale(w, 2.0)),
    "sum_rows": lambda w: _probe(nm.sum_rows(w)),
    "sum_cols": lambda w: _probe(nm.sum_cols(w)),
    "transpose": lambda w: _probe(nm.transpose(w)),
    "transpose_into_an_op": lambda w: _probe(nm.transpose(nm.scale(w, -0.5))),
    "hconcat": lambda w: _probe(nm.hconcat(w, nm.relu(w))),
    "add_one_leaf_twice": lambda w: _probe(nm.add(w, w)),
    "add_two_ops": lambda w: _probe(nm.add(nm.relu(w), nm.scale(w, 3.0))),
    "matmul_nt_right": lambda w: _probe(nm.matmul_nt(_OTHER, w)),
    "info_nce_right": lambda w: nm.info_nce(_OTHER[:3], w, 2.0),
    # relu passes -1 * False = -0.0, which the leaf must store as +0.0
    "negative_zeros": lambda w: nm.total(nm.mul(nm.relu(w), -np.ones(w.value.shape))),
}


@pytest.mark.parametrize("case", sorted(FIRST_CONTRIBUTIONS))
def test_lazy_buffers_match_zero_filled_backward(case):
    value = np.random.default_rng(46).standard_normal((3, 4))
    build = FIRST_CONTRIBUTIONS[case]
    ref = Node(value.copy())
    _zero_filled_backward(build(ref))
    leaf = Node(value.copy())
    loss = build(leaf)
    nm.backward(loss)
    _assert_same_bytes(leaf.grad, ref.grad)
    assert not np.signbit(leaf.grad[leaf.grad == 0.0]).any()
    nodes = [n for n in graph_nodes(loss) if n.grad is not None]
    for node in nodes:
        assert type(node.grad) is np.ndarray and node.grad.flags.c_contiguous
        assert node.grad.shape == node.value.shape
    for i, a in enumerate(nodes):
        others = [n.value for n in nodes] + [n.grad for n in nodes[i + 1 :]]
        assert not any(np.shares_memory(a.grad, o) for o in others), case


def test_lazy_buffers_accumulate_across_graphs():
    """A leaf that already holds a gradient adds the next graph's into it."""
    value = np.random.default_rng(48).standard_normal((3, 4))
    grads = []
    for run in (nm.backward, _zero_filled_backward):
        leaf = Node(value.copy())
        run(_probe(nm.transpose(leaf)))
        run(nm.total(nm.relu(leaf)))
        grads.append(leaf.grad)
    _assert_same_bytes(*grads)


# ---------------------------------------------------------------- audit
#
# Every op runs here against central differences, through
# loss = sum(op(...) * fixed weights). A case is "<op>" or "<op>/<variant>";
# the cases of the ops in extra_ops live there.

FIXED_ADJACENCY = _adjacency(np.random.default_rng(5), 4)
FD_TAGS = np.array([1.0, 0.0, 1.0, 0.0])
FD_WEIGHTS = np.array(
    [[0.7, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.4], [0.0, 0.0, 0.9, 0.0, 0.0]]
)
FD_TARGETS = _unit_rows(np.random.default_rng(6), 4, 3)


def _normal(rng, *shape):
    return rng.standard_normal(shape)


def _positive(rng, *shape):
    return rng.uniform(0.5, 2.0, size=shape)


def _off_kinks(rng, *shape):
    """Entries at least 0.1 from 0, +-0.1 and +-0.9 (relu and clip kinks)."""
    return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.2, 0.8, size=shape)


FD_CASES = {
    "add": (lambda r: [_normal(r, 3, 4), _normal(r, 3, 4)], lambda a, b: nm.add(a, b)),
    "sub": (lambda r: [_normal(r, 3, 4), _normal(r, 3, 4)], lambda a, b: nm.sub(a, b)),
    "neg": (lambda r: [_normal(r, 3, 4)], lambda a: nm.neg(a)),
    "mul": (lambda r: [_normal(r, 3, 4), _normal(r, 3, 4)], lambda a, b: nm.mul(a, b)),
    "div": (lambda r: [_normal(r, 3, 4), _positive(r, 3, 4)], lambda a, b: nm.div(a, b)),
    "scale": (lambda r: [_normal(r, 3, 4)], lambda a: nm.scale(a, -1.7)),
    "matmul": (lambda r: [_normal(r, 3, 4), _normal(r, 4, 2)], lambda a, b: nm.matmul(a, b)),
    "transpose": (lambda r: [_normal(r, 3, 4)], lambda a: nm.transpose(a)),
    "hconcat": (lambda r: [_normal(r, 3, 2), _normal(r, 3, 4)], lambda a, b: nm.hconcat(a, b)),
    "relu": (lambda r: [_off_kinks(r, 3, 4)], lambda a: nm.relu(a)),
    "log": (lambda r: [_positive(r, 3, 4)], lambda a: nm.log(a)),
    "sqrt": (lambda r: [_positive(r, 3, 4)], lambda a: nm.sqrt(a)),
    "clip": (lambda r: [_off_kinks(r, 3, 4)], lambda a: nm.clip(a, -0.1, 0.9)),
    "total": (lambda r: [_normal(r, 3, 4)], lambda a: nm.total(a)),
    "mean": (lambda r: [_normal(r, 3, 4)], lambda a: nm.mean(a)),
    "sum_rows": (lambda r: [_normal(r, 3, 4)], lambda a: nm.sum_rows(a)),
    "sum_cols": (lambda r: [_normal(r, 3, 4)], lambda a: nm.sum_cols(a)),
    "diag_part": (lambda r: [_normal(r, 4, 4)], lambda a: nm.diag_part(a)),
    "outer": (lambda r: [_normal(r, 3), _normal(r, 4)], lambda u, v: nm.outer(u, v)),
    "center_cols": (lambda r: [_normal(r, 4, 3)], lambda a: nm.center_cols(a)),
    "softmax_rows": (lambda r: [_normal(r, 3, 4)], lambda a: nm.softmax_rows(a)),
    "softmax_cols": (lambda r: [_normal(r, 3, 4)], lambda a: nm.softmax_cols(a)),
    "log_softmax_rows": (lambda r: [_normal(r, 3, 4)], lambda a: nm.log_softmax_rows(a)),
    "logsumexp_rows": (lambda r: [_normal(r, 3, 4)], lambda a: nm.logsumexp_rows(a)),
    "smooth_max_lse": (lambda r: [_normal(r, 5)], lambda a: nm.smooth_max_lse(a, 2.0)),
    "normalize_rows": (lambda r: [_normal(r, 3, 4)], lambda a: nm.normalize_rows(a)),
    "matmul_nt": (lambda r: [_normal(r, 3, 4), _normal(r, 2, 4)], lambda a, b: nm.matmul_nt(a, b)),
    "propagate": (
        lambda r: [_normal(r, 4, 3), _normal(r, 3, 2)],
        lambda h, w: nm.propagate(FIXED_ADJACENCY, h, w),
    ),
    "propagate_unit": (
        lambda r: [_normal(r, 4, 3), _normal(r, 3, 2)],
        lambda h, w: nm.propagate_unit(FIXED_ADJACENCY, h, w),
    ),
    "info_nce": (lambda r: [_normal(r, 4, 3), _normal(r, 4, 3)], lambda x, y: nm.info_nce(x, y, 2.0)),
    "pearson_cols": (lambda r: [_normal(r, 6, 4)], lambda z: nm.pearson_cols(z, VAR_EPS)),
    # A column with variance below 1e-6 stays degenerate under a 1e-4 step.
    "pearson_cols/degenerate": (
        lambda r: [np.hstack([_normal(r, 6, 3), np.full((6, 1), 0.5)])],
        lambda z: nm.pearson_cols(z, 1e-6),
    ),
    "dual_softmax": (lambda r: [_normal(r, 4, 3), _normal(r, 4, 3)], lambda c, d: nm.dual_softmax(c, d)),
    "bce_plus_weighted_ce": (
        lambda r: [r.uniform(0.1, 0.9, 4), _normal(r, 3, 5)],
        lambda i, s: nm.bce_plus_weighted_ce(i, s, FD_TAGS, FD_WEIGHTS, SCORE_EPS),
    ),
    # Scores clamped from either side stay clamped under a 1e-4 step.
    "bce_plus_weighted_ce/clamped": (
        lambda r: [np.array([-0.5, r.uniform(0.1, 0.9), 1.5, r.uniform(0.1, 0.9)]), _normal(r, 3, 5)],
        lambda i, s: nm.bce_plus_weighted_ce(i, s, FD_TAGS, FD_WEIGHTS, SCORE_EPS),
    ),
    "cosine_center_loss": (
        lambda r: [_normal(r, 4, 3)],
        lambda z: nm.cosine_center_loss(z, FD_TARGETS),
    ),
    **xo.FD_CASES,
}


def _home(op):
    """The module that defines ``op``."""
    return nm if op in vars(nm) else xo


@pytest.mark.parametrize("case", sorted(FD_CASES))
@pytest.mark.parametrize("seed", range(3))
def test_op_matches_finite_differences(case, seed, monkeypatch):
    op = case.split("/")[0]
    calls = []
    original = getattr(_home(op), op)

    def counted(*args, **kwargs):
        calls.append(op)
        return original(*args, **kwargs)

    monkeypatch.setattr(_home(op), op, counted)
    make, build = FD_CASES[case]
    arrays = {str(i): a for i, a in enumerate(make(np.random.default_rng(700 + seed)))}

    def loss_and_leaves():
        leaves = [Node(arrays[k]) for k in sorted(arrays)]
        return _probe(build(*leaves)), leaves

    loss, leaves = loss_and_leaves()
    nm.backward(loss)
    assert calls, f"case {case!r} never calls {op}"
    fd = finite_difference(lambda: float(loss_and_leaves()[0].value), arrays)
    for k, leaf in zip(sorted(arrays), leaves):
        assert max_rel_err(leaf.grad, fd[k]) < 1e-4, (case, k)


def _public_ops(module):
    return {
        name
        for name, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not name.startswith("_")
        and fn.__annotations__.get("return") in ("Node", Node)
    } - {"as_node"}  # as_node wraps a value; it builds no op


def test_every_op_joins_the_finite_difference_audit():
    ops = _public_ops(nm) | _public_ops(xo)
    assert {"matmul", "propagate", "info_nce", "pearson_cols", "dual_softmax"} <= ops
    assert {"matmul_nt", "propagate_unit", "bce_plus_weighted_ce", "cosine_center_loss"} <= ops
    assert {"exp", "cosine"} == _public_ops(xo)
    audited = {case.split("/")[0] for case in FD_CASES}
    assert ops - audited == set(), "ops without a finite-difference case"


# ---------------------------------------------------------------- replay


def _nudge(arr, rng, delta):
    """Add ``delta`` to one random entry of ``arr`` in place; returns the
    undo."""
    idx = tuple(int(rng.integers(s)) for s in arr.shape)
    orig = arr[idx]
    arr[idx] = orig + delta

    def undo():
        arr[idx] = orig

    return undo


@pytest.mark.parametrize("case", sorted(FD_CASES))
def test_every_op_records_itself_and_replays_like_a_rebuild(case):
    op = case.split("/")[0]
    make, build = FD_CASES[case]
    arrays = make(np.random.default_rng(900))
    leaves = [Node(a) for a in arrays]
    out = build(*leaves)
    recorded_op, operands = out._record
    assert recorded_op is getattr(_home(op), op)
    assert [a for a in operands if isinstance(a, Node)] == leaves
    before = out.value.copy()
    rng = np.random.default_rng(901)
    for arr in arrays:
        plan = nm.replay([out], arr)
        for _ in range(2):  # one plan serves successive writes
            undo = _nudge(arr, rng, 0.05)
            (got,) = plan.run()
            _assert_same_bytes(got, build(*[Node(a) for a in arrays]).value)
            undo()
    _assert_same_bytes(out.value, before)


@pytest.mark.parametrize("name", sorted(FUSED))
@pytest.mark.parametrize("as_leaf", (True, False))
def test_replay_through_each_chain_equals_a_rebuild(name, as_leaf):
    """The elementary ops the oracles compose replay too, whether the changed
    array is a leaf or a constant made by ``as_node``."""
    fused, chain, make, grad_idx = FUSED[name]
    rng = np.random.default_rng(910)
    arrays = make(rng, 5)

    def operands():
        return [Node(a) if as_leaf and i in grad_idx else a for i, a in enumerate(arrays)]

    for fn in (fused, chain):
        out = fn(*operands())
        for i in grad_idx:
            plan = nm.replay([out], arrays[i])
            for _ in range(2):
                undo = _nudge(arrays[i], rng, 0.01)
                (got,) = plan.run()
                _assert_same_bytes(got, fn(*operands()).value)
                undo()


def test_replay_reruns_only_what_the_change_reaches():
    a, b = np.arange(6.0).reshape(2, 3) - 2.0, np.ones((3, 2))

    def build(la, lb):
        left = nm.relu(la)
        return nm.add(nm.matmul(left, lb), nm.scale(nm.matmul(la, lb), 2.0)), left

    out, left = build(Node(a), Node(b))
    plan_b, plan_a = nm.replay([out, left], b), nm.replay([out, left], a)
    # leaf b, matmul, matmul, scale, add: relu(a) does not read b
    assert [op for op, _, _ in plan_b.steps] == [Node, nm.matmul, nm.matmul, nm.scale, nm.add]
    b[0, 0] = 3.0
    got = plan_b.run()
    assert got[1] is left.value
    _assert_same_bytes(got[0], build(Node(a), Node(b))[0].value)
    a[0, 0] = 5.0  # flips relu's mask
    got = plan_a.run()
    rebuilt = build(Node(a), Node(b))
    _assert_same_bytes(got[0], rebuilt[0].value)
    _assert_same_bytes(got[1], rebuilt[1].value)


def test_a_plan_over_an_array_no_root_reaches_has_no_steps():
    a = np.arange(4.0).reshape(2, 2)
    out, other = nm.relu(Node(a)), np.ones(1)
    plan = nm.replay([out], other)  # an array no node holds
    assert plan.steps == []
    other[0] = 7.0
    (same,) = plan.run()
    assert same is out.value
    a[0, 0] = -3.0  # a plan re-runs only its steps, even when other arrays change
    assert plan.run()[0] is out.value


def test_replay_raises_what_a_rebuild_raises():
    a = np.ones((2, 2))
    out = nm.sqrt(nm.scale(Node(a), 1.0))
    plan = nm.replay([out], a)  # the checks belong to the run, not the plan
    a[0, 0] = -1.0
    with pytest.raises(NumericError, match="sqrt"):
        plan.run()
    a[0, 0] = np.inf
    with pytest.raises(NumericError, match="NaN or Inf"):
        plan.run()
    a[0, 0] = 4.0
    _assert_same_bytes(plan.run()[0], nm.sqrt(nm.scale(Node(a), 1.0)).value)


def test_replay_rejects_an_op_result_without_a_record():
    a = np.ones((2, 2))
    leaf = Node(a)
    out = nm.total(Node(leaf.value * 2.0, (leaf,)))
    with pytest.raises(UsageError, match="record"):
        nm.replay([out], a)
    # also when the record-less node does not depend on the changed array
    with pytest.raises(UsageError, match="record"):
        nm.replay([out], np.ones(1))


def _all_finite_cases():
    rng = np.random.default_rng(5)
    base = rng.standard_normal((22, 32))
    for bad in (np.nan, np.inf, -np.inf):
        arr = base.copy()
        arr[3, 7] = bad
        yield arr
        yield arr.T  # not C-contiguous
    both = base.copy()
    both[0, 0], both[1, 1] = np.inf, -np.inf  # opposite infinities
    yield both
    yield np.full((4, 5), 1e308)  # the sum of squares overflows
    yield np.full((4, 5), -1e308)
    yield np.array([1e308, np.nan])
    yield np.zeros((0,))
    yield np.zeros((3, 0))
    yield np.array(2.5)
    yield np.array(np.nan)
    yield np.array(-np.inf)
    yield base
    yield base.T
    yield base[::2, 1::3]
    yield np.array([5e-324, -0.0, 1.7976931348623157e308])


def test_all_finite_agrees_with_isfinite_and_never_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arr in _all_finite_cases():
            assert nm.all_finite(arr) is bool(np.isfinite(arr).all()), arr
