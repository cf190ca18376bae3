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
from weakdet.numerics import Node

from conftest import finite_difference, max_rel_err


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


def test_lse_columns_matches_vector_op():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((5, 3))
    cols = nm.lse_columns(Node(x), 4.0).value
    for k in range(3):
        v = float(nm.smooth_max_lse(Node(x[:, k]), 4.0).value)
        assert abs(cols[k] - v) < 1e-12


# ---------------------------------------------------------------- cosine


def test_cosine_identity_and_orthogonal():
    u = Node([1.0, 2.0, -1.0])
    assert abs(float(nm.cosine(u, Node([1.0, 2.0, -1.0])).value) - 1.0) < 1e-12
    assert abs(float(nm.cosine(Node([1.0, 0.0]), Node([0.0, 3.0])).value)) < 1e-15


def test_cosine_direct_formula():
    c = nm.cosine(Node([1.0, 1.0]), Node([1.0, 0.0]))
    assert abs(float(c.value) - 1.0 / np.sqrt(2)) < 1e-12


def test_cosine_degenerate():
    with pytest.raises(DegenerateInputError):
        nm.cosine(Node([0.0, 0.0]), Node([1.0, 0.0]))


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
    fixed = nm.exp(nm.as_node(np.array([0.5, 0.25])))
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
    """A loss touching most ops: softmax, matmul, lse, cosine, concat."""
    a, b, v = Node(arrays["a"]), Node(arrays["b"]), Node(arrays["v"])
    prod = nm.matmul(a, b)
    sm = nm.softmax_rows(prod)
    pooled = nm.lse_columns(nm.mul(sm, nm.softmax_cols(prod)), 3.0)
    joined = nm.hconcat(nm.log_softmax_rows(prod), nm.relu(prod))
    cos = nm.cosine(v, nm.sum_cols(sm))
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
        nm.exp(Node([1000.0]))  # overflows to inf


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
    out = nm.normalize_rows(Node([[0.0, 0.0], [3.0, 4.0]]), strict=False)
    assert np.array_equal(out.value[0], [0.0, 0.0])
    assert np.allclose(out.value[1], [0.6, 0.8])


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
        expr = nm.div(nm.mul(nm.sqrt(x), nm.exp(nm.scale(y, 0.3))), nm.add(x, y))
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
