import numpy as np
import pytest

from weakdet import numerics as nm
from weakdet.errors import DegenerateInputError, ParameterError, ShapeError
from weakdet.numerics import Node
from weakdet.semantic_branch import (
    correlation_matrix,
    pseudo_labels,
    semantic_loss,
    update_centers,
)

from conftest import finite_difference, max_rel_err


# ---------------------------------------------------------------- project
# The trainer projects features as z = features @ w_sem^T, one matmul_nt node.


def test_project_zero_map():
    proj = Node(np.zeros((3, 5)))
    out = nm.matmul_nt(Node(np.ones((2, 5))), proj)
    assert np.array_equal(out.value, np.zeros((2, 3)))


def test_project_identity():
    proj = Node(np.eye(4))
    feats = np.random.default_rng(0).standard_normal((3, 4))
    assert np.array_equal(nm.matmul_nt(Node(feats), proj).value, feats)


def test_project_matches_matmul_oracle():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((3, 3))
    feats = rng.standard_normal((2, 3))
    out = nm.matmul_nt(Node(feats), Node(w))
    assert np.abs(out.value - feats @ w.T).max() < 1e-15


# ---------------------------------------------------------------- correlation


def test_correlation_duplicated_dimension():
    rng = np.random.default_rng(3)
    col = rng.standard_normal(6)
    z = np.column_stack([col, col, rng.standard_normal(6)])
    corr = correlation_matrix(Node(z)).value
    assert abs(corr[0, 1] - 1.0) < 1e-12


def test_correlation_negated_dimension():
    rng = np.random.default_rng(4)
    col = rng.standard_normal(6)
    z = np.column_stack([col, -col])
    corr = correlation_matrix(Node(z)).value
    assert abs(corr[0, 1] + 1.0) < 1e-12


def test_correlation_matches_pearson_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        z = rng.standard_normal((6, 3))
        got = correlation_matrix(Node(z)).value
        expected = np.corrcoef(z, rowvar=False)
        assert np.abs(got - expected).max() < 1e-10


def test_correlation_symmetry_diag_and_range():
    rng = np.random.default_rng(6)
    for _ in range(25):
        z = rng.standard_normal((8, 4)) * rng.uniform(0.1, 10)
        corr = correlation_matrix(Node(z)).value
        assert np.array_equal(corr, corr.T)  # exact by construction
        assert np.abs(np.diag(corr) - 1.0).max() < 1e-9
        assert corr.min() >= -1 - 1e-9 and corr.max() <= 1 + 1e-9


def test_correlation_zero_variance_dimension_gets_identity():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((5, 3))
    z[:, 1] = 4.2
    corr = correlation_matrix(Node(z)).value
    assert corr[1, 1] == 1.0
    assert np.all(corr[1, [0, 2]] == 0.0) and np.all(corr[[0, 2], 1] == 0.0)


def test_correlation_needs_two_instances():
    with pytest.raises(DegenerateInputError):
        correlation_matrix(Node(np.ones((1, 3))))


def test_correlation_is_differentiable():
    rng = np.random.default_rng(8)
    arrays = {"z": rng.standard_normal((5, 3))}

    def build():
        z = Node(arrays["z"])
        return nm.mean(nm.mul(correlation_matrix(z), Node(np.arange(9.0).reshape(3, 3)))), z

    loss, z = build()
    nm.backward(loss)
    fd = finite_difference(lambda: float(build()[0].value), arrays)
    assert max_rel_err(z.grad, fd["z"]) < 1e-4


# ---------------------------------------------------------------- pseudo labels


def test_pseudo_identity_correlation():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((4, 3))
    out = pseudo_labels(Node(np.eye(3)), Node(z))
    assert np.abs(out.scores.value - z).max() < 1e-15
    assert np.array_equal(out.labels, z.argmax(axis=1))


def test_pseudo_one_hot_embedding():
    z = np.zeros((1, 4))
    z[0, 2] = 1.0
    out = pseudo_labels(Node(np.eye(4)), Node(z))
    assert out.labels.tolist() == [2]


def test_pseudo_offdiagonal_reassigns_borderline():
    # dimension 2 co-fires with dimension 1; that context flips a borderline
    # instance from the raw argmax 0 over to 1
    corr = np.eye(3)
    corr[1, 2] = corr[2, 1] = 0.9
    z = np.array([[0.5, 0.48, 0.4]])
    assert z[0].argmax() == 0
    out = pseudo_labels(Node(corr), Node(z))
    expected = corr @ z[0]
    assert np.abs(out.scores.value[0] - expected).max() < 1e-12
    assert out.labels[0] == expected.argmax() == 1


# ---------------------------------------------------------------- center loss


def test_semantic_loss_aligned_is_zero():
    centers = np.eye(3)
    z = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
    pseudo = pseudo_labels(Node(np.eye(3)), Node(z))
    loss = semantic_loss(Node(z), pseudo, centers)
    assert abs(float(loss.value)) < 1e-12


def test_semantic_loss_orthogonal_is_one():
    centers = np.eye(2)
    z = np.array([[0.0, 3.0]])  # argmax labels it 1... force label 0 instead
    pseudo = pseudo_labels(Node(np.eye(2)), Node(np.array([[1.0, 0.0]])))
    loss = semantic_loss(Node(z), pseudo, centers[[1, 0]][[1]] * 0 + centers)
    # label is 0, center 0 = e0, z = e1 -> orthogonal
    assert abs(float(loss.value) - 1.0) < 1e-12


def test_semantic_loss_mixed_fixture_matches_oracle():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((2, 3))
    centers = rng.standard_normal((3, 3))
    pseudo = pseudo_labels(Node(np.eye(3)), Node(z))
    loss = float(semantic_loss(Node(z), pseudo, centers).value)
    cos = [
        z[i] @ centers[pseudo.labels[i]]
        / (np.linalg.norm(z[i]) * np.linalg.norm(centers[pseudo.labels[i]]))
        for i in range(2)
    ]
    assert abs(loss - np.mean([1 - c for c in cos])) < 1e-12


def test_semantic_loss_range():
    rng = np.random.default_rng(11)
    for _ in range(30):
        z = rng.standard_normal((4, 3))
        centers = rng.standard_normal((3, 3))
        pseudo = pseudo_labels(Node(np.eye(3)), Node(z))
        val = float(semantic_loss(Node(z), pseudo, centers).value)
        assert 0.0 <= val <= 2.0


def test_semantic_loss_degenerate_center():
    z = np.ones((1, 2))
    pseudo = pseudo_labels(Node(np.eye(2)), Node(z))
    with pytest.raises(DegenerateInputError):
        semantic_loss(Node(z), pseudo, np.zeros((2, 2)))


def test_semantic_loss_gradient_with_constant_centers():
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((4, 5))
    centers = rng.standard_normal((3, 3))
    arrays = {"w_sem": rng.standard_normal((3, 5))}
    pinned = {}

    def build():
        proj = Node(arrays["w_sem"])
        z = nm.matmul_nt(Node(feats), proj)
        pseudo = pseudo_labels(correlation_matrix(z), z)
        if "labels" in pinned:
            pseudo.labels[:] = pinned["labels"]
        else:
            pinned["labels"] = pseudo.labels.copy()
        return semantic_loss(z, pseudo, centers), proj

    loss, proj = build()
    nm.backward(loss)
    fd = finite_difference(lambda: float(build()[0].value), arrays)
    assert max_rel_err(proj.grad, fd["w_sem"]) < 1e-4


# ---------------------------------------------------------------- updates


def test_update_centers_zero_rate_is_identity():
    centers = np.eye(3)
    z = np.ones((2, 3))
    out = update_centers(centers, z, np.array([0, 1]), 0.0)
    assert np.array_equal(out, centers)


def test_update_centers_full_rate_last_wins():
    centers = np.zeros((2, 2))
    z = np.array([[1.0, 0.0], [0.0, 2.0]])
    out = update_centers(centers, z, np.array([0, 0]), 1.0)
    assert np.array_equal(out[0], z[1])
    assert np.array_equal(out[1], centers[1])


def test_update_centers_midpoint():
    centers = np.array([[0.0, 0.0]])
    out = update_centers(centers, np.array([[2.0, 4.0]]), np.array([0]), 0.5)
    assert np.array_equal(out[0], [1.0, 2.0])


def test_update_centers_contraction():
    rng = np.random.default_rng(13)
    for theta in (0.05, 0.3, 0.9):
        c = rng.standard_normal((2, 4))
        z = rng.standard_normal((1, 4))
        out = update_centers(c, z, np.array([1]), theta)
        before = np.linalg.norm(c[1] - z[0])
        after = np.linalg.norm(out[1] - z[0])
        assert abs(after - (1 - theta) * before) < 1e-12


def loop_update_centers(centers, z, labels, rate):
    """The former update: one numpy row operation per instance."""
    out = np.array(centers, dtype=np.float64, copy=True)
    for i, k in enumerate(labels):
        out[k] = out[k] + rate * (z[i] - out[k])
    return out


def test_update_centers_equals_loop_oracle_bytes():
    rng = np.random.default_rng(14)
    for rate in (0.0, 0.05, 0.37, 1.0):
        for _ in range(50):
            k = int(rng.integers(1, 7))
            m = int(rng.integers(0, 25))
            centers = rng.standard_normal((k, k))
            z = rng.standard_normal((m, k))
            labels = rng.integers(0, k, size=m)
            if m:
                labels[: m // 2] = labels[0]  # one class takes half the bag
            got = update_centers(centers, z, labels, rate)
            assert got.tobytes() == loop_update_centers(centers, z, labels, rate).tobytes()


def test_update_centers_rejects_mismatched_rows():
    with pytest.raises(ShapeError):
        update_centers(np.eye(2), np.ones((2, 2)), np.array([0]), 0.5)
    with pytest.raises(ShapeError):
        update_centers(np.eye(2), np.ones((1, 3)), np.array([0]), 0.5)


def test_update_centers_rate_bounds():
    with pytest.raises(ParameterError):
        update_centers(np.eye(2), np.ones((1, 2)), np.array([0]), 1.5)


def test_update_centers_does_not_mutate_input():
    centers = np.eye(2)
    before = centers.copy()
    update_centers(centers, np.ones((1, 2)), np.array([0]), 0.5)
    assert np.array_equal(centers, before)


def test_projector_shape_check():
    with pytest.raises(ShapeError):
        nm.matmul_nt(Node(np.ones((2, 3))), Node(np.ones(3)))
