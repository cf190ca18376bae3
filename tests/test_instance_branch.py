import numpy as np
import pytest

from weakdet import numerics as nm
from weakdet.errors import ContractError, EmptyBagError, ParameterError
from weakdet.instance_branch import (
    ApproxLabels,
    InstanceScores,
    approx_labels,
    instance_loss,
    instance_probs,
)
from weakdet.numerics import Node

from conftest import finite_difference, max_rel_err


def make_head(rng, d, k):
    """The three head weights, by instance_probs's argument names."""
    return dict(
        w_cls=Node(rng.standard_normal((d, k))),
        w_det=Node(rng.standard_normal((d, k))),
        w_bg=Node(rng.standard_normal((d, 1))),
    )


# ---------------------------------------------------------------- scores


def test_instance_probs_empty_bag():
    rng = np.random.default_rng(3)
    with pytest.raises(EmptyBagError):
        instance_probs(Node(np.zeros((0, 4))), **make_head(rng, 4, 2))


def test_instance_probs_contracts():
    rng = np.random.default_rng(4)
    head = make_head(rng, 5, 3)
    scores = instance_probs(Node(rng.standard_normal((6, 5))), **head)
    corr = scores.corr_ins.value
    assert corr.min() >= 0 and corr.max() <= 1
    colsums = corr.sum(axis=0)
    assert np.all(colsums >= 0) and np.all(colsums <= 1 + 1e-12)
    assert scores.cls_logits.value.shape == (6, 3) and scores.bg_logits.value.shape == (6, 1)
    s = nm.softmax_rows(nm.hconcat(scores.cls_logits, scores.bg_logits)).value
    assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-12
    assert s.shape == (6, 4)  # K+1 columns


def test_instance_probs_single_instance_single_class():
    rng = np.random.default_rng(5)
    head = make_head(rng, 4, 1)
    scores = instance_probs(Node(rng.standard_normal((1, 4))), **head)
    # row softmax over one class = 1; column softmax over one instance = 1
    assert np.allclose(scores.corr_ins.value, 1.0, atol=1e-15)
    assert abs(float(scores.corr_ins.value.sum(axis=0)[0]) - 1.0) < 1e-15  # its image score


# ---------------------------------------------------------------- labels


def oracle_labels(corr, tags, gamma):
    """Independent restatement of the labelling rule, plain loops."""
    m, K = corr.shape
    labels = [K] * m
    positives = [k for k in range(K) if tags[k] == 1]
    for i in range(m):
        best_k, best_s = None, -1.0
        for k in positives:
            if corr[i, k] >= gamma * max(corr[r, k] for r in range(m)):
                if corr[i, k] > best_s:
                    best_k, best_s = k, corr[i, k]
        if best_k is not None:
            labels[i] = best_k
    for k in positives:
        if k in labels:
            continue
        order = sorted(range(m), key=lambda i: -corr[i, k])
        for i in order:
            if labels[i] == K or labels.count(labels[i]) > 1:
                labels[i] = k
                break
    weights = [
        corr[i, labels[i]] if labels[i] != K else 1.0 - corr[i].max() for i in range(m)
    ]
    return labels, weights


def test_approx_labels_unique_max():
    corr = np.array([[0.9, 0.0], [0.1, 0.0], [0.2, 0.0]])
    out = approx_labels(corr, np.array([1, 0]), gamma=0.9)
    assert out.labels.tolist() == [0, 2, 2]
    assert out.seed_weights[0] == pytest.approx(0.9)
    assert out.seed_weights[1] == pytest.approx(1.0 - 0.1)


def test_approx_labels_tie_labels_both():
    corr = np.array([[0.8, 0.0], [0.8, 0.0], [0.1, 0.0]])
    out = approx_labels(corr, np.array([1, 0]), gamma=0.9)
    assert out.labels.tolist() == [0, 0, 2]  # >= keeps both at the max


def test_approx_labels_matches_bruteforce_oracle():
    rng = np.random.default_rng(8)
    tags = np.array([1, 0, 1])
    for _ in range(200):
        corr = rng.uniform(0, 1, size=(5, 3))
        got = approx_labels(corr, tags, gamma=0.9)
        labels, weights = oracle_labels(corr, tags, 0.9)
        assert got.labels.tolist() == labels
        assert np.allclose(got.seed_weights, np.clip(weights, 0, 1), atol=1e-12)


def test_approx_labels_matches_oracle_on_exact_threshold_ties():
    # Scores on a grid of quarters: with gamma 0.5 or 0.75 many entries sit
    # exactly at gamma * col_max, and rows tie across classes.
    rng = np.random.default_rng(12)
    for gamma in (0.5, 0.75, 0.9, 1.0):
        for _ in range(150):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(k, 8))
            corr = rng.integers(0, 5, size=(m, k)) / 4.0
            cols = rng.random(k) < 0.5
            rows = rng.integers(0, m, size=k)
            corr[rows[cols], np.flatnonzero(cols)] = gamma * corr.max(axis=0)[cols]
            tags = (rng.random(k) < 0.6).astype(int)
            tags[int(rng.integers(0, k))] = 1
            got = approx_labels(corr, tags, gamma=gamma)
            labels, weights = oracle_labels(corr, tags, gamma)
            assert got.labels.tolist() == labels
            assert got.seed_weights.tobytes() == np.clip(np.array(weights), 0, 1).tobytes()


def test_approx_labels_cover_every_positive_class():
    rng = np.random.default_rng(9)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(k, 9))
        tags = np.zeros(k, dtype=int)
        tags[rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)] = 1
        corr = rng.uniform(0, 1, size=(m, k))
        out = approx_labels(corr, tags, gamma=0.9)
        for cls in range(k):
            if tags[cls] == 1:
                assert np.any(out.labels == cls)
            else:
                assert not np.any(out.labels == cls)


def test_fewer_instances_than_positive_tags_leave_the_surplus_classes_unlabelled():
    # Class 1 claims both instances; the repair pass gives class 0 its top
    # one, and no instance is left to spare for class 2.
    corr = np.array([[0.3, 0.5, 0.1], [0.1, 0.4, 0.2]])
    tags = np.array([1, 1, 1])
    out = approx_labels(corr, tags, gamma=0.5)
    assert out.labels.tolist() == [0, 1]
    loss = instance_loss(hand_scores(corr, np.zeros((2, 4))), out, tags)
    assert np.isfinite(float(loss.value))
    # With as many instances as tagged classes, a missing class is still a contract breach.
    both_one = ApproxLabels(labels=np.array([1, 1]), seed_weights=np.ones(2))
    with pytest.raises(ContractError, match="tagged class 2 has"):
        instance_loss(hand_scores(corr, np.zeros((2, 4))), both_one, np.array([0, 1, 1]))


def test_approx_labels_labels_a_negative_bag_background():
    # A bag with no positive tag is a negative image: every proposal is
    # background with weight 1 - its row maximum, and the loss accepts it.
    corr = np.array([[0.2, 0.7], [0.5, 0.1], [0.3, 0.0]])
    out = approx_labels(corr, np.array([0, 0]), gamma=0.9)
    assert out.labels.tolist() == [2, 2, 2] and out.labels.dtype == np.int64
    assert out.seed_weights.tolist() == [1.0 - 0.7, 1.0 - 0.5, 1.0 - 0.3]
    loss = instance_loss(hand_scores(corr, np.zeros((3, 3))), out, np.array([0, 0]))
    assert np.isfinite(float(loss.value))
    with pytest.raises(ParameterError):
        approx_labels(np.ones((2, 2)) * 0.5, np.array([1, 0]), gamma=0.0)


# ---------------------------------------------------------------- loss


def hand_scores(corr, s_logits):
    """InstanceScores straight from given arrays (for loss fixtures); the
    last column of ``s_logits`` is the background logit."""
    return InstanceScores(corr_ins=Node(corr), cls_logits=Node(s_logits[:, :-1]),
                          bg_logits=Node(s_logits[:, -1:]))


def test_instance_loss_perfect_prediction_is_zero():
    tags = np.array([1, 0])
    corr = np.array([[1.0, 0.0], [0.0, 0.0]])  # image scores equal tags
    s_logits = np.array([[60.0, 0.0, 0.0], [0.0, 0.0, 60.0]])  # one-hot rows
    labels = ApproxLabels(labels=np.array([0, 2]), seed_weights=np.array([1.0, 1.0]))
    loss = instance_loss(hand_scores(corr, s_logits), labels, tags)
    assert 0.0 <= float(loss.value) < 1e-6


def test_instance_loss_uniform_rows_closed_form():
    tags = np.array([1, 0])
    corr = np.array([[1.0, 0.0], [0.0, 0.0]])
    s_logits = np.zeros((2, 3))  # uniform (K+1)-way rows
    weights = np.array([0.7, 0.4])
    labels = ApproxLabels(labels=np.array([0, 2]), seed_weights=weights)
    loss = instance_loss(hand_scores(corr, s_logits), labels, tags)
    expected = weights.sum() * np.log(3.0)  # image term is ~0 here
    assert abs(float(loss.value) - expected) < 1e-6


def test_instance_loss_matches_bruteforce_oracle():
    rng = np.random.default_rng(10)
    for _ in range(20):
        tags = np.array([1, 1])
        feats = rng.standard_normal((3, 4))
        head = make_head(rng, 4, 2)
        scores = instance_probs(Node(feats), **head)
        labels = approx_labels(scores.corr_ins.value, tags, gamma=0.9)
        loss = float(instance_loss(scores, labels, tags).value)

        # independent summation with plain python
        eps = 1e-7
        img = np.clip(scores.corr_ins.value.sum(axis=0), eps, 1 - eps)
        expected = 0.0
        for k in range(2):
            expected -= tags[k] * np.log(img[k]) + (1 - tags[k]) * np.log(1 - img[k])
        s = nm.softmax_rows(nm.hconcat(scores.cls_logits, scores.bg_logits)).value
        for i in range(3):
            expected -= labels.seed_weights[i] * np.log(s[i, labels.labels[i]])
        assert abs(loss - expected) < 1e-10


def test_instance_loss_rejects_inconsistent_labels():
    tags = np.array([1, 0])
    corr = np.array([[0.5, 0.1], [0.2, 0.3]])
    bad = ApproxLabels(labels=np.array([1, 2]), seed_weights=np.array([1.0, 1.0]))
    with pytest.raises(ContractError):
        instance_loss(hand_scores(corr, np.zeros((2, 3))), bad, tags)


def _loss_on(labels, seed_weights):
    """instance_loss on three proposals, K = 3 and every class tagged."""
    scores = hand_scores(np.full((3, 3), 0.2), np.zeros((3, 4)))
    return instance_loss(scores, ApproxLabels(labels, seed_weights), np.array([1, 1, 1]))


@pytest.mark.parametrize(
    "labels",
    [
        np.array([0, 1, -1]),  # numpy would read -1 as the background column
        np.array([0, 1, 4]),  # K + 1
        np.array([0.0, 1.0, 2.0]),  # floats, even integral ones
        np.array([True, False, True]),
        np.array([0, 1]),  # one short
        np.array([[0, 1, 2]]),
    ],
    ids=["minus-one", "k-plus-one", "float", "bool", "short", "2-d"],
)
def test_instance_loss_rejects_labels_outside_the_contract(labels):
    with pytest.raises(ContractError, match=r"each of the 3 proposals needs an integer label in \[0, 3\]"):
        _loss_on(labels, np.ones(3))


@pytest.mark.parametrize(
    "weights",
    [np.ones(1), np.ones(2), np.ones(4), np.ones((3, 1)), np.array([1.0, np.nan, 1.0]),
     np.array([1.0, 1.0, np.inf])],
    ids=["one", "short", "long", "2-d", "nan", "inf"],
)
def test_instance_loss_rejects_seed_weights_outside_the_contract(weights):
    with pytest.raises(ContractError, match=r"in \[0, 3\] and a finite seed weight"):
        _loss_on(np.array([0, 1, 2]), weights)


def test_instance_loss_accepts_the_contract_edges():
    """Labels 0 and K (background), unsigned labels and zero weights are in
    the contract; they score as the explicit mask says."""
    for labels in (np.array([0, 1, 2]), np.array([2, 1, 0], dtype=np.uint8)):
        assert np.isfinite(float(_loss_on(labels, np.zeros(3)).value))
    scores = hand_scores(np.full((3, 3), 0.2), np.zeros((3, 4)))
    loss = instance_loss(scores, ApproxLabels(np.array([0, 3, 3]), np.ones(3)), np.array([1, 0, 0]))
    assert np.isfinite(float(loss.value))


def test_instance_loss_contract_errors_name_the_first_class():
    corr = np.full((3, 3), 0.2)
    s_logits = np.zeros((3, 4))
    untagged = ApproxLabels(labels=np.array([2, 1, 0]), seed_weights=np.ones(3))
    with pytest.raises(ContractError, match="untagged class 1"):
        instance_loss(hand_scores(corr, s_logits), untagged, np.array([1, 0, 0]))
    missing = ApproxLabels(labels=np.array([3, 3, 3]), seed_weights=np.ones(3))
    with pytest.raises(ContractError, match="tagged class 0 has"):
        instance_loss(hand_scores(corr, s_logits), missing, np.array([1, 0, 1]))


def test_instance_loss_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        head = make_head(rng, 5, 3)
        tags = np.array([1, 0, 1])
        scores = instance_probs(Node(rng.standard_normal((4, 5))), **head)
        labels = approx_labels(scores.corr_ins.value, tags, gamma=0.9)
        assert float(instance_loss(scores, labels, tags).value) >= 0.0


@pytest.mark.parametrize("seed", range(5))
def test_instance_loss_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    feats = rng.standard_normal((4, 5))
    tags = np.array([1, 0, 1])
    arrays = {
        "w_cls": rng.standard_normal((5, 3)),
        "w_det": rng.standard_normal((5, 3)),
        "w_bg": rng.standard_normal((5, 1)),
    }
    frozen_labels = {}

    def build():
        head = {name: Node(arrays[name]) for name in ("w_cls", "w_det", "w_bg")}
        scores = instance_probs(Node(feats), **head)
        if "labels" not in frozen_labels:
            frozen_labels["labels"] = approx_labels(scores.corr_ins.value, tags, gamma=0.9)
        return instance_loss(scores, frozen_labels["labels"], tags), head

    loss, head = build()
    nm.backward(loss)
    fd = finite_difference(lambda: float(build()[0].value), arrays)
    assert max_rel_err(head["w_cls"].grad, fd["w_cls"]) < 1e-4
    assert max_rel_err(head["w_det"].grad, fd["w_det"]) < 1e-4
    assert max_rel_err(head["w_bg"].grad, fd["w_bg"]) < 1e-4
