"""The rewritten per-step helpers against their earlier bodies, byte for byte.

``reference_helpers`` keeps each helper as it was before its numpy calls were
trimmed. On seeded random inputs, edge cases included, every output must have
the same bytes, dtype and shape, and every error the same type (and, for the
library's own errors, the same message).
"""

from __future__ import annotations

import numpy as np
import pytest

import reference_helpers as ref
from weakdet import igcl as gc
from weakdet import instance_branch as ib
from weakdet import numerics as nm
from weakdet import semantic_branch as sb
from weakdet.datamodel import SceneConfig, generate_dataset
from weakdet.errors import WeakdetError
from weakdet.instance_branch import ApproxLabels, InstanceScores
from weakdet.numerics import Node
from weakdet.semantic_branch import PseudoLabels
from weakdet.trainer import SUB_METHODS, TrainConfig, forward_losses, init_state


def flat(x):
    """A comparable form of a helper's result: arrays by type, dtype, shape and bytes."""
    if isinstance(x, (np.ndarray, np.generic)):
        return type(x), x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, Node):
        return "node", flat(x.value)
    if isinstance(x, ApproxLabels):
        return "labels", flat(x.labels), flat(x.seed_weights)
    if isinstance(x, PseudoLabels):
        return "pseudo", flat(x.scores), flat(x.labels)
    if isinstance(x, (tuple, list)):
        return tuple(flat(v) for v in x)
    return type(x), repr(x)


def outcome(fn, *args):
    """``fn(*args)`` in comparable form, or the error it raised: its type,
    and its message when it is one of the library's own."""
    try:
        with np.errstate(all="ignore"):
            return flat(fn(*args))
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return "error", type(e), str(e) if isinstance(e, WeakdetError) else None


def assert_same(new, old, *args, copy=lambda a: a):
    """Both functions on (copies of) the same arguments give the same outcome."""
    got, want = outcome(new, *copy(args)), outcome(old, *copy(args))
    assert got == want, args


# ---------------------------------------------------------------- instance branch


def random_corr(rng, m, k):
    """Scores of one of four kinds: uniform, on a grid of quarters (exact ties
    across classes and at gamma times a column maximum), one class that
    dominates every row (so it claims everything and the repair pass runs),
    or uniform with NaN entries."""
    kind = rng.integers(4)
    if kind == 0:
        return rng.uniform(0, 1, size=(m, k))
    if kind == 1:
        return rng.integers(0, 5, size=(m, k)) / 4.0
    corr = rng.uniform(0, 0.4, size=(m, k))
    if kind == 2:
        corr[:, rng.integers(k)] += 0.5
    else:
        corr[rng.random((m, k)) < 0.1] = np.nan
    return corr


def random_tags(rng, k):
    tags = (rng.random(k) < 0.5).astype(np.int64)
    tags[rng.integers(k)] = 1
    return tags


def claims_miss_a_class(corr, tags, gamma):
    """True when the claims alone leave a tagged class with no instance."""
    pos = np.flatnonzero(tags == 1)
    with np.errstate(all="ignore"):
        claimed = corr[:, pos] >= gamma * corr[:, pos].max(axis=0)
        best = np.where(claimed, corr[:, pos], -np.inf).argmax(axis=1)
    first = np.where(claimed.any(axis=1), pos[best], corr.shape[1])
    return not set(pos.tolist()) <= set(first.tolist())


def test_approx_labels_matches_its_earlier_body():
    rng = np.random.default_rng(0)
    repaired = fewer = 0
    for _ in range(1500):
        k = int(rng.integers(1, 6))
        m = int(rng.integers(1, 10))
        corr, tags = random_corr(rng, m, k), random_tags(rng, k)
        gamma = float(rng.choice([0.5, 0.75, 0.9, 1.0]))
        assert_same(ib.approx_labels, ref.approx_labels, corr, tags, gamma)
        repaired += claims_miss_a_class(corr, tags, gamma)
        fewer += m < tags.sum()
    assert repaired > 100 and fewer > 100  # both edge paths were taken


@pytest.mark.parametrize("case", ["gamma-zero", "gamma-above-one", "gamma-nan", "no-rows",
                                  "long-tags", "1-d", "2-d-tags", "lists"])
def test_approx_labels_fails_and_passes_as_before(case):
    corr, tags, gamma = np.array([[0.2, 0.5], [0.6, 0.1]]), np.array([1, 1]), 0.9
    if case == "gamma-zero":
        gamma = 0.0
    elif case == "gamma-above-one":
        gamma = 1.5
    elif case == "gamma-nan":
        gamma = float("nan")
    elif case == "no-rows":
        corr = np.zeros((0, 2))
    elif case == "long-tags":
        tags = np.array([1, 0, 1])
    elif case == "1-d":
        corr = corr[0]
    elif case == "2-d-tags":
        tags = np.array([[1], [0]])
    else:
        corr, tags = corr.tolist(), tags.tolist()
    assert_same(ib.approx_labels, ref.approx_labels, corr, tags, gamma)


def test_a_negative_bag_gets_the_background_rule():
    rng = np.random.default_rng(1)
    for _ in range(200):
        k, m = int(rng.integers(1, 6)), int(rng.integers(1, 10))
        corr = random_corr(rng, m, k)
        with np.errstate(all="ignore"):
            got = ib.approx_labels(corr, np.zeros(k, dtype=np.int64), 0.9)
            want = np.clip(1.0 - corr.max(axis=1), 0.0, 1.0)
        assert flat(got) == ("labels", flat(np.full(m, k, dtype=np.int64)), flat(want))


def hand_scores(corr, logits):
    return InstanceScores(corr_ins=Node(corr), cls_logits=Node(logits[:, :-1]),
                          bg_logits=Node(logits[:, -1:]))


def loss_and_grads(loss_fn):
    """A loss function of (scores, labels, tags) that also reports the
    gradients of its fresh score leaves, so the weight mask shows bit for bit."""
    def run(corr, logits, labels, tags):
        scores = hand_scores(corr, logits)
        loss = loss_fn(scores, labels, tags)
        nm.backward(loss)
        return loss, scores.corr_ins.grad, scores.cls_logits.grad, scores.bg_logits.grad
    return run


def broken_labels(rng, labels, m, k):
    """The induced labels, or one of the ways a caller can break the contract."""
    lab, weights = labels.labels.copy(), labels.seed_weights.copy()
    kind = int(rng.integers(12))
    if kind == 1:
        lab[rng.integers(m)] = rng.choice([-1, k + 1])
    elif kind == 2:
        lab = lab.astype(rng.choice([np.int8, np.int32, np.uint8, np.uint16, np.uint64]))
    elif kind == 3:
        lab = lab.astype(rng.choice([np.float64, bool]))
    elif kind == 4:
        lab = lab[:-1]
    elif kind == 5:
        weights[rng.integers(m)] = rng.choice([np.nan, np.inf])
    elif kind == 6:
        weights = weights[None, :]
    elif kind == 7:
        lab[rng.integers(m)] = k  # a tagged class may lose its instance
    elif kind == 8:
        lab[rng.integers(m)] = rng.integers(k)  # an untagged class may gain one
    return ApproxLabels(labels=lab, seed_weights=weights)


def test_instance_loss_matches_its_earlier_body():
    rng = np.random.default_rng(2)
    new, old = loss_and_grads(ib.instance_loss), loss_and_grads(ref.instance_loss)
    for _ in range(800):
        k, m = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        corr, tags = rng.uniform(0, 0.3, size=(m, k)), random_tags(rng, k)
        if rng.random() < 0.1:
            tags[:] = 0
        labels = broken_labels(rng, ib.approx_labels(corr, tags, 0.9), m, k)
        if rng.random() < 0.05:
            tags = np.append(tags, 1)  # the wrong length
        logits = rng.standard_normal((m, k + 1))
        assert_same(new, old, corr, logits, labels, tags)


# ---------------------------------------------------------------- semantic branch


def test_pseudo_labels_match_their_earlier_body():
    rng = np.random.default_rng(3)
    for _ in range(300):
        k, m = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        ties = rng.random() < 0.5  # integer grids make argmax ties
        z = rng.integers(-2, 3, size=(m, k)) * 1.0 if ties else rng.standard_normal((m, k))
        corr = np.eye(k) if ties else rng.uniform(-1, 1, size=(k, k))
        assert_same(lambda c, z: sb.pseudo_labels(Node(c), Node(z)),
                    lambda c, z: ref.pseudo_labels(Node(c), Node(z)), corr, z)


def test_semantic_loss_matches_its_earlier_body():
    rng = np.random.default_rng(4)

    def run(fn):
        def loss(z, labels, centers):
            z_node = Node(z)
            out = fn(z_node, PseudoLabels(scores=None, labels=labels), centers)
            nm.backward(out)
            return out, z_node.grad
        return loss

    for _ in range(400):
        k, m = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        z, centers = rng.standard_normal((m, k)), rng.standard_normal((k, k))
        labels = rng.integers(0, k, size=m)
        kind = int(rng.integers(6))
        if kind == 1:
            centers[labels[0]] = 0.0  # a chosen zero-norm center
        elif kind == 2:
            centers[labels[0]] = 1e-13
        elif kind == 3:
            centers[labels[0], 0] = np.nan
        elif kind == 4:
            centers = centers.tolist()
        elif kind == 5:
            labels[0] = k  # out of range
        assert_same(run(sb.semantic_loss), run(ref.semantic_loss), z, labels, centers)


def test_update_centers_matches_its_earlier_body_and_writes_no_input():
    rng = np.random.default_rng(5)
    copies = lambda args: tuple(np.copy(a) if isinstance(a, np.ndarray) else a for a in args)
    for _ in range(400):
        k, d, m = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(0, 9))
        centers, z = rng.standard_normal((k, d)), rng.standard_normal((m, d))
        labels = rng.integers(-k, k, size=m)
        rate = float(rng.choice([0.0, 0.05, 0.5, 1.0, -0.1, 1.5, np.nan]))
        kind = int(rng.integers(6))
        if kind == 1:
            centers = centers.astype(np.float32)
        elif kind == 2:
            centers = np.asfortranarray(centers)
        elif kind == 3:
            centers = centers[:, ::-1]
        elif kind == 4:
            centers = centers[0]  # 1-D
        assert_same(sb.update_centers, ref.update_centers, centers, z, labels, rate, copy=copies)
        before = centers.copy()
        with np.errstate(all="ignore"):
            try:
                out = sb.update_centers(centers, z, labels, rate)
            except WeakdetError:
                continue
        assert centers.tobytes() == before.tobytes() and not np.shares_memory(out, centers)
    assert_same(sb.update_centers, ref.update_centers, [[1.0, 2.0]], [[0.5, 0.5]], [0], 0.5)


# ---------------------------------------------------------------- graphs


def test_semantic_graph_matches_its_earlier_body():
    rng = np.random.default_rng(6)
    for _ in range(500):
        n, d = int(rng.integers(0, 10)), int(rng.integers(1, 6))
        z = rng.standard_normal((n, d))
        if n > 1 and rng.random() < 0.4:  # duplicate embeddings tie every similarity
            z[rng.integers(n, size=n // 2)] = z[0]
        if n > 1 and rng.random() < 0.2:
            z[rng.integers(n)] = 0.0
        if rng.random() < 0.3:
            z = np.round(z)  # a grid, for more ties
        for k in sorted({1, 2, max(n - 2, 1), max(n - 1, 1), n + 1, n + 5}):
            assert_same(gc.build_semantic_graph, ref.build_semantic_graph, z, k)


def test_normalize_matches_its_earlier_body():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        adj = (rng.random((n, n)) < 0.4).astype(np.float64)
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 0.0)
        a, b = adj.copy(), adj.copy()
        assert flat(gc._normalize(a)) == flat(ref.normalize(b))
        assert a.tobytes() == b.tobytes()  # both add the identity in place


# ---------------------------------------------------------------- numerics


def test_unit_rows_matches_its_earlier_body():
    rng = np.random.default_rng(8)
    for _ in range(600):
        shape = tuple(int(s) for s in rng.integers(1, 6, size=int(rng.integers(1, 4))))
        x = rng.standard_normal(shape)
        if x.ndim >= 2:
            rows = x.reshape(-1, shape[-1])
            for value in rng.choice([0.0, 1e-13, np.nan, np.inf, -np.inf],
                                    size=int(rng.integers(0, 3))):
                rows[rng.integers(len(rows))] = value
        for strict in (True, False):
            assert_same(nm._unit_rows, ref.unit_rows, x, strict, "op")
    assert_same(nm._unit_rows, ref.unit_rows, np.zeros((0, 3)), True, "op")


VALUES = [
    np.arange(6.0).reshape(2, 3),
    np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    np.arange(12.0).reshape(3, 4)[:, ::2],
    np.array(2.5),
    np.zeros((0, 3)),
    np.array([1.0, np.nan]),
    np.array([[np.inf]]),
    np.full(3, 1e200),  # finite, but its sum of squares overflows
    np.arange(4, dtype=np.float32),
    np.arange(4),
    np.array([True, False]),
    [1.0, 2.0],
    [[1, 2], [3, 4]],
    3.0,
    7,
    np.float64(-1.5),
    np.float64(np.nan),
    np.float32(2.0),
    np.arange(3.0).view(type("Sub", (np.ndarray,), {})),  # a subclass is converted
    "abc",
]


@pytest.mark.parametrize("i", range(len(VALUES)))
def test_a_node_stores_what_finite_gave(i):
    value = VALUES[i]
    got, want = outcome(lambda v: Node(v).value, value), outcome(ref.finite, value)
    assert got == want
    if got[0] != "error":  # an array the check passes is kept, not copied
        assert (Node(value).value is value) == (ref.finite(value) is value)


@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (2,)])
@pytest.mark.parametrize("constant", [False, True], ids=["leaf", "constant"])
def test_backward_seeds_the_root_as_before(shape, constant):
    def run(backward):
        x = nm.as_node(np.full(shape, 1.5)) if constant else Node(np.full(shape, 1.5))
        root = nm.scale(x, 2.0)
        backward(root)
        return root.grad, x.grad
    assert outcome(run, nm.backward) == outcome(run, ref.backward)


def test_backward_of_a_training_forward_matches_its_earlier_body():
    six_bags = generate_dataset(SceneConfig(n_classes=3, feature_dim=8, seed=0), 6)[0]
    for method in sorted(SUB_METHODS):
        cfg = TrainConfig(hidden_dim=6, embed_dim=4, modules=SUB_METHODS[method])
        state = init_state(cfg, six_bags[0].n_classes, six_bags[0].features.shape[1])
        for bag in six_bags:
            grads = []
            for backward in (nm.backward, ref.backward):
                fwd = forward_losses(bag, state, cfg)
                backward(fwd.loss)
                leaves = [fwd.leaves[k].grad for k in sorted(fwd.leaves)]
                grads.append(flat([fwd.loss.grad, *leaves]))
            assert grads[0] == grads[1], (method, bag.image_id)

