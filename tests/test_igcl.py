from collections import namedtuple
from functools import reduce

import numpy as np
import pytest

from weakdet import numerics as nm
from weakdet.datamodel import Box
from weakdet.errors import ParameterError, ShapeError
from weakdet.evalmetrics import iou
from weakdet.igcl import (
    build_instance_graph,
    build_semantic_graph,
    gcn_forward,
    igcl_terms,
    independent_gcl_terms,
    info_nce,
    one_hot_labels,
)
from weakdet.numerics import Node
from weakdet.semantic_branch import correlation_matrix, pseudo_labels
from weakdet.trainer import TrainConfig, forward_losses, init_state

from conftest import PinnedSelections, finite_difference, make_bag, max_rel_err


# ---------------------------------------------------------------- graphs


def test_instance_graph_disjoint_boxes_is_identity():
    boxes = [Box(0, 0, 10, 10), Box(50, 50, 60, 60), Box(100, 0, 110, 10)]
    g = build_instance_graph(boxes, 0.3)
    assert np.array_equal(g, np.eye(3))


def test_instance_graph_identical_pair_normalization():
    boxes = [Box(0, 0, 10, 10), Box(0, 0, 10, 10)]
    g = build_instance_graph(boxes, 0.3)
    assert np.abs(g - 0.5).max() < 1e-12


def test_instance_graph_exactly_symmetric():
    rng = np.random.default_rng(0)
    boxes = []
    for _ in range(8):
        x1, y1 = rng.uniform(0, 60, size=2)
        boxes.append(Box(x1, y1, x1 + rng.uniform(10, 50), y1 + rng.uniform(10, 50)))
    g = build_instance_graph(boxes, 0.3)
    assert np.array_equal(g, g.T)


def test_regular_graph_rows_sum_to_one():
    # complete graph on 4 nodes: every degree equals 4 after self-loops
    boxes = [Box(0, 0, 10, 10)] * 4
    g = build_instance_graph(boxes, 0.3)
    assert np.abs(g.sum(axis=1) - 1.0).max() < 1e-12


def test_semantic_graph_singleton():
    g = build_semantic_graph(np.ones((1, 3)), k=5)
    assert np.array_equal(g, np.eye(1))


def test_semantic_graph_two_clusters_block_diagonal():
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    g = build_semantic_graph(z, k=1)
    assert np.all(g[:2, 2:] == 0) and np.all(g[2:, :2] == 0)
    assert np.all(g[:2, :2] > 0) and np.all(g[2:, 2:] > 0)


def test_semantic_graph_matches_bruteforce_knn():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((6, 4))
    k = 2
    unit = z / np.linalg.norm(z, axis=1, keepdims=True)
    sim = unit @ unit.T
    adj = np.zeros((6, 6))
    for i in range(6):
        others = sorted((j for j in range(6) if j != i), key=lambda j: -sim[i, j])
        for j in others[:k]:
            adj[i, j] = adj[j, i] = 1.0  # union kNN
    expected = adj + np.eye(6)
    deg = expected.sum(axis=1)
    expected = expected / np.sqrt(np.outer(deg, deg))
    got = build_semantic_graph(z, k=k)
    assert np.abs(got - expected).max() < 1e-12


def test_semantic_graph_large_k_gives_complete_graph():
    rng = np.random.default_rng(2)
    g = build_semantic_graph(rng.standard_normal((4, 3)), k=10)
    assert np.all(g > 0)


# ------------------------------------------------- vectorised graph builds
#
# The scalar loops below are the reference for the vectorised builders: the
# same arithmetic in the same order, so a_hat must agree byte for byte.


def _normalize_loop(adj):
    a = adj + np.eye(adj.shape[0])
    inv_sqrt_deg = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]


def instance_graph_loop(boxes, iou_threshold=0.3):
    n = len(boxes)
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if iou(boxes[i], boxes[j]) > iou_threshold:
                adj[i, j] = adj[j, i] = 1.0
    return _normalize_loop(adj)


def semantic_graph_loop(z, k=5):
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    adj = np.zeros((n, n))
    if n > 1:
        k_eff = min(k, n - 1)
        norms = np.linalg.norm(z, axis=1)
        unit = z / np.where(norms > nm.EPS_NORM, norms, 1.0)[:, None]
        sim = unit @ unit.T
        np.fill_diagonal(sim, -np.inf)
        for i in range(n):
            nbrs = np.argsort(-sim[i], kind="stable")[:k_eff]
            adj[i, nbrs] = 1.0
        adj = np.maximum(adj, adj.T)
    return _normalize_loop(adj)


def _random_boxes(rng, n):
    boxes = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, 60, size=2)
        boxes.append(Box(x1, y1, x1 + rng.uniform(5, 50), y1 + rng.uniform(5, 50)))
    return boxes


INSTANCE_CASES = {
    "touching": [Box(0, 0, 10, 10), Box(10, 0, 20, 10), Box(0, 10, 10, 20), Box(10, 10, 20, 20)],
    "duplicates": [Box(0, 0, 10, 10), Box(0, 0, 10, 10), Box(3, 3, 12, 12), Box(3, 3, 12, 12)],
    "single": [Box(5, 5, 25, 30)],
    "at_threshold": [Box(0, 0, 10, 10), Box(0, 0, 10, 3)],
}


@pytest.mark.parametrize("case", sorted(INSTANCE_CASES))
def test_instance_graph_matches_scalar_loop_on_edge_cases(case):
    boxes = INSTANCE_CASES[case]
    for thr in (0.0, 0.3, 0.5):
        expected = instance_graph_loop(boxes, thr)
        assert build_instance_graph(boxes, thr).tobytes() == expected.tobytes()


def test_instance_graph_pair_at_threshold_stays_unlinked():
    boxes = INSTANCE_CASES["at_threshold"]
    assert iou(*boxes) == 0.3  # the strict '>' must not link them
    assert np.array_equal(build_instance_graph(boxes, 0.3), np.eye(2))


@pytest.mark.parametrize("seed", range(5))
def test_instance_graph_matches_scalar_loop_on_random_boxes(seed):
    rng = np.random.default_rng(seed)
    boxes = _random_boxes(rng, int(rng.integers(2, 40)))
    # Thresholds at and just below scalar IoUs catch any rounding difference.
    exact = [iou(a, b) for a in boxes for b in boxes if a is not b and iou(a, b) > 0][:20]
    for thr in [0.1, 0.3, 0.5] + exact + [np.nextafter(t, 0.0) for t in exact]:
        got = build_instance_graph(boxes, thr)
        assert got.tobytes() == instance_graph_loop(boxes, thr).tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_semantic_graph_matches_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    z = rng.standard_normal((n, 6))
    z[rng.integers(n)] = 0.0  # a zero row: its similarities are all zero
    for k in (1, 3, 5):
        assert build_semantic_graph(z, k).tobytes() == semantic_graph_loop(z, k).tobytes()


def test_semantic_graph_matches_scalar_loop_on_ties_and_large_k():
    rng = np.random.default_rng(9)
    row = rng.standard_normal(4)
    tied = np.vstack([row, row, row, rng.standard_normal(4), row])  # duplicate rows tie
    for z in (tied, rng.standard_normal((5, 4)), np.ones((1, 4))):
        n = z.shape[0]
        for k in (1, 2, n - 1, n, n + 3):
            expected = semantic_graph_loop(z, k)
            assert build_semantic_graph(z, k).tobytes() == expected.tobytes()



def semantic_graph_argsort_reference(z, k=5):
    """The earlier vectorised builder (``np.linalg.norm``, ``fill_diagonal``,
    ``put_along_axis`` and an ``np.eye`` self-loop): the leaner one must
    give the same bytes."""
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    adj = np.zeros((n, n))
    if n > 1:
        k_eff = min(k, n - 1)
        norms = np.linalg.norm(z, axis=1)
        safe = np.where(norms > nm.EPS_NORM, norms, 1.0)
        unit = z / safe[:, None]
        sim = unit @ unit.T
        np.fill_diagonal(sim, -np.inf)
        nbrs = np.argsort(-sim, axis=1, kind="stable")[:, :k_eff]
        np.put_along_axis(adj, nbrs, 1.0, axis=1)
        adj = np.maximum(adj, adj.T)
    return _normalize_loop(adj)


def _semantic_reference_cases():
    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(1, 40))
        yield rng.standard_normal((n, int(rng.integers(1, 9)))) * rng.uniform(1e-3, 1e3)
    row = rng.standard_normal(5)
    yield np.vstack([row, row, -row, 2.0 * row, np.zeros(5), np.zeros(5)])  # ties
    yield np.ones((7, 3))  # every similarity tied
    yield np.zeros((4, 3))  # every norm below EPS_NORM
    yield rng.standard_normal((1, 4))
    yield rng.standard_normal((2, 4))


def test_semantic_graph_bytes_equal_the_argsort_reference():
    for z in _semantic_reference_cases():
        n = z.shape[0]
        for k in sorted({1, 3, 5, max(n - 2, 1), n - 1 or 1, n, n + 4}):
            want = semantic_graph_argsort_reference(z, k)
            assert build_semantic_graph(z, k).tobytes() == want.tobytes(), (n, k)


# ---------------------------------------------------------------- GCN


def test_gcn_identity_graph_identity_weights():
    h = np.array([[1.0, -2.0], [3.0, 0.5]])
    g = build_instance_graph([Box(0, 0, 10, 10), Box(50, 50, 60, 60)], 0.3)
    proj = (Node(np.eye(2)), Node(np.eye(2)))
    out = gcn_forward(g, Node(h), *proj).value
    expected = np.maximum(h, 0)
    norms = np.linalg.norm(expected, axis=1, keepdims=True)
    assert np.abs(out - expected / norms).max() < 1e-12


def test_gcn_zero_input_gives_flagged_zero_rows():
    g = build_instance_graph([Box(0, 0, 10, 10), Box(0, 0, 10, 10)], 0.3)
    proj = (Node(np.ones((3, 4))), Node(np.ones((4, 2))))
    out = gcn_forward(g, Node(np.zeros((2, 3))), *proj).value
    assert np.array_equal(out, np.zeros((2, 2)))


def test_gcn_rejects_features_that_do_not_match_the_graph():
    g = build_instance_graph([Box(0, 0, 10, 10), Box(50, 50, 60, 60), Box(0, 0, 10, 12)], 0.3)
    with pytest.raises(ShapeError, match="propagate"):
        gcn_forward(g, Node(np.ones((2, 3))), Node(np.ones((3, 4))), Node(np.ones((4, 2))))


def test_gcn_two_node_fixture_matches_hand_propagation():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((2, 3))
    w1 = rng.standard_normal((3, 4))
    w2 = rng.standard_normal((4, 2))
    a_hat = np.full((2, 2), 0.5)
    g = build_instance_graph([Box(0, 0, 10, 10), Box(0, 0, 10, 10)], 0.3)
    assert np.abs(g - a_hat).max() < 1e-12
    out = gcn_forward(g, Node(h), Node(w1), Node(w2)).value
    manual = a_hat @ np.maximum(a_hat @ h @ w1, 0) @ w2
    manual /= np.linalg.norm(manual, axis=1, keepdims=True)
    assert np.abs(out - manual).max() < 1e-10


def test_gcn_relu_parent_is_its_propagate_pre_activation(monkeypatch, rng):
    """Each projector's first layer is ``relu(propagate(...))``: the relu
    node's one parent is that propagate's output, the pre-activation a kink
    check reads as ``relu_out.parents[0]``."""
    made = {"propagate": [], "relu": []}
    for name in made:
        original = getattr(nm, name)

        def spy(*args, _original=original, _seen=made[name]):
            out = _original(*args)
            _seen.append(out)
            return out

        monkeypatch.setattr(nm, name, spy)
    bag = make_bag(rng, m=6, n_classes=3, feature_dim=8)
    cfg = TrainConfig(hidden_dim=8, embed_dim=4)
    forward_losses(bag, init_state(cfg, 3, 8), cfg)
    assert len(made["relu"]) == len(made["propagate"]) == 4
    for relu_out, pre in zip(made["relu"], made["propagate"]):
        assert relu_out.parents == (pre,)
        assert np.array_equal(relu_out.value, np.maximum(pre.value, 0.0))


# ---------------------------------------------------------------- embeddings


# The four latent embeddings, in the argument order of igcl_terms.
Embeddings = namedtuple("Embeddings", "u u_prime v v_prime")


def _projectors(rng, dims, h=4, e=3):
    return [(Node(rng.standard_normal((d, h))), Node(rng.standard_normal((h, e)))) for d in dims]


def _embed(feats, label_onehot, z, scores, projs, instance_graph, semantic_graph):
    """The four projections as the training forward computes them."""
    p_ins, p_ins2, p_sem, p_sem2 = projs
    return Embeddings(
        u=gcn_forward(instance_graph, feats, *p_ins),
        u_prime=gcn_forward(instance_graph, nm.as_node(label_onehot), *p_ins2),
        v=gcn_forward(semantic_graph, z, *p_sem),
        v_prime=gcn_forward(semantic_graph, scores, *p_sem2),
    )


def test_compute_embeddings_rows_are_unit():
    rng = np.random.default_rng(4)
    m, d, k = 5, 6, 3
    boxes = [Box(i * 5, 0, i * 5 + 20, 20) for i in range(m)]
    feats = rng.standard_normal((m, d))
    z = rng.standard_normal((m, k))
    scores = rng.standard_normal((m, k))
    labels = rng.integers(0, k + 1, size=m)
    emb = _embed(
        Node(feats),
        one_hot_labels(labels, k + 1),
        Node(z),
        Node(scores),
        _projectors(rng, [d, k + 1, k, k]),
        build_instance_graph(boxes, 0.3),
        build_semantic_graph(z, 5),
    )
    for rows in (emb.u, emb.u_prime, emb.v, emb.v_prime):
        assert np.abs(np.linalg.norm(rows.value, axis=1) - 1.0).max() < 1e-9


def test_compute_embeddings_singleton_bag():
    rng = np.random.default_rng(5)
    emb = _embed(
        Node(rng.standard_normal((1, 4))),
        one_hot_labels(np.array([0]), 3),
        Node(rng.standard_normal((1, 2))),
        Node(rng.standard_normal((1, 2))),
        _projectors(rng, [4, 3, 2, 2]),
        build_instance_graph([Box(0, 0, 10, 10)], 0.3),
        build_semantic_graph(rng.standard_normal((1, 2)), 5),
    )
    for rows in (emb.u, emb.u_prime, emb.v, emb.v_prime):
        assert rows.value.shape[0] == 1
        assert abs(np.linalg.norm(rows.value[0]) - 1.0) < 1e-9


def test_compute_embeddings_equals_gcn_composition(monkeypatch):
    """The training forward contrasts the GCN projections of its inputs."""
    rng = np.random.default_rng(6)
    bag = make_bag(rng, m=5, n_classes=3, feature_dim=8)
    cfg = TrainConfig(hidden_dim=4, embed_dim=3)
    state = init_state(cfg, 3, 8)
    pins = PinnedSelections(monkeypatch, bag, state, cfg)
    fwd = forward_losses(bag, state, cfg)

    def proj(tag):
        p = state.params
        return Node(p[f"gcn_{tag}_w1"]), Node(p[f"gcn_{tag}_w2"])

    feats = Node(bag.features)
    z = nm.matmul_nt(feats, Node(state.params["w_sem"]))
    scores = pseudo_labels(correlation_matrix(z), z).scores
    emb = _embed(
        feats,
        one_hot_labels(pins.pinned["approx_labels"].labels, 4),
        z,
        scores,
        [proj("ins"), proj("ins_p"), proj("sem"), proj("sem_p")],
        build_instance_graph(bag.proposals, cfg.graph_iou),
        build_semantic_graph(z.value, cfg.knn_k),
    )
    assert fwd.terms["loss_con_sd"].value == info_nce(emb.u, emb.v, cfg.tau).value
    assert fwd.terms["loss_con_ds"].value == info_nce(emb.u_prime, emb.v_prime, cfg.tau).value


# ---------------------------------------------------------------- InfoNCE


def test_info_nce_singleton_is_zero():
    x = Node(np.array([[1.0, 0.0]]))
    assert float(info_nce(x, Node(np.array([[0.6, 0.8]])), 5.0).value) == 0.0


def test_info_nce_uniform_similarity_is_log_n():
    # all y rows identical: every similarity in a row is equal
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8):
        x = rng.standard_normal((n, 4))
        y = np.tile(rng.standard_normal(4), (n, 1))
        val = float(info_nce(Node(x), Node(y), 3.0).value)
        assert abs(val - np.log(n)) < 1e-9


def test_info_nce_2x2_fixture_matches_direct_formula():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([[0.8, 0.6], [0.6, 0.8]])
    tau = 5.0
    sim = tau * (x @ y.T)
    expected = -np.mean(
        [np.log(np.exp(sim[i, i]) / np.exp(sim[i]).sum()) for i in range(2)]
    )
    got = float(info_nce(Node(x), Node(y), tau).value)
    assert abs(got - expected) < 1e-10


def test_info_nce_decreases_when_positive_similarity_grows():
    tau = 2.0
    values = []
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        x = Node(np.eye(2))
        y = Node(np.array([[a, 0.2], [0.2, a]]))
        values.append(float(info_nce(x, y, tau).value))
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))


def test_info_nce_nonnegative_and_param_check():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.standard_normal((4, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y = rng.standard_normal((4, 3))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        assert float(info_nce(Node(x), Node(y), 5.0).value) >= 0.0
    with pytest.raises(ParameterError):
        info_nce(Node(np.ones((2, 2))), Node(np.ones((2, 2))), 0.0)


# ---------------------------------------------------------------- losses


def _unit_rows(rng, m, e):
    x = rng.standard_normal((m, e))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_igcl_loss_is_sum_of_both_directions():
    rng = np.random.default_rng(9)
    emb = Embeddings(*(Node(_unit_rows(rng, 4, 3)) for _ in range(4)))
    terms = igcl_terms(*emb, 5.0)
    assert list(terms) == ["loss_con_sd", "loss_con_ds"]
    assert terms["loss_con_sd"].value == info_nce(emb.u, emb.v, 5.0).value
    assert terms["loss_con_ds"].value == info_nce(emb.u_prime, emb.v_prime, 5.0).value

    bag = make_bag(rng, m=5, n_classes=3, feature_dim=8)
    cfg = TrainConfig(hidden_dim=4, embed_dim=3)
    fwd = forward_losses(bag, init_state(cfg, 3, 8), cfg)
    parts = float(fwd.terms["loss_con_sd"].value) + float(fwd.terms["loss_con_ds"].value)
    assert fwd.parts["loss_igcl"] == parts


def test_igcl_aligned_pairs_decreases_with_tau():
    # positives perfectly aligned, negatives orthogonal: loss ~ (n-1) e^-tau
    u = np.eye(4)
    emb = Embeddings(Node(u), Node(u), Node(u), Node(u))
    prev = np.inf
    for tau in (1.0, 3.0, 10.0, 30.0):
        val = sum(float(t.value) for t in igcl_terms(*emb, tau).values())
        assert val < prev
        prev = val
    assert prev < 1e-6  # aligned pairs, large tau: loss approaches zero


def test_igcl_singleton_is_zero():
    rng = np.random.default_rng(11)
    emb = Embeddings(*(Node(_unit_rows(rng, 1, 3)) for _ in range(4)))
    for terms in (igcl_terms(*emb, 5.0), independent_gcl_terms(*emb, 5.0)):
        assert all(float(t.value) == 0.0 for t in terms.values())


def test_independent_gcl_is_sum_of_self_contrasts():
    rng = np.random.default_rng(12)
    emb = Embeddings(*(Node(_unit_rows(rng, 4, 3)) for _ in range(4)))
    terms = independent_gcl_terms(*emb, 5.0)
    assert list(terms) == ["loss_con_ins", "loss_con_sem"]
    assert terms["loss_con_ins"].value == info_nce(emb.u, emb.u_prime, 5.0).value
    assert terms["loss_con_sem"].value == info_nce(emb.v, emb.v_prime, 5.0).value
    single = independent_gcl_terms(emb.u, emb.u_prime, None, None, 5.0)
    assert list(single) == ["loss_con_ins"]
    with pytest.raises(ParameterError):
        independent_gcl_terms(None, None, None, None, 5.0)

    bag = make_bag(rng, m=5, n_classes=3, feature_dim=8)
    cfg = TrainConfig(hidden_dim=4, embed_dim=3, modules=frozenset({"M1", "M2", "M3"}))
    fwd = forward_losses(bag, init_state(cfg, 3, 8), cfg)
    parts = float(fwd.terms["loss_con_ins"].value) + float(fwd.terms["loss_con_sem"].value)
    assert fwd.parts["loss_igcl"] == parts


def test_losses_invariant_under_bag_permutation():
    rng = np.random.default_rng(13)
    m = 6
    rows = [_unit_rows(rng, m, 4) for _ in range(4)]
    perm = rng.permutation(m)
    emb = Embeddings(*(Node(r) for r in rows))
    emb_p = Embeddings(*(Node(r[perm]) for r in rows))
    for fn in (igcl_terms, independent_gcl_terms):
        terms, terms_p = fn(*emb, 5.0), fn(*emb_p, 5.0)
        for name in terms:
            assert abs(float(terms[name].value) - float(terms_p[name].value)) < 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_igcl_gradients_through_projectors(seed):
    rng = np.random.default_rng(40 + seed)
    m, d, k = 4, 5, 3
    boxes = [Box(i * 4, 0, i * 4 + 18, 18) for i in range(m)]
    feats = rng.standard_normal((m, d))
    z_vals = rng.standard_normal((m, k))
    scores = rng.standard_normal((m, k))
    onehot = one_hot_labels(rng.integers(0, k + 1, size=m), k + 1)
    ig = build_instance_graph(boxes, 0.3)
    sg = build_semantic_graph(z_vals, 5)
    arrays = {
        "i1": rng.standard_normal((d, 4)),
        "i2": rng.standard_normal((4, 3)),
        "p1": rng.standard_normal((k + 1, 4)),
        "p2": rng.standard_normal((4, 3)),
        "s1": rng.standard_normal((k, 4)),
        "s2": rng.standard_normal((4, 3)),
        "t1": rng.standard_normal((k, 4)),
        "t2": rng.standard_normal((4, 3)),
    }

    def build():
        projs = {
            name: (Node(arrays[f"{name[0]}1"]), Node(arrays[f"{name[0]}2"]))
            for name in ("ins", "prime", "sem", "tem")
        }
        emb = _embed(
            Node(feats), onehot, Node(z_vals), Node(scores),
            [projs["ins"], projs["prime"], projs["sem"], projs["tem"]], ig, sg,
        )
        return reduce(nm.add, igcl_terms(*emb, 5.0).values()), projs

    loss, projs = build()
    nm.backward(loss)
    fd = finite_difference(lambda: float(build()[0].value), arrays)
    for name, (w1, w2) in projs.items():
        assert max_rel_err(w1.grad, fd[f"{name[0]}1"]) < 1e-4
        assert max_rel_err(w2.grad, fd[f"{name[0]}2"]) < 1e-4
