from dataclasses import replace

import numpy as np
import pytest

from weakdet import igcl as gc
from weakdet import numerics as nm
from weakdet import semantic_branch as sb
from weakdet.gradcheck import (
    LOSS_NAMES,
    REL_FLOOR,
    GradCheckResult,
    analytic_gradients,
    check_bag,
    check_config,
    freeze_structures,
    random_bag,
)
from weakdet.numerics import Node
from weakdet.trainer import SUB_METHODS, forward_losses, init_state

K, D = 3, 5


def small_case(seed, **overrides):
    rng = np.random.default_rng(2000 + seed)
    bag = random_bag(rng, K, D, max_instances=5)
    cfg = replace(check_config(seed), hidden_dim=3, embed_dim=2, **overrides)
    return bag, init_state(cfg, K, D), cfg


# ------------------------------------------- oracle: one sweep per loss


def _oracle_loss(name, bag, state, cfg, frozen):
    """(loss node, leaves) for one loss, with its own contrastive forward,
    which knows nothing of ``corr_sem_ema``."""
    if name in ("loss_ins", "loss_sem", "composite"):
        include = {"loss_ins": frozenset({"M1"}), "loss_sem": frozenset({"M2"})}.get(name)
        fwd = forward_losses(bag, state, cfg, frozen, include=include)
        return fwd.loss, fwd.leaves

    leaves = {}

    def leaf(n):
        if n not in leaves:
            leaves[n] = Node(state.params[n])
        return leaves[n]

    feats = nm.as_node(bag.features)
    z = sb.project(feats, sb.SemanticProjector(leaf("w_sem")))
    if name == "loss_con_sd":
        u = gc.gcn_forward(
            frozen.instance_graph, feats, gc.GcnProjector(leaf("gcn_ins_w1"), leaf("gcn_ins_w2"))
        )
        v = gc.gcn_forward(
            frozen.semantic_graph, z, gc.GcnProjector(leaf("gcn_sem_w1"), leaf("gcn_sem_w2"))
        )
        return gc.info_nce(u, v, cfg.tau), leaves
    pseudo = sb.pseudo_labels(sb.correlation_matrix(z), z)
    onehot = gc.one_hot_labels(frozen.approx.labels, bag.n_classes + 1)
    u_p = gc.gcn_forward(
        frozen.instance_graph,
        nm.as_node(onehot),
        gc.GcnProjector(leaf("gcn_ins_p_w1"), leaf("gcn_ins_p_w2")),
    )
    v_p = gc.gcn_forward(
        frozen.semantic_graph,
        pseudo.scores,
        gc.GcnProjector(leaf("gcn_sem_p_w1"), leaf("gcn_sem_p_w2")),
    )
    return gc.info_nce(u_p, v_p, cfg.tau), leaves


def oracle_check_bag(bag, state, cfg, step=1e-4, tolerance=1e-4, corrupt=False):
    """The audit as it was: a separate central-difference sweep per loss."""
    frozen = freeze_structures(bag, state, cfg)
    results = []
    for loss_name in LOSS_NAMES:
        loss, leaves = _oracle_loss(loss_name, bag, state, cfg, frozen)
        nm.backward(loss)
        for pname in sorted(leaves):
            analytic = leaves[pname].grad.copy()
            if corrupt:
                flat = analytic.reshape(-1)
                flat[0] += 0.1 * (np.abs(flat).max() + 1.0)
            target = state.params[pname]
            fd = np.zeros_like(target)
            it = np.nditer(target, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = target[idx]
                target[idx] = orig + step
                hi, _ = _oracle_loss(loss_name, bag, state, cfg, frozen)
                target[idx] = orig - step
                lo, _ = _oracle_loss(loss_name, bag, state, cfg, frozen)
                target[idx] = orig
                fd[idx] = (float(hi.value) - float(lo.value)) / (2.0 * step)
                it.iternext()
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), REL_FLOOR)
            rel = float((np.abs(analytic - fd) / denom).max())
            results.append(GradCheckResult(loss_name, pname, rel, tolerance))
    return results


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("corrupt", (False, True))
def test_one_sweep_audit_equals_per_loss_oracle(seed, corrupt):
    bag, state, cfg = small_case(seed)
    expected = oracle_check_bag(bag, state, cfg, corrupt=corrupt)
    got = check_bag(bag, state, cfg, corrupt=corrupt)
    assert [(r.loss_name, r.param_name, r.max_rel_err) for r in got] == [
        (r.loss_name, r.param_name, r.max_rel_err) for r in expected
    ]
    assert all(r.passed for r in got) != corrupt


def test_loss_names_are_the_forward_terms():
    bag, state, cfg = small_case(0, modules=SUB_METHODS["F"])
    assert LOSS_NAMES == (*forward_losses(bag, state, cfg).terms, "composite")


def test_audit_reads_the_trained_contrastive_forward_under_ema():
    bag, state, cfg = small_case(1, corr_sem_ema=0.5)
    assert all(r.passed for r in check_bag(bag, state, cfg))

    frozen = freeze_structures(bag, state, cfg)
    audited = analytic_gradients(bag, state, cfg, frozen)["loss_con_ds"]
    fwd = forward_losses(bag, state, cfg, frozen)
    nm.backward(fwd.terms["loss_con_ds"])
    trained = {n: node.grad for n, node in fwd.leaves.items() if node.grad is not None}
    assert audited.keys() == trained.keys()
    for name in trained:
        assert np.array_equal(audited[name], trained[name])

    # The per-loss copy ignores the blend, so its gradient differs here.
    loss, leaves = _oracle_loss("loss_con_ds", bag, state, cfg, frozen)
    nm.backward(loss)
    assert not np.array_equal(leaves["w_sem"].grad, audited["w_sem"])


@pytest.mark.parametrize(
    "method, losses",
    [
        ("A", ["loss_ins", "composite"]),
        ("E", ["loss_ins", "loss_sem", "loss_con_ins", "loss_con_sem", "composite"]),
    ],
)
def test_check_bag_audits_every_term_the_mask_builds(method, losses):
    bag, state, cfg = small_case(2, modules=SUB_METHODS[method])
    results = check_bag(bag, state, cfg)
    assert list(dict.fromkeys(r.loss_name for r in results)) == losses
    assert all(r.passed for r in results)
