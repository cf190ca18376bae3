import hashlib
import inspect
from dataclasses import replace

import numpy as np
import pytest

from weakdet import igcl as gc
from weakdet import numerics as nm
from weakdet import semantic_branch as sb
from weakdet.errors import NumericError, ParameterError
from weakdet.gradcheck import (
    LOSS_NAMES,
    REL_FLOOR,
    GradCheckResult,
    analytic_gradients,
    check_bag,
    check_config,
    random_bag,
    run_checks,
)
from weakdet.numerics import Node
from weakdet.trainer import MODULE_NAMES, SUB_METHODS, forward_losses, init_state

from conftest import PinnedSelections, graph_nodes, make_bag

K, D = 3, 5


def small_case(seed, **overrides):
    rng = np.random.default_rng(2000 + seed)
    bag = random_bag(rng, K, D, max_instances=5)
    cfg = replace(check_config(seed), hidden_dim=3, embed_dim=2, **overrides)
    return bag, init_state(cfg, K, D), cfg


# ------------------------------------------- oracle: one sweep per loss


def _oracle_loss(name, bag, state, cfg, pins):
    """(loss node, leaves) for one loss, with its own contrastive forward,
    which knows nothing of ``corr_sem_ema``; ``pins`` holds the selections."""
    if name in ("loss_ins", "loss_sem", "composite"):
        include = {"loss_ins": frozenset({"M1"}), "loss_sem": frozenset({"M2"})}.get(name)
        fwd = forward_losses(bag, state, cfg, include=include)
        return fwd.loss, fwd.leaves

    leaves = {}

    def leaf(n):
        if n not in leaves:
            leaves[n] = Node(state.params[n])
        return leaves[n]

    feats = nm.as_node(bag.features)
    z = nm.matmul_nt(feats, leaf("w_sem"))
    instance_graph = pins.pinned["build_instance_graph"]
    semantic_graph = pins.pinned["build_semantic_graph"]
    if name == "loss_con_sd":
        u = gc.gcn_forward(instance_graph, feats, leaf("gcn_ins_w1"), leaf("gcn_ins_w2"))
        v = gc.gcn_forward(semantic_graph, z, leaf("gcn_sem_w1"), leaf("gcn_sem_w2"))
        return gc.info_nce(u, v, cfg.tau), leaves
    pseudo = sb.pseudo_labels(sb.correlation_matrix(z), z)
    onehot = gc.one_hot_labels(pins.pinned["approx_labels"].labels, bag.n_classes + 1)
    u_p = gc.gcn_forward(
        instance_graph, nm.as_node(onehot), leaf("gcn_ins_p_w1"), leaf("gcn_ins_p_w2")
    )
    v_p = gc.gcn_forward(
        semantic_graph, pseudo.scores, leaf("gcn_sem_p_w1"), leaf("gcn_sem_p_w2")
    )
    return gc.info_nce(u_p, v_p, cfg.tau), leaves


def oracle_check_bag(pins, bag, state, cfg, step=1e-4, tolerance=1e-4, corrupt=False):
    """The audit as it was: a separate central-difference sweep per loss,
    each forward rebuilt with the selections ``pins`` holds."""
    results = []
    for loss_name in LOSS_NAMES:
        loss, leaves = _oracle_loss(loss_name, bag, state, cfg, pins)
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
                hi, _ = _oracle_loss(loss_name, bag, state, cfg, pins)
                target[idx] = orig - step
                lo, _ = _oracle_loss(loss_name, bag, state, cfg, pins)
                target[idx] = orig
                fd[idx] = (float(hi.value) - float(lo.value)) / (2.0 * step)
                it.iternext()
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), REL_FLOOR)
            rel = float((np.abs(analytic - fd) / denom).max())
            results.append(GradCheckResult(loss_name, pname, rel, tolerance))
    return results


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("corrupt", (False, True))
def test_one_sweep_audit_equals_per_loss_oracle(seed, corrupt, monkeypatch):
    bag, state, cfg = small_case(seed)
    got = check_bag(bag, state, cfg, corrupt=corrupt)
    pins = PinnedSelections(monkeypatch, bag, state, cfg)
    expected = oracle_check_bag(pins, bag, state, cfg, corrupt=corrupt)
    assert [(r.loss_name, r.param_name, r.max_rel_err) for r in got] == [
        (r.loss_name, r.param_name, r.max_rel_err) for r in expected
    ]
    assert all(r.passed for r in got) != corrupt


# ------------------------------------------- the audit, bit for bit

# SHA-256 over (loss, parameter group, max_rel_err.hex()) for every result of
# check_bag, per (sub-method, corr_sem_ema): the audit's counterpart of the
# trainer's TRAJECTORY_DIGESTS. A kernel change that moves one bit of any
# forward the replays run, or of any analytic gradient, moves a digest.
AUDIT_DIGESTS = {
    ("A", 0.0): "96b585c1831eaddb21ddd9bd960f267610ba7d39b22cf74f6984c04b76b7a55c",
    ("A", 0.5): "8e49b24bd8494ff6be73d74677b8f49b583dc757ebd4f5ba673593370d3ffe21",
    ("B", 0.0): "90b275d44ed49c031752e17d9a6e65e55d77c18a0f67ddafff541541e060a33c",
    ("B", 0.5): "2a2fe96139e87dd3a67e5d5cf1fa4cbf96c0e02ea05d9c2a95f8d39344f35a97",
    ("C", 0.0): "74732e8bed9be94e2eb82a817eb9c392cc431dc565dfe08255fa1ea31a71a0a2",
    ("C", 0.5): "590d183382e22b86e3ea1d96586a282252b7f25da68e980daef55ce0b2b727e2",
    ("D", 0.0): "7cde1686844cc0b7bad102c151991d081505e2182b7c90989815a89169972dcd",
    ("D", 0.5): "5fe22d485104da8cf74ca6a32c6f1923b270e78de60f3cde558d182dba144025",
    ("E", 0.0): "a502f01bb5f03ad633281d734d59bcf148f59e5441323f709d3e36c3f4849293",
    ("E", 0.5): "2ead2172e063bda46d104aed86ef6bdbe0ee9a25ca19ef0efebcad57b991d4bd",
    ("F", 0.0): "b128aeda2c4715cd97a4eebb5c5ccbabd79aa7720e0bea661aa078539bc0c084",
    ("F", 0.5): "67ea84659e956f84d975434889e7e4797c2b1c313b836017ba39f0c7debe71b4",
}


@pytest.mark.parametrize("method, ema", sorted(AUDIT_DIGESTS))
def test_audit_results_match_pinned_digests(method, ema):
    seed = 3600 + 10 * "ABCDEF".index(method) + int(ema > 0)
    rng = np.random.default_rng(seed)
    n_classes, feature_dim = 4, 12
    bag = random_bag(rng, n_classes, feature_dim)
    cfg = replace(check_config(seed), modules=SUB_METHODS[method], corr_sem_ema=ema)
    state = init_state(cfg, n_classes, feature_dim)
    state.corr_buffer = np.eye(n_classes) + 0.1 * rng.standard_normal((n_classes, n_classes))
    results = check_bag(bag, state, cfg)
    assert all(r.passed for r in results)
    h = hashlib.sha256()
    for r in results:
        h.update(repr((r.loss_name, r.param_name, r.max_rel_err.hex())).encode())
    assert h.hexdigest() == AUDIT_DIGESTS[method, ema]


def test_loss_names_are_the_forward_terms():
    bag, state, cfg = small_case(0, modules=SUB_METHODS["F"])
    assert LOSS_NAMES == (*forward_losses(bag, state, cfg).terms, "composite")


def test_audit_reads_the_trained_contrastive_forward_under_ema(monkeypatch):
    bag, state, cfg = small_case(1, corr_sem_ema=0.5)
    assert all(r.passed for r in check_bag(bag, state, cfg))

    audited = analytic_gradients(bag, state, cfg)["loss_con_ds"]
    fwd = forward_losses(bag, state, cfg)
    nm.backward(fwd.terms["loss_con_ds"])
    trained = {n: node.grad for n, node in fwd.leaves.items() if node.grad is not None}
    assert audited.keys() == trained.keys()
    for name in trained:
        assert np.array_equal(audited[name], trained[name])

    # The per-loss copy ignores the blend, so its gradient differs here.
    pins = PinnedSelections(monkeypatch, bag, state, cfg)
    loss, leaves = _oracle_loss("loss_con_ds", bag, state, cfg, pins)
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


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_check_bag_and_run_checks_reject_a_bad_step_or_tolerance(bad):
    bag, state, cfg = small_case(0)
    for kw in ({"step": bad}, {"tolerance": bad}):
        with pytest.raises(ParameterError):
            check_bag(bag, state, cfg, **kw)
        with pytest.raises(ParameterError):
            run_checks(1, **kw)


def test_check_bag_restores_the_parameters_when_a_replay_raises(monkeypatch):
    bag, state, cfg = small_case(0)
    before = {name: value.copy() for name, value in state.params.items()}
    calls = []
    original = nm.ReplayPlan.run

    def failing(plan):
        calls.append(None)
        if len(calls) == 7:
            raise NumericError("injected")
        return original(plan)

    monkeypatch.setattr(nm.ReplayPlan, "run", failing)
    with pytest.raises(NumericError, match="injected"):
        check_bag(bag, state, cfg)
    for name, value in before.items():
        assert state.params[name].tobytes() == value.tobytes()


@pytest.mark.parametrize("method", ("A", "F"))
def test_check_bag_plans_each_parameter_group_once(method, monkeypatch):
    """The walk, sort and dirty test run once per group, not per perturbation."""
    bag, state, cfg = small_case(1, modules=SUB_METHODS[method])
    planned, runs = [], []
    plan_for, run = nm.replay, nm.ReplayPlan.run

    def counted_plan(roots, changed):
        planned.append(next(p for p, v in state.params.items() if v is changed))
        return plan_for(roots, changed)

    def counted_run(plan):
        runs.append(None)
        return run(plan)

    monkeypatch.setattr(nm, "replay", counted_plan)
    monkeypatch.setattr(nm.ReplayPlan, "run", counted_run)
    results = check_bag(bag, state, cfg)
    groups = sorted({r.param_name for r in results})
    assert planned == groups
    assert len(runs) == 2 * sum(state.params[p].size for p in groups)


# ------------------------------------------- replay of the base forward


def _roots(fwd):
    return [*fwd.terms.values(), fwd.loss]


def _replay_case(method, m, ema):
    rng = np.random.default_rng(3100 + m)
    bag = make_bag(rng, m=m, n_classes=K, feature_dim=D, n_pos=1 if m == 1 else None)
    cfg = replace(check_config(m), hidden_dim=3, embed_dim=2, modules=SUB_METHODS[method],
                  corr_sem_ema=ema)
    state = init_state(cfg, K, D)
    state.corr_buffer = np.eye(K) + 0.1 * rng.standard_normal((K, K))
    return bag, state, cfg


@pytest.mark.parametrize("method", sorted(SUB_METHODS))
@pytest.mark.parametrize("phase_mode", ("fused", "sequential"))
@pytest.mark.parametrize("ema", (0.0, 0.5))
@pytest.mark.parametrize("m", (1, 8))
def test_replay_equals_a_fresh_forward_byte_for_byte(method, phase_mode, ema, m, monkeypatch):
    """The reference forward pins the base point's selections; unpinned, it
    differs from the replay in most of these cases."""
    bag, state, cfg = _replay_case(method, m, ema)
    PinnedSelections(monkeypatch, bag, state, cfg)
    masks = [None] if phase_mode == "fused" else [
        frozenset({name}) for name in MODULE_NAMES if name in cfg.modules
    ]
    rng = np.random.default_rng(3200)
    for include in masks:
        base = forward_losses(bag, state, cfg, include=include)
        for pname in sorted(state.params):
            target = state.params[pname]
            orig = target.copy()
            plan = nm.replay(_roots(base), target)
            for write in range(3):  # one plan, successive writes that accumulate
                idx = tuple(int(rng.integers(s)) for s in target.shape)
                # Large enough to flip relu masks now and then.
                target[idx] += rng.normal(0.0, 0.5)
                got = plan.run()
                want = _roots(forward_losses(bag, state, cfg, include=include))
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.value.tobytes(), (include, pname, write)
            target[...] = orig


def _flipped(selection, fresh, pinned):
    if selection == "build_semantic_graph":  # a kNN edge came or went
        return not np.array_equal(fresh != 0, pinned != 0)
    return not np.array_equal(fresh.labels, pinned.labels)


@pytest.mark.parametrize(
    "selection, pname",
    [("approx_labels", "w_det"), ("pseudo_labels", "w_sem"), ("build_semantic_graph", "w_sem")],
)
def test_replay_holds_a_selection_that_a_fresh_forward_flips(selection, pname, monkeypatch):
    """The audit's only hold on the discrete selections is the replay."""
    bag, state, cfg = _replay_case("F", 8, 0.5)
    pins = PinnedSelections(monkeypatch, bag, state, cfg)
    base = forward_losses(bag, state, cfg)
    target = state.params[pname]
    plan = nm.replay(_roots(base), target)
    rng = np.random.default_rng(3400)
    pins.held = False
    for _ in range(50):  # successive writes that accumulate
        idx = tuple(int(rng.integers(s)) for s in target.shape)
        target[idx] += rng.normal(0.0, 0.5)
        unpinned = [r.value.tobytes() for r in _roots(forward_losses(bag, state, cfg))]
        if _flipped(selection, pins.fresh[selection], pins.pinned[selection]):
            break
    else:
        pytest.fail(f"no write to {pname} flipped {selection}")
    pins.held = True
    want = [r.value.tobytes() for r in _roots(forward_losses(bag, state, cfg))]
    got = [g.tobytes() for g in plan.run()]
    assert got == want
    assert got != unpinned


def test_replay_raises_what_a_fresh_forward_raises(monkeypatch):
    bag, state, cfg = _replay_case("F", 8, 0.0)
    PinnedSelections(monkeypatch, bag, state, cfg)
    base = forward_losses(bag, state, cfg)
    state.params["w_sem"][0, 0] = 1e300
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="pearson_cols") as fresh:
            forward_losses(bag, state, cfg)
        with pytest.raises(NumericError, match="pearson_cols") as replayed:
            nm.replay(_roots(base), state.params["w_sem"]).run()
    assert str(replayed.value) == str(fresh.value)


def test_replay_leaves_the_base_graph_unchanged():
    bag, state, cfg = _replay_case("F", 8, 0.5)
    base = forward_losses(bag, state, cfg)
    nodes = graph_nodes(base.loss)
    snapshot = [(n.value, n.value.tobytes(), n.grad, n._record) for n in nodes]
    rng = np.random.default_rng(3300)
    for pname, target in state.params.items():
        idx = tuple(int(rng.integers(s)) for s in target.shape)
        orig = target[idx]
        target[idx] = orig + 0.3
        nm.replay(_roots(base), target).run()
        target[idx] = orig
    assert graph_nodes(base.loss) == nodes
    for n, (value, raw, grad, record) in zip(nodes, snapshot):
        assert n.value is value and n.value.tobytes() == raw
        assert n.grad is grad is None and n._record is record
    nm.backward(base.loss)  # still a fresh graph


def test_perturbing_an_instance_gcn_weight_reruns_no_branch_op(monkeypatch):
    """gcn_ins_w1 reaches u, loss_con_sd and the sums: nothing of either
    branch, nor the other three projectors, runs again."""
    calls = {}
    for name, fn in list(vars(nm).items()):
        if (inspect.isfunction(fn) and fn.__module__ == nm.__name__
                and fn.__annotations__.get("return") == "Node"
                and not name.startswith("_") and name != "as_node"):

            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(nm, name, counted)
    bag, state, cfg = _replay_case("F", 8, 0.0)
    base = forward_losses(bag, state, cfg)
    assert calls["matmul"] and calls["pearson_cols"]  # the branches were built
    calls.clear()
    target = state.params["gcn_ins_w1"]
    plan = nm.replay(_roots(base), target)
    assert calls == {}  # planning calls no op
    target[0, 0] += 0.1
    plan.run()
    # propagate, relu, propagate_unit for u; info_nce; the l_gcl add, its
    # lambda scale and the last add of the composite.
    assert calls == {
        "propagate": 1, "relu": 1, "propagate_unit": 1, "info_nce": 1, "add": 2, "scale": 1
    }
