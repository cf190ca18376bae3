import hashlib
from dataclasses import replace

import numpy as np
import pytest

from weakdet import igcl as gc
from weakdet import numerics as nm
from weakdet import semantic_branch as sb
from weakdet.errors import NumericError, ParameterError, WeakdetError
from weakdet.gradcheck import (
    LOSS_NAMES,
    REL_FLOOR,
    STACK_CAP,
    GradCheckResult,
    analytic_gradients,
    check_bag,
    check_config,
    random_bag,
    run_checks,
)
from weakdet.numerics import Node
from weakdet.trainer import MODULE_NAMES, SUB_METHODS, forward_losses, infer, init_state

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

    _, grads = analytic_gradients(bag, state, cfg)
    audited = grads["loss_con_ds"]
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


def _graph_per_term(bag, state, cfg):
    """The oracle of analytic_gradients: a fresh forward for each named term
    and for the composite, each differentiated once."""
    grads = {}
    for loss_name in (*forward_losses(bag, state, cfg).terms, "composite"):
        fwd = forward_losses(bag, state, cfg)
        nm.backward(fwd.loss if loss_name == "composite" else fwd.terms[loss_name])
        grads[loss_name] = {p: n.grad for p, n in fwd.leaves.items() if n.grad is not None}
    return grads


@pytest.mark.parametrize("method", sorted(SUB_METHODS))
@pytest.mark.parametrize("ema", (0.0, 0.5))
def test_analytic_gradients_on_one_graph_equal_a_graph_per_term(method, ema):
    """Every term and the composite, differentiated in turn on one graph,
    get the bytes of a graph of their own; the graph returned has the values
    of a fresh forward."""
    bag, state, cfg = small_case(4, modules=SUB_METHODS[method], corr_sem_ema=ema)
    fwd, grads = analytic_gradients(bag, state, cfg)
    oracle = _graph_per_term(bag, state, cfg)
    assert list(grads) == list(oracle)
    for loss_name, groups in oracle.items():
        assert list(grads[loss_name]) == list(groups)
        for pname, grad in groups.items():
            got = grads[loss_name][pname]
            assert got.shape == grad.shape and got.tobytes() == grad.tobytes(), (loss_name, pname)
    fresh = forward_losses(bag, state, cfg)
    for root, ref in zip([*fwd.terms.values(), fwd.loss], [*fresh.terms.values(), fresh.loss]):
        assert root.value.tobytes() == ref.value.tobytes()


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


@pytest.mark.parametrize("step", [1e-300, 1e-17])
def test_check_bag_rejects_a_step_that_moves_no_entry(step):
    """A step below an entry's spacing leaves x + h == x, whose differences
    all read 0; the sweep names the first group and entry it cannot move."""
    bag, state, cfg = small_case(0)
    before = {name: value.tobytes() for name, value in state.params.items()}
    pname = sorted(state.params)[0]
    idx = next(i for i, x in np.ndenumerate(state.params[pname]) if x + step == x or x - step == x)
    with pytest.raises(ParameterError, match=rf"step {step} does not move entry "
                                             rf"\({idx[0]}, {idx[1]}\) of {pname}$"):
        check_bag(bag, state, cfg, step=step)
    with pytest.raises(ParameterError, match="does not move entry"):
        run_checks(1, step=step)
    assert {name: value.tobytes() for name, value in state.params.items()} == before


def test_check_bag_accepts_a_tiny_step_that_moves_every_entry():
    """Only an entry the step cannot move fails: one where x + h != x and
    x - h != x passes the check (the audit may then fail on rounding)."""
    bag, state, cfg = small_case(0)
    step = max(np.spacing(np.abs(v)).max() for v in state.params.values())
    assert len(check_bag(bag, state, cfg, step=step)) == len(check_bag(bag, state, cfg))


def test_check_bag_restores_the_parameters_when_a_replay_raises(monkeypatch):
    bag, state, cfg = small_case(0)
    before = {name: value.copy() for name, value in state.params.items()}
    calls = []
    original = nm.ReplayPlan.run

    def failing(plan, *stack):
        calls.append(None)
        if len(calls) == 7:
            raise NumericError("injected")
        return original(plan, *stack)

    monkeypatch.setattr(nm.ReplayPlan, "run", failing)
    with pytest.raises(NumericError, match="injected"):
        check_bag(bag, state, cfg)
    for name, value in before.items():
        assert state.params[name].tobytes() == value.tobytes()


@pytest.mark.parametrize("method", ("A", "F"))
def test_check_bag_plans_each_parameter_group_once(method, monkeypatch):
    """One planning call per bag, not per group or perturbation, gives one
    plan per group in sorted group order, and each group's perturbations run
    through its plan as one stack per chunk of STACK_CAP."""
    bag, state, cfg = small_case(1, modules=SUB_METHODS[method])
    planned, plans, runs = [], [], []
    plan_for, run = nm.replay, nm.ReplayPlan.run

    def counted_plan(roots, arrays):
        planned.append([next(p for p, v in state.params.items() if v is a) for a in arrays])
        plans.extend(plan_for(roots, arrays))
        return plans

    def counted_run(plan, *stack):
        runs.append(plan)
        return run(plan, *stack)

    monkeypatch.setattr(nm, "replay", counted_plan)
    monkeypatch.setattr(nm.ReplayPlan, "run", counted_run)
    results = check_bag(bag, state, cfg)
    groups = sorted({r.param_name for r in results})
    assert planned == [groups]
    assert runs == [plan for p, plan in zip(groups, plans)
                    for _ in range(-(-2 * state.params[p].size // STACK_CAP))]


@pytest.mark.parametrize("method", sorted(SUB_METHODS))
def test_a_pair_the_analytic_pass_does_not_reach_replays_to_its_base_value(method):
    """The sweep differences only the (loss, group) pairs the analytic pass
    reached: for every other pair the replay gives each copy the loss's base
    bytes, as a read-only view, so skipping it loses nothing."""
    bag, state, cfg = small_case(1, modules=SUB_METHODS[method])
    base, analytic = analytic_gradients(bag, state, cfg)
    names = sorted(state.params)
    rng = np.random.default_rng(3800)
    skipped = 0
    for pname, plan in zip(names, nm.replay(_roots(base), [state.params[p] for p in names])):
        target = state.params[pname]
        stack = np.concatenate([_nudged(target, (int(rng.integers(target.shape[0])), 0), d)
                                for d in (0.3, -0.3)])
        for (loss_name, groups), root, got in zip(analytic.items(), _roots(base), plan.run(stack)):
            if pname not in groups:
                skipped += 1
                assert got.strides[0] == 0 and not got.flags.writeable, (loss_name, pname)
                assert [g.tobytes() for g in got] == [root.value.tobytes()] * 2, (loss_name, pname)
    assert skipped


def test_a_plan_of_several_arrays_runs_to_the_bits_of_a_plan_of_each_alone():
    bag, state, cfg = _replay_case("F", 8, 0.5)
    base = forward_losses(bag, state, cfg)
    names = sorted(state.params)
    together = nm.replay(_roots(base), [state.params[p] for p in names])
    assert len(together) == len(names)
    rng = np.random.default_rng(3700)
    for pname, plan in zip(names, together):
        target = state.params[pname]
        stack = np.concatenate([
            _nudged(target, tuple(int(rng.integers(s)) for s in target.shape), 0.3)
            for _ in range(3)
        ])
        (alone,) = nm.replay(_roots(base), [target])
        assert plan.shape == alone.shape == target.shape
        assert [k for k, *_ in plan.steps] == [k for k, *_ in alone.steps], pname
        want = [r.tobytes() for r in alone.run(stack)]
        assert [r.tobytes() for r in plan.run(stack)] == want, pname


@pytest.mark.parametrize("method, losses", (("A", 2), ("B", 2), ("C", 3), ("D", 3), ("E", 5), ("F", 5)))
def test_check_bag_builds_one_forward_per_audited_loss(method, losses, monkeypatch):
    """All audited losses are differentiated on one forward per bag, and the
    replays run on that graph, not on a forward of their own."""
    bag, state, cfg = small_case(1, modules=SUB_METHODS[method])
    builds = []

    def counted(*args, **kwargs):
        builds.append(None)
        return forward_losses(*args, **kwargs)

    monkeypatch.setattr("weakdet.gradcheck.forward_losses", counted)
    results = check_bag(bag, state, cfg)
    assert len(builds) == 1
    assert len({r.loss_name for r in results}) == losses


@pytest.mark.parametrize("hidden_dim", (3, 40))
def test_the_stack_cap_changes_no_bit(hidden_dim, monkeypatch):
    """Every copy of a stack is computed apart from the others: capped at 1 or
    5 copies, the replays give the same values and check_bag the same
    results, also for groups of more than STACK_CAP copies (at width 40)."""
    bag, _, cfg = small_case(3)
    cfg = replace(cfg, hidden_dim=hidden_dim)
    state = init_state(cfg, K, D)
    assert (2 * state.params["gcn_ins_w1"].size > STACK_CAP) == (hidden_dim == 40)
    run = nm.ReplayPlan.run

    def audit(cap):
        monkeypatch.setattr("weakdet.gradcheck.STACK_CAP", cap)
        values = []

        def recorded(plan, *stack):
            values.append(run(plan, *stack))
            return values[-1]

        monkeypatch.setattr(nm.ReplayPlan, "run", recorded)
        results = [(r.loss_name, r.param_name, r.max_rel_err.hex())
                   for r in check_bag(bag, state, cfg)]
        return results, [np.concatenate(root).tobytes() for root in zip(*values)]

    want = audit(STACK_CAP)
    for cap in (1, 5):
        assert audit(cap) == want, cap


# ------------------------------------------- replay of the base forward


def _roots(fwd):
    return [*fwd.terms.values(), fwd.loss]


def _nudged(target, idx, delta):
    """A stack of one copy of ``target`` with the entry ``idx`` moved by ``delta``."""
    stack = target[None].copy()
    stack[(0, *idx)] += delta
    return stack


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
            plan = nm.replay(_roots(base), [target])[0]
            copies = []
            for _ in range(3):  # successive writes that accumulate, a copy after each
                idx = tuple(int(rng.integers(s)) for s in target.shape)
                # Large enough to flip relu masks now and then.
                target[idx] += rng.normal(0.0, 0.5)
                copies.append(target.copy())
            got = plan.run(np.stack(copies))
            for write, copy in enumerate(copies):
                target[...] = copy
                want = _roots(forward_losses(bag, state, cfg, include=include))
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g[write].tobytes() == w.value.tobytes(), (include, pname, write)
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
    plan = nm.replay(_roots(base), [target])[0]
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
    got = [g[0].tobytes() for g in plan.run(target[None])]
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
            nm.replay(_roots(base), [state.params["w_sem"]])[0].run(state.params["w_sem"][None])
    assert str(replayed.value) == str(fresh.value)


def test_replay_builds_no_node_and_raises_what_a_rebuild_raises(monkeypatch):
    """A run calls kernels on arrays only, with every check of a rebuild:
    a domain error or a non-finite value raises the same error."""
    bag, state, cfg = _replay_case("F", 8, 0.5)
    base = forward_losses(bag, state, cfg)
    plans = {pname: nm.replay(_roots(base), [target])[0] for pname, target in state.params.items()}
    made = []
    init = Node.__init__

    def counted_init(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Node, "__init__", counted_init)
    rng = np.random.default_rng(3500)
    for pname, plan in plans.items():
        target = state.params[pname]
        plan.run(_nudged(target, tuple(int(rng.integers(s)) for s in target.shape), 0.3))
    assert made == []
    forward_losses(bag, state, cfg)
    assert made  # the count sees the nodes a rebuild makes
    monkeypatch.undo()

    # Zero embeddings break the center loss's strict unit rows; an Inf or
    # NaN weight fails the finite check.
    for pname, value in (("w_sem", 0.0), ("w_cls", np.inf), ("gcn_sem_p_w1", np.nan)):
        target = state.params[pname]
        orig = target.copy()
        target[...] = value
        try:
            with pytest.raises(WeakdetError) as fresh:
                forward_losses(bag, state, cfg)
            with pytest.raises(WeakdetError) as replayed:
                plans[pname].run(target[None])
        finally:
            target[...] = orig
        assert type(replayed.value) is type(fresh.value), pname
        assert str(replayed.value) == str(fresh.value), pname
    assert [r[0].tobytes() for r in plans["w_sem"].run(state.params["w_sem"][None])] == [
        r.value.tobytes() for r in _roots(base)
    ]


def test_replay_leaves_the_base_graph_unchanged():
    bag, state, cfg = _replay_case("F", 8, 0.5)
    base = forward_losses(bag, state, cfg)
    nodes = graph_nodes(base.loss)
    snapshot = [(n.value, n.value.tobytes(), n.grad, n._record) for n in nodes]
    rng = np.random.default_rng(3300)
    stacks = {}
    for pname, target in state.params.items():
        stacks[pname] = _nudged(target, tuple(int(rng.integers(s)) for s in target.shape), 0.3)
        nm.replay(_roots(base), [target])[0].run(stacks[pname])
    assert graph_nodes(base.loss) == nodes
    for n, (value, raw, grad, record) in zip(nodes, snapshot):
        assert n.value is value and n.value.tobytes() == raw
        assert n.grad is grad is None and n._record is record
    want = {p: [r.tobytes() for r in nm.replay(_roots(base), [t])[0].run(stacks[p])]
            for p, t in state.params.items()}
    nm.backward(base.loss)  # still a fresh graph, and a backward writes no value
    for n, (value, raw, _, _) in zip(nodes, snapshot):
        assert n.value is value and n.value.tobytes() == raw
    for pname, target in state.params.items():
        got = [r.tobytes() for r in nm.replay(_roots(base), [target])[0].run(stacks[pname])]
        assert got == want[pname], pname


def test_perturbing_an_instance_gcn_weight_reruns_no_branch_op(monkeypatch):
    """gcn_ins_w1 reaches u, loss_con_sd and the composite: nothing of either
    branch, nor the other three projectors, runs again."""
    calls = {}
    make_node = nm._op

    def counting_op(kernel, *operands):
        name = kernel.__qualname__.split(".")[0]  # the op that made the kernel

        def counted(*arrays):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*arrays)

        return make_node(counted, *operands)

    monkeypatch.setattr(nm, "_op", counting_op)
    bag, state, cfg = _replay_case("F", 8, 0.0)
    base = forward_losses(bag, state, cfg)
    assert calls["matmul"] and calls["pearson_cols"]  # the branches were built
    calls.clear()
    target = state.params["gcn_ins_w1"]
    plan = nm.replay(_roots(base), [target])[0]
    assert calls == {}  # planning calls no op
    plan.run(_nudged(target, (0, 0), 0.1))
    # propagate, relu, propagate_unit for u; info_nce; the composite, one
    # node where the contrast's add, its lambda scale and the last add were.
    assert calls == {
        "propagate": 1, "relu": 1, "propagate_unit": 1, "info_nce": 1, "composite_loss": 1
    }


def test_only_a_backward_builds_rules_and_once_per_node(monkeypatch):
    """Kernels return their rules unbuilt: no replay run and no inference
    builds any, and a backward builds each differentiable op result's rules
    exactly once."""
    built = []
    make_node = nm._op

    def counting_op(kernel, *operands):
        def counted(*arrays):
            value, rules = kernel(*arrays)

            def counted_rules(g):
                built.append(counted)
                return rules(g)

            return value, counted_rules

        return make_node(counted, *operands)

    monkeypatch.setattr(nm, "_op", counting_op)
    bag, state, cfg = _replay_case("F", 8, 0.5)
    base = forward_losses(bag, state, cfg)
    rng = np.random.default_rng(3600)
    for target in state.params.values():
        plan = nm.replay(_roots(base), [target])[0]
        plan.run(_nudged(target, tuple(int(rng.integers(s)) for s in target.shape), 0.1))
    assert infer(bag, state, cfg)
    assert built == []
    nm.backward(base.loss)
    ops = [n._record for n in graph_nodes(base.loss) if n.requires_grad and n.parents]
    assert len(ops) > 20
    assert sorted(map(id, built)) == sorted(map(id, ops))
