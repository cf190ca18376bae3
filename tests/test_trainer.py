import hashlib
import inspect
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakdet import igcl
from weakdet import instance_branch as ib
from weakdet import numerics as nm
from weakdet.datamodel import Box, SceneConfig, filter_proposals, generate_dataset
from weakdet.errors import (
    CompatibilityError, ConfigError, EmptyBagError, NumericError, ParseError, WeakdetError,
)
from weakdet.evalmetrics import Detection, iou
from weakdet.trainer import (
    SUB_METHODS,
    TrainConfig,
    TrainState,
    _phase_masks,
    _semantic_chain,
    forward_losses,
    infer,
    init_state,
    load_checkpoint,
    lr_at,
    nms,
    resolve_schedule,
    save_checkpoint,
    sgd_step,
    train,
)

from conftest import graph_nodes, make_bag, reference_nms


def tiny_dataset(n=6, seed=0):
    cfg = SceneConfig(n_classes=3, feature_dim=8, seed=seed)
    return generate_dataset(cfg, n)


def small_cfg(**kw):
    base = dict(hidden_dim=8, embed_dim=4, epochs=2)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------- config


def test_mask_validation():
    with pytest.raises(ConfigError):
        TrainConfig(modules=frozenset())
    with pytest.raises(ConfigError):
        TrainConfig(modules=frozenset({"M1", "M2", "M3", "M4"}))
    with pytest.raises(ConfigError):
        TrainConfig(modules=frozenset({"M1", "M4"}))  # M4 needs both branches
    with pytest.raises(ConfigError):
        TrainConfig(modules=frozenset({"M3"}))
    with pytest.raises(ConfigError):
        TrainConfig(modules=frozenset({"M1", "M9"}))
    for mask in SUB_METHODS.values():
        TrainConfig(modules=mask)  # all sub-methods are valid


SCHEDULE_RULE = "(breakpoint, rate) pairs with rising finite breakpoints and finite rates >= 0"


@pytest.mark.parametrize("kw, message", [
    (dict(epochs=1.5), "epochs must be an int, got 1.5"),
    (dict(hidden_dim=2.5), "hidden_dim must be an int, got 2.5"),
    (dict(hidden_dim=True), "hidden_dim must be an int, got True"),
    (dict(embed_dim=4.0), "embed_dim must be an int, got 4.0"),
    (dict(batch_size=1.5), "batch_size must be an int, got 1.5"),
    (dict(knn_k=2.5), "knn_k must be an int, got 2.5"),
    (dict(seed=1.5), "seed must be an int, got 1.5"),
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(epochs=-1), "epochs must be >= 0, got -1"),
    (dict(batch_size=0), "batch_size must be >= 1, got 0"),
    (dict(hidden_dim=4097), "hidden_dim must be in [1, 4096], got 4097"),
    (dict(embed_dim=99_999_999_999), "embed_dim must be in [1, 4096], got 99999999999"),
    (dict(knn_k=10_001), "knn_k must be in [1, 10000], got 10001"),
    (dict(phase_mode="mixed"), "phase_mode must be fused or sequential, got 'mixed'"),
    (dict(semantic_init="zeros"), "semantic_init must be prototypes or random, got 'zeros'"),
    (dict(center_init=""), "center_init must be prototypes or random, got ''"),
    (dict(tau="5"), "tau must be a finite number > 0, got '5'"),
    (dict(momentum=None), "momentum must be in [0, 1), got None"),
    (dict(modules=5), "modules must be a set of module names, got 5"),
    (dict(lr_schedule=None), f"lr_schedule must be {SCHEDULE_RULE}, got None"),
    (dict(lr_schedule=(("a", 1.0),)), f"lr_schedule must be {SCHEDULE_RULE}, got (('a', 1.0),)"),
    (dict(lr_schedule=((0.0,),)), f"lr_schedule must be {SCHEDULE_RULE}, got ((0.0,),)"),
])
def test_count_and_choice_keys_are_checked_naming_them(kw, message):
    with pytest.raises(ConfigError) as exc:
        TrainConfig(**kw)
    assert str(exc.value) == message


def test_schedule_validation_and_lookup():
    with pytest.raises(ConfigError):
        TrainConfig(lr_schedule=((0.8, 1e-4), (0.0, 1e-3)))
    cfg = TrainConfig(lr_schedule=((0.0, 1e-3), (0.5, 1e-4)))
    schedule = resolve_schedule(cfg, 100)
    assert schedule == [(0, 1e-3), (50, 1e-4)]
    assert lr_at(schedule, 0) == 1e-3
    assert lr_at(schedule, 49) == 1e-3
    assert lr_at(schedule, 50) == 1e-4


# ---------------------------------------------------------------- composite


def test_composite_reduces_to_instance_loss_when_others_off(rng):
    bag = make_bag(rng, m=5, n_classes=3, feature_dim=8)
    cfg = small_cfg(lambda_sem=0.0, lambda_igcl=0.0)
    state = init_state(cfg, 3, 8)
    fwd = forward_losses(bag, state, cfg)
    assert abs(float(fwd.loss.value) - cfg.lambda_ins * fwd.parts["loss_ins"]) < 1e-12


def test_composite_all_lambdas_zero(rng):
    bag = make_bag(rng, m=4, n_classes=3, feature_dim=8)
    cfg = small_cfg(lambda_ins=0.0, lambda_sem=0.0, lambda_igcl=0.0)
    state = init_state(cfg, 3, 8)
    fwd = forward_losses(bag, state, cfg)
    assert float(fwd.loss.value) == 0.0
    nm.backward(fwd.loss)
    for node in fwd.leaves.values():
        assert np.all(node.grad == 0.0)


def test_composite_equals_sum_of_parts(rng):
    bag = make_bag(rng, m=6, n_classes=3, feature_dim=8)
    cfg = small_cfg(lambda_ins=0.7, lambda_sem=1.3, lambda_igcl=0.5)
    state = init_state(cfg, 3, 8)
    fwd = forward_losses(bag, state, cfg)
    expected = (
        0.7 * fwd.parts["loss_ins"] + 1.3 * fwd.parts["loss_sem"] + 0.5 * fwd.parts["loss_igcl"]
    )
    assert abs(float(fwd.loss.value) - expected) < 1e-12
    named = (
        float(fwd.terms["loss_ins"].value)
        + float(fwd.terms["loss_sem"].value)
        + 0.5 * (float(fwd.terms["loss_con_sd"].value) + float(fwd.terms["loss_con_ds"].value))
    )
    assert abs(float(fwd.loss.value) - named) < 1e-12


def test_masked_modules_get_no_gradient_and_no_update(rng):
    bags, _ = tiny_dataset(4)
    cfg = small_cfg(modules=frozenset({"M2"}), epochs=2)  # sub-method B
    state = init_state(cfg, 3, 8)
    before = {k: v.copy() for k, v in state.params.items()}
    state, _ = train(bags, cfg, state)
    for name in ("w_cls", "w_det", "w_bg", "gcn_ins_w1", "gcn_sem_w1"):
        assert np.array_equal(state.params[name], before[name])
    assert not np.array_equal(state.params["w_sem"], before["w_sem"])


# ---------------------------------------------------------------- SGD


def make_scalar_state(w0):
    state = init_state(TrainConfig(), 2, 2)
    return replace(state, params={"w": np.array([w0])}, velocity={"w": np.zeros(1)})


def test_sgd_plain_gradient_descent():
    state = make_scalar_state(1.0)
    cfg = TrainConfig(momentum=0.0, weight_decay=0.0)
    sgd_step(state, np.array([0.5]), cfg, lr=0.1)
    assert abs(state.params["w"][0] - (1.0 - 0.1 * 0.5)) < 1e-15
    assert state.step == 1


def test_sgd_fixed_point():
    state = make_scalar_state(2.0)
    cfg = TrainConfig(momentum=0.9, weight_decay=0.0)
    sgd_step(state, np.array([0.0]), cfg, lr=0.1)
    assert state.params["w"][0] == 2.0


def test_sgd_two_steps_match_hand_recurrence():
    # quadratic loss 0.5 a w^2: gradient a w; include momentum and decay
    a, mu, wd, lr = 3.0, 0.9, 0.01, 0.05
    w, v = 1.0, 0.0
    state = make_scalar_state(w)
    cfg = TrainConfig(momentum=mu, weight_decay=wd)
    for _ in range(2):
        g = a * state.params["w"][0]
        sgd_step(state, np.array([g]), cfg, lr=lr)
        v = mu * v + a * w + wd * w
        w = w - lr * v
    assert abs(state.params["w"][0] - w) < 1e-15


def test_sgd_rejects_nonfinite_gradient():
    state = make_scalar_state(1.0)
    from weakdet.errors import NumericError

    with pytest.raises(NumericError):
        sgd_step(state, np.array([np.nan]), TrainConfig(), lr=0.1)


# ---------------------------------------------------------------- flat layout


def _group_reference_step(state, grad, cfg, lr, touched):
    """The per-group update the flat one must reproduce bit for bit."""
    params = {k: v.copy() for k, v in state.params.items()}
    velocity = {k: v.copy() for k, v in state.velocity.items()}
    for name in sorted(touched):
        g = state.view(grad, name)
        velocity[name] *= cfg.momentum
        velocity[name] += g + cfg.weight_decay * params[name]
        params[name] -= lr * velocity[name]
    return params, velocity


def _trained_state(**kw):
    bags, _ = tiny_dataset(4)
    state, _ = train(bags, small_cfg(epochs=1, **kw))
    return state


def _assert_packed(state):
    """Every group is a view into its flat vector, in sorted name order."""
    assert list(state.params) == list(state.velocity) == sorted(state.layout)
    stop = 0
    for name, (sl, shape) in state.layout.items():
        assert sl.start == stop and state.params[name].shape == shape
        stop = sl.stop
        for groups, flat in ((state.params, state.flat_params),
                             (state.velocity, state.flat_velocity)):
            assert groups[name].base is flat
            assert np.shares_memory(groups[name], flat[sl])
            assert np.array_equal(groups[name].reshape(-1), flat[sl])
    assert stop == state.flat_params.size == state.flat_velocity.size


def test_state_groups_are_views_into_flat_vectors():
    state = init_state(small_cfg(), 3, 8)
    _assert_packed(state)
    assert not np.shares_memory(state.flat_params, state.flat_velocity)
    state.params["w_sem"][0, 0] = 5.0
    assert state.flat_params[state.layout["w_sem"][0].start] == 5.0
    _assert_packed(_trained_state())
    _assert_packed(make_scalar_state(1.0))


def test_state_rejects_velocity_that_does_not_match_params():
    state = init_state(small_cfg(), 3, 8)
    with pytest.raises(CompatibilityError):
        replace(state, velocity={k: v for k, v in state.velocity.items() if k != "w_bg"})
    with pytest.raises(CompatibilityError):
        replace(state, velocity={**state.velocity, "w_bg": np.zeros(1)})


def test_checkpoint_round_trip_packs_views(tmp_path):
    state = _trained_state()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    _assert_packed(loaded)
    assert loaded.flat_params.tobytes() == state.flat_params.tobytes()
    assert loaded.flat_velocity.tobytes() == state.flat_velocity.tobytes()
    save_checkpoint(loaded, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


# Checkpoint bytes of a 2-epoch run on tiny_dataset(6), pinned from the
# per-group layout that preceded the flat vectors.
CHECKPOINT_DIGESTS = {
    "fused": ({}, "53431f768deff4ef3937cf7aba580f961edb81eefd3d0dae82536f354a803608"),
    "sequential_batch4": (
        {"phase_mode": "sequential", "batch_size": 4},
        "ffb6eeb67103c07b83ccff54d6f176271b05972410c8cfaef833e1dc0d6d1778",
    ),
    "method_c": (
        {"modules": SUB_METHODS["C"]},
        "36e75db9b32aad058596ea96cec706557be06836bb2fdaa8bd010ea6ef63205a",
    ),
}


@pytest.mark.parametrize("case", sorted(CHECKPOINT_DIGESTS))
def test_checkpoint_bytes_match_pinned_digests(case, tmp_path):
    overrides, digest = CHECKPOINT_DIGESTS[case]
    bags, _ = tiny_dataset(6)
    state, _ = train(bags, TrainConfig(hidden_dim=8, embed_dim=4, epochs=2, **overrides))
    save_checkpoint(state, tmp_path / "c.bin")
    assert hashlib.sha256((tmp_path / "c.bin").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "touched",
    [None, {"w_sem"}, {"w_cls", "w_det", "w_bg"}, {"w_sem", "gcn_sem_w1", "gcn_ins_p_w2"}],
)
def test_sgd_step_moves_only_touched_groups(touched):
    state = _trained_state()
    rng = np.random.default_rng(3)
    grad = rng.standard_normal(state.flat_params.size)
    cfg, lr = TrainConfig(), 0.01
    names = set(state.layout) if touched is None else touched
    want_p, want_v = _group_reference_step(state, grad, cfg, lr, names)
    step = state.step
    sgd_step(state, grad, cfg, lr, touched)
    assert state.step == step + 1
    for name in state.layout:
        assert state.params[name].tobytes() == want_p[name].tobytes(), name
        assert state.velocity[name].tobytes() == want_v[name].tobytes(), name
    _assert_packed(state)


def test_sequential_steps_leave_untouched_groups_bitwise_unchanged(monkeypatch):
    seen = []

    def checked(state, grad, cfg, lr, touched=None):
        def groups():
            return {k: (state.params[k].tobytes(), state.velocity[k].tobytes())
                    for k in state.layout}

        before = groups()
        sgd_step(state, grad, cfg, lr, touched)
        after = groups()
        assert all(after[k] == before[k] for k in set(state.layout) - set(touched))
        seen.append(frozenset(touched))

    monkeypatch.setattr("weakdet.trainer.sgd_step", checked)
    bags, _ = tiny_dataset(4)
    train(bags, small_cfg(epochs=1, phase_mode="sequential"))
    head = frozenset({"w_cls", "w_det", "w_bg"})
    gcn = frozenset(k for k in init_state(small_cfg(), 3, 8).layout if k.startswith("gcn_"))
    assert seen == [head] * 4 + [frozenset({"w_sem"})] * 4 + [gcn | {"w_sem"}] * 4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_gradient_moves_nothing(bad):
    state = _trained_state()
    params, velocity = state.flat_params.copy(), state.flat_velocity.copy()
    grad = np.full(state.flat_params.size, 0.25)
    grad[state.layout["w_sem"][0].start] = bad  # last group in sorted order
    grad[state.layout["w_det"][0].stop - 1] = bad
    step = state.step
    with pytest.raises(NumericError, match=f"w_det at step {step}"):
        sgd_step(state, grad, TrainConfig(), 0.1)
    assert state.step == step
    assert state.flat_params.tobytes() == params.tobytes()
    assert state.flat_velocity.tobytes() == velocity.tobytes()


# ---------------------------------------------------------------- training


def test_zero_epochs_returns_initialization():
    bags, _ = tiny_dataset(3)
    cfg = small_cfg(epochs=0)
    state, history = train(bags, cfg)
    fresh = init_state(cfg, 3, 8)
    assert history == []
    for name in state.params:
        assert np.array_equal(state.params[name], fresh.params[name])


def test_training_is_bitwise_deterministic():
    bags, _ = tiny_dataset(5)
    cfg = small_cfg(epochs=3)
    s1, h1 = train(bags, cfg)
    s2, h2 = train(bags, cfg)
    assert h1 == h2
    for name in s1.params:
        assert np.array_equal(s1.params[name], s2.params[name])
    assert np.array_equal(s1.centers, s2.centers)


def test_loss_decreases_on_benchmark():
    # end-of-epoch total loss non-increasing across the first epochs for
    # most seeds on a small version of the synthetic benchmark
    bags, _ = generate_dataset(SceneConfig(seed=2), 40)
    good = 0
    for seed in range(5):
        cfg = TrainConfig(epochs=5, seed=seed, hidden_dim=16, embed_dim=8)
        _, history = train(bags, cfg)
        losses = [h["loss_total"] for h in history]
        good += all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    assert good >= 4


def test_contrastive_loss_improves_within_fifty_steps():
    # optimization sanity: with the contrastive weight on, its loss after
    # 50 optimizer steps sits strictly below the starting value
    bags, _ = generate_dataset(SceneConfig(n_classes=3, feature_dim=8, seed=4), 5)
    cfg = small_cfg(epochs=10, lambda_igcl=1.0)  # 5 bags x 10 epochs = 50 steps
    state, history = train(bags, cfg)
    assert state.step == 50
    assert history[-1]["loss_igcl"] < history[0]["loss_igcl"]


# SHA-256 over sorted parameter names, shapes and float64 bytes after
# training on 20 default-scene bags for 2 epochs. A speedup must leave every
# digest unchanged: the golden report holds only mAP and CorLoc, which a
# last-bit change in the parameters rarely moves. Taken on x86_64 with
# numpy 2.4 (OpenBLAS); another BLAS may round matrix products differently.
TRAJECTORY_DIGESTS = {
    "fused": ({}, "93b80d53730743db88b922f18a2dc3f7b99483b3de24ef99f95c2779f58fea47"),
    "sequential": (
        {"phase_mode": "sequential"},
        "ca93a4d3cb1455bf2e05232056ebf295fb56c6f1f4ede4301e60d8e457677682",
    ),
    "batch2": (
        {"batch_size": 2},
        "3e383f9e600fe8fcc2d46fe4dce969d7dd5e13ef043d58fdb211491394d7f1f1",
    ),
    "method_e": (
        {"modules": SUB_METHODS["E"]},
        "2a235773b004d512ac62e77bb5802bd8a53022066d16c76e914c490c48680cf6",
    ),
    "method_d": (
        {"modules": SUB_METHODS["D"]},
        "83121e2a34afc38bb4f002c1f36ce4870cea67a4197f421df205721be4f01d46",
    ),
    "corr_ema": (
        {"corr_sem_ema": 0.5},
        "b0fd08d50f9a76007be489c55da5914c47a47c7f189e8c0a5e7c30e34f008cd1",
    ),
}


def _param_digest(params):
    h = hashlib.sha256()
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        h.update(name.encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def default_scene_bags():
    return generate_dataset(SceneConfig(seed=0), 20)[0]


@pytest.mark.parametrize("case", sorted(TRAJECTORY_DIGESTS))
def test_trained_parameters_match_pinned_digests(case, default_scene_bags):
    overrides, digest = TRAJECTORY_DIGESTS[case]
    state, _ = train(default_scene_bags, TrainConfig(epochs=2, **overrides))
    assert _param_digest(state.params) == digest


# The op nodes of a seed-0 method-F bag-step, by kind: one fused node per
# loss module, and one composite where the contrast's add, its lambda scale
# and two adds over the weighted terms were, and one instance loss where
# hconcat, sum_cols and the loss were.
METHOD_F_OPS = {
    "matmul": 3, "dual_softmax": 1, "bce_plus_weighted_ce": 1, "matmul_nt": 2, "pearson_cols": 1,
    "cosine_center_loss": 1, "scale": 2, "propagate": 4, "relu": 4, "propagate_unit": 4,
    "info_nce": 2, "composite_loss": 1,
}

# Each parameter group's replay plan, as check_bag makes it, before its one
# tail step, the composite. The parent had two or three steps there (add,
# scale, add; or add, add), and the head groups' plans also held hconcat
# and sum_cols.
METHOD_F_PLANS = {
    **{f"gcn_{tag}_w1": ["propagate", "relu", "propagate_unit", "info_nce"]
       for tag in ("ins", "ins_p", "sem", "sem_p")},
    **{f"gcn_{tag}_w2": ["propagate_unit", "info_nce"] for tag in ("ins", "ins_p", "sem", "sem_p")},
    "w_bg": ["matmul", "bce_plus_weighted_ce", "scale"],
    "w_cls": ["matmul", "dual_softmax", "bce_plus_weighted_ce", "scale"],
    "w_det": ["matmul", "dual_softmax", "bce_plus_weighted_ce", "scale"],
    "w_sem": ["matmul_nt", "pearson_cols", "matmul_nt", "cosine_center_loss", "scale",
              *["propagate", "relu", "propagate_unit"] * 2, "info_nce", "info_nce"],
}


def test_method_f_bag_step_builds_40_nodes(default_scene_bags):
    """26 ops, counted by kind, the 12 parameter leaves, and 2 constants (the
    features and the one-hot induced labels); each group's replay plan ends
    in the composite alone."""
    cfg = TrainConfig()
    bag = filter_proposals(default_scene_bags[0], cfg.min_proposal_side)
    state = init_state(cfg, bag.n_classes, bag.features.shape[1])
    fwd = forward_losses(bag, state, cfg)
    nodes = graph_nodes(fwd.loss)
    ops = [n for n in nodes if n.parents]
    leaves = [n for n in nodes if not n.parents and n.requires_grad]
    constants = [n for n in nodes if not n.parents and not n.requires_grad]
    assert (len(ops), len(leaves), len(constants)) == (26, 12, 2)
    kinds = [n._record.__qualname__.split(".")[0] for n in ops]
    assert {kind: kinds.count(kind) for kind in kinds} == METHOD_F_OPS
    assert {id(n) for n in leaves} == {id(n) for n in fwd.leaves.values()}
    groups = sorted(fwd.leaves)
    plans = nm.replay([*fwd.terms.values(), fwd.loss], [state.params[p] for p in groups])
    got = {p: [k.__qualname__.split(".")[0] for k, *_ in plan.steps]
           for p, plan in zip(groups, plans)}
    assert got == {p: [*steps, "composite_loss"] for p, steps in METHOD_F_PLANS.items()}


@pytest.mark.parametrize("method", sorted(SUB_METHODS))
@pytest.mark.parametrize("phase_mode", ("fused", "sequential"))
def test_every_leaf_gets_a_gradient_of_its_shape(method, phase_mode, rng):
    # train() copies the gradient of every leaf forward_losses returns.
    bag = make_bag(rng, m=5, n_classes=3, feature_dim=8)
    cfg = small_cfg(modules=SUB_METHODS[method], phase_mode=phase_mode)
    state = init_state(cfg, 3, 8)
    for phase in _phase_masks(cfg):
        fwd = forward_losses(bag, state, cfg, include=phase)
        nm.backward(fwd.loss)
        assert fwd.leaves
        for name, node in fwd.leaves.items():
            assert node.grad is not None and node.grad.shape == state.params[name].shape


@pytest.mark.parametrize("method", ("C", "E", "F"))
def test_train_pins_only_the_instance_graph(method, monkeypatch):
    """train() passes one instance graph per bag to every step, and the
    forward takes no other selection; it never writes into the graph."""
    assert list(inspect.signature(forward_losses).parameters) == [
        "bag", "state", "cfg", "instance_graph", "include"
    ]
    bags, _ = tiny_dataset(4)
    seen = {}

    def recording(bag, state, cfg, instance_graph=None, include=None):
        seen.setdefault(id(instance_graph), (bag.image_id, instance_graph))
        return forward_losses(bag, state, cfg, instance_graph, include)

    monkeypatch.setattr("weakdet.trainer.forward_losses", recording)
    cfg = small_cfg(modules=SUB_METHODS[method], epochs=2, phase_mode="sequential")
    train(bags, cfg)
    by_id = {b.image_id: filter_proposals(b, cfg.min_proposal_side) for b in bags}
    assert sorted(image_id for image_id, _ in seen.values()) == sorted(by_id)
    for image_id, graph in seen.values():
        assert isinstance(graph, np.ndarray)
        want = igcl.build_instance_graph(by_id[image_id].proposals, cfg.graph_iou)
        assert graph.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "method, per_call", [("F", 1), ("E", 1), ("C", 1), ("D", 0), ("A", 0), ("B", 0)]
)
def test_instance_graph_built_once_per_bag_per_call(method, per_call, monkeypatch):
    bags, _ = tiny_dataset(4)
    calls = []
    original = igcl.build_instance_graph

    def counting(boxes, iou_threshold=0.3):
        calls.append(len(boxes))
        return original(boxes, iou_threshold)

    monkeypatch.setattr(igcl, "build_instance_graph", counting)
    cfg = small_cfg(modules=SUB_METHODS[method], epochs=3, phase_mode="sequential")
    train(bags, cfg)
    assert len(calls) == per_call * len(bags)
    train(bags, cfg)
    assert len(calls) == 2 * per_call * len(bags)


@pytest.mark.parametrize("method", sorted(SUB_METHODS))
@pytest.mark.parametrize("corr_sem_ema", (0.0, 0.5))
def test_single_proposal_bag_trains(method, corr_sem_ema, rng):
    """A bag with one proposal and one tag has no sample correlation; the
    semantic chain falls back to the identity, as inference does."""
    lone = make_bag(rng, m=1, n_classes=3, feature_dim=8, n_pos=1, image_id="lone")
    bags = [lone, make_bag(rng, m=4, n_classes=3, feature_dim=8)]
    cfg = small_cfg(modules=SUB_METHODS[method], corr_sem_ema=corr_sem_ema)
    state, history = train(bags, cfg)
    assert len(history) == cfg.epochs
    assert all(np.all(np.isfinite(v)) for v in state.params.values())
    if "M2" in cfg.modules:
        fwd = forward_losses(lone, state, cfg)
        blend = (1.0 - corr_sem_ema) * np.eye(3) + corr_sem_ema * state.corr_buffer
        assert np.array_equal(fwd.corr_values, np.eye(3) if corr_sem_ema == 0.0 else blend)
    if corr_sem_ema > 0.0:
        # A lone proposal has no sample correlation to fold into the buffer.
        state = init_state(cfg, 3, 8)
        state.corr_buffer = 0.75 * np.eye(3) + 0.25
        before = state.corr_buffer.copy()
        train([lone], cfg, state=state)
        assert state.step == cfg.epochs
        assert np.array_equal(state.corr_buffer, before)


def test_only_the_instance_loss_moves_the_detection_head():
    """The coupling is one-way: the contrast reaches the head only through
    detached induced labels, so under C, E and F it trains to A's bits."""
    bags, _ = tiny_dataset(6)
    heads = {}
    for method in ("A", "C", "E", "F"):
        state, _ = train(bags, small_cfg(modules=SUB_METHODS[method]))
        heads[method] = [state.params[k].tobytes() for k in ("w_cls", "w_det", "w_bg")]
    assert heads["C"] == heads["E"] == heads["F"] == heads["A"]


@pytest.mark.parametrize("phase_mode", ["fused", "sequential"])
def test_a_negative_bag_trains_on_its_instance_loss_alone(phase_mode):
    """A bag with no positive tag builds only the instance loss, moves no
    center and no correlation buffer, and under B or D moves nothing."""
    bags, _ = tiny_dataset(1)
    neg = replace(bags[0], tags=np.zeros(3, dtype=np.int64))
    for method in sorted(SUB_METHODS):
        cfg = small_cfg(modules=SUB_METHODS[method], corr_sem_ema=0.5, phase_mode=phase_mode)
        start = init_state(cfg, 3, 8)
        fwd = forward_losses(neg, start, cfg)
        has_m1 = "M1" in cfg.modules
        assert list(fwd.terms) == (["loss_ins"] if has_m1 else [])
        assert set(fwd.leaves) == ({"w_cls", "w_det", "w_bg"} if has_m1 else set())
        state, history = train([neg], cfg)
        assert state.centers.tobytes() == start.centers.tobytes()
        assert state.corr_buffer.tobytes() == start.corr_buffer.tobytes()
        moved = {k for k in state.params if state.params[k].tobytes() != start.params[k].tobytes()}
        assert moved == ({"w_cls", "w_det", "w_bg"} if has_m1 else set()), method
        assert all(row["loss_sem"] == row["loss_igcl"] == 0.0 for row in history)


def test_sequential_phase_mode_runs_and_differs():
    bags, _ = tiny_dataset(4)
    fused, _ = train(bags, small_cfg(epochs=2))
    seq, _ = train(bags, small_cfg(epochs=2, phase_mode="sequential"))
    assert not np.array_equal(fused.params["w_cls"], seq.params["w_cls"])


def test_batch_size_accumulates(rng):
    bags, _ = tiny_dataset(4)
    s1, _ = train(bags, small_cfg(epochs=1, batch_size=1))
    s2, _ = train(bags, small_cfg(epochs=1, batch_size=4))
    # different stepping, both finite and trained
    assert np.all(np.isfinite(s2.params["w_cls"]))
    assert not np.array_equal(s1.params["w_cls"], s2.params["w_cls"])


def test_train_rejects_mismatched_bags(rng):
    b1 = make_bag(rng, m=4, n_classes=3, feature_dim=8)
    b2 = make_bag(rng, m=4, n_classes=4, feature_dim=8)
    with pytest.raises(CompatibilityError):
        train([b1, b2], small_cfg())


def test_train_rejects_incompatible_state():
    bags, _ = tiny_dataset(3)
    cfg = small_cfg()
    state = init_state(cfg, 5, 8)
    with pytest.raises(CompatibilityError):
        train(bags, cfg, state)


@pytest.mark.parametrize("fill", [1e308], ids=["overflowing_features"])
def test_bag_errors_name_the_bag_epoch_and_step(fill, rng):
    good = [make_bag(rng, m=4, n_classes=4, feature_dim=8, image_id=f"ok{i}") for i in range(3)]
    odd = make_bag(rng, m=4, n_classes=4, feature_dim=8, image_id="odd_bag")
    odd = replace(odd, features=np.full(odd.features.shape, fill))  # finite, but its logits are not
    cfg = small_cfg(modules=SUB_METHODS["F"], epochs=2, seed=3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as exc:
        train([*good, odd], cfg)
    # The bag fails the first time it comes up: in epoch 0, after one step
    # for each bag ahead of it in that epoch's order.
    assert init_state(cfg, 4, 8).rng.permutation(4).tolist().index(3) == 2
    assert str(exc.value).startswith("bag 'odd_bag', epoch 0, step 2: ")

# ---------------------------------------------------------------- inference


def test_infer_single_proposal_caps_detections(rng):
    bag = make_bag(rng, m=1, n_classes=3, feature_dim=8)
    cfg = small_cfg()
    state = init_state(cfg, 3, 8)
    dets = infer(bag, state, cfg)
    assert len(dets) <= 3
    for d in dets:
        assert 0.0 <= d.score <= 1.0


def test_infer_duplicate_boxes_suppressed(rng):
    feats = rng.standard_normal(8)
    drawn = make_bag(rng, m=2, n_classes=3, feature_dim=8)
    # Bag's proposals are read-only: the duplicate is built, not assigned.
    first = drawn.proposals[0]
    bag = replace(drawn, proposals=[first, first], features=drawn.features[[0, 0]])
    cfg = small_cfg()
    state = init_state(cfg, 3, 8)
    dets = infer(bag, state, cfg)
    per_class = {}
    for d in dets:
        per_class.setdefault(d.class_index, []).append(d)
    for ds in per_class.values():
        assert len(ds) == 1


def test_infer_shares_one_box_per_kept_proposal():
    """A proposal kept in several classes gives their detections one Box."""
    bags, _ = tiny_dataset(6)
    cfg = small_cfg(epochs=1)
    state, _ = train(bags, cfg)
    dets = [d for bag in bags for d in infer(bag, state, cfg)]
    by_value = {}
    for d in dets:
        assert type(d.box) is Box and all(type(v) is float for v in d.box)
        assert by_value.setdefault((d.image_id, d.box), d.box) is d.box
    assert len(by_value) < len(dets)  # some proposal is kept in two classes


def test_nms_matches_bruteforce_oracle(rng):
    for _ in range(30):
        boxes = []
        for _ in range(int(rng.integers(1, 10))):
            x1, y1 = rng.uniform(0, 60, 2)
            boxes.append(Box(x1, y1, x1 + rng.uniform(10, 40), y1 + rng.uniform(10, 40)))
        scores = list(rng.uniform(0, 1, len(boxes)))
        kept = nms(boxes, scores, 0.3)
        # oracle: explicit sequential suppression
        order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
        alive = set(order)
        expected = []
        for i in order:
            if i not in alive:
                continue
            expected.append(i)
            for j in list(alive):
                if j != i and iou(boxes[i], boxes[j]) > 0.3:
                    alive.discard(j)
        assert kept == expected


def test_infer_respects_module_mask(rng):
    bag = make_bag(rng, m=4, n_classes=3, feature_dim=8)
    state = init_state(small_cfg(), 3, 8)
    for mask in (frozenset({"M1"}), frozenset({"M2"}), frozenset({"M1", "M2", "M4"})):
        dets = infer(bag, state, small_cfg(modules=mask))
        for d in dets:
            assert 0.0 <= d.score <= 1.0


def reference_infer(bag, state, cfg):
    """Inference with the full instance head and a per-class decode:
    candidates by ``flatnonzero`` one class at a time, NMS by scalar IoU."""
    try:
        bag = filter_proposals(bag, cfg.min_proposal_side)
    except EmptyBagError:
        return []
    feats = nm.as_node(bag.features)
    params = {name: nm.as_node(v) for name, v in state.params.items()}
    score_matrix = None
    if "M1" in cfg.modules:
        head = (params["w_cls"], params["w_det"], params["w_bg"])
        score_matrix = ib.instance_probs(feats, *head).corr_ins.value
    if "M2" in cfg.modules:
        _, _, pseudo = _semantic_chain(feats, params["w_sem"], state, cfg)
        sem_scores = nm.softmax_rows(pseudo.scores).value
        score_matrix = sem_scores if score_matrix is None else score_matrix * sem_scores
    detections = []
    for k in range(state.n_classes):
        idx = np.flatnonzero(score_matrix[:, k] >= cfg.min_score)
        boxes = [bag.proposals[i] for i in idx]
        scores = score_matrix[idx, k].tolist()
        detections += [Detection(bag.image_id, boxes[j], k, scores[j])
                       for j in reference_nms(boxes, scores, cfg.nms_iou)]
    return detections


def inference_bags():
    """Default bags, dense bags, and bags of partly and wholly tiny proposals."""
    default, _ = tiny_dataset(4, seed=5)
    dense, _ = generate_dataset(
        SceneConfig(n_classes=3, feature_dim=8, seed=6, proposals_per_object=10,
                    background_proposals=35), 4)
    partly = [Box(b.x1, b.y1, b.x1 + 10.0, b.y1 + 12.0) if i % 2 else b
              for i, b in enumerate(dense[0].proposals)]
    wholly = [Box(b.x1, b.y1, b.x1 + 10.0, b.y1 + 12.0) for b in default[0].proposals]
    tiny = [replace(dense[0], proposals=partly), replace(default[0], proposals=wholly)]
    return default, [*default, *dense, *tiny]


@pytest.mark.parametrize("method", sorted(SUB_METHODS))
def test_infer_equals_the_per_class_decode_with_scalar_iou_nms(method):
    train_bags, bags = inference_bags()
    cfg = small_cfg(modules=SUB_METHODS[method], epochs=1)
    state, _ = train(train_bags, cfg)
    for decode in (dict(), dict(nms_iou=0.0, min_score=0.0), dict(nms_iou=1.0, min_score=0.01),
                   dict(nms_iou=0.7, min_score=1.0)):
        run_cfg = replace(cfg, **decode)
        for bag in bags:
            assert infer(bag, state, run_cfg) == reference_infer(bag, state, run_cfg)
    assert infer(bags[-1], state, cfg) == []  # wholly tiny
    assert sum(len(infer(bag, state, cfg)) for bag in bags) > 0


def test_infer_never_reads_the_background_head():
    train_bags, bags = inference_bags()
    cfg = small_cfg(epochs=1)
    state, _ = train(train_bags, cfg)
    expected = [infer(bag, state, cfg) for bag in bags]
    state.params["w_bg"][...] = np.nan
    assert [infer(bag, state, cfg) for bag in bags] == expected


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip(tmp_path):
    bags, _ = tiny_dataset(4)
    cfg = small_cfg(epochs=2)
    state, _ = train(bags, cfg)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert loaded.step == state.step
    assert loaded.n_classes == state.n_classes
    for name in state.params:
        assert np.array_equal(loaded.params[name], state.params[name])
        assert np.array_equal(loaded.velocity[name], state.velocity[name])
    assert np.array_equal(loaded.centers, state.centers)
    assert loaded.rng.bit_generator.state == state.rng.bit_generator.state


def test_checkpoint_bytes_deterministic(tmp_path):
    bags, _ = tiny_dataset(4)
    cfg = small_cfg(epochs=1)
    state, _ = train(bags, cfg)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(state, p1)
    save_checkpoint(state, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_resume_is_bitwise_identical(tmp_path):
    bags, _ = tiny_dataset(5)
    cfg = small_cfg(epochs=4)

    straight, _ = train(bags, cfg)

    half, _ = train(bags, cfg, until_epoch=2)
    path = tmp_path / "mid.bin"
    save_checkpoint(half, path)
    resumed, _ = train(bags, cfg, state=load_checkpoint(path))

    for name in straight.params:
        assert np.array_equal(straight.params[name], resumed.params[name])
        assert np.array_equal(straight.velocity[name], resumed.velocity[name])
    assert np.array_equal(straight.centers, resumed.centers)
    assert straight.step == resumed.step


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="a resumed run reads its epoch as step // steps_per_epoch, so a "
                          "changed batch_size trains 0 epochs and raises nothing")
def test_resume_at_another_batch_size_is_rejected():
    """Six bags, one epoch at batch_size 1 (6 steps), then a resume at
    batch_size 4 for 3 epochs: 2 steps an epoch make step 6 read as epoch 3,
    so nothing trains. A checked resume must reject the changed batch size."""
    bags, _ = tiny_dataset(6)
    state, _ = train(bags, small_cfg(epochs=1, batch_size=1))
    with pytest.raises(WeakdetError):
        train(bags, small_cfg(epochs=3, batch_size=4), state=state)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ParseError):
        load_checkpoint(path)


@pytest.fixture
def small_checkpoint(tmp_path):
    path = tmp_path / "small.bin"
    save_checkpoint(init_state(small_cfg(), 3, 8), path)
    return path.read_bytes()


def test_checkpoint_rejects_every_truncation(small_checkpoint, tmp_path):
    path = tmp_path / "cut.bin"
    for cut in range(len(small_checkpoint)):
        path.write_bytes(small_checkpoint[:cut])
        with pytest.raises(ParseError):
            load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(small_checkpoint, tmp_path):
    path = tmp_path / "padded.bin"
    path.write_bytes(small_checkpoint + b"\0")
    with pytest.raises(ParseError, match="trailing"):
        load_checkpoint(path)
    path.write_bytes(small_checkpoint)
    assert load_checkpoint(path).step == 0


def _drop_w_sem(state):
    del state.params["w_sem"], state.velocity["w_sem"]


def _widen_w_cls(state):
    state.params["w_cls"] = state.velocity["w_cls"] = np.zeros((8, 4))


def _extra_group(state):
    state.params["w_extra"] = state.velocity["w_extra"] = np.zeros((2, 2))


@pytest.mark.parametrize(
    "damage, name",
    [
        (_drop_w_sem, "param/w_sem"),
        (_widen_w_cls, "param/w_cls"),
        (_extra_group, "param/w_extra"),
        (lambda s: s.velocity.update(gcn_sem_w2=np.zeros((4, 3))), "velocity/gcn_sem_w2"),
        (lambda s: s.params.update(gcn_ins_w1=np.zeros((8, 5))), "param/gcn_ins_w1"),
        (lambda s: setattr(s, "centers", np.zeros((3, 4))), "centers"),
        (lambda s: setattr(s, "corr_buffer", np.eye(4)), "corr_buffer"),
    ],
    ids=["missing", "wrong_shape", "extra", "velocity", "hidden_width", "centers", "corr_buffer"],
)
def test_checkpoint_rejects_groups_init_state_would_not_make(damage, name, tmp_path):
    state = init_state(small_cfg(), 3, 8)  # hidden 8 and embed 4 widths
    damage(state)
    path = tmp_path / "groups.bin"
    save_checkpoint(state, path)
    with pytest.raises(ParseError, match=f"tensor '{name}'"):
        load_checkpoint(path)


def test_checkpoint_keeps_its_own_widths(tmp_path):
    state = init_state(small_cfg(hidden_dim=5, embed_dim=3), 3, 8)
    path = tmp_path / "widths.bin"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert {k: v.shape for k, v in loaded.params.items()} == {
        k: v.shape for k, v in state.params.items()
    }


@pytest.mark.parametrize(
    "old, new",
    [
        (b"WDETCKPT\x01\x00\x00\x00\x1a", b"WDETCKPT\x01\x00\x00\x00\xff"),  # 26 tensors
        (b"centers", b"\x80enters"),  # tensor name, not UTF-8
        (b'"step": 0}', b'"step": 0]'),  # JSON syntax
        (b'"step"', b'"stop"'),  # a missing JSON field
        (b"PCG64", b"PCG65"),  # an RNG state numpy rejects
        (b'"inc": 8', b'"inc":-8'),  # an RNG word out of range for uint64
    ],
    ids=["count", "name_utf8", "json_syntax", "json_field", "rng_state", "rng_overflow"],
)
def test_checkpoint_rejects_garbled_fields(small_checkpoint, tmp_path, old, new):
    assert small_checkpoint.count(old) == 1
    path = tmp_path / "garbled.bin"
    path.write_bytes(small_checkpoint.replace(old, new))
    with pytest.raises(ParseError, match="checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "n_classes, key, good, bad",
    [
        (3, "step", "0", "-400"),
        (3, "step", "0", "4.5"),
        (3, "step", "0", "true"),
        (3, "step", "0", "null"),
        (1, "n_classes", "1", "true"),
        (1, "n_classes", "1", "1.0"),
        (3, "feature_dim", "8", "8.0"),
        (3, "feature_dim", "8", '"8"'),
    ],
    ids=["step_negative", "step_float", "step_bool", "step_null", "k_bool", "k_float",
         "d_float", "d_string"],
)
def test_checkpoint_rejects_a_header_value_that_is_not_a_count(
    n_classes, key, good, bad, tmp_path
):
    path = tmp_path / "header.bin"
    save_checkpoint(init_state(small_cfg(), n_classes, 8), path)
    raw = path.read_bytes()
    old, new = (f'"{key}": {value}'.encode() for value in (good, bad))
    assert raw.count(old) == 1 and load_checkpoint(path).n_classes == n_classes
    start = raw.rindex(b'{"feature_dim"')  # the JSON tail, after its length
    blob = raw[start:].replace(old, new)
    path.write_bytes(raw[: start - 4] + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(ParseError, match=f"checkpoint {key} "):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["centers", "param", "velocity"])
def test_checkpoint_rejects_a_non_finite_tensor(where, bad, tmp_path):
    state = init_state(small_cfg(), 3, 8)
    target = {"centers": state.centers, "param": state.params["w_sem"],
              "velocity": state.velocity["gcn_sem_w2"]}[where]
    target.flat[-1] = bad
    path = tmp_path / "nonfinite.bin"
    save_checkpoint(state, path)
    with pytest.raises(ParseError, match="holds NaN or Inf"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def damage_dir(tmp_path_factory):
    """A directory holding ``small.bin``, the checkpoint of ``small_checkpoint``."""
    path = tmp_path_factory.mktemp("damage")
    save_checkpoint(init_state(small_cfg(), 3, 8), path / "small.bin")
    return path


@given(st.data())
def test_one_damaged_byte_or_a_cut_loads_or_raises_parse_error(damage_dir, data):
    """Half the draws land in the JSON tail, which is a small share of the file."""
    raw = (damage_dir / "small.bin").read_bytes()
    tail = raw.rindex(b'{"feature_dim"')
    pos = data.draw(st.integers(tail, len(raw) - 1) | st.integers(0, len(raw) - 1), "pos")
    if data.draw(st.booleans(), "cut"):
        damaged = raw[:pos]
    else:
        flip = data.draw(st.integers(1, 255), "xor")
        damaged = raw[:pos] + bytes([raw[pos] ^ flip]) + raw[pos + 1 :]
    path = damage_dir / "damaged.bin"
    path.write_bytes(damaged)
    try:
        loaded = load_checkpoint(path)
    except ParseError:
        return
    assert isinstance(loaded, TrainState)
