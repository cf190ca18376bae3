import hashlib

import numpy as np
import pytest

from weakdet import igcl
from weakdet import numerics as nm
from weakdet.datamodel import Box, SceneConfig, filter_proposals, generate_dataset
from weakdet.errors import CompatibilityError, ConfigError, ParseError
from weakdet.evalmetrics import iou
from weakdet.trainer import (
    SUB_METHODS,
    TrainConfig,
    _phase_masks,
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

from conftest import graph_nodes, make_bag


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
    cfg = TrainConfig()
    state = init_state(cfg, 2, 2)
    state.params = {"w": np.array([w0])}
    state.velocity = {"w": np.zeros(1)}
    return state


def test_sgd_plain_gradient_descent():
    state = make_scalar_state(1.0)
    cfg = TrainConfig(momentum=0.0, weight_decay=0.0)
    sgd_step(state, {"w": np.array([0.5])}, cfg, lr=0.1)
    assert abs(state.params["w"][0] - (1.0 - 0.1 * 0.5)) < 1e-15
    assert state.step == 1


def test_sgd_fixed_point():
    state = make_scalar_state(2.0)
    cfg = TrainConfig(momentum=0.9, weight_decay=0.0)
    sgd_step(state, {"w": np.array([0.0])}, cfg, lr=0.1)
    assert state.params["w"][0] == 2.0


def test_sgd_two_steps_match_hand_recurrence():
    # quadratic loss 0.5 a w^2: gradient a w; include momentum and decay
    a, mu, wd, lr = 3.0, 0.9, 0.01, 0.05
    w, v = 1.0, 0.0
    state = make_scalar_state(w)
    cfg = TrainConfig(momentum=mu, weight_decay=wd)
    for _ in range(2):
        g = a * state.params["w"][0]
        sgd_step(state, {"w": np.array([g])}, cfg, lr=lr)
        v = mu * v + a * w + wd * w
        w = w - lr * v
    assert abs(state.params["w"][0] - w) < 1e-15


def test_sgd_rejects_nonfinite_gradient():
    state = make_scalar_state(1.0)
    from weakdet.errors import NumericError

    with pytest.raises(NumericError):
        sgd_step(state, {"w": np.array([np.nan])}, TrainConfig(), lr=0.1)


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


def test_method_f_bag_step_builds_45_nodes(default_scene_bags):
    """One fused node per loss module: 31 ops, the 12 parameter leaves, and
    2 constants (the features and the one-hot induced labels)."""
    cfg = TrainConfig()
    bag = filter_proposals(default_scene_bags[0], cfg.min_proposal_side)
    fwd = forward_losses(bag, init_state(cfg, bag.n_classes, bag.features.shape[1]), cfg)
    nodes = graph_nodes(fwd.loss)
    ops = [n for n in nodes if n.parents]
    leaves = [n for n in nodes if not n.parents and n.requires_grad]
    constants = [n for n in nodes if not n.parents and not n.requires_grad]
    assert (len(ops), len(leaves), len(constants)) == (31, 12, 2)
    assert {id(n) for n in leaves} == {id(n) for n in fwd.leaves.values()}


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
    if cfg.m2:
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
    bag = make_bag(rng, m=2, n_classes=3, feature_dim=8)
    bag.proposals[1] = bag.proposals[0]
    bag.features[1] = bag.features[0]
    cfg = small_cfg()
    state = init_state(cfg, 3, 8)
    dets = infer(bag, state, cfg)
    per_class = {}
    for d in dets:
        per_class.setdefault(d.class_index, []).append(d)
    for ds in per_class.values():
        assert len(ds) == 1


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


@pytest.mark.parametrize(
    "old, new",
    [
        (b"WDETCKPT\x01\x00\x00\x00\x1a", b"WDETCKPT\x01\x00\x00\x00\xff"),  # 26 tensors
        (b"centers", b"\x80enters"),  # tensor name, not UTF-8
        (b'"step": 0}', b'"step": 0]'),  # JSON syntax
        (b'"step"', b'"stop"'),  # a missing JSON field
        (b"PCG64", b"PCG65"),  # an RNG state numpy rejects
    ],
    ids=["count", "name_utf8", "json_syntax", "json_field", "rng_state"],
)
def test_checkpoint_rejects_garbled_fields(small_checkpoint, tmp_path, old, new):
    assert small_checkpoint.count(old) == 1
    path = tmp_path / "garbled.bin"
    path.write_bytes(small_checkpoint.replace(old, new))
    with pytest.raises(ParseError, match="checkpoint"):
        load_checkpoint(path)
