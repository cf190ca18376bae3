"""Finite-difference validation of every loss gradient.

Central differences (step 1e-4 by default) against the analytic backward
pass, on small random bags. Discrete structure that the losses select from
data, i.e. induced labels, pseudo hard labels, and graph topology, is
frozen at the base point: the analytic gradient describes the loss with
those choices held fixed, so the finite differences must probe the same
piecewise-smooth function.

The relative error uses a floored denominator, max(|a|, |fd|, 0.01), so
near-zero entries are judged by an absolute tolerance of step * floor
instead of amplified rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import igcl as gc
from . import numerics as nm
from . import semantic_branch as sb
from .datamodel import Bag, Box
from .numerics import Node
from .trainer import FrozenStructures, TrainConfig, TrainState, forward_losses, init_state

REL_FLOOR = 1e-2

LOSS_NAMES = ("loss_ins", "loss_sem", "loss_con_sd", "loss_con_ds", "composite")


@dataclass
class GradCheckResult:
    loss_name: str
    param_name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def check_config(seed: int = 0) -> TrainConfig:
    """Small projector widths keep the finite-difference sweeps fast."""
    return TrainConfig(
        hidden_dim=6,
        embed_dim=4,
        semantic_init="random",
        center_init="random",
        seed=seed,
    )


def random_bag(
    rng: np.random.Generator, n_classes: int = 4, feature_dim: int = 12, max_instances: int = 8
) -> Bag:
    """A generic bag: random boxes, Gaussian features, >= 1 positive tag."""
    m = int(rng.integers(3, max_instances + 1))
    boxes = []
    for _ in range(m):
        x1 = float(rng.uniform(0, 90))
        y1 = float(rng.uniform(0, 90))
        boxes.append(
            Box(x1, y1, x1 + float(rng.uniform(20, 38)), y1 + float(rng.uniform(20, 38)))
        )
    n_pos = int(rng.integers(1, min(n_classes, m) + 1))
    tags = np.zeros(n_classes, dtype=np.int64)
    tags[rng.choice(n_classes, size=n_pos, replace=False)] = 1
    return Bag(
        image_id="gradcheck",
        canvas=(128.0, 128.0),
        proposals=boxes,
        features=rng.standard_normal((m, feature_dim)),
        tags=tags,
    )


def freeze_structures(bag: Bag, state: TrainState, cfg: TrainConfig) -> FrozenStructures:
    """Pin the data-dependent discrete choices at the current parameters."""
    base = forward_losses(bag, state, cfg)
    return FrozenStructures(
        approx=base.approx,
        pseudo_hard=base.pseudo_hard,
        instance_graph=gc.build_instance_graph(bag.proposals, cfg.graph_iou),
        semantic_graph=gc.build_semantic_graph(base.z_values, cfg.knn_k),
    )


def _build_loss(
    name: str, bag: Bag, state: TrainState, cfg: TrainConfig, frozen: FrozenStructures
):
    """Return (loss node, leaves) for one named loss at the current params."""
    if name == "loss_ins":
        fwd = forward_losses(bag, state, cfg, frozen, include=frozenset({"M1"}))
        return fwd.loss, fwd.leaves
    if name == "loss_sem":
        fwd = forward_losses(bag, state, cfg, frozen, include=frozenset({"M2"}))
        return fwd.loss, fwd.leaves

    leaves: dict[str, Node] = {}

    def leaf(n: str) -> Node:
        if n not in leaves:
            leaves[n] = Node(state.params[n])
        return leaves[n]

    feats = nm.as_node(bag.features)
    if name == "loss_con_sd":
        z = sb.project(feats, sb.SemanticProjector(leaf("w_sem")))
        u = gc.gcn_forward(
            frozen.instance_graph, feats, gc.GcnProjector(leaf("gcn_ins_w1"), leaf("gcn_ins_w2"))
        )
        v = gc.gcn_forward(
            frozen.semantic_graph, z, gc.GcnProjector(leaf("gcn_sem_w1"), leaf("gcn_sem_w2"))
        )
        return gc.info_nce(u, v, cfg.tau), leaves
    if name == "loss_con_ds":
        z = sb.project(feats, sb.SemanticProjector(leaf("w_sem")))
        corr = sb.correlation_matrix(z)
        pseudo = sb.pseudo_labels(corr, z)
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
    if name == "composite":
        fwd = forward_losses(bag, state, cfg, frozen)
        return fwd.loss, fwd.leaves
    raise ValueError(f"unknown loss {name!r}")


def check_bag(
    bag: Bag,
    state: TrainState,
    cfg: TrainConfig,
    losses=LOSS_NAMES,
    step: float = 1e-4,
    tolerance: float = 1e-4,
    corrupt: bool = False,
) -> list[GradCheckResult]:
    """Compare analytic and central-difference gradients on one bag."""
    frozen = freeze_structures(bag, state, cfg)
    results: list[GradCheckResult] = []
    for loss_name in losses:
        loss, leaves = _build_loss(loss_name, bag, state, cfg, frozen)
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
                hi, _ = _build_loss(loss_name, bag, state, cfg, frozen)
                target[idx] = orig - step
                lo, _ = _build_loss(loss_name, bag, state, cfg, frozen)
                target[idx] = orig
                fd[idx] = (float(hi.value) - float(lo.value)) / (2.0 * step)
                it.iternext()
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), REL_FLOOR)
            rel = float((np.abs(analytic - fd) / denom).max())
            results.append(GradCheckResult(loss_name, pname, rel, tolerance))
    return results


def run_checks(
    n_seeds: int = 10,
    cfg: TrainConfig | None = None,
    n_classes: int = 4,
    feature_dim: int = 12,
    step: float = 1e-4,
    tolerance: float = 1e-4,
    corrupt: bool = False,
) -> list[GradCheckResult]:
    """Run all loss checks over `n_seeds` random bags; one result per
    (seed, loss, parameter group)."""
    results = []
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)
        bag = random_bag(rng, n_classes, feature_dim)
        base = check_config(seed) if cfg is None else replace(cfg, seed=seed)
        state = init_state(base, n_classes, feature_dim)
        results.extend(
            check_bag(bag, state, base, step=step, tolerance=tolerance, corrupt=corrupt)
        )
    return results


def summarize(results: list[GradCheckResult]) -> dict[tuple[str, str], float]:
    """Worst relative error per (loss, parameter group) across seeds."""
    worst: dict[tuple[str, str], float] = {}
    for r in results:
        key = (r.loss_name, r.param_name)
        worst[key] = max(worst.get(key, 0.0), r.max_rel_err)
    return worst
