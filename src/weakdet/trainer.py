"""Composite objective, training loop, SGD, checkpointing, and inference.

Each epoch runs the three phases over the bags: the instance branch
(scores, induced labels, detection loss), the semantic branch (embeddings,
correlation, pseudo-labels, center loss), then the graph contrastive module
over both. The default fused mode sums the phase losses into one objective
per bag and takes a single SGD-with-momentum step plus one center update;
the sequential mode instead loops over the bags once per phase, stepping
after each phase-local loss. A module mask selects participating phases,
giving the six ablation sub-methods. Runs are deterministic given
(seed, config, dataset), and checkpoints restore the trajectory bit for
bit.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from . import igcl as gc
from . import instance_branch as ib
from . import numerics as nm
from . import semantic_branch as sb
from .datamodel import Bag, class_prototypes, filter_proposals
from .errors import (
    CompatibilityError,
    ConfigError,
    NumericError,
    ParseError,
)
from .evalmetrics import Detection, iou
from .numerics import Node

MODULE_NAMES = ("M1", "M2", "M3", "M4")

# Ablation lattice: which modules each sub-method enables.
SUB_METHODS = {
    "A": frozenset({"M1"}),
    "B": frozenset({"M2"}),
    "C": frozenset({"M1", "M3"}),
    "D": frozenset({"M2", "M3"}),
    "E": frozenset({"M1", "M2", "M3"}),
    "F": frozenset({"M1", "M2", "M4"}),
}

METRICS_HEADER = ("epoch", "loss_total", "loss_ins", "loss_sem", "loss_igcl", "lr")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the composite objective and its optimizer."""

    lambda_ins: float = 1.0
    lambda_sem: float = 1.0
    lambda_igcl: float = 1.0
    lse_sharpness: float = 4.0  # r of the smooth-max pooling; inert (sum pooling)
    label_ratio: float = 0.9  # gamma: top-score ratio for induced labels
    center_rate: float = 0.05  # theta: EMA rate for class centers
    tau: float = 5.0  # contrastive inverse temperature
    lr_schedule: tuple[tuple[float, float], ...] = ((0.0, 1e-3), (0.8, 1e-4))
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epochs: int = 10
    batch_size: int = 1
    seed: int = 0
    modules: frozenset = frozenset({"M1", "M2", "M4"})
    hidden_dim: int = 32
    embed_dim: int = 16
    graph_iou: float = 0.3
    knn_k: int = 5
    nms_iou: float = 0.3
    min_score: float = 1e-3
    min_proposal_side: float = 16.0
    semantic_init: str = "prototypes"  # or "random"
    center_init: str = "prototypes"  # or "random"
    corr_sem_ema: float = 0.0  # 0 = per-bag correlation only
    phase_mode: str = "fused"  # or "sequential"

    def __post_init__(self):
        mods = frozenset(self.modules)
        object.__setattr__(self, "modules", mods)
        if not mods:
            raise ConfigError("module mask is empty")
        unknown = mods - set(MODULE_NAMES)
        if unknown:
            raise ConfigError(f"unknown modules {sorted(unknown)}")
        if "M3" in mods and "M4" in mods:
            raise ConfigError("M3 and M4 cannot be applied at the same time")
        if "M4" in mods and not {"M1", "M2"} <= mods:
            raise ConfigError("M4 needs both branches (M1 and M2)")
        if "M3" in mods and not ({"M1", "M2"} & mods):
            raise ConfigError("M3 needs at least one branch")
        for lam in (self.lambda_ins, self.lambda_sem, self.lambda_igcl):
            if lam < 0:
                raise ConfigError("loss weights must be nonnegative")
        steps = [s for s, _ in self.lr_schedule]
        if steps != sorted(steps) or not self.lr_schedule:
            raise ConfigError("lr_schedule breakpoints must increase")
        if self.phase_mode not in ("fused", "sequential"):
            raise ConfigError(f"unknown phase_mode {self.phase_mode!r}")
        if self.semantic_init not in ("prototypes", "random"):
            raise ConfigError(f"unknown semantic_init {self.semantic_init!r}")
        if self.center_init not in ("prototypes", "random"):
            raise ConfigError(f"unknown center_init {self.center_init!r}")
        if not 0.0 <= self.corr_sem_ema < 1.0:
            raise ConfigError("corr_sem_ema must be in [0, 1)")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")

    @property
    def m1(self) -> bool:
        return "M1" in self.modules

    @property
    def m2(self) -> bool:
        return "M2" in self.modules

    @property
    def m3(self) -> bool:
        return "M3" in self.modules

    @property
    def m4(self) -> bool:
        return "M4" in self.modules


@dataclass
class TrainState:
    """Everything learnable or stateful: parameters, centers, optimizer
    velocities, the running correlation buffer, the step counter, and the
    training RNG."""

    params: dict
    velocity: dict
    centers: np.ndarray
    corr_buffer: np.ndarray
    step: int
    rng: np.random.Generator
    n_classes: int
    feature_dim: int


def init_state(cfg: TrainConfig, n_classes: int, feature_dim: int) -> TrainState:
    """Deterministic parameter initialization from cfg.seed.

    The semantic projector and class centers can start from the fixed
    feature-space prototypes, which anchors semantic coordinate k to
    category k the way a pretrained projector would in the full pipeline;
    both fall back to seeded random initialization.
    """
    rng = np.random.default_rng(cfg.seed)
    k, d, h, e = n_classes, feature_dim, cfg.hidden_dim, cfg.embed_dim
    params: dict[str, np.ndarray] = {}

    def gauss(shape, scale):
        return rng.standard_normal(shape) * scale

    params["w_cls"] = gauss((d, k), 1.0 / np.sqrt(d))
    params["w_det"] = gauss((d, k), 1.0 / np.sqrt(d))
    params["w_bg"] = gauss((d, 1), 1.0 / np.sqrt(d))
    if cfg.semantic_init == "prototypes":
        params["w_sem"] = class_prototypes(k, d)
    else:
        params["w_sem"] = gauss((k, d), 1.0 / np.sqrt(d))
    for tag, in_dim in (("ins", d), ("ins_p", k + 1), ("sem", k), ("sem_p", k)):
        params[f"gcn_{tag}_w1"] = gauss((in_dim, h), 1.0 / np.sqrt(in_dim))
        params[f"gcn_{tag}_w2"] = gauss((h, e), 1.0 / np.sqrt(h))

    if cfg.center_init == "prototypes":
        protos = class_prototypes(k, d)
        centers = protos @ params["w_sem"].T
        norms = np.linalg.norm(centers, axis=1, keepdims=True)
        centers = centers / np.where(norms > nm.EPS_NORM, norms, 1.0)
    else:
        centers = rng.standard_normal((k, k))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)

    return TrainState(
        params=params,
        velocity={name: np.zeros_like(v) for name, v in params.items()},
        centers=centers,
        corr_buffer=np.eye(k),
        step=0,
        rng=rng,
        n_classes=k,
        feature_dim=d,
    )


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


@dataclass
class FrozenStructures:
    """Discrete selections pinned at a base point.

    Induced labels, pseudo hard labels, and graph topologies are data-
    dependent but non-differentiable; the gradient checker freezes them so
    finite differences probe the same piecewise-smooth function the
    analytic gradient describes. Training pins only the instance graph,
    which depends on nothing but the bag's proposals.
    """

    approx: ib.ApproxLabels | None = None
    pseudo_hard: np.ndarray | None = None
    instance_graph: gc.GraphAdjacency | None = None
    semantic_graph: gc.GraphAdjacency | None = None


@dataclass
class BagForward:
    """One bag's losses plus what the update step needs afterwards.

    ``terms`` names the loss nodes that ``loss`` is built from: ``loss_ins``
    and ``loss_sem`` carry their lambda weight, and the contrastive terms
    (``loss_con_sd`` and ``loss_con_ds`` under M4, ``loss_con_ins`` and
    ``loss_con_sem`` under M3) are summed and weighted by ``lambda_igcl``.
    ``parts`` holds the unweighted branch losses as floats.
    """

    loss: Node
    terms: dict
    leaves: dict
    parts: dict
    approx: ib.ApproxLabels | None
    z_values: np.ndarray | None
    pseudo_hard: np.ndarray | None
    corr_values: np.ndarray | None


def _instance_scores(feats: Node, param: Callable[[str], Node]) -> ib.InstanceScores:
    """The instance branch forward: dual-softmax scores from the detection head."""
    head = ib.DetectionHead(param("w_cls"), param("w_det"), param("w_bg"))
    return ib.instance_probs(feats, head)


def _semantic_chain(
    feats: Node, w_sem: Node, state: TrainState, cfg: TrainConfig
) -> tuple[Node, Node, sb.PseudoLabels]:
    """The semantic branch forward: embeddings ``z``, their correlation
    blended with the running buffer, and the refined pseudo-labels.

    A bag with fewer than two proposals has no sample correlation; each
    class then correlates only with itself (the identity).
    """
    z = sb.project(feats, sb.SemanticProjector(w_sem))
    if z.value.shape[0] >= 2:
        corr = sb.correlation_matrix(z)
    else:
        corr = nm.as_node(np.eye(z.value.shape[1]))
    if cfg.corr_sem_ema > 0.0:
        corr = nm.add(
            nm.scale(corr, 1.0 - cfg.corr_sem_ema), cfg.corr_sem_ema * state.corr_buffer
        )
    return z, corr, sb.pseudo_labels(corr, z)


def forward_losses(
    bag: Bag,
    state: TrainState,
    cfg: TrainConfig,
    frozen: FrozenStructures | None = None,
    include: frozenset | None = None,
) -> BagForward:
    """Build the composite loss graph for one bag under the module mask.

    ``include`` restricts to a subset of the configured modules (the
    sequential phase mode passes one at a time). Parameters are wrapped as
    differentiable leaves only when the restricted loss actually reaches
    them, so masked-out modules see zero gradient and no optimizer update.
    """
    active = cfg.modules if include is None else (cfg.modules & include)
    need_gcl = bool({"M3", "M4"} & active)
    need_ins_branch = "M1" in active or (need_gcl and cfg.m1)
    need_sem_branch = "M2" in active or (need_gcl and cfg.m2)
    # The contrastive loss reaches w_sem through z and the refined scores,
    # but reaches the detection head only through detached labels.
    wrap_head = "M1" in active
    wrap_sem = "M2" in active or (need_gcl and cfg.m2)

    leaves: dict[str, Node] = {}

    def leaf(name: str) -> Node:
        if name not in leaves:
            leaves[name] = Node(state.params[name])
        return leaves[name]

    def fixed(name: str) -> Node:
        return nm.as_node(state.params[name])

    feats = nm.as_node(bag.features)
    parts = {"loss_ins": 0.0, "loss_sem": 0.0, "loss_igcl": 0.0}
    terms: dict[str, Node] = {}
    weighted: list[Node] = []

    scores = approx = None
    if need_ins_branch:
        scores = _instance_scores(feats, leaf if wrap_head else fixed)
        approx = (
            frozen.approx
            if frozen is not None and frozen.approx is not None
            else ib.approx_labels(scores.corr_ins.value, bag.tags, cfg.label_ratio)
        )
    if "M1" in active:
        l_ins = ib.instance_loss(scores, approx, bag.tags)
        parts["loss_ins"] = float(l_ins.value)
        terms["loss_ins"] = nm.scale(l_ins, cfg.lambda_ins)
        weighted.append(terms["loss_ins"])

    z = pseudo = corr = None
    if need_sem_branch:
        z, corr, pseudo = _semantic_chain(
            feats, (leaf if wrap_sem else fixed)("w_sem"), state, cfg
        )
        if frozen is not None and frozen.pseudo_hard is not None:
            pseudo = sb.PseudoLabels(scores=pseudo.scores, labels=frozen.pseudo_hard)
    if "M2" in active:
        l_sem = sb.semantic_loss(z, pseudo, state.centers)
        parts["loss_sem"] = float(l_sem.value)
        terms["loss_sem"] = nm.scale(l_sem, cfg.lambda_sem)
        weighted.append(terms["loss_sem"])

    if need_gcl:
        u = u_p = v = v_p = None
        if cfg.m1:
            igraph = (
                frozen.instance_graph
                if frozen is not None and frozen.instance_graph is not None
                else gc.build_instance_graph(bag.proposals, cfg.graph_iou)
            )
            onehot = gc.one_hot_labels(approx.labels, bag.n_classes + 1)
            u = gc.gcn_forward(
                igraph, feats, gc.GcnProjector(leaf("gcn_ins_w1"), leaf("gcn_ins_w2"))
            )
            u_p = gc.gcn_forward(
                igraph,
                nm.as_node(onehot),
                gc.GcnProjector(leaf("gcn_ins_p_w1"), leaf("gcn_ins_p_w2")),
            )
        if cfg.m2:
            sgraph = (
                frozen.semantic_graph
                if frozen is not None and frozen.semantic_graph is not None
                else gc.build_semantic_graph(z.value, cfg.knn_k)
            )
            v = gc.gcn_forward(
                sgraph, z, gc.GcnProjector(leaf("gcn_sem_w1"), leaf("gcn_sem_w2"))
            )
            v_p = gc.gcn_forward(
                sgraph,
                pseudo.scores,
                gc.GcnProjector(leaf("gcn_sem_p_w1"), leaf("gcn_sem_p_w2")),
            )
        emb = gc.Embeddings(u=u, u_prime=u_p, v=v, v_prime=v_p)
        if "M4" in active:
            contrast = gc.igcl_terms(emb, cfg.tau)
        else:
            contrast = gc.independent_gcl_terms(
                emb, cfg.tau, instance_side=cfg.m1, semantic_side=cfg.m2
            )
        terms.update(contrast)
        l_gcl = reduce(nm.add, contrast.values())
        parts["loss_igcl"] = float(l_gcl.value)
        weighted.append(nm.scale(l_gcl, cfg.lambda_igcl))

    return BagForward(
        loss=reduce(nm.add, weighted) if weighted else Node(0.0),
        terms=terms,
        leaves=leaves,
        parts=parts,
        approx=approx,
        z_values=None if z is None else z.value,
        pseudo_hard=None if pseudo is None else pseudo.labels,
        corr_values=None if corr is None else corr.value,
    )


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


def resolve_schedule(cfg: TrainConfig, total_steps: int) -> list[tuple[int, float]]:
    """Turn fractional breakpoints into absolute optimizer steps."""
    return [(int(round(frac * total_steps)), rate) for frac, rate in cfg.lr_schedule]


def lr_at(schedule: list[tuple[int, float]], step: int) -> float:
    rate = schedule[0][1]
    for boundary, r in schedule:
        if step >= boundary:
            rate = r
    return rate


def sgd_step(state: TrainState, grads: dict, cfg: TrainConfig, lr: float) -> None:
    """v <- mu v + g + wd w;  w <- w - lr v. Only touches params in `grads`."""
    for name in sorted(grads):
        g = grads[name]
        if not nm.all_finite(g):
            raise NumericError(
                f"non-finite gradient for {name} at step {state.step}; aborting"
            )
        w = state.params[name]
        v = state.velocity[name]
        v *= cfg.momentum
        v += g + cfg.weight_decay * w
        w -= lr * v
    state.step += 1


def _phase_masks(cfg: TrainConfig) -> list[frozenset]:
    if cfg.phase_mode == "fused":
        return [cfg.modules]
    return [frozenset({m}) for m in MODULE_NAMES if m in cfg.modules]


def train(
    bags: list[Bag],
    cfg: TrainConfig,
    state: TrainState | None = None,
    until_epoch: int | None = None,
) -> tuple[TrainState, list[dict]]:
    """Run (or resume) training; returns the final state and per-epoch rows.

    ``until_epoch`` stops early without touching the schedule, so a
    checkpoint written there resumes the exact trajectory: the epoch index
    is recovered from the step counter and the serialized RNG reproduces
    the remaining bag orderings.
    """
    if not bags:
        raise ConfigError("empty dataset")
    bags = [filter_proposals(b, cfg.min_proposal_side) for b in bags]
    n_classes = bags[0].n_classes
    feature_dim = bags[0].features.shape[1]
    for b in bags:
        if b.n_classes != n_classes or b.features.shape[1] != feature_dim:
            raise CompatibilityError("bags disagree on K or D")

    if state is None:
        state = init_state(cfg, n_classes, feature_dim)
    elif state.n_classes != n_classes or state.feature_dim != feature_dim:
        raise CompatibilityError(
            f"state is K={state.n_classes}, D={state.feature_dim}; "
            f"dataset is K={n_classes}, D={feature_dim}"
        )

    n = len(bags)
    # An instance graph depends only on the bag's proposals: build each one
    # once per call, and only when the contrastive module reads it.
    frozen: list[FrozenStructures | None] = [None] * n
    if cfg.m1 and (cfg.m3 or cfg.m4):
        frozen = [
            FrozenStructures(instance_graph=gc.build_instance_graph(b.proposals, cfg.graph_iou))
            for b in bags
        ]
    phases = _phase_masks(cfg)
    steps_per_epoch = -(-n // cfg.batch_size) * len(phases)
    schedule = resolve_schedule(cfg, cfg.epochs * steps_per_epoch)

    history: list[dict] = []
    start_epoch = state.step // steps_per_epoch if steps_per_epoch else 0
    stop_epoch = cfg.epochs if until_epoch is None else min(cfg.epochs, until_epoch)
    for epoch in range(start_epoch, stop_epoch):
        order = state.rng.permutation(n)
        sums = {"loss_total": 0.0, "loss_ins": 0.0, "loss_sem": 0.0, "loss_igcl": 0.0}
        last_lr = lr_at(schedule, state.step)
        for phase in phases:
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                acc: dict[str, np.ndarray] = {}
                for i in batch:
                    fwd = forward_losses(bags[i], state, cfg, frozen[i], include=phase)
                    nm.backward(fwd.loss)
                    for name, node in fwd.leaves.items():
                        if name in acc:
                            acc[name] += node.grad
                        else:
                            acc[name] = node.grad  # the graph is dropped: no copy
                    sums["loss_total"] += float(fwd.loss.value)
                    for key in ("loss_ins", "loss_sem", "loss_igcl"):
                        sums[key] += fwd.parts[key]
                    if "M2" in phase and fwd.pseudo_hard is not None:
                        state.centers = sb.update_centers(
                            state.centers, fwd.z_values, fwd.pseudo_hard, cfg.center_rate
                        )
                        # Under two proposals there is no sample correlation
                        # to fold in, only the identity fallback.
                        if cfg.corr_sem_ema > 0.0 and bags[i].size >= 2:
                            state.corr_buffer = (
                                cfg.corr_sem_ema * state.corr_buffer
                                + (1.0 - cfg.corr_sem_ema) * fwd.corr_values
                            )
                if len(batch) > 1:
                    for name in acc:
                        acc[name] /= len(batch)
                last_lr = lr_at(schedule, state.step)
                sgd_step(state, acc, cfg, last_lr)
        history.append(
            {
                "epoch": epoch,
                "loss_total": sums["loss_total"] / n,
                "loss_ins": sums["loss_ins"] / n,
                "loss_sem": sums["loss_sem"] / n,
                "loss_igcl": sums["loss_igcl"] / n,
                "lr": last_lr,
            }
        )
    return state, history


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


def nms(boxes: list, scores: list[float], threshold: float) -> list[int]:
    """Greedy non-maximum suppression; returns kept indices.

    Processes by descending score (ties by index) and drops any box whose
    IoU with an already-kept box exceeds the threshold.
    """
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        if all(iou(boxes[i], boxes[j]) <= threshold for j in kept):
            kept.append(i)
    return kept


def infer(bag: Bag, state: TrainState, cfg: TrainConfig) -> list[Detection]:
    """Score proposals, fuse the two branches, and decode detections.

    With both branches active the detection score is the instance
    probability refined by the semantic pseudo-score softmax; a lone
    branch scores on its own. Per class: drop scores below the floor,
    then greedy NMS.
    """
    bag = filter_proposals(bag, cfg.min_proposal_side)
    feats = nm.as_node(bag.features)

    def param(name: str) -> Node:
        return nm.as_node(state.params[name])

    score_matrix: np.ndarray | None = None
    if cfg.m1:
        score_matrix = _instance_scores(feats, param).corr_ins.value
    if cfg.m2:
        _, _, pseudo = _semantic_chain(feats, param("w_sem"), state, cfg)
        sem_scores = nm.softmax_rows(pseudo.scores).value
        score_matrix = sem_scores if score_matrix is None else score_matrix * sem_scores

    detections: list[Detection] = []
    for k in range(state.n_classes):
        idx = [i for i in range(bag.size) if score_matrix[i, k] >= cfg.min_score]
        boxes = [bag.proposals[i] for i in idx]
        class_scores = [float(score_matrix[i, k]) for i in idx]
        for j in nms(boxes, class_scores, cfg.nms_iou):
            detections.append(Detection(bag.image_id, boxes[j], k, class_scores[j]))
    return detections


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"WDETCKPT"
CKPT_VERSION = 1


def save_checkpoint(state: TrainState, path) -> None:
    """Versioned binary container: named float64 tensors, then a JSON tail
    with the step counter and the exact RNG state."""
    tensors: dict[str, np.ndarray] = {f"param/{k}": v for k, v in state.params.items()}
    tensors.update({f"velocity/{k}": v for k, v in state.velocity.items()})
    tensors["centers"] = state.centers
    tensors["corr_buffer"] = state.corr_buffer
    meta = {
        "step": state.step,
        "n_classes": state.n_classes,
        "feature_dim": state.feature_dim,
        "rng_state": state.rng.bit_generator.state,
    }
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            encoded = name.encode()
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
            fh.write(arr.tobytes())
        blob = json.dumps(meta, sort_keys=True).encode()
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)


def load_checkpoint(path) -> TrainState:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Every read is checked against the bytes left and nothing may follow the
    JSON tail, so a truncated, padded or garbled file raises
    :class:`ParseError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise ParseError("not a checkpoint file")
    pos = len(CKPT_MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(data) - pos:
            raise ParseError(f"checkpoint truncated: {len(data)} bytes, needs {pos + n}")
        pos += n
        return data[pos - n : pos]

    try:
        version, count = struct.unpack("<II", take(8))
        if version != CKPT_VERSION:
            raise ParseError(f"unsupported checkpoint version {version}")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4))
            name = take(name_len).decode()
            (ndim,) = struct.unpack("<I", take(4))
            shape = struct.unpack(f"<{ndim}q", take(8 * ndim))
            if any(d < 0 for d in shape):
                raise ParseError(f"tensor {name!r} has a negative dimension")
            raw = take(8 * math.prod(shape))
            tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
        (blob_len,) = struct.unpack("<I", take(4))
        meta = json.loads(take(blob_len).decode())
        if pos != len(data):
            raise ParseError(f"{len(data) - pos} trailing bytes after the checkpoint")
        rng = np.random.default_rng()
        rng.bit_generator.state = meta["rng_state"]
        return TrainState(
            params={k[len("param/") :]: v for k, v in tensors.items() if k.startswith("param/")},
            velocity={
                k[len("velocity/") :]: v for k, v in tensors.items() if k.startswith("velocity/")
            },
            centers=tensors["centers"],
            corr_buffer=tensors["corr_buffer"],
            step=int(meta["step"]),
            rng=rng,
            n_classes=int(meta["n_classes"]),
            feature_dim=int(meta["feature_dim"]),
        )
    except (KeyError, TypeError, ValueError) as e:  # includes bad UTF-8 and JSON
        raise ParseError(f"malformed checkpoint ({type(e).__name__}: {e})") from e
