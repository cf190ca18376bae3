"""Composite objective, training loop, SGD, checkpointing, and inference.

Each epoch runs the three phases over the bags: the instance branch
(scores, induced labels, detection loss), the semantic branch (embeddings,
correlation, pseudo-labels, center loss), then the graph contrastive module
over both. The default fused mode sums the phase losses into one objective
per bag and takes a single SGD-with-momentum step plus one center update;
the sequential mode instead loops over the bags once per phase, stepping
after each phase-local loss. The objective is one composite node over the
named loss terms. A module mask selects participating phases, giving the
six ablation sub-methods. Parameters, velocities and gradients are flat
vectors, so a step is one vector update when every group is touched. Runs
are deterministic given (seed, config, dataset), and checkpoints restore
the trajectory bit for bit.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import igcl as gc
from . import instance_branch as ib
from . import numerics as nm
from . import semantic_branch as sb
from .datamodel import Bag, Box, class_prototypes, filter_proposals
from .errors import (CompatibilityError, ConfigError, EmptyBagError, NumericError, ParseError,
                     WeakdetError, check_keys)
# iou is unused here; perfbench checks that its tracer rebinds this name too.
from .evalmetrics import Detection, iou  # noqa: F401
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
    label_ratio: float = 0.9  # gamma: top-score ratio for induced labels
    center_rate: float = 0.05  # theta: EMA rate for class centers
    tau: float = 5.0  # contrastive inverse temperature
    lr_schedule: tuple[tuple[float, float], ...] = ((0.0, 1e-3), (0.8, 1e-4))
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epochs: int = 10
    batch_size: int = 1
    seed: int = 0
    modules: frozenset = SUB_METHODS["F"]
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
        check_keys(vars(self), (  # NaN fails every comparison; a bool or numpy integer is no int
            ("a set of module names", lambda v: all(type(m) is str for m in frozenset(v)),
             ("modules",)),
            ("(breakpoint, rate) pairs with rising finite breakpoints and finite rates >= 0",
             lambda v: [s for s, _ in v] == sorted(s for s, _ in v) != [] and all(
                 math.isfinite(s) and 0.0 <= r < math.inf for s, r in v), ("lr_schedule",)),
            ("an int", lambda v: type(v) is int,
             ("epochs", "batch_size", "seed", "hidden_dim", "embed_dim", "knn_k")),
            (">= 0", lambda v: v >= 0, ("epochs", "seed")),
            (">= 1", lambda v: v >= 1, ("batch_size",)),
            ("in [1, 4096]", lambda v: 1 <= v <= 4096, ("hidden_dim", "embed_dim")),
            ("in [1, 10000]", lambda v: 1 <= v <= 10_000, ("knn_k",)),
            ("a number in [0, 1]", lambda v: 0.0 <= v <= 1.0,
             ("graph_iou", "nms_iou", "min_score", "center_rate")),
            ("in [0, 1)", lambda v: 0.0 <= v < 1.0, ("corr_sem_ema", "momentum")),
            ("in (0, 1]", lambda v: 0.0 < v <= 1.0, ("label_ratio",)),
            ("a finite number > 0", lambda v: 0.0 < v < math.inf, ("tau",)),
            ("a finite number >= 0", lambda v: 0.0 <= v < math.inf,
             ("lambda_ins", "lambda_sem", "lambda_igcl", "weight_decay", "min_proposal_side")),
            ("fused or sequential", lambda v: v in ("fused", "sequential"), ("phase_mode",)),
            ("prototypes or random", lambda v: v in ("prototypes", "random"),
             ("semantic_init", "center_init")),
        ))
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


@dataclass
class TrainState:
    """Everything learnable or stateful: parameters, centers, optimizer
    velocities, the running correlation buffer, the step counter, and the
    training RNG. The constructor packs the parameter and the velocity groups
    into one float64 vector each, in sorted name order; ``params[name]`` and
    ``velocity[name]`` are views into them at ``layout[name]``, a (slice, shape)."""

    params: dict
    velocity: dict
    centers: np.ndarray
    corr_buffer: np.ndarray
    step: int
    rng: np.random.Generator
    n_classes: int
    feature_dim: int
    flat_params: np.ndarray = field(init=False, repr=False)
    flat_velocity: np.ndarray = field(init=False, repr=False)
    layout: dict = field(init=False, repr=False)

    def __post_init__(self):
        shapes = {k: np.shape(self.params[k]) for k in sorted(self.params)}
        if {k: np.shape(v) for k, v in self.velocity.items()} != shapes:
            raise CompatibilityError("velocity groups do not match the parameter groups")
        ends = np.cumsum([0, *map(math.prod, shapes.values())]).tolist()
        self.layout = {k: (slice(a, b), s) for (k, s), a, b in zip(shapes.items(), ends, ends[1:])}
        self.flat_params, self.flat_velocity = (
            np.concatenate([np.ravel(g[k]) for k in shapes], dtype=np.float64)
            for g in (self.params, self.velocity)
        )
        self.params = {k: self.view(self.flat_params, k) for k in shapes}
        self.velocity = {k: self.view(self.flat_velocity, k) for k in shapes}

    def view(self, flat: np.ndarray, name: str) -> np.ndarray:
        """Group ``name`` of a vector in this state's layout."""
        sl, shape = self.layout[name]
        return flat[sl].reshape(shape)


def param_shapes(n_classes: int, feature_dim: int, hidden_dim: int, embed_dim: int) -> dict:
    """Each parameter group's shape, by name, in initialization order."""
    k, d, h = n_classes, feature_dim, hidden_dim
    shapes = {"w_cls": (d, k), "w_det": (d, k), "w_bg": (d, 1), "w_sem": (k, d)}
    for tag, in_dim in (("ins", d), ("ins_p", k + 1), ("sem", k), ("sem_p", k)):
        shapes |= {f"gcn_{tag}_w1": (in_dim, h), f"gcn_{tag}_w2": (h, embed_dim)}
    return shapes


def init_state(cfg: TrainConfig, n_classes: int, feature_dim: int) -> TrainState:
    """Deterministic parameter initialization from cfg.seed.

    The semantic projector and class centers can start from the fixed
    feature-space prototypes, which anchors semantic coordinate k to
    category k the way a pretrained projector would in the full pipeline;
    both fall back to seeded random initialization.
    """
    rng = np.random.default_rng(cfg.seed)
    k, d = n_classes, feature_dim
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(k, d, cfg.hidden_dim, cfg.embed_dim).items():
        if name == "w_sem" and cfg.semantic_init == "prototypes":
            params[name] = class_prototypes(k, d)
        else:  # scaled by 1/sqrt(fan-in), which is D for the K x D w_sem
            fan_in = d if name == "w_sem" else shape[0]
            params[name] = rng.standard_normal(shape) * (1.0 / np.sqrt(fan_in))

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
class BagForward:
    """One bag's losses plus what the update step needs afterwards.

    ``terms`` names the loss nodes that ``loss``, one ``composite_loss``
    node, is built from: ``loss_ins`` and ``loss_sem`` carry their lambda
    weight, and the contrastive terms (``loss_con_sd`` and ``loss_con_ds``
    under M4, ``loss_con_ins`` and ``loss_con_sem`` under M3) are summed and
    weighted by ``lambda_igcl``. A lone weighted term is the loss itself.
    ``parts`` holds the unweighted branch losses as floats. ``pseudo_hard``
    holds the semantic branch's hard pseudo-labels, None when the forward
    did not build that branch.
    """

    loss: Node
    terms: dict
    leaves: dict
    parts: dict
    pseudo_hard: np.ndarray | None
    z_values: np.ndarray | None
    corr_values: np.ndarray | None


def _semantic_chain(
    feats: Node, w_sem: Node, state: TrainState, cfg: TrainConfig
) -> tuple[Node, Node, sb.PseudoLabels]:
    """The semantic branch forward: embeddings ``z``, their correlation
    blended with the running buffer, and the refined pseudo-labels.

    A bag with fewer than two proposals has no sample correlation; each
    class then correlates only with itself (the identity).
    """
    z = nm.matmul_nt(feats, w_sem)
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
    instance_graph: np.ndarray | None = None,
    include: frozenset | None = None,
) -> BagForward:
    """Build the composite loss graph for one bag under the module mask.

    ``include`` restricts to a subset of the configured modules (the
    sequential phase mode passes one at a time). Parameters are wrapped as
    differentiable leaves only when the restricted loss actually reaches
    them, so masked-out modules see zero gradient and no optimizer update.
    A bag with no positive tag is a negative image: only its instance loss
    is built, so without M1 it has no loss and moves nothing.
    ``instance_graph`` is the bag's normalized instance adjacency, which a
    caller may build once: it depends on the proposals alone. Every other
    discrete selection is made anew from the current parameters.
    """
    active = cfg.modules if include is None else (cfg.modules & include)
    if 1 not in bag.tags.tolist():  # a negative image trains on its instance loss alone
        active &= {"M1"}
    need_gcl = bool({"M3", "M4"} & active)
    need_ins_branch = "M1" in active or (need_gcl and "M1" in cfg.modules)
    need_sem_branch = "M2" in active or (need_gcl and "M2" in cfg.modules)

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
    contrast: dict[str, Node] = {}

    if need_ins_branch:
        # The contrast reaches the head only through detached labels (and w_sem
        # through z and the refined scores), so the head is a leaf only under M1.
        param = leaf if "M1" in active else fixed
        scores = ib.instance_probs(feats, param("w_cls"), param("w_det"), param("w_bg"))
        approx = ib.approx_labels(scores.corr_ins.value, bag.tags, cfg.label_ratio)
    if "M1" in active:
        l_ins = ib.instance_loss(scores, approx, bag.tags)
        parts["loss_ins"] = float(l_ins.value)
        terms["loss_ins"] = nm.scale(l_ins, cfg.lambda_ins)
        weighted.append(terms["loss_ins"])

    z = corr = pseudo = None
    if need_sem_branch:
        z, corr, pseudo = _semantic_chain(feats, leaf("w_sem"), state, cfg)
    if "M2" in active:
        l_sem = sb.semantic_loss(z, pseudo, state.centers)
        parts["loss_sem"] = float(l_sem.value)
        terms["loss_sem"] = nm.scale(l_sem, cfg.lambda_sem)
        weighted.append(terms["loss_sem"])

    if need_gcl:
        u = u_p = v = v_p = None
        if "M1" in cfg.modules:
            igraph = instance_graph
            if igraph is None:
                igraph = gc.build_instance_graph(bag.proposals, cfg.graph_iou)
            onehot = nm.as_node(gc.one_hot_labels(approx.labels, bag.n_classes + 1))
            u = gc.gcn_forward(igraph, feats, leaf("gcn_ins_w1"), leaf("gcn_ins_w2"))
            u_p = gc.gcn_forward(igraph, onehot, leaf("gcn_ins_p_w1"), leaf("gcn_ins_p_w2"))
        if "M2" in cfg.modules:
            sgraph = gc.build_semantic_graph(z.value, cfg.knn_k)
            v = gc.gcn_forward(sgraph, z, leaf("gcn_sem_w1"), leaf("gcn_sem_w2"))
            v_p = gc.gcn_forward(sgraph, pseudo.scores, leaf("gcn_sem_p_w1"), leaf("gcn_sem_p_w2"))
        terms_of = gc.igcl_terms if "M4" in active else gc.independent_gcl_terms
        contrast = terms_of(u, u_p, v, v_p, cfg.tau)
        terms.update(contrast)
        # the contrast sum in the order the composite adds it (a float adds as a 0-d array does)
        parts["loss_igcl"] = sum(float(term.value) for term in contrast.values())

    # a bag with no term (a negative image under B or D) has no loss to move anything
    loss = nm.composite_loss(weighted, contrast.values(), cfg.lambda_igcl) if terms else Node(0.0)
    return BagForward(
        loss=loss,
        terms=terms,
        leaves=leaves,
        parts=parts,
        pseudo_hard=None if pseudo is None else pseudo.labels,
        z_values=None if z is None else z.value,
        corr_values=None if corr is None else corr.value,
    )


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


def resolve_schedule(cfg: TrainConfig, total_steps: int) -> list[tuple[int, float]]:
    """Turn fractional breakpoints into absolute optimizer steps."""
    return [(int(round(frac * total_steps)), rate) for frac, rate in cfg.lr_schedule]


def lr_at(schedule: list[tuple[int, float]], step: int) -> float:
    """The rate of the last breakpoint at or before ``step``, else the first rate."""
    return next((r for boundary, r in reversed(schedule) if step >= boundary), schedule[0][1])


def sgd_step(
    state: TrainState, grad: np.ndarray, cfg: TrainConfig, lr: float, touched=None
) -> None:
    """v <- mu v + g + wd w;  w <- w - lr v for the groups in ``touched`` (all
    when None), as one update when all are touched. ``grad`` is a vector in
    the state's layout; nothing moves unless all of it is finite."""
    if not nm.all_finite(grad):
        bad = next(k for k in state.layout if not nm.all_finite(state.view(grad, k)))
        raise NumericError(f"non-finite gradient for {bad} at step {state.step}; aborting")
    whole = touched is None or state.layout.keys() <= touched
    for sl in [slice(None)] if whole else [state.layout[k][0] for k in sorted(touched)]:
        w = state.flat_params[sl]
        v = state.flat_velocity[sl]
        v *= cfg.momentum
        v += grad[sl] + cfg.weight_decay * w
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
    graphs: list[np.ndarray | None] = [None] * n
    if "M1" in cfg.modules and {"M3", "M4"} & cfg.modules:
        graphs = [gc.build_instance_graph(b.proposals, cfg.graph_iou) for b in bags]
    phases = _phase_masks(cfg)
    steps_per_epoch = -(-n // cfg.batch_size) * len(phases)
    schedule = resolve_schedule(cfg, cfg.epochs * steps_per_epoch)

    grad = np.empty_like(state.flat_params)  # the batch's: the first bag's, then the rest added
    bag_grad = np.empty_like(grad)  # a later bag's in the batch, zeroed per bag
    grad_views = [{name: state.view(v, name) for name in state.layout} for v in (grad, bag_grad)]
    history: list[dict] = []
    start_epoch = state.step // steps_per_epoch if steps_per_epoch else 0
    stop_epoch = cfg.epochs if until_epoch is None else min(cfg.epochs, until_epoch)
    for epoch in range(start_epoch, stop_epoch):
        order = state.rng.permutation(n)
        sums = {"loss_total": 0.0, "loss_ins": 0.0, "loss_sem": 0.0, "loss_igcl": 0.0}
        for phase in phases:
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                touched = set()
                for j, i in enumerate(batch):
                    try:
                        fwd = forward_losses(bags[i], state, cfg, graphs[i], include=phase)
                        # The first bag's leaves add into their groups of the
                        # zeroed batch vector, a later bag's into its own:
                        # 0.0 + contrib, the bits a lazy buffer would hold.
                        (bag_grad if j else grad).fill(0.0)
                        views = grad_views[j > 0]
                        for name, node in fwd.leaves.items():
                            node.grad = views[name]
                        nm.backward(fwd.loss)
                        if "loss_sem" in fwd.terms:  # M2 ran on this bag
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
                    except WeakdetError as e:
                        where = f"bag {bags[i].image_id!r}, epoch {epoch}, step {state.step}"
                        e.args = (f"{where}: {e}",)
                        raise
                    if j:
                        grad += bag_grad
                    touched.update(fwd.leaves)
                    sums["loss_total"] += float(fwd.loss.value)
                    for key in ("loss_ins", "loss_sem", "loss_igcl"):
                        sums[key] += fwd.parts[key]
                if len(batch) > 1:
                    grad /= len(batch)
                last_lr = lr_at(schedule, state.step)
                sgd_step(state, grad, cfg, last_lr, touched)
        history.append({"epoch": epoch, **{k: v / n for k, v in sums.items()}, "lr": last_lr})
    return state, history


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


def nms(boxes: list, scores: list[float], threshold: float) -> list[int]:
    """Greedy non-maximum suppression; returns kept indices.

    Processes by descending score (ties by index) and keeps a box iff its
    IoU with every kept box is at most the threshold, so a negative or NaN
    threshold keeps only the top box. Each box's coordinates and area are
    read once, and the IoU repeats :func:`iou`'s operations in its order;
    each ``min``/``max`` is spelled as the conditional expression that picks
    the operand the builtin would, so even a signed zero is the same.
    """
    order = sorted(range(len(boxes)), key=scores.__getitem__, reverse=True)  # stable
    if not threshold >= 0.0:
        return order[:1]
    kept, kept_coords = [], []  # indices, and (x1, y1, x2, y2, area) of each
    for i in order:
        ax1, ay1, ax2, ay2 = boxes[i]
        area = (ax2 - ax1) * (ay2 - ay1)
        for bx1, by1, bx2, by2, b_area in kept_coords:
            # An empty overlap has IoU 0.0, which is <= threshold.
            ix = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
            if ix > 0.0 and (iy := (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)) > 0.0:
                inter = ix * iy
                if inter > 0.0 and inter / (area + b_area - inter) > threshold:
                    break
        else:
            kept.append(i)
            kept_coords.append((ax1, ay1, ax2, ay2, area))
    return kept


def infer(bag: Bag, state: TrainState, cfg: TrainConfig) -> list[Detection]:
    """Score proposals, fuse the two branches, and decode detections.

    With both branches active the detection score is the instance
    probability refined by the semantic pseudo-score softmax; a lone
    branch scores on its own; nothing that only the loss reads is built.
    One pass picks every class's candidates at or above the score floor,
    then greedy NMS runs per class. A bag whose every proposal is below
    ``min_proposal_side`` gets no detections.
    """
    try:
        bag = filter_proposals(bag, cfg.min_proposal_side)
    except EmptyBagError:
        return []
    feats = nm.as_node(bag.features)

    def param(name: str) -> Node:
        return nm.as_node(state.params[name])

    score_matrix: np.ndarray | None = None
    if "M1" in cfg.modules:
        score_matrix = ib.dual_scores(feats, param("w_cls"), param("w_det"))[1].value
    if "M2" in cfg.modules:
        _, _, pseudo = _semantic_chain(feats, param("w_sem"), state, cfg)
        sem_scores = nm.softmax_rows(pseudo.scores).value
        score_matrix = sem_scores if score_matrix is None else score_matrix * sem_scores

    by_class = score_matrix.T
    classes, rows = np.nonzero(by_class >= cfg.min_score)  # class-major, rows ascending
    scores = by_class[classes, rows].tolist()
    coords = np.asarray(bag.proposals).take(rows, axis=0).tolist()  # each candidate's box
    rows = rows.tolist()
    # A kept row becomes one Box, shared by every class that keeps it. The bag
    # checked its boxes, so Box and Detection are built by tuple.__new__, which
    # their own __new__ end in.
    shared: dict[int, Box] = {}
    detections: list[Detection] = []
    end = 0
    for k, n in enumerate(np.bincount(classes, minlength=state.n_classes).tolist()):
        if not n:  # no candidate of class k
            continue
        start, end = end, end + n
        boxes, class_scores = coords[start:end], scores[start:end]
        detections += [tuple.__new__(Detection, (bag.image_id, shared.setdefault(
                           rows[start + j], tuple.__new__(Box, boxes[j])), k, class_scores[j]))
                       for j in nms(boxes, class_scores, cfg.nms_iou)]
    return detections


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"WDETCKPT"
CKPT_VERSION = 1


def save_checkpoint(state: TrainState, path) -> None:
    """Versioned binary container: named float64 tensors, then a JSON tail
    with the step counter and the exact RNG state."""
    tensors = {"centers": state.centers, "corr_buffer": state.corr_buffer}
    for group, values in (("param", state.params), ("velocity", state.velocity)):
        tensors |= {f"{group}/{k}": v for k, v in values.items()}
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
    :class:`ParseError`. So does a tensor set other than the one
    :func:`init_state` makes for the stored K and D and the file's own
    hidden and embedding widths, a NaN or Inf entry, a step that is not an
    int >= 0, or a K or D that is not an int >= 1.
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
            if not np.isfinite(tensors[name]).all():
                raise ParseError(f"checkpoint tensor {name!r} holds NaN or Inf")
        (blob_len,) = struct.unpack("<I", take(4))
        meta = json.loads(take(blob_len).decode())
        if pos != len(data):
            raise ParseError(f"{len(data) - pos} trailing bytes after the checkpoint")
        for key, low in (("step", 0), ("n_classes", 1), ("feature_dim", 1)):
            if type(meta[key]) is not int or meta[key] < low:  # bools are not ints here
                raise ParseError(f"checkpoint {key} {meta[key]!r} is not an int >= {low}")
        k, d = meta["n_classes"], meta["feature_dim"]
        w2 = tensors.get("param/gcn_ins_w2")  # (hidden, embed): the checkpoint's own widths
        widths = w2.shape if w2 is not None and w2.ndim == 2 else (0, 0)
        shapes = param_shapes(k, d, *widths)
        want = {f"{g}/{n}": s for g in ("param", "velocity") for n, s in shapes.items()}
        want |= {"centers": (k, k), "corr_buffer": (k, k)}
        got = {name: t.shape for name, t in tensors.items()}
        for name in sorted(want.keys() | got.keys()):
            if want.get(name) != got.get(name):
                raise ParseError(f"checkpoint tensor {name!r} is {got.get(name, 'missing')}, "
                                 f"expected {want.get(name, 'absent')} for K={k}, D={d}")
        rng = np.random.default_rng()
        rng.bit_generator.state = meta["rng_state"]
        return TrainState(
            params={n: tensors[f"param/{n}"] for n in shapes},
            velocity={n: tensors[f"velocity/{n}"] for n in shapes},
            centers=tensors["centers"],
            corr_buffer=tensors["corr_buffer"],
            step=meta["step"],
            rng=rng,
            n_classes=k,
            feature_dim=d,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # bad UTF-8, JSON, RNG state
        raise ParseError(f"malformed checkpoint ({type(e).__name__}: {e})") from e
