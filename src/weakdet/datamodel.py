"""Boxes, bags, ground truth, JSONL fixtures, and the synthetic scene generator.

The generator stands in for a CNN backbone plus a proposal algorithm: scenes
are drawn on a blank canvas, placing ground-truth boxes for 1-4 objects whose
classes follow a co-occurrence matrix. Proposals are the ground-truth boxes
under IoU jitter plus random background distractors, and each proposal's
feature row mixes its class prototype with the prototypes of co-present
classes plus Gaussian noise, so both structures the detector exploits
(spatial overlap among proposals of one object, category co-occurrence)
survive the synthesis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EmptyBagError, ParseError

PROTOTYPE_SEED = 0x5EED


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in pixel coordinates, x2 > x1 and y2 > y1."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        for name in ("x1", "y1", "x2", "y2"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ConfigError("box coordinates must be finite")
            object.__setattr__(self, name, v)
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ConfigError(f"degenerate box {self.as_list()}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_list(self) -> list[float]:
        return [self.x1, self.y1, self.x2, self.y2]


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    if inter <= 0.0:
        return 0.0
    return inter / (a.area + b.area - inter)


@dataclass
class Bag:
    """One image's proposal set: boxes, feature rows, and image-level tags."""

    image_id: str
    canvas: tuple[float, float]
    proposals: list[Box]
    features: np.ndarray  # |B| x D
    tags: np.ndarray  # K, entries in {0, 1}

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        # Checked before the cast, which would truncate 0.7 to 0 and read true as 1.
        raw = self.tags.tolist() if isinstance(self.tags, np.ndarray) else self.tags
        if not isinstance(raw, (list, tuple)) or not all(
            isinstance(t, (int, np.integer)) and not isinstance(t, bool) and t in (0, 1)
            for t in raw
        ):
            raise ConfigError(f"bag {self.image_id}: image tags must be a list of 0 and 1")
        self.tags = np.asarray(self.tags, dtype=np.int64)
        if len(self.proposals) == 0:
            raise EmptyBagError(f"bag {self.image_id} has no proposals")
        if self.features.shape[0] != len(self.proposals):
            raise ConfigError("feature rows must align with proposals")
        if not np.all(np.isfinite(self.features)):
            raise ConfigError("bag features must be finite")

    @property
    def size(self) -> int:
        return len(self.proposals)

    @property
    def n_classes(self) -> int:
        return int(self.tags.size)


@dataclass
class GroundTruth:
    """Per-image object annotations; only the evaluator ever sees these."""

    image_id: str
    objects: list[tuple[Box, int]]  # (box, class index in 0..K-1)


@dataclass(frozen=True)
class SceneConfig:
    """Knobs for the synthetic benchmark generator."""

    n_classes: int = 6
    feature_dim: int = 32
    canvas: tuple[float, float] = (128.0, 128.0)
    objects_per_scene: tuple[int, int] = (1, 4)
    proposals_per_object: int = 5
    background_proposals: int = 10
    jitter: float = 0.25
    noise_sigma: float = 0.35
    context_alpha: float = 0.3
    min_gt_side: float = 24.0
    max_gt_side: float = 64.0
    cooccurrence: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.feature_dim < self.n_classes:
            raise ConfigError("feature_dim must be >= n_classes")
        if self.objects_per_scene[0] < 1 or self.objects_per_scene[0] > self.objects_per_scene[1]:
            raise ConfigError("objects_per_scene must be a nonempty 1-based range")
        if self.min_gt_side <= 0 or self.max_gt_side < self.min_gt_side:
            raise ConfigError("invalid ground-truth side range")
        if self.max_gt_side > min(self.canvas):
            raise ConfigError("canvas too small for the object size range")
        if self.jitter < 0 or self.noise_sigma < 0:
            raise ConfigError("jitter and noise_sigma must be nonnegative")
        cooc = self.cooccurrence
        if cooc is not None:
            cooc = np.asarray(cooc, dtype=np.float64)
            k = self.n_classes
            if cooc.shape != (k, k):
                raise ConfigError(f"cooccurrence must be {k}x{k}")
            if not np.allclose(cooc, cooc.T):
                raise ConfigError("cooccurrence must be symmetric")
            if cooc.min() < 0 or cooc.max() > 1:
                raise ConfigError("cooccurrence entries must lie in [0, 1]")
            object.__setattr__(self, "cooccurrence", cooc)


def default_cooccurrence(k: int, decay: float = 0.5) -> np.ndarray:
    """Banded co-occurrence: nearby class indices appear together more often."""
    idx = np.arange(k)
    return decay ** np.abs(idx[:, None] - idx[None, :]).astype(np.float64)


def class_prototypes(n_classes: int, feature_dim: int) -> np.ndarray:
    """K orthonormal feature-space prototypes, fixed given (K, D).

    Derived from a constant seed, not the dataset seed, so any consumer that
    knows the dimensions can reconstruct them.
    """
    rng = np.random.default_rng(PROTOTYPE_SEED)
    raw = rng.standard_normal((feature_dim, n_classes))
    q, _ = np.linalg.qr(raw)
    return q.T[:n_classes].copy()


def _sample_classes(cfg: SceneConfig, cooc: np.ndarray, rng: np.random.Generator) -> list[int]:
    lo, hi = cfg.objects_per_scene
    n_obj = int(rng.integers(lo, hi + 1))
    classes = [int(rng.integers(0, cfg.n_classes))]
    for _ in range(n_obj - 1):
        anchor = classes[int(rng.integers(0, len(classes)))]
        weights = cooc[anchor].copy()
        weights /= weights.sum()
        classes.append(int(rng.choice(cfg.n_classes, p=weights)))
    return classes


def _random_gt_box(cfg: SceneConfig, rng: np.random.Generator) -> Box:
    w = float(rng.uniform(cfg.min_gt_side, cfg.max_gt_side))
    h = float(rng.uniform(cfg.min_gt_side, cfg.max_gt_side))
    x1 = float(rng.uniform(0.0, cfg.canvas[0] - w))
    y1 = float(rng.uniform(0.0, cfg.canvas[1] - h))
    return Box(x1, y1, x1 + w, y1 + h)


def _jitter_box(box: Box, scale: float, cfg: SceneConfig, rng: np.random.Generator) -> Box:
    """Perturb each edge by up to scale * side, clamped inside the canvas."""
    dx = rng.uniform(-scale, scale, size=4)
    w, h = box.width, box.height
    x1 = box.x1 + dx[0] * w
    y1 = box.y1 + dx[1] * h
    x2 = box.x2 + dx[2] * w
    y2 = box.y2 + dx[3] * h
    x1, x2 = max(0.0, min(x1, x2 - 1.0)), min(cfg.canvas[0], max(x2, x1 + 1.0))
    y1, y2 = max(0.0, min(y1, y2 - 1.0)), min(cfg.canvas[1], max(y2, y1 + 1.0))
    return Box(x1, y1, x2, y2)


# Edge shifts of at most 5% of a side keep IoU above 0.5, so the first
# proposal of each object is jittered at this capped scale.
SAFE_JITTER = 0.05


def generate_dataset(cfg: SceneConfig, n_scenes: int) -> tuple[list[Bag], list[GroundTruth]]:
    """Generate `n_scenes` synthetic scenes, deterministic under cfg.seed.

    Every ground-truth object is guaranteed at least one proposal with
    IoU > 0.5 (exactly 1.0 when jitter is zero). Background proposals carry
    context-plus-noise features with no class prototype.
    """
    rng = np.random.default_rng(cfg.seed)
    cooc = cfg.cooccurrence if cfg.cooccurrence is not None else default_cooccurrence(cfg.n_classes)
    protos = class_prototypes(cfg.n_classes, cfg.feature_dim)

    bags: list[Bag] = []
    gts: list[GroundTruth] = []
    for s in range(n_scenes):
        classes = _sample_classes(cfg, cooc, rng)
        objects = [(_random_gt_box(cfg, rng), k) for k in classes]
        present = sorted(set(classes))

        boxes: list[Box] = []
        rows: list[np.ndarray] = []
        for gt_box, k in objects:
            others = [c for c in present if c != k]
            context = protos[others].mean(axis=0) if others else np.zeros(cfg.feature_dim)
            base = protos[k] + cfg.context_alpha * context
            for j in range(cfg.proposals_per_object):
                if j == 0:
                    prop = _jitter_box(gt_box, min(cfg.jitter, SAFE_JITTER), cfg, rng)
                    if iou(prop, gt_box) <= 0.5:
                        prop = gt_box
                else:
                    prop = _jitter_box(gt_box, cfg.jitter, cfg, rng)
                boxes.append(prop)
                rows.append(base + cfg.noise_sigma * rng.standard_normal(cfg.feature_dim))

        bg_context = cfg.context_alpha * protos[present].mean(axis=0)
        for _ in range(cfg.background_proposals):
            boxes.append(_random_gt_box(cfg, rng))
            rows.append(bg_context + cfg.noise_sigma * rng.standard_normal(cfg.feature_dim))

        tags = np.zeros(cfg.n_classes, dtype=np.int64)
        tags[present] = 1
        image_id = f"scene_{s:05d}"
        bags.append(Bag(image_id, cfg.canvas, boxes, np.vstack(rows), tags))
        gts.append(GroundTruth(image_id, objects))
    return bags, gts


def filter_proposals(bag: Bag, min_side: float = 16.0) -> Bag:
    """Drop proposals whose width or height is below `min_side` pixels."""
    keep = [i for i, b in enumerate(bag.proposals) if b.width >= min_side and b.height >= min_side]
    if not keep:
        raise EmptyBagError(f"bag {bag.image_id}: all proposals below {min_side}px")
    if len(keep) == bag.size:
        return bag
    return replace(
        bag,
        proposals=[bag.proposals[i] for i in keep],
        features=bag.features[keep].copy(),
    )


# ---------------------------------------------------------------------------
# JSONL fixtures
# ---------------------------------------------------------------------------


def _bag_record(bag: Bag, gt: GroundTruth | None) -> dict:
    return {
        "image_id": bag.image_id,
        "canvas": [bag.canvas[0], bag.canvas[1]],
        "proposals": [b.as_list() for b in bag.proposals],
        "features": bag.features.tolist(),
        "tags": bag.tags.tolist(),
        "gt": [] if gt is None else [[*box.as_list(), int(k)] for box, k in gt.objects],
    }


def save_jsonl(path, bags: list[Bag], gts: list[GroundTruth] | None = None) -> None:
    """Write one bag per line; ground truth rides along in the `gt` field."""
    by_id = {g.image_id: g for g in gts} if gts else {}
    with open(path, "w") as fh:
        for bag in bags:
            fh.write(json.dumps(_bag_record(bag, by_id.get(bag.image_id))))
            fh.write("\n")


def numbered_lines(path):
    """Yield ``(line number, text)`` for each line of a UTF-8 file; a line
    that does not decode raises :class:`ParseError` naming it."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ParseError(f"not valid UTF-8 ({e})", line=lineno) from e


RECORD_KEYS = frozenset({"image_id", "canvas", "proposals", "features", "tags", "gt"})


def load_jsonl(path) -> tuple[list[Bag], list[GroundTruth]]:
    """Read bags and ground truth; the `gt` field never enters the Bag."""
    bags: list[Bag] = []
    gts: list[GroundTruth] = []
    for lineno, line in numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            extra, canvas, gt = rec.keys() - RECORD_KEYS, rec["canvas"], rec.get("gt", [])
            if extra:
                raise ParseError(f"unknown record keys {sorted(extra)}", lineno)
            if type(rec["image_id"]) is not str:  # evaluation sorts and compares the ids
                raise ParseError(f"image_id {rec['image_id']!r} is not a string", lineno)
            if not (type(canvas) is list and len(canvas) == 2  # NaN fails 0 < c < inf
                    and all(type(c) in (int, float) and 0 < c < math.inf for c in canvas)):
                raise ParseError(f"canvas {canvas!r} is not two finite positive numbers", lineno)
            if not all(type(g) is list and len(g) == 5 for g in gt):
                raise ParseError("a gt item is not [x1, y1, x2, y2, k]", lineno)
            bag = Bag(
                image_id=rec["image_id"],
                canvas=(float(canvas[0]), float(canvas[1])),
                proposals=[Box(*b) for b in rec["proposals"]],
                features=np.asarray(rec["features"], dtype=np.float64),
                tags=rec["tags"],
            )
            objects = [(Box(*g[:4]), g[4]) for g in gt]
            n = bag.n_classes
            for _, k in objects:  # an int, not a bool or a float such as 1.7
                if type(k) is not int or not 0 <= k < n:
                    raise ParseError(f"gt class {k!r} is not an int in [0, {n})", lineno)
        except ParseError:
            raise
        except Exception as e:  # malformed record: report the line
            raise ParseError(str(e), line=lineno) from e
        bags.append(bag)
        gts.append(GroundTruth(bag.image_id, objects))
    return bags, gts
