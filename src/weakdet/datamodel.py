"""Boxes, bags, ground truth, JSONL fixtures, and the synthetic scene generator.

The generator stands in for a CNN backbone plus a proposal algorithm: scenes
are drawn on a blank canvas, placing ground-truth boxes for 1-4 objects whose
classes follow a co-occurrence matrix. Proposals are the ground-truth boxes
under IoU jitter plus random background distractors, and each proposal's
feature row mixes its class prototype with the prototypes of co-present
classes plus Gaussian noise, so both structures the detector exploits
(spatial overlap among proposals of one object, category co-occurrence)
survive the synthesis. The same config and seed give the same bytes, because
the order of the generator's random draws is fixed (see `generate_dataset`).
"""

from __future__ import annotations

import base64
import json
from collections import namedtuple
from collections.abc import Sequence, Sized
from dataclasses import dataclass, replace
from itertools import chain, repeat
from math import inf, isfinite

import numpy as np

from .errors import ConfigError, EmptyBagError, ParseError, check_keys

PROTOTYPE_SEED = 0x5EED
COOCCURRENCE_DECAY = 0.5


class Box(namedtuple("Box", "x1 y1 x2 y2")):
    """Axis-aligned pixel rectangle: a tuple of four finite floats, x2 > x1, y2 > y1."""

    __slots__ = ()

    def __new__(cls, x1, y1, x2, y2):
        # Converted and checked one coordinate at a time, in field order.
        if not (isfinite(x1 := float(x1)) and isfinite(y1 := float(y1))
                and isfinite(x2 := float(x2)) and isfinite(y2 := float(y2))):
            raise ConfigError("box coordinates must be finite")
        if not (x2 > x1 and y2 > y1):
            raise ConfigError(f"degenerate box {[x1, y1, x2, y2]}")
        return tuple.__new__(cls, (x1, y1, x2, y2))

    @classmethod
    def _make(cls, iterable):  # so _replace validates too
        return cls(*iterable)


class BoxArray(Sequence):
    """A bag's proposals: one read-only, C-contiguous (m, 4) float64 array
    of x1, y1, x2, y2 rows, checked in one pass as :class:`Box` checks one
    box. An item is a `Box` of Python floats, a slice or mask another
    `BoxArray`, and ``np.asarray`` gives the rows without a copy."""

    __slots__ = ("_rows",)

    def __new__(cls, boxes=()):
        if type(boxes) is cls:
            return boxes
        try:
            rows = np.array(boxes, dtype=np.float64)  # a copy that nothing else can write
        except (TypeError, ValueError, OverflowError):  # a ragged row, or a bad coordinate
            rows = np.empty((0, 0))
        if rows.shape == (0,):
            rows = rows.reshape(0, 4)
        if not (rows.ndim == 2 and rows.shape[1] == 4 and np.isfinite(rows).all()
                and (rows[:, 2:] > rows[:, :2]).all()):
            for row in boxes:  # the first bad row raises its own error
                if not (isinstance(row, Sized) and len(row) == 4):
                    raise ConfigError(f"box {row!r} is not 4 coordinates")
                Box(*row)
            raise ConfigError("boxes must be a sequence of rows of 4 coordinates")
        return cls._of(rows)

    @classmethod
    def _of(cls, rows: np.ndarray) -> BoxArray:
        """Wrap checked (m, 4) float64 rows, made C-contiguous and read-only."""
        self = object.__new__(cls)
        self._rows = np.ascontiguousarray(rows)
        self._rows.flags.writeable = False
        return self

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        rows = self._rows[index]
        if rows.ndim == 1:
            return tuple.__new__(Box, rows.tolist())
        if rows.ndim != 2:
            raise TypeError(f"BoxArray index {index!r} does not select rows")
        return self._of(rows)

    def __iter__(self):
        return map(tuple.__new__, repeat(Box), self._rows.tolist())

    def __array__(self, dtype=None, copy=None):
        return self._rows.astype(np.float64 if dtype is None else dtype, copy=bool(copy))

    def __eq__(self, other):  # as the lists of boxes compare
        if isinstance(other, (BoxArray, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __reduce__(self):  # so a pickled or deep-copied one is checked and read-only again
        return BoxArray, (self._rows,)

    def __repr__(self) -> str:
        return f"BoxArray({self._rows.tolist()})"


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    ix = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    iy = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = ix * iy
    if inter <= 0.0:
        return 0.0
    return inter / ((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter)


@dataclass
class Bag:
    """One image's proposal set: boxes, feature rows, and image-level tags.
    Any sequence of boxes becomes a :class:`BoxArray`."""

    image_id: str
    canvas: tuple[float, float]
    proposals: BoxArray
    features: np.ndarray  # |B| x D
    tags: np.ndarray  # K, entries in {0, 1}

    def __post_init__(self):
        self.proposals = BoxArray(self.proposals)
        self.features = np.asarray(self.features, dtype=np.float64)
        # Checked before the cast, which would truncate 0.7 to 0 and read true as 1.
        raw = self.tags.tolist() if isinstance(self.tags, np.ndarray) else self.tags
        if not isinstance(raw, (list, tuple)) or not all(
            isinstance(t, (int, np.integer)) and not isinstance(t, bool) and t in (0, 1)
            for t in raw
        ):
            raise ConfigError(f"bag {self.image_id}: image tags must be a list of 0 and 1")
        if not raw:  # K = 0: no class to score, and every softmax would be empty
            raise ConfigError(f"bag {self.image_id}: image tags are empty (K = 0)")
        self.tags = np.asarray(self.tags, dtype=np.int64)
        if len(self.proposals) == 0:
            raise EmptyBagError(f"bag {self.image_id} has no proposals")
        if self.features.shape[0] != len(self.proposals):
            raise ConfigError("feature rows must align with proposals")
        if not np.isfinite(self.features).all():
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
    seed: int = 0

    def __post_init__(self):
        check_keys(vars(self), (  # NaN fails every comparison; a rule may read the keys above it
            ("an int", lambda v: type(v) is int,
             ("n_classes", "feature_dim", "proposals_per_object", "background_proposals", "seed")),
            ("in [1, 1000]", lambda v: 1 <= v <= 1000, ("n_classes",)),
            ("in [n_classes, 4096]", lambda v: self.n_classes <= v <= 4096, ("feature_dim",)),
            ("ints lo,hi with 1 <= lo <= hi <= 1000",
             lambda v: len(v) == 2 and all(type(n) is int for n in v) and 1 <= v[0] <= v[1] <= 1000,
             ("objects_per_scene",)),
            (">= 0", lambda v: v >= 0, ("proposals_per_object", "background_proposals", "seed")),
            ("two finite numbers > 0", lambda v: len(v) == 2 and all(0.0 < c < inf for c in v),
             ("canvas",)),
            ("a finite number > 0", lambda v: 0.0 < v < inf, ("min_gt_side",)),
            ("in [min_gt_side, min(canvas)]", lambda v: self.min_gt_side <= v <= min(self.canvas),
             ("max_gt_side",)),
            ("a number in [0, 1]", lambda v: 0.0 <= v <= 1.0, ("jitter",)),
            ("a finite number >= 0", lambda v: 0.0 <= v < inf, ("noise_sigma",)),
            ("a finite number", lambda v: -inf < v < inf, ("context_alpha",)),
        ))
        least, most = (n * self.proposals_per_object + self.background_proposals
                       for n in self.objects_per_scene)
        if not (least >= 1 and most <= 10_000):
            raise ConfigError(f"proposals_per_object and background_proposals give bags of {least} "
                              f"to {most} proposals; every bag needs 1 to 10000")


def default_cooccurrence(k: int) -> np.ndarray:
    """Banded co-occurrence: nearby class indices appear together more often,
    COOCCURRENCE_DECAY times as often per index apart."""
    idx = np.arange(k)
    return COOCCURRENCE_DECAY ** np.abs(idx[:, None] - idx[None, :]).astype(np.float64)


def class_prototypes(n_classes: int, feature_dim: int) -> np.ndarray:
    """K orthonormal feature-space prototypes, fixed given (K, D).

    Derived from a constant seed, not the dataset seed, so any consumer that
    knows the dimensions can reconstruct them.
    """
    rng = np.random.default_rng(PROTOTYPE_SEED)
    raw = rng.standard_normal((feature_dim, n_classes))
    q, _ = np.linalg.qr(raw)
    return q.T[:n_classes].copy()


def _sample_classes(cfg: SceneConfig, probs: np.ndarray, rng: np.random.Generator) -> list[int]:
    lo, hi = cfg.objects_per_scene
    n_obj = int(rng.integers(lo, hi + 1))
    classes = [int(rng.integers(0, cfg.n_classes))]
    for _ in range(n_obj - 1):
        anchor = classes[int(rng.integers(0, len(classes)))]
        classes.append(int(rng.choice(cfg.n_classes, p=probs[anchor])))
    return classes


def _random_gt_box(cfg: SceneConfig, rng: np.random.Generator) -> tuple:
    # One draw of four uniforms, each mapped as rng.uniform maps it (low + (high - low) * u).
    uw, uh, ux, uy = rng.random(4).tolist()
    lo, span = cfg.min_gt_side, cfg.max_gt_side - cfg.min_gt_side
    w, h = lo + span * uw, lo + span * uh
    x1, y1 = (cfg.canvas[0] - w) * ux, (cfg.canvas[1] - h) * uy
    return x1, y1, x1 + w, y1 + h


def _jitter_box(box: tuple, scale: float, cfg: SceneConfig, rng: np.random.Generator) -> tuple:
    """Perturb each edge by up to scale * side, clamped inside the canvas."""
    # One draw of four uniforms, each mapped as rng.uniform(-scale, scale) maps it.
    u1, u2, u3, u4 = rng.random(4).tolist()
    lo, span = -scale, scale - -scale
    bx1, by1, bx2, by2 = box
    w, h = bx2 - bx1, by2 - by1
    x1, y1 = bx1 + (lo + span * u1) * w, by1 + (lo + span * u2) * h
    x2, y2 = bx2 + (lo + span * u3) * w, by2 + (lo + span * u4) * h
    x1, x2 = max(0.0, min(x1, x2 - 1.0)), min(cfg.canvas[0], max(x2, x1 + 1.0))
    y1, y2 = max(0.0, min(y1, y2 - 1.0)), min(cfg.canvas[1], max(y2, y1 + 1.0))
    return x1, y1, x2, y2


# Edge shifts of at most 5% of a side keep IoU above 0.5, so the first
# proposal of each object is jittered at this capped scale.
SAFE_JITTER = 0.05


def generate_dataset(cfg: SceneConfig, n_scenes: int) -> tuple[list[Bag], list[GroundTruth]]:
    """Generate `n_scenes` synthetic scenes, deterministic under cfg.seed.

    Every ground-truth object is guaranteed at least one proposal with
    IoU > 0.5 (exactly 1.0 when jitter is zero). Background proposals carry
    context-plus-noise features with no class prototype.

    The same config and seed give the same bytes. Each scene draws its classes,
    each object's ground-truth box (4 uniforms), per object `proposals_per_object`
    times a jitter (4 uniforms) and a feature noise row (D normals), then per
    background proposal a box (4 uniforms) and a noise row, in that order.
    """
    rng = np.random.default_rng(cfg.seed)
    cooc = default_cooccurrence(cfg.n_classes)
    probs = cooc / cooc.sum(axis=1, keepdims=True)
    protos = class_prototypes(cfg.n_classes, cfg.feature_dim)
    per_obj, d, first_scale = cfg.proposals_per_object, cfg.feature_dim, min(cfg.jitter, SAFE_JITTER)

    bags: list[Bag] = []
    gts: list[GroundTruth] = []
    for s in range(n_scenes):
        classes = _sample_classes(cfg, probs, rng)
        gt_rows = [_random_gt_box(cfg, rng) for _ in classes]
        present = sorted(set(classes))
        m = len(classes) * per_obj + cfg.background_proposals
        rows, bases, noise = [], np.empty((m, d)), np.empty((m, d))  # feature = base + sigma * noise
        for i, (gt_box, k) in enumerate(zip(gt_rows, classes)):
            others = [c for c in present if c != k]
            context = protos[others].mean(axis=0) if others else np.zeros(d)
            bases[i * per_obj:(i + 1) * per_obj] = protos[k] + cfg.context_alpha * context
            for j in range(per_obj):
                prop = _jitter_box(gt_box, cfg.jitter if j else first_scale, cfg, rng)
                if j == 0 and iou(prop, gt_box) <= 0.5:
                    prop = gt_box
                rng.standard_normal(out=noise[len(rows)])
                rows.append(prop)

        bases[len(rows):] = cfg.context_alpha * protos[present].mean(axis=0)
        for r in range(len(rows), m):
            rows.append(_random_gt_box(cfg, rng))
            rng.standard_normal(out=noise[r])

        tags = np.zeros(cfg.n_classes, dtype=np.int64)
        tags[present] = 1
        image_id = f"scene_{s:05d}"
        # Ground truth first, in draw order, so the first bad box raises its own error.
        boxes = BoxArray(np.fromiter(chain.from_iterable(gt_rows + rows), float).reshape(-1, 4))
        features = bases + cfg.noise_sigma * noise
        n = len(classes)
        bags.append(Bag(image_id, cfg.canvas, boxes[n:], features, tags))
        gts.append(GroundTruth(image_id, list(zip(boxes[:n], classes))))
    return bags, gts


def filter_proposals(bag: Bag, min_side: float) -> Bag:
    """Drop proposals whose width or height is below `min_side` pixels; a
    bag that loses none is returned as is."""
    rows = np.asarray(bag.proposals)
    keep = np.logical_and.reduce(rows[:, 2:] - rows[:, :2] >= min_side, axis=1)  # x2 - x1, y2 - y1
    if not (kept := np.count_nonzero(keep)):
        raise EmptyBagError(f"bag {bag.image_id}: all proposals below {min_side}px")
    if kept == len(keep):
        return bag
    return replace(bag, proposals=bag.proposals[keep], features=bag.features[keep])


# ---------------------------------------------------------------------------
# JSONL fixtures
# ---------------------------------------------------------------------------


def _bag_record(bag: Bag, gt: GroundTruth | None) -> dict:
    return {
        "image_id": bag.image_id,
        "canvas": [bag.canvas[0], bag.canvas[1]],
        "proposals": base64.b64encode(np.asarray(bag.proposals, "<f8").tobytes()).decode(),
        "features": base64.b64encode(bag.features.astype("<f8", copy=False).tobytes()).decode(),
        "tags": bag.tags.tolist(),
        "gt": [] if gt is None else [[*box, int(k)] for box, k in gt.objects],
    }


def save_jsonl(path, bags: list[Bag], gts: list[GroundTruth] | None = None) -> None:
    """Write one bag per line; ground truth rides along in the `gt` field.

    `proposals` (the m x 4 coordinate matrix) and `features` (m x D) are each
    written as one base64 string of the row-major little-endian float64
    matrix: exact, and far cheaper to read back than decimal floats.
    """
    by_id = {g.image_id: g for g in gts} if gts else {}
    with open(path, "w") as fh:
        for bag in bags:
            fh.write(json.dumps(_bag_record(bag, by_id.get(bag.image_id))))
            fh.write("\n")


def numbered_lines(path):
    """Yield ``(line number, text)`` for each line of a UTF-8 file; a line
    that does not decode raises :class:`ParseError` naming it. The file is
    read through a 1 MiB buffer, since one bag's line of base64 features is
    tens of KiB and the default 8 KiB buffer splits it into several reads."""
    with open(path, "rb", buffering=1 << 20) as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ParseError(f"not valid UTF-8 ({e})", line=lineno) from e


RECORD_KEYS = frozenset({"image_id", "canvas", "proposals", "features", "tags", "gt"})
NUMBER = frozenset({int, float})  # what json gives a JSON number; a bool is neither


def _b64_float64(value: str, field: str, unit: int) -> np.ndarray:
    """The little-endian float64s of base64 ``value``, a positive multiple of ``unit`` bytes."""
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as e:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{field} are not valid base64 ({e})") from e
    if not unit or not raw or len(raw) % unit:
        raise ValueError(f"{field} hold {len(raw)} bytes, not a positive multiple of {unit}")
    return np.frombuffer(raw, "<f8")


def _feature_matrix(value, rows: int) -> np.ndarray:
    """A bag's features from their JSON value: a base64 string of row-major
    little-endian float64s, D = bytes / (8 * rows) wide, or a list of rows
    of JSON numbers."""
    if type(value) is str:
        return _b64_float64(value, "features", 8 * rows).reshape(rows, -1).astype(np.float64)
    if not (type(value) is list and all(type(row) is list for row in value)
            and NUMBER.issuperset(map(type, chain.from_iterable(value)))):
        raise ValueError("features are neither a base64 string nor a list of rows of JSON numbers")
    features = np.asarray(value, dtype=np.float64)
    if features.shape[1:] == (0,):
        raise ValueError("features have no columns")
    return features


def load_jsonl(path) -> tuple[list[Bag], list[GroundTruth]]:
    """Read bags and ground truth; the `gt` field never enters the Bag.

    `proposals` and `features` are each a base64 float64 string (what
    `save_jsonl` writes; proposals are checked in one pass by `BoxArray`)
    or a list of rows of JSON numbers, chosen by the JSON type, to the same
    bits. Every bag of a file must have the first bag's tag count K and
    feature width D.
    """
    bags: list[Bag] = []
    gts: list[GroundTruth] = []
    first = None  # (K, D, line) of the first bag
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
                    and all(type(c) in NUMBER and 0 < c < inf for c in canvas)):
                raise ParseError(f"canvas {canvas!r} is not two finite positive numbers", lineno)
            if type(proposals := rec["proposals"]) is str:  # 32 bytes a row: x1, y1, x2, y2
                proposals = _b64_float64(proposals, "proposals", 32).reshape(-1, 4)
            # BoxArray would cast a string such as "6.91" and a bool to float.
            elif not NUMBER.issuperset(map(type, chain.from_iterable(proposals))):
                raise ParseError("a proposal coordinate is not a JSON number", lineno)
            boxes = BoxArray(proposals)
            if not all(type(g) is list and len(g) == 5
                       and all(type(v) in NUMBER for v in g[:4]) for g in gt):
                raise ParseError("a gt item is not [x1, y1, x2, y2, k] of JSON numbers", lineno)
            bag = Bag(
                image_id=rec["image_id"],
                canvas=(float(canvas[0]), float(canvas[1])),
                proposals=boxes,
                features=_feature_matrix(rec["features"], len(boxes)),
                tags=rec["tags"],
            )
            objects = [(Box(*g[:4]), g[4]) for g in gt]
            n = bag.n_classes
            for _, k in objects:  # an int, not a bool or a float such as 1.7
                if type(k) is not int or not 0 <= k < n:
                    raise ParseError(f"gt class {k!r} is not an int in [0, {n})", lineno)
            dims = (n, bag.features.shape[1])
            if first is None:
                first = (*dims, lineno)
            elif dims != first[:2]:
                raise ParseError(f"bag has K={dims[0]} tags and D={dims[1]} feature columns, but "
                                 f"the bag on line {first[2]} has K={first[0]} and D={first[1]}",
                                 lineno)
        except ParseError:
            raise
        except Exception as e:  # malformed record: report the line
            raise ParseError(str(e), line=lineno) from e
        bags.append(bag)
        gts.append(GroundTruth(bag.image_id, objects))
    return bags, gts
