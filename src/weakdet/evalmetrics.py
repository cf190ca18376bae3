"""Detection evaluation: IoU matching, PASCAL-style AP, mAP, CorLoc, COCO mAP.

Matching follows the standard protocol: detections in strictly decreasing
score order (ties broken by image id, then box coordinates) greedily claim
the highest-IoU unmatched ground-truth box, and a claim counts only when
IoU is strictly greater than the threshold. AP integrates the full
monotone precision envelope (all-point interpolation, the modern VOC
convention). Classes with no ground truth are excluded from means.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate, compress, count
from typing import NamedTuple

import numpy as np

from .datamodel import Box, GroundTruth, iou

COCO_THRESHOLDS = tuple(0.50 + 0.05 * i for i in range(10))


def iou_matrix(boxes_a: Sequence[Box], boxes_b: Sequence[Box]) -> np.ndarray:
    """All pairwise IoUs as a len(boxes_a) x len(boxes_b) array.

    Repeats the operations of :func:`iou` in the same order, including its
    strict ``inter > 0`` guard, so each entry equals the scalar IoU exactly.
    A :class:`~weakdet.datamodel.BoxArray` is read without a copy; one
    sequence passed twice (the instance graph's) is read, and its areas
    computed, once.
    """
    a = np.asarray(boxes_a, np.float64).reshape(-1, 4)
    same = boxes_b is boxes_a
    b = a if same else np.asarray(boxes_b, np.float64).reshape(-1, 4)
    ax1, ay1, ax2, ay2 = a.T[:, :, None]
    bx1, by1, bx2, by2 = b.T
    area_b = (bx2 - bx1) * (by2 - by1)
    area_a = area_b[:, None] if same else (ax2 - ax1) * (ay2 - ay1)
    ix = np.maximum(0.0, np.minimum(ax2, bx2) - np.maximum(ax1, bx1))
    iy = np.maximum(0.0, np.minimum(ay2, by2) - np.maximum(ay1, by1))
    inter = ix * iy
    return np.where(inter > 0.0, inter / (area_a + area_b - inter), 0.0)


class Detection(NamedTuple):
    """One scored box prediction for one image."""

    image_id: str
    box: Box
    class_index: int
    score: float


def _det_sort_key(d: Detection):
    # Descending score; ties by image then box coordinates (a Box compares as
    # its x1, y1, x2, y2 tuple), so matching order and every metric are
    # deterministic.
    return (-d.score, d.image_id, d.box)


def _buckets(
    dets: list[Detection], gts: list[GroundTruth]
) -> tuple[dict[int, list[Detection]], dict[int, dict[str, list[Box]]]]:
    """Each class's detections, and each class's ground-truth boxes by image
    id, in one pass over each input. Both keep their input order; entries
    with the same image id pool their boxes in the order they list them."""
    dets_of: dict[int, list[Detection]] = {}
    for d in dets:
        dets_of.setdefault(d.class_index, []).append(d)
    boxes_of: dict[int, dict[str, list[Box]]] = {}
    for gt in gts:
        for box, k in gt.objects:
            boxes_of.setdefault(k, {}).setdefault(gt.image_id, []).append(box)
    return dets_of, boxes_of


def _match_table(
    dets: list[Detection], gt_boxes: dict[str, list[Box]], thresholds
) -> tuple[list[list[bool]], int]:
    """Greedy TP/FP flags of one class's detections at each threshold, plus
    the class's GT count; ``gt_boxes`` holds the class's boxes by image id.

    The detections are sorted once, and each (detection, ground-truth box)
    IoU of an image is one scalar :func:`iou`, shared by all thresholds.
    Within an image, each detection in turn claims the first unmatched box
    of highest IoU, if that IoU is strictly above 0.0 and the threshold;
    matching never crosses images. A detection's best IoU over all the
    image's boxes bounds what it can claim, so it is found once: at a
    threshold it does not clear, the detection is skipped (it would change
    no state), and while its first box of that IoU is unmatched it claims
    that box without a search. Exact for any threshold, NaN included.
    """
    n_gt = sum(map(len, gt_boxes.values()))
    ordered = sorted(dets, key=_det_sort_key)
    rows_of: dict[str, list[int]] = {}
    for i, det in enumerate(ordered):
        rows_of.setdefault(det.image_id, []).append(i)

    table = [[False] * len(ordered) for _ in thresholds]
    for image_id, rows in rows_of.items():
        boxes = gt_boxes.get(image_id)
        if not boxes:
            continue
        # (row, its IoUs, its best IoU, the first box with that IoU) of each
        # row that overlaps some box; max() keeps the first of equal values
        # and, started from 0.0, passes over a NaN as the search does.
        claimants = []
        for i in rows:
            ious = [iou(ordered[i].box, b) for b in boxes]
            top = max(0.0, *ious)
            if top > 0.0:
                claimants.append((i, ious, top, ious.index(top)))
        for flags, thr in zip(table, thresholds):
            matched = [False] * len(boxes)
            for i, ious, top, j in claimants:
                if not top > thr:
                    continue
                if matched[j]:  # search the unmatched boxes, as the greedy rule does
                    best, j = 0.0, -1
                    for jj, v in enumerate(ious):
                        if v > best and not matched[jj]:
                            best, j = v, jj
                    if j < 0 or not best > thr:
                        continue
                matched[j] = flags[i] = True
    return table, n_gt


def _ap_from_flags(flags: list[bool], n_gt: int) -> float | None:
    """All-point interpolated AP of TP flags in score order.

    Recall rises only at true positives and precision falls at every false
    positive, so the monotone envelope and the rectangle sum need the
    true-positive points alone: the tp-th true positive, at 1-based rank n,
    has recall tp / n_gt and precision tp / n.
    """
    if n_gt == 0:
        return None
    precisions = [tp / n for tp, n in enumerate(compress(count(1), flags), start=1)]
    ap = prev_r = 0.0
    for tp, p in enumerate(list(accumulate(reversed(precisions), max))[::-1], start=1):
        r = tp / n_gt
        ap += (r - prev_r) * p
        prev_r = r
    return ap


def _class_aps(
    dets: list[Detection], gts: list[GroundTruth], n_classes: int, thresholds
) -> list[list[float | None]]:
    """AP of every class (rows) at every threshold (columns)."""
    dets_of, boxes_of = _buckets(dets, gts)
    return [
        [_ap_from_flags(flags, n_gt) for flags in table]
        for table, n_gt in (
            _match_table(dets_of.get(k, []), boxes_of.get(k, {}), thresholds)
            for k in range(n_classes)
        )
    ]


def _mean_defined(aps) -> float | None:
    defined = [a for a in aps if a is not None]
    return sum(defined) / len(defined) if defined else None


def _coco_map(aps: list[list[float | None]]) -> float:
    n = len(COCO_THRESHOLDS)
    return sum(_mean_defined(row[t] for row in aps) or 0.0 for t in range(n)) / n


def match_detections(
    dets: list[Detection], gts: list[GroundTruth], class_index: int, thr: float
) -> tuple[list[bool], int]:
    """Greedy TP/FP labelling for one class at one IoU threshold.

    Returns the TP flags in processing order plus the ground-truth count.
    """
    dets_of, boxes_of = _buckets(dets, gts)
    (flags,), n_gt = _match_table(
        dets_of.get(class_index, []), boxes_of.get(class_index, {}), (thr,)
    )
    return flags, n_gt


def average_precision(
    dets: list[Detection], gts: list[GroundTruth], class_index: int, thr: float = 0.5
) -> float | None:
    """All-point interpolated AP for one class; None when the class has no GT."""
    return _ap_from_flags(*match_detections(dets, gts, class_index, thr))


def mean_ap(
    dets: list[Detection], gts: list[GroundTruth], n_classes: int, thr: float = 0.5
) -> float:
    """Mean of the defined per-class APs."""
    return _mean_defined(row[0] for row in _class_aps(dets, gts, n_classes, (thr,))) or 0.0


def coco_map(dets: list[Detection], gts: list[GroundTruth], n_classes: int) -> float:
    """Mean of mAP over IoU thresholds 0.50, 0.55, ..., 0.95."""
    return _coco_map(_class_aps(dets, gts, n_classes, COCO_THRESHOLDS))


def corloc(dets: list[Detection], gts: list[GroundTruth], n_classes: int) -> float:
    """Fraction of (image, present class) pairs whose top detection localizes.

    For each image and each class with ground truth there, the single
    highest-scoring detection counts as correct when it overlaps some
    ground-truth box of that class with IoU > 0.5.
    """
    # One pass keeps the first detection in matching order per (image, class);
    # the score test short-cuts the strict key comparison.
    best: dict[tuple[str, int], Detection] = {}
    for d in dets:
        key = (d.image_id, d.class_index)
        top = best.get(key)
        if (
            top is None
            or d.score > top.score
            or (d.score == top.score and _det_sort_key(d) < _det_sort_key(top))
        ):
            best[key] = d

    hits = total = 0
    for gt in gts:
        for k in sorted({k for _, k in gt.objects}):
            total += 1
            top = best.get((gt.image_id, k))
            if top is not None and any(iou(top.box, b) > 0.5 for b, kk in gt.objects if kk == k):
                hits += 1
    return hits / total if total else 0.0


def evaluation_report(
    dets: list[Detection],
    gts: list[GroundTruth],
    n_classes: int,
    split: str = "test",
    config_echo: dict | None = None,
) -> dict:
    """Assemble the metrics report emitted by the eval command.

    The test split reports mAP@0.5 and COCO-averaged mAP; the train split
    reports CorLoc. Unused fields stay null so the schema is stable.
    """
    echo = {"ap_interpolation": "all_point", "iou_criterion": "strictly_greater", "split": split}
    report: dict = {"map50": None, "coco_map": None, "corloc": None, "per_class": {},
                    "config_echo": {**echo, **(config_echo or {})}}
    if split == "train":
        report["corloc"] = corloc(dets, gts, n_classes)
    else:
        # One matching per class serves every threshold; column 0 is IoU 0.5.
        aps = _class_aps(dets, gts, n_classes, COCO_THRESHOLDS)
        report["map50"] = _mean_defined(row[0] for row in aps) or 0.0
        report["coco_map"] = _coco_map(aps)
        for k, row in enumerate(aps):
            report["per_class"][str(k)] = {"ap50": row[0], "ap_coco": _mean_defined(row)}
    return report
