import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakdet.datamodel import Box, GroundTruth
from weakdet.evalmetrics import (
    COCO_THRESHOLDS,
    Detection,
    _ap_from_flags,
    _buckets,
    _class_aps,
    _match_table,
    average_precision,
    coco_map,
    corloc,
    evaluation_report,
    iou,
    iou_matrix,
    mean_ap,
)
from weakdet.trainer import nms

import reference_evalmetrics as loops
from conftest import reference_nms


# ---------------------------------------------------------------- IoU


def test_iou_identity():
    b = Box(3, 4, 10, 12)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0


def test_iou_half_overlap():
    v = iou(Box(0, 0, 10, 10), Box(5, 0, 15, 10))
    assert abs(v - 1.0 / 3.0) < 1e-15


def test_iou_bounds():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x1, y1 = rng.uniform(0, 50, 2)
        a = Box(x1, y1, x1 + rng.uniform(1, 30), y1 + rng.uniform(1, 30))
        x1, y1 = rng.uniform(0, 50, 2)
        b = Box(x1, y1, x1 + rng.uniform(1, 30), y1 + rng.uniform(1, 30))
        assert 0.0 <= iou(a, b) <= 1.0


def _random_boxes(rng, n, grid=None):
    """n boxes; with `grid`, integer corners in [0, grid] so IoUs tie and touch."""
    boxes = []
    while len(boxes) < n:
        if grid:
            x1, y1, x2, y2 = (float(v) for v in rng.integers(0, grid + 1, 4))
        else:
            x1, y1 = rng.uniform(0, 50, 2)
            x2, y2 = x1 + rng.uniform(0.5, 30), y1 + rng.uniform(0.5, 30)
        if x2 > x1 and y2 > y1:
            boxes.append(Box(x1, y1, x2, y2))
    return boxes


def _assert_matches_scalar(a, b):
    m = iou_matrix(a, b)
    assert m.shape == (len(a), len(b)) and m.dtype == np.float64
    expected = np.array([[iou(x, y) for y in b] for x in a]).reshape(len(a), len(b))
    assert m.tobytes() == expected.tobytes()


def test_iou_matrix_bitwise_equals_scalar_on_random_boxes():
    rng = np.random.default_rng(7)
    for _ in range(30):
        _assert_matches_scalar(_random_boxes(rng, 9), _random_boxes(rng, 6))
        _assert_matches_scalar(_random_boxes(rng, 12, grid=6), _random_boxes(rng, 5, grid=6))


def test_iou_matrix_touching_and_duplicate_boxes():
    a = [Box(0, 0, 10, 10), Box(10, 0, 20, 10), Box(0, 10, 10, 20), Box(10, 10, 20, 20)]
    _assert_matches_scalar(a, a)
    m = iou_matrix(a, a)
    assert np.array_equal(m, np.eye(4))  # shared edges and corners do not overlap
    dup = [Box(1.5, 2.5, 7.25, 9.0)] * 3 + [Box(0, 0, 10, 5)]
    _assert_matches_scalar(dup, dup)
    assert (iou_matrix(dup, dup)[:3, :3] == 1.0).all()


def test_iou_matrix_empty_inputs():
    boxes = _random_boxes(np.random.default_rng(8), 3)
    assert iou_matrix([], boxes).shape == (0, 3)
    assert iou_matrix(boxes, []).shape == (3, 0)
    assert iou_matrix([], []).shape == (0, 0)


# ---------------------------------------------------------------- oracle

# The oracle enumerates every injective assignment of detections to
# (ground truth | false positive), keeps only assignments consistent with
# the protocol (each detection, in score order, takes the best unmatched
# box above the threshold), then integrates the PR curve step by step.
# Completely separate code path from the production matcher.


def oracle_flags(dets, gts, class_index, thr):
    dets = [d for d in dets if d.class_index == class_index]
    dets = sorted(
        dets, key=lambda d: (-d.score, d.image_id, d.box.x1, d.box.y1, d.box.x2, d.box.y2)
    )
    gt_items = []
    for gt in gts:
        for box, k in gt.objects:
            if k == class_index:
                gt_items.append((gt.image_id, box))

    n, g = len(dets), len(gt_items)
    options = [list(range(g)) + [None]] * n
    best = None
    for assign in itertools.product(*options):
        used = [a for a in assign if a is not None]
        if len(used) != len(set(used)):
            continue  # not injective
        ok = True
        taken = set()
        for det, a in zip(dets, assign):
            avail = [
                j
                for j in range(g)
                if j not in taken
                and gt_items[j][0] == det.image_id
                and iou(det.box, gt_items[j][1]) > thr
            ]
            pick = max(avail, key=lambda j: iou(det.box, gt_items[j][1]), default=None)
            if a != pick:
                ok = False
                break
            if a is not None:
                taken.add(a)
        if ok:
            best = assign
            break
    assert best is not None
    return [a is not None for a in best], g


def oracle_ap(dets, gts, class_index, thr):
    flags, n_gt = oracle_flags(dets, gts, class_index, thr)
    if n_gt == 0:
        return None
    ap = 0.0
    tp = fp = 0
    prev_recall = 0.0
    points = []
    for f in flags:
        tp, fp = tp + (1 if f else 0), fp + (0 if f else 1)
        points.append((tp / n_gt, tp / (tp + fp)))
    for i, (r, _) in enumerate(points):
        if r > prev_recall:
            ap += (r - prev_recall) * max(p for rr, p in points[i:])
            prev_recall = r
    return ap


def random_fixture(rng, n_dets, n_gts, n_classes=2, n_images=2):
    gts = []
    for img in range(n_images):
        objects = []
        for _ in range(n_gts):
            if rng.random() < 0.5:
                continue
            x1, y1 = rng.uniform(0, 60, 2)
            objects.append(
                (Box(x1, y1, x1 + rng.uniform(10, 40), y1 + rng.uniform(10, 40)),
                 int(rng.integers(0, n_classes)))
            )
        gts.append(GroundTruth(f"img{img}", objects))
    dets = []
    for _ in range(n_dets):
        img = f"img{int(rng.integers(0, n_images))}"
        if gts[int(img[-1])].objects and rng.random() < 0.7:
            base, k = gts[int(img[-1])].objects[
                int(rng.integers(0, len(gts[int(img[-1])].objects)))
            ]
            dx = rng.uniform(-8, 8, size=4)
            xs = sorted((base.x1 + dx[0], base.x2 + dx[2]))
            ys = sorted((base.y1 + dx[1], base.y2 + dx[3]))
            box = Box(xs[0], ys[0], max(xs[1], xs[0] + 2), max(ys[1], ys[0] + 2))
        else:
            x1, y1 = rng.uniform(0, 60, 2)
            box = Box(x1, y1, x1 + rng.uniform(10, 40), y1 + rng.uniform(10, 40))
            k = int(rng.integers(0, n_classes))
        dets.append(Detection(img, box, k, float(rng.uniform(0, 1))))
    return dets, gts


def test_ap_agrees_with_exhaustive_oracle():
    rng = np.random.default_rng(1)
    for _ in range(60):
        dets, gts = random_fixture(rng, int(rng.integers(0, 7)), 3)
        for k in range(2):
            for thr in (0.5, 0.7):
                got = average_precision(dets, gts, k, thr)
                expected = oracle_ap(dets, gts, k, thr)
                if expected is None:
                    assert got is None
                else:
                    assert abs(got - expected) < 1e-12


# ---------------------------------------------------------------- AP cases


def _one_gt(image="img0", k=0):
    return [GroundTruth(image, [(Box(10, 10, 30, 30), k)])]


def test_ap_perfect_ranking():
    gts = _one_gt()
    dets = [Detection("img0", Box(10, 10, 30, 30), 0, 0.9)]
    assert average_precision(dets, gts, 0, 0.5) == 1.0


def test_ap_zero_detections():
    assert average_precision([], _one_gt(), 0, 0.5) == 0.0


def test_ap_fp_before_tp_gives_half():
    gts = _one_gt()
    dets = [
        Detection("img0", Box(60, 60, 80, 80), 0, 0.9),  # FP
        Detection("img0", Box(10, 10, 30, 30), 0, 0.8),  # TP
    ]
    assert average_precision(dets, gts, 0, 0.5) == 0.5


def test_ap_undefined_without_gt():
    dets = [Detection("img0", Box(0, 0, 10, 10), 1, 0.5)]
    assert average_precision(dets, _one_gt(k=0), 1, 0.5) is None


def test_strictly_greater_iou_criterion():
    # detection overlapping exactly half: IoU == 0.5 counts as a miss
    gts = [GroundTruth("img0", [(Box(0, 0, 10, 10), 0)])]
    half = Box(0, 0, 10, 5)
    assert iou(half, gts[0].objects[0][0]) == 0.5
    dets = [Detection("img0", half, 0, 0.9)]
    assert average_precision(dets, gts, 0, 0.5) == 0.0


def test_each_gt_matched_once():
    gts = _one_gt()
    dets = [
        Detection("img0", Box(10, 10, 30, 30), 0, 0.9),
        Detection("img0", Box(10, 10, 30, 30), 0, 0.8),  # duplicate -> FP
    ]
    ap = average_precision(dets, gts, 0, 0.5)
    assert ap == 1.0  # TP first, duplicate counted FP after full recall


def test_removing_a_false_positive_never_hurts():
    rng = np.random.default_rng(2)
    for _ in range(40):
        dets, gts = random_fixture(rng, 6, 3)
        for k in range(2):
            base = average_precision(dets, gts, k, 0.5)
            if base is None:
                continue
            assert 0.0 <= base <= 1.0
            flags, _ = oracle_flags(dets, gts, k, 0.5)
            class_dets = sorted(
                (d for d in dets if d.class_index == k),
                key=lambda d: (-d.score, d.image_id, d.box.x1, d.box.y1, d.box.x2, d.box.y2),
            )
            for det, f in zip(class_dets, flags):
                if not f:
                    slimmer = [d for d in dets if d is not det]
                    better = average_precision(slimmer, gts, k, 0.5)
                    assert better >= base - 1e-12


# ---------------------------------------------------------------- means


def test_mean_ap_single_class():
    gts = _one_gt()
    dets = [Detection("img0", Box(10, 10, 30, 30), 0, 0.9)]
    assert mean_ap(dets, gts, 1, 0.5) == average_precision(dets, gts, 0, 0.5)


def test_mean_ap_perfect_detector():
    gts = [
        GroundTruth("img0", [(Box(10, 10, 30, 30), 0), (Box(50, 50, 80, 80), 1)]),
    ]
    dets = [
        Detection("img0", Box(10, 10, 30, 30), 0, 0.9),
        Detection("img0", Box(50, 50, 80, 80), 1, 0.8),
    ]
    assert mean_ap(dets, gts, 2, 0.5) == 1.0


def test_mean_ap_two_class_fixture():
    rng = np.random.default_rng(3)
    dets, gts = random_fixture(rng, 5, 2)
    expected = [oracle_ap(dets, gts, k, 0.5) for k in range(2)]
    defined = [a for a in expected if a is not None]
    assert abs(mean_ap(dets, gts, 2, 0.5) - np.mean(defined)) < 1e-12


def test_metrics_invariant_to_score_rescaling():
    rng = np.random.default_rng(4)
    dets, gts = random_fixture(rng, 6, 3)
    scaled = [Detection(d.image_id, d.box, d.class_index, d.score * 7.5) for d in dets]
    assert mean_ap(dets, gts, 2, 0.5) == mean_ap(scaled, gts, 2, 0.5)
    assert corloc(dets, gts, 2) == corloc(scaled, gts, 2)
    assert coco_map(dets, gts, 2) == coco_map(scaled, gts, 2)


# ---------------------------------------------------------------- CorLoc


def test_corloc_perfect_top_boxes():
    gts = [
        GroundTruth("img0", [(Box(10, 10, 30, 30), 0)]),
        GroundTruth("img1", [(Box(5, 5, 25, 25), 1)]),
    ]
    dets = [
        Detection("img0", Box(10, 10, 30, 30), 0, 0.9),
        Detection("img1", Box(5, 5, 25, 25), 1, 0.4),
    ]
    assert corloc(dets, gts, 2) == 1.0


def test_corloc_all_background_tops():
    gts = [GroundTruth("img0", [(Box(10, 10, 30, 30), 0)])]
    dets = [Detection("img0", Box(80, 80, 100, 100), 0, 0.9)]
    assert corloc(dets, gts, 1) == 0.0


def test_corloc_mixed_four_pairs():
    gts = [
        GroundTruth("img0", [(Box(0, 0, 20, 20), 0), (Box(50, 50, 70, 70), 1)]),
        GroundTruth("img1", [(Box(0, 0, 20, 20), 0), (Box(50, 50, 70, 70), 1)]),
    ]
    dets = [
        Detection("img0", Box(0, 0, 20, 20), 0, 0.9),  # hit
        Detection("img0", Box(50, 50, 70, 70), 1, 0.9),  # hit
        Detection("img1", Box(1, 1, 21, 21), 0, 0.9),  # hit (IoU > .5)
        Detection("img1", Box(90, 90, 110, 110), 1, 0.9),  # miss
    ]
    assert corloc(dets, gts, 2) == 0.75


def test_corloc_uses_only_top_scoring_detection():
    gts = [GroundTruth("img0", [(Box(10, 10, 30, 30), 0)])]
    dets = [
        Detection("img0", Box(80, 80, 100, 100), 0, 0.9),  # top, misses
        Detection("img0", Box(10, 10, 30, 30), 0, 0.5),  # would hit
    ]
    assert corloc(dets, gts, 1) == 0.0


def sorted_corloc(dets, gts, n_classes):
    """The former CorLoc: sort every detection, keep the first per key."""
    best = {}
    for d in sorted(
        dets, key=lambda d: (-d.score, d.image_id, d.box.x1, d.box.y1, d.box.x2, d.box.y2)
    ):
        best.setdefault((d.image_id, d.class_index), d)
    hits = total = 0
    for gt in gts:
        for k in sorted({k for _, k in gt.objects}):
            total += 1
            top = best.get((gt.image_id, k))
            if top is not None and any(
                iou(top.box, box) > 0.5 for box, kk in gt.objects if kk == k
            ):
                hits += 1
    return hits / total if total else 0.0


def corloc_fixture(rng, n_images=3, n_classes=2):
    """Integer boxes and scores on a coarse grid: tied scores, identical
    boxes, repeated detections, and per image a tie trap whose pick decides
    a hit (same score, the earlier sort key misses)."""
    gts, dets = [], []
    for img in range(n_images):
        image_id = f"img{img}"
        objects = []
        for _ in range(int(rng.integers(1, 4))):
            x1, y1 = (int(v) for v in rng.integers(0, 40, 2))
            objects.append((Box(x1, y1, x1 + 20, y1 + 20), int(rng.integers(0, n_classes))))
        gts.append(GroundTruth(image_id, objects))
        for _ in range(int(rng.integers(0, 8))):
            base, k = objects[int(rng.integers(0, len(objects)))]
            dx = int(rng.integers(-12, 13))
            box = Box(base.x1 + dx, base.y1, base.x2 + dx, base.y2)
            det = Detection(image_id, box, k, float(rng.integers(0, 4)) / 4.0)
            dets.extend([det] * int(rng.integers(1, 3)))
        base, k = objects[0]
        miss = Box(base.x1 - 15, base.y1, base.x2 - 15, base.y2)
        trap = [Detection(image_id, base, k, 1.0), Detection(image_id, miss, k, 1.0)]
        dets.extend(trap[:: 1 if rng.random() < 0.5 else -1])
    order = rng.permutation(len(dets))
    return [dets[i] for i in order], gts


def test_corloc_equals_sort_oracle_with_ties():
    rng = np.random.default_rng(31)
    for _ in range(300):
        dets, gts = corloc_fixture(rng)
        assert corloc(dets, gts, 2) == sorted_corloc(dets, gts, 2)
        for gt in gts:  # one image at a time, so no two picks can cancel out
            assert corloc(dets, [gt], 2) == sorted_corloc(dets, [gt], 2)
    assert corloc([], gts, 2) == sorted_corloc([], gts, 2) == 0.0


def test_corloc_tie_goes_to_the_earlier_sort_key():
    gts = [GroundTruth("img0", [(Box(20, 0, 40, 20), 0)])]
    hit = Detection("img0", Box(20, 0, 40, 20), 0, 0.5)
    miss = Detection("img0", Box(5, 0, 25, 20), 0, 0.5)  # smaller x1: first
    assert corloc([hit, miss], gts, 1) == corloc([miss, hit], gts, 1) == 0.0
    assert corloc([hit, miss, Detection("img0", hit.box, 0, 0.6)], gts, 1) == 1.0


# ---------------------------------------------------------------- COCO


def test_coco_map_perfect_boxes():
    gts = _one_gt()
    dets = [Detection("img0", Box(10, 10, 30, 30), 0, 0.9)]
    assert coco_map(dets, gts, 1) == 1.0


def test_coco_map_iou_point_six_counts_two_thresholds():
    gt_box = Box(0, 0, 10, 10)
    det_box = Box(0, 0, 10, 7.5)  # IoU exactly 0.75... adjust to 0.6
    det_box = Box(0, 2.5, 10, 10)  # area 75, inter 75 -> IoU 0.75
    # Use a box with IoU exactly 0.6: width 10, height 6 over height 10
    det_box = Box(0, 4, 10, 10)
    assert abs(iou(det_box, gt_box) - 0.6) < 1e-12
    gts = [GroundTruth("img0", [(gt_box, 0)])]
    dets = [Detection("img0", det_box, 0, 0.9)]
    got = coco_map(dets, gts, 1)
    assert abs(got - 2.0 / 10.0) < 1e-12  # hits at 0.50 and 0.55 only


def test_coco_map_zero_detections():
    assert coco_map([], _one_gt(), 1) == 0.0


def test_coco_map_never_exceeds_map50():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dets, gts = random_fixture(rng, 6, 3)
        assert coco_map(dets, gts, 2) <= mean_ap(dets, gts, 2, 0.5) + 1e-12


def test_coco_thresholds_grid():
    assert len(COCO_THRESHOLDS) == 10
    assert COCO_THRESHOLDS[0] == 0.5
    assert abs(COCO_THRESHOLDS[-1] - 0.95) < 1e-12


# ---------------------------------------------------------------- report


def test_report_schema():
    rng = np.random.default_rng(6)
    dets, gts = random_fixture(rng, 5, 2)
    rep = evaluation_report(dets, gts, 2, split="test", config_echo={"seed": "0"})
    assert set(rep) == {"map50", "coco_map", "corloc", "per_class", "config_echo"}
    assert rep["corloc"] is None
    assert 0.0 <= rep["map50"] <= 1.0
    assert rep["config_echo"]["ap_interpolation"] == "all_point"
    assert set(rep["per_class"]) == {"0", "1"}

    rep_train = evaluation_report(dets, gts, 2, split="train")
    assert rep_train["map50"] is None
    assert 0.0 <= rep_train["corloc"] <= 1.0


# ---------------------------------------------------------------- report oracle

# The scalar matcher and AP loop as they stood before matching moved to one
# sort per class, with each detection's IoUs computed once for every
# threshold; the report must not change by a byte. Its sort key spells out
# the box coordinates, which the library's key compares as one Box tuple.


def scalar_match(dets, gts, class_index, thr):
    gt_boxes = {}
    for gt in gts:
        gt_boxes.setdefault(gt.image_id, [])
        for box, k in gt.objects:
            if k == class_index:
                gt_boxes[gt.image_id].append(box)
    n_gt = sum(len(v) for v in gt_boxes.values())
    matched = {i: [False] * len(v) for i, v in gt_boxes.items()}
    flags = []
    key = lambda d: (-d.score, d.image_id, d.box.x1, d.box.y1, d.box.x2, d.box.y2)  # noqa: E731
    for det in sorted((d for d in dets if d.class_index == class_index), key=key):
        best_iou, best_j = 0.0, -1
        for j, gt_box in enumerate(gt_boxes.get(det.image_id, [])):
            if matched[det.image_id][j]:
                continue
            v = iou(det.box, gt_box)
            if v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0 and best_iou > thr:
            matched[det.image_id][best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags, n_gt


def scalar_ap(dets, gts, class_index, thr):
    flags, n_gt = scalar_match(dets, gts, class_index, thr)
    if n_gt == 0:
        return None
    if not flags:
        return 0.0
    precisions, recalls = [], []
    tp = fp = 0
    for flag in flags:
        if flag:
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / n_gt)
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    ap = 0.0
    prev_r = 0.0
    for p, r in zip(precisions, recalls):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return ap


def scalar_mean_ap(dets, gts, n_classes, thr):
    defined = [a for a in (scalar_ap(dets, gts, k, thr) for k in range(n_classes)) if a is not None]
    return sum(defined) / len(defined) if defined else 0.0


def scalar_report(dets, gts, n_classes):
    per_class = {}
    for k in range(n_classes):
        aps = [scalar_ap(dets, gts, k, t) for t in COCO_THRESHOLDS]
        defined = [a for a in aps if a is not None]
        per_class[str(k)] = {
            "ap50": scalar_ap(dets, gts, k, 0.5),
            "ap_coco": sum(defined) / len(defined) if defined else None,
        }
    return {
        "map50": scalar_mean_ap(dets, gts, n_classes, 0.5),
        "coco_map": sum(scalar_mean_ap(dets, gts, n_classes, t) for t in COCO_THRESHOLDS)
        / len(COCO_THRESHOLDS),
        "corloc": None,
        "per_class": per_class,
        "config_echo": {
            "ap_interpolation": "all_point", "iou_criterion": "strictly_greater", "split": "test",
        },
    }


def _shift(box, dx):
    return Box(box.x1 + dx, box.y1, box.x2 + dx, box.y2)


def report_fixture(rng, n_images=4, n_classes=4):
    """Integer boxes on a small grid (tied and exactly-threshold IoUs), tied
    scores, duplicated detections, images and a class without ground truth,
    detections on an image missing from `gts`, and a repeated image id.

    Each image may also hold a tie trap: ground-truth boxes A and A + 2 in x,
    a detection at A + 1 that overlaps both equally, and a lower-scored one
    at A - 1 or A + 3 that is a true positive only if the first claimed the
    other box, so the tie rule decides the flags.
    """
    gts = []
    dets = []
    for img in range(n_images):
        objects = [(b, int(rng.integers(0, n_classes - 1)))
                   for b in _random_boxes(rng, int(rng.integers(0, 5)), grid=8)]
        if rng.random() < 0.7:
            k = int(rng.integers(0, n_classes - 1))
            a = _random_boxes(rng, 1, grid=8)[0]
            at = int(rng.integers(0, len(objects) + 1))
            objects[at:at] = [(a, k), (_shift(a, 2), k)]
            dets.append(Detection(f"img{img}", _shift(a, 1), k, 1.0))
            dets.append(Detection(f"img{img}", _shift(a, int(rng.choice([-1, 3]))), k, 0.5))
        gts.append(GroundTruth(f"img{img}", objects))
    gts.append(GroundTruth("img0", [(b, 0) for b in _random_boxes(rng, 2, grid=8)]))
    for _ in range(int(rng.integers(0, 30))):
        img = f"img{int(rng.integers(0, n_images + 1))}"  # img{n_images} has no GT entry
        dets.append(Detection(img, _random_boxes(rng, 1, grid=8)[0],
                              int(rng.integers(0, n_classes)), float(rng.integers(1, 4)) / 4))
    dets += [dets[int(i)] for i in rng.integers(0, len(dets), 5)] if dets else []
    return dets, gts


def test_report_equals_scalar_oracle_bytes():
    rng = np.random.default_rng(12)
    for trial in range(150):
        dets, gts = report_fixture(rng)
        expected = scalar_report(dets, gts, 4)
        assert json.dumps(evaluation_report(dets, gts, 4)) == json.dumps(expected), trial
        assert mean_ap(dets, gts, 4, 0.7) == scalar_mean_ap(dets, gts, 4, 0.7)
        assert coco_map(dets, gts, 4) == expected["coco_map"]
        for k in range(4):
            assert average_precision(dets, gts, k, 0.6) == scalar_ap(dets, gts, k, 0.6)


@pytest.mark.parametrize("thr", [-1.0, -0.1, 0.0, 0.5, float("nan")])
def test_match_detections_equals_scalar_oracle(thr):
    from weakdet.evalmetrics import match_detections

    rng = np.random.default_rng(13)
    for _ in range(40):
        dets, gts = report_fixture(rng)
        for k in range(4):
            assert match_detections(dets, gts, k, thr) == scalar_match(dets, gts, k, thr)


def test_report_with_zero_detections_and_no_ground_truth():
    gts = _one_gt() + [GroundTruth("img1", [])]
    assert json.dumps(evaluation_report([], gts, 3)) == json.dumps(scalar_report([], gts, 3))
    assert json.dumps(evaluation_report([], [], 2)) == json.dumps(scalar_report([], [], 2))
    assert evaluation_report([], [], 0)["coco_map"] == 0.0


# ---------------------------------------------------------------- invariants

# Integer boxes on a small grid, so IoUs tie, touch and reach the thresholds;
# few distinct scores, so the sort key's tie-breaks decide the order.
GRID_BOX = st.builds(lambda x1, y1, w, h: Box(x1, y1, x1 + w, y1 + h),
                     st.integers(0, 7), st.integers(0, 7), st.integers(1, 4), st.integers(1, 4))
FREE_BOX = st.builds(lambda x1, y1, w, h: Box(x1, y1, x1 + w, y1 + h),
                     st.floats(0.0, 1e4), st.floats(0.0, 1e4), st.floats(1e-2, 1e3),
                     st.floats(1e-2, 1e3))
SCORE = st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def evaluation_inputs(draw):
    n_classes = draw(st.integers(1, 2))
    images = [f"img{i}" for i in range(draw(st.integers(1, 2)))]
    cls = st.integers(0, n_classes - 1)
    gts = [GroundTruth(img, draw(st.lists(st.tuples(GRID_BOX, cls), max_size=4)))
           for img in images]
    det = st.builds(Detection, st.sampled_from([*images, "no_gt"]), GRID_BOX, cls,
                    st.sampled_from([0.5, 1.0]))
    return draw(st.lists(det, max_size=16)), gts, n_classes


@given(st.data())
def test_report_and_corloc_ignore_the_order_of_detections(data):
    dets, gts, n_classes = data.draw(evaluation_inputs())
    shuffled = data.draw(st.permutations(dets))
    for split in ("test", "train"):
        assert (json.dumps(evaluation_report(shuffled, gts, n_classes, split))
                == json.dumps(evaluation_report(dets, gts, n_classes, split)))
    assert corloc(shuffled, gts, n_classes) == corloc(dets, gts, n_classes)


@given(GRID_BOX | FREE_BOX, GRID_BOX | FREE_BOX)
def test_iou_is_symmetric_in_unit_interval_and_one_on_itself(a, b):
    v = iou(a, b)
    assert v == iou(b, a) and 0.0 <= v <= 1.0
    assert iou(a, a) == 1.0 and iou(b, b) == 1.0


@given(st.lists(st.tuples(GRID_BOX, SCORE), min_size=1, max_size=12),
       st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0))
def test_nms_kept_boxes_are_apart_and_each_dropped_box_is_covered(scored, thr):
    boxes, scores = [b for b, _ in scored], [s for _, s in scored]
    rank = {i: r for r, i in enumerate(sorted(range(len(boxes)), key=lambda i: (-scores[i], i)))}
    kept = nms(boxes, scores, thr)
    assert kept == sorted(set(kept), key=rank.get)
    for i, j in itertools.combinations(kept, 2):
        assert iou(boxes[i], boxes[j]) <= thr
    for i in set(range(len(boxes))) - set(kept):
        assert any(rank[j] < rank[i] and iou(boxes[i], boxes[j]) > thr for j in kept)


@st.composite
def nms_candidates(draw):
    """Scored boxes with duplicates, shared edges and nested boxes, and tied scores."""
    boxes = draw(st.lists(GRID_BOX | FREE_BOX, min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 6))):
        x1, y1, x2, y2 = draw(st.sampled_from(boxes))
        boxes.append(draw(st.sampled_from([
            Box(x1, y1, x2, y2),  # a duplicate
            Box(x2, y1, 2 * x2 - x1, y2),  # sharing the right edge
            Box(x1, y2, x2, 2 * y2 - y1),  # sharing the bottom edge
            Box(x1, y1, (x1 + x2) / 2, (y1 + y2) / 2),  # nested in a corner
            Box(x1 - 1.0, y1 - 1.0, x2 + 1.0, y2 + 1.0),  # enclosing
        ])))
    scores = draw(st.lists(SCORE, min_size=len(boxes), max_size=len(boxes)))
    return boxes, scores


@given(nms_candidates(), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
def test_nms_keeps_exactly_what_scalar_iou_suppression_keeps(candidates, thr):
    boxes, scores = candidates
    assert nms(boxes, scores, thr) == reference_nms(boxes, scores, thr)


@given(nms_candidates(),
       st.sampled_from([-0.0, float("nan"), float("inf"), -1.0]) | st.floats(max_value=-1e-300))
def test_nms_matches_the_reference_under_negative_nan_and_infinite_thresholds(candidates, thr):
    boxes, scores = candidates
    assert nms(boxes, scores, thr) == reference_nms(boxes, scores, thr)
    assert nms([], [], thr) == []


# ---------------------------------------------------------------- the replaced loops

# The COCO grid, 0, a negative value, a NaN in the middle of the tuple, and
# IoUs that grid boxes reach exactly (1/4, 1/3, 1/2, 1).
LOOP_THRESHOLDS = (*COCO_THRESHOLDS, 0.0, -0.1, float("nan"), 0.25, 1 / 3, 1.0)


@st.composite
def matching_inputs(draw):
    """Several grid boxes an entry, repeated image ids among the entries,
    classes on both sides of [0, K), tied scores, and detections in images
    with no ground truth."""
    n_classes = draw(st.integers(1, 3))
    images = [f"img{i}" for i in range(draw(st.integers(1, 3)))]
    cls = st.integers(-1, n_classes)
    gts = [GroundTruth(img, draw(st.lists(st.tuples(GRID_BOX, cls), max_size=5)))
           for img in draw(st.lists(st.sampled_from(images), max_size=4))]
    det = st.builds(Detection, st.sampled_from([*images, "no_gt"]), GRID_BOX, cls,
                    st.sampled_from([0.25, 0.5, 1.0]))
    return draw(st.lists(det, max_size=20)), gts, n_classes


@given(matching_inputs(), st.lists(st.booleans(), max_size=30), st.integers(0, 30),
       nms_candidates(), st.sampled_from([0.0, 0.5, float("nan"), -0.1]) | st.floats(0.0, 1.0))
def test_matching_ap_and_nms_equal_the_loops_they_replaced(inputs, flags, n_gt, candidates, thr):
    dets, gts, n_classes = inputs
    dets_of, boxes_of = _buckets(dets, gts)
    aps = _class_aps(dets, gts, n_classes, LOOP_THRESHOLDS)
    for k in range(-1, n_classes + 1):
        table, n = loops.match_table(dets, gts, k, LOOP_THRESHOLDS)
        assert _match_table(dets_of.get(k, []), boxes_of.get(k, {}), LOOP_THRESHOLDS) == (table, n)
        if 0 <= k < n_classes:
            assert aps[k] == [loops.ap_from_flags(f, n) for f in table]
    assert _ap_from_flags(flags, n_gt) == loops.ap_from_flags(flags, n_gt)
    boxes, scores = candidates
    assert nms(boxes, scores, thr) == loops.nms(boxes, scores, thr)
