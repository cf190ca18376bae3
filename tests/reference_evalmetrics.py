"""The matcher, AP and NMS loops as they stood before class bucketing.

:func:`match_table` scans every detection and every ground-truth entry for
its one class and searches every box for every detection at every
threshold; :func:`ap_from_flags` walks every flag; and :func:`nms` takes
its overlaps with ``min`` and ``max``. The library's rewrites must give the
same flags, the same AP bits and the same kept indices for any input.
"""

from __future__ import annotations

from weakdet.datamodel import iou
from weakdet.evalmetrics import _det_sort_key


def match_table(dets, gts, class_index, thresholds):
    gt_boxes = {}
    for gt in gts:
        gt_boxes.setdefault(gt.image_id, []).extend(b for b, k in gt.objects if k == class_index)
    n_gt = sum(len(v) for v in gt_boxes.values())

    ordered = sorted((d for d in dets if d.class_index == class_index), key=_det_sort_key)
    rows_of = {}
    for i, det in enumerate(ordered):
        rows_of.setdefault(det.image_id, []).append(i)

    table = [[False] * len(ordered) for _ in thresholds]
    for image_id, rows in rows_of.items():
        boxes = gt_boxes.get(image_id)
        if not boxes:
            continue
        ious = [[iou(ordered[i].box, b) for b in boxes] for i in rows]
        for flags, thr in zip(table, thresholds):
            matched = [False] * len(boxes)
            for i, row in zip(rows, ious):
                best, best_j = 0.0, -1
                for j, v in enumerate(row):
                    if v > best and not matched[j]:
                        best, best_j = v, j
                if best_j >= 0 and best > thr:
                    matched[best_j] = True
                    flags[i] = True
    return table, n_gt


def ap_from_flags(flags, n_gt):
    if n_gt == 0:
        return None
    recalls, precisions = [], []
    tp = 0
    for n, flag in enumerate(flags, start=1):
        if flag:
            tp += 1
            recalls.append(tp / n_gt)
            precisions.append(tp / n)
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    ap = prev_r = 0.0
    for r, p in zip(recalls, precisions):
        ap += (r - prev_r) * p
        prev_r = r
    return ap


def nms(boxes, scores, threshold):
    order = sorted(range(len(boxes)), key=scores.__getitem__, reverse=True)
    if not threshold >= 0.0:
        return order[:1]
    kept, kept_coords = [], []
    for i in order:
        ax1, ay1, ax2, ay2 = boxes[i]
        area = (ax2 - ax1) * (ay2 - ay1)
        for bx1, by1, bx2, by2, b_area in kept_coords:
            ix = min(ax2, bx2) - max(ax1, bx1)
            if ix > 0.0 and (iy := min(ay2, by2) - max(ay1, by1)) > 0.0:
                inter = ix * iy
                if inter > 0.0 and inter / (area + b_area - inter) > threshold:
                    break
        else:
            kept.append(i)
            kept_coords.append((ax1, ay1, ax2, ay2, area))
    return kept
