import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from weakdet import igcl as gc
from weakdet import instance_branch as ib
from weakdet import semantic_branch as sb
from weakdet.datamodel import Bag, Box, iou, save_jsonl
from weakdet.trainer import forward_losses

# Derandomized, so every run (CI included) tries the same examples.
settings.register_profile(
    "weakdet", derandomize=True, deadline=None, max_examples=200, database=None
)
settings.load_profile("weakdet")


def finite_difference(loss_fn, arrays, step=1e-4):
    """Central-difference gradients of loss_fn() w.r.t. each array, in place.

    Independent of the package's own checker: plain loops, nothing shared
    but the forward evaluation itself.
    """
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            hi = loss_fn()
            arr[idx] = orig - step
            lo = loss_fn()
            arr[idx] = orig
            g[idx] = (hi - lo) / (2 * step)
            it.iternext()
        grads[name] = g
    return grads


def graph_nodes(root):
    """Every node of the graph under ``root``, each once."""
    nodes, stack = {id(root): root}, [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in nodes:
                nodes[id(p)] = p
                stack.append(p)
    return list(nodes.values())


def max_rel_err(analytic, fd, floor=1e-2):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
    return float((np.abs(analytic - fd) / denom).max())


def reference_nms(boxes, scores, thr):
    """Greedy NMS by scalar IoU: keep a box iff its IoU with every kept box is <= thr."""
    kept = []
    for i in sorted(range(len(boxes)), key=lambda i: (-scores[i], i)):
        if all(iou(boxes[i], boxes[j]) <= thr for j in kept):
            kept.append(i)
    return kept


def save_jsonl_as_lists(path, bags, gts=None, fields=("proposals", "features")):
    """Write ``bags`` as ``save_jsonl`` does, but with each bag's ``fields``
    (by default its proposals and its features) as lists of rows of JSON
    numbers, the encoding older versions wrote."""
    save_jsonl(path, bags, gts)
    records = [json.loads(line) for line in Path(path).read_text().splitlines()]
    for rec, bag in zip(records, bags):
        if "proposals" in fields:
            rec["proposals"] = [list(box) for box in bag.proposals]
        if "features" in fields:
            rec["features"] = bag.features.tolist()
    Path(path).write_text("".join(json.dumps(rec) + "\n" for rec in records))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def make_bag(rng, m=5, n_classes=3, feature_dim=8, n_pos=None, image_id="bag"):
    boxes = []
    for _ in range(m):
        x1 = float(rng.uniform(0, 80))
        y1 = float(rng.uniform(0, 80))
        boxes.append(Box(x1, y1, x1 + float(rng.uniform(20, 40)), y1 + float(rng.uniform(20, 40))))
    n_pos = n_pos or int(rng.integers(1, min(n_classes, m) + 1))
    tags = np.zeros(n_classes, dtype=np.int64)
    tags[rng.choice(n_classes, size=n_pos, replace=False)] = 1
    return Bag(
        image_id=image_id,
        canvas=(128.0, 128.0),
        proposals=boxes,
        features=rng.standard_normal((m, feature_dim)),
        tags=tags,
    )


class PinnedSelections:
    """Hold the discrete selections of ``forward_losses`` on one bag at the
    ones a plain forward makes now, as the audit's replay holds them.

    Wraps, with ``monkeypatch``, the functions ``trainer`` makes them with:
    ``approx_labels``, ``pseudo_labels`` (a pinned call keeps its real
    ``scores`` node and takes the recorded hard labels),
    ``build_instance_graph`` and ``build_semantic_graph``. ``pinned`` holds
    the recorded selection by function name and ``fresh`` the one the
    latest call computed; while ``held`` is False, each call returns its
    own selection. Every forward must be on the same bag.
    """

    def __init__(self, monkeypatch, bag, state, cfg):
        self.pinned, self.fresh, self.held = {}, {}, True
        self._wrap(monkeypatch, ib, "approx_labels")
        self._wrap(monkeypatch, sb, "pseudo_labels",
                   lambda got, kept: sb.PseudoLabels(got.scores, kept.labels))
        self._wrap(monkeypatch, gc, "build_instance_graph")
        self._wrap(monkeypatch, gc, "build_semantic_graph")
        forward_losses(bag, state, cfg)

    def _wrap(self, monkeypatch, module, name, merge=lambda got, kept: kept):
        original = getattr(module, name)

        def pinning(*args, **kwargs):
            got = self.fresh[name] = original(*args, **kwargs)
            kept = self.pinned.setdefault(name, got)
            return merge(got, kept) if self.held else got

        monkeypatch.setattr(module, name, pinning)
