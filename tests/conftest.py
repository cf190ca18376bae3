import numpy as np
import pytest

from weakdet.datamodel import Bag, Box


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
