"""The per-step helpers around the op kernels as they stood before their
numpy calls were trimmed.

Each function is the earlier body of a library function:
``approx_labels`` and ``instance_loss`` of ``instance_branch``;
``pseudo_labels``, ``semantic_loss`` and ``update_centers`` of
``semantic_branch``; ``normalize`` and ``build_semantic_graph`` of ``igcl``
(``normalize`` is ``igcl._normalize``); and ``finite`` (what ``Node`` stored
for a value), ``backward`` and ``unit_rows`` (``_unit_rows``) of
``numerics``. The rewrites must give the same bytes, dtypes and error types
for every input, with these exceptions. ``approx_labels`` here still rejects
a bag with no positive tag, and lets a score of -inf claim an instance when
its whole column is -inf. ``normalize`` here adds the identity, where the
library sets the diagonal to 1: the same for the zero diagonal that both
graph builders pass. ``instance_loss`` ends in the loss node of today's
signature, which pools the image scores and joins the logits itself.
"""

from __future__ import annotations

import math

import numpy as np

from weakdet import numerics as nm
from weakdet.errors import (ContractError, DegenerateInputError, NumericError, ParameterError,
                            ShapeError, UsageError)
from weakdet.instance_branch import SCORE_EPS, ApproxLabels
from weakdet.numerics import EPS_NORM, Node
from weakdet.semantic_branch import PseudoLabels


def approx_labels(corr_ins, tags, gamma):
    corr_ins = np.asarray(corr_ins, dtype=np.float64)
    tags = np.asarray(tags)
    if not (0.0 < gamma <= 1.0):
        raise ParameterError(f"gamma must be in (0, 1], got {gamma}")
    positives = np.flatnonzero(tags == 1)
    if positives.size == 0:
        raise ContractError("approx_labels needs at least one positive tag")

    m, n_classes = corr_ins.shape
    background = n_classes
    scores = corr_ins[:, positives]
    claimed = scores >= gamma * corr_ins.max(axis=0)[positives]
    best = np.argmax(np.where(claimed, scores, -np.inf), axis=1)
    labels = np.where(claimed.any(axis=1), positives[best], background)

    for k in positives:
        if np.any(labels == k):
            continue
        order = np.argsort(-corr_ins[:, k], kind="stable")
        for i in order:
            cur = labels[i]
            if cur == background or np.sum(labels == cur) > 1:
                labels[i] = k
                break

    is_bg = labels == background
    fg_score = corr_ins[np.arange(m), np.where(is_bg, 0, labels)]
    weights = np.where(is_bg, 1.0 - corr_ins.max(axis=1), fg_score)
    return ApproxLabels(labels=labels, seed_weights=np.clip(weights, 0.0, 1.0))


def instance_loss(scores, labels, tags):
    tags = np.asarray(tags, dtype=np.float64)
    m, n_classes = scores.corr_ins.value.shape
    if tags.size != n_classes:
        raise ContractError("tags length must equal the class count")
    lab, weights = labels.labels, labels.seed_weights
    if (lab.dtype.kind not in "iu" or lab.shape != (m,) or weights.shape != (m,)
            or not nm.all_finite(weights) or m and not 0 <= lab.min() <= lab.max() <= n_classes):
        raise ContractError(f"each of the {m} proposals needs an integer label in "
                            f"[0, {n_classes}] and a finite seed weight")
    labelled = (lab[:, None] == np.arange(n_classes)).any(axis=0)
    untagged = np.flatnonzero((tags == 0) & labelled)
    if untagged.size:
        raise ContractError(f"instance labelled with untagged class {untagged[0]}")
    missing = np.flatnonzero((tags == 1) & ~labelled)
    if missing.size and m >= np.count_nonzero(tags == 1):
        raise ContractError(f"tagged class {missing[0]} has no labelled instance")
    mask = np.zeros((m, n_classes + 1), dtype=np.float64)
    mask[np.arange(m), lab] = weights
    return nm.bce_plus_weighted_ce(scores.corr_ins, scores.cls_logits, scores.bg_logits, tags,
                                   mask, SCORE_EPS)


def pseudo_labels(corr_sem, z):
    scores = nm.matmul_nt(z, corr_sem)
    labels = np.argmax(scores.value, axis=1).astype(np.int64)
    return PseudoLabels(scores=scores, labels=labels)


def semantic_loss(z, pseudo, centers):
    centers = np.asarray(centers, dtype=np.float64)
    selected = centers[pseudo.labels]
    norms = np.linalg.norm(selected, axis=1)
    if np.any(norms <= nm.EPS_NORM):
        raise DegenerateInputError("semantic_loss: zero-norm center")
    return nm.cosine_center_loss(z, selected / norms[:, None])


def update_centers(centers, z, labels, rate):
    if not (0.0 <= rate <= 1.0):
        raise ParameterError(f"center rate must be in [0, 1], got {rate}")
    out = np.array(centers, dtype=np.float64, copy=True)
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    if out.ndim != 2 or z.shape != (labels.size, out.shape[1]):
        raise ShapeError("update_centers expects one embedding row per label")
    rows = out.tolist()
    for z_i, k in zip(z.tolist(), labels.tolist()):
        rows[k] = [c + rate * (v - c) for c, v in zip(rows[k], z_i)]
    return np.array(rows, dtype=np.float64).reshape(out.shape)


def normalize(adj):
    adj.reshape(-1)[:: adj.shape[0] + 1] += 1.0
    inv_sqrt_deg = 1.0 / np.sqrt(adj.sum(axis=1))
    return adj * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]


def build_semantic_graph(z, k):
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    adj = np.zeros((n, n))
    if n > 1:
        k_eff = min(k, n - 1)
        norms = np.sqrt(np.add.reduce(z * z, axis=1))
        safe = np.where(norms > nm.EPS_NORM, norms, 1.0)
        unit = z / safe[:, None]
        sim = unit @ unit.T
        sim.reshape(-1)[:: n + 1] = -np.inf
        nbrs = np.argsort(-sim, axis=1, kind="stable")[:, :k_eff]
        adj[np.arange(n)[:, None], nbrs] = 1.0
        adj = np.maximum(adj, adj.T)
    return normalize(adj)


def finite(value):
    """What ``Node.__init__`` stored for ``value``: ``numerics._finite``'s result."""
    if type(value) is np.float64:
        if math.isfinite(value):
            return np.asarray(value)
    else:
        if type(value) is not np.ndarray or value.dtype is not np.dtype(np.float64):
            value = np.asarray(value, dtype=np.float64)
        if math.isfinite(np.vdot(value, value)) or np.isfinite(value).all():
            return value
    raise NumericError("tensor contains NaN or Inf")


def backward(loss: Node) -> None:
    if loss.value.shape not in ((), (1,), (1, 1)):
        raise UsageError(f"backward root must be scalar, got shape {loss.value.shape}")
    loss.grad = np.ones_like(loss.value)
    if not loss.requires_grad:
        return
    reached, stack = {loss._order: loss}, [loss]
    while stack:
        for p in stack.pop().parents:
            if p.requires_grad and p._order not in reached:
                reached[p._order] = p
                stack.append(p)
                if p._backward is not None:
                    p.grad = None
    for key in sorted(reached, reverse=True):
        node = reached[key]
        if node._backward is not None:
            node._backward(node.grad)


def unit_rows(x, strict, opname):
    nm._matrix(x, opname, True)
    norms = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
    bad = norms[..., 0] <= EPS_NORM
    if not bad.any():
        return x / norms, norms, None
    if strict:
        raise DegenerateInputError(f"{opname}: zero-norm row")
    norms = np.where(norms <= EPS_NORM, 1.0, norms)
    unit = x / norms
    unit[bad] = 0.0
    return unit, norms, bad
