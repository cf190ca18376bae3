"""Instance-wise detection branch.

Per-instance class probabilities come from the product of two softmaxes
over the same features (one across classes per instance, one across
instances per class), so every class column of ``corr_ins`` sums to at most
one and the summed image scores stay in [0, 1]. A smooth log-sum-exp pool
gives the per-class image view; thresholding against each positive class's
top score induces approximate instance labels; the branch loss combines
per-class binary cross-entropy on image scores with a weighted (K+1)-way
cross-entropy on per-instance distributions that include an explicit
background column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError, EmptyBagError, ParameterError
from .numerics import Node

SCORE_EPS = 1e-7


@dataclass
class DetectionHead:
    """Learnable linear heads over pooled features.

    ``w_cls`` scores classes per instance, ``w_det`` scores instances per
    class, and ``w_bg`` is the scalar background head appended to the class
    logits for the (K+1)-way per-instance distribution.
    """

    w_cls: Node  # D x K
    w_det: Node  # D x K
    w_bg: Node  # D x 1

    @property
    def n_classes(self) -> int:
        return self.w_cls.value.shape[1]


@dataclass
class InstanceScores:
    """Forward outputs of the branch for one bag (graph nodes)."""

    corr_ins: Node  # |B| x K, entries in [0, 1]
    s: Node  # |B| x (K+1), rows sum to 1; column K is background
    s_logits: Node  # |B| x (K+1), pre-softmax (kept for the stable CE)
    image_scores: Node  # K, per-class sums of corr_ins


@dataclass
class ApproxLabels:
    """Instance labels induced from corr_ins under the image tags.

    ``labels[i]`` is a class index in 0..K-1 or K for background;
    ``seed_weights[i]`` is the confidence carried into the weighted CE.
    """

    labels: np.ndarray
    seed_weights: np.ndarray


def baseline_scores(features: Node, head: DetectionHead) -> Node:
    """Visual-only detector: per-class softmax over instances of f @ w_det."""
    if features.value.shape[0] == 0:
        raise EmptyBagError("baseline_scores on an empty bag")
    return nm.softmax_cols(nm.matmul(features, head.w_det))


def instance_probs(features: Node, head: DetectionHead) -> InstanceScores:
    """Dual-softmax instance probabilities plus the (K+1)-way distribution."""
    if features.value.shape[0] == 0:
        raise EmptyBagError("instance_probs on an empty bag")
    cls_logits = nm.matmul(features, head.w_cls)
    det_logits = nm.matmul(features, head.w_det)
    corr = nm.mul(nm.softmax_rows(cls_logits), nm.softmax_cols(det_logits))
    s_logits = nm.hconcat(cls_logits, nm.matmul(features, head.w_bg))
    return InstanceScores(
        corr_ins=corr,
        s=nm.softmax_rows(s_logits),
        s_logits=s_logits,
        image_scores=nm.sum_cols(corr),
    )


def aggregate_lse(corr_ins: Node, r: float) -> Node:
    """Smooth per-class maximum of the instance scores (image-level view)."""
    return nm.lse_columns(corr_ins, r)


def approx_labels(corr_ins: np.ndarray, tags: np.ndarray, gamma: float = 0.9) -> ApproxLabels:
    """Induce per-instance labels from scores and image-level tags.

    For each tagged class k, instances scoring at least ``gamma`` times the
    class's top score are claimed by k; an instance claimed by several
    classes goes to the one where it scores highest (ties to the lowest
    index). Everything unclaimed is background. A repair pass then ensures
    every tagged class keeps at least one instance, which is always
    possible when the bag has at least as many instances as tagged classes.
    """
    corr_ins = np.asarray(corr_ins, dtype=np.float64)
    tags = np.asarray(tags)
    if not (0.0 < gamma <= 1.0):
        raise ParameterError(f"gamma must be in (0, 1], got {gamma}")
    positives = [k for k in range(tags.size) if tags[k] == 1]
    if not positives:
        raise ContractError("approx_labels needs at least one positive tag")

    m, n_classes = corr_ins.shape
    background = n_classes
    labels = np.full(m, background, dtype=np.int64)
    col_max = corr_ins.max(axis=0)
    for i in range(m):
        claims = [k for k in positives if corr_ins[i, k] >= gamma * col_max[k]]
        if claims:
            scores = [corr_ins[i, k] for k in claims]
            labels[i] = claims[int(np.argmax(scores))]

    # Repair: a class whose every claimed instance was taken by a stronger
    # class gets its own top instance back, preferring instances that are
    # background or whose current class keeps another one.
    for k in positives:
        if np.any(labels == k):
            continue
        order = np.argsort(-corr_ins[:, k], kind="stable")
        chosen = None
        for i in order:
            cur = labels[i]
            if cur == background or np.sum(labels == cur) > 1:
                chosen = i
                break
        labels[int(order[0] if chosen is None else chosen)] = k

    weights = np.empty(m, dtype=np.float64)
    for i in range(m):
        if labels[i] == background:
            weights[i] = 1.0 - corr_ins[i].max()
        else:
            weights[i] = corr_ins[i, labels[i]]
    return ApproxLabels(labels=labels, seed_weights=np.clip(weights, 0.0, 1.0))


def instance_loss(scores: InstanceScores, labels: ApproxLabels, tags: np.ndarray) -> Node:
    """Branch loss: image-level BCE plus weighted per-instance cross-entropy.

    The image term clamps scores to [eps, 1-eps] before the logs; the
    instance term selects each row's labelled log-probability through a
    constant one-hot weight mask, so labels and seed weights stay outside
    the gradient.
    """
    tags = np.asarray(tags, dtype=np.float64)
    n_classes = scores.corr_ins.value.shape[1]
    if tags.size != n_classes:
        raise ContractError("tags length must equal the class count")
    for k in range(n_classes):
        if tags[k] == 0 and np.any(labels.labels == k):
            raise ContractError(f"instance labelled with untagged class {k}")
    for k in range(n_classes):
        if tags[k] == 1 and not np.any(labels.labels == k):
            raise ContractError(f"tagged class {k} has no labelled instance")

    clamped = nm.clip(scores.image_scores, SCORE_EPS, 1.0 - SCORE_EPS)
    pos = nm.mul(nm.log(clamped), tags)
    negv = nm.mul(nm.log(nm.sub(np.ones_like(tags), clamped)), 1.0 - tags)
    image_term = nm.neg(nm.total(nm.add(pos, negv)))

    m = labels.labels.size
    mask = np.zeros((m, n_classes + 1), dtype=np.float64)
    mask[np.arange(m), labels.labels] = labels.seed_weights
    log_s = nm.log_softmax_rows(scores.s_logits)
    instance_term = nm.neg(nm.total(nm.mul(log_s, mask)))
    return nm.add(image_term, instance_term)
