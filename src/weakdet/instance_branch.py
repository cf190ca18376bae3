"""Instance-wise detection branch.

Per-instance class probabilities come from the product of two softmaxes
over the same features (one across classes per instance, one across
instances per class), so every class column of ``corr_ins`` sums to at most
one and the summed image scores stay in [0, 1]. The per-class image score
is that column sum (WSDDN sum pooling, arXiv 1511.02853); the smooth
log-sum-exp pool :func:`aggregate_lse` is not part of training, so the
``lse_sharpness`` config key currently has no effect. Thresholding against
each positive class's top score induces approximate instance labels; the
branch loss combines per-class binary cross-entropy on image scores with a
weighted (K+1)-way cross-entropy on per-instance distributions that include
an explicit background column, as one fused node.
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


@dataclass
class InstanceScores:
    """Forward outputs of the branch for one bag (graph nodes)."""

    corr_ins: Node  # |B| x K, entries in [0, 1]
    s_logits: Node  # |B| x (K+1), logits of the distribution; column K is background
    image_scores: Node  # K, per-class sums of corr_ins


@dataclass
class ApproxLabels:
    """Instance labels induced from corr_ins under the image tags.

    ``labels[i]`` is a class index in 0..K-1 or K for background;
    ``seed_weights[i]`` is the confidence carried into the weighted CE.
    """

    labels: np.ndarray
    seed_weights: np.ndarray


def instance_probs(features: Node, head: DetectionHead) -> InstanceScores:
    """Dual-softmax instance probabilities plus the (K+1)-way logits."""
    if features.value.shape[0] == 0:
        raise EmptyBagError("instance_probs on an empty bag")
    cls_logits = nm.matmul(features, head.w_cls)
    det_logits = nm.matmul(features, head.w_det)
    corr = nm.dual_softmax(cls_logits, det_logits)
    s_logits = nm.hconcat(cls_logits, nm.matmul(features, head.w_bg))
    return InstanceScores(corr_ins=corr, s_logits=s_logits, image_scores=nm.sum_cols(corr))


def aggregate_lse(corr_ins: Node, r: float) -> Node:
    """Smooth per-class maximum of the instance scores; an alternative image
    view that training does not use."""
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
    positives = np.flatnonzero(tags == 1)
    if positives.size == 0:
        raise ContractError("approx_labels needs at least one positive tag")

    m, n_classes = corr_ins.shape
    background = n_classes
    scores = corr_ins[:, positives]
    claimed = scores >= gamma * corr_ins.max(axis=0)[positives]
    # First maximum over each row's claims: ties go to the lowest class.
    best = np.argmax(np.where(claimed, scores, -np.inf), axis=1)
    labels = np.where(claimed.any(axis=1), positives[best], background)

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

    is_bg = labels == background
    fg_score = corr_ins[np.arange(m), np.where(is_bg, 0, labels)]
    weights = np.where(is_bg, 1.0 - corr_ins.max(axis=1), fg_score)
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
    labelled = (labels.labels[:, None] == np.arange(n_classes)).any(axis=0)
    untagged = np.flatnonzero((tags == 0) & labelled)
    if untagged.size:
        raise ContractError(f"instance labelled with untagged class {untagged[0]}")
    missing = np.flatnonzero((tags == 1) & ~labelled)
    if missing.size:
        raise ContractError(f"tagged class {missing[0]} has no labelled instance")

    m = labels.labels.size
    mask = np.zeros((m, n_classes + 1), dtype=np.float64)
    mask[np.arange(m), labels.labels] = labels.seed_weights
    return nm.bce_plus_weighted_ce(scores.image_scores, scores.s_logits, tags, mask, SCORE_EPS)
