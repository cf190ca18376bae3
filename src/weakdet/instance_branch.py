"""Instance-wise detection branch.

Per-instance class probabilities come from the product of two softmaxes
over the same features, one across classes per instance (logits from the
D x K head ``w_cls``) and one across instances per class (from ``w_det``),
so every class column of ``corr_ins`` sums to at most one and the summed
image scores stay in [0, 1]. The per-class image score is that column sum
(WSDDN sum pooling, arXiv 1511.02853), where the paper takes a smooth
maximum. Thresholding against each positive class's top score induces
approximate instance labels; the branch loss combines per-class binary
cross-entropy on image scores with a weighted (K+1)-way cross-entropy on
per-instance distributions that include an explicit background column. It
is one fused node over ``corr_ins`` and the class and background logits,
which pools the image scores and joins the logits itself. The heads are
passed in as graph nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError, EmptyBagError, ParameterError
from .numerics import Node

SCORE_EPS = 1e-7


@dataclass
class InstanceScores:
    """Forward outputs of the branch for one bag (graph nodes)."""

    corr_ins: Node  # |B| x K, entries in [0, 1]; the image scores are its column sums
    cls_logits: Node  # |B| x K, the class logits of the (K+1)-way distribution
    bg_logits: Node  # |B| x 1, its background logit (column K)


@dataclass
class ApproxLabels:
    """Instance labels induced from corr_ins under the image tags.

    ``labels[i]`` is a class index in 0..K-1 or K for background;
    ``seed_weights[i]`` is the confidence carried into the weighted CE.
    """

    labels: np.ndarray
    seed_weights: np.ndarray


def dual_scores(features: Node, w_cls: Node, w_det: Node) -> tuple[Node, Node]:
    """Class logits ``features @ w_cls`` and the dual-softmax ``corr_ins``, which infer scores."""
    if features.value.shape[0] == 0:
        raise EmptyBagError("instance_probs on an empty bag")
    cls_logits = nm.matmul(features, w_cls)
    return cls_logits, nm.dual_softmax(cls_logits, nm.matmul(features, w_det))


def instance_probs(features: Node, w_cls: Node, w_det: Node, w_bg: Node) -> InstanceScores:
    """:func:`dual_scores` plus the loss-only background logits from the
    head ``w_bg`` (D x 1)."""
    cls_logits, corr = dual_scores(features, w_cls, w_det)
    return InstanceScores(corr_ins=corr, cls_logits=cls_logits,
                          bg_logits=nm.matmul(features, w_bg))


def approx_labels(corr_ins: np.ndarray, tags: np.ndarray, gamma: float) -> ApproxLabels:
    """Induce per-instance labels from scores and image-level tags.

    For each tagged class k, instances scoring at least ``gamma`` times the
    class's top score are claimed by k; an instance claimed by several
    classes goes to the one where it scores highest (ties to the lowest
    index). Everything unclaimed is background. A repair pass runs only when
    a tagged class has lost every claim: it gives that class an instance,
    which is always possible when the bag has at least as many instances as
    tagged classes; in a bag with fewer, the classes left when no instance
    can be spared stay unlabelled. A bag with no positive tag is a negative
    image: every instance is background, weighted 1 minus its top score. A
    score of -inf claims nothing.
    """
    corr_ins = np.asarray(corr_ins, dtype=np.float64)
    tags = np.asarray(tags)
    if not (0.0 < gamma <= 1.0):
        raise ParameterError(f"gamma must be in (0, 1], got {gamma}")
    positives = (tags == 1).ravel().nonzero()[0]  # np.flatnonzero
    m, n_classes = corr_ins.shape
    background = n_classes
    weights = 1.0 - np.maximum.reduce(corr_ins, axis=1)  # a background instance's
    if positives.size == 0:
        return ApproxLabels(labels=np.full(m, background), seed_weights=weights.clip(0.0, 1.0))
    scores = corr_ins[:, positives]
    claimed = np.where(scores >= gamma * np.maximum.reduce(scores, axis=0), scores, -np.inf)
    # First maximum over each row's claims: ties go to the lowest class. Its
    # value is the claiming class's score, a foreground instance's weight.
    best, top = claimed.argmax(axis=1), np.maximum.reduce(claimed, axis=1)
    is_fg = top > -np.inf
    labels = np.where(is_fg, positives[best], background)
    # Repair: a class whose every claimed instance was taken by a stronger
    # class gets its own top instance back, among instances that are
    # background or whose current class keeps another one. No class loses
    # its last instance, so the classes to repair are known from the claims.
    counts = np.bincount(labels, minlength=n_classes + 1)
    for k in positives[counts[positives] == 0]:
        for i in np.argsort(-corr_ins[:, k], kind="stable"):
            cur = labels[i]
            if cur == background or counts[cur] > 1:
                labels[i], top[i], is_fg[i] = k, corr_ins[i, k], True
                counts[cur] -= 1
                counts[k] += 1
                break
    return ApproxLabels(labels=labels, seed_weights=np.where(is_fg, top, weights).clip(0.0, 1.0))


def instance_loss(scores: InstanceScores, labels: ApproxLabels, tags: np.ndarray) -> Node:
    """Branch loss: image-level BCE plus weighted per-instance cross-entropy.

    The image term clamps scores to [eps, 1-eps] before the logs; the
    instance term selects each row's labelled log-probability through a
    constant one-hot weight mask, so labels and seed weights stay outside
    the gradient. Each proposal needs an integer label in [0, K] and a
    finite seed weight. Every tagged class needs a labelled instance, unless
    the bag has fewer instances than tagged classes.
    """
    tags = np.asarray(tags, dtype=np.float64)
    m, n_classes = scores.corr_ins.value.shape
    if tags.size != n_classes:
        raise ContractError("tags length must equal the class count")
    lab, weights = labels.labels, labels.seed_weights
    if (lab.dtype.kind not in "iu" or lab.shape != (m,) or weights.shape != (m,)
            or not nm.all_finite(weights)
            or m and not 0 <= np.minimum.reduce(lab) <= np.maximum.reduce(lab) <= n_classes):
        raise ContractError(f"each of the {m} proposals needs an integer label in "
                            f"[0, {n_classes}] and a finite seed weight")
    labelled = np.bincount(lab.astype(np.intp, copy=False), minlength=n_classes + 1)[:n_classes] > 0
    if labelled.tolist() != (tags == 1).tolist():  # else no class can break the rules below
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
