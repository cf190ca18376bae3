"""Semantic-wise prediction branch.

Features project into a K-dimensional semantic space (one coordinate per
category), a per-bag correlation matrix over those coordinates captures
which categories fire together, and multiplying it back onto each embedding
yields context-refined category scores whose argmax is the instance's
pseudo-label. A cosine center loss pulls embeddings toward per-category
centers, which in turn track their assigned embeddings by an exponential
moving average kept outside the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import DegenerateInputError, ParameterError, ShapeError
from .numerics import Node

VAR_EPS = 1e-12


@dataclass
class SemanticProjector:
    """Learnable map from feature space (D) to semantic space (d = K)."""

    w_sem: Node  # K x D

    def __post_init__(self):
        if self.w_sem.value.ndim != 2:
            raise ShapeError("w_sem must be 2-D (K x D)")

    @property
    def n_classes(self) -> int:
        return self.w_sem.value.shape[0]


@dataclass
class PseudoLabels:
    """Context-refined category scores and their hard argmax labels."""

    scores: Node  # |B| x K
    labels: np.ndarray  # |B|, values in 0..K-1


def project(features: Node, proj: SemanticProjector) -> Node:
    """Semantic embeddings Z = features @ w_sem^T, one row per instance."""
    return nm.matmul(features, nm.transpose(proj.w_sem))


def semantic_covariance(a, b) -> float:
    """Population covariance of two equal-length sample vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ShapeError("semantic_covariance expects two equal-length vectors")
    if a.size < 2:
        raise DegenerateInputError("covariance needs at least two samples")
    return float(np.mean((a - a.mean()) * (b - b.mean())))


def correlation_matrix(z: Node) -> Node:
    """Pearson correlation across semantic dimensions, instances as samples.

    Differentiable; exactly symmetric by construction (the result is
    averaged with its transpose). A dimension with (near-)zero variance
    contributes an identity row and column instead of NaN.
    """
    if z.value.ndim != 2:
        raise ShapeError("correlation_matrix expects |B| x d embeddings")
    m, d = z.value.shape
    if m < 2:
        raise DegenerateInputError("correlation needs at least two instances")

    centered = nm.center_cols(z)
    cov = nm.scale(nm.matmul(nm.transpose(centered), centered), 1.0 / m)
    var = nm.diag_part(cov)

    ok = var.value > VAR_EPS
    if ok.all():
        denom = nm.outer(nm.sqrt(var), nm.sqrt(var))
        corr = nm.div(cov, denom)
    else:
        # Degenerate dimensions: divide by 1 there, zero the row/col, then
        # put the identity entry back. The masks are data-dependent
        # constants, like a ReLU's.
        okf = ok.astype(np.float64)
        var_safe = nm.add(nm.mul(var, okf), 1.0 - okf)
        denom = nm.outer(nm.sqrt(var_safe), nm.sqrt(var_safe))
        both_ok = np.outer(okf, okf)
        corr = nm.mul(nm.div(cov, denom), both_ok)
        corr = nm.add(corr, np.diag(1.0 - okf))
    return nm.scale(nm.add(corr, nm.transpose(corr)), 0.5)


def pseudo_labels(corr_sem: Node, z: Node) -> PseudoLabels:
    """Refined scores corr_sem @ z_i per instance; hard label is the argmax.

    Ties go to the lowest class index (numpy argmax convention).
    """
    scores = nm.matmul(z, nm.transpose(corr_sem))
    labels = np.argmax(scores.value, axis=1).astype(np.int64)
    return PseudoLabels(scores=scores, labels=labels)


def semantic_loss(z: Node, pseudo: PseudoLabels, centers: np.ndarray) -> Node:
    """Mean cosine misalignment between embeddings and their class centers.

    Centers are constants here; their updates happen in
    :func:`update_centers`, outside the gradient graph. Always in [0, 2].
    """
    centers = np.asarray(centers, dtype=np.float64)
    selected = centers[pseudo.labels]
    norms = np.linalg.norm(selected, axis=1)
    if np.any(norms <= nm.EPS_NORM):
        raise DegenerateInputError("semantic_loss: zero-norm center")
    z_unit = nm.normalize_rows(z, strict=True)
    cos = nm.sum_rows(nm.mul(z_unit, selected / norms[:, None]))
    return nm.sub(1.0, nm.mean(cos))


def update_centers(
    centers: np.ndarray, z: np.ndarray, labels: np.ndarray, rate: float
) -> np.ndarray:
    """Move each assigned center toward its instance embeddings, in bag order.

    c <- c + rate * (z_i - c), one instance at a time; centers that receive
    no instance are untouched. Returns a new array.
    """
    if not (0.0 <= rate <= 1.0):
        raise ParameterError(f"center rate must be in [0, 1], got {rate}")
    out = np.array(centers, dtype=np.float64, copy=True)
    z = np.asarray(z, dtype=np.float64)
    for i, k in enumerate(labels):
        out[k] = out[k] + rate * (z[i] - out[k])
    return out
