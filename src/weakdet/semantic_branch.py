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


@dataclass
class PseudoLabels:
    """Context-refined category scores and their hard argmax labels."""

    scores: Node  # |B| x K
    labels: np.ndarray  # |B|, values in 0..K-1


def project(features: Node, proj: SemanticProjector) -> Node:
    """Semantic embeddings Z = features @ w_sem^T, one row per instance."""
    return nm.matmul_nt(features, proj.w_sem)


def correlation_matrix(z: Node) -> Node:
    """Pearson correlation across semantic dimensions, instances as samples.

    Differentiable, as one :func:`~weakdet.numerics.pearson_cols` node;
    exactly symmetric by construction (the result is averaged with its
    transpose). A dimension with (near-)zero variance contributes an
    identity row and column instead of NaN.
    """
    if z.value.ndim != 2:
        raise ShapeError("correlation_matrix expects |B| x d embeddings")
    if z.value.shape[0] < 2:
        raise DegenerateInputError("correlation needs at least two instances")
    return nm.pearson_cols(z, VAR_EPS)


def pseudo_labels(corr_sem: Node, z: Node) -> PseudoLabels:
    """Refined scores corr_sem @ z_i per instance; hard label is the argmax.

    Ties go to the lowest class index (numpy argmax convention).
    """
    scores = nm.matmul_nt(z, corr_sem)
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
    return nm.cosine_center_loss(z, selected / norms[:, None])


def update_centers(
    centers: np.ndarray, z: np.ndarray, labels: np.ndarray, rate: float
) -> np.ndarray:
    """Move each assigned center toward its instance embeddings, in bag order.

    c <- c + rate * (z_i - c), one instance at a time; centers that receive
    no instance are untouched. Returns a new array. The rows are updated as
    Python floats, which round exactly as float64 arrays do, with the same
    operations in the same order.
    """
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
