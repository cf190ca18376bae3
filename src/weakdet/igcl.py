"""Graph contrastive learning across the two branches.

Two bag-local graphs feed two-layer GCN projectors: proposals connect when
their boxes overlap (spatial adjacency), embeddings connect to their
cosine nearest neighbours (semantic adjacency). Each builder returns the
normalized adjacency ``a_hat`` as a plain array. Four projectors, each a
``(w1, w2)`` pair of weight nodes, map raw features (``u``), induced
instance labels (``u_p``), semantic embeddings (``v``), and refined
category scores (``v_p``) to unit-row latent embeddings. The interactive
loss contrasts across branches (features vs. embeddings, labels vs.
scores); the non-interactive variant contrasts each branch only with itself
and exists for the ablation lattice.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import numerics as nm
from .datamodel import Box
from .errors import ParameterError
# iou is unused here; perfbench checks that its tracer rebinds this name too.
from .evalmetrics import iou, iou_matrix  # noqa: F401
from .numerics import Node


def _normalize(adj: np.ndarray) -> np.ndarray:
    """A_hat = D^{-1/2} (A + I) D^{-1/2} for a binary symmetric A with a zero
    diagonal: the caller's fresh array becomes A + I in place (its diagonal
    set to 1.0). A 0/1 entry times the outer product of the degree factors is
    (a_ij * d_i) * d_j, bit for bit."""
    adj.reshape(-1)[:: adj.shape[0] + 1] = 1.0
    inv_sqrt_deg = 1.0 / np.sqrt(np.add.reduce(adj, axis=1))
    return adj * np.multiply.outer(inv_sqrt_deg, inv_sqrt_deg)


def build_instance_graph(boxes: Sequence[Box], iou_threshold: float) -> np.ndarray:
    """Connect proposals whose boxes overlap with IoU above the threshold.

    All pairwise IoUs come from :func:`~weakdet.evalmetrics.iou_matrix`, so
    each entry equals the scalar IoU exactly. A box is no neighbour of its
    own: the self-loop replaces its entry.
    """
    return _normalize((iou_matrix(boxes, boxes) > iou_threshold).astype(np.float64))


def build_semantic_graph(z: np.ndarray, k: int) -> np.ndarray:
    """Union-kNN graph by cosine similarity over embedding rows.

    An edge exists when either endpoint ranks the other among its k nearest
    neighbours; k >= |B| - 1 yields the complete graph.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    adj = np.zeros((n, n))
    if n > 1:
        norms = np.sqrt(np.add.reduce(z * z, axis=1))  # np.linalg.norm's sum
        if not np.minimum.reduce(norms) > nm.EPS_NORM:  # a zero row stays zero
            norms = np.where(norms > nm.EPS_NORM, norms, 1.0)
        unit = z / norms[:, None]
        far = unit @ unit.T  # negated in place: the nearest sort first
        np.negative(far, out=far)
        far.reshape(-1)[:: n + 1] = np.inf  # and no row is its own neighbour
        # Stable sort keeps neighbour choice deterministic under ties.
        nbrs = far.argsort(axis=1, kind="stable")[:, : min(k, n - 1)]
        adj[np.arange(n)[:, None], nbrs] = 1.0
        adj = np.maximum(adj, adj.T)
    return _normalize(adj)


def gcn_forward(a_hat: np.ndarray, h: Node, w1: Node, w2: Node) -> Node:
    """Two-layer graph convolution A_hat relu(A_hat H W1) W2, then unit-
    normalized rows (zero rows stay zero); ``propagate`` checks the shapes."""
    hidden = nm.relu(nm.propagate(a_hat, h, w1))
    return nm.propagate_unit(a_hat, hidden, w2)


def one_hot_labels(labels: np.ndarray, n_classes_with_bg: int) -> np.ndarray:
    """One-hot rows over K+1 columns; background keeps its own column so no
    row is all-zero."""
    m = labels.size
    out = np.zeros((m, n_classes_with_bg))
    out[np.arange(m), labels] = 1.0
    return out


def info_nce(x_rows: Node, y_rows: Node, tau: float) -> Node:
    """Contrastive loss with matched rows as positives.

    -(1/n) sum_i log[ exp(tau x_i.y_i) / sum_j exp(tau x_i.y_j) ], computed
    through a max-shifted log-sum-exp as one :func:`~weakdet.numerics.info_nce`
    node. Zero when n = 1; ln(n) when every pair has the same similarity.
    """
    return nm.info_nce(x_rows, y_rows, tau)


def igcl_terms(u: Node, u_p: Node, v: Node, v_p: Node, tau: float) -> dict[str, Node]:
    """Interactive terms, by name: contrast across branches in both
    directions, features against embeddings (``loss_con_sd``) and induced
    labels against refined scores (``loss_con_ds``)."""
    return {
        "loss_con_sd": info_nce(u, v, tau),
        "loss_con_ds": info_nce(u_p, v_p, tau),
    }


def independent_gcl_terms(
    u: Node | None, u_p: Node | None, v: Node | None, v_p: Node | None, tau: float
) -> dict[str, Node]:
    """Non-interactive terms, by name: each branch contrasts only with
    itself (``loss_con_ins``, ``loss_con_sem``).

    A single-branch ablation passes ``None`` for the other branch's pair
    and keeps just one of the two terms.
    """
    terms = {}
    if u is not None:
        terms["loss_con_ins"] = info_nce(u, u_p, tau)
    if v is not None:
        terms["loss_con_sem"] = info_nce(v, v_p, tau)
    if not terms:
        raise ParameterError("independent_gcl_terms needs at least one side")
    return terms
