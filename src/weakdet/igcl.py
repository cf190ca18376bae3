"""Graph contrastive learning across the two branches.

Two bag-local graphs feed two-layer GCN projectors: proposals connect when
their boxes overlap (spatial adjacency), embeddings connect to their
cosine nearest neighbours (semantic adjacency). Four projectors map raw
features, induced instance labels, semantic embeddings, and refined
category scores to unit-row latent embeddings. The interactive loss
contrasts across branches (features vs. embeddings, labels vs. scores); the
non-interactive variant contrasts each branch only with itself and exists
for the ablation lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .datamodel import Box
from .errors import ParameterError, ShapeError
# iou is unused here; perfbench checks that its tracer rebinds this name too.
from .evalmetrics import iou, iou_matrix  # noqa: F401
from .numerics import Node


@dataclass
class GraphAdjacency:
    """Symmetrically normalized adjacency with self-loops:
    A_hat = D^{-1/2} (A + I) D^{-1/2} for a binary symmetric A."""

    a_hat: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_hat, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError("adjacency must be square")
        self.a_hat = a

    @property
    def size(self) -> int:
        return self.a_hat.shape[0]


def _normalize(adj: np.ndarray) -> GraphAdjacency:
    a = adj + np.eye(adj.shape[0])
    inv_sqrt_deg = 1.0 / np.sqrt(a.sum(axis=1))
    return GraphAdjacency(a * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :])


def build_instance_graph(boxes: list[Box], iou_threshold: float = 0.3) -> GraphAdjacency:
    """Connect proposals whose boxes overlap with IoU above the threshold.

    All pairwise IoUs come from :func:`~weakdet.evalmetrics.iou_matrix`, so
    each entry equals the scalar IoU exactly.
    """
    overlap = iou_matrix(boxes, boxes)
    adj = (overlap > iou_threshold).astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    return _normalize(adj)


def build_semantic_graph(z: np.ndarray, k: int = 5) -> GraphAdjacency:
    """Union-kNN graph by cosine similarity over embedding rows.

    An edge exists when either endpoint ranks the other among its k nearest
    neighbours; k >= |B| - 1 yields the complete graph.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    adj = np.zeros((n, n))
    if n > 1:
        k_eff = min(k, n - 1)
        norms = np.linalg.norm(z, axis=1)
        safe = np.where(norms > nm.EPS_NORM, norms, 1.0)
        unit = z / safe[:, None]
        sim = unit @ unit.T
        np.fill_diagonal(sim, -np.inf)
        # Stable sort keeps neighbour choice deterministic under ties.
        nbrs = np.argsort(-sim, axis=1, kind="stable")[:, :k_eff]
        np.put_along_axis(adj, nbrs, 1.0, axis=1)
        adj = np.maximum(adj, adj.T)
    return _normalize(adj)


@dataclass
class GcnProjector:
    """Two-layer graph convolution: A_hat relu(A_hat H W1) W2."""

    w1: Node
    w2: Node


def gcn_forward(graph: GraphAdjacency, h: Node, proj: GcnProjector) -> Node:
    """Propagate twice, then unit-normalize rows (zero rows stay zero)."""
    if h.value.shape[0] != graph.size:
        raise ShapeError("node features do not match graph size")
    hidden = nm.relu(nm.propagate(graph.a_hat, h, proj.w1))
    return nm.propagate_unit(graph.a_hat, hidden, proj.w2)


@dataclass
class Embeddings:
    """Latent unit-row embeddings of the four branch outputs."""

    u: Node  # from raw features, instance graph
    u_prime: Node  # from induced instance labels (one-hot), instance graph
    v: Node  # from semantic embeddings, semantic graph
    v_prime: Node  # from refined category scores, semantic graph


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


def igcl_terms(emb: Embeddings, tau: float) -> dict[str, Node]:
    """Interactive terms, by name: contrast across branches in both
    directions, features against embeddings (``loss_con_sd``) and induced
    labels against refined scores (``loss_con_ds``)."""
    return {
        "loss_con_sd": info_nce(emb.u, emb.v, tau),
        "loss_con_ds": info_nce(emb.u_prime, emb.v_prime, tau),
    }


def independent_gcl_terms(
    emb: Embeddings, tau: float, instance_side: bool = True, semantic_side: bool = True
) -> dict[str, Node]:
    """Non-interactive terms, by name: each branch contrasts only with
    itself (``loss_con_ins``, ``loss_con_sem``).

    Single-branch ablations keep just one of the two terms.
    """
    if not (instance_side or semantic_side):
        raise ParameterError("independent_gcl_terms needs at least one side")
    terms = {}
    if instance_side:
        terms["loss_con_ins"] = info_nce(emb.u, emb.u_prime, tau)
    if semantic_side:
        terms["loss_con_sem"] = info_nce(emb.v, emb.v_prime, tau)
    return terms
