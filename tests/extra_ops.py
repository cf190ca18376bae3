"""Autodiff ops that no library code builds, kept for the engine tests.

They run on the engine's own ``Node``, ``as_node`` and ``_accumulate``, and
their finite-difference cases sit in ``FD_CASES`` beside them.
"""

from __future__ import annotations

import numpy as np

from weakdet.errors import DegenerateInputError, ShapeError
from weakdet.numerics import EPS_NORM, Node, _accumulate, as_node


def exp(a) -> Node:
    a = as_node(a)
    with np.errstate(over="ignore"):  # Node() turns the inf into NumericError
        out = Node(np.exp(a.value), (a,))
    val = out.value
    out._backward = lambda g: _accumulate(a, g * val)
    return out


def cosine(u, v) -> Node:
    """Cosine similarity of two 1-D nodes, in [-1, 1]."""
    u, v = as_node(u), as_node(v)
    if u.value.ndim != 1 or v.value.ndim != 1 or u.value.shape != v.value.shape:
        raise ShapeError("cosine expects two 1-D nodes of equal length")
    nu = np.linalg.norm(u.value)
    nv = np.linalg.norm(v.value)
    if nu <= EPS_NORM or nv <= EPS_NORM:
        raise DegenerateInputError("cosine: near-zero norm operand")
    c = float(u.value @ v.value) / (nu * nv)
    out = Node(c, (u, v))

    def bw(g):
        g = float(g)
        if u.requires_grad:
            _accumulate(u, g * (v.value / (nu * nv) - c * u.value / (nu * nu)))
        if v.requires_grad:
            _accumulate(v, g * (u.value / (nu * nv) - c * v.value / (nv * nv)))

    out._backward = bw
    return out


# Finite-difference cases, as in the engine tests: operand arrays from a
# generator, and the op applied to their leaves. Each case calls its op by
# its module-level name, so the audit can count the calls.
FD_CASES = {
    "exp": (lambda r: [r.standard_normal((3, 4))], lambda a: exp(a)),
    "cosine": (
        lambda r: [r.standard_normal(4) + 2.0, r.standard_normal(4)],
        lambda u, v: cosine(u, v),
    ),
}
