"""Autodiff ops that no library code builds, kept for the engine tests.

They are kernels under the engine's own node wrapper ``_op``, as the
engine's ops are, and their finite-difference cases sit in ``FD_CASES``
beside them.
"""

from __future__ import annotations

import numpy as np

from weakdet.errors import DegenerateInputError, ShapeError
from weakdet.numerics import EPS_NORM, Node, _op


def exp(a) -> Node:
    def kernel(a):
        with np.errstate(over="ignore"):  # the finite check turns the inf into NumericError
            val = np.exp(a)
        return val, lambda g: (lambda: g * val,)
    return _op(kernel, a)


def cosine(u, v) -> Node:
    """Cosine similarity of two 1-D nodes, in [-1, 1]."""
    def kernel(u, v):
        if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
            raise ShapeError("cosine expects two 1-D nodes of equal length")
        nu = np.linalg.norm(u)
        nv = np.linalg.norm(v)
        if nu <= EPS_NORM or nv <= EPS_NORM:
            raise DegenerateInputError("cosine: near-zero norm operand")
        c = float(u @ v) / (nu * nv)
        return c, lambda g: (lambda: float(g) * (v / (nu * nv) - c * u / (nu * nu)),
                             lambda: float(g) * (u / (nu * nv) - c * v / (nv * nv)))
    return _op(kernel, u, v)


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
