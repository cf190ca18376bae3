"""Tour of the reverse-mode engine underneath every loss.

Builds small graphs out of the op functions, runs backward, and checks a
gradient against central finite differences by hand.
"""

import numpy as np

from weakdet import numerics as nm
from weakdet.numerics import Node

print("=" * 60)
print("1. values and graphs")
print("=" * 60)

a = Node([[1.0, 2.0], [3.0, 4.0]])
b = Node([[1.0], [1.0]])
prod = nm.matmul(a, b)
print("matmul [[1,2],[3,4]] @ [[1],[1]] ->", prod.value.ravel())

row = Node([[0.0, np.log(3.0)]])
print("softmax of [0, ln 3]        ->", nm.softmax_rows(row).value.ravel())

s = Node([0.0, 1.0])
for r in (1.0, 4.0, 100.0):
    print(f"smooth max of [0, 1], r={r:<5} ->", float(nm.smooth_max_lse(s, r).value))
print("(slides from the mean toward the hard max as r grows)")

print()
print("=" * 60)
print("2. backward pass")
print("=" * 60)

w = Node(np.array([[1.5, -2.0, 0.25]]))
loss = nm.scale(nm.matmul_nt(w, w), 0.5)  # 0.5 * w @ w.T = 0.5 * ||w||^2
nm.backward(loss)
print("d(0.5 ||w||^2)/dw =", w.grad.ravel(), " (equals w itself)")

print()
print("=" * 60)
print("3. finite-difference spot check")
print("=" * 60)

rng = np.random.default_rng(0)
x_data = rng.standard_normal((3, 4))


def forward(data):
    x = Node(data)
    # smooth maximum of the column sums of a row-wise softmax
    return nm.smooth_max_lse(nm.sum_cols(nm.softmax_rows(x)), 2.0), x


loss, x = forward(x_data)
nm.backward(loss)

step = 1e-4
idx = (1, 2)
bumped = x_data.copy()
bumped[idx] += step
hi = float(forward(bumped)[0].value)
bumped[idx] -= 2 * step
lo = float(forward(bumped)[0].value)
fd = (hi - lo) / (2 * step)
print(f"analytic grad at {idx}: {x.grad[idx]:+.10f}")
print(f"finite difference  : {fd:+.10f}")
print(f"difference         : {abs(x.grad[idx] - fd):.2e}")
