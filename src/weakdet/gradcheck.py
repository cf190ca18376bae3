"""Finite-difference validation of every loss gradient.

Central differences (step 1e-4 by default) against the analytic backward
pass, on small random bags. Discrete structure that the losses select from
data, i.e. induced labels, pseudo hard labels, and graph topology, stays
at the base point: the analytic gradient describes the loss with those
choices held fixed, so the finite differences must probe the same
piecewise-smooth function. One replay of the base forward's recorded ops
(:func:`~weakdet.numerics.replay`) plans every parameter group; a group's
perturbed copies run its plan as a stack, whose constant operands carry
the base point's selections, and no parameter is written. Every loss is a
named term of the training forward, :func:`~weakdet.trainer.forward_losses`,
built once per bag, so the audit checks the graph that training differentiates.

The relative error uses a floored denominator, max(|a|, |fd|, 0.01), so
near-zero entries are judged by an absolute tolerance of step * floor
instead of amplified rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .datamodel import Bag, Box
from .errors import ParameterError
from .trainer import BagForward, TrainConfig, TrainState, forward_losses, init_state

REL_FLOOR = 1e-2
# The defaults of the finite-difference step, the tolerance and the number of random bags.
DEFAULT_STEP, DEFAULT_TOLERANCE, DEFAULT_SEEDS = 1e-4, 1e-4, 10
STACK_CAP = 128  # perturbed copies per replay run: it bounds memory, not a bit of the result

# The losses audited under method F (M1, M2, M4), which `weakdet grad-check` runs.
LOSS_NAMES = ("loss_ins", "loss_sem", "loss_con_sd", "loss_con_ds", "composite")


@dataclass
class GradCheckResult:
    loss_name: str
    param_name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def check_config(seed: int = 0) -> TrainConfig:
    """Small projector widths keep the finite-difference sweeps fast."""
    return TrainConfig(hidden_dim=6, embed_dim=4, semantic_init="random", center_init="random",
                       seed=seed)


def random_bag(
    rng: np.random.Generator, n_classes: int, feature_dim: int, max_instances: int = 8
) -> Bag:
    """A generic bag: random boxes, Gaussian features, >= 1 positive tag."""
    m = int(rng.integers(3, max_instances + 1))
    boxes = []
    for _ in range(m):
        x1 = float(rng.uniform(0, 90))
        y1 = float(rng.uniform(0, 90))
        boxes.append(Box(x1, y1, x1 + float(rng.uniform(20, 38)), y1 + float(rng.uniform(20, 38))))
    n_pos = int(rng.integers(1, min(n_classes, m) + 1))
    tags = np.zeros(n_classes, dtype=np.int64)
    tags[rng.choice(n_classes, size=n_pos, replace=False)] = 1
    return Bag("gradcheck", (128.0, 128.0), boxes, rng.standard_normal((m, feature_dim)), tags)


def analytic_gradients(
    bag: Bag, state: TrainState, cfg: TrainConfig
) -> tuple[BagForward, dict[str, dict[str, np.ndarray]]]:
    """One forward, and the backward of each of its named terms and of the
    composite on that graph, by loss and by the parameter groups it reaches;
    each pass starts from cleared leaves, and none writes a node value."""
    fwd = forward_losses(bag, state, cfg)
    grads: dict[str, dict[str, np.ndarray]] = {}
    for loss_name, root in (*fwd.terms.items(), ("composite", fwd.loss)):
        for node in fwd.leaves.values():
            node.grad = None
        nm.backward(root)
        grads[loss_name] = {
            pname: node.grad for pname, node in fwd.leaves.items() if node.grad is not None
        }
    return fwd, grads


def check_bag(
    bag: Bag,
    state: TrainState,
    cfg: TrainConfig,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
    corrupt: bool = False,
) -> list[GradCheckResult]:
    """Compare analytic and central-difference gradients on one bag.

    One sweep perturbs each entry of every parameter group that some loss
    reaches, on the base forward that the analytic gradients differentiated.
    One :func:`~weakdet.numerics.replay` plans every group; a group's 2n
    copies, each entry moved by +-step (ParameterError if x + step == x or
    x - step == x), run its plan STACK_CAP at a time, and are differenced for
    the losses whose analytic pass reached the group.
    """
    for name, value in (("step", step), ("tolerance", tolerance)):
        if not 0.0 < value < np.inf:
            raise ParameterError(f"gradient check {name} must be finite and > 0, got {value}")
    base, analytic = analytic_gradients(bag, state, cfg)
    roots = [*base.terms.values(), base.loss]  # in the order of `analytic`
    pnames = sorted({p for g in analytic.values() for p in g})
    fd = {name: {} for name in analytic}
    for pname, plan in zip(pnames, nm.replay(roots, [state.params[p] for p in pnames])):
        target = state.params[pname]
        if (stuck := np.argwhere((target + step == target) | (target - step == target))).size:
            raise ParameterError(f"gradient check step {step} does not move entry "
                                 f"{tuple(stuck[0].tolist())} of {pname}")
        n, chunks = target.size, []
        for first in range(0, 2 * n, STACK_CAP):  # copy c < n moves entry c up, copy n + c down
            copies = np.arange(first, min(first + STACK_CAP, 2 * n))
            stack = np.empty((copies.size, n))
            stack[...] = target.reshape(-1)
            stack[np.arange(copies.size), copies % n] += np.where(copies < n, step, -step)
            chunks.append(plan.run(stack.reshape(copies.size, *target.shape)))
        for (loss_name, groups), values in zip(analytic.items(), zip(*chunks)):
            if pname in groups:  # the pairs the results read
                hi, lo = np.concatenate(values).reshape(2, *target.shape)
                fd[loss_name][pname] = (hi - lo) / (2.0 * step)

    results: list[GradCheckResult] = []
    for loss_name, groups in analytic.items():
        for pname in sorted(groups):
            grad = groups[pname].copy()
            if corrupt:
                flat = grad.reshape(-1)
                flat[0] += 0.1 * (np.abs(flat).max() + 1.0)
            num = fd[loss_name][pname]
            denom = np.maximum(np.maximum(np.abs(grad), np.abs(num)), REL_FLOOR)
            rel = float((np.abs(grad - num) / denom).max())
            results.append(GradCheckResult(loss_name, pname, rel, tolerance))
    return results


def run_checks(
    n_seeds: int = DEFAULT_SEEDS,
    cfg: TrainConfig | None = None,
    n_classes: int = 4,
    feature_dim: int = 12,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
    corrupt: bool = False,
) -> list[GradCheckResult]:
    """Run all loss checks over `n_seeds` random bags; one result per
    (seed, loss, parameter group)."""
    results = []
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)
        bag = random_bag(rng, n_classes, feature_dim)
        base = check_config(seed) if cfg is None else replace(cfg, seed=seed)
        state = init_state(base, n_classes, feature_dim)
        results.extend(
            check_bag(bag, state, base, step=step, tolerance=tolerance, corrupt=corrupt)
        )
    return results


def summarize(results: list[GradCheckResult]) -> dict[tuple[str, str], float]:
    """Worst relative error per (loss, parameter group) across seeds."""
    worst: dict[tuple[str, str], float] = {}
    for r in results:
        key = (r.loss_name, r.param_name)
        worst[key] = max(worst.get(key, 0.0), r.max_rel_err)
    return worst
