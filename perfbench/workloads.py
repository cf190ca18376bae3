"""The three benchmark workloads: inputs from a seed, one timed pass, gates.

Each workload drives weakdet's public calls in the order the matching CLI
command uses them. ``setup`` builds the inputs (writing files where the
command reads files); ``load`` returns the in-memory inputs a pass needs;
``run_pass`` does one unit of user-visible work and returns what it timed;
``gates`` checks the outputs of every pass of a run.

Operation counts follow the benchmark's definitions: a training bag-step
(``train_full``), a bag inferred (``eval_dense``), and a (seed, loss,
parameter) group of the gradient audit (``gradcheck_audit``).
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
from tracer import Patcher, Stamps
from weakdet import datamodel, evalmetrics, gradcheck, numerics, trainer
from weakdet.errors import WeakdetError

# CPU time of this process. The workloads are single-threaded and do no
# waiting of note, so on a host of its own it equals wall time; on a shared
# host that deschedules the process, wall time doubled while it held.
clock = time.process_time

# CPU seconds of reference_kernel() close to the fastest it ran on a shared
# 2-vCPU 2.1 GHz x86_64 host. Dividing by it scales a time to that speed;
# the times read as seconds there, and are in proportion elsewhere.
REFERENCE_S = 0.15


def reference_kernel() -> float:
    """CPU seconds for a fixed mix of interpreter work and small numpy
    calls, like the workloads' own; weakdet plays no part in it."""
    a = np.ones((20, 32))
    t0 = clock()
    for _ in range(50_000):
        b = a @ a.T
        float(b[0, 0]) + sum(range(20))
    return clock() - t0


def cpu_slowdown() -> float:
    """How much slower than on the reference host the CPU runs right now.

    Other tenants of a shared host slow the instructions themselves (a busy
    sibling hyperthread, shared caches), so CPU time per unit of work moved
    by half within minutes; dividing by this factor, measured next to the
    work, keeps that out of the metrics.
    """
    return reference_kernel() / REFERENCE_S


@dataclass
class PassResult:
    """What one pass did and how long its timed part took.

    Passes with the same ``group`` run the same inputs and so do the same
    work. ``elapsed_s`` is the time of the timed part and ``latencies_s``
    the time of each operation in it, both as :class:`Stopwatch` gives them.
    """

    group: str
    elapsed_s: float
    latencies_s: list[float]
    attempted: int  # operations attempted, for the failure count
    failed: int
    outputs: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0  # set when the pass ran in its own process


class Stopwatch:
    """Times consecutive blocks of a pass in reference-host seconds.

    The CPU slowdown is measured before the first block and after each
    one, and a block's CPU time is divided by the mean of the two
    measurements on its sides. The slowdown drifts within seconds, so a
    long pass is cut into a few blocks to keep the measurements near the
    work they correct.
    """

    def __init__(self):
        self._slowdown = cpu_slowdown()
        self.seconds = 0.0  # all blocks so far
        self.factor = 1.0  # the slowdown of the last block

    @contextmanager
    def block(self):
        t0 = clock()
        yield
        cpu_s = clock() - t0
        after = cpu_slowdown()
        self.factor = (self._slowdown + after) / 2.0
        self._slowdown = after
        self.seconds += cpu_s / self.factor


def param_digest(params: dict) -> str:
    """SHA-256 over parameter names, shapes and float64 bytes."""
    h = hashlib.sha256()
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        h.update(name.encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _all_equal(values) -> bool:
    return len(set(values)) <= 1


class TrainFull:
    """``weakdet train`` with method F on the default scenes, then scoring."""

    name = "train_full"

    def __init__(self, n_train=200, n_test=50, epochs=3):
        self.n_train, self.n_test, self.epochs = n_train, n_test, epochs
        self.cfg = trainer.TrainConfig(epochs=epochs, modules=trainer.SUB_METHODS["F"])

    def setup(self, seed, work):
        return self.load(seed, work)

    def load(self, seed, work):
        bags, gts = datamodel.generate_dataset(
            datamodel.SceneConfig(seed=seed), self.n_train + self.n_test
        )
        return {
            "train": (bags[: self.n_train], gts[: self.n_train]),
            "test": (bags[self.n_train :], gts[self.n_train :]),
            "n_classes": bags[0].n_classes,
            "ckpt": os.path.join(work, "train_full.ckpt"),
        }

    def run_pass(self, inp, index):
        train_bags, train_gts = inp["train"]
        test_bags, test_gts = inp["test"]
        k = inp["n_classes"]
        # A bag-step runs from forward_losses entry to sgd_step exit.
        stamps = Stamps(("trainer.forward_losses", "trainer.sgd_step"))
        watch = Stopwatch()
        stamps.install()
        try:
            with watch.block():
                state, history = trainer.train(train_bags, self.cfg)
        except WeakdetError as e:
            steps = len(stamps.times["trainer.sgd_step"])
            return PassResult("all", 0.0, [], steps + 1, 1, {"error": repr(e)})
        finally:
            stamps.uninstall()
        trainer.save_checkpoint(state, inp["ckpt"])
        test_dets = [d for bag in test_bags for d in trainer.infer(bag, state, self.cfg)]
        train_dets = [d for bag in train_bags for d in trainer.infer(bag, state, self.cfg)]
        map50 = evalmetrics.mean_ap(test_dets, test_gts, k, 0.5)
        corloc = evalmetrics.corloc(train_dets, train_gts, k)
        starts = [entry for entry, _ in stamps.times["trainer.forward_losses"]]
        ends = [exit_ for _, exit_ in stamps.times["trainer.sgd_step"]]
        steps = len(ends)
        return PassResult(
            group="all",
            elapsed_s=watch.seconds,
            latencies_s=[(b - a) / watch.factor for a, b in zip(starts, ends)],
            attempted=steps,
            failed=0,
            outputs={
                "param_sha256": param_digest(state.params),
                "train_map50": map50,
                "train_corloc": corloc,
                "detections": len(test_dets) + len(train_dets),
                "losses_finite": all(
                    math.isfinite(row[key]) for row in history for key in row
                ),
            },
        )

    def gates(self, inp, passes):
        outs = [p.outputs for p in passes]
        ok = [o for o in outs if "error" not in o]
        gates = {
            "every pass trained": len(ok) == len(outs),
            "param digest identical across passes": _all_equal(o["param_sha256"] for o in ok),
            "map50 and corloc identical across passes": _all_equal(
                (o["train_map50"], o["train_corloc"]) for o in ok
            ),
            "losses finite": all(o["losses_finite"] for o in ok),
            "metrics in [0, 1] and detections made": all(
                0.0 <= o["train_map50"] <= 1.0 and 0.0 <= o["train_corloc"] <= 1.0
                and o["detections"] > 0
                for o in ok
            ),
        }
        if not ok:
            return gates, {}
        loaded = trainer.load_checkpoint(inp["ckpt"])
        last = ok[-1]
        gates["checkpoint round-trip is bitwise"] = (
            param_digest(loaded.params) == last["param_sha256"]
        )
        return gates, {key: last[key] for key in ("param_sha256", "train_map50", "train_corloc")}


class EvalDense:
    """``weakdet eval`` on dense scenes: load, infer per bag, report."""

    name = "eval_dense"

    # About 60 proposals per bag instead of about 22.
    DENSE = dict(proposals_per_object=10, background_proposals=35)

    def __init__(self, n_train=100, n_test=1000):
        self.n_train, self.n_test = n_train, n_test
        self.cfg = trainer.TrainConfig()

    def _scenes(self, seed, n):
        return datamodel.generate_dataset(datamodel.SceneConfig(seed=seed, **self.DENSE), n)

    def setup(self, seed, work):
        bags, gts = self._scenes(seed, self.n_train + self.n_test)
        state, _ = trainer.train(bags[: self.n_train], replace(self.cfg, epochs=1))
        inp = self.load(seed, work)
        trainer.save_checkpoint(state, inp["ckpt"])
        datamodel.save_jsonl(inp["data"], bags[self.n_train :], gts[self.n_train :])
        return inp

    def load(self, seed, work):
        return {
            "seed": seed,
            "ckpt": os.path.join(work, "eval_dense.ckpt"),
            "data": os.path.join(work, "eval_dense_test.jsonl"),
        }

    def run_pass(self, inp, index):
        watch = Stopwatch()
        with watch.block():
            state = trainer.load_checkpoint(inp["ckpt"])
            bags, gts = datamodel.load_jsonl(inp["data"])
            if (bags[0].n_classes, bags[0].features.shape[1]) != (
                state.n_classes, state.feature_dim
            ):
                raise RuntimeError("checkpoint does not match the dataset")
        dets, failed, latencies = [], 0, []
        with watch.block():
            for bag in bags:
                t0 = clock()
                try:
                    dets.extend(trainer.infer(bag, state, self.cfg))
                except WeakdetError:
                    failed += 1
                latencies.append(clock() - t0)
        latencies = [x / watch.factor for x in latencies]
        with watch.block():
            report = evalmetrics.evaluation_report(dets, gts, state.n_classes, split="test")
            corloc = evalmetrics.corloc(dets, gts, state.n_classes)
        return PassResult(
            group="all",
            elapsed_s=watch.seconds,
            latencies_s=latencies,
            attempted=len(bags),
            failed=failed,
            outputs={
                "map50": report["map50"],
                "coco_map": report["coco_map"],
                "corloc": corloc,
                "detections": len(dets),
            },
        )

    def gates(self, inp, passes):
        outs = [p.outputs for p in passes]
        keys = ("map50", "coco_map", "corloc", "detections")
        last = outs[-1]
        gates = {
            "every bag inferred": all(p.failed == 0 for p in passes),
            "mAP, COCO mAP, CorLoc and detection count identical across passes": _all_equal(
                tuple(o[k] for k in keys) for o in outs
            ),
            "metrics in [0, 1] and detections made": all(
                0.0 <= last[k] <= 1.0 for k in keys[:3]
            ) and last["detections"] > 0,
        }
        # The JSONL and checkpoint round trip must not change what is
        # detected: compare against bags regenerated in memory.
        n_check = min(50, self.n_test)
        bags, _ = self._scenes(inp["seed"], self.n_train + n_check)
        state = trainer.load_checkpoint(inp["ckpt"])
        fresh = [trainer.infer(b, state, self.cfg) for b in bags[self.n_train :]]
        stored = _first_bags(inp["data"], n_check)
        gates["JSONL round-trip gives identical detections"] = fresh == [
            trainer.infer(b, state, self.cfg) for b in stored
        ]
        return gates, {k: last[k] for k in keys}


def _first_bags(path, n):
    """The first ``n`` bags of a JSONL file, parsed by ``load_jsonl``."""
    lines = []
    with open(path) as fh:
        for line in fh:
            lines.append(line)
            if len(lines) == n:
                break
    head = path + ".head"
    with open(head, "w") as fh:
        fh.writelines(lines)
    try:
        bags, _ = datamodel.load_jsonl(head)
    finally:
        os.remove(head)
    return bags


# Central differences with check_bag's step of 1e-4 only probe the analytic
# gradient where the loss is smooth within the step. About 2% of random
# bags put a GCN relu input within 2e-4 of zero, and on some of them the
# step crosses the kink: the audit fails although the backward is right
# (those bags pass at a step of 1e-5). No bag with a margin of 2e-4 or more
# failed, so bags closer to a kink than five times that are drawn again.
KINK_MARGIN = 1e-3


def relu_margin(bag, state, cfg) -> float:
    """The smallest |input| of any relu in the bag's forward pass."""
    original = numerics.relu
    smallest = [math.inf]

    def relu(a):
        out = original(a)
        smallest[0] = min(smallest[0], float(np.abs(out.parents[0].value).min()))
        return out

    patcher = Patcher()
    patcher.patch_everywhere(original, relu)
    try:
        trainer.forward_losses(bag, state, cfg)
    finally:
        patcher.uninstall()
    return smallest[0]


class GradcheckAudit:
    """``weakdet grad-check``: finite-difference audit, one bag per pass."""

    name = "gradcheck_audit"

    def __init__(self, n_bags=2, n_classes=4, feature_dim=12, widths=None):
        self.n_bags = n_bags
        self.n_classes, self.feature_dim = n_classes, feature_dim
        self.widths = widths or {}

    def setup(self, seed, work):
        return self.load(seed, work)

    def load(self, seed, work):
        """``n_bags`` random bags, each drawn again from its own stream until
        no relu input is within ``KINK_MARGIN`` of zero."""
        items, redrawn = [], 0
        for i in range(self.n_bags):
            rng = np.random.default_rng([seed, i])
            while True:
                bag = gradcheck.random_bag(rng, self.n_classes, self.feature_dim)
                cfg = replace(gradcheck.check_config(int(rng.integers(2**31))), **self.widths)
                state = trainer.init_state(cfg, self.n_classes, self.feature_dim)
                if relu_margin(bag, state, cfg) >= KINK_MARGIN:
                    break
                redrawn += 1
            items.append((bag, state, cfg))
        return {"items": items, "redrawn": redrawn}

    def run_pass(self, inp, index):
        i = index % len(inp["items"])
        bag, state, cfg = inp["items"][i]
        watch = Stopwatch()
        try:
            with watch.block():
                results = gradcheck.check_bag(bag, state, cfg)
        except WeakdetError as e:
            return PassResult(f"bag{i}", 0.0, [], 1, 1, {"error": repr(e)})
        return PassResult(
            group=f"bag{i}",
            elapsed_s=watch.seconds,
            latencies_s=[watch.seconds],
            attempted=len(results),
            failed=sum(not r.passed for r in results),
            outputs={
                "losses": sorted({r.loss_name for r in results}),
                "worst_rel_err": max(r.max_rel_err for r in results),
            },
        )

    def gates(self, inp, passes):
        outs = [p.outputs for p in passes]
        ok = [o for o in outs if "error" not in o]
        gates = {
            "every bag audited": len(ok) == len(outs),
            "all five losses checked": all(o["losses"] == sorted(gradcheck.LOSS_NAMES) for o in ok),
            "every group below tolerance": all(p.failed == 0 for p in passes),
        }
        worst = max((o["worst_rel_err"] for o in ok), default=float("nan"))
        return gates, {"worst_rel_err": worst, "bags_redrawn_near_kink": inp["redrawn"]}


WORKLOADS = {w.name: w for w in (TrainFull, EvalDense, GradcheckAudit)}

# Tiny sizes for the smoke test and quick checks; same code path.
TINY = {
    "train_full": dict(n_train=6, n_test=3, epochs=1),
    "eval_dense": dict(n_train=4, n_test=5),
    "gradcheck_audit": dict(
        n_bags=2, n_classes=2, feature_dim=3, widths=dict(hidden_dim=2, embed_dim=2)
    ),
}


def make(name: str, size: str = "full"):
    cls = WORKLOADS[name]
    return cls(**TINY[name]) if size == "tiny" else cls()
