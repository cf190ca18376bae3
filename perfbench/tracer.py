"""Observe weakdet from outside the library: spans and timestamps.

:class:`Stamps` records the entry and exit CPU times of a few layer
functions for the untraced passes' latencies. :class:`Tracer` is the
traced run's instrument.

The tracer replaces public functions of the weakdet modules with wrappers
that record one span per call: name, start, end, parent span and run id.
Spans live in flat arrays while the benchmark runs and are written once at
the end. Every binding of a wrapped function is patched, including names
imported into other modules (``iou`` in ``igcl``, ``trainer`` and
``evalmetrics``; ``filter_proposals`` in ``trainer``; ``forward_losses`` in
``gradcheck``), and :meth:`Tracer.uninstall` puts every original object back.

Three kinds of wrapper exist:

* a span wrapper for layer functions, optionally with an observer that
  records counts (distinct inputs, kept boxes, bytes read);
* an op wrapper for ``numerics`` ops, which also wraps the returned node's
  ``_backward`` so that backward time is attributed to the op;
* an aggregating wrapper for ``evalmetrics.iou``, which runs 200,000
  times per pass: it keeps a call count and total time per run and adds
  its time to the enclosing span's covered time instead of storing spans.

Self time is span time minus the time covered by child spans and by
aggregated calls made directly inside it.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Layer functions wrapped with a span, by weakdet module.
SPAN_FUNCTIONS = {
    "igcl": ("build_instance_graph", "build_semantic_graph", "gcn_forward", "info_nce"),
    "instance_branch": ("instance_probs", "approx_labels", "instance_loss"),
    "semantic_branch": (
        "correlation_matrix",
        "pseudo_labels",
        "semantic_loss",
        "update_centers",
    ),
    "trainer": (
        "forward_losses",
        "sgd_step",
        "infer",
        "nms",
        "load_checkpoint",
        "save_checkpoint",
    ),
    "evalmetrics": ("match_detections", "evaluation_report"),
    "datamodel": ("load_jsonl", "filter_proposals", "generate_dataset"),
    "gradcheck": ("check_bag",),
}

# Hot leaf functions that are counted and timed in aggregate.
AGGREGATED_FUNCTIONS = {"evalmetrics": ("iou",)}

# Layer names whose time is reported per setup rather than per pass.
SETUP_LAYERS = ("datamodel.generate_dataset",)

SETUP_RUN = 0
_ROOT_RUN = -1


def numerics_ops(numerics) -> list[str]:
    """Public functions of ``numerics`` that build one graph node."""
    return sorted(
        name
        for name, fn in vars(numerics).items()
        if inspect.isfunction(fn)
        and fn.__module__ == numerics.__name__
        and not name.startswith("_")
        and name != "as_node"
        and fn.__annotations__.get("return") in ("Node", numerics.Node)
    )


def _graph_size(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _weakdet_module(name: str):
    import weakdet.gradcheck  # noqa: F401  (loads every traced module)

    return sys.modules[f"weakdet.{name}"]


def layer_functions():
    """(label, current object) for every span-traced layer function."""
    for modname, fns in SPAN_FUNCTIONS.items():
        module = _weakdet_module(modname)
        for fn_name in fns:
            yield f"{modname}.{fn_name}", getattr(module, fn_name)
    yield "numerics.backward", _weakdet_module("numerics").backward


class Patcher:
    """Rebinds weakdet functions everywhere they are bound, and back."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []

    def patch_everywhere(self, original, replacement) -> None:
        """Rebind every weakdet module attribute that holds ``original``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "weakdet" or modname.startswith("weakdet.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched binding to its original object."""
        while self.patches:
            module, attr, original = self.patches.pop()
            setattr(module, attr, original)


class Stamps(Patcher):
    """Entry and exit CPU times of every call to a few layer functions.

    ``times[label]`` holds one (entry, exit) pair per call; the untraced
    passes use them for latencies of operations that run inside a library
    call, such as a bag-step inside ``trainer.train``.
    """

    def __init__(self, labels):
        super().__init__()
        self.times: dict[str, list[tuple[float, float]]] = {label: [] for label in labels}

    def install(self) -> None:
        for label, fn in list(layer_functions()):
            if label in self.times:
                self.patch_everywhere(fn, self._wrapper(fn, self.times[label]))

    @staticmethod
    def _wrapper(fn, times):
        clock = time.process_time

        def wrapper(*args, **kwargs):
            entry = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append((entry, clock()))

        return wrapper


class Tracer(Patcher):
    """Records spans in memory; :meth:`install` patches, :meth:`uninstall`
    restores."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cover = array("d")
        self.run_id = _ROOT_RUN
        self.stack: list[int] = []
        # (name, run) -> [calls, seconds] for aggregated functions
        self.aggregated: dict[tuple[str, int], list] = {}
        # (name, run) -> set of distinct input keys
        self.distinct: dict[tuple[str, int], set] = {}
        # (counter, run) -> value
        self.counters: dict[tuple[str, int], float] = {}
        root = self._enter(self._id("root"))
        assert root == 0

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.cover.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _leave(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._enter(self._id(name))
        try:
            yield
        finally:
            self._leave(idx)

    def count(self, counter: str, value: float) -> None:
        key = (counter, self.run_id)
        self.counters[key] = self.counters.get(key, 0.0) + value

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn, observe=None):
        nid = self._id(name)
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            idx = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _op_wrapper(self, name, fn):
        fwd = self._id(f"numerics.op.{name}.fwd")
        bwd = self._id(f"numerics.op.{name}.bwd")
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            idx = enter(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(idx)
            inner = out._backward
            if inner is not None:

                def timed_backward(g):
                    j = enter(bwd)
                    try:
                        inner(g)
                    finally:
                        leave(j)

                out._backward = timed_backward
            return out

        return wrapper

    def _backward_wrapper(self, fn):
        nid = self._id("numerics.backward")
        enter, leave = self._enter, self._leave

        def wrapper(loss):
            self.count("numerics.nodes", _graph_size(loss))
            idx = enter(nid)
            try:
                return fn(loss)
            finally:
                leave(idx)

        return wrapper

    def _aggregated_wrapper(self, name, fn):
        clock = time.perf_counter
        stats = self.aggregated

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.cover[self.stack[-1]] += dt
                entry = stats.get((name, self.run_id))
                if entry is None:
                    stats[(name, self.run_id)] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        return wrapper

    def _observers(self):
        def distinct(name, key_of):
            def observe(args, result):
                key = (name, self.run_id)
                self.distinct.setdefault(key, set()).add(key_of(args))

            return observe

        def nms(args, kept):
            self.count("trainer.nms.boxes", len(args[0]))
            self.count("trainer.nms.kept", len(kept))

        def load_jsonl(args, result):
            self.count("datamodel.load_jsonl.bytes", os.path.getsize(args[0]))

        return {
            "igcl.build_instance_graph": distinct(
                "igcl.build_instance_graph",
                lambda a: (tuple(a[0]), a[1] if len(a) > 1 else None),
            ),
            "evalmetrics.match_detections": distinct(
                "evalmetrics.match_detections", lambda a: (a[2], a[3])
            ),
            "trainer.nms": nms,
            "datamodel.load_jsonl": load_jsonl,
        }

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; a no-op if already installed."""
        if self.patches:
            return
        observers = self._observers()
        for label, original in list(layer_functions()):
            if label == "numerics.backward":
                wrapper = self._backward_wrapper(original)
            else:
                wrapper = self._span_wrapper(label, original, observers.get(label))
            self.patch_everywhere(original, wrapper)
        for modname, fns in AGGREGATED_FUNCTIONS.items():
            module = _weakdet_module(modname)
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrapper = self._aggregated_wrapper(f"{modname}.{fn_name}", original)
                self.patch_everywhere(original, wrapper)
        numerics = _weakdet_module("numerics")
        for op in numerics_ops(numerics):
            original = getattr(numerics, op)
            self.patch_everywhere(original, self._op_wrapper(op, original))

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Closed spans as numpy arrays, plus their self time."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        run = np.frombuffer(self.run, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        cover = np.frombuffer(self.cover, dtype=np.float64)
        closed = end > 0.0
        dur = np.where(closed, end - start, 0.0)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(name)
        )
        return {
            "name": name,
            "parent": parent,
            "run": run,
            "start": start,
            "end": end,
            "closed": closed,
            "self": dur - child - cover,
            "dur": dur,
        }

    def write(self, path: str) -> None:
        """Write every span (and the name table) to one ``.npz`` file."""
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=a["name"],
            parent=a["parent"],
            run=a["run"],
            start=a["start"],
            end=a["end"],
            self_s=a["self"],
        )

    def layer_metrics(self, pass_runs: list[int]) -> dict[str, float]:
        """Per-pass layer metrics over the given runs; ``SETUP_LAYERS`` are
        per setup call instead."""
        a = self.arrays()
        n_names = len(self.names)
        n_pass = max(len(pass_runs), 1)

        def totals(sel):
            names = a["name"][sel]
            return (
                np.bincount(names, minlength=n_names),
                np.bincount(names, weights=a["dur"][sel], minlength=n_names),
                np.bincount(names, weights=a["self"][sel], minlength=n_names),
            )

        in_pass = np.isin(a["run"], pass_runs) & a["closed"]
        in_setup = (a["run"] == SETUP_RUN) & a["closed"]
        calls, incl, self_s = totals(in_pass)
        s_calls, s_incl, _ = totals(in_setup)

        out: dict[str, float] = {}
        for nid, label in enumerate(self.names):
            if label.startswith("numerics.op."):
                op, direction = label[len("numerics.op.") :].rsplit(".", 1)
                base = f"numerics.op.{op}"
                if direction == "fwd":
                    out[f"{base}.calls"] = calls[nid] / n_pass
                out[f"{base}.{direction}_s"] = incl[nid] / n_pass
                continue
            if label in SETUP_LAYERS:
                out[f"{label}.calls"] = float(s_calls[nid])
                out[f"{label}.s"] = s_incl[nid] / max(s_calls[nid], 1)
                continue
            out[f"{label}.calls"] = calls[nid] / n_pass
            out[f"{label}.s"] = incl[nid] / n_pass
            out[f"{label}.self_s"] = self_s[nid] / n_pass

        for label in (f"{m}.{f}" for m, fns in AGGREGATED_FUNCTIONS.items() for f in fns):
            entries = [self.aggregated.get((label, r), [0, 0.0]) for r in pass_runs]
            out[f"{label}.calls"] = sum(e[0] for e in entries) / n_pass
            out[f"{label}.s"] = sum(e[1] for e in entries) / n_pass

        def counter(name):
            return sum(self.counters.get((name, r), 0.0) for r in pass_runs)

        def calls_of(label):
            nid = self._ids.get(label)
            return 0.0 if nid is None else float(calls[nid])

        for label in ("igcl.build_instance_graph", "evalmetrics.match_detections"):
            seen = sum(len(self.distinct.get((label, r), ())) for r in pass_runs)
            n_calls = calls_of(label)
            out[f"{label}.distinct_ratio"] = seen / n_calls if n_calls else 0.0
        boxes = counter("trainer.nms.boxes")
        out["trainer.nms.kept_ratio"] = counter("trainer.nms.kept") / boxes if boxes else 0.0
        load_s = out.get("datamodel.load_jsonl.s", 0.0) * n_pass
        out["datamodel.load_jsonl.mb_per_s"] = (
            counter("datamodel.load_jsonl.bytes") / 1e6 / load_s if load_s else 0.0
        )
        out["numerics.nodes"] = counter("numerics.nodes") / n_pass
        return {k: float(v) for k, v in out.items()}
