"""Benchmark for weakdet: three workloads, end-to-end metrics, traced layers.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload train_full --seed 0 --seconds 20 --trace 0

Run every workload, optionally on a second seed, and print every metric:

    python3 perfbench/run.py --workload all --seed 0 --seed 7

``--trace 1`` runs the same passes with the layer tracer installed and
prints the per-layer metrics instead. Metric names, units and bounds come
from ``BENCHMARK.json`` at the repository root; see ``perfbench/README.md``
for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads; setup children inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench_out")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train_full", "eval_dense", "gradcheck_audit")
# Roughly the seconds one untraced pass of each workload takes, interpreter
# start included. A run makes --seconds / PASS_S passes whatever the code's
# speed, so that two commits are measured over the same number of passes.
PASS_S = {"train_full": 2.5, "eval_dense": 4.0, "gradcheck_audit": 1.5}

# The numbers the workloads are usually discussed by, printed beside the
# JSON metrics: name -> (source, unit). A source is a JSON metric name or a
# key of the workload's report.
ALIASES = {
    "train_full": {
        "train_bag_steps_per_s": ("ops_per_s", "1/s"),
        "train_map50": ("train_map50", "share"),
        "train_corloc": ("train_corloc", "share"),
    },
    "eval_dense": {
        "eval_wall_s": ("pass_s", "s"),
        "infer_ms_p50": ("op_ms_p50", "ms"),
        "infer_ms_p99": ("op_ms_p99", "ms"),
    },
    "gradcheck_audit": {
        "gradcheck_bags_per_s": ("ops_per_s", "1/s"),
    },
}


def _load_library():
    """Import weakdet from this checkout's ``src``; exit 2 if it is absent."""
    if not os.path.isdir(os.path.join(SRC, "weakdet")):
        print(f"error: no weakdet sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import weakdet

    if not os.path.abspath(weakdet.__file__).startswith(SRC + os.sep):
        print(f"error: weakdet imported from {weakdet.__file__}", file=sys.stderr)
        sys.exit(2)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment(args, seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def _child(args, seed: int, work: str, *extra: str) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
        "--seed", str(seed), "--size", args.size, "--work", work, *extra,
    ]
    return subprocess.run(cmd, check=True, timeout=170, stdout=subprocess.PIPE, text=True)


def timed_setup(args, seed: int, work: str) -> float:
    """CPU time of one setup in a fresh interpreter (start, imports, inputs),
    divided by the CPU slowdown measured before and after it."""
    from workloads import cpu_slowdown

    def children_cpu_s():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    before, cpu_s = cpu_slowdown(), children_cpu_s()
    _child(args, seed, work, "--setup-only")
    elapsed = children_cpu_s() - cpu_s
    return elapsed / ((before + cpu_slowdown()) / 2.0)


def pass_in_child(args, seed: int, work: str, index: int):
    """One pass in a fresh interpreter, so nothing cached by an earlier pass
    can serve a later one; a user runs each command in its own process."""
    from workloads import PassResult

    out = _child(args, seed, work, "--pass-only", str(index)).stdout
    return PassResult(**json.loads(out.strip().splitlines()[-1]))


def pass_count(args, seconds: float) -> int:
    """Passes for a run of about ``seconds``; at least two, so that each
    of the audit's two bags is timed."""
    return max(2, round(seconds / PASS_S[args.workload]))


def per_group(passes) -> dict[str, tuple[float, list[float]]]:
    """Per group: the time of one pass and the latency of each of its
    operations, each the median over the group's passes.

    Passes of a group do the same work, so operation ``i`` is the same in
    every one of them.
    """
    import numpy as np

    groups: dict[str, list] = {}
    for p in passes:
        if "error" not in p.outputs:
            groups.setdefault(p.group, []).append(p)
    out = {}
    for group, members in groups.items():
        if len({len(p.latencies_s) for p in members}) != 1:
            raise RuntimeError(f"passes of {group} did not do the same operations")
        totals = [p.elapsed_s for p in members]
        latencies = np.median([p.latencies_s for p in members], axis=0)
        out[group] = (float(np.median(totals)), latencies.tolist())
    return out


def end_to_end(total_s, latencies, passes, setup_times) -> dict:
    import numpy as np

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": statistics.median(setup_times),
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "ops_per_s": len(latencies) / total_s,
        "op_ms_p50": float(np.percentile(latencies, 50)) * 1e3,
        "op_ms_p99": float(np.percentile(latencies, 99)) * 1e3,
    }


def measure(args, seed: int, work: str) -> dict:
    """One benchmark run: setup, timed passes, gates, metrics."""
    import workloads
    from tracer import SETUP_RUN, Tracer

    wl = workloads.make(args.workload, args.size)
    tracer = None
    setup_times = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            tracer.run_id = SETUP_RUN
            with tracer.span("bench.setup"):
                inp = wl.setup(seed, work)
        finally:
            tracer.uninstall()

        def traced_pass(index):
            tracer.run_id = index + 1
            with tracer.span("bench.pass"):
                return wl.run_pass(inp, index)

        # Untraced passes first, in this process too, for the overhead.
        n_passes = pass_count(args, args.seconds / 3.0)
        plain = [wl.run_pass(inp, i) for i in range(n_passes)]
        tracer.install()
        try:
            traced = [traced_pass(i) for i in range(n_passes)]
        finally:
            tracer.uninstall()
        passes = plain + traced
    else:
        setup_times = [timed_setup(args, seed, work) for _ in range(SETUP_REPEATS)]
        passes = [pass_in_child(args, seed, work, i)
                  for i in range(pass_count(args, args.seconds))]
        inp = wl.load(seed, work)
        plain, traced = passes, []

    gates, report = wl.gates(inp, passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    timed = per_group(plain)
    total_s = sum(t for t, _ in timed.values())
    latencies = [x for _, lat in timed.values() for x in lat]
    result = {
        "gates": gates,
        "report": report,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "latency_samples": len(latencies),
        "pass_s": total_s,
        "pass_samples_s": [p.elapsed_s for p in plain],
        "failed_share": failed / attempted if attempted else 1.0,
    }
    if tracer is None:
        result["metrics"] = end_to_end(total_s, latencies, passes, setup_times)
        result["setup_samples_s"] = setup_times
    else:
        # Overhead per pass: traced minus untraced, over the groups both ran.
        with_trace = per_group(traced)
        both = timed.keys() & with_trace.keys()
        untraced_s = sum(timed[g][0] for g in both)
        overhead = sum(with_trace[g][0] for g in both) - untraced_s
        layers = tracer.layer_metrics(list(range(1, len(traced) + 1)))
        layers["trace.overhead_s"] = overhead / len(both)
        layers["trace.overhead_share"] = overhead / untraced_s
        result["metrics"] = layers
        result["traced_passes"] = len(traced)
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        tracer.write(os.path.join(OUT, "spans", f"{args.workload}.npz"))
    return result


def emit(args, seed: int, result: dict, spec: dict) -> bool:
    """Print the human-readable lines, save the record, print the JSON line."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not args.trace:
        raise KeyError(f"metrics not produced: {missing}")
    # A layer function that no longer exists did no work.
    result["missing_layer_metrics"] = missing
    metrics.update({name: 0.0 for name in missing})
    correct = all(result["gates"].values())
    env = environment(args, seed)
    print("env " + json.dumps(env, sort_keys=True))
    for name, ok in result["gates"].items():
        print(f"gate {'ok  ' if ok else 'FAIL'} {name}")
    for key, value in result["report"].items():
        print(f"report {key} = {value}")
    print(f"count passes={result['passes']} latency_samples={result['latency_samples']}"
          f" attempted={result['attempted']} failed={result['failed']}")
    if not args.trace:
        lookup = {**metrics, **result["report"], "pass_s": result["pass_s"]}
        for name, (source, unit) in ALIASES[args.workload].items():
            print(f"metric {name} = {lookup[source]!r} {unit}")
        print(f"metric failed_share = {result['failed_share']!r} share")
    printed = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in printed.items():
        print(f"metric {name} = {entry['value']!r} {entry['unit']}")

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record = {**result, "env": env, "correct": correct, "printed": printed}
    path = os.path.join(OUT, "results", f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": printed,
    }))
    return correct


def run_suite(args) -> int:
    """Each (workload, seed) in its own process; a table of every metric."""
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    rows, status = {}, 0
    for name in names:
        for seed in args.seed:
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            metric_lines = [ln.split(" ", 1)[1] for ln in lines if ln.startswith("metric ")]
            rows[(name, seed)] = metric_lines
            status = status or proc.returncode
            print(f"== {name} seed {seed}: exit {proc.returncode}")
    print("== summary")
    for (name, seed), metric_lines in rows.items():
        for line in metric_lines:
            print(f"{name:<16} seed={seed:<6} {line}")
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed; repeat it to run a second seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same code path on toy inputs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-only", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.seed = args.seed or [0]

    _load_library()
    if args.workload == "all" or len(args.seed) > 1:
        return run_suite(args)
    seed = args.seed[0]
    if args.setup_only or args.pass_only is not None:
        import dataclasses

        import workloads

        wl = workloads.make(args.workload, args.size)
        if args.setup_only:
            wl.setup(seed, args.work)
            return 0
        result = wl.run_pass(wl.load(seed, args.work), args.pass_only)
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(dataclasses.asdict(result)))
        return 0

    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        result = measure(args, seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if emit(args, seed, result, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
