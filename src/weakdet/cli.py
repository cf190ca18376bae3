"""Operator surface: dataset generation, training, evaluation, the ablation
harness, the gradient checker, and report printing.

Configuration is a flat `key = value` text file validated against the
schema below; any command-line flag of the same name overrides the file.
Unknown keys are errors. Every report embeds the effective configuration.

Subcommands: gen-data, train, eval, ablate, grad-check, report.
The WEAKDET_LOG_LEVEL environment variable controls log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import sys
from dataclasses import fields, replace

import numpy as np

from .datamodel import SceneConfig, generate_dataset, load_jsonl, numbered_lines, save_jsonl
from .errors import CompatibilityError, ConfigError, ParseError, WeakdetError, check_keys
from .evalmetrics import corloc, evaluation_report, mean_ap
from .gradcheck import DEFAULT_SEEDS, DEFAULT_STEP, DEFAULT_TOLERANCE, check_config, run_checks, summarize
from .trainer import (
    METRICS_HEADER,
    SUB_METHODS,
    TrainConfig,
    infer,
    load_checkpoint,
    save_checkpoint,
    train,
)

log = logging.getLogger("weakdet")


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------


# Help for every config key. Trainer and scene keys take their defaults from
# TrainConfig and SceneConfig, the CLI-only keys from CLI_DEFAULTS; the type
# of each default chooses how the key is parsed and echoed.
CONFIG_HELP = {
    # scene generator
    "n_classes": "number of object categories K",
    "feature_dim": "feature vector width D (>= K)",
    "canvas": "scene canvas size in pixels",
    "objects_per_scene": "min,max objects per scene",
    "proposals_per_object": "jittered proposals per object",
    "background_proposals": "distractor proposals per scene",
    "jitter": "proposal corner jitter scale",
    "noise_sigma": "feature noise standard deviation",
    "context_alpha": "weight of co-present class prototypes",
    "min_gt_side": "minimum ground-truth box side",
    "max_gt_side": "maximum ground-truth box side",
    "data_seed": "generator RNG seed",
    "n_scenes": "total scenes to generate",
    "train_fraction": "train share of the generated split",
    # trainer
    "lambda_ins": "weight of the instance branch loss",
    "lambda_sem": "weight of the semantic branch loss",
    "lambda_igcl": "weight of the contrastive loss",
    "label_ratio": "gamma: top-score ratio for induced labels",
    "center_rate": "theta: class-center EMA rate",
    "tau": "contrastive inverse temperature",
    "lr_schedule": "piecewise-constant LR as fraction:rate pairs",
    "momentum": "SGD momentum",
    "weight_decay": "SGD weight decay",
    "epochs": "training epochs",
    "batch_size": "bags per optimizer step",
    "seed": "training RNG seed",
    "modules": "module mask (ablations)",
    "hidden_dim": "GCN hidden width",
    "embed_dim": "contrastive embedding width",
    "graph_iou": "IoU threshold of the instance graph",
    "knn_k": "neighbours in the semantic graph",
    "nms_iou": "NMS suppression threshold",
    "min_score": "detection score floor",
    "min_proposal_side": "proposal side filter in pixels",
    "semantic_init": "w_sem init: prototypes|random",
    "center_init": "center init: prototypes|random",
    "corr_sem_ema": "running-average weight for corr_sem",
    "phase_mode": "update mode: fused|sequential",
    # harness
    "ablate_seeds": "seeds per sub-method in the ablation",
    "gc_seeds": "random bags for the gradient check",
    "gc_step": "finite-difference step",
    "gc_tolerance": "max allowed relative gradient error",
}

# Config key -> SceneConfig field: the generator seed is exposed as data_seed.
SCENE_FIELDS = {"data_seed" if f.name == "seed" else f.name: f for f in fields(SceneConfig)}

CLI_DEFAULTS = {"n_scenes": 250, "train_fraction": 0.8, "ablate_seeds": 5,
                "gc_seeds": DEFAULT_SEEDS, "gc_step": DEFAULT_STEP, "gc_tolerance": DEFAULT_TOLERANCE}

DEFAULTS = {
    **{key: f.default for key, f in SCENE_FIELDS.items()},
    **{f.name: f.default for f in fields(TrainConfig)},
    **CLI_DEFAULTS,
}

# The TrainConfig keys grad-check takes from the config; the rest of
# check_config (small widths, random inits) keeps the sweeps fast.
AUDITED_KEYS = ("lambda_ins", "lambda_sem", "lambda_igcl", "tau", "label_ratio",
                "graph_iou", "knn_k", "corr_sem_ema", "modules")


def _pair(raw: str, sep: str, kind: type) -> tuple:
    a, b = raw.split(sep)
    return (kind(a), kind(b))


def _parse_value(name: str, raw: str):
    default = DEFAULTS[name]
    try:
        if isinstance(default, frozenset):
            return frozenset(m.strip() for m in raw.split(",") if m.strip())
        if isinstance(default, tuple) and isinstance(default[0], tuple):
            return tuple(_pair(part, ":", float) for part in raw.split(","))
        if isinstance(default, tuple):
            return _pair(raw, ",", type(default[0]))
        return type(default)(raw.strip())
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad value for {name!r}: {raw!r} ({e})") from e


def _format_value(value) -> str:
    if isinstance(value, frozenset):
        return ",".join(sorted(value))
    if isinstance(value, tuple) and isinstance(value[0], tuple):
        return ",".join(f"{f}:{r}" for f, r in value)
    if isinstance(value, tuple):
        return f"{value[0]},{value[1]}"
    return str(value)


def read_config_file(path: str) -> dict:
    """Parse a `key = value` file; unknown keys, repeated keys and bad values are errors."""
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in numbered_lines(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line=lineno)
        name, raw = (part.strip() for part in stripped.split("=", 1))
        if name not in DEFAULTS:
            raise ConfigError(f"unknown config key {name!r} (line {lineno})")
        if name in set_on:
            raise ParseError(f"config key {name!r} is set twice, on lines {set_on[name]} and {lineno}",
                             line=lineno)
        set_on[name] = lineno
        values[name] = _parse_value(name, raw)
    return values


def effective_config(args: argparse.Namespace) -> dict:
    """Defaults, overridden by the config file, overridden by CLI flags."""
    values = dict(DEFAULTS)
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    for name in DEFAULTS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = _parse_value(name, flag)
    check_keys(values, (  # the keys no config class checks, and the generator seed by its key
        (">= 0", lambda v: v >= 0, ("n_scenes", "data_seed")),
        (">= 1", lambda v: v >= 1, ("ablate_seeds", "gc_seeds")),
        ("in [0, 1]", lambda v: 0.0 <= v <= 1.0, ("train_fraction",)),
        ("finite and > 0", lambda v: 0.0 < v < np.inf, ("gc_step", "gc_tolerance")),
    ))
    scene_config(values)  # every command checks every key, whether it reads it or not
    train_config(values)
    return values


def scene_config(values: dict) -> SceneConfig:
    return SceneConfig(**{f.name: values[key] for key, f in SCENE_FIELDS.items()})


def train_config(values: dict) -> TrainConfig:
    return TrainConfig(**{f.name: values[f.name] for f in fields(TrainConfig)})


def config_echo(values: dict) -> dict:
    return {name: _format_value(values[name]) for name in DEFAULTS}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    values = effective_config(args)
    cfg = scene_config(values)
    bags, gts = generate_dataset(cfg, values["n_scenes"])
    n_train = int(round(values["train_fraction"] * len(bags)))
    os.makedirs(args.out, exist_ok=True)
    train_path = os.path.join(args.out, "train.jsonl")
    test_path = os.path.join(args.out, "test.jsonl")
    save_jsonl(train_path, bags[:n_train], gts[:n_train])
    save_jsonl(test_path, bags[n_train:], gts[n_train:])
    log.info("wrote %s (%d bags) and %s (%d bags)", train_path, n_train, test_path, len(bags) - n_train)
    print(f"{train_path}: {n_train} bags")
    print(f"{test_path}: {len(bags) - n_train} bags")
    return 0


def write_metrics_csv(path: str, history: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(METRICS_HEADER) + "\n")
        for row in history:
            fh.write(",".join(repr(row[k]) for k in METRICS_HEADER) + "\n")


def cmd_train(args) -> int:
    values = effective_config(args)
    cfg = train_config(values)
    bags, _ = load_jsonl(args.data)
    state, history = train(bags, cfg)
    save_checkpoint(state, args.out)
    metrics_path = args.metrics or args.out + ".metrics.csv"
    write_metrics_csv(metrics_path, history)
    if history:
        last = history[-1]
        print(
            f"epoch {last['epoch']}: total={last['loss_total']:.6f} "
            f"ins={last['loss_ins']:.6f} sem={last['loss_sem']:.6f} "
            f"igcl={last['loss_igcl']:.6f}"
        )
    print(f"checkpoint: {args.out}")
    return 0


def _load_split(path: str, label: str, expect: tuple | None = None) -> tuple[list, list, tuple]:
    """The bags, ground truth and (K, D) of the split at ``path``, called
    ``label`` in errors. A split with no bags is a ConfigError, and one whose
    (K, D) is not that of ``expect``, a (name, (K, D)) pair, a CompatibilityError."""
    bags, gts = load_jsonl(path)
    if not bags:
        raise ConfigError(f"{label} {path} has no bags")
    dims = (bags[0].n_classes, bags[0].features.shape[1])
    if expect is not None and expect[1] != dims:
        raise CompatibilityError(f"{expect[0]} (K, D) = {expect[1]} does not match {label} {dims}")
    return bags, gts, dims


def cmd_eval(args) -> int:
    values = effective_config(args)
    state = load_checkpoint(args.checkpoint)
    dims = (state.n_classes, state.feature_dim)
    bags, gts, _ = _load_split(args.data, f"{args.split} split", ("checkpoint", dims))
    cfg = train_config(values)
    dets = [d for bag in bags for d in infer(bag, state, cfg)]
    echo = config_echo(values | {"n_classes": dims[0], "feature_dim": dims[1]})  # the checkpoint's
    report = evaluation_report(dets, gts, state.n_classes, split=args.split, config_echo=echo)
    with open(args.out, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    keys = ("map50", "coco_map", "corloc")
    print("  ".join(f"{k}={report[k]:.4f}" for k in keys if report[k] is not None))
    print(f"report: {args.out}")
    return 0


def cmd_ablate(args) -> int:
    values = effective_config(args)
    base_cfg = train_config(values)
    train_bags, train_gts, dims = _load_split(os.path.join(args.data, "train.jsonl"), "train split")
    test_bags, test_gts, _ = _load_split(
        os.path.join(args.data, "test.jsonl"), "test split", ("train split", dims)
    )
    n_classes = dims[0]
    n_seeds = values["ablate_seeds"]

    echo = config_echo(values | {"n_classes": dims[0], "feature_dim": dims[1]})  # the split's
    lines = [f"# {k} = {v}" for k, v in sorted(echo.items())]
    lines.append("submethod,modules,map50_median,corloc_median")
    for name in sorted(SUB_METHODS):
        mask = SUB_METHODS[name]
        map50s, corlocs = [], []
        for s in range(n_seeds):
            cfg = replace(base_cfg, modules=mask, seed=base_cfg.seed + s)
            state, _ = train(train_bags, cfg)
            test_dets = [d for bag in test_bags for d in infer(bag, state, cfg)]
            map50s.append(mean_ap(test_dets, test_gts, n_classes, 0.5))
            train_dets = [d for bag in train_bags for d in infer(bag, state, cfg)]
            corlocs.append(corloc(train_dets, train_gts, n_classes))
            log.info("%s seed %d: map50=%.4f corloc=%.4f", name, s, map50s[-1], corlocs[-1])
        row = (
            f"{name},{'+'.join(sorted(mask))},"
            f"{statistics.median(map50s)!r},{statistics.median(corlocs)!r}"
        )
        lines.append(row)
        print(row)
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"table: {args.out}")
    return 0


def cmd_grad_check(args) -> int:
    values = effective_config(args)
    base = replace(check_config(0), **{k: values[k] for k in AUDITED_KEYS})
    tolerance = values["gc_tolerance"]
    results = run_checks(
        n_seeds=values["gc_seeds"], cfg=base, step=values["gc_step"],
        tolerance=tolerance, corrupt=args.inject_grad_fault,
    )
    worst = summarize(results)
    failed = False
    # The terms check_bag audited under the module mask, in forward order.
    for loss_name in dict.fromkeys(loss for loss, _ in worst):
        groups = {p: v for (l, p), v in worst.items() if l == loss_name}
        loss_ok = all(v < tolerance for v in groups.values())
        failed = failed or not loss_ok
        print(f"{loss_name}: {'PASS' if loss_ok else 'FAIL'}")
        for pname in sorted(groups):
            print(f"  {pname:<14} max_rel_err={groups[pname]:.3e}")
    return 1 if failed else 0


def _report_number(parent: dict, key: str, label: str) -> str:
    value = parent.get(key)  # no bool, NaN, Inf or int too large for a float
    if value is not None and not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
        raise ParseError(f"report field {label!r} must be a finite number or null, got {value!r}")
    return "-" if value is None else f"{value:.4f}"


def _report_object(parent: dict, key: str, label: str) -> dict:
    value = parent.get(key)
    if value is not None and not isinstance(value, dict):
        raise ParseError(f"report field {label!r} must be an object or null, got {value!r}")
    return value or {}


def cmd_report(args) -> int:
    with open(args.report) as fh:
        try:
            report = json.load(fh)
        except ValueError as e:  # bad JSON or bad UTF-8
            raise ParseError(f"{args.report} is not a JSON report ({e})") from e
    if not isinstance(report, dict):
        raise ParseError(f"{args.report}: a report is a JSON object, got {type(report).__name__}")
    lines = [f"{k:>9}: {_report_number(report, k, k)}" for k in ("map50", "coco_map", "corloc")]
    per_class = _report_object(report, "per_class", "per_class")
    for k in per_class:
        if not k.isdecimal():
            raise ParseError(f"report field 'per_class' has key {k!r}, not a class index")
    for k in sorted(per_class, key=int):
        entry = _report_object(per_class, k, f"per_class.{k}")
        lines.append(f"  class {k}: ap50={_report_number(entry, 'ap50', f'per_class.{k}.ap50')}")
    echo = _report_object(report, "config_echo", "config_echo")
    if echo:
        lines.append(f"config: {len(echo)} keys echoed (split={echo.get('split', '?')})")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _config_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", help="path to a key = value config file")
    group = parent.add_argument_group("config overrides")
    for name, default in DEFAULTS.items():
        group.add_argument(
            f"--{name.replace('_', '-')}",
            dest=name,
            help=f"{CONFIG_HELP[name]} (default: {_format_value(default)})",
        )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakdet",
        description="Weakly supervised detection on synthetic scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parent = _config_parent()

    p = sub.add_parser("gen-data", parents=[parent], help="generate a train/test JSONL split")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", parents=[parent], help="train and write a checkpoint")
    p.add_argument("--data", required=True, help="training JSONL file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--metrics", help="metrics CSV path (default: <out>.metrics.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[parent], help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="JSONL file with ground truth")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", parents=[parent], help="run the six-sub-method ablation")
    p.add_argument("--data", required=True, help="directory with train.jsonl and test.jsonl")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("grad-check", parents=[parent], help="finite-difference gradient audit")
    p.add_argument(
        "--inject-grad-fault",
        action="store_true",
        help="test hook: corrupt one gradient entry so the check must fail",
    )
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("report", help="pretty-print a report JSON")
    p.add_argument("report", help="report JSON produced by eval")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("WEAKDET_LOG_LEVEL", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # a non-finite op result is a NumericError, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (WeakdetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
