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
from dataclasses import dataclass, fields, replace

from .datamodel import SceneConfig, generate_dataset, load_jsonl, save_jsonl
from .errors import CompatibilityError, ConfigError, ParseError, WeakdetError
from .evalmetrics import corloc, evaluation_report, mean_ap
from .gradcheck import check_config, run_checks, summarize
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


@dataclass(frozen=True)
class ConfigKey:
    name: str
    kind: str  # int | float | str | int_pair | float_pair | schedule | modules
    default: object
    help: str


CONFIG_SCHEMA: tuple[ConfigKey, ...] = (
    # scene generator
    ConfigKey("n_classes", "int", 6, "number of object categories K"),
    ConfigKey("feature_dim", "int", 32, "feature vector width D (>= K)"),
    ConfigKey("canvas", "float_pair", (128.0, 128.0), "scene canvas size in pixels"),
    ConfigKey("objects_per_scene", "int_pair", (1, 4), "min,max objects per scene"),
    ConfigKey("proposals_per_object", "int", 5, "jittered proposals per object"),
    ConfigKey("background_proposals", "int", 10, "distractor proposals per scene"),
    ConfigKey("jitter", "float", 0.25, "proposal corner jitter scale"),
    ConfigKey("noise_sigma", "float", 0.35, "feature noise standard deviation"),
    ConfigKey("context_alpha", "float", 0.3, "weight of co-present class prototypes"),
    ConfigKey("min_gt_side", "float", 24.0, "minimum ground-truth box side"),
    ConfigKey("max_gt_side", "float", 64.0, "maximum ground-truth box side"),
    ConfigKey("data_seed", "int", 0, "generator RNG seed"),
    ConfigKey("n_scenes", "int", 250, "total scenes to generate"),
    ConfigKey("train_fraction", "float", 0.8, "train share of the generated split"),
    # trainer
    ConfigKey("lambda_ins", "float", 1.0, "weight of the instance branch loss"),
    ConfigKey("lambda_sem", "float", 1.0, "weight of the semantic branch loss"),
    ConfigKey("lambda_igcl", "float", 1.0, "weight of the contrastive loss"),
    ConfigKey("lse_sharpness", "float", 4.0, "r of the smooth-max pooling (inert: sum pooling)"),
    ConfigKey("label_ratio", "float", 0.9, "gamma: top-score ratio for induced labels"),
    ConfigKey("center_rate", "float", 0.05, "theta: class-center EMA rate"),
    ConfigKey("tau", "float", 5.0, "contrastive inverse temperature"),
    ConfigKey(
        "lr_schedule",
        "schedule",
        ((0.0, 1e-3), (0.8, 1e-4)),
        "piecewise-constant LR as fraction:rate pairs",
    ),
    ConfigKey("momentum", "float", 0.9, "SGD momentum"),
    ConfigKey("weight_decay", "float", 0.0005, "SGD weight decay"),
    ConfigKey("epochs", "int", 10, "training epochs"),
    ConfigKey("batch_size", "int", 1, "bags per optimizer step"),
    ConfigKey("seed", "int", 0, "training RNG seed"),
    ConfigKey("modules", "modules", ("M1", "M2", "M4"), "module mask (ablations)"),
    ConfigKey("hidden_dim", "int", 32, "GCN hidden width"),
    ConfigKey("embed_dim", "int", 16, "contrastive embedding width"),
    ConfigKey("graph_iou", "float", 0.3, "IoU threshold of the instance graph"),
    ConfigKey("knn_k", "int", 5, "neighbours in the semantic graph"),
    ConfigKey("nms_iou", "float", 0.3, "NMS suppression threshold"),
    ConfigKey("min_score", "float", 1e-3, "detection score floor"),
    ConfigKey("min_proposal_side", "float", 16.0, "proposal side filter in pixels"),
    ConfigKey("semantic_init", "str", "prototypes", "w_sem init: prototypes|random"),
    ConfigKey("center_init", "str", "prototypes", "center init: prototypes|random"),
    ConfigKey("corr_sem_ema", "float", 0.0, "running-average weight for corr_sem"),
    ConfigKey("phase_mode", "str", "fused", "update mode: fused|sequential"),
    # harness
    ConfigKey("ablate_seeds", "int", 5, "seeds per sub-method in the ablation"),
    ConfigKey("gc_seeds", "int", 10, "random bags for the gradient check"),
    ConfigKey("gc_step", "float", 1e-4, "finite-difference step"),
    ConfigKey("gc_tolerance", "float", 1e-4, "max allowed relative gradient error"),
)

_SCHEMA_BY_NAME = {k.name: k for k in CONFIG_SCHEMA}


def _parse_value(key: ConfigKey, raw: str):
    try:
        if key.kind == "int":
            return int(raw)
        if key.kind == "float":
            return float(raw)
        if key.kind == "str":
            return raw.strip()
        if key.kind == "int_pair":
            a, b = raw.split(",")
            return (int(a), int(b))
        if key.kind == "float_pair":
            a, b = raw.split(",")
            return (float(a), float(b))
        if key.kind == "schedule":
            pairs = []
            for part in raw.split(","):
                frac, rate = part.split(":")
                pairs.append((float(frac), float(rate)))
            return tuple(pairs)
        if key.kind == "modules":
            return tuple(m.strip() for m in raw.split(",") if m.strip())
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad value for {key.name!r}: {raw!r} ({e})") from e
    raise ConfigError(f"unknown config kind {key.kind!r}")


def _format_value(key: ConfigKey, value) -> str:
    if key.kind in ("int_pair", "float_pair"):
        return f"{value[0]},{value[1]}"
    if key.kind == "schedule":
        return ",".join(f"{f}:{r}" for f, r in value)
    if key.kind == "modules":
        return ",".join(sorted(value))
    return str(value)


def read_config_file(path: str) -> dict:
    """Parse a `key = value` file; unknown keys and bad values are errors."""
    values: dict[str, object] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(f"expected 'key = value', got {stripped!r}", line=lineno)
            name, raw = (part.strip() for part in stripped.split("=", 1))
            if name not in _SCHEMA_BY_NAME:
                raise ConfigError(f"unknown config key {name!r} (line {lineno})")
            values[name] = _parse_value(_SCHEMA_BY_NAME[name], raw)
    return values


def effective_config(args: argparse.Namespace) -> dict:
    """Defaults, overridden by the config file, overridden by CLI flags."""
    values = {k.name: k.default for k in CONFIG_SCHEMA}
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    for key in CONFIG_SCHEMA:
        flag = getattr(args, key.name, None)
        if flag is not None:
            values[key.name] = _parse_value(key, flag) if isinstance(flag, str) else flag
    return values


def scene_config(values: dict) -> SceneConfig:
    return SceneConfig(
        n_classes=values["n_classes"],
        feature_dim=values["feature_dim"],
        canvas=values["canvas"],
        objects_per_scene=values["objects_per_scene"],
        proposals_per_object=values["proposals_per_object"],
        background_proposals=values["background_proposals"],
        jitter=values["jitter"],
        noise_sigma=values["noise_sigma"],
        context_alpha=values["context_alpha"],
        min_gt_side=values["min_gt_side"],
        max_gt_side=values["max_gt_side"],
        seed=values["data_seed"],
    )


def train_config(values: dict) -> TrainConfig:
    names = {f.name for f in fields(TrainConfig)}
    kwargs = {k: v for k, v in values.items() if k in names}
    kwargs["modules"] = frozenset(values["modules"])
    return TrainConfig(**kwargs)


def config_echo(values: dict) -> dict:
    return {
        k.name: _format_value(k, values[k.name]) for k in CONFIG_SCHEMA
    }


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
            fh.write(
                f"{row['epoch']},{row['loss_total']!r},{row['loss_ins']!r},"
                f"{row['loss_sem']!r},{row['loss_igcl']!r},{row['lr']!r}\n"
            )


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


def render_report(values: dict, state, bags, gts, split: str) -> dict:
    cfg = train_config(values)
    dets = [d for bag in bags for d in infer(bag, state, cfg)]
    return evaluation_report(
        dets, gts, state.n_classes, split=split, config_echo=config_echo(values)
    )


def cmd_eval(args) -> int:
    values = effective_config(args)
    state = load_checkpoint(args.checkpoint)
    bags, gts = load_jsonl(args.data)
    if bags and (bags[0].n_classes != state.n_classes or bags[0].features.shape[1] != state.feature_dim):
        raise CompatibilityError(
            f"checkpoint (K={state.n_classes}, D={state.feature_dim}) does not match "
            f"dataset (K={bags[0].n_classes}, D={bags[0].features.shape[1]})"
        )
    report = render_report(values, state, bags, gts, args.split)
    blob = json.dumps(report, sort_keys=True, indent=2) + "\n"
    with open(args.out, "w") as fh:
        fh.write(blob)
    keys = ("map50", "coco_map", "corloc")
    print("  ".join(f"{k}={report[k]:.4f}" for k in keys if report[k] is not None))
    print(f"report: {args.out}")
    return 0


def cmd_ablate(args) -> int:
    values = effective_config(args)
    base_cfg = train_config(values)
    train_bags, train_gts = load_jsonl(os.path.join(args.data, "train.jsonl"))
    test_bags, test_gts = load_jsonl(os.path.join(args.data, "test.jsonl"))
    n_classes = train_bags[0].n_classes
    n_seeds = values["ablate_seeds"]

    lines = [f"# {k} = {v}" for k, v in sorted(config_echo(values).items())]
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
    base = replace(
        check_config(0),
        lambda_ins=values["lambda_ins"],
        lambda_sem=values["lambda_sem"],
        lambda_igcl=values["lambda_igcl"],
        tau=values["tau"],
        label_ratio=values["label_ratio"],
        graph_iou=values["graph_iou"],
        knn_k=values["knn_k"],
        corr_sem_ema=values["corr_sem_ema"],
        modules=frozenset(values["modules"]),
    )
    results = run_checks(
        n_seeds=values["gc_seeds"],
        cfg=base,
        step=values["gc_step"],
        tolerance=values["gc_tolerance"],
        corrupt=bool(args.inject_grad_fault),
    )
    worst = summarize(results)
    tolerance = values["gc_tolerance"]
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


def cmd_report(args) -> int:
    with open(args.report) as fh:
        report = json.load(fh)
    for key in ("map50", "coco_map", "corloc"):
        value = report.get(key)
        print(f"{key:>9}: {'-' if value is None else f'{value:.4f}'}")
    per_class = report.get("per_class") or {}
    for k in sorted(per_class, key=int):
        entry = per_class[k]
        ap50 = entry.get("ap50")
        print(f"  class {k}: ap50={'-' if ap50 is None else f'{ap50:.4f}'}")
    echo = report.get("config_echo") or {}
    if echo:
        print(f"config: {len(echo)} keys echoed (split={echo.get('split', '?')})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _config_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", help="path to a key = value config file")
    group = parent.add_argument_group("config overrides")
    for key in CONFIG_SCHEMA:
        group.add_argument(
            f"--{key.name.replace('_', '-')}",
            dest=key.name,
            metavar=key.kind.upper(),
            help=f"{key.help} (default: {_format_value(key, key.default)})",
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
    try:
        return args.func(args)
    except WeakdetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
