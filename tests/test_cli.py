import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import save_jsonl_as_lists
from weakdet.cli import (
    CONFIG_HELP,
    DEFAULTS,
    _format_value,
    _parse_value,
    build_parser,
    effective_config,
    main,
    read_config_file,
    scene_config,
    train_config,
)
from weakdet.datamodel import Box, SceneConfig, generate_dataset, load_jsonl, save_jsonl
from weakdet.errors import ConfigError, ParseError
from weakdet.evalmetrics import corloc, evaluation_report, mean_ap
from weakdet.trainer import SUB_METHODS, TrainConfig, infer, init_state, load_checkpoint

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"

SMALL_CFG = """
# smoke-scale settings
n_classes = 3
feature_dim = 8
n_scenes = 12
epochs = 2
hidden_dim = 8
embed_dim = 4
"""


@pytest.fixture
def small_cfg_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def run(argv):
    return main(argv)


# ---------------------------------------------------------------- config


def test_config_file_roundtrip(small_cfg_file):
    values = read_config_file(small_cfg_file)
    assert values["n_classes"] == 3
    assert values["epochs"] == 2


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nonexistent_knob = 5\n")
    with pytest.raises(ConfigError):
        read_config_file(str(path))


def test_malformed_config_line_reports_lineno(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_classes = 3\nthis line has no equals sign\n")
    with pytest.raises(ParseError) as exc:
        read_config_file(str(path))
    assert exc.value.line == 2


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("epochs = banana\n")
    with pytest.raises(ConfigError):
        read_config_file(str(path))


def test_flags_override_file(small_cfg_file):
    parser = build_parser()
    args = parser.parse_args(
        ["gen-data", "--config", small_cfg_file, "--out", "x", "--epochs", "7"]
    )
    values = effective_config(args)
    assert values["epochs"] == 7  # flag wins
    assert values["n_classes"] == 3  # file wins over default


CLI_ONLY_KEYS = {"n_scenes", "train_fraction", "ablate_seeds", "gc_seeds", "gc_step", "gc_tolerance"}


def test_every_dataclass_field_has_exactly_one_config_key():
    train_keys = {f.name: f for f in fields(TrainConfig)}
    scene_keys = {"data_seed" if f.name == "seed" else f.name: f for f in fields(SceneConfig)}
    owners = [train_keys, scene_keys, dict.fromkeys(CLI_ONLY_KEYS)]
    for key in CONFIG_HELP:
        assert sum(key in owner for owner in owners) == 1, key
    assert set(CONFIG_HELP) == set(DEFAULTS) == set().union(*owners)
    for key, field in {**train_keys, **scene_keys}.items():
        assert DEFAULTS[key] == field.default, key
        # the default's type chooses the parser, so it must be the declared one
        assert type(field.default).__name__ in str(field.type), key


def test_defaults_build_the_default_configs_and_round_trip():
    assert train_config(DEFAULTS) == TrainConfig()
    scene = scene_config(DEFAULTS)
    assert scene == SceneConfig()
    for key, default in DEFAULTS.items():
        assert _parse_value(key, _format_value(default)) == default, key


def _help_text(capsys, command):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    return " ".join(capsys.readouterr().out.split())


def test_help_documents_every_config_key(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "500")  # no hyphen breaks inside a help text
    text = _help_text(capsys, "gen-data")
    for key, help_text in CONFIG_HELP.items():
        assert f"--{key.replace('_', '-')} {key.upper()} {help_text} (default: " in text


def test_every_schema_default_shown_in_help(capsys):
    text = _help_text(capsys, "train")
    for key, default in DEFAULTS.items():
        shown = re.search(rf"--{key.replace('_', '-')} {key.upper()} .*?\(default: (\S*)\)", text)
        assert shown and shown.group(1) == _format_value(default), key


def test_lse_sharpness_is_an_unknown_key(tmp_path, capsys):
    path = tmp_path / "old.cfg"
    path.write_text("lse_sharpness = 4.0\n")
    assert run(["gen-data", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
    assert "unknown config key 'lse_sharpness'" in capsys.readouterr().err


def test_non_utf8_config_reports_lineno(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"n_classes = 3\nsemantic_init = \xff\n")
    with pytest.raises(ParseError) as exc:
        read_config_file(str(path))
    assert exc.value.line == 2
    assert run(["gen-data", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_input_files_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert run(["gen-data", "--config", missing, "--out", str(tmp_path / "d")]) == 2
    assert run(["train", "--data", missing, "--out", str(tmp_path / "m.ckpt")]) == 2
    assert capsys.readouterr().err.count("No such file") == 2


def test_unwritable_out_exits_2(small_cfg_file, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["gen-data", "--config", small_cfg_file, "--out", str(blocker / "d")]) == 2
    assert "error:" in capsys.readouterr().err


# Every config key, given each of these as a flag and as a config-file line,
# must leave main returning 0 or 2. The last value is bytes that are not UTF-8:
# a file holds them raw, and a flag holds what the OS decodes them to.
FUZZ_VALUES = ("0", "-1", "nan", "inf", "1e308", "", "banana", b"\x00\xff")
FUZZ_BASE = {"n_classes": "3", "feature_dim": "8", "n_scenes": "2", "epochs": "1",
             "hidden_dim": "8", "embed_dim": "4"}


@pytest.fixture(scope="module")
def fuzz_split(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "train.jsonl"
    save_jsonl(path, *generate_dataset(SceneConfig(n_classes=3, feature_dim=8), 2))
    return str(path)


@pytest.mark.parametrize("form", ["flag", "file"])
@pytest.mark.parametrize("command", ["gen-data", "train"])
@pytest.mark.parametrize("key", sorted(DEFAULTS))
def test_every_config_key_fuzzed_exits_0_or_2(key, command, form, fuzz_split, tmp_path):
    path = tmp_path / "fuzz.cfg"
    base = b"".join(f"{k} = {v}\n".encode() for k, v in FUZZ_BASE.items() if k != key)
    data = ["--data", fuzz_split] if command == "train" else []
    outcomes = {}
    for value in FUZZ_VALUES:
        raw = value if isinstance(value, bytes) else value.encode()
        argv = [command, "--config", str(path), *data, "--out", str(tmp_path / "out")]
        if form == "file":
            path.write_bytes(base + key.encode() + b" = " + raw + b"\n")
        else:
            path.write_bytes(base)
            argv.append(f"--{key.replace('_', '-')}={os.fsdecode(raw)}")
        try:
            outcomes[value] = main(argv)
        except Exception as e:  # reported with every other value's outcome
            outcomes[value] = repr(e)
    assert set(outcomes.values()) <= {0, 2}, outcomes


# ---------------------------------------------------------------- gen-data


def test_gen_data_deterministic_bytes(small_cfg_file, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert run(["gen-data", "--config", small_cfg_file, "--out", str(out1)]) == 0
    assert run(["gen-data", "--config", small_cfg_file, "--out", str(out2)]) == 0
    assert (out1 / "train.jsonl").read_bytes() == (out2 / "train.jsonl").read_bytes()
    assert (out1 / "test.jsonl").read_bytes() == (out2 / "test.jsonl").read_bytes()
    bags, gts = load_jsonl(out1 / "train.jsonl")
    assert len(bags) == 10 and len(gts) == 10  # 80% of 12, rounded
    bags, _ = load_jsonl(out1 / "test.jsonl")
    assert len(bags) == 2


def test_gen_data_zero_scenes(small_cfg_file, tmp_path):
    out = tmp_path / "empty"
    assert run(["gen-data", "--config", small_cfg_file, "--n-scenes", "0", "--out", str(out)]) == 0
    assert (out / "train.jsonl").read_text() == ""
    bags, gts = load_jsonl(out / "test.jsonl")
    assert bags == [] and gts == []


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--n-scenes", "-3"], "n_scenes"),
        (["--n-scenes", "4", "--train-fraction", "2"], "train_fraction"),
        (["--train-fraction", "-0.5"], "train_fraction"),
        (["--train-fraction", "nan"], "train_fraction"),
        (["--hidden-dim", "0"], "hidden_dim"),
        (["--phase-mode", "x"], "phase_mode"),
        (["--gc-step", "0"], "gc_step"),
    ],
)
def test_gen_data_rejects_out_of_range_cli_keys(small_cfg_file, tmp_path, flags, field, capsys):
    out = tmp_path / "d"
    assert run(["gen-data", "--config", small_cfg_file, *flags, "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--jitter", "nan"], "jitter"),
        (["--jitter", "1e308"], "jitter"),
        (["--jitter", "2"], "jitter"),
        (["--min-gt-side", "nan"], "min_gt_side"),
        (["--canvas", "nan,128"], "canvas"),
        (["--proposals-per-object", "0", "--background-proposals", "0"], "proposals_per_object"),
        (["--proposals-per-object", "-2", "--background-proposals", "-1"], "proposals_per_object"),
        (["--n-classes", "0"], "n_classes"),
        (["--objects-per-scene", "1,1000000000"], "objects_per_scene"),
        (["--noise-sigma", "inf"], "noise_sigma"),
        (["--context-alpha=-inf"], "context_alpha"),
        (["--data-seed=-1"], "data_seed"),
    ],
)
def test_gen_data_rejects_out_of_range_scene_keys(small_cfg_file, tmp_path, flags, field, capsys):
    out = tmp_path / "d"
    assert run(["gen-data", "--config", small_cfg_file, "--n-scenes", "1", *flags,
                "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_a_config_key_set_twice_is_a_parse_error_naming_both_lines(
    small_cfg_file, tmp_path, command, capsys
):
    path = tmp_path / "twice.cfg"
    path.write_text(Path(small_cfg_file).read_text() + "\n# again\nepochs = 3\n")
    with pytest.raises(ParseError, match=r"^line 11: config key 'epochs' is set twice, on lines 6 "
                                         r"and 11$") as exc:
        read_config_file(str(path))
    assert exc.value.line == 11
    out = tmp_path / "out"
    flags = ["--data", str(tmp_path / "unread.jsonl")] if command == "train" else []
    assert run([command, "--config", str(path), *flags, "--out", str(out)]) == 2
    assert "config key 'epochs' is set twice, on lines 6 and 11" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- train/eval


@pytest.fixture
def trained(small_cfg_file, tmp_path):
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    run(["gen-data", "--config", small_cfg_file, "--out", str(data)])
    code = run(
        ["train", "--config", small_cfg_file, "--data", str(data / "train.jsonl"), "--out", str(ckpt)]
    )
    assert code == 0
    return small_cfg_file, data, ckpt


@pytest.fixture
def six_scene_split(small_cfg_file, tmp_path):
    data = tmp_path / "data"
    assert run(["gen-data", "--config", small_cfg_file, "--n-scenes", "6", "--out", str(data)]) == 0
    return small_cfg_file, data / "train.jsonl"


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--hidden-dim", "0"], "hidden_dim"),
        (["--embed-dim", "0"], "embed_dim"),
        (["--knn-k", "-1"], "knn_k"),
        (["--knn-k", "0"], "knn_k"),
        (["--graph-iou", "nan"], "graph_iou"),
        (["--graph-iou", "2.0"], "graph_iou"),
        (["--graph-iou", "-0.1"], "graph_iou"),
        (["--graph-iou", "inf"], "graph_iou"),
        (["--hidden-dim", "99999999999"], "hidden_dim"),
        (["--hidden-dim", "4097"], "hidden_dim"),
        (["--embed-dim", "4097"], "embed_dim"),
        (["--knn-k", "10001"], "knn_k"),
        (["--seed=-1"], "seed"),
        (["--epochs=-1"], "epochs"),
        (["--batch-size", "0"], "batch_size"),
        (["--phase-mode", "mixed"], "phase_mode"),
        (["--semantic-init", ""], "semantic_init"),
        (["--center-init", "zeros"], "center_init"),
    ],
)
def test_train_rejects_out_of_range_projector_and_graph_keys(
    six_scene_split, tmp_path, flags, field, capsys
):
    cfg_file, train_jsonl = six_scene_split
    ckpt = tmp_path / "m.ckpt"
    capsys.readouterr()
    code = run(["train", "--config", cfg_file, "--data", str(train_jsonl), "--epochs", "1",
                *flags, "--out", str(ckpt)])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not ckpt.exists()


def test_projector_and_graph_keys_accept_their_edges():
    TrainConfig(hidden_dim=1, embed_dim=1, knn_k=1, graph_iou=0.0)
    TrainConfig(graph_iou=1.0)
    TrainConfig(hidden_dim=4096, embed_dim=4096, knn_k=10_000, epochs=0, seed=0)
    TrainConfig(seed=2**70)


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--nms-iou", "nan"], "nms_iou"),
        (["--nms-iou", "1.5"], "nms_iou"),
        (["--nms-iou", "-0.1"], "nms_iou"),
        (["--min-score", "nan"], "min_score"),
        (["--min-score", "inf"], "min_score"),
        (["--min-score", "-0.001"], "min_score"),
        (["--min-proposal-side", "nan"], "min_proposal_side"),
        (["--min-proposal-side", "inf"], "min_proposal_side"),
        (["--min-proposal-side", "-1"], "min_proposal_side"),
        (["--jitter", "nan"], "jitter"),
        (["--gc-step", "0"], "gc_step"),
        (["--gc-tolerance", "inf"], "gc_tolerance"),
    ],
)
def test_train_and_eval_reject_out_of_range_decode_keys(trained, tmp_path, flags, field, capsys):
    cfg_file, data, ckpt = trained
    out = tmp_path / "m.ckpt"
    capsys.readouterr()
    assert run(["train", "--config", cfg_file, "--data", str(data / "train.jsonl"),
                "--epochs", "1", *flags, "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()
    report = tmp_path / "r.json"
    assert run(["eval", "--config", cfg_file, "--checkpoint", str(ckpt),
                "--data", str(data / "test.jsonl"), *flags, "--out", str(report)]) == 2
    assert field in capsys.readouterr().err
    assert not report.exists()


def test_decode_keys_accept_their_edges(trained, tmp_path):
    TrainConfig(nms_iou=0.0, min_score=0.0, min_proposal_side=0.0)
    TrainConfig(nms_iou=1.0, min_score=1.0, min_proposal_side=1e308)
    cfg_file, data, ckpt = trained
    for flags in (["--nms-iou", "0", "--min-score", "0", "--min-proposal-side", "0"],
                  ["--nms-iou", "1", "--min-score", "1", "--min-proposal-side", "1e308"]):
        assert run(["eval", "--config", cfg_file, "--checkpoint", str(ckpt),
                    "--data", str(data / "test.jsonl"), *flags,
                    "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--momentum", "-3"], "momentum"),
        (["--momentum", "1"], "momentum"),
        (["--momentum", "nan"], "momentum"),
        (["--weight-decay", "-1"], "weight_decay"),
        (["--weight-decay", "nan"], "weight_decay"),
        (["--weight-decay", "inf"], "weight_decay"),
        (["--lr-schedule", "0:-1"], "lr_schedule"),
        (["--lr-schedule", "0:nan"], "lr_schedule"),
        (["--lr-schedule", "0:inf"], "lr_schedule"),
        (["--lr-schedule", "nan:1e-3"], "lr_schedule"),
        (["--lr-schedule", "0:1e-3,inf:1e-4"], "lr_schedule"),
        (["--tau", "0"], "tau"),
        (["--tau", "-5"], "tau"),
        (["--tau", "nan"], "tau"),
        (["--tau", "inf"], "tau"),
        (["--lambda-ins", "nan"], "lambda_ins"),
        (["--lambda-ins", "-1"], "lambda_ins"),
        (["--lambda-sem", "inf"], "lambda_sem"),
        (["--lambda-igcl", "nan"], "lambda_igcl"),
        (["--lambda-igcl=-inf"], "lambda_igcl"),
        (["--label-ratio", "0"], "label_ratio"),
        (["--label-ratio", "1.5"], "label_ratio"),
        (["--label-ratio", "nan"], "label_ratio"),
        (["--center-rate", "-0.1"], "center_rate"),
        (["--center-rate", "1.5"], "center_rate"),
        (["--center-rate", "nan"], "center_rate"),
    ],
)
def test_train_and_eval_reject_out_of_range_optimizer_and_loss_keys(
    trained, tmp_path, flags, field, capsys
):
    cfg_file, data, ckpt = trained
    out = tmp_path / "m.ckpt"
    capsys.readouterr()
    assert run(["train", "--config", cfg_file, "--data", str(data / "train.jsonl"),
                "--epochs", "1", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ") and "bag" not in err
    assert not out.exists()
    report = tmp_path / "r.json"
    assert run(["eval", "--config", cfg_file, "--checkpoint", str(ckpt),
                "--data", str(data / "test.jsonl"), *flags, "--out", str(report)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} ")
    assert not report.exists()


def test_optimizer_and_loss_keys_accept_their_edges(trained, tmp_path):
    TrainConfig(momentum=0.0, weight_decay=0.0, lr_schedule=((-1e308, 0.0),), tau=5e-324,
                lambda_ins=0.0, lambda_sem=0.0, lambda_igcl=0.0, label_ratio=1.0, center_rate=0.0)
    TrainConfig(momentum=0.999, weight_decay=1e308, lr_schedule=((0.0, 1e308), (1e308, 0.0)),
                tau=1e308, lambda_ins=1e308, label_ratio=5e-324, center_rate=1.0)
    cfg_file, data, ckpt = trained
    assert run(["train", "--config", cfg_file, "--data", str(data / "train.jsonl"),
                "--epochs", "1", "--momentum", "0", "--weight-decay", "0", "--lr-schedule",
                "0:0", "--lambda-igcl", "0", "--label-ratio", "1", "--center-rate", "1",
                "--out", str(tmp_path / "m.ckpt")]) == 0


def test_train_outputs(trained):
    _, _, ckpt = trained
    assert ckpt.exists()
    csv = Path(str(ckpt) + ".metrics.csv")
    lines = csv.read_text().splitlines()
    assert lines[0] == "epoch,loss_total,loss_ins,loss_sem,loss_igcl,lr"
    assert len(lines) == 3  # header + 2 epochs


def test_train_checkpoint_bitwise_reproducible(trained, tmp_path):
    cfg_file, data, ckpt = trained
    again = tmp_path / "again.ckpt"
    run(["train", "--config", cfg_file, "--data", str(data / "train.jsonl"), "--out", str(again)])
    assert ckpt.read_bytes() == again.read_bytes()


def test_eval_report_schema_and_ranges(trained, tmp_path):
    cfg_file, data, ckpt = trained
    report_path = tmp_path / "report.json"
    code = run(
        [
            "eval", "--config", cfg_file, "--checkpoint", str(ckpt),
            "--data", str(data / "test.jsonl"), "--split", "test", "--out", str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"map50", "coco_map", "corloc", "per_class", "config_echo"}
    assert 0.0 <= report["map50"] <= 1.0
    assert 0.0 <= report["coco_map"] <= report["map50"] + 1e-12
    assert report["corloc"] is None
    assert report["config_echo"]["split"] == "test"

    train_report = tmp_path / "train_report.json"
    run(
        [
            "eval", "--config", cfg_file, "--checkpoint", str(ckpt),
            "--data", str(data / "train.jsonl"), "--split", "train", "--out", str(train_report),
        ]
    )
    rep = json.loads(train_report.read_text())
    assert rep["map50"] is None
    assert 0.0 <= rep["corloc"] <= 1.0


def test_eval_echoes_the_checkpoint_k_and_d(trained, tmp_path):
    """Without a config the command's own K and D are the defaults, 6 and 32;
    the report echoes the 3 and 8 the checkpoint was trained with."""
    _, data, ckpt = trained
    out = tmp_path / "r.json"
    assert run(["eval", "--checkpoint", str(ckpt), "--data", str(data / "test.jsonl"),
                "--out", str(out)]) == 0
    echo = json.loads(out.read_text())["config_echo"]
    assert (echo["n_classes"], echo["feature_dim"]) == ("3", "8")


@pytest.mark.parametrize("fraction, empty", [("1", "test"), ("0", "train")])
def test_eval_and_ablate_refuse_a_split_with_no_bags(trained, tmp_path, fraction, empty, capsys):
    """A split with no ground truth has no mAP: both commands exit 2 naming
    the empty file, and write nothing."""
    cfg_file, _, ckpt = trained
    data = tmp_path / "split"
    assert run(["gen-data", "--config", cfg_file, "--train-fraction", fraction,
                "--out", str(data)]) == 0
    capsys.readouterr()
    path = data / f"{empty}.jsonl"
    report, table = tmp_path / "r.json", tmp_path / "a.csv"
    assert run(["eval", "--config", cfg_file, "--checkpoint", str(ckpt), "--data", str(path),
                "--split", empty, "--out", str(report)]) == 2
    assert capsys.readouterr().err == f"error: {empty} split {path} has no bags\n"
    assert run(["ablate", "--config", cfg_file, "--epochs", "0", "--ablate-seeds", "1",
                "--data", str(data), "--out", str(table)]) == 2
    assert capsys.readouterr().err == f"error: {empty} split {path} has no bags\n"
    assert not report.exists() and not table.exists()


def test_eval_rejects_mismatched_checkpoint(trained, tmp_path, capsys):
    cfg_file, data, _ = trained
    from weakdet.trainer import save_checkpoint

    wrong = init_state(TrainConfig(hidden_dim=8, embed_dim=4), n_classes=5, feature_dim=8)
    wrong_path = tmp_path / "wrong.ckpt"
    save_checkpoint(wrong, wrong_path)
    code = run(
        [
            "eval", "--config", cfg_file, "--checkpoint", str(wrong_path),
            "--data", str(data / "test.jsonl"), "--out", str(tmp_path / "r.json"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: checkpoint (K, D) = (5, 8) does not match test split (3, 8)\n"


def test_eval_rejects_a_checkpoint_missing_a_group(trained, tmp_path, capsys):
    cfg_file, data, ckpt = trained
    from weakdet.trainer import load_checkpoint, save_checkpoint

    state = load_checkpoint(ckpt)
    del state.params["w_sem"], state.velocity["w_sem"]
    bad = tmp_path / "no_w_sem.ckpt"
    save_checkpoint(state, bad)
    capsys.readouterr()
    code = run(
        [
            "eval", "--config", cfg_file, "--checkpoint", str(bad),
            "--data", str(data / "test.jsonl"), "--out", str(tmp_path / "r.json"),
        ]
    )
    assert code == 2
    assert "'param/w_sem' is missing" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated", "padded"])
def test_eval_rejects_a_damaged_checkpoint(trained, tmp_path, damage, capsys):
    cfg_file, data, ckpt = trained
    blob = ckpt.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[: len(blob) // 2] if damage == "truncated" else blob + b"\0")
    capsys.readouterr()
    code = run(
        [
            "eval", "--config", cfg_file, "--checkpoint", str(bad),
            "--data", str(data / "test.jsonl"), "--out", str(tmp_path / "r.json"),
        ]
    )
    assert code == 2
    assert "checkpoint" in capsys.readouterr().err


def test_perfect_oracle_checkpoint_gives_unit_map(tmp_path):
    # noise-free, jitter-free scenes; the prototype-initialized semantic
    # branch scores every true box above every distractor
    scene = SceneConfig(
        n_classes=3, feature_dim=8, noise_sigma=0.0, jitter=0.0,
        context_alpha=0.0, objects_per_scene=(1, 2), seed=1,
    )
    bags, gts = generate_dataset(scene, 10)
    cfg = TrainConfig(modules=frozenset({"M2"}), hidden_dim=8, embed_dim=4)
    state = init_state(cfg, 3, 8)
    dets = [d for b in bags for d in infer(b, state, cfg)]
    assert mean_ap(dets, gts, 3, 0.5) == 1.0
    assert corloc(dets, gts, 3) == 1.0


def test_report_command_prints_summary(trained, tmp_path, capsys):
    cfg_file, data, ckpt = trained
    report_path = tmp_path / "report.json"
    run(
        [
            "eval", "--config", cfg_file, "--checkpoint", str(ckpt),
            "--data", str(data / "test.jsonl"), "--out", str(report_path),
        ]
    )
    capsys.readouterr()
    assert run(["report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "map50" in out and "corloc" in out and "class 0" in out


@pytest.mark.parametrize(
    "content, field",
    [
        (b'{"map50": 0.5, "per', "not a JSON report"),
        (b"[1, 2]", "JSON object"),
        (b"\xff\xfe", "not a JSON report"),
        (b'{"per_class": {"x": {}}}', "'x'"),
        (b'{"map50": "abc"}', "'map50'"),
        (b'{"corloc": true}', "'corloc'"),
        (b'{"coco_map": NaN}', "'coco_map'"),
        (b'{"map50": 1' + b"0" * 400 + b"}", "'map50'"),
        (b'{"per_class": [0.5]}', "'per_class'"),
        (b'{"per_class": {"0": 0.5}}', "'per_class.0'"),
        (b'{"per_class": {"0": {"ap50": "x"}}}', "'per_class.0.ap50'"),
        (b'{"config_echo": ["split"]}', "'config_echo'"),
    ],
)
def test_report_rejects_a_bad_report_file(tmp_path, content, field, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert run(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert field in captured.err and captured.out == ""


def test_report_prints_nulls_and_sorts_classes(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"map50": 0.5, "coco_map": None, "corloc": 1,
                                "per_class": {"10": {"ap50": None}, "2": {"ap50": 0.25}},
                                "config_echo": {"split": "test"}}))
    assert run(["report", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    map50: 0.5000", " coco_map: -", "   corloc: 1.0000",
        "  class 2: ap50=0.2500", "  class 10: ap50=-", "config: 1 keys echoed (split=test)",
    ]


# ---------------------------------------------------------------- golden


def test_golden_report_bytes_stable(tmp_path):
    """Pinned end-to-end output; regenerate with tests/golden/regen.py."""
    cfg_file = tmp_path / "golden.cfg"
    cfg_file.write_text((GOLDEN / "golden.cfg").read_text())
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    report = tmp_path / "report.json"
    run(["gen-data", "--config", str(cfg_file), "--out", str(data)])
    run(["train", "--config", str(cfg_file), "--data", str(data / "train.jsonl"), "--out", str(ckpt)])
    run(
        [
            "eval", "--config", str(cfg_file), "--checkpoint", str(ckpt),
            "--data", str(data / "test.jsonl"), "--split", "test", "--out", str(report),
        ]
    )
    assert report.read_bytes() == (GOLDEN / "report.json").read_bytes()


# ---------------------------------------------------------------- ablate


def test_ablate_zero_epochs_equals_untrained_baselines(small_cfg_file, tmp_path):
    data = tmp_path / "data"
    run(["gen-data", "--config", small_cfg_file, "--out", str(data)])
    out = tmp_path / "ablation.csv"
    code = run(
        [
            "ablate", "--config", small_cfg_file, "--epochs", "0",
            "--ablate-seeds", "1", "--data", str(data), "--out", str(out),
        ]
    )
    assert code == 0
    rows = {}
    for line in out.read_text().splitlines():
        if line.startswith("#") or line.startswith("submethod"):
            continue
        name, mask, map50, cor = line.split(",")
        rows[name] = (mask, float(map50), float(cor))

    assert set(rows) == set("ABCDEF")
    # with no training, metrics depend only on the inference mask
    assert rows["A"][1:] == rows["C"][1:]
    assert rows["B"][1:] == rows["D"][1:]
    assert rows["E"][1:] == rows["F"][1:]

    # and each row equals a directly computed untrained baseline
    train_bags, train_gts = load_jsonl(data / "train.jsonl")
    test_bags, test_gts = load_jsonl(data / "test.jsonl")
    for name in ("A", "F"):
        cfg = TrainConfig(
            modules=SUB_METHODS[name], hidden_dim=8, embed_dim=4, epochs=0, seed=0
        )
        state = init_state(cfg, 3, 8)
        dets = [d for b in test_bags for d in infer(b, state, cfg)]
        assert abs(rows[name][1] - mean_ap(dets, test_gts, 3, 0.5)) < 1e-12
        train_dets = [d for b in train_bags for d in infer(b, state, cfg)]
        assert abs(rows[name][2] - corloc(train_dets, train_gts, 3)) < 1e-12


def test_ablate_rejects_zero_seeds(small_cfg_file, tmp_path, capsys):
    data = tmp_path / "data"
    run(["gen-data", "--config", small_cfg_file, "--out", str(data)])
    code = run(
        [
            "ablate", "--config", small_cfg_file, "--epochs", "0",
            "--ablate-seeds", "0", "--data", str(data), "--out", str(tmp_path / "a.csv"),
        ]
    )
    assert code == 2
    assert "ablate_seeds" in capsys.readouterr().err


def test_ablate_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert run(["ablate", "--seed=-1", "--data", str(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_ablate_rejects_an_empty_train_split(small_cfg_file, tmp_path, capsys):
    data = tmp_path / "data"
    run(["gen-data", "--config", small_cfg_file, "--train-fraction", "0", "--out", str(data)])
    code = run(
        [
            "ablate", "--config", small_cfg_file, "--epochs", "0",
            "--ablate-seeds", "1", "--data", str(data), "--out", str(tmp_path / "a.csv"),
        ]
    )
    assert code == 2
    assert "train split" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, dims", [("--n-classes", "2", "(2, 8)"),
                                               ("--n-classes", "5", "(5, 8)"),
                                               ("--feature-dim", "10", "(3, 10)")])
def test_ablate_rejects_a_test_split_of_another_k_or_d(
    small_cfg_file, tmp_path, capsys, flag, value, dims
):
    """A test split with fewer or more classes, or another feature width,
    than the train split is refused before any training."""
    data, other = tmp_path / "data", tmp_path / "other"
    run(["gen-data", "--config", small_cfg_file, "--out", str(data)])
    run(["gen-data", "--config", small_cfg_file, flag, value, "--out", str(other)])
    (data / "test.jsonl").write_bytes((other / "test.jsonl").read_bytes())
    out = tmp_path / "a.csv"
    code = run(
        [
            "ablate", "--config", small_cfg_file, "--epochs", "0",
            "--ablate-seeds", "1", "--data", str(data), "--out", str(out),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: train split (K, D) = (3, 8) does not match test split {dims}\n"
    assert not out.exists()


def test_ablate_csv_embeds_config_echo(small_cfg_file, tmp_path):
    data = tmp_path / "data"
    run(["gen-data", "--config", small_cfg_file, "--out", str(data)])
    out = tmp_path / "ablation.csv"
    run(
        [
            "ablate", "--config", small_cfg_file, "--epochs", "0",
            "--ablate-seeds", "1", "--data", str(data), "--out", str(out),
        ]
    )
    text = out.read_text()
    assert "# n_classes = 3" in text
    assert "submethod,modules,map50_median,corloc_median" in text


def test_ablate_csv_echoes_the_splits_k_and_d(small_cfg_file, tmp_path):
    """With no K or D flag, the header gives the split's (3, 8), not the
    command's defaults."""
    data = tmp_path / "data"
    run(["gen-data", "--config", small_cfg_file, "--out", str(data)])
    out = tmp_path / "ablation.csv"
    assert run(["ablate", "--epochs", "0", "--ablate-seeds", "1",
                "--data", str(data), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "# n_classes = 3" in lines and "# feature_dim = 8" in lines


def test_checkpoint_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The package pins BLAS to one thread before numpy loads: with 420
    background proposals a bag's matrix products are large enough for
    OpenBLAS to split among threads, and at two threads the trained bits
    differed from one thread's."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

    def weakdet(*argv, **extra_env):
        subprocess.run([sys.executable, "-m", "weakdet", *argv], cwd=tmp_path,
                       env={**env, **extra_env}, check=True, capture_output=True, timeout=300)

    weakdet("gen-data", "--n-scenes", "6", "--background-proposals", "420", "--out", "data")
    digests = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}, {}):
        weakdet("train", "--data", "data/train.jsonl", "--epochs", "1", "--out", "m.ckpt", **threads)
        digests.append(hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest())
    assert digests[1:] == digests[:1] * 2, digests


# ---------------------------------------------------------------- grad-check


def test_grad_check_passes(capsys):
    assert run(["grad-check", "--gc-seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_grad_check_detects_injected_fault(capsys):
    assert run(["grad-check", "--gc-seeds", "1", "--inject-grad-fault"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_grad_check_audits_the_corr_sem_ema_blend(capsys, monkeypatch):
    from weakdet import cli

    audited = []
    original = cli.run_checks

    def spy(**kwargs):
        audited.append(kwargs["cfg"].corr_sem_ema)
        return original(**kwargs)

    monkeypatch.setattr(cli, "run_checks", spy)
    assert run(["grad-check", "--gc-seeds", "1", "--corr-sem-ema", "0.5"]) == 0
    assert audited == [0.5]
    assert capsys.readouterr().out.count("PASS") == 5


def _printed_losses(out):
    return [line.split(":")[0] for line in out.splitlines() if not line.startswith(" ")]


def test_grad_check_honours_modules(capsys):
    assert run(["grad-check", "--gc-seeds", "1", "--modules", "M1"]) == 0
    out = capsys.readouterr().out
    assert _printed_losses(out) == ["loss_ins", "composite"]
    assert "gcn_" not in out and "w_sem" not in out
    assert run(["grad-check", "--gc-seeds", "1", "--modules", "M1,M2,M3"]) == 0
    printed = _printed_losses(capsys.readouterr().out)
    assert {"loss_con_ins", "loss_con_sem"} <= set(printed)
    assert "loss_con_sd" not in printed and "loss_con_ds" not in printed


def test_grad_check_rejects_an_invalid_mask(capsys):
    assert run(["grad-check", "--gc-seeds", "1", "--modules", "M1,M4"]) == 2


def test_grad_check_rejects_zero_seeds(capsys):
    assert run(["grad-check", "--gc-seeds", "0"]) == 2
    assert "gc_seeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", ["--gc-step=0", "--gc-step=nan", "--gc-tolerance=0", "--gc-tolerance=-1",
             "--gc-tolerance=inf"],
)
def test_grad_check_rejects_a_bad_step_or_tolerance(flag, capsys):
    assert run(["grad-check", "--gc-seeds", "1", flag]) == 2
    err = capsys.readouterr().err
    assert flag.split("=")[0][len("--gc-"):] in err and "finite and > 0" in err


@pytest.mark.parametrize("step", ["1e-300", "1e-17"])
def test_grad_check_rejects_a_step_that_moves_no_parameter(step, capsys):
    """x + h == x makes every difference 0 and the audit a false failure:
    a config error (exit 2) naming the step and the entry, not exit 1."""
    assert run(["grad-check", "--gc-seeds", "1", "--gc-step", step]) == 2
    captured = capsys.readouterr()
    assert f"step {float(step)} does not move entry" in captured.err
    assert "max_rel_err" not in captured.out


def test_grad_check_all_lambdas_zero_trivially_passes(capsys):
    code = run(
        [
            "grad-check", "--gc-seeds", "1",
            "--lambda-ins", "0", "--lambda-sem", "0", "--lambda-igcl", "0",
        ]
    )
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("bad", [2, 0.7, -1, True])
def test_train_and_eval_reject_tags_outside_zero_one(trained, tmp_path, bad, capsys):
    cfg_file, data, ckpt = trained
    lines = (data / "test.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    rec["tags"][0] = bad
    path = tmp_path / "bad_tags.jsonl"
    path.write_text(json.dumps(rec) + "\n" + "\n".join(lines[1:]) + "\n")
    capsys.readouterr()
    assert run(["train", "--config", cfg_file, "--data", str(path),
                "--out", str(tmp_path / "m.ckpt")]) == 2
    assert run(["eval", "--config", cfg_file, "--checkpoint", str(ckpt),
                "--data", str(path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "tags" in err


def test_eval_rejects_a_non_string_image_id(trained, tmp_path, capsys):
    """One bag saved twice, as ids 5 and "img": evaluation would compare
    the two ids when it sorts tied detections."""
    cfg_file, data, ckpt = trained
    rec = json.loads((data / "test.jsonl").read_text().splitlines()[0])
    path = tmp_path / "mixed_ids.jsonl"
    path.write_text(json.dumps({**rec, "image_id": 5}) + "\n"
                    + json.dumps({**rec, "image_id": "img"}) + "\n")
    capsys.readouterr()
    assert run(["eval", "--config", cfg_file, "--checkpoint", str(ckpt),
                "--data", str(path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 1" in err and "image_id 5" in err


def test_eval_scores_a_bag_of_only_tiny_proposals_as_all_misses(trained, tmp_path, capsys):
    """Every proposal of the first bag is below min_proposal_side (16 px):
    eval gives it no detections and counts its ground truth as missed, while
    train still rejects it, naming the bag."""
    cfg_file, data, ckpt = trained
    bags, gts = load_jsonl(data / "test.jsonl")
    bags = bags[:3]
    tiny = [Box(b.x1, b.y1, b.x1 + 10.0, b.y1 + 12.0) for b in bags[0].proposals]
    bags[0] = replace(bags[0], proposals=tiny)
    gts = [g for g in gts if g.image_id in {b.image_id for b in bags}]
    assert any(g.image_id == bags[0].image_id for g in gts)
    path = tmp_path / "tiny.jsonl"
    save_jsonl(path, bags, gts)
    out = tmp_path / "r.json"
    assert run(["eval", "--config", cfg_file, "--checkpoint", str(ckpt),
                "--data", str(path), "--out", str(out)]) == 0
    cfg = train_config(effective_config(build_parser().parse_args(
        ["eval", "--config", cfg_file, "--checkpoint", str(ckpt), "--data", str(path),
         "--out", str(out)])))
    state = load_checkpoint(str(ckpt))
    assert infer(bags[0], state, cfg) == []
    dets = [d for b in bags[1:] for d in infer(b, state, cfg)]
    report = json.loads(out.read_text())
    expected = evaluation_report(dets, gts, state.n_classes, config_echo=report["config_echo"])
    assert report == json.loads(json.dumps(expected))
    unseen = evaluation_report(dets, [g for g in gts if g.image_id != bags[0].image_id],
                               state.n_classes)
    assert report["map50"] != unseen["map50"]  # the tiny bag's objects count as misses

    capsys.readouterr()
    assert run(["train", "--config", cfg_file, "--data", str(path),
                "--out", str(tmp_path / "m.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bags[0].image_id in err and "16.0px" in err


@pytest.mark.parametrize("phase_mode", ["fused", "sequential"])
def test_a_bag_with_fewer_proposals_than_positive_tags_trains_and_evaluates(
    six_scene_split, tmp_path, phase_mode
):
    """Two bags keep one and two proposals and tag all three classes: the
    repair pass leaves the surplus classes unlabelled, every sub-method
    trains on the file, and eval scores it."""
    cfg_file, train_jsonl = six_scene_split
    bags, gts = load_jsonl(train_jsonl)
    for i, m in ((0, 1), (1, 2)):
        bags[i] = replace(bags[i], proposals=bags[i].proposals[:m],
                          features=bags[i].features[:m], tags=np.ones(3, dtype=int))
    path = tmp_path / "few.jsonl"
    save_jsonl(path, bags, gts)
    for method, modules in sorted(SUB_METHODS.items()):
        ckpt, out = tmp_path / f"{method}.ckpt", tmp_path / f"{method}.json"
        flags = ["--config", cfg_file, "--modules", ",".join(sorted(modules)),
                 "--phase-mode", phase_mode]
        assert run(["train", *flags, "--data", str(path), "--out", str(ckpt)]) == 0, method
        assert run(["eval", *flags, "--checkpoint", str(ckpt), "--data", str(path),
                    "--out", str(out)]) == 0, method
        assert 0.0 <= json.loads(out.read_text())["map50"] <= 1.0


@pytest.mark.parametrize("phase_mode", ["fused", "sequential"])
def test_a_bag_with_no_positive_tag_trains_and_evaluates(six_scene_split, tmp_path, phase_mode):
    """A three-bag file whose middle bag is a negative image (all-zero tags,
    no ground truth): every sub-method trains on it, and eval scores it as a
    test split and as a train split."""
    cfg_file, train_jsonl = six_scene_split
    bags, gts = load_jsonl(train_jsonl)
    bags, gts = bags[:3], gts[:3]
    bags[1] = replace(bags[1], tags=np.zeros(3, dtype=int))
    gts[1] = replace(gts[1], objects=[])
    path = tmp_path / "negative.jsonl"
    save_jsonl(path, bags, gts)
    for method, modules in sorted(SUB_METHODS.items()):
        ckpt = tmp_path / f"{method}.ckpt"
        flags = ["--config", cfg_file, "--modules", ",".join(sorted(modules)),
                 "--phase-mode", phase_mode]
        assert run(["train", *flags, "--data", str(path), "--out", str(ckpt)]) == 0, method
        for split in ("test", "train"):
            out = tmp_path / f"{method}-{split}.json"
            assert run(["eval", *flags, "--checkpoint", str(ckpt), "--data", str(path),
                        "--split", split, "--out", str(out)]) == 0, (method, split)
            score = json.loads(out.read_text())["map50" if split == "test" else "corloc"]
            assert 0.0 <= score <= 1.0


def test_a_file_of_bags_without_tags_exits_2(six_scene_split, tmp_path, capsys):
    """K = 0: a two-bag file whose bags have "tags": [] is a parse error that
    names the first line, for train and for eval, not a raw traceback."""
    cfg_file, train_jsonl = six_scene_split
    rec = {"canvas": [128.0, 128.0], "proposals": [[0, 0, 40, 40], [10, 10, 60, 60]],
           "features": [[0.5] * 8, [0.25] * 8], "tags": [], "gt": []}
    path = tmp_path / "no_tags.jsonl"
    path.write_text("".join(json.dumps({"image_id": i, **rec}) + "\n" for i in ("a", "b")))
    ckpt = tmp_path / "m.ckpt"
    capsys.readouterr()
    assert run(["train", "--config", cfg_file, "--epochs", "1", "--data", str(path),
                "--out", str(ckpt)]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: ")
    assert run(["train", "--config", cfg_file, "--epochs", "1", "--data", str(train_jsonl),
                "--out", str(ckpt)]) == 0
    capsys.readouterr()
    assert run(["eval", "--config", cfg_file, "--checkpoint", str(ckpt), "--data", str(path),
                "--out", str(tmp_path / "report.json")]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: ")


def test_overflowing_features_exit_2_without_a_numpy_warning(six_scene_split, tmp_path, capsys):
    cfg_file, train_jsonl = six_scene_split
    bags, gts = load_jsonl(train_jsonl)
    bags[0] = replace(bags[0], features=np.full(bags[0].features.shape, 1e308))
    for save in (save_jsonl, save_jsonl_as_lists):
        path = tmp_path / "huge.jsonl"
        save(path, bags, gts)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["train", "--config", cfg_file, "--data", str(path),
                        "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and bags[0].image_id in err


def _narrow_third_bag(bags, gts, path):
    bags[2] = replace(bags[2], features=bags[2].features[:, :-1])
    save_jsonl(path, bags, gts)


def _edit_third_line(change):
    def write(bags, gts, path):
        save_jsonl_as_lists(path, bags, gts)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        change(rec)
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
    return write


@pytest.mark.parametrize(
    "write, match",
    [
        (_narrow_third_bag, "D=7 feature columns, but the bag on line 1 has K=3 and D=8"),
        (_edit_third_line(lambda r: r["proposals"][0].__setitem__(0, "6.91")),
         "proposal coordinate"),
        (_edit_third_line(lambda r: r["features"][0].__setitem__(0, True)), "JSON numbers"),
        (_edit_third_line(lambda r: r["features"][0].__setitem__(0, None)), "JSON numbers"),
        (_edit_third_line(lambda r: r["features"][1].pop()), "inhomogeneous"),
        (_edit_third_line(lambda r: r.update(features=[])), "feature rows must align"),
        (_edit_third_line(lambda r: r.update(features=[[] for _ in r["features"]])),
         "features have no columns"),
        (_edit_third_line(lambda r: r["proposals"][1].pop()), r"box \[.*\] is not 4 coordinates$"),
        (_edit_third_line(lambda r: r["proposals"][1].append(9.0)),
         r"box \[.*\] is not 4 coordinates$"),
    ],
    ids=["narrow_features", "string_coordinate", "bool_feature", "null_feature",
         "ragged_features", "empty_features", "empty_feature_rows", "short_proposal",
         "long_proposal"],
)
def test_train_and_eval_reject_a_bag_naming_its_line(trained, tmp_path, write, match, capsys):
    cfg_file, data, ckpt = trained
    bags, gts = load_jsonl(data / "train.jsonl")
    path = tmp_path / "four.jsonl"
    write(bags[:4], gts[:4], path)
    capsys.readouterr()
    assert run(["train", "--config", cfg_file, "--data", str(path),
                "--out", str(tmp_path / "m.ckpt")]) == 2
    assert run(["eval", "--config", cfg_file, "--checkpoint", str(ckpt),
                "--data", str(path), "--out", str(tmp_path / "r.json")]) == 2
    train_err, eval_err = capsys.readouterr().err.splitlines()
    for err in (train_err, eval_err):
        assert err.startswith("error: line 3: ") and re.search(match, err)
