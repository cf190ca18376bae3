import json
from pathlib import Path

import pytest

from weakdet.cli import (
    CONFIG_SCHEMA,
    build_parser,
    effective_config,
    main,
    read_config_file,
)
from weakdet.datamodel import SceneConfig, generate_dataset, load_jsonl
from weakdet.errors import ConfigError, ParseError
from weakdet.evalmetrics import corloc, mean_ap
from weakdet.trainer import SUB_METHODS, TrainConfig, infer, init_state

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


def test_help_documents_every_config_key(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["gen-data", "--help"])
    text = capsys.readouterr().out
    for key in CONFIG_SCHEMA:
        assert f"--{key.name.replace('_', '-')}" in text
        assert "default:" in text


def test_every_schema_default_shown_in_help(capsys):
    from weakdet.cli import _format_value

    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["train", "--help"])
    text = capsys.readouterr().out.replace("\n", " ")
    squashed = " ".join(text.split())
    for key in CONFIG_SCHEMA:
        assert f"(default: {_format_value(key, key.default)})" in squashed


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


def test_eval_rejects_mismatched_checkpoint(trained, tmp_path):
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
