import json

import numpy as np
import pytest

from weakdet.datamodel import (
    Bag,
    Box,
    SceneConfig,
    class_prototypes,
    default_cooccurrence,
    filter_proposals,
    generate_dataset,
    load_jsonl,
    save_jsonl,
)
from weakdet.errors import ConfigError, EmptyBagError, ParseError
from weakdet.evalmetrics import iou


def small_cfg(**kw):
    base = dict(n_classes=4, feature_dim=8, seed=3)
    base.update(kw)
    return SceneConfig(**base)


# ---------------------------------------------------------------- Box


def test_box_validation():
    with pytest.raises(ConfigError):
        Box(5, 0, 5, 10)
    with pytest.raises(ConfigError):
        Box(0, 0, np.inf, 10)
    b = Box(0, 1, 4, 5)
    assert b.width == 4 and b.height == 4 and b.area == 16


# ---------------------------------------------------------------- generator


def test_generator_deterministic():
    cfg = small_cfg()
    bags1, gts1 = generate_dataset(cfg, 10)
    bags2, gts2 = generate_dataset(cfg, 10)
    for a, b in zip(bags1, bags2):
        assert a.image_id == b.image_id
        assert a.proposals == b.proposals
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.tags, b.tags)
    for g1, g2 in zip(gts1, gts2):
        assert g1.objects == g2.objects


def test_zero_noise_zero_jitter_gives_exact_proposals():
    cfg = small_cfg(noise_sigma=0.0, jitter=0.0)
    bags, gts = generate_dataset(cfg, 20)
    for bag, gt in zip(bags, gts):
        for gt_box, _ in gt.objects:
            assert any(iou(p, gt_box) == 1.0 for p in bag.proposals)


def test_default_benchmark_bag_invariants_and_coverage():
    bags, gts = generate_dataset(SceneConfig(seed=0), 200)
    assert len(bags) == 200
    covered = total = 0
    for bag, gt in zip(bags, gts):
        assert bag.size >= 1
        assert bag.tags.sum() >= 1
        assert np.all(np.isfinite(bag.features))
        for box in bag.proposals:
            assert 0 <= box.x1 < box.x2 <= bag.canvas[0]
            assert 0 <= box.y1 < box.y2 <= bag.canvas[1]
        for gt_box, _ in gt.objects:
            total += 1
            covered += any(iou(p, gt_box) > 0.5 for p in bag.proposals)
    assert covered == total  # every object has a localizable proposal


def test_tags_match_ground_truth():
    bags, gts = generate_dataset(small_cfg(seed=5), 50)
    for bag, gt in zip(bags, gts):
        present = {k for _, k in gt.objects}
        for k in range(bag.n_classes):
            assert bag.tags[k] == (1 if k in present else 0)


def test_noise_free_features_classify_by_prototype():
    cfg = small_cfg(noise_sigma=0.0)
    bags, gts = generate_dataset(cfg, 30)
    protos = class_prototypes(cfg.n_classes, cfg.feature_dim)
    for bag, gt in zip(bags, gts):
        # object proposals come first, proposals_per_object per object
        for j, (_, k) in enumerate(gt.objects):
            rows = bag.features[j * cfg.proposals_per_object : (j + 1) * cfg.proposals_per_object]
            predicted = (rows @ protos.T).argmax(axis=1)
            assert np.all(predicted == k)


def test_prototypes_are_orthonormal_and_fixed():
    p1 = class_prototypes(6, 32)
    p2 = class_prototypes(6, 32)
    assert np.array_equal(p1, p2)
    assert np.allclose(p1 @ p1.T, np.eye(6), atol=1e-12)


def test_config_validation():
    with pytest.raises(ConfigError):
        SceneConfig(n_classes=8, feature_dim=4)
    with pytest.raises(ConfigError):
        SceneConfig(canvas=(32.0, 32.0), min_gt_side=24.0, max_gt_side=64.0)
    with pytest.raises(ConfigError):
        SceneConfig(cooccurrence=np.ones((3, 3)))  # wrong size for K=6
    bad = default_cooccurrence(6)
    bad[0, 1] = 0.9  # breaks symmetry
    with pytest.raises(ConfigError):
        SceneConfig(cooccurrence=bad)


# ---------------------------------------------------------------- filtering


def _bag_with_boxes(boxes):
    rng = np.random.default_rng(0)
    return Bag(
        image_id="t",
        canvas=(128.0, 128.0),
        proposals=boxes,
        features=rng.standard_normal((len(boxes), 4)),
        tags=np.array([1, 0]),
    )


def test_filter_keeps_large_boxes():
    bag = _bag_with_boxes([Box(0, 0, 20, 20), Box(5, 5, 25, 25)])
    assert filter_proposals(bag) is bag


def test_filter_removes_thin_box():
    bag = _bag_with_boxes([Box(0, 0, 20, 20), Box(0, 0, 10, 40), Box(30, 30, 50, 50)])
    out = filter_proposals(bag)
    assert out.size == 2
    assert all(b.width >= 16 and b.height >= 16 for b in out.proposals)
    assert np.array_equal(out.features, bag.features[[0, 2]])


def test_filter_matches_brute_force_count(rng):
    for _ in range(20):
        boxes = []
        for _ in range(int(rng.integers(1, 12))):
            x1, y1 = rng.uniform(0, 60, size=2)
            boxes.append(Box(x1, y1, x1 + rng.uniform(5, 40), y1 + rng.uniform(5, 40)))
        expected = sum(1 for b in boxes if b.width >= 16 and b.height >= 16)
        bag = _bag_with_boxes(boxes)
        if expected == 0:
            with pytest.raises(EmptyBagError):
                filter_proposals(bag)
        else:
            assert filter_proposals(bag).size == expected


# ---------------------------------------------------------------- JSONL


def test_jsonl_empty_roundtrip(tmp_path):
    path = tmp_path / "empty.jsonl"
    save_jsonl(path, [])
    bags, gts = load_jsonl(path)
    assert bags == [] and gts == []


def test_jsonl_single_bag_roundtrip(tmp_path):
    bags, gts = generate_dataset(small_cfg(), 1)
    path = tmp_path / "one.jsonl"
    save_jsonl(path, bags, gts)
    loaded_bags, loaded_gts = load_jsonl(path)
    assert loaded_bags[0].image_id == bags[0].image_id
    assert loaded_bags[0].proposals == bags[0].proposals
    assert np.array_equal(loaded_bags[0].features, bags[0].features)
    assert np.array_equal(loaded_bags[0].tags, bags[0].tags)
    assert loaded_gts[0].objects == gts[0].objects


def test_jsonl_dataset_roundtrip_and_byte_determinism(tmp_path):
    bags, gts = generate_dataset(SceneConfig(seed=0), 200)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_jsonl(p1, bags, gts)
    save_jsonl(p2, bags, gts)
    assert p1.read_bytes() == p2.read_bytes()
    loaded, _ = load_jsonl(p1)
    for a, b in zip(loaded, bags):
        assert np.abs(a.features - b.features).max() < 1e-12
        assert a.proposals == b.proposals


def test_jsonl_schema_fields(tmp_path):
    bags, gts = generate_dataset(small_cfg(), 1)
    path = tmp_path / "one.jsonl"
    save_jsonl(path, bags, gts)
    rec = json.loads(path.read_text().splitlines()[0])
    assert set(rec) == {"image_id", "canvas", "proposals", "features", "tags", "gt"}
    assert all(len(g) == 5 for g in rec["gt"])


def test_jsonl_gt_never_reaches_bag(tmp_path):
    bags, gts = generate_dataset(small_cfg(), 2)
    path = tmp_path / "d.jsonl"
    save_jsonl(path, bags, gts)
    loaded_bags, _ = load_jsonl(path)
    assert not any(hasattr(b, "gt") for b in loaded_bags)


def test_jsonl_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "bad.jsonl"
    bags, gts = generate_dataset(small_cfg(), 1)
    save_jsonl(path, bags, gts)
    with open(path, "a") as fh:
        fh.write('{"image_id": "x"}\n')
    with pytest.raises(ParseError) as exc:
        load_jsonl(path)
    assert exc.value.line == 2


def test_jsonl_non_utf8_line_reports_lineno(tmp_path):
    path = tmp_path / "bad.jsonl"
    bags, gts = generate_dataset(small_cfg(), 1)
    save_jsonl(path, bags, gts)
    with open(path, "ab") as fh:
        fh.write(b'{"image_id": "\xff"}\n')
    with pytest.raises(ParseError) as exc:
        load_jsonl(path)
    assert exc.value.line == 2


BAD_TAGS = [2, 0.7, -1, True]


def _write_with_tag(path, bad):
    """Two bags as JSONL; the second line's first tag is replaced by `bad`."""
    bags, gts = generate_dataset(small_cfg(), 2)
    save_jsonl(path, bags, gts)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["tags"][0] = bad
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("bad", BAD_TAGS)
def test_jsonl_tag_outside_zero_one_reports_lineno(tmp_path, bad):
    path = tmp_path / "tags.jsonl"
    _write_with_tag(path, bad)
    with pytest.raises(ParseError) as exc:
        load_jsonl(path)
    assert exc.value.line == 2
    assert "tags" in str(exc.value)


@pytest.mark.parametrize("bad", [17, 4, -1, 1.7, 1.0, True, "1", None])
def test_jsonl_gt_class_outside_the_class_range_reports_lineno(tmp_path, bad):
    path = tmp_path / "gt.jsonl"
    bags, gts = generate_dataset(small_cfg(), 2)
    save_jsonl(path, bags, gts)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    n_classes = len(rec["tags"])
    assert rec["gt"] and n_classes == 4
    for k in (0, n_classes - 1):  # both ends of the range load
        rec["gt"][0][4] = k
        path.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n")
        assert load_jsonl(path)[1][1].objects[0][1] == k
    rec["gt"][0][4] = bad
    path.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n")
    with pytest.raises(ParseError, match="gt class") as exc:
        load_jsonl(path)
    assert exc.value.line == 2


def _write_with(path, change):
    """Two bags as JSONL; ``change`` edits the second line's record."""
    bags, gts = generate_dataset(small_cfg(), 2)
    save_jsonl(path, bags, gts)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    change(rec)
    path.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n")


@pytest.mark.parametrize(
    "change, match",
    [
        (lambda r: r["gt"][0].extend(["junk", 7]), "gt item"),
        (lambda r: r["gt"][0].pop(), "gt item"),
        (lambda r: r["gt"].append({"box": [0, 0, 9, 9], "k": 0}), "gt item"),
        (lambda r: r.update(tagz=[1, 0, 0, 0]), "unknown record keys \\['tagz'\\]"),
        (lambda r: r.update(canvas="12"), "canvas"),
        (lambda r: r.update(canvas=[1, 2, 3]), "canvas"),
        (lambda r: r.update(canvas=[float("nan"), -5]), "canvas"),
        (lambda r: r.update(canvas=[128.0, float("inf")]), "canvas"),
        (lambda r: r.update(canvas=[128.0, 0]), "canvas"),
        (lambda r: r.update(canvas=[True, 128.0]), "canvas"),
        (lambda r: r.update(canvas=[128.0, "128"]), "canvas"),
        (lambda r: r.update(image_id=5), "image_id 5 is not a string"),
        (lambda r: r.update(image_id=None), "image_id None is not a string"),
        (lambda r: r.update(image_id=["img"]), "image_id"),
    ],
    ids=["gt_long", "gt_short", "gt_object", "unknown_key", "canvas_string", "canvas_three",
         "canvas_nan", "canvas_inf", "canvas_zero", "canvas_bool", "canvas_str_item",
         "image_id_int", "image_id_null", "image_id_list"],
)
def test_jsonl_rejects_a_malformed_record_naming_the_line(tmp_path, change, match):
    path = tmp_path / "strict.jsonl"
    _write_with(path, lambda r: None)
    assert len(load_jsonl(path)[0]) == 2
    _write_with(path, change)
    with pytest.raises(ParseError, match=match) as exc:
        load_jsonl(path)
    assert exc.value.line == 2


def test_jsonl_accepts_an_int_canvas_and_a_record_without_gt(tmp_path):
    path = tmp_path / "ok.jsonl"
    _write_with(path, lambda r: (r.update(canvas=[200, 150.5]), r.pop("gt")))
    bags, gts = load_jsonl(path)
    assert bags[1].canvas == (200.0, 150.5) and gts[1].objects == []


@pytest.mark.parametrize("bad", BAD_TAGS + [np.float64(1.0), np.bool_(True)])
def test_bag_rejects_tags_outside_zero_one(bad):
    with pytest.raises(ConfigError):
        Bag("t", (128.0, 128.0), [Box(0, 0, 20, 20)], np.zeros((1, 4)), [bad, 0])


def test_bag_accepts_zero_one_tags_as_list_or_array():
    for tags in ([1, 0], np.array([0, 1]), [np.int64(1), np.int32(0)], []):
        bag = Bag("t", (128.0, 128.0), [Box(0, 0, 20, 20)], np.zeros((1, 4)), tags)
        assert bag.tags.dtype == np.int64
        assert bag.tags.tolist() == [int(t) for t in tags]
