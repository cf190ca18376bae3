import base64
import copy
import hashlib
import json
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import save_jsonl_as_lists
from weakdet.datamodel import (
    Bag,
    Box,
    BoxArray,
    GroundTruth,
    SceneConfig,
    class_prototypes,
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
    assert Box(0, 1, 4, 5) == (0.0, 1.0, 4.0, 5.0)


def test_box_coordinates_become_python_floats():
    b = Box(1, np.float64(2.5), np.int64(3), np.float32(4.5))
    assert b == (1.0, 2.5, 3.0, 4.5) and list(b) == [1.0, 2.5, 3.0, 4.5]
    assert all(type(v) is float for v in b)
    assert (b.x1, b.y1, b.x2, b.y2) == tuple(b)
    assert repr(b) == "Box(x1=1.0, y1=2.5, x2=3.0, y2=4.5)"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "nan", "inf"])
@pytest.mark.parametrize("at", range(4))
def test_box_rejects_a_non_finite_coordinate(at, bad):
    coords = [0.0, 0.0, 10.0, 10.0]
    coords[at] = bad
    with pytest.raises(ConfigError, match="^box coordinates must be finite$"):
        Box(*coords)


def test_box_checks_each_coordinate_in_order():
    # A non-finite x1 is reported before a y1 that float() cannot read.
    with pytest.raises(ConfigError, match="finite"):
        Box(np.nan, "y", 1, 1)
    with pytest.raises(ValueError):
        Box(0, "y", np.nan, 1)


@pytest.mark.parametrize("coords", [(5, 0, 5, 10), (0, 5, 10, 5), (6, 0, 5, 10), (0, 0, 0, 0)])
def test_box_rejects_a_degenerate_box(coords):
    expected = f"degenerate box {[float(v) for v in coords]}"
    with pytest.raises(ConfigError) as exc:
        Box(*coords)
    assert str(exc.value) == expected


def test_box_is_immutable_and_replace_validates():
    b = Box(0, 1, 4, 5)
    with pytest.raises(AttributeError):
        b.x1 = 2.0
    with pytest.raises(AttributeError):
        b.label = "x"  # no instance dict
    assert b._replace(x2=9) == Box(0, 1, 9, 5)
    with pytest.raises(ConfigError, match="degenerate"):
        b._replace(x2=-1)
    with pytest.raises(ConfigError, match="degenerate"):
        Box._make([3, 3, 3, 3])


def test_equal_boxes_hash_equally():
    a, b = Box(0, 1, 4, 5), Box(0.0, np.float64(1), 4, np.int64(5))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert Box(0, 1, 4, 6) != a


@pytest.mark.parametrize(
    "copier", [lambda b: pickle.loads(pickle.dumps(b)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"])
def test_box_round_trips_through_pickle_and_deepcopy(copier):
    b = Box(0.1, 0.2, 4.75, 5e-300 + 1)
    got = copier(b)
    assert type(got) is Box and got == b and all(type(v) is float for v in got)


# ---------------------------------------------------------------- BoxArray


def test_a_bags_proposals_are_a_read_only_box_array():
    bag = Bag("t", (128.0, 128.0), [Box(0, 0, 20, 20), Box(5, 5, 25, 30), Box(1, 2, 3, 4)],
              np.zeros((3, 2)), [1, 0])
    boxes = bag.proposals
    assert type(boxes) is BoxArray and len(boxes) == bag.size == 3
    with pytest.raises(TypeError, match="does not support item assignment"):
        boxes[1] = Box(0, 0, 9, 9)
    rows = np.asarray(boxes)
    assert rows is np.asarray(boxes) and rows.dtype == np.float64 and rows.shape == (3, 4)
    assert rows.flags.c_contiguous and not rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1.0
    assert boxes[1] == Box(5, 5, 25, 30) and type(boxes[-1]) is Box
    assert type(boxes[1:]) is BoxArray and list(boxes[::2]) == [boxes[0], boxes[2]]
    assert np.asarray(boxes[::2]).flags.c_contiguous
    assert boxes[np.array([True, False, True])] == boxes[::2] == [boxes[0], boxes[2]]
    assert Bag("u", bag.canvas, boxes, bag.features, bag.tags).proposals is boxes
    copied = pickle.loads(pickle.dumps(boxes))
    assert copied == boxes and not np.asarray(copied).flags.writeable
    assert repr(boxes[:1]) == "BoxArray([[0.0, 0.0, 20.0, 20.0]])"


@pytest.mark.parametrize("rows, message", [
    ([[0, 0, 4, 4], [0, 0, 4]], "box [0, 0, 4] is not 4 coordinates"),
    ([[0, 0, 4, 4], [0, 0, 4, 4, 4]], "box [0, 0, 4, 4, 4] is not 4 coordinates"),
    ([[0, 0, 4, 4], []], "box [] is not 4 coordinates"),
    ([[0, 0, 4, np.nan], [0, 0, 4]], "box coordinates must be finite"),  # the first bad row's
    ([[0, 0, 4]] * 2, "box [0, 0, 4] is not 4 coordinates"),
    ([(0, 0, 4, 4)] * 2 + [5.0], "box 5.0 is not 4 coordinates"),
])
def test_box_array_rejects_a_ragged_row_in_row_order(rows, message):
    with pytest.raises(ConfigError) as exc:
        BoxArray(rows)
    assert str(exc.value) == message


# ---------------------------------------------------------------- generator


# SHA-256 over ids, proposal coordinates, tags, ground truth and feature
# bytes of 40 scenes per config. The generator's draw order is part of its
# contract: any change to it, or to the arithmetic on the draws, moves these.
GENERATOR_DIGESTS = {
    "default_seed0": (dict(seed=0),
                      "941c841b2ddecf4015fae3b041b96502cc4ede5a9af62c0ceb2065cba1ed31b9"),
    "default_seed7": (dict(seed=7),
                      "06b0462d25c05dc6a5ce7fcb87eefd5c63749b37ddd5d68ca8a7ad4c0cf86439"),
    "dense": (dict(seed=0, proposals_per_object=10, background_proposals=35),
              "3103e8462fce9e0b48667fe2e1cd45b437de11d9d495cf6e868edc8523c726d0"),
    "jitter_0": (dict(seed=1, jitter=0.0),
                 "4037507107ebc4ebf4a4d11def82bdb9e2fa5907f2bacb54a778210ef74f3a00"),
    "jitter_0.9_wide": (dict(seed=2, jitter=0.9, canvas=(200.0, 90.0), n_classes=3, feature_dim=8),
                        "a57db54557f279f2da4e24292fbecd9e171515f1e59492d6c07eb0cbdd99555e"),
    "no_background": (dict(seed=3, background_proposals=0),
                      "24bc1b58ce827d022e6e2a3d7c513d038ed8f664f7d2b9934b652a2c92518c67"),
    "one_per_object": (dict(seed=4, proposals_per_object=1),
                       "1ba1f757749cb876f52afc2d32bc4bc05d204bcae614f6b8616638ec731410c7"),
}


def generator_digest(bags, gts):
    h = hashlib.sha256()
    for bag, gt in zip(bags, gts):
        h.update(bag.image_id.encode())
        h.update(np.asarray(bag.proposals, "<f8").tobytes())
        h.update(bag.tags.astype("<i8").tobytes())
        h.update(np.asarray([box for box, _ in gt.objects], "<f8").tobytes())
        h.update(np.asarray([k for _, k in gt.objects], "<i8").tobytes())
        h.update(bag.features.astype("<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", GENERATOR_DIGESTS)
def test_generator_output_is_pinned_bit_for_bit(name):
    kw, expected = GENERATOR_DIGESTS[name]
    bags, gts = generate_dataset(SceneConfig(**kw), 40)
    assert generator_digest(bags, gts) == expected
    boxes = [p for bag in bags for p in bag.proposals] + [b for gt in gts for b, _ in gt.objects]
    assert all(type(b) is Box and all(type(v) is float for v in b) for b in boxes)


def _bypassing_checks(**kw):
    """A default SceneConfig with fields set after its range checks ran."""
    cfg = SceneConfig(seed=0)
    for name, value in kw.items():
        object.__setattr__(cfg, name, value)
    return cfg


@pytest.mark.parametrize("kw, message", [
    # scene 0's third proposal is the first bad box
    (dict(jitter=2.0), "degenerate box [159.89712002775477, 0.0, 128.0, 128.0]"),
    (dict(min_gt_side=np.nan), "box coordinates must be finite"),
])
def test_a_bad_generated_box_raises_its_own_error(kw, message):
    with pytest.raises(ConfigError) as exc:
        generate_dataset(_bypassing_checks(**kw), 3)
    assert str(exc.value) == message


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


@pytest.mark.parametrize("kw, key", [
    (dict(n_classes=0), "n_classes"),
    (dict(n_classes=1001, feature_dim=2000), "n_classes"),
    (dict(n_classes=8, feature_dim=4), "feature_dim"),
    (dict(feature_dim=4097), "feature_dim"),
    (dict(objects_per_scene=(0, 2)), "objects_per_scene"),
    (dict(objects_per_scene=(3, 2)), "objects_per_scene"),
    (dict(objects_per_scene=(1, 1_000_000_000)), "objects_per_scene"),
    (dict(proposals_per_object=-2), "proposals_per_object"),
    (dict(background_proposals=-1), "background_proposals"),
    (dict(proposals_per_object=0, background_proposals=0), "proposals_per_object"),
    (dict(proposals_per_object=2500, background_proposals=1), "proposals_per_object"),
    (dict(canvas=(np.nan, 128.0)), "canvas"),
    (dict(canvas=(128.0, np.inf)), "canvas"),
    (dict(min_gt_side=np.nan), "min_gt_side"),
    (dict(min_gt_side=0.0), "min_gt_side"),
    (dict(min_gt_side=np.inf), "min_gt_side"),
    (dict(max_gt_side=np.nan), "max_gt_side"),
    (dict(max_gt_side=20.0), "max_gt_side"),
    (dict(canvas=(32.0, 32.0)), "max_gt_side"),
    (dict(jitter=np.nan), "jitter"),
    (dict(jitter=-0.1), "jitter"),
    (dict(jitter=1.5), "jitter"),
    (dict(jitter=1e308), "jitter"),
    (dict(noise_sigma=-1.0), "noise_sigma"),
    (dict(noise_sigma=np.inf), "noise_sigma"),
    (dict(context_alpha=np.nan), "context_alpha"),
    (dict(context_alpha=-np.inf), "context_alpha"),
    (dict(n_classes=2.5, feature_dim=8), "n_classes"),
    (dict(n_classes=True), "n_classes"),
    (dict(feature_dim=32.0), "feature_dim"),
    (dict(objects_per_scene=(1.5, 2)), "objects_per_scene"),
    (dict(objects_per_scene=(1, 2.0)), "objects_per_scene"),
    (dict(proposals_per_object=2.5), "proposals_per_object"),
    (dict(background_proposals=False), "background_proposals"),
    (dict(seed=1.5), "seed"),
    (dict(seed=-1), "seed"),
    (dict(seed=np.int64(7)), "seed"),
    (dict(objects_per_scene=(1, np.int64(4))), "objects_per_scene"),
    (dict(jitter="0.1"), "jitter"),
    (dict(canvas=("128", 128.0)), "canvas"),
    (dict(objects_per_scene=(1,)), "objects_per_scene"),
    (dict(canvas=(1.0,)), "canvas"),
])
def test_every_scene_key_is_range_checked_naming_it(kw, key):
    with pytest.raises(ConfigError, match=f"^{key} "):
        SceneConfig(**kw)


def test_scene_keys_accept_their_edges():
    for kw in (
        dict(n_classes=1, feature_dim=1, objects_per_scene=(1, 1), proposals_per_object=0,
             background_proposals=1, jitter=0.0, noise_sigma=0.0, context_alpha=-1e308,
             min_gt_side=5e-324, max_gt_side=5e-324, canvas=(5e-324, 5e-324)),
        dict(n_classes=1000, feature_dim=4096, objects_per_scene=(1000, 1000),
             proposals_per_object=10, background_proposals=0, jitter=1.0, noise_sigma=1e308,
             context_alpha=1e308, min_gt_side=1e308, max_gt_side=1e308, canvas=(1e308, 1e308)),
    ):
        SceneConfig(**kw)
    bags, _ = generate_dataset(SceneConfig(jitter=1.0, proposals_per_object=20), 20)
    assert all(x2 > x1 and y2 > y1 for bag in bags for x1, y1, x2, y2 in bag.proposals)


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
    assert filter_proposals(bag, 16.0) is bag


def test_filter_removes_thin_box():
    bag = _bag_with_boxes([Box(0, 0, 20, 20), Box(0, 0, 10, 40), Box(30, 30, 50, 50)])
    out = filter_proposals(bag, 16.0)
    assert out.size == 2
    assert all(x2 - x1 >= 16 and y2 - y1 >= 16 for x1, y1, x2, y2 in out.proposals)
    assert np.array_equal(out.features, bag.features[[0, 2]])


def test_filter_matches_brute_force_count(rng):
    for _ in range(20):
        boxes = []
        for _ in range(int(rng.integers(1, 12))):
            x1, y1 = rng.uniform(0, 60, size=2)
            boxes.append(Box(x1, y1, x1 + rng.uniform(5, 40), y1 + rng.uniform(5, 40)))
        expected = sum(1 for x1, y1, x2, y2 in boxes if x2 - x1 >= 16 and y2 - y1 >= 16)
        bag = _bag_with_boxes(boxes)
        if expected == 0:
            with pytest.raises(EmptyBagError):
                filter_proposals(bag, 16.0)
        else:
            assert filter_proposals(bag, 16.0).size == expected


@st.composite
def boxes_and_min_side(draw):
    """1-12 valid boxes and a `min_side`: sides exactly at `min_side`, 1-pixel
    and 1e308-pixel sides among random ones, at integer and random corners,
    with `min_side` 0, 1e308 and values in between."""
    min_side = draw(st.sampled_from([0.0, 1.0, 16.0, 1e308]) | st.floats(0.0, 64.0))
    corner = st.integers(0, 100).map(float) | st.floats(0.0, 1e4)
    side = st.sampled_from([v for v in (min_side, 1.0, 1e308) if v > 0]) | st.floats(1e-2, 64.0)

    def far_edge(near):  # a side lost to rounding at this corner becomes 1 pixel
        return far if (far := near + draw(side)) > near else near + 1.0

    boxes = []
    for _ in range(draw(st.integers(1, 12))):
        x1, y1 = draw(corner), draw(corner)
        boxes.append(Box(x1, y1, far_edge(x1), far_edge(y1)))
    return boxes, min_side


@given(boxes_and_min_side())
def test_filter_keeps_what_the_scalar_comparisons_keep_in_order(drawn):
    boxes, min_side = drawn
    bag = _bag_with_boxes(boxes)
    keep = [i for i, (x1, y1, x2, y2) in enumerate(boxes)
            if x2 - x1 >= min_side and y2 - y1 >= min_side]
    if not keep:
        with pytest.raises(EmptyBagError):
            filter_proposals(bag, min_side)
        return
    out = filter_proposals(bag, min_side)
    assert (out is bag) == (len(keep) == len(boxes))
    assert list(out.proposals) == [boxes[i] for i in keep]
    assert out.features.tobytes() == bag.features[keep].tobytes()
    assert type(out.proposals) is BoxArray and not np.asarray(out.proposals).flags.writeable


@given(boxes_and_min_side())
def test_a_bag_from_a_list_an_array_or_either_jsonl_encoding_has_the_same_boxes(
    jsonl_dir, drawn
):
    boxes, _ = drawn
    from_list = _bag_with_boxes(boxes)
    bags = [from_list, _bag_with_boxes(BoxArray(np.array(boxes)))]
    path = jsonl_dir / "encodings.jsonl"
    for fields in ((), ("proposals",)):  # base64, then list-form proposals
        save_jsonl_as_lists(path, [from_list], None, fields)
        bags += load_jsonl(path)[0]
    for bag in bags:
        assert bag.proposals == from_list.proposals and list(bag.proposals) == boxes
        assert all(type(b) is Box and all(type(v) is float for v in b) for b in bag.proposals)
        assert _box_bytes(bag.proposals) == _box_bytes(boxes)


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


def _set_features(payload):
    return lambda r: r.update(features=payload)


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode()


def _write_with(path, change, save=save_jsonl_as_lists):
    """Two bags as JSONL, by default with proposals and features as lists so
    that ``change`` can edit one value; ``change`` edits the second line's
    record."""
    bags, gts = generate_dataset(small_cfg(), 2)
    save(path, bags, gts)
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
        (_set_features("not base64!"), "not valid base64"),
        (_set_features("QUJ"), "not valid base64"),
        (_set_features("QUJD\n"), "not valid base64"),
        (_set_features("QUJDRA=="), "not a positive multiple"),  # 4 bytes
        (_set_features(""), "not a positive multiple"),
        (_set_features(_b64(bytes(8))), "not a positive multiple"),  # one row of m > 1
        (lambda r: r.update(features=_b64(np.full((len(r["proposals"]), 3), np.inf).tobytes())),
         "finite"),
        (_set_features(7), "neither a base64 string nor a list"),
        (_set_features([1.0, 2.0]), "neither a base64 string nor a list"),
        (lambda r: r["features"].__setitem__(0, "QUJD"), "neither"),
        (lambda r: r["features"][0].__setitem__(1, "6.91"), "JSON numbers"),
        (lambda r: r["features"][0].__setitem__(1, True), "JSON numbers"),
        (lambda r: r["features"][0].__setitem__(1, None), "JSON numbers"),
        (lambda r: r["features"][0].pop(), "inhomogeneous"),
        (_set_features([[]]), "no columns"),
        (lambda r: r["proposals"][0].__setitem__(2, "6.91"), "proposal coordinate"),
        (lambda r: r["proposals"][0].__setitem__(2, True), "proposal coordinate"),
        (lambda r: r["proposals"][0].__setitem__(2, None), "proposal coordinate"),
        (_set_features([]), "feature rows must align with proposals"),
        (lambda r: r["proposals"][1].pop(), r"^line 2: box \[.*\] is not 4 coordinates$"),
        (lambda r: r["proposals"][1].append(9.0), r"^line 2: box \[.*\] is not 4 coordinates$"),
        (lambda r: r["proposals"][1].clear(), r"^line 2: box \[\] is not 4 coordinates$"),
        (lambda r: r["gt"][0].__setitem__(0, "6.91"), "gt item"),
        (lambda r: r["gt"][0].__setitem__(3, False), "gt item"),
    ],
    ids=["gt_long", "gt_short", "gt_object", "unknown_key", "canvas_string", "canvas_three",
         "canvas_nan", "canvas_inf", "canvas_zero", "canvas_bool", "canvas_str_item",
         "image_id_int", "image_id_null", "image_id_list", "b64_alphabet", "b64_padding",
         "b64_newline", "b64_short", "b64_empty", "b64_one_row", "b64_inf", "features_int",
         "features_flat", "row_string", "value_string", "value_bool", "value_null", "ragged",
         "no_columns", "coord_string", "coord_bool", "coord_null", "features_empty",
         "proposal_short", "proposal_long", "proposal_empty", "gt_coord_string", "gt_coord_bool"],
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


def test_jsonl_writes_features_as_base64_little_endian_float64(tmp_path):
    bags, gts = generate_dataset(small_cfg(), 2)
    path = tmp_path / "b64.jsonl"
    save_jsonl(path, bags, gts)
    for line, bag in zip(path.read_text().splitlines(), bags):
        payload = json.loads(line)["features"]
        assert payload == _b64(bag.features.astype("<f8").tobytes())
    loaded = load_jsonl(path)[0][0].features
    assert loaded.dtype == np.float64 and loaded.flags.c_contiguous and loaded.flags.writeable


def test_jsonl_writes_proposals_as_base64_little_endian_float64(tmp_path):
    bags, gts = generate_dataset(small_cfg(), 2)
    path = tmp_path / "b64.jsonl"
    save_jsonl(path, bags, gts)
    for line, bag in zip(path.read_text().splitlines(), bags):
        raw = base64.b64decode(json.loads(line)["proposals"], validate=True)
        assert len(raw) == 32 * bag.size
        assert raw == np.array(bag.proposals, dtype="<f8").tobytes()
    for got, bag in zip(load_jsonl(path)[0], bags, strict=True):
        assert got.proposals == bag.proposals
        assert _box_bytes(got.proposals) == _box_bytes(bag.proposals)
        assert all(type(b) is Box and all(type(v) is float for v in b) for b in got.proposals)


LEGACY = Path(__file__).parent / "golden" / "legacy_lists.jsonl"


def test_a_file_in_the_older_list_encoding_loads_bit_for_bit():
    """``golden/legacy_lists.jsonl`` holds the first 3 scenes of
    ``SceneConfig(n_classes=3, feature_dim=8)`` with proposals and features
    as JSON lists, the encoding older versions wrote. Its bytes are committed
    so that the file stays as written whatever the writers become."""
    bags, gts = generate_dataset(SceneConfig(n_classes=3, feature_dim=8), 3)
    records = [json.loads(line) for line in LEGACY.read_text().splitlines()]
    assert all(type(r["proposals"]) is list and type(r["features"]) is list for r in records)
    got, got_gts = load_jsonl(LEGACY)
    for a, b in zip(got, bags, strict=True):
        assert (a.image_id, a.canvas, a.proposals) == (b.image_id, b.canvas, b.proposals)
        assert _box_bytes(a.proposals) == _box_bytes(b.proposals)
        assert all(type(box) is Box and all(type(v) is float for v in box) for box in a.proposals)
        assert a.features.shape == b.features.shape
        assert a.features.tobytes() == b.features.tobytes()
        assert a.tags.tobytes() == b.tags.tobytes()
    assert [g.objects for g in got_gts] == [g.objects for g in gts]
    assert _box_bytes(box for g in got_gts for box, _ in g.objects) == _box_bytes(
        box for g in gts for box, _ in g.objects)


def test_jsonl_list_features_load_to_the_same_bits_as_base64(tmp_path):
    bags, gts = generate_dataset(SceneConfig(seed=0), 20)
    save_jsonl(tmp_path / "b64.jsonl", bags, gts)
    save_jsonl_as_lists(tmp_path / "lists.jsonl", bags, gts)
    first = json.loads((tmp_path / "lists.jsonl").read_text().splitlines()[0])
    assert isinstance(first["features"], list)
    new, new_gts = load_jsonl(tmp_path / "b64.jsonl")
    old, old_gts = load_jsonl(tmp_path / "lists.jsonl")
    for a, b, bag in zip(new, old, bags):
        assert a.features.tobytes() == b.features.tobytes() == bag.features.tobytes()
        assert a.features.shape == b.features.shape == bag.features.shape
        assert a.proposals == b.proposals
    assert [g.objects for g in new_gts] == [g.objects for g in old_gts]


@pytest.mark.parametrize("save", [save_jsonl, save_jsonl_as_lists], ids=["base64", "lists"])
@pytest.mark.parametrize("field", ["tags", "features"])
def test_jsonl_rejects_a_bag_with_another_k_or_d_naming_the_line(tmp_path, save, field):
    bags, gts = generate_dataset(small_cfg(), 4)
    odd = bags[2]
    if field == "tags":
        bags[2] = Bag(odd.image_id, odd.canvas, odd.proposals, odd.features, [*odd.tags, 0])
    else:
        bags[2] = Bag(odd.image_id, odd.canvas, odd.proposals, odd.features[:, :-1], odd.tags)
    path = tmp_path / "mixed.jsonl"
    save(path, bags, gts)
    with pytest.raises(ParseError, match="the bag on line 1 has K=4 and D=8") as exc:
        load_jsonl(path)
    assert exc.value.line == 3


FEATURE_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e308, -1e308, 1.7976931348623157e308]
) | st.floats(allow_nan=False, allow_infinity=False)
COORD = st.floats(0.0, 1e4)
SIDE = st.floats(1e-2, 1e3)


@st.composite
def bags_with_gt(draw):
    m, d, k = draw(st.integers(1, 30)), draw(st.integers(1, 40)), draw(st.integers(1, 6))
    boxes = []
    for _ in range(m + draw(st.integers(0, 3))):
        x1, y1 = draw(COORD), draw(COORD)
        boxes.append(Box(x1, y1, x1 + draw(SIDE), y1 + draw(SIDE)))
    tags = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    features = draw(arrays(np.float64, (m, d), elements=FEATURE_VALUES))
    bag = Bag(draw(st.text(max_size=8)), (draw(SIDE), draw(SIDE)), boxes[:m], features, tags)
    objects = [(box, draw(st.integers(0, k - 1))) for box in boxes[m:]]
    return bag, GroundTruth(bag.image_id, objects)


# Each of proposals and features as base64 (the default) or as lists.
ENCODINGS = [(), ("proposals",), ("features",), ("proposals", "features")]


def _box_bytes(boxes):
    return np.array(list(boxes), dtype=np.float64).tobytes()


@pytest.fixture(scope="module")
def jsonl_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonl")


@given(bags_with_gt())
def test_random_bags_round_trip_bit_for_bit_in_both_encodings(jsonl_dir, bag_gt):
    bag, gt = bag_gt
    for fields in ENCODINGS:
        path = jsonl_dir / "round_trip.jsonl"
        save_jsonl_as_lists(path, [bag], [gt], fields)
        (got,), (got_gt,) = load_jsonl(path)
        assert got.image_id == bag.image_id and got.canvas == bag.canvas
        assert got.proposals == bag.proposals
        assert all(type(b) is Box and all(type(v) is float for v in b) for b in got.proposals)
        assert got.features.shape == bag.features.shape
        assert got.features.tobytes() == bag.features.tobytes()
        assert _box_bytes(got.proposals) == _box_bytes(bag.proposals)
        assert got.tags.tobytes() == bag.tags.tobytes()
        assert [k for _, k in got_gt.objects] == [k for _, k in gt.objects]
        assert _box_bytes(b for b, _ in got_gt.objects) == _box_bytes(b for b, _ in gt.objects)


@pytest.fixture(scope="module")
def written_lines(jsonl_dir):
    """One bag's line in each encoding, with the span of its features payload."""
    bags, gts = generate_dataset(small_cfg(), 1)
    out = {}
    for name, save in (("base64", save_jsonl), ("lists", save_jsonl_as_lists)):
        save(jsonl_dir / "one.jsonl", bags, gts)
        line = (jsonl_dir / "one.jsonl").read_text().rstrip("\n")
        payload = json.dumps(json.loads(line)["features"])
        start = line.index(payload)
        out[name] = line, start, start + len(payload)
    return out


@given(st.data())
def test_a_damaged_features_payload_or_a_cut_loads_or_raises_parse_error(
    jsonl_dir, written_lines, data
):
    line, start, stop = written_lines[data.draw(st.sampled_from(["base64", "lists"]), "encoding")]
    how = data.draw(st.sampled_from(["change", "delete", "cut"]), "how")
    if how == "cut":
        damaged = line[: data.draw(st.integers(0, len(line) - 1), "cut at")]
    else:
        pos = data.draw(st.integers(start, stop - 1), "pos")
        new = ""
        if how == "change":
            new = data.draw(st.sampled_from('"\\=+/-.,[]eE0 \n') | st.characters(
                exclude_categories=("Cs",)), "char")
        damaged = line[:pos] + new + line[pos + 1 :]
    path = jsonl_dir / "damaged.jsonl"
    path.write_text(damaged + "\n", encoding="utf-8")
    try:
        load_jsonl(path)
    except ParseError as e:
        assert e.line == 1


NOT_A_LIST = COORD | st.text(max_size=4) | st.none() | st.booleans() | st.dictionaries(
    st.text(max_size=2), COORD, max_size=4)


@st.composite
def bad_proposals(draw):
    """``(where, JSON text)``: a value for one proposal ("one") or for the
    whole ``proposals`` field ("all") that ``load_jsonl`` must reject."""
    x1, y1 = draw(COORD), draw(COORD)
    coords = [x1, y1, x1 + draw(SIDE), y1 + draw(SIDE)]
    at = draw(st.integers(0, 3))
    case = draw(st.sampled_from(
        ["3 numbers", "5 numbers", "nested", "not a list", "field not a list", "x2 <= x1",
         "y2 <= y1", "1e309"]))
    if case == "field not a list":
        return "all", json.dumps(draw(NOT_A_LIST))
    if case == "1e309":  # json reads it as an infinity
        coords[at] = "@@"
        return "one", json.dumps(coords).replace('"@@"', draw(st.sampled_from(["1e309", "-1e309"])))
    if case in ("x2 <= x1", "y2 <= y1"):
        lo = 0 if case == "x2 <= x1" else 1
        coords[lo + 2] = coords[lo] - draw(st.floats(0.0, 1e3))
    elif case == "nested":
        coords[at] = draw(st.sampled_from([[coords[at]], [], [coords[at], coords[at]]]))
    elif case.endswith("numbers"):
        coords = coords[:3] if case == "3 numbers" else [*coords, draw(COORD)]
    elif case == "not a list":
        coords = draw(NOT_A_LIST)
    return "one", json.dumps(coords)


@pytest.fixture(scope="module")
def three_lines(jsonl_dir):
    bags, gts = generate_dataset(small_cfg(), 3)
    save_jsonl_as_lists(jsonl_dir / "three.jsonl", bags, gts)
    return (jsonl_dir / "three.jsonl").read_text().splitlines()


@given(bad_proposals(), st.integers(0, 100))
def test_a_malformed_proposal_is_a_parse_error_naming_its_line(
    jsonl_dir, three_lines, bad, index
):
    where, text = bad
    rec = json.loads(three_lines[1])
    if where == "all":
        rec["proposals"] = "@@"
    else:
        rec["proposals"][index % len(rec["proposals"])] = "@@"
    path = jsonl_dir / "bad_proposal.jsonl"
    damaged = json.dumps(rec).replace('"@@"', text)
    path.write_text("\n".join([three_lines[0], damaged, three_lines[2]]) + "\n")
    with pytest.raises(ParseError) as exc:
        load_jsonl(path)
    assert exc.value.line == 2 and str(exc.value).startswith("line 2: ")


def _edit_rows(edit):
    """A record change that decodes the base64 proposals to an (m, 4) array,
    applies ``edit`` to it in place or by return, and encodes the result."""
    def change(rec):
        rows = np.frombuffer(base64.b64decode(rec["proposals"]), "<f8").reshape(-1, 4).copy()
        out = edit(rows)
        rec["proposals"] = _b64((rows if out is None else out).astype("<f8").tobytes())
    return change


def _set_coord(row, col, value):
    return _edit_rows(lambda a: a.__setitem__((row, col), value))


@pytest.mark.parametrize(
    "change, match",
    [
        (lambda r: r.update(proposals="not base64!"), "^proposals are not valid base64"),
        (lambda r: r.update(proposals="QUJ"), "^proposals are not valid base64"),
        (lambda r: r.update(proposals="QUJD\n"), "^proposals are not valid base64"),
        (lambda r: r.update(proposals=""), "^proposals hold 0 bytes, not a positive multiple of 32$"),
        (lambda r: r.update(proposals=_b64(bytes(24))), "^proposals hold 24 bytes, not a positive"),
        (_edit_rows(lambda a: a.ravel()[:-1]), "not a positive multiple of 32$"),
        (_set_coord(3, 1, np.nan), "^box coordinates must be finite$"),
        (_set_coord(0, 2, np.inf), "^box coordinates must be finite$"),
        (_set_coord(5, 0, -np.inf), "^box coordinates must be finite$"),
        (_edit_rows(lambda a: a.__setitem__((2, 2), a[2, 0])), "^degenerate box"),
        (_edit_rows(lambda a: a.__setitem__((4, 3), a[4, 1] - 1.0)), "^degenerate box"),
        (_edit_rows(lambda a: a[:-1]), "^features hold .* not a positive multiple"),
        (_edit_rows(lambda a: np.vstack([a, a[:1]])), "^features hold .* not a positive multiple"),
    ],
    ids=["alphabet", "padding", "newline", "empty", "24_bytes", "partial_row", "nan", "inf",
         "minus_inf", "x2_eq_x1", "y2_lt_y1", "one_row_fewer", "one_row_more"],
)
def test_a_damaged_base64_proposals_value_is_a_parse_error_naming_its_line(
    tmp_path, change, match
):
    path = tmp_path / "b64_proposals.jsonl"
    _write_with(path, lambda r: None, save_jsonl)
    assert len(load_jsonl(path)[0]) == 2
    _write_with(path, change, save_jsonl)
    with pytest.raises(ParseError) as exc:
        load_jsonl(path)
    assert exc.value.line == 2
    assert str(exc.value).startswith("line 2: ")
    assert re.search(match, str(exc.value).removeprefix("line 2: "))


@pytest.mark.parametrize("edit", [lambda a: a[:-1], lambda a: np.vstack([a, a[:1]])],
                         ids=["one_row_fewer", "one_row_more"])
def test_base64_proposals_and_list_features_of_other_row_counts_are_a_parse_error(
    tmp_path, edit
):
    path = tmp_path / "mixed.jsonl"
    save = lambda *a: save_jsonl_as_lists(*a, fields=("features",))  # noqa: E731
    _write_with(path, _edit_rows(edit), save)
    with pytest.raises(ParseError, match="^line 2: feature rows must align with proposals$"):
        load_jsonl(path)


def test_box_from_rows_gives_the_boxes_box_gives():
    """A BoxArray of float64 rows gives, item by item, the boxes Box gives."""
    rows = np.array([[0, 1, 4, 5], [-0.0, 2.5, 1e300, 3.0], [5e-324, 0, 1e-300, 1e308]])
    boxes = BoxArray(rows)
    assert list(boxes) == [Box(*row) for row in rows.tolist()]
    assert all(type(b) is Box and all(type(v) is float for v in b) for b in boxes)
    assert np.asarray(boxes).tobytes() == rows.tobytes()  # -0.0 keeps its sign
    assert list(BoxArray(np.empty((0, 4)))) == []


@pytest.mark.parametrize(
    "bad",
    [[(1, 0, np.nan)], [(0, 3, np.inf)], [(2, 2, 0.0)], [(1, 3, 1.0)],
     [(1, 2, 0.0), (2, 0, np.nan)], [(1, 1, np.nan), (0, 2, -1.0)]],
)
def test_box_from_rows_raises_the_error_box_raises_for_the_first_bad_row(bad):
    rows = np.array([[0.0, 1.0, 4.0, 5.0]] * 3)
    for at in bad:
        rows[at[:2]] = at[2]
    with pytest.raises(ConfigError) as want:
        [Box(*row) for row in rows.tolist()]
    with pytest.raises(ConfigError) as got:
        BoxArray(rows)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", BAD_TAGS + [np.float64(1.0), np.bool_(True)])
def test_bag_rejects_tags_outside_zero_one(bad):
    with pytest.raises(ConfigError):
        Bag("t", (128.0, 128.0), [Box(0, 0, 20, 20)], np.zeros((1, 4)), [bad, 0])


def test_bag_accepts_zero_one_tags_as_list_or_array():
    for tags in ([1, 0], np.array([0, 1]), [np.int64(1), np.int32(0)], [0]):
        bag = Bag("t", (128.0, 128.0), [Box(0, 0, 20, 20)], np.zeros((1, 4)), tags)
        assert bag.tags.dtype == np.int64
        assert bag.tags.tolist() == [int(t) for t in tags]


@pytest.mark.parametrize("tags", [[], np.array([], dtype=np.int64), ()])
def test_bag_rejects_empty_tags(tags):
    """K = 0 leaves no class to score: every softmax of the forward would be empty."""
    with pytest.raises(ConfigError, match="empty"):
        Bag("t", (128.0, 128.0), [Box(0, 0, 20, 20)], np.zeros((1, 4)), tags)


def test_jsonl_bag_without_tags_reports_lineno(tmp_path):
    path = tmp_path / "tags.jsonl"
    _write_with_tag(path, 0)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["tags"], rec["gt"] = [], []
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="empty") as exc:
        load_jsonl(path)
    assert exc.value.line == 2
