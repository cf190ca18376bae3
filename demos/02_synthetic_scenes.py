"""What the synthetic benchmark generator produces.

Scenes carry 1-4 objects whose classes follow a co-occurrence matrix;
proposals are jittered copies of the true boxes plus background
distractors; features are class prototypes mixed with the prototypes of
co-present classes plus noise. Image-level tags are all a trainer may see.
"""

import os
import tempfile

import numpy as np

from weakdet.datamodel import (
    SceneConfig,
    class_prototypes,
    default_cooccurrence,
    filter_proposals,
    generate_dataset,
    load_jsonl,
    save_jsonl,
)
from weakdet.evalmetrics import iou

cfg = SceneConfig(seed=7)
bags, gts = generate_dataset(cfg, 5)

print("co-occurrence matrix (banded by class index):")
print(np.round(default_cooccurrence(cfg.n_classes), 3))
print()

for bag, gt in zip(bags[:3], gts[:3]):
    classes = sorted({k for _, k in gt.objects})
    print(f"{bag.image_id}: {len(gt.objects)} objects of classes {classes}, "
          f"{bag.size} proposals, tags={bag.tags.tolist()}")
    for gt_box, k in gt.objects:
        best = max(iou(p, gt_box) for p in bag.proposals)
        print(f"   class {k} object: best proposal IoU = {best:.3f}")
print()

print("feature geometry: noise-free object rows classify by prototype")
clean, clean_gts = generate_dataset(SceneConfig(seed=7, noise_sigma=0.0), 50)
protos = class_prototypes(cfg.n_classes, cfg.feature_dim)
hits = total = 0
for bag, gt in zip(clean, clean_gts):
    for j, (_, k) in enumerate(gt.objects):
        rows = bag.features[j * cfg.proposals_per_object : (j + 1) * cfg.proposals_per_object]
        hits += int((rows @ protos.T).argmax(axis=1).tolist().count(k))
        total += len(rows)
print(f"   nearest-prototype accuracy at sigma=0: {hits}/{total}")
print()

print("the 16-pixel proposal filter:")
bag = bags[0]
print(f"   before: {bag.size} proposals")
print(f"   after : {filter_proposals(bag, 16.0).size} proposals "
      f"(generated boxes here are all large enough)")
print()

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "scenes.jsonl")
    save_jsonl(path, bags, gts)
    loaded, loaded_gts = load_jsonl(path)
same = all(
    a.proposals == b.proposals and np.array_equal(a.features, b.features)
    for a, b in zip(bags, loaded)
)
print(f"JSONL round trip over {len(loaded)} bags: exact = {same}")
