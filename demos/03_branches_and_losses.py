"""One bag through the three phases: detection, semantics, contrast.

Shows the instance-probability matrix and its induced labels, the per-bag
category correlation and the pseudo-labels it refines, and the interactive
contrastive loss over the four projected embeddings.
"""

import numpy as np

from weakdet import numerics as nm
from weakdet.datamodel import SceneConfig, generate_dataset
from weakdet.instance_branch import aggregate_lse, approx_labels, instance_loss, instance_probs
from weakdet.numerics import Node
from weakdet.semantic_branch import (
    SemanticProjector,
    correlation_matrix,
    project,
    pseudo_labels,
    semantic_loss,
    update_centers,
)
from weakdet.trainer import TrainConfig, forward_losses, init_state

np.set_printoptions(precision=3, suppress=True)

cfg = TrainConfig(hidden_dim=16, embed_dim=8)
bags, gts = generate_dataset(SceneConfig(n_classes=4, feature_dim=16, seed=5), 3)
bag = bags[0]
state = init_state(cfg, 4, 16)
feats = Node(bag.features)

print(f"bag {bag.image_id}: {bag.size} proposals, tags {bag.tags.tolist()}")
print()

print("--- phase 1: instance-wise detection ---")
from weakdet.instance_branch import DetectionHead

head = DetectionHead(Node(state.params["w_cls"]), Node(state.params["w_det"]), Node(state.params["w_bg"]))
scores = instance_probs(feats, head)
print("corr_ins column sums (per-class image scores, in [0,1]):")
print(" ", scores.image_scores.value)
print("smooth-max pooled view (r=4; an alternative training does not use):")
print(" ", aggregate_lse(scores.corr_ins, 4.0).value)
labels = approx_labels(scores.corr_ins.value, bag.tags, gamma=0.9)
print(f"induced labels (class index, {4} = background): {labels.labels.tolist()}")
l_ins = instance_loss(scores, labels, bag.tags)
print(f"detection loss: {float(l_ins.value):.4f}")
print()

print("--- phase 2: semantic-wise prediction ---")
z = project(feats, SemanticProjector(Node(state.params["w_sem"])))
corr = correlation_matrix(z)
print("per-bag category correlation:")
print(corr.value)
pseudo = pseudo_labels(corr, z)
print(f"pseudo-labels: {pseudo.labels.tolist()}")
l_sem = semantic_loss(z, pseudo, state.centers)
print(f"center loss: {float(l_sem.value):.4f}")
new_centers = update_centers(state.centers, z.value, pseudo.labels, rate=0.05)
moved = np.linalg.norm(new_centers - state.centers, axis=1)
print(f"center movement after one update: {moved}")
print()

print("--- phase 3: interactive graph contrast ---")
fwd = forward_losses(bag, state, cfg)
print(f"contrastive loss (both directions): {fwd.parts['loss_igcl']:.4f}")
print(f"composite loss: {float(fwd.loss.value):.4f} = "
      f"{fwd.parts['loss_ins']:.4f} + {fwd.parts['loss_sem']:.4f} + {fwd.parts['loss_igcl']:.4f}")

nm.backward(fwd.loss)
print("\ngradient norms per parameter group:")
for name in sorted(fwd.leaves):
    print(f"  {name:<14} {np.linalg.norm(fwd.leaves[name].grad):.4f}")
