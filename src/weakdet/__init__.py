"""Weakly supervised object detection on synthetic scenes.

A dependency-light package: a small reverse-mode autodiff engine
(`numerics`), boxes/bags and a synthetic benchmark generator (`datamodel`),
the instance-wise detection and semantic-wise prediction branches, a graph
contrastive module coupling them (`igcl`), a deterministic trainer with
checkpointing (`trainer`), detection metrics (`evalmetrics`), and a CLI
(`weakdet ...`) wrapping generation, training, evaluation, the ablation
harness, and a gradient audit.

Importing the package pins BLAS to one thread when numpy is not loaded yet,
so that results do not depend on the host's core count; a program that
imported numpy first keeps its own thread count.
"""

import os
import sys

# A BLAS reads its thread count once, when numpy loads it, and a matrix
# product's rounding can depend on how it splits the work among threads.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

from .datamodel import (
    Bag,
    Box,
    GroundTruth,
    SceneConfig,
    class_prototypes,
    filter_proposals,
    generate_dataset,
    load_jsonl,
    save_jsonl,
)
from .evalmetrics import (
    Detection,
    average_precision,
    coco_map,
    corloc,
    evaluation_report,
    iou,
    mean_ap,
)
from .numerics import Node, backward
from .trainer import (
    SUB_METHODS,
    TrainConfig,
    TrainState,
    infer,
    init_state,
    load_checkpoint,
    save_checkpoint,
    train,
)

__all__ = [
    "Bag",
    "Box",
    "Detection",
    "GroundTruth",
    "Node",
    "SceneConfig",
    "SUB_METHODS",
    "TrainConfig",
    "TrainState",
    "average_precision",
    "backward",
    "class_prototypes",
    "coco_map",
    "corloc",
    "evaluation_report",
    "filter_proposals",
    "generate_dataset",
    "infer",
    "init_state",
    "iou",
    "load_checkpoint",
    "load_jsonl",
    "mean_ap",
    "save_checkpoint",
    "save_jsonl",
    "train",
]

__version__ = "0.1.0"
