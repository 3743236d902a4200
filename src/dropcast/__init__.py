"""dropcast: student dropout prediction pipeline.

Ingests the student records CSV, trains four from-scratch binary
classifiers (decision tree, random forest, linear SVM, k-NN), evaluates
them with ROC-AUC, and measures each feature group's influence by
excluding it and retraining. Fully deterministic for a given seed list.

Imported before numpy, the package sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 where the caller has
not set them: parallel work runs in cell worker processes, and idle BLAS
threads only spin.
"""

import os
import sys

if "numpy" not in sys.modules:  # BLAS reads these once, when numpy loads
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_name, "1")
    del _name

__version__ = "0.1.0"

from .errors import DropcastError
from .ingest import (
    Dataset,
    FeatureGroup,
    LABELS,
    GroupManifest,
    Outcome,
    default_manifest_path,
    load_dataset,
    load_manifest,
    to_binary,
)
from .metrics import RocCurve, RocReport, accuracy, auc, forest_importance, roc_curve
from .models import HyperParams, ModelKind, TrainedModel, score, train_model
from .preprocess import SplitIndices, Standardizer, apply_standardizer, exclude_group, fit_standardizer, split

__all__ = [
    "Dataset",
    "DropcastError",
    "FeatureGroup",
    "GroupManifest",
    "HyperParams",
    "LABELS",
    "ModelKind",
    "Outcome",
    "RocCurve",
    "RocReport",
    "SplitIndices",
    "Standardizer",
    "TrainedModel",
    "__version__",
    "accuracy",
    "apply_standardizer",
    "auc",
    "default_manifest_path",
    "exclude_group",
    "fit_standardizer",
    "forest_importance",
    "load_dataset",
    "load_manifest",
    "roc_curve",
    "score",
    "split",
    "to_binary",
    "train_model",
]
