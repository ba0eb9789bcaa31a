"""Boosted-tree classification stack: encoding, training, evaluation,
cross-validation, and feature importance.

numpy is loaded on first use. Every module that computes with it binds
`np = lazy_numpy()` instead of `import numpy as np`, so that importing
`bridgekit.cli` does not load it: `convert`, `harmonize`, `pairs` and
`analyze` without `--model` never touch an array, and numpy would be most
of their start-up time and memory. The helper is
defined before the submodule imports below, which need it. An import
statement cannot bind the lazy module, because the import system reads its
`__spec__` and that loads it. On Python 3.10 and 3.11, `LazyLoader` does not
guard that first load against two threads at once; bridgekit computes in
one thread.
"""
import importlib.util
import sys


def lazy_numpy():
    """numpy: the imported module if it is imported already, otherwise a
    module that runs numpy's code on its first attribute access. Without
    numpy installed, this is a plain `import numpy` and fails as one."""
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        return numpy
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        import numpy
        return numpy
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


from .boosting import (
    GbdtModel,
    HyperParams,
    Leaf,
    Split,
    default_grid,
    load_model,
    log_loss,
    model_from_dict,
    model_to_dict,
    predict_margin,
    predict_proba,
    save_model,
    sigmoid,
    staged_margins,
    train,
    tree_values,
)
from .encoding import (
    DEFAULT_LEMMA_TOP_K,
    EncoderSchema,
    FeatureBlock,
    LEMMA_FEATURES,
    encode,
    fit_schema,
)
from .evaluation import (
    CvResult,
    DECISION_THRESHOLD,
    Metrics,
    cross_validate,
    evaluate,
    evaluate_matrix,
    metrics_from_predictions,
    random_baseline,
    stratified_folds,
)
from .importance import column_gain_totals, gain_importance, mda_importance

__all__ = [
    "GbdtModel",
    "HyperParams",
    "Leaf",
    "Split",
    "default_grid",
    "load_model",
    "log_loss",
    "model_from_dict",
    "model_to_dict",
    "predict_margin",
    "predict_proba",
    "save_model",
    "sigmoid",
    "staged_margins",
    "train",
    "tree_values",
    "DEFAULT_LEMMA_TOP_K",
    "EncoderSchema",
    "FeatureBlock",
    "LEMMA_FEATURES",
    "encode",
    "fit_schema",
    "CvResult",
    "DECISION_THRESHOLD",
    "Metrics",
    "cross_validate",
    "evaluate",
    "evaluate_matrix",
    "metrics_from_predictions",
    "random_baseline",
    "stratified_folds",
    "column_gain_totals",
    "gain_importance",
    "mda_importance",
]
