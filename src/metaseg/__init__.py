"""Meta-classification pipeline for anomaly segmentation score maps.

The pipeline turns per-pixel class-probability rasters into normalized
entropy anomaly scores, extracts thresholded 8-connected components,
summarizes each component with a fixed layout of hand-crafted
metrics, and trains logistic or MLP meta classifiers that identify
false-positive components so they can be removed.  Evaluation tooling
covers component- and pixel-level ranking metrics, leave-one-out cross
validation, least-angle-regression feature ordering with incremental
curves, and an OOD-fraction proxy split, plus a deterministic synthetic
scene generator for desk-scale experiments.

Importing the package decides how many threads OpenBLAS runs on: one,
unless one of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set, in which case that count holds for the
package's own calls too.  The meta classifiers' products are too small
to gain from a second thread, and an idle OpenBLAS worker busy-waits
after each threaded call, charging the CPU to whatever runs next.  With
no variable set the package sets ``OPENBLAS_NUM_THREADS=1`` before any
submodule loads numpy, so OpenBLAS starts without a worker thread, and
processes spawned afterwards, such as the leave-one-out fold workers,
inherit it.  Where numpy was loaded first the variable comes too late,
so the package also sets OpenBLAS's count to one through its own setter,
once; the process stays on one thread afterwards.  That call also
replaces any count set at run time before the import, for example with
``openblas_set_num_threads`` or threadpoolctl: only the three
environment variables keep another count.
"""

import os
import sys


def _blas_setter():
    """OpenBLAS's `openblas_set_num_threads_local`, looked up through
    numpy's own extension module, which links the BLAS numpy uses; None for
    another BLAS or an OpenBLAS older than 0.3.27.  Despite its name it
    sets the whole process's thread count."""
    import ctypes

    import numpy as np

    core = getattr(np, "_core", None) or np.core  # numpy 2.x, else 1.x
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
        setter = lib.openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


if not any(name in os.environ for name in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if "numpy" in sys.modules:
        _setter = _blas_setter()
        if _setter is not None:
            _setter(1)

from .analysis import (
    EvalReport,
    LarsOrdering,
    auprc,
    auroc,
    evaluate_components,
    evaluate_pixel_files,
    evaluate_pixels,
    evaluate_scores,
    fpr_at_95_tpr,
    incremental_evaluation,
    lars_order,
    loo_scores,
    ood_fraction,
    split_by_ood_fraction,
)
from .features import (
    MetricsDataset,
    StandardizationStats,
    build_metrics_dataset,
    load_metrics_csv,
    metric_names,
    save_metrics_csv,
    standardize,
)
from .metaclf import (
    MetaModel,
    MlpModel,
    TrainConfig,
    bce_loss,
    count_parameters,
    gradient,
    load_model,
    parameter_breakdown,
    predict_batch,
    remove_false_positives,
    save_model,
    train,
)
from .raster import (
    IGNORE_LABEL,
    OOD_LABEL,
    LabelMask,
    ProbabilityMap,
    RasterFormatError,
    Sample,
    ScoreMap,
    load_mask,
    load_probability_map,
    load_score_map,
    save_mask,
    save_probability_map,
    save_samples,
    save_score_map,
)
from .scoring import (
    LossBreakdown,
    anomaly_score_map,
    combined_objective,
    loss_in,
    loss_out,
    pixel_entropy,
)
from .segments import ThresholdConfig
from .synth import SceneSpec, generate

__version__ = "0.1.0"

__all__ = [
    "EvalReport", "LarsOrdering", "auprc", "auroc", "evaluate_components",
    "evaluate_pixel_files", "evaluate_pixels", "evaluate_scores",
    "fpr_at_95_tpr", "incremental_evaluation", "lars_order", "loo_scores",
    "ood_fraction", "split_by_ood_fraction",
    "MetricsDataset", "StandardizationStats", "build_metrics_dataset",
    "load_metrics_csv", "metric_names", "save_metrics_csv", "standardize",
    "MetaModel", "MlpModel", "TrainConfig", "bce_loss", "count_parameters",
    "gradient", "load_model", "parameter_breakdown", "predict_batch",
    "remove_false_positives", "save_model", "train",
    "IGNORE_LABEL", "OOD_LABEL", "LabelMask", "ProbabilityMap",
    "RasterFormatError", "Sample", "ScoreMap", "load_mask",
    "load_probability_map", "load_score_map", "save_mask",
    "save_probability_map", "save_samples", "save_score_map",
    "LossBreakdown", "anomaly_score_map", "combined_objective", "loss_in",
    "loss_out", "pixel_entropy",
    "ThresholdConfig",
    "SceneSpec", "generate",
]
