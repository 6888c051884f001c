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

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` in the environment
unless one of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` is already set; setting any of them opts out.  Every
BLAS call the package makes runs on one thread (see `metaclf`), so
OpenBLAS then starts without the worker thread whose start-up busy-wait
would only burn CPU.  It takes effect only where numpy is loaded after
the package; processes spawned afterwards, such as the leave-one-out
fold workers, inherit it either way.
"""

import os

if not any(name in os.environ for name in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
