"""Meta-classification pipeline for anomaly segmentation score maps.

The pipeline turns per-pixel class-probability rasters into normalized
entropy anomaly scores, extracts thresholded 8-connected components,
summarizes each component with a fixed registry of hand-crafted
metrics, and trains logistic or MLP meta classifiers that identify
false-positive components so they can be removed.  Evaluation tooling
covers component- and pixel-level ranking metrics, leave-one-out cross
validation, least-angle-regression feature ordering with incremental
curves, and an OOD-fraction proxy split, plus a deterministic synthetic
scene generator for desk-scale experiments.
"""

from .analysis import (
    EvalReport,
    LarsOrdering,
    auprc,
    auroc,
    evaluate_components,
    evaluate_pixels,
    evaluate_scores,
    fpr_at_95_tpr,
    incremental_evaluation,
    lars_order,
    leave_one_out,
    loo_scores,
    ood_fraction,
    split_by_ood_fraction,
)
from .features import (
    MetricRegistry,
    MetricsDataset,
    StandardizationStats,
    build_metrics_dataset,
    extract_metrics,
    load_metrics_csv,
    save_metrics_csv,
    standardize,
)
from .metaclf import (
    LogisticModel,
    MetaModel,
    MlpModel,
    TrainConfig,
    bce_loss,
    bce_loss_mean,
    count_parameters,
    gradient,
    load_model,
    parameter_breakdown,
    predict,
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
    SampleSet,
    ScoreMap,
    load_mask,
    load_probability_map,
    load_samples,
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
    entropy_map,
    loss_in,
    loss_out,
    margin_map,
    pixel_entropy,
    variation_ratio_map,
)
from .segments import (
    ComponentRecord,
    ThresholdConfig,
    component_iou,
    connected_components,
    extract_labeled_components,
    label_components,
    ood_pixel_set,
)
from .synth import SceneSpec, generate

__version__ = "0.1.0"

__all__ = [
    "EvalReport", "LarsOrdering", "auprc", "auroc", "evaluate_components",
    "evaluate_pixels", "evaluate_scores", "fpr_at_95_tpr",
    "incremental_evaluation", "lars_order", "leave_one_out", "loo_scores",
    "ood_fraction", "split_by_ood_fraction",
    "MetricRegistry", "MetricsDataset", "StandardizationStats",
    "build_metrics_dataset", "extract_metrics", "load_metrics_csv",
    "save_metrics_csv", "standardize",
    "LogisticModel", "MetaModel", "MlpModel", "TrainConfig", "bce_loss",
    "bce_loss_mean", "count_parameters", "gradient", "load_model",
    "parameter_breakdown", "predict", "predict_batch",
    "remove_false_positives", "save_model", "train",
    "IGNORE_LABEL", "OOD_LABEL", "LabelMask", "ProbabilityMap",
    "RasterFormatError", "Sample", "SampleSet", "ScoreMap", "load_mask",
    "load_probability_map", "load_samples", "load_score_map", "save_mask",
    "save_probability_map", "save_samples", "save_score_map",
    "LossBreakdown", "anomaly_score_map", "combined_objective", "entropy_map",
    "loss_in", "loss_out", "margin_map", "pixel_entropy",
    "variation_ratio_map",
    "ComponentRecord", "ThresholdConfig", "component_iou",
    "connected_components", "extract_labeled_components", "label_components",
    "ood_pixel_set",
    "SceneSpec", "generate",
]
