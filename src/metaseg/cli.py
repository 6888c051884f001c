"""Command-line front end for the anomaly-segmentation meta pipeline.

Subcommands chain the library stages: score maps from probability
rasters, component tables, metric datasets, meta-classifier training
and evaluation, leave-one-out runs, feature ordering and incremental
curves, proxy splits, pixel-level evaluation, and synthetic data
generation.  Every subcommand is deterministic given its inputs and
declared seed, and all outputs are written atomically.

Exit codes: 0 success, 1 usage error, 2 data error.  The environment
variable METASEG_THREADS caps the worker pool used for per-file work.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, features, metaclf, raster, scoring, segments, synth

_PROG = "metaseg"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: the subcommand plus its validated options."""

    command: str
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        t = self.options.get("t")
        if t is not None and not 0.0 <= t <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {t}")
        for name in ("ood_label", "ignore_label"):
            v = self.options.get(name)
            if v is not None and not 0 <= v <= 255:
                raise ValueError(f"{name} must fit in a byte, got {v}")

    def train_config(self) -> metaclf.TrainConfig:
        o = self.options
        return metaclf.TrainConfig(
            learning_rate=o["lr"],
            weight_decay=o["weight_decay"],
            epochs=o["epochs"],
            batch_size=o["batch_size"],
            seed=o["seed"],
        )


def _thread_count() -> int:
    raw = os.environ.get("METASEG_THREADS")
    if raw is None:
        return min(os.cpu_count() or 1, 8)
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"METASEG_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ValueError("METASEG_THREADS must be >= 1")
    return n


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=("logistic", "mlp"), default="logistic",
                   help="meta classifier family")
    p.add_argument("--seed", type=int, default=0, help="training seed")
    p.add_argument("--lr", type=float, default=1e-3, help="learning rate")
    p.add_argument("--weight-decay", type=float, default=5e-3,
                   help="decoupled weight decay on weights")
    p.add_argument("--epochs", type=int, default=50, help="training epochs")
    p.add_argument("--batch-size", type=int, default=128, help="mini-batch size")


def _add_mask_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ood-label", type=int, default=raster.OOD_LABEL,
                   help="mask value meaning out-of-distribution")
    p.add_argument("--ignore-label", type=int, default=raster.IGNORE_LABEL,
                   help="mask value excluded from all computations")


def _build_parser() -> _Parser:
    parser = _Parser(prog=_PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", parents=[], help="probability maps to score maps")
    p.add_argument("--in", dest="in_dir", required=True,
                   help="directory of .rast probability maps")
    p.add_argument("--out", dest="out_dir", required=True,
                   help="directory for .score.rast outputs")

    p = sub.add_parser("segments", help="labeled component table from samples")
    p.add_argument("--in", dest="in_dir", required=True,
                   help="directory of .rast/.pgm sample pairs")
    p.add_argument("--t", type=float, default=0.7, help="score threshold")
    p.add_argument("--min-size", type=int, default=1,
                   help="drop components smaller than this many pixels")
    p.add_argument("--out", dest="out_csv", required=True, help="output CSV")
    _add_mask_flags(p)

    p = sub.add_parser("metrics", help="hand-crafted metrics dataset from samples")
    p.add_argument("--in", dest="in_dir", required=True,
                   help="directory of .rast/.pgm sample pairs")
    p.add_argument("--t", type=float, default=0.7, help="score threshold")
    p.add_argument("--out", dest="out_csv", required=True, help="output CSV")
    _add_mask_flags(p)

    p = sub.add_parser("train-meta", help="train a meta classifier on a metrics CSV")
    p.add_argument("--mu", required=True, help="metrics dataset CSV")
    p.add_argument("--out", dest="out_model", required=True, help="model file")
    p.add_argument("--t", type=float, default=0.7,
                   help="threshold recorded with the model")
    _add_train_flags(p)

    p = sub.add_parser("eval-meta", help="evaluate a trained meta classifier")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--mu", required=True, help="metrics dataset CSV")
    p.add_argument("--out", dest="out_csv", required=True, help="report CSV")
    p.add_argument("--roc-svg", help="optional ROC curve SVG")
    p.add_argument("--pr-svg", help="optional PR curve SVG")

    p = sub.add_parser("loo", help="leave-one-sample-out evaluation")
    p.add_argument("--mu", required=True, help="metrics dataset CSV")
    p.add_argument("--out", dest="out_csv", required=True, help="report CSV")
    p.add_argument("--scores-csv", help="optional pooled per-component scores CSV")
    _add_train_flags(p)

    p = sub.add_parser("lars", help="least-angle-regression metric ordering")
    p.add_argument("--mu", required=True, help="metrics dataset CSV")
    p.add_argument("--out", dest="out_csv", required=True, help="ordering CSV")

    p = sub.add_parser("incremental", help="metric-subset evaluation curves")
    p.add_argument("--mu", required=True, help="metrics dataset CSV")
    p.add_argument("--out", dest="out_csv", required=True, help="curve CSV")
    p.add_argument("--svg", help="optional curve SVG")
    _add_train_flags(p)

    p = sub.add_parser("filter-proxy", help="split masks by OOD pixel fraction")
    p.add_argument("--in", dest="in_dir", required=True,
                   help="directory of .pgm masks")
    p.add_argument("--low", type=float, default=0.2,
                   help="low bucket: fraction <= this")
    p.add_argument("--high", type=float, default=0.8,
                   help="high bucket: fraction >= this")
    p.add_argument("--out", dest="out_csv", required=True, help="split CSV")
    _add_mask_flags(p)

    p = sub.add_parser("eval-pixel", help="pooled pixel-level evaluation")
    p.add_argument("--scores", dest="scores_dir", required=True,
                   help="directory of .score.rast files")
    p.add_argument("--masks", dest="masks_dir", required=True,
                   help="directory of .pgm masks")
    p.add_argument("--out", dest="out_csv", required=True, help="report CSV")
    _add_mask_flags(p)

    p = sub.add_parser("synth", help="generate synthetic sample pairs")
    p.add_argument("--out", dest="out_dir", required=True, help="output directory")
    p.add_argument("--count", type=int, default=10, help="number of scenes")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--classes", type=int, default=19)
    p.add_argument("--blob-min", type=int, default=2,
                   help="minimum true blobs per scene")
    p.add_argument("--blob-max", type=int, default=4,
                   help="maximum true blobs per scene")
    p.add_argument("--size-min", type=int, default=4, help="minimum blob size")
    p.add_argument("--size-max", type=int, default=10, help="maximum blob size")
    p.add_argument("--anomaly-entropy", type=float, default=0.85)
    p.add_argument("--background-entropy", type=float, default=0.2)
    p.add_argument("--false-rate", type=float, default=2.0,
                   help="expected false blobs per scene")
    p.add_argument("--couple", action="store_true",
                   help="enable the nonlinear feature-label coupling")
    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_score(cfg: RunConfig) -> None:
    in_dir = Path(cfg.options["in_dir"])
    out_dir = Path(cfg.options["out_dir"])
    paths = [
        p for p in sorted(in_dir.glob("*.rast"))
        if not p.name.endswith(".score.rast")
    ]
    if not paths:
        raise ValueError(f"{in_dir}: no probability maps found")
    out_dir.mkdir(parents=True, exist_ok=True)

    def work(path: Path) -> None:
        smap = scoring.anomaly_score_file(path)
        raster.save_score_map(smap, out_dir / f"{path.stem}.score.rast")

    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        list(pool.map(work, paths))
    print(f"wrote {len(paths)} score maps to {out_dir}")


def _iter_samples(cfg: RunConfig):
    return raster.iter_samples(
        cfg.options["in_dir"],
        ood_label=cfg.options.get("ood_label", raster.OOD_LABEL),
        ignore_label=cfg.options.get("ignore_label", raster.IGNORE_LABEL),
    )


def _cmd_segments(cfg: RunConfig) -> None:
    tcfg = segments.ThresholdConfig(cfg.options["t"])

    # One sample per call; `map` keeps no sample alive while the next loads.
    def sample_lines(sample: raster.Sample) -> list:
        smap = scoring.anomaly_score_map(sample.pmap)
        comps = segments.extract_labeled_components(
            smap, sample.mask, tcfg,
            min_size=cfg.options["min_size"], source_sample=sample.id,
        )
        return [
            [sample.id] + [str(int(v)) for v in (
                comp.id, comp.size, comp.interior_size, comp.boundary_size,
                *comp.bbox, comp.is_false_positive,
            )]
            for comp in comps
        ]

    records = [[
        "group_id", "component_id", "size", "size_interior", "size_boundary",
        "bbox_rmin", "bbox_rmax", "bbox_cmin", "bbox_cmax", "is_false_positive",
    ]]
    for part in map(sample_lines, _iter_samples(cfg)):
        records.extend(part)
    raster.atomic_write_text(cfg.options["out_csv"], raster.csv_text(records))
    print(f"wrote {len(records) - 1} components to {cfg.options['out_csv']}")


def _cmd_metrics(cfg: RunConfig) -> None:
    dataset = features.build_metrics_dataset(
        _iter_samples(cfg), segments.ThresholdConfig(cfg.options["t"])
    )
    features.save_metrics_csv(dataset, cfg.options["out_csv"])
    print(
        f"wrote {len(dataset)} rows x {dataset.num_metrics} metrics "
        f"to {cfg.options['out_csv']}"
    )


def _cmd_train_meta(cfg: RunConfig) -> None:
    dataset = features.load_metrics_csv(cfg.options["mu"])
    model, trace = metaclf.train(
        cfg.options["kind"], dataset, cfg.train_config(),
        threshold=cfg.options["t"],
    )
    metaclf.save_model(model, cfg.options["out_model"])
    final = f"{trace[-1]:.6f}" if trace else "n/a"
    print(
        f"trained {cfg.options['kind']} on {len(dataset)} rows; "
        f"final epoch loss {final}; wrote {cfg.options['out_model']}"
    )


def _report_and_print(report: analysis.EvalReport, out_csv: str) -> None:
    analysis.save_report_csv(report, out_csv)
    fpr = f"{report.fpr95:.4f}" if report.fpr95 is not None else "n/a"
    print(
        f"auroc {report.auroc:.4f}  auprc {report.auprc:.4f}  fpr95 {fpr}  "
        f"({report.positives} positives / {report.negatives} negatives)"
    )


def _cmd_eval_meta(cfg: RunConfig) -> None:
    model = metaclf.load_model(cfg.options["model"])
    dataset = features.load_metrics_csv(cfg.options["mu"])
    scores = model.predict_raw_batch(dataset.rows)
    report, (fpr, tpr), (rec, prec) = analysis.evaluate_with_curves(
        scores, dataset.labels
    )
    if cfg.options.get("roc_svg"):
        analysis.svg_line_plot(
            [("ROC", fpr, tpr)], cfg.options["roc_svg"],
            title="Component ROC", x_label="false positive rate",
            x_range=(0, 1), y_range=(0, 1), y_label="true positive rate",
        )
    if cfg.options.get("pr_svg"):
        analysis.svg_line_plot(
            [("PR", rec, prec)], cfg.options["pr_svg"],
            title="Component precision-recall", x_label="recall",
            x_range=(0, 1), y_range=(0, 1), y_label="precision",
        )
    _report_and_print(report, cfg.options["out_csv"])


def _cmd_loo(cfg: RunConfig) -> None:
    dataset = features.load_metrics_csv(cfg.options["mu"])
    scores = analysis.loo_scores(cfg.options["kind"], dataset, cfg.train_config())
    report = analysis.evaluate_scores(scores, dataset.labels)
    if cfg.options.get("scores_csv"):
        records = [["row", "group_id", "label", "score"]] + [
            [str(i), g, str(int(y)), f"{s:.9g}"]
            for i, (g, y, s) in enumerate(
                zip(dataset.group_ids, dataset.labels, scores)
            )
        ]
        raster.atomic_write_text(cfg.options["scores_csv"], raster.csv_text(records))
    _report_and_print(report, cfg.options["out_csv"])


def _cmd_lars(cfg: RunConfig) -> None:
    dataset = features.load_metrics_csv(cfg.options["mu"])
    ordering = analysis.lars_order(dataset)
    records = [["step", "metric_index", "metric_name", "entry_correlation"]] + [
        [str(step), str(idx), dataset.registry.names[idx], f"{corr:.9g}"]
        for step, (idx, corr) in enumerate(
            zip(ordering.ordered_metric_indices, ordering.entry_correlations)
        )
    ]
    raster.atomic_write_text(cfg.options["out_csv"], raster.csv_text(records))
    print(f"wrote ordering of {dataset.num_metrics} metrics to {cfg.options['out_csv']}")


def _cmd_incremental(cfg: RunConfig) -> None:
    dataset = features.load_metrics_csv(cfg.options["mu"])
    aurocs, auprcs = analysis.incremental_evaluation(
        cfg.options["kind"], dataset, cfg.train_config()
    )
    steps = np.arange(1, len(aurocs) + 1)
    analysis.save_curve_csv(
        [("num_metrics", steps), ("auroc", aurocs), ("auprc", auprcs)],
        cfg.options["out_csv"],
    )
    if cfg.options.get("svg"):
        analysis.svg_line_plot(
            [("AUROC", steps, aurocs), ("AUPRC", steps, auprcs)],
            cfg.options["svg"],
            title="Incremental metric evaluation",
            x_label="number of metrics", y_label="value", y_range=(0, 1),
        )
    print(
        f"wrote {len(aurocs)}-step incremental curve to {cfg.options['out_csv']}"
    )


def _cmd_filter_proxy(cfg: RunConfig) -> None:
    in_dir = Path(cfg.options["in_dir"])
    paths = sorted(in_dir.glob("*.pgm"))
    if not paths:
        raise ValueError(f"{in_dir}: no masks found")
    masks = [
        raster.load_mask(
            p, ood_label=cfg.options["ood_label"],
            ignore_label=cfg.options["ignore_label"],
        )
        for p in paths
    ]
    low_ix, high_ix, rest_ix = analysis.split_by_ood_fraction(
        masks, cfg.options["low"], cfg.options["high"]
    )
    bucket = {}
    for i in low_ix:
        bucket[i] = "low"
    for i in high_ix:
        bucket[i] = "high"
    for i in rest_ix:
        bucket[i] = "rest"
    records = [["id", "ood_fraction", "bucket"]] + [
        [path.stem, f"{analysis.ood_fraction(masks[i]):.9g}", bucket[i]]
        for i, path in enumerate(paths)
    ]
    raster.atomic_write_text(cfg.options["out_csv"], raster.csv_text(records))
    print(
        f"split {len(paths)} masks: {len(low_ix)} low / {len(high_ix)} high / "
        f"{len(rest_ix)} rest"
    )


def _cmd_eval_pixel(cfg: RunConfig) -> None:
    scores_dir = Path(cfg.options["scores_dir"])
    masks_dir = Path(cfg.options["masks_dir"])
    score_paths = sorted(scores_dir.glob("*.score.rast"))
    if not score_paths:
        raise ValueError(f"{scores_dir}: no score maps found")
    smaps, masks = [], []
    for spath in score_paths:
        stem = spath.name[: -len(".score.rast")]
        mpath = masks_dir / f"{stem}.pgm"
        if not mpath.exists():
            raise ValueError(f"{spath}: no matching mask {mpath}")
        smaps.append(raster.load_score_map(spath))
        masks.append(
            raster.load_mask(
                mpath, ood_label=cfg.options["ood_label"],
                ignore_label=cfg.options["ignore_label"],
            )
        )
    report = analysis.evaluate_pixels(smaps, masks)
    _report_and_print(report, cfg.options["out_csv"])


def _cmd_synth(cfg: RunConfig) -> None:
    o = cfg.options
    spec = synth.SceneSpec(
        dims=(o["height"], o["width"]),
        num_classes=o["classes"],
        blob_count=(o["blob_min"], o["blob_max"]),
        blob_size=(o["size_min"], o["size_max"]),
        anomaly_entropy=o["anomaly_entropy"],
        background_entropy=o["background_entropy"],
        false_blob_rate=o["false_rate"],
        nonlinear_coupling=o["couple"],
        seed=o["seed"],
    )
    samples = synth.generate(spec, o["count"])
    raster.save_samples(samples, o["out_dir"])
    print(f"wrote {len(samples)} samples to {o['out_dir']}")


_COMMANDS = {
    "score": _cmd_score,
    "segments": _cmd_segments,
    "metrics": _cmd_metrics,
    "train-meta": _cmd_train_meta,
    "eval-meta": _cmd_eval_meta,
    "loo": _cmd_loo,
    "lars": _cmd_lars,
    "incremental": _cmd_incremental,
    "filter-proxy": _cmd_filter_proxy,
    "eval-pixel": _cmd_eval_pixel,
    "synth": _cmd_synth,
}


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits directly for --help/--version.
        return int(exc.code or 0)
    try:
        cfg = RunConfig(command=ns.command, options=vars(ns))
        _COMMANDS[ns.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
