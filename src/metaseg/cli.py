"""Command-line front end for the anomaly-segmentation meta pipeline.

Subcommands chain the library stages: score maps from probability
rasters, component tables, metric datasets, meta-classifier training
and evaluation, leave-one-out runs, feature ordering and incremental
curves, proxy splits, pixel-level evaluation, and synthetic data
generation.  Every subcommand is deterministic given its inputs and
declared seed, and all outputs are written atomically.  Each subcommand
takes the parsed options as a dict, and the library checks their values:
`segments.ThresholdConfig` the threshold `--t`, before any file is read,
and `raster.load_mask` the mask labels `--ood-label`/`--ignore-label`.

Exit codes: 0 success, 1 usage error, 2 data error.  The environment
variable METASEG_THREADS caps the workers a step runs at once: the
threads of `score`, `segments` and `metrics` (`raster.thread_map`) and
the worker processes of `loo` and `incremental`; 1 keeps every step in
one thread.  Those three steps give a map to a thread only if it holds
at least `raster._THREAD_MIN_VALUES` values, and work on smaller ones in
the main thread.  Outputs and errors do not depend on the number of
workers.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, features, metaclf, raster, scoring, segments, synth

_PROG = "metaseg"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _train_config(o: dict) -> metaclf.TrainConfig:
    return metaclf.TrainConfig(
        learning_rate=o["lr"],
        weight_decay=o["weight_decay"],
        epochs=o["epochs"],
        batch_size=o["batch_size"],
        seed=o["seed"],
    )


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=tuple(metaclf.HIDDEN_DIMS), default="logistic",
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
                   help="the threshold mu.csv was built at, refused above "
                        "its smallest ent_mean; remove_false_positives "
                        "applies it")
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


def _cmd_score(o: dict) -> None:
    in_dir = Path(o["in_dir"])
    out_dir = Path(o["out_dir"])
    paths = raster.probability_map_paths(in_dir)
    if not paths:
        raise ValueError(f"{in_dir}: no probability maps found")
    out_dir.mkdir(parents=True, exist_ok=True)

    def work(path: Path) -> None:
        smap = scoring.anomaly_score_file(path)
        raster.save_score_map(smap, out_dir / f"{path.stem}.score.rast")

    def values(path: Path) -> int:
        # From the file's length, 4 bytes a value: a parsed header would
        # refuse a bad map as it is drawn, ahead of the maps before it.
        return (path.stat().st_size - raster._HEADER_LEN) // 4

    for _ in raster.thread_map(work, paths, values):
        pass
    print(f"wrote {len(paths)} score maps to {out_dir}")


def _sample_files(o: dict):
    return raster.iter_sample_files(
        o["in_dir"], ood_label=o["ood_label"], ignore_label=o["ignore_label"]
    )


def _cmd_segments(o: dict) -> None:
    t = segments.ThresholdConfig(o["t"]).t

    # One sample per call, so that no sample outlives its work.
    def sample_lines(sample: raster.SampleFile) -> list:
        smap = scoring.anomaly_score_file(sample.path)
        image = segments.label_image(
            smap.scores >= t, o["min_size"], sample.mask.is_ood()
        )
        sizes, boundary = image.sizes, image.boundary_sizes
        table = np.column_stack([
            np.arange(image.count), sizes, sizes - boundary, boundary,
            image.bboxes, image.is_false_positive,
        ])
        group = raster.csv_field(sample.id) + ","
        return [group + ",".join(map(str, row)) + "\n" for row in table.tolist()]

    header = raster.csv_text([[
        "group_id", "component_id", "size", "size_interior", "size_boundary",
        "bbox_rmin", "bbox_rmax", "bbox_cmin", "bbox_cmax", "is_false_positive",
    ]])
    parts = raster.thread_map(
        sample_lines, _sample_files(o), values=lambda s: math.prod(s.dims)
    )
    lines = [line for part in parts for line in part]
    raster.atomic_write_text(o["out_csv"], header + "".join(lines))
    print(f"wrote {len(lines)} components to {o['out_csv']}")


def _cmd_metrics(o: dict) -> None:
    dataset = features.build_metrics_dataset(
        _sample_files(o), segments.ThresholdConfig(o["t"])
    )
    features.save_metrics_csv(dataset, o["out_csv"])
    print(
        f"wrote {len(dataset)} rows x {dataset.num_metrics} metrics "
        f"to {o['out_csv']}"
    )


def _cmd_train_meta(o: dict) -> None:
    t = segments.ThresholdConfig(o["t"]).t
    dataset = features.load_metrics_csv(o["mu"])
    # Every pixel of a component built at a threshold is at or above it,
    # and so is its ent_mean; the margin covers the %.9g rounding of mu.csv.
    if "ent_mean" in dataset.names:
        low = dataset.rows[:, dataset.names.index("ent_mean")].min(initial=np.inf)
        if t > low + 1e-8:
            raise ValueError(
                f"{o['mu']}: --t {t} is above its smallest ent_mean, {low:.9g}: "
                "the table was built at a lower threshold"
            )
    model, trace = metaclf.train(
        dataset, _train_config(o), threshold=t,
        hidden_dims=metaclf.HIDDEN_DIMS[o["kind"]],
    )
    metaclf.save_model(model, o["out_model"])
    final = f"{trace[-1]:.6f}" if trace else "n/a"
    print(
        f"trained {o['kind']} on {len(dataset)} rows; "
        f"final epoch loss {final}; wrote {o['out_model']}"
    )


def _report_and_print(report: analysis.EvalReport, out_csv: str) -> None:
    analysis.save_report_csv(report, out_csv)
    print(
        f"auroc {report.auroc:.4f}  auprc {report.auprc:.4f}  fpr95 {report.fpr95:.4f}"
        f"  ({report.positives} positives / {report.negatives} negatives)"
    )


def _cmd_eval_meta(o: dict) -> None:
    model = metaclf.load_model(o["model"])
    dataset = features.load_metrics_csv(o["mu"])
    report, (fpr, tpr), (rec, prec) = analysis.evaluate_components(model, dataset)
    if o.get("roc_svg"):
        analysis.svg_line_plot(
            [("ROC", fpr, tpr)], o["roc_svg"],
            title="Component ROC", x_label="false positive rate",
            x_range=(0, 1), y_range=(0, 1), y_label="true positive rate",
        )
    if o.get("pr_svg"):
        analysis.svg_line_plot(
            [("PR", rec, prec)], o["pr_svg"],
            title="Component precision-recall", x_label="recall",
            x_range=(0, 1), y_range=(0, 1), y_label="precision",
        )
    _report_and_print(report, o["out_csv"])


def _cmd_loo(o: dict) -> None:
    dataset = features.load_metrics_csv(o["mu"])
    scores = analysis.loo_scores(dataset, _train_config(o),
                                 hidden_dims=metaclf.HIDDEN_DIMS[o["kind"]])
    report = analysis.evaluate_scores(scores, dataset.labels)
    if o.get("scores_csv"):
        records = [["row", "group_id", "label", "score"]] + [
            [str(i), g, str(int(y)), f"{s:.9g}"]
            for i, (g, y, s) in enumerate(
                zip(dataset.group_ids, dataset.labels, scores)
            )
        ]
        raster.atomic_write_text(o["scores_csv"], raster.csv_text(records))
    _report_and_print(report, o["out_csv"])


def _cmd_lars(o: dict) -> None:
    dataset = features.load_metrics_csv(o["mu"])
    ordering = analysis.lars_order(dataset)
    records = [["step", "metric_index", "metric_name", "entry_correlation"]] + [
        [str(step), str(idx), dataset.names[idx], f"{corr:.9g}"]
        for step, (idx, corr) in enumerate(
            zip(ordering.ordered_metric_indices, ordering.entry_correlations)
        )
    ]
    raster.atomic_write_text(o["out_csv"], raster.csv_text(records))
    print(f"wrote ordering of {dataset.num_metrics} metrics to {o['out_csv']}")


def _cmd_incremental(o: dict) -> None:
    dataset = features.load_metrics_csv(o["mu"])
    aurocs, auprcs = analysis.incremental_evaluation(
        dataset, _train_config(o), hidden_dims=metaclf.HIDDEN_DIMS[o["kind"]]
    )
    steps = np.arange(1, len(aurocs) + 1)
    analysis.save_curve_csv(
        [("num_metrics", steps), ("auroc", aurocs), ("auprc", auprcs)],
        o["out_csv"],
    )
    if o.get("svg"):
        analysis.svg_line_plot(
            [("AUROC", steps, aurocs), ("AUPRC", steps, auprcs)],
            o["svg"],
            title="Incremental metric evaluation",
            x_label="number of metrics", y_label="value", y_range=(0, 1),
        )
    print(
        f"wrote {len(aurocs)}-step incremental curve to {o['out_csv']}"
    )


def _cmd_filter_proxy(o: dict) -> None:
    in_dir = Path(o["in_dir"])
    paths = sorted(in_dir.glob("*.pgm"))
    if not paths:
        raise ValueError(f"{in_dir}: no masks found")
    fractions = []
    for path in paths:
        mask = raster.load_mask(
            path, ood_label=o["ood_label"], ignore_label=o["ignore_label"]
        )
        try:
            fractions.append(analysis.ood_fraction(mask))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    buckets = analysis._ood_buckets(fractions, o["low"], o["high"])
    records = [["id", "ood_fraction", "bucket"]] + [
        [path.stem, f"{f:.9g}", b] for path, f, b in zip(paths, fractions, buckets)
    ]
    raster.atomic_write_text(o["out_csv"], raster.csv_text(records))
    print(
        f"split {len(paths)} masks: {buckets.count('low')} low / "
        f"{buckets.count('high')} high / {buckets.count('rest')} rest"
    )


def _cmd_eval_pixel(o: dict) -> None:
    scores_dir = Path(o["scores_dir"])
    masks_dir = Path(o["masks_dir"])
    score_paths = sorted(scores_dir.glob("*.score.rast"))
    if not score_paths:
        raise ValueError(f"{scores_dir}: no score maps found")
    pairs = []
    for spath in score_paths:
        stem = spath.name[: -len(".score.rast")]
        mpath = masks_dir / f"{stem}.pgm"
        if not mpath.exists():
            raise ValueError(f"{spath}: no matching mask {mpath}")
        pairs.append((spath, mpath))
    report = analysis.evaluate_pixel_files(
        pairs, ood_label=o["ood_label"], ignore_label=o["ignore_label"]
    )
    _report_and_print(report, o["out_csv"])


def _cmd_synth(o: dict) -> None:
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
        _COMMANDS[ns.command](vars(ns))
    except (ValueError, OSError) as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
