"""Evaluation and analysis tooling.

Every curve metric (AUROC, average-precision AUPRC, FPR at 95% TPR and
the ROC/PR points) is read from one count table: a single stable sort
gives the cumulative true- and false-positive counts at each distinct
score, with no interpolation, so results are bit-reproducible and equal
to brute-force oracles.  AUROC is the tie-aware trapezoid over that
table, i.e. Mann-Whitney U with ties counted half.  Component-level
evaluation scores every metric row with a trained meta classifier, the
positive class being "false positive component"; pixel-level evaluation
pools pixels over all images with OOD as the positive class and IGNORE
pixels excluded.

Leave-one-out cross-validation holds out one sample (image) at a time,
trains on the remaining rows with the same seed, and pools the held-out
predictions.  Least-angle regression supplies a feature entry order,
which the incremental evaluation consumes: train and evaluate on the
first i ordered metrics, for i = 1..N_m, keeping subset columns in
their original dataset order so the final entry reproduces the
full-feature run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import MetricsDataset, build_metrics_dataset
from .metaclf import TrainConfig, train
from .raster import LabelMask, SampleSet, ScoreMap, atomic_write_text
from .segments import ThresholdConfig

_TIE_TOL = 1e-12


@dataclass(frozen=True)
class EvalReport:
    """Ranking-quality summary over one scored population."""

    auroc: float
    auprc: float
    fpr95: float | None
    positives: int
    negatives: int

    def __post_init__(self) -> None:
        for name in ("auroc", "auprc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of range: {v}")
        if self.fpr95 is not None and not 0.0 <= self.fpr95 <= 1.0:
            raise ValueError(f"fpr95 out of range: {self.fpr95}")
        if self.positives < 0 or self.negatives < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def prevalence(self) -> float:
        return self.positives / (self.positives + self.negatives)


@dataclass(frozen=True)
class LarsOrdering:
    """Feature entry order plus the absolute correlation at each entry."""

    ordered_metric_indices: tuple
    entry_correlations: tuple

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.ordered_metric_indices)
        if sorted(idx) != list(range(len(idx))):
            raise ValueError("ordered_metric_indices must be a permutation")
        if len(self.entry_correlations) != len(idx):
            raise ValueError("one entry correlation per ordered metric")
        object.__setattr__(self, "ordered_metric_indices", idx)
        object.__setattr__(
            self, "entry_correlations",
            tuple(float(c) for c in self.entry_correlations),
        )


def _rank_table(scores, labels, need_negative: bool):
    """Validate once and sort once: the cumulative (TP, FP) counts at the
    inclusive threshold of each distinct score, descending, plus the
    positive and negative totals."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=bool).reshape(-1)
    if s.shape != y.shape or s.size == 0:
        raise ValueError("scores and labels must be nonempty and equal-length")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    pos = int(y.sum())
    neg = s.size - pos
    if pos == 0:
        raise ValueError("need at least one positive")
    if need_negative and neg == 0:
        raise ValueError("need at least one negative")
    order = np.argsort(-s, kind="stable")
    s = s[order]
    last = np.append(np.flatnonzero(s[1:] != s[:-1]), s.size - 1)
    tp = np.cumsum(y[order])[last]
    return tp, last + 1 - tp, pos, neg


def _auroc(tp, fp, pos, neg) -> float:
    # Each of the n_k negatives of group k is beaten by the tp_k - p_k
    # positives above it and ties the group's p_k positives, so
    # 2U = sum n_k (2 tp_k - p_k): an exact integer, divided once.
    p = np.diff(tp, prepend=0)
    n = np.diff(fp, prepend=0)
    return int(np.sum(n * (2 * tp - p))) / (2 * pos * neg)


def _auprc(tp, fp, pos, neg) -> float:
    recall = tp / pos
    return float(np.sum(np.diff(recall, prepend=0.0) * (tp / (tp + fp))))


def _fpr95(tp, fp, pos, neg) -> float:
    return float((fp[tp / pos >= 0.95] / neg).min())


def auroc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties
    counted half."""
    return _auroc(*_rank_table(scores, labels, need_negative=True))


def auprc(scores, labels) -> float:
    """Average precision over the distinct descending score thresholds."""
    return _auprc(*_rank_table(scores, labels, need_negative=False))


def fpr_at_95_tpr(scores, labels) -> float:
    """Minimum FPR over thresholds whose TPR reaches 0.95, thresholds
    taken at the distinct scores (inclusive), no interpolation."""
    return _fpr95(*_rank_table(scores, labels, need_negative=True))


def roc_points(scores, labels):
    """(FPR, TPR) arrays over the distinct thresholds, with the (0, 0)
    endpoint prepended, for plotting."""
    tp, fp, pos, neg = _rank_table(scores, labels, need_negative=True)
    return np.concatenate([[0.0], fp / neg]), np.concatenate([[0.0], tp / pos])


def pr_points(scores, labels):
    """(recall, precision) arrays over the distinct thresholds."""
    tp, fp, pos, _ = _rank_table(scores, labels, need_negative=False)
    return tp / pos, tp / (tp + fp)


def evaluate_scores(scores, labels) -> EvalReport:
    """AUROC, AUPRC and FPR95 of one scored population, from one table."""
    table = _rank_table(scores, labels, need_negative=True)
    return EvalReport(auroc=_auroc(*table), auprc=_auprc(*table),
                      fpr95=_fpr95(*table), positives=table[2], negatives=table[3])


def evaluate_components(model, dataset: MetricsDataset) -> EvalReport:
    """Score every row with the model; positive class = false positive."""
    return evaluate_scores(model.predict_raw_batch(dataset.rows), dataset.labels)


def evaluate_pixels(scores, masks) -> EvalReport:
    """Pool pixels of all images: positive class = OOD pixels, IGNORE
    pixels excluded."""
    if len(scores) != len(masks) or not scores:
        raise ValueError("need equal-length, nonempty score/mask lists")
    pooled_scores = []
    pooled_labels = []
    for smap, mask in zip(scores, masks):
        if (smap.height, smap.width) != (mask.height, mask.width):
            raise ValueError(
                f"score map {smap.height}x{smap.width} does not match "
                f"mask {mask.height}x{mask.width}"
            )
        keep = ~mask.is_ignore()
        pooled_scores.append(smap.scores[keep])
        pooled_labels.append(mask.is_ood()[keep])
    s = np.concatenate(pooled_scores)
    y = np.concatenate(pooled_labels)
    if not y.any():
        raise ValueError("no OOD pixels in any mask")
    return evaluate_scores(s, y)


# ---------------------------------------------------------------------------
# Leave-one-out cross-validation
# ---------------------------------------------------------------------------


def loo_scores(
    model_kind: str,
    dataset: MetricsDataset,
    cfg: TrainConfig,
    hidden_dims=(75, 75, 75),
) -> np.ndarray:
    """Pooled leave-one-group-out predictions, aligned with the dataset's
    rows.  Each fold trains with the same configuration and seed."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    groups = list(dict.fromkeys(dataset.group_ids))
    if len(groups) < 2:
        raise ValueError("leave-one-out needs at least 2 groups")
    out = np.full(len(dataset), np.nan)
    for group in groups:
        train_ix, held_ix = dataset.split_by_group(group)
        if not train_ix:
            raise ValueError(f"group {group!r} holds every row; cannot train")
        fold = train(model_kind, dataset.subset(train_ix), cfg,
                     hidden_dims=hidden_dims)[0]
        out[held_ix] = fold.predict_raw_batch(dataset.rows[held_ix])
    return out


def leave_one_out(
    model_kind: str,
    samples: SampleSet,
    cfg: TrainConfig,
    threshold: ThresholdConfig,
    registry,
    hidden_dims=(75, 75, 75),
):
    """Build the metrics dataset, run leave-one-sample-out evaluation,
    and report over the pooled predictions.  Returns (scores, report)."""
    if len(samples) < 2:
        raise ValueError("leave-one-out needs at least 2 samples")
    dataset = build_metrics_dataset(samples, threshold, registry)
    scores = loo_scores(model_kind, dataset, cfg, hidden_dims=hidden_dims)
    return scores, evaluate_scores(scores, dataset.labels)


# ---------------------------------------------------------------------------
# Least-angle regression ordering
# ---------------------------------------------------------------------------


def lars_order(dataset: MetricsDataset) -> LarsOrdering:
    """Classical least-angle-regression entry order of the metrics.

    Columns are standardized and the 0/1 response centered internally.
    At each step the inactive metric with the largest absolute residual
    correlation joins (ties, within 1e-12, to the lowest index), then the
    fit advances along the equiangular direction of the active set until
    the next tie.  Zero-variance metrics cannot correlate and are
    appended at the end in ascending index order with correlation 0; the
    same happens for metrics left over once the residual correlation
    vanishes.
    """
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least 2 rows")
    y = dataset.labels.astype(np.float64)
    y = y - y.mean()
    if not y.any():
        raise ValueError("response has zero variance (single-class labels)")
    x = dataset.rows
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    degenerate = sd == 0.0
    x = (x - mean) / np.where(degenerate, 1.0, sd)
    x[:, degenerate] = 0.0

    p = x.shape[1]
    live = [j for j in range(p) if not degenerate[j]]
    order: list = []
    corr: list = []
    mu = np.zeros(n)
    while live:
        c = x.T @ (y - mu)
        c_live = np.array([abs(c[j]) for j in live])
        cmax = c_live.max()
        if cmax < _TIE_TOL:
            order.extend(live)
            corr.extend(0.0 for _ in live)
            break
        entering = min(j for j, cj in zip(live, c_live) if cj >= cmax - _TIE_TOL)
        order.append(entering)
        corr.append(float(abs(c[entering])))
        live.remove(entering)
        if not live:
            break

        active = order
        signs = np.sign(c[active])
        signs[signs == 0] = 1.0
        xa = x[:, active] * signs
        ga = xa.T @ xa
        ones = np.ones(len(active))
        try:
            w = np.linalg.solve(ga, ones)
        except np.linalg.LinAlgError:
            w = np.linalg.lstsq(ga, ones, rcond=None)[0]
        denom = float(ones @ w)
        if not np.isfinite(denom) or denom <= 0:
            # Degenerate active set; skip the advance and let raw
            # correlations drive the remaining entries.
            continue
        a_norm = 1.0 / np.sqrt(denom)
        u = xa @ (a_norm * w)
        a = x.T @ u
        gammas = []
        # A column moving in lockstep with the active set (for example an
        # exact duplicate) yields 0/0 here; the finiteness filter drops it.
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in live:
                for val in (
                    (cmax - c[j]) / (a_norm - a[j]),
                    (cmax + c[j]) / (a_norm + a[j]),
                ):
                    if np.isfinite(val) and val > _TIE_TOL:
                        gammas.append(val)
        gamma = min(gammas) if gammas else cmax / a_norm
        mu = mu + gamma * u

    order.extend(j for j in range(p) if degenerate[j])
    corr.extend(0.0 for j in range(p) if degenerate[j])
    return LarsOrdering(
        ordered_metric_indices=tuple(order), entry_correlations=tuple(corr)
    )


# ---------------------------------------------------------------------------
# Incremental (metric-subset) evaluation
# ---------------------------------------------------------------------------


def incremental_evaluation(
    model_kind: str,
    dataset: MetricsDataset,
    cfg: TrainConfig,
    hidden_dims=(75, 75, 75),
):
    """Evaluate metric subsets of growing size along the entry order.

    For i = 1..N_m, the first i ordered metrics are selected (kept in
    their original column order), the model is reinitialized and
    leave-one-group-out evaluated, and pooled AUROC/AUPRC appended.  The
    final step selects every column, reproducing the full-feature run
    bit-for-bit.
    """
    ordering = lars_order(dataset)
    aurocs = []
    auprcs = []
    for i in range(1, dataset.num_metrics + 1):
        cols = sorted(ordering.ordered_metric_indices[:i])
        sub = dataset.select_metrics(cols)
        scores = loo_scores(model_kind, sub, cfg, hidden_dims=hidden_dims)
        report = evaluate_scores(scores, sub.labels)
        aurocs.append(report.auroc)
        auprcs.append(report.auprc)
    return aurocs, auprcs


# ---------------------------------------------------------------------------
# Proxy-informativeness split
# ---------------------------------------------------------------------------


def ood_fraction(mask: LabelMask) -> float:
    """OOD pixels over non-IGNORE pixels."""
    valid = ~mask.is_ignore()
    total = int(valid.sum())
    if total == 0:
        raise ValueError("mask has no non-IGNORE pixels")
    return int(mask.is_ood().sum()) / total


def split_by_ood_fraction(masks, low: float, high: float):
    """Partition mask indices by OOD fraction: f <= low, f >= high, rest."""
    if not 0.0 <= low <= high <= 1.0:
        raise ValueError(f"need 0 <= low <= high <= 1, got {low}, {high}")
    low_set, high_set, rest = [], [], []
    for i, mask in enumerate(masks):
        f = ood_fraction(mask)
        if f <= low:
            low_set.append(i)
        elif f >= high:
            high_set.append(i)
        else:
            rest.append(i)
    return low_set, high_set, rest


# ---------------------------------------------------------------------------
# Report and plot serialization
# ---------------------------------------------------------------------------


def save_report_csv(report: EvalReport, path) -> None:
    """Two-column (metric, value) CSV."""
    rows = [
        ("auroc", f"{report.auroc:.9g}"),
        ("auprc", f"{report.auprc:.9g}"),
    ]
    if report.fpr95 is not None:
        rows.append(("fpr95", f"{report.fpr95:.9g}"))
    rows.extend(
        [
            ("positives", str(report.positives)),
            ("negatives", str(report.negatives)),
            ("prevalence", f"{report.prevalence:.9g}"),
        ]
    )
    lines = ["metric,value"] + [f"{k},{v}" for k, v in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def svg_line_plot(
    series,
    path,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    x_range=None,
    y_range=None,
    width: int = 640,
    height: int = 480,
) -> None:
    """Standalone SVG line plot; `series` is a list of (name, xs, ys).

    Coordinates are emitted with 6 decimals, so identical inputs give
    identical files.
    """
    if not series:
        raise ValueError("need at least one series")
    margin = 56.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    def _bounds(vals, forced):
        if forced is not None:
            lo, hi = float(forced[0]), float(forced[1])
        else:
            arr = np.concatenate([np.asarray(v, dtype=np.float64) for v in vals])
            lo, hi = float(arr.min()), float(arr.max())
        if hi <= lo:
            hi = lo + 1.0
        return lo, hi

    x_lo, x_hi = _bounds([s[1] for s in series], x_range)
    y_lo, y_hi = _bounds([s[2] for s in series], y_range)

    def px(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.6f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    axis = (
        f'<polyline fill="none" stroke="black" stroke-width="1" points='
        f'"{margin:.6f},{margin:.6f} {margin:.6f},{height - margin:.6f} '
        f'{width - margin:.6f},{height - margin:.6f}"/>'
    )
    out.append(axis)
    for k in range(5):
        fx = x_lo + (x_hi - x_lo) * k / 4
        fy = y_lo + (y_hi - y_lo) * k / 4
        xp, yp = px(fx), py(fy)
        out.append(
            f'<line x1="{xp:.6f}" y1="{height - margin:.6f}" x2="{xp:.6f}" '
            f'y2="{height - margin + 5:.6f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{xp:.6f}" y="{height - margin + 18:.6f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{fx:.2f}</text>"
        )
        out.append(
            f'<line x1="{margin - 5:.6f}" y1="{yp:.6f}" x2="{margin:.6f}" '
            f'y2="{yp:.6f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{margin - 8:.6f}" y="{yp + 4:.6f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{fy:.2f}</text>'
        )
    out.append(
        f'<text x="{width / 2:.6f}" y="{height - 12:.6f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    out.append(
        f'<text x="16" y="{height / 2:.6f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {height / 2:.6f})">{y_label}</text>'
    )
    for si, (name, xs, ys) in enumerate(series):
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.size == 0:
            raise ValueError(f"series {name!r} needs equal-length nonempty data")
        color = _PALETTE[si % len(_PALETTE)]
        pts = " ".join(f"{px(x):.6f},{py(v):.6f}" for x, v in zip(xs, ys))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )
        ly = margin + 16 + 16 * si
        out.append(
            f'<line x1="{width - margin - 150:.6f}" y1="{ly - 4:.6f}" '
            f'x2="{width - margin - 126:.6f}" y2="{ly - 4:.6f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{width - margin - 120:.6f}" y="{ly:.6f}" '
            f'font-family="sans-serif" font-size="12">{name}</text>'
        )
    out.append("</svg>")
    atomic_write_text(path, "\n".join(out) + "\n")


def save_curve_csv(columns, path) -> None:
    """CSV with named numeric columns of equal length."""
    names = [name for name, _ in columns]
    arrays = [np.asarray(vals, dtype=np.float64).reshape(-1) for _, vals in columns]
    if not arrays or any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError("columns must be nonempty and equal-length")
    lines = [",".join(names)]
    for i in range(arrays[0].shape[0]):
        lines.append(",".join(f"{a[i]:.9g}" for a in arrays))
    atomic_write_text(path, "\n".join(lines) + "\n")
