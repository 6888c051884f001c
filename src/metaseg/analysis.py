"""Evaluation and analysis tooling.

Every curve metric (AUROC, average-precision AUPRC, FPR at 95% TPR and
the ROC/PR points) is read from one count table: one plain sort groups
equal scores, `searchsorted` and `bincount` count the positives of each
group, and cumulative sums give the true- and false-positive counts at
each distinct score, with no interpolation, so results are
bit-reproducible and equal to brute-force oracles.  AUROC is the
tie-aware trapezoid over that table, i.e. Mann-Whitney U with ties
counted half.  Component-level evaluation scores every metric row with a
trained meta classifier, the positive class being "false positive
component"; pixel-level evaluation pools pixels over all images with OOD
as the positive class and IGNORE pixels excluded.  The pool is one score
array and one label array, sized from the masks before any score is
read; score files fill it at float32, which they store, reading only
their kept pixels.  The ranking sorts the pool in place and frees each
array once it is consumed, and the report walks the count table in
slices, so the step holds the pool or the table plus one float64 array
of table length at most.

Leave-one-out cross-validation holds out one sample (image) at a time,
trains on the remaining rows with the same seed, and pools the held-out
predictions.  When the training is large enough to repay starting them,
the folds run on a pool of worker processes, and each fold's predictions
are written back by row, so the result does not depend on the worker
count.  Least-angle regression supplies a feature entry order,
which the incremental evaluation consumes: train and evaluate on the
first i ordered metrics, for i = 1..N_m, keeping subset columns in
their original dataset order so the final entry reproduces the
full-feature run exactly.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .features import MetricsDataset
from .metaclf import HIDDEN_DIMS, TrainConfig, train
from .raster import (
    IGNORE_LABEL,
    OOD_LABEL,
    LabelMask,
    RasterFormatError,
    _open_score_map,
    atomic_write_text,
    csv_text,
    load_mask,
    worker_count,
)

_TIE_TOL = 1e-12


@dataclass(frozen=True)
class EvalReport:
    """Ranking-quality summary over one scored population."""

    auroc: float
    auprc: float
    fpr95: float
    positives: int
    negatives: int

    def __post_init__(self) -> None:
        for name in ("auroc", "auprc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of range: {v}")
        if not 0.0 <= self.fpr95 <= 1.0:
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
    """`_rank_pool` of a copy of the caller's scores, float32 kept as
    float32 (the cast to float64 is exact, so the table is the same) and
    any other dtype cast to float64."""
    s = np.asarray(scores)
    dtype = np.float32 if s.dtype == np.float32 else np.float64
    y = np.asarray(labels, dtype=bool).reshape(-1)
    return _rank_pool([np.array(s.reshape(-1), dtype=dtype), y], need_negative)


def _rank_pool(pool: list, need_negative: bool):
    """Validate once and sort once: the cumulative (TP, FP) counts at the
    inclusive threshold of each distinct score, descending, plus the
    positive and negative totals.

    `pool` is a list [scores, labels] of a 1-d float array and a bool
    array that no caller holds.  It is emptied, so that each array is
    freed once consumed, and the scores are sorted in place.  The sort
    groups equal scores (compared with `!=`, so -0.0 and +0.0 tie);
    `searchsorted` places each positive in its group and `bincount`
    counts them, so no permutation is ever built."""
    s, y = pool
    pool.clear()
    if s.shape != y.shape or s.size == 0:
        raise ValueError("scores and labels must be nonempty and equal-length")
    # min and max propagate NaN: both are finite iff every score is.
    if not (np.isfinite(s.min()) and np.isfinite(s.max())):
        raise ValueError("scores must be finite")
    pos = int(np.count_nonzero(y))
    neg = s.size - pos
    if pos == 0:
        raise ValueError("need at least one positive")
    if need_negative and neg == 0:
        raise ValueError("need at least one negative")
    # Sorted, the positives probe `distinct` in order and stay in cache:
    # searching them in pixel order took 3x as long on 890,880 scores.
    positives = s[y]
    positives.sort()
    del y
    s.sort()
    first = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    distinct = s[first]
    size = s.size
    # Each array is freed once consumed: the table-length arrays alive at
    # once set the step's peak.
    del s
    per_group = np.bincount(np.searchsorted(distinct, positives), minlength=distinct.size)
    del distinct, positives
    # Both sums run in place over reversed views, descending thresholds
    # first: TP sums the positives of the groups at or above each one,
    # and FP = (items at or above) - TP = size - first - TP.
    tp = per_group[::-1]
    np.cumsum(tp, out=tp)
    fp = first[::-1]
    np.subtract(size, fp, out=fp)
    fp -= tp
    return tp, fp, pos, neg


# Elements per slice of the table-length loops of the report, so that
# their temporaries stay small whatever the table's length.
_TABLE_CHUNK = 1 << 14


def _table_slices(n: int):
    """(start, stop) of the consecutive slices of a table of length `n`."""
    for lo in range(0, n, _TABLE_CHUNK):
        yield lo, min(n, lo + _TABLE_CHUNK)


def _auroc(tp, fp, pos, neg) -> float:
    # Each of the n_k negatives of group k is beaten by the tp_k - p_k
    # positives above it and ties the group's p_k positives, so
    # 2U = sum n_k (2 tp_k - p_k): an exact integer, divided once.
    twice_u = 0
    for lo, hi in _table_slices(tp.size):
        t, f = tp[lo:hi], fp[lo:hi]
        p = np.diff(t, prepend=tp[lo - 1] if lo else 0)
        n = np.diff(f, prepend=fp[lo - 1] if lo else 0)
        twice_u += int(np.sum(n * (2 * t - p)))
    return twice_u / (2 * pos * neg)


def _auprc(tp, fp, pos, neg) -> float:
    # Each term is the recall step times the precision; the terms fill one
    # array that `np.sum` adds whole, so the pairwise sum keeps its bits.
    terms = np.empty(tp.size)
    for lo, hi in _table_slices(tp.size):
        t = tp[lo:hi]
        step = np.diff(t / pos, prepend=tp[lo - 1] / pos if lo else 0.0)
        np.multiply(step, t / (t + fp[lo:hi]), out=terms[lo:hi])
    return float(np.sum(terms))


def _fpr95(tp, fp, pos, neg) -> float:
    best = np.inf
    for lo, hi in _table_slices(tp.size):
        reached = fp[lo:hi][tp[lo:hi] / pos >= 0.95]
        if reached.size:
            best = min(best, float((reached / neg).min()))
    return best


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


def _roc(tp, fp, pos, neg):
    return np.concatenate([[0.0], fp / neg]), np.concatenate([[0.0], tp / pos])


def _pr(tp, fp, pos, neg):
    return tp / pos, tp / (tp + fp)


def _report(tp, fp, pos, neg) -> EvalReport:
    return EvalReport(auroc=_auroc(tp, fp, pos, neg), auprc=_auprc(tp, fp, pos, neg),
                      fpr95=_fpr95(tp, fp, pos, neg), positives=pos, negatives=neg)


def evaluate_scores(scores, labels) -> EvalReport:
    """AUROC, AUPRC and FPR95 of one scored population, from one table."""
    return _report(*_rank_table(scores, labels, need_negative=True))


def evaluate_with_curves(scores, labels):
    """`evaluate_scores` of one population with its ROC and PR curves,
    all read from one count table: (report, (fpr, tpr), (recall,
    precision)).  The ROC curve runs over the distinct thresholds, with
    the (0, 0) endpoint prepended."""
    table = _rank_table(scores, labels, need_negative=True)
    return _report(*table), _roc(*table), _pr(*table)


def evaluate_components(model, dataset: MetricsDataset):
    """`evaluate_with_curves` of the model's scores of every row; positive
    class = false positive.  A model that records its metric names
    refuses a dataset whose names differ."""
    model.check_metrics(dataset.names)
    return evaluate_with_curves(model.predict_raw_batch(dataset.rows), dataset.labels)


def _pool_pixels(masks, fills, dtype) -> list:
    """[scores, labels]: the scores and OOD labels of the kept (not IGNORE)
    pixels of every image, in image then raster order, in one `dtype`
    array and one bool array sized from `masks` before any score is read.
    `fills` gives, per image, a function that writes the image's scores
    where its H x W bool `keep` is True, in raster order, into `out`:
    `fill(out, keep)`."""
    if not any(np.any(mask.is_ood()) for mask in masks):
        raise ValueError("no OOD pixels in any mask")
    kept = sum(mask.labels.size - int(np.count_nonzero(mask.is_ignore())) for mask in masks)
    scores = np.empty(kept, dtype=dtype)
    labels = np.empty(kept, dtype=bool)
    at = 0
    for mask, fill in zip(masks, fills):
        keep = ~mask.is_ignore()
        n = int(np.count_nonzero(keep))
        fill(scores[at : at + n], keep)
        np.equal(mask.labels[keep], OOD_LABEL, out=labels[at : at + n])
        at += n
    return [scores, labels]


def evaluate_pixels(scores, masks) -> EvalReport:
    """Pool pixels of all images: positive class = OOD pixels, IGNORE
    pixels excluded."""
    if len(scores) != len(masks) or not scores:
        raise ValueError("need equal-length, nonempty score/mask lists")
    for i, (smap, mask) in enumerate(zip(scores, masks)):
        if (smap.height, smap.width) != (mask.height, mask.width):
            raise ValueError(
                f"image {i}: score map {smap.height}x{smap.width} does not "
                f"match mask {mask.height}x{mask.width}"
            )
    fills = [functools.partial(_compress_kept, smap.scores) for smap in scores]
    pool = _pool_pixels(masks, fills, np.float64)
    return _report(*_rank_pool(pool, need_negative=True))


def _compress_kept(values, out, keep) -> None:
    """`fill` of `_pool_pixels` for the H x W array `values`."""
    np.compress(keep.reshape(-1), values.reshape(-1), out=out)


def _read_kept(path, out, keep) -> None:
    """`fill` of `_pool_pixels` for the score map file at `path`."""
    with _open_score_map(path) as (_, read):
        read(out, keep)


def evaluate_pixel_files(
    pairs, ood_label: int = OOD_LABEL, ignore_label: int = IGNORE_LABEL
) -> EvalReport:
    """`evaluate_pixels` of score maps on disk: `pairs` of (score map path,
    mask path), the masks loaded as `load_mask` does with the labels
    given.

    Every mask is loaded and checked against the size in its score map's
    header before any score is read.  The kept scores are then read file
    by file straight into one float32 array: the files store float32, so
    the pool holds every value exactly, and no score map is ever held
    whole."""
    if not pairs:
        raise ValueError("need a nonempty list of score/mask pairs")
    masks = []
    for spath, mpath in pairs:
        mask = load_mask(mpath, ood_label=ood_label, ignore_label=ignore_label)
        with _open_score_map(spath) as ((h, w), _):
            if (h, w) != (mask.height, mask.width):
                raise RasterFormatError(
                    f"{spath}: score map {h}x{w} does not match "
                    f"mask {mpath} ({mask.height}x{mask.width})"
                )
        masks.append(mask)
    fills = [functools.partial(_read_kept, spath) for spath, _ in pairs]
    pool = _pool_pixels(masks, fills, np.float32)
    # The masks are done with; the ranking is the step's peak.
    del masks
    return _report(*_rank_pool(pool, need_negative=True))


# ---------------------------------------------------------------------------
# Leave-one-out cross-validation
# ---------------------------------------------------------------------------


# Estimated sequential training work, in multiply-adds, above which the
# folds run in worker processes.  Starting the workers, each a fresh
# interpreter that imports numpy and metaseg, and joining them cost
# 0.35 s or more of wall time on a 2-CPU host, where 3e9 is about 1 s of
# training on one core: the logistic leave-one-out on 50 scenes (1e9)
# stays in-process, the MLP one (1.5e10) pools.
_POOL_MIN_WORK = 3e9
# The fixed cost of one layer in one Adam step (the numpy calls of its
# forward, backward and update), in multiply-adds.
_LAYER_STEP_WORK = 2e5


def _training_work(rows: int, num_metrics: int, cfg: TrainConfig, hidden_dims) -> float:
    """A deterministic estimate of one `train` call on `rows` rows, in
    multiply-adds: Adam steps times the per-step cost of every layer."""
    dims = (num_metrics, *hidden_dims, 1)
    steps = cfg.epochs * math.ceil(rows / cfg.batch_size)
    batch = min(rows, cfg.batch_size)
    return steps * sum(_LAYER_STEP_WORK + batch * a * b for a, b in zip(dims, dims[1:]))


def _fold(dataset: MetricsDataset, cfg: TrainConfig, hidden_dims, held: list,
          cols=None) -> np.ndarray:
    """Predictions for the `held` rows by a model trained on every other
    row, in ascending order; with `cols`, on those metric columns only."""
    if cols is not None:
        dataset = dataset.select_metrics(cols)
    train_ix = np.delete(np.arange(len(dataset)), held)
    fold = train(dataset.subset(train_ix), cfg, hidden_dims=hidden_dims)[0]
    return fold.predict_raw_batch(dataset.rows[held])


# (dataset, cfg, hidden_dims) of the pool a worker process serves; set
# by the pool's initializer, in the worker only.
_worker_args = None


def _init_worker(path: str) -> None:
    global _worker_args
    with open(path, "rb") as fh:
        _worker_args = pickle.load(fh)


def _worker_fold(task):
    """`_fold` of one (held rows, cols) task in a worker process: its scores or
    its error, plus the warnings it issued as `warn_explicit` arguments."""
    scores = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            scores = _fold(*_worker_args, *task)
        except Exception as exc:
            error = exc
    return scores, error, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _fold_scores(dataset: MetricsDataset, cfg: TrainConfig, hidden_dims, tasks,
                 work: float) -> list:
    """`_fold` of each (held rows, cols) task, in task order.

    The tasks run in-process unless `worker_count()` allows two workers or
    more and the estimated training `work` exceeds `_POOL_MIN_WORK`; then
    they run on a pool of spawned processes (forking a process that holds
    OpenBLAS threads is unsafe), each of which reads the dataset once from
    a private temporary file.  The workers inherit the environment, with
    the ``OPENBLAS_NUM_THREADS=1`` that importing the package sets when no
    thread variable is set, so their OpenBLAS starts on one thread, and on
    the user's count when one is set.  Handed over in the spawn payload
    instead, a dataset larger than a pipe buffer would make each worker's
    start wait until the one before had imported this package, and a
    worker that failed on start would leave this process blocked forever
    in that write.  A fold's bits do not depend on the process that trains
    it.  Warnings and errors reach the caller as from the in-process run: task
    by task, each fold's warnings are issued again here, at the place the
    fold issued them, and the first error is raised after them (its
    traceback ends here; METASEG_THREADS=1 shows the fold's own).
    """
    workers = min(worker_count(), len(tasks))
    if workers < 2 or work <= _POOL_MIN_WORK:
        return [_fold(dataset, cfg, hidden_dims, *task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    registry = globals().setdefault("__warningregistry__", {})
    out = []
    with tempfile.TemporaryDirectory(prefix="metaseg-folds-") as tmp:
        path = os.path.join(tmp, "folds.pickle")
        with open(path, "wb") as fh:
            pickle.dump((dataset, cfg, hidden_dims), fh, pickle.HIGHEST_PROTOCOL)
        pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker, initargs=(path,),
        )
        try:
            for scores, error, caught in pool.map(_worker_fold, tasks):
                for message, category, filename, lineno in caught:
                    warnings.warn_explicit(message, category, filename, lineno,
                                           module=__name__, registry=registry)
                if error is not None:
                    raise error
                out.append(scores)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    return out


def _held_rows(dataset: MetricsDataset) -> dict:
    """The rows of each group, groups in order of first appearance: the
    held-out rows of the leave-one-group-out folds."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    held = {}
    for i, group in enumerate(dataset.group_ids):
        held.setdefault(group, []).append(i)
    if len(held) < 2:
        raise ValueError("leave-one-out needs at least 2 groups")
    return held


def _pooled(n: int, held: dict, scores) -> np.ndarray:
    """The held-out `scores` of each fold written to its rows of `n`."""
    out = np.full(n, np.nan)
    for rows, s in zip(held.values(), scores):
        out[rows] = s
    return out


def loo_scores(
    dataset: MetricsDataset,
    cfg: TrainConfig,
    hidden_dims=HIDDEN_DIMS["mlp"],
) -> np.ndarray:
    """Pooled leave-one-group-out predictions, aligned with the dataset's
    rows.  Each fold trains a model of these hidden layer widths with the
    same configuration and seed.  Large runs train their folds in worker
    processes (see `_fold_scores`), so a script that calls this must
    guard its top-level code with ``if __name__ == "__main__":``."""
    held = _held_rows(dataset)
    work = len(held) * _training_work(len(dataset), dataset.num_metrics, cfg,
                                      hidden_dims)
    tasks = [(rows,) for rows in held.values()]
    return _pooled(len(dataset), held,
                   _fold_scores(dataset, cfg, hidden_dims, tasks, work))


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
    vanishes.  Its products and solves run on the OpenBLAS thread count
    the package import set, as `metaclf`'s do.
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
    dataset: MetricsDataset,
    cfg: TrainConfig,
    hidden_dims=HIDDEN_DIMS["mlp"],
):
    """Evaluate metric subsets of growing size along the entry order.

    For i = 1..N_m, the first i ordered metrics are selected (kept in
    their original column order), the model is reinitialized and
    leave-one-group-out evaluated, and pooled AUROC/AUPRC appended.  The
    final step selects every column, reproducing the full-feature run
    bit-for-bit.  The (subset, fold) grid is one task list for
    `_fold_scores`, so the guard `loo_scores` asks of scripts holds here
    too.
    """
    ordering = lars_order(dataset)
    held = _held_rows(dataset)
    subsets = [tuple(sorted(ordering.ordered_metric_indices[:i]))
               for i in range(1, dataset.num_metrics + 1)]
    work = len(held) * sum(
        _training_work(len(dataset), len(cols), cfg, hidden_dims) for cols in subsets)
    tasks = [(rows, cols) for cols in subsets for rows in held.values()]
    scores = _fold_scores(dataset, cfg, hidden_dims, tasks, work)
    aurocs = []
    auprcs = []
    for k in range(len(subsets)):
        fold_scores = scores[k * len(held) : (k + 1) * len(held)]
        report = evaluate_scores(_pooled(len(dataset), held, fold_scores),
                                 dataset.labels)
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


def _ood_buckets(fractions, low: float, high: float) -> list:
    """The bucket of each OOD fraction f: "low" (f <= low), "high"
    (f >= high) or "rest"."""
    if not 0.0 <= low <= high <= 1.0:
        raise ValueError(f"need 0 <= low <= high <= 1, got {low}, {high}")
    return ["low" if f <= low else "high" if f >= high else "rest" for f in fractions]


def split_by_ood_fraction(masks, low: float, high: float):
    """Partition mask indices by OOD fraction: f <= low, f >= high, rest."""
    buckets = _ood_buckets(map(ood_fraction, masks), low, high)
    return tuple([i for i, b in enumerate(buckets) if b == name]
                 for name in ("low", "high", "rest"))


# ---------------------------------------------------------------------------
# Report and plot serialization
# ---------------------------------------------------------------------------


def save_report_csv(report: EvalReport, path) -> None:
    """Two-column (metric, value) CSV."""
    rows = [
        ("auroc", f"{report.auroc:.9g}"),
        ("auprc", f"{report.auprc:.9g}"),
        ("fpr95", f"{report.fpr95:.9g}"),
        ("positives", str(report.positives)),
        ("negatives", str(report.negatives)),
        ("prevalence", f"{report.prevalence:.9g}"),
    ]
    atomic_write_text(path, csv_text([("metric", "value"), *rows]))


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_SVG_SIZE = (640, 480)  # width, height


def _xml_text(text) -> str:
    """`text` as XML character data: `&`, `<` and `>` escaped, as
    `xml.sax.saxutils.escape` does, whose import pulls in `urllib.request`."""
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_line_plot(
    series,
    path,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    x_range=None,
    y_range=None,
) -> None:
    """Standalone SVG line plot of `_SVG_SIZE`; `series` is a list of
    (name, xs, ys).

    Coordinates are emitted with 6 decimals, so identical inputs give
    identical files.  `&`, `<` and `>` in the title, the axis labels and
    the series names are escaped.
    """
    if not series:
        raise ValueError("need at least one series")
    width, height = _SVG_SIZE
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
        f'font-family="sans-serif" font-size="16">{_xml_text(title)}</text>',
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
        f'font-family="sans-serif" font-size="13">{_xml_text(x_label)}</text>'
    )
    out.append(
        f'<text x="16" y="{height / 2:.6f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {height / 2:.6f})">{_xml_text(y_label)}</text>'
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
            f'font-family="sans-serif" font-size="12">{_xml_text(name)}</text>'
        )
    out.append("</svg>")
    atomic_write_text(path, "\n".join(out) + "\n")


def save_curve_csv(columns, path) -> None:
    """CSV with named numeric columns of equal length."""
    names = [name for name, _ in columns]
    arrays = [np.asarray(vals, dtype=np.float64).reshape(-1) for _, vals in columns]
    if not arrays or any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError("columns must be nonempty and equal-length")
    records = [[f"{v:.9g}" for v in row] for row in zip(*arrays)]
    atomic_write_text(path, csv_text([names, *records]))
