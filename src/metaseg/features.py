"""Hand-crafted component metrics and the labeled metrics dataset.

Every predicted-OoD component is summarized by a fixed-order metric
vector combining four families:

* Dispersion (24): for each per-pixel uncertainty field (normalized
  entropy read from the score map, variation ratio, probability margin):
  mean over all/interior/boundary pixels, population variance over
  all/interior/boundary, boundary-to-interior mean ratio (denominator
  guarded by +1e-9), and boundary-minus-interior mean difference.
* Geometry (8): size S, interior size, boundary size, boundary fraction,
  sqrt(S), normalized centroid row/col, bounding-box fill ratio.
* Class probabilities (2C): per class, mean and population variance of
  that class's probability over the component pixels.
* Neighborhood (5): over the one-pixel 8-neighbor dilation ring just
  outside the component (clipped to the image): mean normalized entropy,
  mean max-probability, fraction of ring pixels at or above the score
  threshold, ring-size-to-boundary-size ratio, mean probability margin.
  An empty ring (component covers the whole image) yields five zeros.
  The hot fraction is written as 0, which it is by construction: every
  component is a maximal 8-connected set of pixels at or above the
  threshold, so a ring pixel at or above it would belong to the
  component.  The column is kept so the layout stays at 24 + 8 + 2C + 5.

That totals 24 + 8 + 2C + 5 metrics, 75 at C = 19, named in row order by
`metric_names`.  Interior statistics of a component with no interior fall
back to whole-component statistics, which keeps single-pixel components
finite.  Population (not sample) variance is used throughout for the same
reason.

`build_metrics_dataset` labels every sample by thresholding its score,
and `metaclf.remove_false_positives` labels one sample the same way.
Both run the same two steps.  First, the sample's map is walked once, in
the blocks of `raster._BLOCK_VALUES` values that every pass over a map
walks, through the same code whether the map is loaded or on disk
(`probability_blocks`); the walk keeps the H x W fields and the class
probabilities of the pixels at or above the threshold only, which are
all the pixels of the components.  Second, the rows of all components
of the image are computed at once: pixel values are gathered in
(component, raster) order and components of equal pixel count are
reduced together as one block, which reproduces `ndarray.mean`/`var` of
each component bit for bit.  Python loops only over the distinct
component sizes.

`build_metrics_dataset` works a sample on a `raster.thread_map` thread,
up to `raster.worker_count()` at once, only if its map holds at least
`raster._THREAD_MIN_VALUES` values, the rule of every map step, and a
smaller one in the calling thread.  A sample's rows do not depend on the
thread that computes them, and they come out in sample order.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .raster import (
    _distinct_ids, _frozen, atomic_write_text, csv_field, csv_text, thread_map,
)
from .scoring import _normalized_entropy, _top_two
from .segments import LabelImage, ThresholdConfig, label_image

_DISPERSION_FIELDS = ("ent", "vr", "margin")
_DISPERSION_STATS = (
    "mean", "mean_in", "mean_bd", "var", "var_in", "var_bd",
    "bd_in_ratio", "bd_in_diff",
)
_GEOMETRY_NAMES = (
    "size", "size_in", "size_bd", "size_bd_frac", "size_sqrt",
    "center_row", "center_col", "bbox_fill",
)
_NEIGHBOR_NAMES = (
    "nb_ent_mean", "nb_maxprob_mean", "nb_hot_frac",
    "nb_ring_bd_ratio", "nb_margin_mean",
)
_RATIO_GUARD = 1e-9
_NEIGHBORS8 = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc)


def metric_names(num_classes: int) -> tuple:
    """Names of the 24 + 8 + 2C + 5 metrics of a component of a map with
    `num_classes` classes, in row order."""
    if num_classes < 2:
        raise ValueError("metric layout needs num_classes >= 2")
    names = [f"{f}_{stat}" for f in _DISPERSION_FIELDS for stat in _DISPERSION_STATS]
    names.extend(_GEOMETRY_NAMES)
    for c in range(num_classes):
        names.extend((f"cls{c}_mean", f"cls{c}_var"))
    return (*names, *_NEIGHBOR_NAMES)


@dataclass(frozen=True, eq=False)
class MetricsDataset:
    """Component metric rows, one column per name in `names`, with
    ground-truth labels and provenance."""

    rows: np.ndarray
    labels: np.ndarray
    group_ids: tuple
    names: tuple

    def __post_init__(self) -> None:
        names = tuple(self.names)
        if not names:
            raise ValueError("dataset needs at least one metric")
        if len(set(names)) != len(names):
            raise ValueError("metric names must be unique")
        rows = np.atleast_2d(np.asarray(self.rows, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=bool).reshape(-1)
        if rows.size == 0:
            rows = rows.reshape(0, len(names))
        if rows.ndim != 2 or rows.shape[1] != len(names):
            raise ValueError(f"rows must be n x {len(names)}, got {rows.shape}")
        if not np.isfinite(rows).all():
            raise ValueError("metric rows must be finite")
        if labels.shape[0] != rows.shape[0] or len(self.group_ids) != rows.shape[0]:
            raise ValueError("rows, labels, and group_ids must have equal length")
        object.__setattr__(self, "rows", _frozen(rows, self.rows))
        object.__setattr__(self, "labels", _frozen(labels, self.labels))
        object.__setattr__(self, "group_ids", tuple(str(g) for g in self.group_ids))
        object.__setattr__(self, "names", names)

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def num_metrics(self) -> int:
        return len(self.names)

    def subset(self, indices) -> "MetricsDataset":
        """Row subset in the given index order."""
        idx = np.asarray(indices, dtype=np.intp).reshape(-1)
        return MetricsDataset(
            rows=self.rows[idx],
            labels=self.labels[idx],
            group_ids=tuple(self.group_ids[i] for i in idx),
            names=self.names,
        )

    def select_metrics(self, metric_indices) -> "MetricsDataset":
        """Column subset, keeping the given metric order."""
        idx = np.asarray(metric_indices, dtype=np.intp).reshape(-1)
        return MetricsDataset(
            rows=self.rows[:, idx],
            labels=self.labels,
            group_ids=self.group_ids,
            names=tuple(self.names[i] for i in idx),
        )


@dataclass(frozen=True)
class StandardizationStats:
    """Per-column mean/sigma for z-scoring; reusable on held-out rows."""

    mean: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        sigma = np.asarray(self.sigma, dtype=np.float64).reshape(-1)
        if mean.shape != sigma.shape:
            raise ValueError("mean and sigma must have equal length")
        if not (np.isfinite(mean).all() and np.isfinite(sigma).all()):
            raise ValueError("statistics must be finite")
        if (sigma <= 0).any():
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "mean", _frozen(mean, self.mean))
        object.__setattr__(self, "sigma", _frozen(sigma, self.sigma))

    def apply(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[-1] != self.mean.shape[0]:
            raise ValueError(
                f"rows have {rows.shape[-1]} columns, stats have {self.mean.shape[0]}"
            )
        return (rows - self.mean) / self.sigma


def standardize(dataset: MetricsDataset):
    """Z-score each column by its mean and population standard deviation.

    Zero-variance columns pass through unchanged: their recorded mean is
    0 and sigma is 1, so applying the statistics elsewhere also leaves
    such columns alone.  Returns (standardized dataset, statistics).
    """
    if len(dataset) < 2:
        raise ValueError("standardization needs at least 2 rows")
    mean = dataset.rows.mean(axis=0)
    sigma = dataset.rows.std(axis=0)
    flat = sigma == 0.0
    mean = np.where(flat, 0.0, mean)
    sigma = np.where(flat, 1.0, sigma)
    stats = StandardizationStats(mean=mean, sigma=sigma)
    out = MetricsDataset(
        rows=stats.apply(dataset.rows),
        labels=dataset.labels,
        group_ids=dataset.group_ids,
        names=dataset.names,
    )
    return out, stats


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _streamed_fields(blocks, dims: tuple, threshold: float) -> tuple:
    """The H x W fields `_component_rows` reads, for a map of `dims` fed
    as N x C pixel `blocks` in raster order, with the flat indices of its
    pixels whose score is at least `threshold`, ascending, and a copy of
    their class probabilities as a C-contiguous C x N_hot array, one
    column each.  No H x W x C array is built."""
    h, w, _ = dims
    ent, maxprob, margin = (np.empty(h * w) for _ in range(3))
    hot_pixels, hot_probs = [], []
    lo = 0
    for block in blocks:
        hi = lo + len(block)
        score = _normalized_entropy(block)
        ent[lo:hi] = score
        maxprob[lo:hi], margin[lo:hi] = _top_two(block)
        hot = np.flatnonzero(score >= threshold)
        hot_pixels.append(hot + lo)
        hot_probs.append(block[hot].T)
        lo = hi
    fields = {
        "ent": ent.reshape(h, w),
        "maxprob": maxprob.reshape(h, w),
        "margin": margin.reshape(h, w),
    }
    hot_pixels = np.concatenate(hot_pixels)
    probs = np.empty((dims[2], hot_pixels.size))
    return fields, hot_pixels, np.concatenate(hot_probs, axis=1, out=probs)


def _sample_fields(sample, num_classes: int | None, threshold: float) -> tuple:
    """`_streamed_fields` of the map of `sample` at `threshold`: its H x W
    fields, hot pixels and their class probabilities, from one walk of
    `sample.probability_blocks()`.  A map with other than `num_classes`
    classes (any, when it is None) is refused before its first block is
    read."""
    blocks = sample.probability_blocks()
    dims = next(blocks)
    if num_classes is not None and dims[2] != num_classes:
        raise ValueError(
            f"sample {sample.id!r} has C={dims[2]}, "
            f"the first sample has C={num_classes}"
        )
    return _streamed_fields(blocks, dims, threshold)


def _grouped_moments(values: np.ndarray, sizes: np.ndarray, columns=None):
    """Mean and population variance of every segment of `values` (F x N),
    whose columns hold the segments back to back, `sizes[k]` columns
    each, as two F x K arrays; empty segments get NaN.  With `columns`,
    the segments are those of `values[:, columns]`, which is never built.

    The segments of one size are gathered (`np.take` returns a new
    C-contiguous array; it copies a non-contiguous `values` whole on every
    call, so pass a contiguous one) into an (F, k, n) block and reduced
    along its last axis, which sums each segment in the
    same pairwise order as `ndarray.mean`/`var` on that segment alone, so
    the results are bit-identical to them.  `np.add.reduceat` and
    `np.bincount` sum in other orders and differ in the last bits.  The
    Python loop runs over the distinct sizes only.
    """
    mean = np.full((values.shape[0], sizes.size), np.nan)
    var = mean.copy()
    if not sizes.size:
        return mean, var
    starts = np.cumsum(sizes) - sizes
    by_size = np.argsort(sizes, kind="stable")
    for ks in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
        n = sizes[ks[0]]
        if not n:
            continue
        cols = starts[ks, None] + np.arange(n)
        block = np.take(values, cols if columns is None else columns[cols], axis=1)
        mean[:, ks] = block.mean(axis=-1)
        var[:, ks] = block.var(axis=-1)
    return mean, var


def _component_rows(
    image: LabelImage, fields: dict, hot_pixels: np.ndarray, hot_probs: np.ndarray
) -> np.ndarray:
    """Metric rows of every component of `image`, in id order, from
    `_streamed_fields` of its sample at the threshold `image` was
    labeled at.  `nb_hot_frac` is 0: a ring pixel at or above that
    threshold would be 8-adjacent to the component, so inside it."""
    h, w = fields["ent"].shape
    order, sizes = image.order, image.sizes
    flat = {name: fields[name].reshape(-1) for name in ("ent", "maxprob", "margin")}
    n_cls = hot_probs.shape[0]
    k = image.count
    out = np.empty((k, len(metric_names(n_cls))))
    if not k:
        return out

    # Dispersion and class probabilities: pixel values in (component,
    # raster) order, then split into boundary and interior.  The variation
    # ratio is 1 - the largest probability.
    disp = np.stack([
        flat["ent"][order], 1.0 - flat["maxprob"][order], flat["margin"][order],
    ])
    mean_all, var_all = _grouped_moments(disp, sizes)
    # The column of every component pixel among the hot pixels.
    cls_mean, cls_var = _grouped_moments(
        hot_probs, sizes, np.searchsorted(hot_pixels, order)
    )
    s_bd = image.boundary_sizes
    s_in = sizes - s_bd
    mean_bd, var_bd = _grouped_moments(disp[:, image.on_boundary], s_bd)
    mean_in, var_in = _grouped_moments(disp[:, ~image.on_boundary], s_in)
    no_in = s_in == 0
    mean_in[:, no_in] = mean_all[:, no_in]
    var_in[:, no_in] = var_all[:, no_in]

    # Ring: unique (component, 8-neighbor outside it) pairs.  Keys sort by
    # component, then raster index.
    rows, cols = np.divmod(order, w)
    owner = np.repeat(np.arange(k), sizes)
    labels = image.labels.reshape(-1)
    keys = []
    for dr, dc in _NEIGHBORS8:
        nr, nc = rows + dr, cols + dc
        inside = (nr >= 0) & (nr < h) & (nc >= 0) & (nc < w)
        nb = nr[inside] * w + nc[inside]
        own = owner[inside]
        away = labels[nb] != own
        keys.append(own[away].astype(np.int64) * (h * w) + nb[away])
    keys = np.sort(np.concatenate(keys))
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    ring_owner, ring_pix = np.divmod(keys, h * w)
    ring_sizes = np.bincount(ring_owner, minlength=k)
    ring_mean, _ = _grouped_moments(
        np.stack([flat[name][ring_pix] for name in ("ent", "maxprob", "margin")]),
        ring_sizes,
    )

    s = sizes.astype(np.float64)
    bbox = image.bboxes
    with np.errstate(divide="ignore", invalid="ignore"):
        for f in range(len(_DISPERSION_FIELDS)):
            out[:, 8 * f:8 * f + 8] = np.stack([
                mean_all[f], mean_in[f], mean_bd[f], var_all[f], var_in[f], var_bd[f],
                mean_bd[f] / (mean_in[f] + _RATIO_GUARD), mean_bd[f] - mean_in[f],
            ], axis=1)
        out[:, 24:32] = np.stack([
            s, s_in, s_bd, s_bd / s, np.sqrt(s),
            np.add.reduceat(rows, image.offsets) / sizes / h,
            np.add.reduceat(cols, image.offsets) / sizes / w,
            s / ((bbox[:, 1] - bbox[:, 0] + 1) * (bbox[:, 3] - bbox[:, 2] + 1)),
        ], axis=1)
        out[:, 32:32 + 2 * n_cls:2] = cls_mean.T
        out[:, 33:32 + 2 * n_cls:2] = cls_var.T
        ring = np.stack([
            ring_mean[0], ring_mean[1], np.zeros(k),
            ring_sizes / s_bd, ring_mean[2],
        ], axis=1)
    ring[ring_sizes == 0] = 0.0
    out[:, 32 + 2 * n_cls:] = ring
    if not np.isfinite(out).all():
        raise ValueError("metric row contains non-finite values")
    return out


def _labeled_rows(sample, num_classes: int | None, threshold: float) -> tuple:
    """The label image of `sample` thresholded at `threshold` (with the
    false-positive flags of its mask), its `_streamed_fields` fields and
    the metric rows of its components, from one walk of its map."""
    fields, hot_pixels, probs = _sample_fields(sample, num_classes, threshold)
    image = label_image(fields["ent"] >= threshold, ood=sample.mask.is_ood())
    return image, fields, _component_rows(image, fields, hot_pixels, probs)


def build_metrics_dataset(samples, cfg: ThresholdConfig) -> MetricsDataset:
    """Score, threshold, segment, and label every sample, emitting one
    metric row per component.

    `samples` is any iterable of in-memory `Sample`s, such as a list,
    or of `raster.SampleFile`s, such as `raster.iter_sample_files`; both
    run the same code on the block stream of `probability_blocks`.  Each
    sample's map is walked once, block by block, and only the fields of
    the pixels and the class probabilities of the pixels at or above the
    threshold are kept; a file is read and checked as it is walked, so
    no H x W x C array is ever built for it, and nothing computed from
    it counts until its last block has passed the check.  As in every
    map step, a sample whose map holds at least
    `raster._THREAD_MIN_VALUES` values is worked on one of
    `raster.thread_map`'s threads, up to `worker_count()` at once, and a
    smaller one in this thread.  Columns follow `metric_names` of the
    first sample's class count, read from its `dims` before any work
    starts; a later sample with another class count is refused, and so
    is a repeated sample id, which would merge two samples into one
    group of `group_ids` (one leave-one-out fold).  Rows follow the
    sample order, then component id within a sample, and do not depend
    on the thread that computed them.
    """
    samples = iter(samples)
    head = list(itertools.islice(samples, 1))
    if not head:
        raise ValueError("no samples to take the class count from")
    num_classes = head[0].dims[2]

    # The first sample, then the rest, keeping none once it is drawn, so
    # that no sample outlives its work.
    def drawn():
        yield head.pop()
        yield from samples

    def sample_rows(sample):
        image, _, rows = _labeled_rows(sample, num_classes, cfg.t)
        if not image.count:
            return None
        return rows, image.is_false_positive, (sample.id,) * image.count

    parts = [
        part
        for part in thread_map(
            sample_rows, _distinct_ids(drawn()), values=lambda s: math.prod(s.dims),
        )
        if part is not None
    ]
    rows, labels, groups = zip(*parts) if parts else ((), (), ())
    return MetricsDataset(
        rows=np.concatenate(rows) if rows else (),
        labels=np.concatenate(labels) if labels else (),
        group_ids=tuple(g for ids in groups for g in ids),
        names=metric_names(num_classes),
    )


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def save_metrics_csv(dataset: MetricsDataset, path) -> None:
    """Write the dataset as CSV: metric columns, then label, then
    group_id; floats at 9 significant digits."""
    # One %-template formats a whole row.
    template = ",".join(["%.9g"] * dataset.num_metrics) + ",%d,%s\n"
    lines = [csv_text([[*dataset.names, "label", "group_id"]])]
    for row, label, group in zip(
        dataset.rows.tolist(), dataset.labels.tolist(), dataset.group_ids
    ):
        lines.append(template % (*row, label, csv_field(group)))
    atomic_write_text(path, "".join(lines))


def _csv_records(fh, path):
    """(line, record) pairs of a CSV file, `line` the 1-based line on
    which the record starts (a quoted field may span lines); a record the
    csv module cannot split raises ValueError naming the file and line."""
    reader = csv.reader(fh)
    start = 1
    try:
        for rec in reader:
            yield start, rec
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _raise_first_bad_record(path, n: int) -> None:
    """Re-read the body of a metrics CSV with `n` metric columns record
    by record and raise the first fault as `path:line`; return if every
    record reads."""
    with open(path, newline="", encoding="utf-8") as fh:
        records = _csv_records(fh, path)
        next(records)
        for lineno, rec in records:
            if not rec:
                continue
            if len(rec) != n + 2:
                raise ValueError(f"{path}:{lineno}: expected {n + 2} fields")
            try:
                for field in rec[:n]:
                    float(field)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if rec[n] not in ("0", "1"):
                raise ValueError(f"{path}:{lineno}: label must be 0 or 1, got {rec[n]!r}")


def load_metrics_csv(path) -> MetricsDataset:
    """Read a dataset written by `save_metrics_csv`.

    The metric names are the header's, as they are, and are checked
    before the body is read.  The body is parsed in one `np.loadtxt`
    pass; a file it rejects is re-read record by record only to name the
    faulty line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            _, header = next(_csv_records(fh, path))
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        if len(header) < 3 or header[-2:] != ["label", "group_id"]:
            raise ValueError(f"{path}: expected trailing label,group_id columns")
        names = header[:-2]
        if len(set(names)) != len(names):
            raise ValueError(f"{path}: metric names must be unique")
        n = len(names)
        body = np.dtype([("x", np.float64, (n,)), ("label", object), ("group", object)])
        try:
            with warnings.catch_warnings():
                # A header-only file is an empty dataset, not a fault.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # comments=None: a '#' in a group id is data.
                table = np.loadtxt(
                    fh, dtype=body, delimiter=",", quotechar='"', comments=None,
                    encoding="utf-8", ndmin=1,
                )
            labels = table["label"]
            ones = labels == "1"
            if not (ones | (labels == "0")).all():
                raise ValueError("label must be 0 or 1")
            return MetricsDataset(
                rows=table["x"],
                labels=ones,
                group_ids=table["group"].tolist(),
                names=names,
            )
        except ValueError as exc:
            fault = exc
    _raise_first_bad_record(path, n)
    raise ValueError(f"{path}: {fault}")
