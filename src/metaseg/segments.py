"""Predicted-OoD pixel extraction and connected-component analysis.

Thresholding the anomaly score map (inclusive, score >= t) yields the
predicted out-of-distribution pixel set.  That set is partitioned into
maximal 8-connected components; each component is split into boundary
pixels (those with a 4-neighbor outside the component or outside the
image) and interior pixels.  Components get ground-truth labels by
intersection with the mask's OOD pixels: any overlap at all makes a
component a true positive, zero overlap makes it a false positive.

8-connectivity merges diagonal fragments of one physical object; the
thinner 4-neighbor rule for boundaries keeps them one pixel wide.  Both
choices change downstream metric values, so they are fixed here.

All components of an image live in one `LabelImage`: an integer image of
component ids plus the pixel indices of every component, grouped by
component.  Labeling is run-based: horizontal runs of hot pixels are
joined across adjacent rows by vectorized min-label hooking with pointer
jumping, so no Python loop visits a pixel or a component.  Because the
components are maximal, the boundary of the whole hot mask is exactly the
union of the per-component boundaries.  `label_image` is the one way to
get components and `LabelImage.is_false_positive` the one false-positive
rule: the `segments` step labels through it, and so do the metric rows
(`features.build_metrics_dataset`) and the false-positive removal
(`metaclf.remove_false_positives`), which label every sample at one
threshold with no size filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .raster import _frozen


@dataclass(frozen=True)
class ThresholdConfig:
    """Inclusive anomaly-score threshold."""

    t: float = 0.7

    def __post_init__(self) -> None:
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.t}")


class LabelImage:
    """Every component of one image, as one label image.

    `labels[r, c]` is the id of the component holding pixel (r, c), or -1.
    `order` lists the flat (row-major) pixel indices of all components
    back to back, by component id and then raster index; component k owns
    `order[offsets[k]:offsets[k] + sizes[k]]`, and `on_boundary` flags the
    boundary pixels among them.  `is_false_positive` holds one flag per
    component when an OOD mask was given, else None.
    """

    def __init__(self, labels, boundary, ood=None):
        given = np.asarray(labels)
        if given.ndim != 2 or given.size == 0 or given.dtype.kind not in "iu":
            raise ValueError(
                f"labels must be a nonempty 2-d integer array, got "
                f"{given.dtype} of shape {given.shape}"
            )
        if given.min() < -1:
            raise ValueError(f"component id {given.min()} is below -1")
        if np.shape(boundary) != given.shape:
            raise ValueError(f"boundary is {np.shape(boundary)}, labels are {given.shape}")
        if ood is not None and np.shape(ood) != given.shape:
            raise ValueError(f"OOD mask is {np.shape(ood)}, labels are {given.shape}")
        # An id of at least H*W leaves some id below it empty; refusing it
        # here also keeps every id exact in int32.
        if given.max() >= given.size:
            raise ValueError("component ids must be 0..K-1, each nonempty")
        self.labels = _frozen(given.astype(np.int32, copy=False), labels)
        flat = self.labels.reshape(-1)
        pix = np.flatnonzero(flat >= 0)
        comp = flat[pix]
        count = int(comp.max()) + 1 if comp.size else 0
        self.sizes = np.bincount(comp, minlength=count)
        if not self.sizes.all():
            raise ValueError("component ids must be 0..K-1, each nonempty")
        self.offsets = np.cumsum(self.sizes) - self.sizes
        self.order = pix[np.argsort(comp, kind="stable")]
        self.on_boundary = np.asarray(boundary, dtype=bool).reshape(-1)[self.order]
        self.is_false_positive = None
        if ood is not None:
            hit = np.asarray(ood, dtype=bool).reshape(-1)[self.order]
            self.is_false_positive = (
                ~np.logical_or.reduceat(hit, self.offsets) if count
                else np.zeros(0, dtype=bool)
            )
        for arr in (self.sizes, self.offsets, self.order, self.on_boundary):
            arr.flags.writeable = False

    @property
    def count(self) -> int:
        return self.sizes.size

    @property
    def shape(self) -> tuple:
        return self.labels.shape

    @cached_property
    def boundary_sizes(self) -> np.ndarray:
        if not self.count:
            return np.zeros(0, dtype=np.intp)
        return np.add.reduceat(self.on_boundary.astype(np.intp), self.offsets)

    @cached_property
    def bboxes(self) -> np.ndarray:
        """(rmin, rmax, cmin, cmax) of every component, K x 4."""
        if not self.count:
            return np.zeros((0, 4), dtype=np.intp)
        rows, cols = np.divmod(self.order, self.shape[1])
        return np.stack([
            rows[self.offsets],
            rows[self.offsets + self.sizes - 1],
            np.minimum.reduceat(cols, self.offsets),
            np.maximum.reduceat(cols, self.offsets),
        ], axis=1)


def boundary_grid(grid: np.ndarray) -> np.ndarray:
    """Pixels of `grid` with a 4-neighbor that is off-grid or unset."""
    pad = np.pad(grid, 1, constant_values=False)
    outside4 = (
        ~pad[:-2, 1:-1] | ~pad[2:, 1:-1] | ~pad[1:-1, :-2] | ~pad[1:-1, 2:]
    )
    return grid & outside4


def _smallest_member(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For every node of the graph on 0..n-1 with edges (a, b), the
    smallest node of its connected set.

    Each round hooks every root to the smallest root it shares an edge
    with, then jumps pointers until every node points at its root.  A root
    only ever hooks to a smaller one, so the smallest node of a set is
    never hooked and ends as the root of the whole set.
    """
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        live = ra != rb
        if not live.any():
            return parent
        a, b, ra, rb = a[live], b[live], ra[live], rb[live]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def _component_labels(hot: np.ndarray, min_size: int) -> np.ndarray:
    """int32 image of component ids (-1 off-component) of the maximal
    8-connected components of `hot` with at least `min_size` pixels,
    numbered in raster order of their first pixel."""
    h, w = hot.shape
    labels = np.full(h * w, -1, dtype=np.int32)
    # Horizontal runs in raster order: run i covers [start, end) of row[i].
    rr, cc = np.nonzero(np.diff(hot, axis=1, prepend=False, append=False))
    row, start, end = rr[::2], cc[::2], cc[1::2]
    n = row.size
    if not n:
        return labels.reshape(h, w)
    # Runs in consecutive rows are 8-adjacent iff s_a <= e_b and s_b <= e_a.
    # The runs of row r + 1 that touch run a form the index range [lo, hi).
    stride = w + 1
    below = (row + 1) * stride
    lo = np.searchsorted(row * stride + end, below + start, side="left")
    hi = np.searchsorted(row * stride + start, below + end, side="right")
    touch = np.maximum(hi - lo, 0)
    first = np.cumsum(touch) - touch
    a = np.repeat(np.arange(n), touch)
    b = np.repeat(lo - first, touch) + np.arange(a.size)
    root = _smallest_member(n, a, b)
    # The root of a component is its first run, so root order is the
    # raster order of first pixels.
    length = end - start
    size = np.bincount(root, weights=length, minlength=n)
    keep = (root == np.arange(n)) & (size >= min_size)
    ids = (np.cumsum(keep) - 1).astype(np.int32)
    run_id = np.where(keep[root], ids[root], np.int32(-1))
    labels[np.flatnonzero(hot)] = np.repeat(run_id, length)
    return labels.reshape(h, w)


def label_image(hot, min_size: int = 1, ood=None) -> LabelImage:
    """Label the maximal 8-connected components of the boolean image `hot`.

    Ids are assigned in raster-scan order of each component's first
    pixel, renumbered from 0 after the optional min-size filter.  With an
    `ood` mask (boolean, same shape), every component also gets its
    false-positive flag: True iff none of its pixels is OOD.
    """
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    hot = np.asarray(hot, dtype=bool)
    if hot.ndim != 2 or hot.size == 0:
        raise ValueError(f"invalid image dims {hot.shape}")
    return LabelImage(_component_labels(hot, min_size), boundary_grid(hot), ood)
