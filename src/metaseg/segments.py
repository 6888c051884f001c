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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .raster import LabelMask, ScoreMap

# 8-neighborhood offsets in raster-scan order.
_NEIGHBORS8 = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


@dataclass(frozen=True)
class ThresholdConfig:
    """Inclusive anomaly-score threshold."""

    t: float = 0.7

    def __post_init__(self) -> None:
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.t}")


@dataclass(frozen=True, eq=False)
class ComponentRecord:
    """One predicted-OoD connected component.

    `is_false_positive` is None until `label_components` has compared the
    component against a ground-truth mask.
    """

    id: int
    pixels: frozenset
    boundary: frozenset
    interior: frozenset
    bbox: tuple
    is_false_positive: bool | None = None
    source_sample: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "pixels", frozenset(self.pixels))
        object.__setattr__(self, "boundary", frozenset(self.boundary))
        object.__setattr__(self, "interior", frozenset(self.interior))
        if not self.pixels:
            raise ValueError("component pixel set must be nonempty")
        if self.boundary | self.interior != self.pixels or (self.boundary & self.interior):
            raise ValueError("boundary and interior must partition the pixel set")
        rmin, rmax, cmin, cmax = self.bbox
        rows = [p[0] for p in self.pixels]
        cols = [p[1] for p in self.pixels]
        if (rmin, rmax, cmin, cmax) != (min(rows), max(rows), min(cols), max(cols)):
            raise ValueError("bbox does not match the pixel set")

    @property
    def size(self) -> int:
        return len(self.pixels)


def ood_pixel_set(score: ScoreMap, cfg: ThresholdConfig) -> set:
    """All (row, col) whose score meets the threshold (inclusive)."""
    return {(int(r), int(c)) for r, c in np.argwhere(score.scores >= cfg.t)}


def _pixel_grid(pixels, dims) -> np.ndarray:
    h, w = dims
    if h < 1 or w < 1:
        raise ValueError(f"invalid image dims {dims}")
    grid = np.zeros((h, w), dtype=bool)
    for r, c in pixels:
        if not (0 <= r < h and 0 <= c < w):
            raise ValueError(f"pixel ({r}, {c}) outside {h}x{w} image")
        grid[r, c] = True
    return grid


def boundary_grid(grid: np.ndarray) -> np.ndarray:
    """Pixels of `grid` with a 4-neighbor that is off-grid or unset."""
    pad = np.pad(grid, 1, constant_values=False)
    outside4 = (
        ~pad[:-2, 1:-1] | ~pad[2:, 1:-1] | ~pad[1:-1, :-2] | ~pad[1:-1, 2:]
    )
    return grid & outside4


def connected_components(
    pixels,
    image_dims,
    min_size: int = 1,
    source_sample: str = "",
) -> list:
    """Partition a pixel set into maximal 8-connected components.

    Ids are assigned in raster-scan order of each component's first
    pixel, renumbered from 0 after the optional min-size filter (off by
    default, matching no-filtering behavior).
    """
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    grid = _pixel_grid(pixels, image_dims)
    h, w = grid.shape
    bd = boundary_grid(grid)
    visited = np.zeros_like(grid)
    comps = []
    for seed_r, seed_c in np.argwhere(grid):
        if visited[seed_r, seed_c]:
            continue
        visited[seed_r, seed_c] = True
        stack = [(int(seed_r), int(seed_c))]
        members = []
        while stack:
            r, c = stack.pop()
            members.append((r, c))
            for dr, dc in _NEIGHBORS8:
                nr, nc = r + dr, c + dc
                if 0 <= nr < h and 0 <= nc < w and grid[nr, nc] and not visited[nr, nc]:
                    visited[nr, nc] = True
                    stack.append((nr, nc))
        if len(members) < min_size:
            continue
        boundary = frozenset(p for p in members if bd[p])
        interior = frozenset(p for p in members if not bd[p])
        rows = [p[0] for p in members]
        cols = [p[1] for p in members]
        comps.append(
            ComponentRecord(
                id=len(comps),
                pixels=frozenset(members),
                boundary=boundary,
                interior=interior,
                bbox=(min(rows), max(rows), min(cols), max(cols)),
                source_sample=source_sample,
            )
        )
    return comps


def _pixel_index(comp: ComponentRecord, shape) -> tuple:
    """(rows, cols) index arrays of the component's pixels, checked to lie
    inside an image of the given shape."""
    h, w = shape
    rmin, rmax, cmin, cmax = comp.bbox
    if rmin < 0 or cmin < 0 or rmax >= h or cmax >= w:
        raise ValueError(f"component bbox {comp.bbox} outside {h}x{w} mask")
    rows = np.fromiter((p[0] for p in comp.pixels), dtype=np.intp, count=comp.size)
    cols = np.fromiter((p[1] for p in comp.pixels), dtype=np.intp, count=comp.size)
    return rows, cols


def component_iou(comp: ComponentRecord, mask: LabelMask) -> float:
    """Intersection over union between the component and the mask's OOD
    pixels.  IGNORE pixels count as non-OoD."""
    ood = mask.is_ood()
    inter = int(ood[_pixel_index(comp, ood.shape)].sum())
    union = comp.size + int(ood.sum()) - inter
    return inter / union


def label_components(comps, mask: LabelMask) -> list:
    """Attach ground-truth labels: false positive iff IoU with the OOD
    pixel set is exactly zero, i.e. no pixel of the component is OOD
    (any overlap makes a true positive)."""
    ood = mask.is_ood()
    labeled = []
    for comp in comps:
        hit = ood[_pixel_index(comp, ood.shape)].any()
        labeled.append(replace(comp, is_false_positive=not hit))
    return labeled


def extract_labeled_components(
    score: ScoreMap,
    mask: LabelMask,
    cfg: ThresholdConfig,
    min_size: int = 1,
    source_sample: str = "",
) -> list:
    """Threshold, build components, and label them in one call."""
    if (score.height, score.width) != (mask.height, mask.width):
        raise ValueError(
            f"score map is {score.height}x{score.width} "
            f"but mask is {mask.height}x{mask.width}"
        )
    comps = connected_components(
        ood_pixel_set(score, cfg),
        (score.height, score.width),
        min_size=min_size,
        source_sample=source_sample,
    )
    return label_components(comps, mask)
