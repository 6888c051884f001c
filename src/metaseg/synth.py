"""Deterministic synthetic scenes with planted anomalies.

Each scene is a low-entropy background (vertical strips of randomly
peaked classes) with high-entropy blobs stamped on top.  True blobs mark
their high-entropy pixels OOD in the mask; false blobs leave the mask
untouched, so thresholding the score map yields components whose TP/FP
labels are known by construction.  Blobs are rectangles or discs and
keep a 2-pixel separation so each one becomes its own component.

Per-pixel probabilities come from a two-point mixture: weight w on the
uniform distribution, the rest split alpha / (1 - alpha) between two
chosen classes.  Given alpha, w is solved by bisection so the pixel hits
an exact target normalized entropy; alpha then steers the probability
margin independently of the entropy.  The scenes of one `generate` call
hold at most three (target, alpha) pairs, background and anomaly at a
high or a low margin, so w is solved once per pair, when a scene first
uses it, and gathered per pixel.  `generate` builds each scene only when
it is asked for, so a consumer that writes and drops one scene at a time
holds one map.

With `nonlinear_coupling` enabled, every blob draws two latent bits, one
picking the small or large half of the size range and one picking a high
(alpha = 1.0) or low (alpha = 0.55) margin.  A false blob's profile is a
ring (one-pixel high-entropy band around a background-filled hole)
exactly when the two bits differ; solid otherwise.  True blobs pick ring
or solid by an independent coin.  Size, margin, and profile are then
individually and pairwise balanced between TP and FP components, and
only their three-way interaction carries the label, which no linear
model on per-component statistics can exploit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import raster
from .raster import OOD_LABEL, LabelMask, ProbabilityMap, Sample, _Unshared

_ALPHA_HIGH = 1.0
_ALPHA_LOW = 0.55
_ANOMALY_HIGH = 1
_ANOMALY_LOW = 2
_BISECT_ITERS = 60
_PLACE_ATTEMPTS = 60
_SEPARATION = 2


@dataclass(frozen=True)
class SceneSpec:
    """Generator configuration; all randomness derives from `seed`."""

    dims: tuple = (64, 64)
    num_classes: int = 19
    blob_count: tuple = (2, 4)
    blob_size: tuple = (4, 10)
    anomaly_entropy: float = 0.85
    background_entropy: float = 0.2
    false_blob_rate: float = 2.0
    nonlinear_coupling: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        h, w = self.dims
        if h < 8 or w < 8:
            raise ValueError(f"scene dims {self.dims} too small")
        if not 2 <= self.num_classes <= 253:
            raise ValueError(f"num_classes {self.num_classes} out of range")
        raster.check_rast_size(h, w, self.num_classes)
        lo, hi = self.blob_count
        if not 0 <= lo <= hi:
            raise ValueError(f"empty blob_count range {self.blob_count}")
        slo, shi = self.blob_size
        if not 1 <= slo <= shi:
            raise ValueError(f"empty blob_size range {self.blob_size}")
        if shi > min(h, w) - 2:
            raise ValueError(
                f"blob size {shi} does not fit the {h}x{w} image"
            )
        if not 0.0 <= self.background_entropy < self.anomaly_entropy <= 1.0:
            raise ValueError(
                "need 0 <= background_entropy < anomaly_entropy <= 1"
            )
        if self.false_blob_rate < 0:
            raise ValueError("false_blob_rate must be nonnegative")
        if self.nonlinear_coupling and slo < 4:
            raise ValueError(
                "nonlinear_coupling needs blob_size >= 4 so ring holes exist"
            )


def _norm_entropy(w: np.ndarray, alpha: np.ndarray, c: int) -> np.ndarray:
    """Normalized entropy of the two-point mixture as a function of the
    uniform weight."""
    q = w / c
    p1 = q + (1.0 - w) * alpha
    p2 = q + (1.0 - w) * (1.0 - alpha)

    def xlogx(v):
        return np.where(v > 0.0, v * np.log(np.maximum(v, 1e-300)), 0.0)

    h = -((c - 2) * xlogx(q) + xlogx(p1) + xlogx(p2))
    return h / np.log(c)


def solve_mix_weight(target, alpha, num_classes: int) -> np.ndarray:
    """Uniform-mixture weights hitting the target normalized entropies.

    Solved per entry by bisection; the bracket endpoints are exact, so a
    target of 1 returns exactly 1 and a target of 0 (at alpha = 1)
    exactly 0.
    """
    target = np.asarray(target, dtype=np.float64)
    alpha = np.broadcast_to(np.asarray(alpha, dtype=np.float64), target.shape)
    if ((target < 0) | (target > 1)).any():
        raise ValueError("target entropies must lie in [0, 1]")
    if ((alpha < 0.5) | (alpha > 1.0)).any():
        raise ValueError("alpha must lie in [0.5, 1]")
    floor = _norm_entropy(np.zeros_like(target), alpha, num_classes)
    if (target < floor - 1e-12).any():
        raise ValueError(
            "a target entropy is below the minimum its alpha can reach"
        )
    lo = np.zeros_like(target)
    hi = np.ones_like(target)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        below = _norm_entropy(mid, alpha, num_classes) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    w = 0.5 * (lo + hi)
    w = np.where(target == 1.0, 1.0, w)
    w = np.where(target <= floor, 0.0, w)
    return w


def _stamp(shape_kind: int, s: int) -> np.ndarray:
    """Boolean s x s blob stamp: 0 = square, 1 = disc."""
    if shape_kind == 0:
        return np.ones((s, s), dtype=bool)
    center = (s - 1) / 2.0
    rr, cc = np.mgrid[0:s, 0:s]
    return (rr - center) ** 2 + (cc - center) ** 2 <= (s / 2.0) ** 2


def _erode8(grid: np.ndarray) -> np.ndarray:
    """Pixels all of whose 8-neighbors (and themselves) are set."""
    pad = np.pad(grid, 1, constant_values=False)
    out = np.ones_like(grid)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            out &= pad[1 + dr : 1 + dr + grid.shape[0],
                       1 + dc : 1 + dc + grid.shape[1]]
    return out


def _pair_table(spec: SceneSpec):
    """(target entropy, alpha) of each pixel kind: background, anomaly at
    the high margin, anomaly at the low margin."""
    target = np.array([spec.background_entropy, spec.anomaly_entropy, spec.anomaly_entropy])
    return target, np.array([1.0, _ALPHA_HIGH, _ALPHA_LOW])


def _layout(spec: SceneSpec, index: int):
    """Scene `index`'s peak class, second class and kind (an index into
    `_pair_table`) per pixel, and its mask labels."""
    rng = np.random.Generator(np.random.PCG64(spec.seed + index))
    h, w = spec.dims
    c = spec.num_classes

    # Background: 2-4 vertical strips, each peaked on a random class.
    n_strips = int(rng.integers(2, 5))
    cuts = np.sort(rng.choice(np.arange(1, w), size=n_strips - 1, replace=False))
    strip_classes = rng.integers(0, c, size=n_strips)
    peak = np.empty((h, w), dtype=np.int64)
    start = 0
    for k, end in enumerate(list(cuts) + [w]):
        peak[:, start:end] = strip_classes[k]
        start = end

    kind = np.zeros((h, w), dtype=np.intp)
    second = (peak + 1) % c
    labels = peak.astype(np.uint8)

    occupied = np.zeros((h, w), dtype=bool)

    def place(s: int):
        for _ in range(_PLACE_ATTEMPTS):
            r0 = int(rng.integers(0, h - s + 1))
            c0 = int(rng.integers(0, w - s + 1))
            if not occupied[r0 : r0 + s, c0 : c0 + s].any():
                return r0, c0
        return None

    def draw_size(size_bit: int | None) -> int:
        slo, shi = spec.blob_size
        if size_bit is None:
            return int(rng.integers(slo, shi + 1))
        mid = (slo + shi) // 2
        if size_bit == 0:
            return int(rng.integers(slo, mid + 1))
        return int(rng.integers(mid + 1, shi + 1)) if mid + 1 <= shi else shi

    def paint(is_true: bool) -> None:
        if spec.nonlinear_coupling:
            size_bit = int(rng.integers(0, 2))
            margin_bit = int(rng.integers(0, 2))
            ring = (
                bool(rng.integers(0, 2)) if is_true
                else bool(size_bit ^ margin_bit)
            )
            size = draw_size(size_bit)
            blob_kind = _ANOMALY_HIGH if margin_bit else _ANOMALY_LOW
        else:
            ring = False
            size = draw_size(None)
            blob_kind = _ANOMALY_HIGH
        shape_kind = int(rng.integers(0, 2))
        stamp = _stamp(shape_kind, size)
        pos = place(size)
        if pos is None:
            return
        r0, c0 = pos
        hot = stamp
        if ring:
            hole = _erode8(stamp)
            if hole.any():
                hot = stamp & ~hole
        c1 = int(rng.integers(0, c))
        c2 = (c1 + 1 + int(rng.integers(0, c - 1))) % c
        rows, cols = np.nonzero(hot)
        rows = rows + r0
        cols = cols + c0
        kind[rows, cols] = blob_kind
        peak[rows, cols] = c1
        second[rows, cols] = c2
        if is_true:
            labels[rows, cols] = OOD_LABEL
        # Reserve the stamp plus a separation margin so blobs never touch.
        rlo = max(0, r0 - _SEPARATION)
        clo = max(0, c0 - _SEPARATION)
        occupied[rlo : r0 + size + _SEPARATION, clo : c0 + size + _SEPARATION] = True

    n_true = int(rng.integers(spec.blob_count[0], spec.blob_count[1] + 1))
    for _ in range(n_true):
        paint(is_true=True)
    n_false = int(rng.poisson(spec.false_blob_rate))
    for _ in range(n_false):
        paint(is_true=False)
    return peak, second, kind, labels


class Scenes:
    """The `count` scenes of `spec`, each built when it is asked for.

    A sequence of `Sample`s with `len`, iteration and indexing that
    keeps no scene it has built: iterating holds none it has yielded,
    and indexing a scene again builds it again, with the same bits.
    Scene i derives its stream from spec.seed + i, so the scenes are
    reproducible and order-stable; the bisection solves a pair entry by
    entry, so no scene's bits depend on the order the scenes are built
    in.  `tuple(scenes)` keeps them all.
    """

    def __init__(self, spec: SceneSpec, count: int) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        self.spec = spec
        self._count = count
        # The mixture weight of each pair of `_pair_table` solved so far,
        # NaN for the others.
        self._pair_weight = np.full(len(_pair_table(spec)[0]), np.nan)

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return map(self.scene, range(self._count))

    def __getitem__(self, i) -> Sample:
        i = operator.index(i)
        return self.scene(i + self._count if i < 0 else i)

    def scene(self, index: int) -> Sample:
        """Build scene `index`, 0 <= index < len(self)."""
        if not 0 <= index < self._count:
            raise IndexError(f"scene index {index} out of range")
        spec = self.spec
        h, w = spec.dims
        c = spec.num_classes
        peak, second, kind, labels = _layout(spec, index)
        target, alpha = _pair_table(spec)
        # Solve only the pairs a scene uses: the low-margin pair may lie
        # below its floor, which is an error only where a blob uses it.
        pair_weight = self._pair_weight
        new = (np.bincount(kind.ravel(), minlength=alpha.size) > 0) & np.isnan(pair_weight)
        if new.any():
            pair_weight[new] = solve_mix_weight(target[new], alpha[new], c)
        weight = pair_weight[kind]
        alpha = alpha[kind]
        # Built in place and handed over, so the map is never copied.
        values = np.empty((h, w, c))
        values[...] = (weight / c)[:, :, None]
        rr = np.arange(h)[:, None]
        cc = np.arange(w)[None, :]
        values[rr, cc, peak] += (1.0 - weight) * alpha
        values[rr, cc, second] += (1.0 - weight) * (1.0 - alpha)
        return Sample(
            id=_scene_id(index),
            pmap=ProbabilityMap(_Unshared(values)),
            mask=LabelMask(labels),
        )


def _scene_id(index: int) -> str:
    return f"scene_{index:04d}"


def generate(spec: SceneSpec, count: int) -> Scenes:
    """The `count` scenes of `spec`, built lazily (`Scenes`)."""
    return Scenes(spec, count)
