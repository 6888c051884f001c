"""Workload definitions: the CLI step sequence of each workload and the
seeded input generators for the workloads that bring their own data.

The `dense` and `cityscapes` inputs are written here directly in the RAST
and PGM formats described in the metaseg README, with numpy only, so a
change to `metaseg.synth` cannot alter them.  `walkthrough` generates its
corpus through the CLI's own `synth` step, because that step is part of
what a user types.

Every generator draws from one numpy Generator seeded from the benchmark
seed and the workload name, so the same seed always gives the same bytes.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

NUM_CLASSES = 19
WALKTHROUGH_SCENES = 50
# Rows per chunk when writing large probability rasters; bounds the
# float64 working set of the generator to about 40 MB.
_CHUNK_ROWS = 128


def steps(workload: str, seed: int, inputs: str) -> list:
    """The CLI argv lists a workload runs, in order.  Paths are relative
    to the step working directory, except `inputs`."""
    if workload == "walkthrough":
        return [
            ["synth", "--out", "scenes", "--count", str(WALKTHROUGH_SCENES),
             "--seed", str(seed), "--couple"],
            ["score", "--in", "scenes", "--out", "scored"],
            ["segments", "--in", "scenes", "--t", "0.7", "--out", "segments.csv"],
            ["metrics", "--in", "scenes", "--t", "0.7", "--out", "mu.csv"],
            ["train-meta", "--mu", "mu.csv", "--kind", "mlp", "--seed", "0",
             "--out", "meta.model"],
            ["eval-meta", "--model", "meta.model", "--mu", "mu.csv",
             "--out", "report.csv", "--roc-svg", "roc.svg", "--pr-svg", "pr.svg"],
            ["loo", "--mu", "mu.csv", "--kind", "logistic", "--out", "loo.csv",
             "--scores-csv", "scores.csv"],
            ["loo", "--mu", "mu.csv", "--kind", "mlp", "--out", "loo_mlp.csv"],
            ["lars", "--mu", "mu.csv", "--out", "ordering.csv"],
            ["filter-proxy", "--in", "scenes", "--low", "0.2", "--high", "0.8",
             "--out", "split.csv"],
            ["eval-pixel", "--scores", "scored", "--masks", "scenes",
             "--out", "pixel_report.csv"],
        ]
    if workload == "dense":
        return [
            ["segments", "--in", inputs, "--t", "0.7", "--out", "segments.csv"],
            ["metrics", "--in", inputs, "--t", "0.7", "--out", "mu.csv"],
            ["train-meta", "--mu", "mu.csv", "--kind", "logistic", "--seed", "0",
             "--out", "meta.model"],
            ["eval-meta", "--model", "meta.model", "--mu", "mu.csv",
             "--out", "report.csv"],
        ]
    if workload == "cityscapes":
        return [
            ["score", "--in", inputs, "--out", "scored"],
            ["eval-pixel", "--scores", "scored", "--masks", inputs,
             "--out", "pixel_report.csv"],
            ["metrics", "--in", inputs, "--t", "0.7", "--out", "mu.csv"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


# Inputs are synced to disk when written, so that no write-back of them
# competes with the timed repetitions.
def _synced(fh) -> None:
    fh.flush()
    os.fsync(fh.fileno())


def _write_pgm(path: Path, labels: np.ndarray) -> None:
    h, w = labels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii")
                 + labels.astype(np.uint8).tobytes())
        _synced(fh)


def _write_rast(path: Path, w_mix, alpha, peak, second) -> None:
    """Write an H x W x C probability raster whose pixel (r, c) is the
    mixture w/C on every class plus (1 - w) split alpha : 1 - alpha
    between classes `peak` and `second`."""
    h, w = w_mix.shape
    c = NUM_CLASSES
    with open(path, "wb") as fh:
        fh.write(b"RASTv001" + struct.pack("<III", h, w, c))
        for r0 in range(0, h, _CHUNK_ROWS):
            sl = slice(r0, min(h, r0 + _CHUNK_ROWS))
            wm = w_mix[sl].astype(np.float64)
            al = alpha[sl].astype(np.float64)
            probs = np.repeat((wm / c)[:, :, None], c, axis=2)
            base = np.arange(wm.size) * c
            flat = probs.reshape(-1)
            flat[base + peak[sl].ravel()] += ((1.0 - wm) * al).ravel()
            flat[base + second[sl].ravel()] += ((1.0 - wm) * (1.0 - al)).ravel()
            fh.write(probs.astype("<f4").tobytes())
        _synced(fh)


# Mixture weights below 0.3 (with alpha >= 0.7) keep the normalized entropy
# under 0.62; weights above 0.6 keep it over 0.79 for any alpha.  No pixel
# lands near t = 0.7, so float32 storage cannot move one across it.
def _cold(rng, shape):
    return rng.uniform(0.0, 0.3, shape), rng.uniform(0.7, 1.0, shape)


def _hot(rng, shape):
    return rng.uniform(0.6, 1.0, shape), rng.uniform(0.5, 1.0, shape)


def _other_class(rng, peak):
    return (peak + 1 + rng.integers(0, NUM_CLASSES - 1, peak.shape)) % NUM_CLASSES


def _strip_classes(rng, h, w):
    n = int(rng.integers(3, 7))
    cuts = np.sort(rng.choice(np.arange(1, w), size=n - 1, replace=False))
    cols = np.searchsorted(cuts, np.arange(w), side="right")
    return np.broadcast_to(rng.integers(0, NUM_CLASSES, n)[cols], (h, w)).copy()


def make_dense(out: Path, seed: int) -> None:
    """Two 128x256 scenes of i.i.d. per-pixel entropy, 30% of pixels hot.

    Hot pixels percolate into about 1.6k components per scene, mostly of
    1-20 px.
    Two to four OOD rectangles per mask make the components touching them
    true positives, so the meta classifier sees both labels.
    """
    rng = _rng("dense", seed)
    h, w = 128, 256
    for k in range(2):
        peak = _strip_classes(rng, h, w)
        hot = rng.random((h, w)) < 0.3
        w_cold, a_cold = _cold(rng, (h, w))
        w_hot, a_hot = _hot(rng, (h, w))
        labels = peak.astype(np.uint8)
        for _ in range(int(rng.integers(2, 5))):
            rh, rw = int(rng.integers(30, 90)), int(rng.integers(40, 160))
            r0, c0 = int(rng.integers(0, h - rh)), int(rng.integers(0, w - rw))
            labels[r0:r0 + rh, c0:c0 + rw] = 254
        _write_rast(out / f"dense_{k}.rast", np.where(hot, w_hot, w_cold),
                    np.where(hot, a_hot, a_cold), peak, _other_class(rng, peak))
        _write_pgm(out / f"dense_{k}.pgm", labels)


# Half the Cityscapes resolution of 1024 x 2048, as in Cityscapes
# evaluation at half scale: the steps stay short enough that a run holds
# several repetitions of each.
_CITY_H, _CITY_W = 512, 1024
# Region seeds sit one per cell of a 4 x 7 grid, jittered inside it, and
# the disc count is fixed: every seed then gives about the same number of
# components and boundary pixels, and so the same amount of work.
_CITY_GRID = (4, 7)
_CITY_JITTER = 0.4
_CITY_DISCS = 16
# Cells whose nearest and second-nearest seed distances differ by less
# than this lie on a region boundary band (about 6 px wide).
_BAND_GAP = 6.0


def _voronoi(rng, h, w):
    rows, cols = _CITY_GRID
    n = rows * cols
    cy, cx = np.divmod(np.arange(n), cols)
    sy = (cy + 0.5 + rng.uniform(-_CITY_JITTER, _CITY_JITTER, n)) * h / rows
    sx = (cx + 0.5 + rng.uniform(-_CITY_JITTER, _CITY_JITTER, n)) * w / cols
    yy = np.arange(h, dtype=np.float32)[:, None]
    xx = np.arange(w, dtype=np.float32)[None, :]
    d1 = np.full((h, w), np.inf, dtype=np.float32)
    d2 = d1.copy()
    l1 = np.zeros((h, w), dtype=np.intp)
    l2 = l1.copy()
    for i in range(n):
        d = np.sqrt((yy - np.float32(sy[i])) ** 2 + (xx - np.float32(sx[i])) ** 2)
        closer = d < d1
        second = ~closer & (d < d2)
        d2 = np.where(closer, d1, np.where(second, d, d2))
        l2 = np.where(closer, l1, np.where(second, i, l2))
        d1 = np.where(closer, d, d1)
        l1 = np.where(closer, i, l1)
    return rng.integers(0, NUM_CLASSES, n), l1, l2, d2 - d1


def make_cityscapes(out: Path, seed: int) -> None:
    """Two Cityscapes-shaped 512x1024 scenes.

    Each is a Voronoi partition into 28 class regions, one per cell of a
    jittered 4 x 7 grid.  The bands along region boundaries are hot and
    confuse the two neighbouring classes; they join into one large
    boundary network.  Sixteen hot discs sit inside regions, away from the
    bands; every other one is OOD in the mask.  The bottom 15% of rows is
    IGNORE, as the ego-vehicle is in Cityscapes.
    """
    rng = _rng("cityscapes", seed)
    h, w = _CITY_H, _CITY_W
    ignore_from = int(0.85 * h)
    for k in range(2):
        cls, l1, l2, gap = _voronoi(rng, h, w)
        peak = cls[l1]
        second = cls[l2]
        second = np.where(second == peak, (peak + 1) % NUM_CLASSES, second)
        band = gap < _BAND_GAP
        second = np.where(band, second, _other_class(rng, peak))
        w_cold, a_cold = _cold(rng, (h, w))
        w_hot, a_hot = _hot(rng, (h, w))
        hot = band.copy()
        labels = peak.astype(np.uint8)

        discs = []
        for b in range(_CITY_DISCS):
            for _ in range(400):
                r = int(rng.integers(4, 20))
                cy = int(rng.integers(r + 2, ignore_from - r - 2))
                cx = int(rng.integers(r + 2, w - r - 2))
                # gap changes by at most 2 per pixel of distance.
                clear = gap[cy, cx] > _BAND_GAP + 2 * r + 4
                apart = all((cy - y) ** 2 + (cx - x) ** 2 > (r + q + 4) ** 2
                            for y, x, q in discs)
                if clear and apart:
                    break
            else:
                continue
            discs.append((cy, cx, r))
            ys, xs = np.ogrid[cy - r:cy + r + 1, cx - r:cx + r + 1]
            disc = (ys - cy) ** 2 + (xs - cx) ** 2 <= r * r
            win = (slice(cy - r, cy + r + 1), slice(cx - r, cx + r + 1))
            hot[win] |= disc
            c1 = int(rng.integers(0, NUM_CLASSES))
            peak[win] = np.where(disc, c1, peak[win])
            second[win] = np.where(disc, (c1 + 1 + b) % NUM_CLASSES, second[win])
            if b % 2 == 0:
                labels[win] = np.where(disc, 254, labels[win])
        labels[ignore_from:] = 255
        _write_rast(out / f"city_{k}.rast", np.where(hot, w_hot, w_cold),
                    np.where(hot, a_hot, a_cold), peak, second)
        _write_pgm(out / f"city_{k}.pgm", labels)


GENERATORS = {"dense": make_dense, "cityscapes": make_cityscapes}
