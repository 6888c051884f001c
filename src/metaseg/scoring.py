"""Entropy, anomaly-score, and reference-loss computations.

Per-pixel prediction entropy (in nats) drives everything downstream:
dividing by ln(C) turns it into a normalized anomaly score in [0, 1].
The in/out reference losses mirror the entropy-maximization training
objective at desk scale: cross entropy on class-labeled pixels, a
uniform-target cross entropy on out-of-distribution pixels, and their
lambda-weighted combination.

Every logarithm clamps its argument at EPS = 1e-12 first, so one-hot
inputs stay finite and golden values are reproducible bit-for-bit.

The per-pixel kernels (entropy, normalized score, largest probability
and margin) work on one N x C block of pixels at a time, the blocks of
`raster._BLOCK_VALUES` values that every pass over a map walks, so their
temporaries stay a fixed size however large the map is.  Each pixel's
reduction over the classes does not depend on how many pixels a block
holds, so the fields are bit-identical to the whole-array expressions.
`anomaly_score_map` and `anomaly_score_file` fill the scores through one
function from a block stream: the blocks of the loaded map, or those
read from the file, so scoring a file holds the H x W scores but never
the H x W x C map.  The metric rows (`features.build_metrics_dataset`
and `metaclf.remove_false_positives`) take every per-pixel field, the
scores, the largest probability and margin, from the same kernels on the
same streams; no whole-map field function exists besides the scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import (
    PROB_SUM_TOL,
    LabelMask,
    ProbabilityMap,
    ScoreMap,
    _array_blocks,
    _Unshared,
    iter_probability_blocks,
)

EPS = 1e-12


@dataclass(frozen=True)
class LossBreakdown:
    """In/out reference losses (nats) and their weighted combination."""

    l_in: float
    l_out: float
    combined: float
    lam: float


def _entropy(block: np.ndarray) -> np.ndarray:
    """Entropy in nats of every pixel of the N x C `block`
    (`-sum(p * log(max(p, EPS)))` over the classes)."""
    terms = np.maximum(block, EPS)
    np.log(terms, out=terms)
    terms *= block
    ent = terms.sum(axis=-1)
    return np.negative(ent, out=ent)


def _normalized_entropy(block: np.ndarray) -> np.ndarray:
    """Anomaly scores of every pixel of the N x C `block`: entropy
    divided by ln(C) and clamped to [0, 1]."""
    score = _entropy(block)
    score /= np.log(block.shape[1])
    return np.clip(score, 0.0, 1.0, out=score)


def _top_two(block: np.ndarray) -> tuple:
    """Largest class probability of every pixel of the N x C `block` and
    its margin over the second largest."""
    # Partition keeps the top two values in the last two slots.
    part = np.partition(block, block.shape[-1] - 2, axis=-1)
    return part[:, -1], part[:, -1] - part[:, -2]


def pixel_entropy(probs) -> float:
    """Entropy in nats of a single probability vector.

    The vector must have length >= 2, components in [0, 1], and sum to 1
    within the probability-sum tolerance.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] < 2:
        raise ValueError(f"need a probability vector of length >= 2, got shape {p.shape}")
    if not np.isfinite(p).all() or p.min() < 0.0 or p.max() > 1.0:
        raise ValueError("probabilities must be finite and in [0, 1]")
    if abs(p.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {p.sum():.8f}, not 1")
    return float(_entropy(p[None])[0])


def _score_map(blocks, dims: tuple) -> ScoreMap:
    """The normalized-entropy scores of the N x C `blocks` of a map of
    `dims` (H, W, C), fed in raster order; the score map keeps the array
    they are written into."""
    h, w = dims[:2]
    scores = np.empty(h * w)
    lo = 0
    for block in blocks:
        scores[lo : lo + len(block)] = _normalized_entropy(block)
        lo += len(block)
    return ScoreMap(_Unshared(scores.reshape(h, w)))


def anomaly_score_map(pmap: ProbabilityMap) -> ScoreMap:
    """Normalized-entropy anomaly scores: entropy / ln(C), clamped to [0, 1]."""
    return _score_map(_array_blocks(pmap.values), pmap.values.shape)


def anomaly_score_file(path) -> ScoreMap:
    """The anomaly scores of the RAST probability map at `path`, bit for
    bit those of `anomaly_score_map(load_probability_map(path))`, computed
    block by block as the file is read.  A map the loader refuses raises
    the same `RasterFormatError`."""
    blocks = iter_probability_blocks(path)
    dims = next(blocks)
    return _score_map(blocks, dims)


def _check_dims(pmap: ProbabilityMap, mask: LabelMask) -> None:
    if (pmap.height, pmap.width) != (mask.height, mask.width):
        raise ValueError(
            f"probability map is {pmap.height}x{pmap.width} "
            f"but mask is {mask.height}x{mask.width}"
        )


def loss_in(pmap: ProbabilityMap, mask: LabelMask) -> float:
    """Cross entropy summed over class-labeled pixels.

    OOD and IGNORE pixels are skipped.  Returns 0 when no pixel carries a
    class label.
    """
    _check_dims(pmap, mask)
    sel = mask.is_class()
    if not sel.any():
        return 0.0
    labels = mask.labels[sel].astype(np.intp)
    if labels.max() >= pmap.num_classes:
        raise ValueError(
            f"class label {labels.max()} out of range for C={pmap.num_classes}"
        )
    p_true = pmap.values[sel, labels]
    return float(-np.sum(np.log(np.maximum(p_true, EPS))))


def loss_out(pmap: ProbabilityMap, mask: LabelMask) -> float:
    """Uniform-target cross entropy summed over OOD-labeled pixels.

    Per pixel the term is -(1/C) * sum_c ln p(c), minimized (at ln C) by
    the uniform distribution, so driving this loss down pushes OOD pixels
    toward maximum entropy.  Returns 0 when the mask has no OOD pixels.
    """
    _check_dims(pmap, mask)
    sel = mask.is_ood()
    if not sel.any():
        return 0.0
    logs = np.log(np.maximum(pmap.values[sel], EPS))
    return float(-logs.sum() / pmap.num_classes)


def combined_objective(in_batch, out_batch, lam: float) -> LossBreakdown:
    """Weighted training objective (1 - lam) * l_in + lam * l_out.

    `in_batch` and `out_batch` are sized iterables of `Sample`s, such as
    lists.  Each side is averaged per entry: l_in is the mean of the
    per-sample in-losses over `in_batch`, l_out the mean of the
    per-sample out-losses over `out_batch`.  A side with zero weight may
    be empty and contributes 0.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    if lam < 1.0 and len(in_batch) == 0:
        raise ValueError("in_batch is empty but its weight is nonzero")
    if lam > 0.0 and len(out_batch) == 0:
        raise ValueError("out_batch is empty but its weight is nonzero")
    l_in = (
        float(np.mean([loss_in(s.pmap, s.mask) for s in in_batch]))
        if len(in_batch)
        else 0.0
    )
    l_out = (
        float(np.mean([loss_out(s.pmap, s.mask) for s in out_batch]))
        if len(out_batch)
        else 0.0
    )
    return LossBreakdown(
        l_in=l_in, l_out=l_out, combined=(1.0 - lam) * l_in + lam * l_out, lam=lam
    )
