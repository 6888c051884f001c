"""Entropy, anomaly-score, and reference-loss computations.

Per-pixel prediction entropy (in nats) drives everything downstream:
dividing by ln(C) turns it into a normalized anomaly score in [0, 1].
The in/out reference losses mirror the entropy-maximization training
objective at desk scale: cross entropy on class-labeled pixels, a
uniform-target cross entropy on out-of-distribution pixels, and their
lambda-weighted combination.

Every logarithm clamps its argument at EPS = 1e-12 first, so one-hot
inputs stay finite and golden values are reproducible bit-for-bit.

The per-pixel fields (entropy, max probability, margin) walk the map in
blocks of `_BLOCK_PIXELS` pixels, so their temporaries stay a fixed size
however large the map is.  Each pixel's reduction over the classes is
the same as on the whole array, so the fields are bit-identical to the
whole-array expressions.  `anomaly_score_file` runs the entropy kernel
on the blocks of a probability map as they are read from its file, so
scoring a file holds the H x W scores but never the H x W x C map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import (
    PROB_SUM_TOL,
    LabelMask,
    ProbabilityMap,
    SampleSet,
    ScoreMap,
    iter_probability_blocks,
)

EPS = 1e-12
# Pixels per block of the per-pixel kernels: 4096 x C float64 values,
# 608 KiB at C = 19.
_BLOCK_PIXELS = 4096


@dataclass(frozen=True)
class LossBreakdown:
    """In/out reference losses (nats) and their weighted combination."""

    l_in: float
    l_out: float
    combined: float
    lam: float


def _pixel_blocks(values: np.ndarray, *fields: np.ndarray):
    """Blocks of `values` (... x C) as (N x C) pixel rows, each with the
    matching slices of the flattened per-pixel `fields` (shape ...)."""
    flat = values.reshape(-1, values.shape[-1])
    outs = [f.reshape(-1) for f in fields]
    for lo in range(0, flat.shape[0], _BLOCK_PIXELS):
        hi = lo + _BLOCK_PIXELS
        yield flat[lo:hi], *(out[lo:hi] for out in outs)


def _entropy_field(values: np.ndarray) -> np.ndarray:
    """Per-pixel entropy in nats for an H x W x C probability array
    (`-sum(p * log(max(p, EPS)))` over the last axis)."""
    ent = np.empty(values.shape[:-1])
    for block, out in _pixel_blocks(values, ent):
        terms = np.maximum(block, EPS)
        np.log(terms, out=terms)
        terms *= block
        np.sum(terms, axis=-1, out=out)
    return np.negative(ent, out=ent)


def _top_two_fields(values: np.ndarray) -> tuple:
    """Per-pixel largest class probability and its margin over the second
    largest, in one pass, for an H x W x C probability array."""
    top = np.empty(values.shape[:-1])
    margin = np.empty(values.shape[:-1])
    for block, top_out, margin_out in _pixel_blocks(values, top, margin):
        # Partition keeps the top two values in the last two slots.
        part = np.partition(block, block.shape[-1] - 2, axis=-1)
        top_out[:] = part[:, -1]
        np.subtract(part[:, -1], part[:, -2], out=margin_out)
    return top, margin


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
    return float(_entropy_field(p))


def entropy_map(pmap: ProbabilityMap) -> np.ndarray:
    """H x W array of per-pixel entropies in nats."""
    return _entropy_field(pmap.values)


def _normalized_scores(entropy: np.ndarray, num_classes: int) -> ScoreMap:
    """Entropies in nats as scores: divided by ln(C) and clamped to [0, 1],
    in place."""
    entropy /= np.log(num_classes)
    return ScoreMap(np.clip(entropy, 0.0, 1.0, out=entropy))


def anomaly_score_map(pmap: ProbabilityMap) -> ScoreMap:
    """Normalized-entropy anomaly scores: entropy / ln(C), clamped to [0, 1]."""
    return _normalized_scores(entropy_map(pmap), pmap.num_classes)


def anomaly_score_file(path) -> ScoreMap:
    """The anomaly scores of the RAST probability map at `path`, bit for
    bit those of `anomaly_score_map(load_probability_map(path))`, computed
    block by block as the file is read.  A map the loader refuses raises
    the same `RasterFormatError`."""
    blocks = iter_probability_blocks(path)
    h, w, c = next(blocks)
    entropy = np.empty(h * w)
    lo = 0
    for block in blocks:
        entropy[lo : lo + len(block)] = _entropy_field(block)
        lo += len(block)
    return _normalized_scores(entropy.reshape(h, w), c)


def variation_ratio_map(pmap: ProbabilityMap) -> np.ndarray:
    """H x W array of 1 - max_c p(c) per pixel."""
    return 1.0 - pmap.values.max(axis=-1)


def margin_map(pmap: ProbabilityMap) -> np.ndarray:
    """H x W array of the gap between the two largest class probabilities."""
    return _top_two_fields(pmap.values)[1]


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


def combined_objective(
    in_batch: SampleSet, out_batch: SampleSet, lam: float
) -> LossBreakdown:
    """Weighted training objective (1 - lam) * l_in + lam * l_out.

    Each side is averaged per entry: l_in is the mean of the per-sample
    in-losses over `in_batch`, l_out the mean of the per-sample out-losses
    over `out_batch`.  A side with zero weight may be empty and
    contributes 0.
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
