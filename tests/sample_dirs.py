"""Samples for the test oracles: sample directories read back into
memory, and scenes of independently hot pixels."""

import numpy as np

from metaseg import raster


def loaded_samples(in_dir):
    """The samples of `raster.iter_sample_files(in_dir)`, in id order,
    each with its probability map loaded, one at a time."""
    return (
        raster.Sample(f.id, raster.load_probability_map(f.path), f.mask)
        for f in raster.iter_sample_files(in_dir)
    )


def iid_sample(h, w, c, hot_frac, seed, sample_id="iid"):
    """Pixels independently hot (near-uniform probabilities, normalized
    entropy well above 0.7) with probability `hot_frac`, else peaked on
    one class; probabilities vary from pixel to pixel."""
    rng = np.random.default_rng(seed)
    hot = rng.random((h, w)) < hot_frac
    flat = rng.dirichlet(np.full(c, 30.0), size=(h, w))
    peak = np.zeros((h, w, c))
    peak[np.arange(h)[:, None], np.arange(w), rng.integers(0, c, (h, w))] = 1.0
    mix = rng.uniform(0.8, 0.95, (h, w, 1))
    probs = np.where(hot[..., None], flat, mix * peak + (1.0 - mix) * flat)
    labels = np.where(rng.random((h, w)) < 0.2, raster.OOD_LABEL, 0).astype(np.uint8)
    return raster.Sample(sample_id, raster.ProbabilityMap(probs), raster.LabelMask(labels))
