"""Pixel sets of the components of a `LabelImage`, for the test oracles.

The oracles (union-find, the per-component metric row, hand counts)
speak of a component as a set of (row, col) pixels.  `pixel_sets` reads
those sets off a label image: its pixels from `labels`, its boundary
from `order` and `on_boundary`.
"""

import numpy as np


def _points(mask):
    return frozenset(map(tuple, np.argwhere(mask).tolist()))


def pixel_sets(image):
    """(pixels, boundary, interior) of every component, by id, each a
    frozenset of (row, col)."""
    flagged = np.zeros(image.labels.size, dtype=bool)
    flagged[image.order[image.on_boundary]] = True
    flagged = flagged.reshape(image.shape)
    sets = []
    for k in range(image.count):
        mine = image.labels == k
        pixels, boundary = _points(mine), _points(mine & flagged)
        sets.append((pixels, boundary, pixels - boundary))
    return sets
