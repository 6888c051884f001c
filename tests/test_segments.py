"""Tests for thresholding, connected components, and component labels.

The component partition is cross-checked against an independent
union-find implementation that shares no code with the package, and the
false-positive flags against a per-pixel "no pixel is OOD" check, both
on the pixel sets read off the label image by `pixel_sets`.
"""

import numpy as np
import pytest
from pixel_sets import pixel_sets

from metaseg.features import build_metrics_dataset
from metaseg.raster import (
    IGNORE_LABEL, OOD_LABEL, LabelMask, ProbabilityMap, Sample,
)
from metaseg.scoring import anomaly_score_map
from metaseg.segments import (
    LabelImage,
    ThresholdConfig,
    boundary_grid,
    label_image,
)


def union_find_partition(grid):
    """Reference 8-connected partition via union-find, as a set of
    frozensets of (row, col)."""
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    h, w = grid.shape
    for r in range(h):
        for c in range(w):
            if grid[r, c]:
                parent[(r, c)] = (r, c)
    for r in range(h):
        for c in range(w):
            if not grid[r, c]:
                continue
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == dc == 0:
                        continue
                    nr, nc = r + dr, c + dc
                    if 0 <= nr < h and 0 <= nc < w and grid[nr, nc]:
                        union((r, c), (nr, nc))
    groups = {}
    for p in parent:
        groups.setdefault(find(p), set()).add(p)
    return {frozenset(g) for g in groups.values()}


def scored_sample():
    """A 3x4 sample of distinct, non-maximal scores, with its score map."""
    rng = np.random.default_rng(67)
    pmap = ProbabilityMap(rng.dirichlet(np.full(4, 2.0), size=(3, 4)))
    sample = Sample("s", pmap, LabelMask(np.zeros((3, 4), dtype=np.uint8)))
    return sample, anomaly_score_map(pmap).scores


def component_sizes(sample, t):
    """The `size` column of the metric rows `build_metrics_dataset`
    extracts from `sample` at threshold `t`."""
    ds = build_metrics_dataset([sample], ThresholdConfig(t))
    return ds.rows[:, ds.names.index("size")].tolist()


class TestThreshold:
    """The threshold rule as the metric rows apply it: a pixel is hot iff
    its score is at least t."""

    def test_inclusive_at_threshold(self):
        sample, scores = scored_sample()
        ranked = np.sort(scores, axis=None)
        assert np.unique(ranked).size == ranked.size
        for k in (3, 7, 11):
            # Pixel k of the ranking scores exactly t and counts as hot.
            assert sum(component_sizes(sample, float(ranked[k]))) == ranked.size - k

    def test_zero_threshold_selects_all(self):
        sample, _ = scored_sample()
        assert component_sizes(sample, 0.0) == [12.0]

    def test_nothing_above_threshold(self):
        sample, scores = scored_sample()
        assert scores.max() < 1.0
        assert component_sizes(sample, 1.0) == []

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            ThresholdConfig(1.5)
        with pytest.raises(ValueError, match="threshold"):
            ThresholdConfig(-0.1)


def grid_of(pixels, dims):
    grid = np.zeros(dims, dtype=bool)
    for r, c in pixels:
        grid[r, c] = True
    return grid


class TestConnectedComponents:
    def test_diagonal_pixels_connect(self):
        image = label_image(np.eye(2, dtype=bool))
        assert image.count == 1
        assert image.sizes.tolist() == [2]

    def test_gap_separates(self):
        image = label_image(np.array([[True, False, True]]))
        assert image.count == 2
        assert image.sizes.tolist() == [1, 1]

    def test_ids_in_raster_scan_order(self):
        image = label_image(grid_of({(2, 0), (0, 2), (0, 0)}, (3, 3)))
        firsts = [min(pixels) for pixels, _, _ in pixel_sets(image)]
        assert firsts == sorted(firsts)
        assert [image.labels[p] for p in firsts] == [0, 1, 2]

    def test_solid_block_split(self):
        image = label_image(grid_of(
            {(r, c) for r in range(1, 4) for c in range(1, 4)}, (5, 5)
        ))
        assert image.count == 1
        (pixels, boundary, interior), = pixel_sets(image)
        assert len(pixels) == image.sizes[0] == 9
        assert len(boundary) == image.boundary_sizes[0] == 8
        assert interior == {(2, 2)}
        assert image.bboxes.tolist() == [[1, 3, 1, 3]]

    def test_single_pixel_all_boundary(self):
        image = label_image(grid_of({(0, 0)}, (4, 4)))
        (_, boundary, interior), = pixel_sets(image)
        assert boundary == {(0, 0)}
        assert interior == frozenset()

    def test_min_size_filter_renumbers(self):
        image = label_image(grid_of({(0, 0), (3, 0), (3, 1), (3, 2)}, (5, 5)), 2)
        assert image.count == 1
        assert image.labels[3, 0] == 0 and image.labels[0, 0] == -1
        assert image.sizes.tolist() == [3]

    def test_partition_property(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            grid = rng.random((12, 12)) < 0.45
            union = set()
            for pixels, _, _ in pixel_sets(label_image(grid)):
                assert not (union & pixels)
                union |= pixels
            assert union == {(int(r), int(c)) for r, c in np.argwhere(grid)}

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(59)
        for trial in range(150):
            density = 0.3 if trial % 2 == 0 else 0.7
            grid = rng.random((16, 16)) < density
            got = {pixels for pixels, _, _ in pixel_sets(label_image(grid))}
            assert got == union_find_partition(grid)

    def test_empty_input_gives_no_components(self):
        for dims in ((1, 1), (1, 7), (7, 1), (4, 4)):
            image = label_image(np.zeros(dims, dtype=bool))
            assert image.count == 0 and pixel_sets(image) == []
            assert image.bboxes.shape == (0, 4)
            assert image.boundary_sizes.shape == (0,)


def spiral_grid(n):
    """A one-pixel-wide square spiral on an n x n grid, its arms two rows
    or columns apart, so consecutive arms never touch."""
    grid = np.zeros((n, n), dtype=bool)
    top, left, bottom, right = 0, 0, n - 1, n - 1
    while top <= bottom and left <= right:
        grid[top, left:right + 1] = True
        grid[top:bottom + 1, right] = True
        if top + 2 > bottom:
            break
        grid[bottom, left:right + 1] = True
        if left + 2 > right:
            break
        grid[top + 2:bottom + 1, left] = True
        top, left, bottom, right = top + 2, left + 2, bottom - 2, right - 2
        if top <= bottom:
            grid[top, left - 2:left + 1] = True
    return grid


def snake_grid(h, w):
    """A boustrophedon: full rows on even row indices, joined by single
    pixels at alternating ends on odd ones."""
    grid = np.zeros((h, w), dtype=bool)
    grid[::2] = True
    grid[1::4, w - 1] = True
    grid[3::4, 0] = True
    return grid


def partition_of(grid, **kwargs):
    """The pixel sets of the components of `grid`, by id."""
    return [pixels for pixels, _, _ in pixel_sets(label_image(grid, **kwargs))]


class TestLabelingEdgeCases:
    """Shapes that stress the run-based labeling: long graph diameters,
    purely diagonal joins, and the extremes of the hot set."""

    def test_spiral_is_one_component(self):
        for n in (5, 12, 41, 64):
            grid = spiral_grid(n)
            comps = partition_of(grid)
            assert len(comps) == 1
            assert set(comps) == union_find_partition(grid)

    def test_snake_is_one_component(self):
        for h, w in ((9, 7), (63, 40), (128, 5)):
            grid = snake_grid(h, w)
            assert set(partition_of(grid)) == union_find_partition(grid)
            assert len(partition_of(grid)) == 1
            # Cutting one connector splits the snake in two.
            grid[1, w - 1] = False
            assert len(partition_of(grid)) == 2

    def test_diagonal_only_chains(self):
        n = 20
        grid = np.zeros((n, n), dtype=bool)
        idx = np.arange(n)
        grid[idx, idx] = True  # main diagonal
        grid[idx[::2], n - 1 - idx[::2]] = True  # broken anti-diagonal
        zig = np.zeros((n, 6), dtype=bool)
        zig[idx, np.abs((idx % 8) - 4) + 1] = True  # zigzag of diagonal steps
        for g in (grid, zig, np.eye(n, dtype=bool)[:, ::-1]):
            assert set(partition_of(g)) == union_find_partition(g)
        assert len(partition_of(zig)) == 1
        assert len(partition_of(np.eye(n, dtype=bool)[:, ::-1])) == 1

    def test_ids_in_raster_order_after_min_size(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            grid = rng.random((24, 24)) < 0.35
            for min_size in (2, 3, 5):
                want = sorted(
                    (p for p in union_find_partition(grid) if len(p) >= min_size),
                    key=min,
                )
                assert partition_of(grid, min_size=min_size) == want

    def test_empty_hot_set(self):
        image = label_image(np.zeros((6, 9), dtype=bool))
        assert image.count == 0
        assert (image.labels == -1).all()
        assert pixel_sets(image) == []

    def test_fully_hot_image(self):
        image = label_image(np.ones((5, 7), dtype=bool))
        assert image.count == 1
        assert (image.labels == 0).all()
        assert image.sizes.tolist() == [35]
        assert image.bboxes.tolist() == [[0, 4, 0, 6]]
        assert image.boundary_sizes.tolist() == [20]
        (_, _, interior), = pixel_sets(image)
        assert interior == {(r, c) for r in range(1, 4) for c in range(1, 6)}

    def test_record_counts_match_pixel_sets(self):
        rng = np.random.default_rng(73)
        image = label_image(rng.random((30, 30)) < 0.5)
        sets = pixel_sets(image)
        assert image.count == len(sets) > 5
        for k, (pixels, boundary, interior) in enumerate(sets):
            rows, cols = zip(*pixels)
            assert image.sizes[k] == len(pixels)
            assert image.boundary_sizes[k] == len(boundary)
            assert image.sizes[k] - image.boundary_sizes[k] == len(interior)
            assert image.bboxes[k].tolist() == [min(rows), max(rows), min(cols), max(cols)]


class TestBoundary:
    def test_four_neighbor_rule(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            grid = rng.random((10, 10)) < 0.5
            bd = boundary_grid(grid)
            h, w = grid.shape
            for r in range(h):
                for c in range(w):
                    if not grid[r, c]:
                        assert not bd[r, c]
                        continue
                    exposed = False
                    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                        nr, nc = r + dr, c + dc
                        if not (0 <= nr < h and 0 <= nc < w) or not grid[nr, nc]:
                            exposed = True
                    assert bd[r, c] == exposed

    def test_image_edge_counts_as_outside(self):
        grid = np.ones((3, 3), dtype=bool)
        bd = boundary_grid(grid)
        assert bd.sum() == 8
        assert not bd[1, 1]


class TestLabelImage:
    def test_hand_built_label_image(self):
        pixels = {(2, 3), (3, 3), (3, 4), (4, 4)}
        labels = np.full((5, 5), -1)
        boundary = np.zeros((5, 5), dtype=bool)
        for r, c in pixels:
            labels[r, c] = 0
        boundary[2, 3] = boundary[4, 4] = True
        image = LabelImage(labels, boundary)
        assert image.count == 1 and image.shape == (5, 5)
        assert image.is_false_positive is None
        assert pixel_sets(image) == [(pixels, {(2, 3), (4, 4)}, {(3, 3), (3, 4)})]
        assert image.bboxes.tolist() == [[2, 4, 3, 4]]
        assert (image.sizes[0], image.boundary_sizes[0]) == (4, 2)

    def test_label_image_leaves_caller_labels_writeable(self):
        labels = np.array([[0, -1], [-1, 1]], dtype=np.int32)
        image = LabelImage(labels, labels >= 0)
        labels[0, 1] = 0
        assert image.labels[0, 1] == -1
        assert not image.labels.flags.writeable

    @pytest.mark.parametrize("labels", [
        np.zeros(4, dtype=np.int32),
        np.zeros((0, 3), dtype=np.int32),
        np.zeros((2, 2, 2), dtype=np.int32),
        np.zeros((2, 2)),
        np.zeros((2, 2), dtype=bool),
    ], ids=["1d", "empty", "3d", "float", "bool"])
    def test_labels_must_be_nonempty_2d_integers(self, labels):
        with pytest.raises(ValueError, match="nonempty 2-d integer"):
            LabelImage(labels, np.zeros(labels.shape, dtype=bool))

    def test_id_below_minus_one_rejected(self):
        labels = np.array([[0, -2], [-1, 0]])
        with pytest.raises(ValueError, match="-2 is below -1"):
            LabelImage(labels, labels >= 0)

    def test_id_past_the_pixel_count_rejected(self):
        # 2^32 would wrap to id 0 in int32.
        labels = np.array([[0, 2**32]])
        with pytest.raises(ValueError, match="0..K-1"):
            LabelImage(labels, labels >= 0)

    def test_boundary_shape_must_match_labels(self):
        labels = np.zeros((4, 4), dtype=np.int32)
        with pytest.raises(ValueError, match=r"boundary is \(5, 5\)"):
            LabelImage(labels, np.ones((5, 5), dtype=bool))

    def test_ood_shape_must_match_labels(self):
        labels = np.zeros((4, 4), dtype=np.int32)
        with pytest.raises(ValueError, match=r"OOD mask is \(2, 8\)"):
            LabelImage(labels, labels >= 0, np.zeros((2, 8), dtype=bool))
        with pytest.raises(ValueError, match=r"OOD mask is \(2, 8\)"):
            label_image(labels >= 0, ood=np.zeros((2, 8), dtype=bool))


class TestFalsePositives:
    def test_matches_no_ood_pixel_oracle(self):
        # A component is a false positive iff none of its pixels is OOD:
        # IGNORE counts as non-OOD, and one OOD pixel makes a true positive.
        rng = np.random.default_rng(79)
        marks = np.array([0, 3, OOD_LABEL, IGNORE_LABEL], dtype=np.uint8)
        seen = {"fp": 0, "fp_on_ignore": 0, "tp": 0, "tp_on_one_pixel": 0}
        for _ in range(40):
            hot = rng.random((20, 24)) < 0.45
            labels = marks[rng.choice(4, size=hot.shape, p=[0.5, 0.25, 0.05, 0.2])]
            mask = LabelMask(labels)
            for min_size in (1, 3):
                image = label_image(hot, min_size, mask.is_ood())
                want = []
                for pixels, _, _ in pixel_sets(image):
                    marked = [int(labels[p]) for p in pixels]
                    fp = OOD_LABEL not in marked
                    want.append(fp)
                    seen["fp" if fp else "tp"] += 1
                    seen["fp_on_ignore"] += fp and IGNORE_LABEL in marked
                    seen["tp_on_one_pixel"] += marked.count(OOD_LABEL) == 1 < len(marked)
                assert image.is_false_positive.tolist() == want
        assert min(seen.values()) >= 20, seen
