"""Tests for thresholding, connected components, and component labels.

The component partition is cross-checked against an independent
union-find implementation that shares no code with the package.
"""

import numpy as np
import pytest

from metaseg.raster import IGNORE_LABEL, OOD_LABEL, LabelMask, ScoreMap
from metaseg.segments import (
    ComponentRecord,
    LabelImage,
    ThresholdConfig,
    boundary_grid,
    component_iou,
    connected_components,
    extract_labeled_components,
    label_components,
    label_image,
    ood_pixel_set,
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


class TestThreshold:
    def test_inclusive_at_threshold(self):
        sm = ScoreMap(np.array([[0.8, 0.6], [0.71, 0.70]]))
        got = ood_pixel_set(sm, ThresholdConfig(0.7))
        assert got == {(0, 0), (1, 0), (1, 1)}

    def test_zero_threshold_selects_all(self):
        sm = ScoreMap(np.zeros((3, 3)))
        assert len(ood_pixel_set(sm, ThresholdConfig(0.0))) == 9

    def test_nothing_above_threshold(self):
        sm = ScoreMap(np.full((3, 3), 0.5))
        assert ood_pixel_set(sm, ThresholdConfig(0.7)) == set()

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            ThresholdConfig(1.5)
        with pytest.raises(ValueError, match="threshold"):
            ThresholdConfig(-0.1)


class TestConnectedComponents:
    def test_diagonal_pixels_connect(self):
        comps = connected_components({(0, 0), (1, 1)}, (2, 2))
        assert len(comps) == 1
        assert comps[0].size == 2

    def test_gap_separates(self):
        comps = connected_components({(0, 0), (0, 2)}, (1, 3))
        assert len(comps) == 2
        assert all(c.size == 1 for c in comps)

    def test_ids_in_raster_scan_order(self):
        pixels = {(2, 0), (0, 2), (0, 0)}
        comps = connected_components(pixels, (3, 3))
        firsts = [min(c.pixels) for c in comps]
        assert firsts == sorted(firsts)
        assert [c.id for c in comps] == [0, 1, 2]

    def test_solid_block_split(self):
        pixels = {(r, c) for r in range(1, 4) for c in range(1, 4)}
        comps = connected_components(pixels, (5, 5))
        assert len(comps) == 1
        comp = comps[0]
        assert comp.size == 9
        assert len(comp.boundary) == 8
        assert comp.interior == {(2, 2)}
        assert comp.bbox == (1, 3, 1, 3)

    def test_single_pixel_all_boundary(self):
        comps = connected_components({(0, 0)}, (4, 4))
        assert comps[0].boundary == {(0, 0)}
        assert comps[0].interior == frozenset()

    def test_min_size_filter_renumbers(self):
        pixels = {(0, 0), (3, 0), (3, 1), (3, 2)}
        comps = connected_components(pixels, (5, 5), min_size=2)
        assert len(comps) == 1
        assert comps[0].id == 0
        assert comps[0].size == 3

    def test_partition_property(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            grid = rng.random((12, 12)) < 0.45
            pixels = {(int(r), int(c)) for r, c in np.argwhere(grid)}
            comps = connected_components(pixels, (12, 12))
            union = set()
            for comp in comps:
                assert not (union & comp.pixels)
                union |= comp.pixels
            assert union == pixels

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(59)
        for trial in range(150):
            density = 0.3 if trial % 2 == 0 else 0.7
            grid = rng.random((16, 16)) < density
            pixels = {(int(r), int(c)) for r, c in np.argwhere(grid)}
            got = {c.pixels for c in connected_components(pixels, (16, 16))}
            assert got == union_find_partition(grid)

    def test_pixel_outside_image_rejected(self):
        for pixel in ((5, 0), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="outside"):
                connected_components({pixel}, (3, 3))

    def test_empty_input_gives_no_components(self):
        assert connected_components(set(), (4, 4)) == []


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
    pixels = {(int(r), int(c)) for r, c in np.argwhere(grid)}
    return connected_components(pixels, grid.shape, **kwargs)


class TestLabelingEdgeCases:
    """Shapes that stress the run-based labeling: long graph diameters,
    purely diagonal joins, and the extremes of the hot set."""

    def test_spiral_is_one_component(self):
        for n in (5, 12, 41, 64):
            grid = spiral_grid(n)
            comps = partition_of(grid)
            assert len(comps) == 1
            assert {c.pixels for c in comps} == union_find_partition(grid)

    def test_snake_is_one_component(self):
        for h, w in ((9, 7), (63, 40), (128, 5)):
            grid = snake_grid(h, w)
            assert {c.pixels for c in partition_of(grid)} == union_find_partition(grid)
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
            assert {c.pixels for c in partition_of(g)} == union_find_partition(g)
        assert len(partition_of(zig)) == 1
        assert len(partition_of(np.eye(n, dtype=bool)[:, ::-1])) == 1

    def test_ids_in_raster_order_after_min_size(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            grid = rng.random((24, 24)) < 0.35
            for min_size in (2, 3, 5):
                comps = partition_of(grid, min_size=min_size)
                want = sorted(
                    (p for p in union_find_partition(grid) if len(p) >= min_size),
                    key=min,
                )
                assert [c.pixels for c in comps] == want
                assert [c.id for c in comps] == list(range(len(want)))

    def test_empty_hot_set(self):
        image = label_image(np.zeros((6, 9), dtype=bool))
        assert image.count == 0
        assert (image.labels == -1).all()
        assert image.records() == []

    def test_fully_hot_image(self):
        image = label_image(np.ones((5, 7), dtype=bool))
        assert image.count == 1
        assert (image.labels == 0).all()
        (comp,) = image.records()
        assert comp.size == 35 and comp.bbox == (0, 4, 0, 6)
        assert comp.boundary_size == 20 and comp.interior_size == 15
        assert comp.interior == {(r, c) for r in range(1, 4) for c in range(1, 6)}

    def test_record_counts_match_pixel_sets(self):
        rng = np.random.default_rng(73)
        grid = rng.random((30, 30)) < 0.5
        for comp in partition_of(grid):
            assert comp.size == len(comp.pixels)
            assert comp.boundary_size == len(comp.boundary)
            assert comp.interior_size == len(comp.interior)


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


class TestComponentRecord:
    def test_hand_built_record_views_a_one_component_label_image(self):
        pixels = {(2, 3), (3, 3), (3, 4), (4, 4)}
        labels = np.full((5, 5), -1)
        boundary = np.zeros((5, 5), dtype=bool)
        for r, c in pixels:
            labels[r, c] = 0
        boundary[2, 3] = boundary[4, 4] = True
        image = LabelImage(labels, boundary, source_sample="s1")
        comp = ComponentRecord(image, 0)
        assert comp.image is image
        assert comp.image.count == 1 and comp.image.shape == (5, 5)
        assert comp.id == 0 and comp.source_sample == "s1"
        assert comp.is_false_positive is None
        assert comp.pixels == pixels and comp.bbox == (2, 4, 3, 4)
        assert comp.boundary == {(2, 3), (4, 4)}
        assert comp.interior == {(3, 3), (3, 4)}
        assert (comp.size, comp.boundary_size, comp.interior_size) == (4, 2, 2)

    def test_id_outside_the_image_rejected(self):
        image = label_image(np.eye(3, dtype=bool))
        for bad in (-1, 1):
            with pytest.raises(ValueError, match="not in an image of 1"):
                ComponentRecord(image, bad)

    def test_views_share_their_label_image(self):
        image = label_image(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
        comps = image.records()
        assert comps and all(c.image is image for c in comps)
        assert [c.id for c in comps] == list(range(image.count))

    def test_label_image_leaves_caller_labels_writeable(self):
        labels = np.array([[0, -1], [-1, 1]], dtype=np.int32)
        image = LabelImage(labels, labels >= 0)
        labels[0, 1] = 0
        assert image.labels[0, 1] == -1
        assert not image.labels.flags.writeable


class TestIoU:
    def mask_with_ood(self, ood_pixels, dims=(4, 4)):
        labels = np.zeros(dims, dtype=np.uint8)
        for r, c in ood_pixels:
            labels[r, c] = OOD_LABEL
        return LabelMask(labels)

    def comp_of(self, pixels, dims):
        comps = connected_components(pixels, dims)
        assert len(comps) == 1
        return comps[0]

    def test_exact_match_is_one(self):
        pixels = {(1, 1), (1, 2)}
        comp = self.comp_of(pixels, (4, 4))
        assert component_iou(comp, self.mask_with_ood(pixels)) == 1.0

    def test_disjoint_is_zero(self):
        comp = self.comp_of({(0, 0)}, (4, 4))
        assert component_iou(comp, self.mask_with_ood({(3, 3)})) == 0.0

    def test_partial_overlap(self):
        comp = self.comp_of({(0, 0), (0, 1)}, (4, 4))
        mask = self.mask_with_ood({(0, 1), (0, 2)})
        assert component_iou(comp, mask) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_ignore_pixels_count_as_non_ood(self):
        labels = np.zeros((2, 2), dtype=np.uint8)
        labels[0, 0] = IGNORE_LABEL
        comp = self.comp_of({(0, 0)}, (2, 2))
        assert component_iou(comp, LabelMask(labels)) == 0.0

    def test_bbox_outside_mask_rejected(self):
        comp = self.comp_of({(3, 3)}, (4, 4))
        with pytest.raises(ValueError, match="outside"):
            component_iou(comp, self.mask_with_ood(set(), dims=(2, 2)))


class TestLabeling:
    def test_any_overlap_is_true_positive(self):
        # One shared pixel out of a large component still flips the label.
        pixels = {(r, c) for r in range(4) for c in range(4)}
        comps = connected_components(pixels, (8, 8))
        labels = np.zeros((8, 8), dtype=np.uint8)
        labels[0, 0] = OOD_LABEL
        labeled = label_components(comps, LabelMask(labels))
        assert labeled[0].is_false_positive is False

    def test_zero_overlap_is_false_positive(self):
        comps = connected_components({(0, 0)}, (4, 4))
        labels = np.zeros((4, 4), dtype=np.uint8)
        labels[3, 3] = OOD_LABEL
        labeled = label_components(comps, LabelMask(labels))
        assert labeled[0].is_false_positive is True

    def test_label_starts_unset(self):
        comps = connected_components({(0, 0)}, (2, 2))
        assert comps[0].is_false_positive is None

    def test_extract_pipeline(self):
        scores = np.zeros((5, 5))
        scores[0:2, 0:2] = 0.9  # overlaps ground truth
        scores[4, 4] = 0.9  # does not
        labels = np.zeros((5, 5), dtype=np.uint8)
        labels[0, 0] = OOD_LABEL
        comps = extract_labeled_components(
            ScoreMap(scores), LabelMask(labels), ThresholdConfig(0.7)
        )
        assert [c.is_false_positive for c in comps] == [False, True]

    def test_extract_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mask is"):
            extract_labeled_components(
                ScoreMap(np.zeros((2, 2))),
                LabelMask(np.zeros((3, 3), dtype=np.uint8)),
                ThresholdConfig(0.5),
            )

    def test_source_sample_propagates(self):
        comps = connected_components({(0, 0)}, (2, 2), source_sample="img_7")
        assert comps[0].source_sample == "img_7"
