"""Tests for component metric extraction and the metrics dataset.

The vectorized extraction is cross-checked against `reference_row`, the
former per-component implementation kept here as an oracle, with exact
array equality: the CSV contract needs the same bits, not just close
values.  The bulk CSV codec is checked the same way against
`reference_save`/`reference_load`, the former value-by-value writer and
reader.
"""

import csv
import math
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from pixel_sets import pixel_sets
from sample_dirs import iid_sample, loaded_samples

from metaseg import raster
from metaseg.features import (
    MetricsDataset,
    StandardizationStats,
    _labeled_rows,
    _streamed_fields,
    build_metrics_dataset,
    load_metrics_csv,
    metric_names,
    save_metrics_csv,
    standardize,
)
from metaseg.raster import (
    LabelMask, ProbabilityMap, Sample, iter_sample_files, save_samples,
)
from metaseg.scoring import anomaly_score_map
from metaseg.segments import ThresholdConfig, label_image
from metaseg.synth import SceneSpec, generate


def sample_of(pmap, sample_id="s"):
    """`pmap` as a sample whose mask labels every pixel class 0."""
    return Sample(sample_id, pmap, LabelMask(np.zeros(pmap.values.shape[:2], np.uint8)))


def block_sample(dims, c, *blocks):
    """Uniform probabilities (score 1.0) inside each filled rectangle
    (rmin, rmax, cmin, cmax), one-hot on class 0 (score 0.0) outside, so
    that each rectangle apart from the others is one hot component with a
    cold ring."""
    probs = np.zeros((*dims, c))
    probs[..., 0] = 1.0
    for rmin, rmax, cmin, cmax in blocks:
        probs[rmin:rmax + 1, cmin:cmax + 1] = 1.0 / c
    return sample_of(ProbabilityMap(probs))


def whole_array_margin(values):
    part = np.partition(values, values.shape[-1] - 2, axis=-1)
    return part[..., -1] - part[..., -2]


def reference_fields(pmap, score, threshold):
    """The per-pixel fields as the whole-array expressions that the
    block-wise kernels replace."""
    return {
        "ent": score.scores,
        "vr": 1.0 - pmap.values.max(axis=-1),
        "margin": whole_array_margin(pmap.values),
        "maxprob": pmap.values.max(axis=-1),
        "probs": pmap.values,
        "dims": (pmap.height, pmap.width),
        "threshold": float(threshold),
    }


def _reference_dispersion(field, all_ix, in_ix, bd_ix):
    vals = field[all_ix]
    mean_all = float(vals.mean())
    var_all = float(vals.var())
    if in_ix[0].size:
        iv = field[in_ix]
        mean_in, var_in = float(iv.mean()), float(iv.var())
    else:
        mean_in, var_in = mean_all, var_all
    bv = field[bd_ix]
    mean_bd, var_bd = float(bv.mean()), float(bv.var())
    return [
        mean_all, mean_in, mean_bd, var_all, var_in, var_bd,
        mean_bd / (mean_in + 1e-9), mean_bd - mean_in,
    ]


def _reference_index(pixels):
    pts = sorted(pixels)
    rows = np.array([p[0] for p in pts], dtype=np.intp)
    cols = np.array([p[1] for p in pts], dtype=np.intp)
    return rows, cols


def reference_row(sets, fields):
    """One component's metric row the straightforward way, from its
    (pixels, boundary, interior) sets: sorted pixel lists, one 1-d
    reduction per statistic and a full-image dilation for the ring."""
    pixels, boundary, interior = sets
    h, w = fields["dims"]
    rows, cols = zip(*pixels)
    rmin, rmax, cmin, cmax = min(rows), max(rows), min(cols), max(cols)
    all_ix = _reference_index(pixels)
    bd_ix = _reference_index(boundary)
    in_ix = _reference_index(interior)

    out = []
    for name in ("ent", "vr", "margin"):
        out.extend(_reference_dispersion(fields[name], all_ix, in_ix, bd_ix))

    s = float(len(pixels))
    s_in = float(len(interior))
    s_bd = float(len(boundary))
    out.extend([
        s, s_in, s_bd, s_bd / s, float(np.sqrt(s)),
        float(all_ix[0].mean()) / h, float(all_ix[1].mean()) / w,
        s / ((rmax - rmin + 1) * (cmax - cmin + 1)),
    ])

    cprobs = fields["probs"][all_ix]
    for c in range(cprobs.shape[1]):
        out.extend([float(cprobs[:, c].mean()), float(cprobs[:, c].var())])

    grid = np.zeros((h, w), dtype=bool)
    grid[all_ix] = True
    pad = np.pad(grid, 1, constant_values=False)
    dilated = np.zeros_like(pad)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            dilated |= np.roll(np.roll(pad, dr, axis=0), dc, axis=1)
    ring_ix = np.nonzero(dilated[1:-1, 1:-1] & ~grid)
    if ring_ix[0].size:
        ent_ring = fields["ent"][ring_ix]
        out.extend([
            float(ent_ring.mean()),
            float(fields["maxprob"][ring_ix].mean()),
            float(np.mean(ent_ring >= fields["threshold"])),
            ring_ix[0].size / s_bd,
            float(fields["margin"][ring_ix].mean()),
        ])
    else:
        out.extend([0.0, 0.0, 0.0, 0.0, 0.0])
    return np.array(out, dtype=np.float64)


def assert_rows_match_reference(samples, t=0.7):
    names = metric_names(samples[0].pmap.num_classes)
    ds = build_metrics_dataset(samples, ThresholdConfig(t))
    want, labels = [], []
    for sample in samples:
        score = anomaly_score_map(sample.pmap)
        fields = reference_fields(sample.pmap, score, t)
        image = label_image(score.scores >= t, ood=sample.mask.is_ood())
        for sets, fp in zip(pixel_sets(image), image.is_false_positive.tolist()):
            want.append(reference_row(sets, fields))
            labels.append(fp)
    want = np.array(want).reshape(-1, len(names))
    assert np.array_equal(ds.rows, want)
    assert ds.labels.tolist() == labels
    return ds


class TestMatchesReferenceRow:
    """Exact equality with the per-component oracle."""

    def test_iid_scene_with_a_thousand_components(self):
        sample = iid_sample(128, 176, 6, 0.3, seed=211)
        ds = assert_rows_match_reference([sample])
        named = dict(zip(ds.names, ds.rows.T))
        assert len(ds) >= 1000
        # Single-pixel components, whose interior falls back to the whole
        # component, and components past numpy's 8-way unrolled sum.
        assert (named["size"] == 1).any() and (named["size_in"] == 0).any()
        assert named["size"].max() >= 9
        # Components touching each image edge.
        assert (named["center_row"] < 1 / 128).any()
        assert (named["center_col"] < 1 / 176).any()

    def test_large_blobs(self):
        samples = [iid_sample(40, 50, 4, 0.62, seed=s, sample_id=f"b{s}")
                   for s in (3, 5)]
        ds = assert_rows_match_reference(samples)
        assert ds.rows[:, ds.names.index("size")].max() > 128

    def test_component_covering_the_whole_image(self):
        sample = iid_sample(6, 7, 5, 1.0, seed=223)
        ds = assert_rows_match_reference([sample])
        assert len(ds) == 1
        assert ds.rows[0, -5:].tolist() == [0.0] * 5

    def test_edge_touching_components(self):
        sample = iid_sample(12, 14, 3, 0.3, seed=233)
        probs = sample.pmap.values.copy()
        probs[[0, -1], :, :] = 1.0 / 3
        probs[:, [0, -1], :] = 1.0 / 3
        edge = Sample("edge", ProbabilityMap(probs), sample.mask)
        ds = assert_rows_match_reference([edge])
        assert ds.rows[0, ds.names.index("size")] >= 2 * (12 + 14) - 4

    def test_extract_metrics_matches_reference(self):
        # The per-sample step that the dataset and the false-positive
        # removal share: its label image, its score field (which the
        # removal zeroes and returns) and its rows.
        sample = iid_sample(30, 40, 4, 0.4, seed=239)
        score = anomaly_score_map(sample.pmap)
        fields = reference_fields(sample.pmap, score, 0.7)
        image, got_fields, rows = _labeled_rows(sample, 0.7)
        assert got_fields["ent"].tobytes() == score.scores.tobytes()
        assert np.array_equal(image.labels, label_image(score.scores >= 0.7).labels)
        assert rows.shape == (image.count, len(metric_names(4))) and image.count > 7
        for k, sets in enumerate(pixel_sets(image)):
            assert np.array_equal(rows[k], reference_row(sets, fields))


class TestSampleFields:
    """The fields of a loaded map, walked in the blocks of its sample's
    `probability_blocks`, against the whole-array expressions, bit for
    bit, on maps wider than one block whose last block is partial."""

    @pytest.mark.parametrize("c", [2, 19])
    @pytest.mark.parametrize("block", [None, 5])
    def test_fields_match_whole_array(self, c, block, monkeypatch):
        # Blocks of `block` pixels, or of the default size.
        if block is not None:
            monkeypatch.setattr(raster, "_BLOCK_VALUES", block * c)
        h, w = 2, raster._BLOCK_VALUES // c + 3
        rng = np.random.default_rng(c)
        raw = rng.random((h, w, c)) ** 4 + 1e-9
        raw[0, : w // 3] = 0.0
        raw[0, : w // 3, c - 1] = 1.0
        raw[1, : w // 3] = 1.0 + 1e-6 * rng.standard_normal((w // 3, c))
        pmap = ProbabilityMap(raw / raw.sum(axis=2, keepdims=True))
        score = anomaly_score_map(pmap)
        blocks = Sample("s", pmap, LabelMask(np.zeros((h, w), np.uint8))
                        ).probability_blocks()
        dims = next(blocks)
        assert dims == (h, w, c)
        got, _, _ = _streamed_fields(blocks, dims, 0.7)
        want = reference_fields(pmap, score, 0.7)
        for name in ("ent", "margin", "maxprob"):
            assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("c", [2, 19])
    @pytest.mark.parametrize("step", [1, 7, 4099])
    def test_streamed_fields_match_whole_array(self, c, step):
        # Blocks of any size, the last one partial, give the fields of the
        # whole map bit for bit, and the hot pixels with their classes.
        h, w = 3, 2053
        rng = np.random.default_rng(c + step)
        raw = rng.random((h, w, c)) ** rng.uniform(0.2, 4.0, (h, w, 1)) + 1e-9
        pmap = ProbabilityMap(raw / raw.sum(axis=2, keepdims=True))
        score = anomaly_score_map(pmap)
        pixels = pmap.values.reshape(-1, c)
        blocks = (pixels[lo : lo + step] for lo in range(0, h * w, step))
        t = float(np.median(score.scores))
        got, hot_pixels, hot_probs = _streamed_fields(blocks, (h, w, c), t)
        want = reference_fields(pmap, score, t)
        for name in ("ent", "margin", "maxprob"):
            assert got[name].tobytes() == want[name].tobytes(), name
        assert np.array_equal(hot_pixels, np.flatnonzero(score.scores >= t))
        assert hot_probs.flags.c_contiguous
        assert hot_probs.tobytes() == pixels[hot_pixels].T.tobytes(order="C")


class TestNeighborHotFraction:
    def test_zero_for_thresholded_components(self):
        # The ring of a maximal 8-connected component never reaches the
        # threshold: such a pixel would belong to the component.
        samples = [iid_sample(40, 60, 5, 0.45, seed=251)]
        for t, spec_samples in ((0.7, samples), (0.5, small_scene_set())):
            names = metric_names(spec_samples[0].pmap.num_classes)
            ds = build_metrics_dataset(spec_samples, ThresholdConfig(t))
            assert len(ds) > 0
            assert (ds.rows[:, names.index("nb_hot_frac")] == 0.0).all()


class TestMetricNames:
    def test_counts(self):
        assert len(metric_names(19)) == 75
        assert len(metric_names(2)) == 41
        assert len(metric_names(150)) == 337
        with pytest.raises(ValueError, match="num_classes >= 2"):
            metric_names(1)

    def test_layout_order(self):
        names = metric_names(2)
        assert names[0] == "ent_mean"
        assert names[:8] == (
            "ent_mean", "ent_mean_in", "ent_mean_bd", "ent_var",
            "ent_var_in", "ent_var_bd", "ent_bd_in_ratio", "ent_bd_in_diff",
        )
        assert names[8] == "vr_mean"
        assert names[16] == "margin_mean"
        assert names[24:32] == (
            "size", "size_in", "size_bd", "size_bd_frac", "size_sqrt",
            "center_row", "center_col", "bbox_fill",
        )
        assert names[32:36] == ("cls0_mean", "cls0_var", "cls1_mean", "cls1_var")
        assert names[36:] == (
            "nb_ent_mean", "nb_maxprob_mean", "nb_hot_frac",
            "nb_ring_bd_ratio", "nb_margin_mean",
        )

    def test_names_unique(self):
        for c in (2, 19, 150):
            names = metric_names(c)
            assert len(set(names)) == len(names)


class TestExtractMetrics:
    """The rows of filled rectangles, each the only hot component of its
    part of the image, as `build_metrics_dataset` gives them; every row is
    also judged by the per-component oracle."""

    def block_row(self, sample, t=0.7):
        """The named metrics of the one component of `sample`."""
        ds = assert_rows_match_reference([sample], t)
        assert len(ds) == 1
        return dict(zip(ds.names, ds.rows[0]))

    def test_uniform_block_dispersion_and_geometry(self):
        m = self.block_row(block_sample((10, 10), 4, (1, 3, 1, 3)))

        assert m["ent_mean"] == pytest.approx(1.0, abs=1e-12)
        assert m["ent_var"] == pytest.approx(0.0, abs=1e-15)
        assert m["vr_mean"] == pytest.approx(0.75, abs=1e-12)
        assert m["margin_mean"] == pytest.approx(0.0, abs=1e-12)
        assert m["ent_bd_in_diff"] == pytest.approx(0.0, abs=1e-12)

        assert m["size"] == 9.0
        assert m["size_in"] == 1.0
        assert m["size_bd"] == 8.0
        assert m["size_bd_frac"] == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert m["size_sqrt"] == pytest.approx(3.0, abs=1e-12)
        assert m["center_row"] == pytest.approx(0.2, abs=1e-12)
        assert m["center_col"] == pytest.approx(0.2, abs=1e-12)
        assert m["bbox_fill"] == 1.0

        for c in range(4):
            assert m[f"cls{c}_mean"] == pytest.approx(0.25, abs=1e-12)
            assert m[f"cls{c}_var"] == pytest.approx(0.0, abs=1e-15)

    def test_uniform_block_neighborhood(self):
        m = self.block_row(block_sample((10, 10), 4, (1, 3, 1, 3)), 0.7)
        # Ring is the 5x5 dilation minus the 3x3 block: 16 one-hot pixels.
        assert m["nb_ring_bd_ratio"] == pytest.approx(2.0, abs=1e-12)
        assert m["nb_ent_mean"] == 0.0
        assert m["nb_maxprob_mean"] == 1.0
        assert m["nb_hot_frac"] == 0.0
        assert m["nb_margin_mean"] == 1.0

    def test_full_image_component_has_empty_ring(self):
        m = self.block_row(block_sample((3, 3), 4, (0, 2, 0, 2)))
        for name in (
            "nb_ent_mean", "nb_maxprob_mean", "nb_hot_frac",
            "nb_ring_bd_ratio", "nb_margin_mean",
        ):
            assert m[name] == 0.0

    def test_single_pixel_interior_fallback(self):
        m = self.block_row(block_sample((5, 5), 4, (2, 2, 2, 2)))
        assert m["size"] == 1.0
        assert m["size_in"] == 0.0
        assert m["size_bd"] == 1.0
        # Interior statistics fall back to whole-component statistics.
        assert m["ent_mean_in"] == m["ent_mean"]
        assert m["ent_var_in"] == m["ent_var"]
        assert np.isfinite(list(m.values())).all()

    def test_translation_moves_only_centroid(self):
        names = metric_names(3)
        ma = self.block_row(block_sample((12, 12), 3, (1, 3, 1, 3)))
        mb = self.block_row(block_sample((12, 12), 3, (5, 7, 7, 9)))
        for name in names:
            if name in ("center_row", "center_col"):
                continue
            assert ma[name] == pytest.approx(mb[name], abs=1e-12), name
        assert ma["center_row"] == pytest.approx(2.0 / 12.0, abs=1e-12)
        assert mb["center_row"] == pytest.approx(6.0 / 12.0, abs=1e-12)
        assert mb["center_col"] == pytest.approx(8.0 / 12.0, abs=1e-12)

    def test_rows_follow_component_ids(self):
        # Two separate rectangles in one image give, in id (raster) order,
        # the rows each gets as the only component of its own image.
        blocks = [(1, 3, 1, 3), (5, 7, 7, 9)]
        cfg = ThresholdConfig()
        rows = build_metrics_dataset([block_sample((12, 12), 3, *blocks)], cfg).rows
        for row, block in zip(rows, blocks, strict=True):
            one = build_metrics_dataset([block_sample((12, 12), 3, block)], cfg).rows
            assert np.array_equal(row, one[0])

    def test_image_without_components(self):
        ds = build_metrics_dataset([block_sample((4, 5), 3)], ThresholdConfig())
        assert ds.rows.shape == (0, len(metric_names(3)))

    @pytest.mark.parametrize("c", [2, 5, 19])
    def test_rows_as_wide_as_the_names(self, c):
        sample = iid_sample(20, 24, c, 0.4, seed=c)
        score = anomaly_score_map(sample.pmap).scores
        cfg, width = ThresholdConfig(0.7), len(metric_names(c))
        count = label_image(score >= cfg.t).count
        assert count > 0
        assert build_metrics_dataset([sample], cfg).rows.shape == (count, width)
        empty = build_metrics_dataset([block_sample((20, 24), c)], cfg)
        assert empty.rows.shape == (0, width)

    def test_nonuniform_field_statistics(self):
        # Two-pixel component with distinct scores: check mean/var by hand.
        # Pixel (0, 0) scores 0.469, so the threshold is below it.
        arr = np.zeros((1, 2, 2))
        arr[0, 0] = [0.9, 0.1]
        arr[0, 1] = [0.6, 0.4]
        pmap = ProbabilityMap(arr)
        score = anomaly_score_map(pmap)
        m = self.block_row(sample_of(pmap), 0.4)
        s = score.scores[0]
        assert m["ent_mean"] == pytest.approx(s.mean(), abs=1e-12)
        assert m["ent_var"] == pytest.approx(s.var(), abs=1e-12)
        assert m["vr_mean"] == pytest.approx(0.25, abs=1e-12)
        assert m["margin_mean"] == pytest.approx(0.5, abs=1e-12)
        assert m["cls0_mean"] == pytest.approx(0.75, abs=1e-12)
        assert m["cls0_var"] == pytest.approx(0.0225, abs=1e-12)

    @pytest.mark.parametrize("t", [0.5, 0.7])
    def test_sample_file_gives_the_same_bytes(self, tmp_path, monkeypatch, t):
        # A loaded sample, walked in blocks of the default size, and its
        # file, walked in blocks that split the image anywhere.
        save_samples(small_scene_set(count=3, seed=263), tmp_path)
        cfg = ThresholdConfig(t)
        want = [build_metrics_dataset([sample], cfg).rows
                for sample in loaded_samples(tmp_path)]
        monkeypatch.setattr(raster, "_BLOCK_VALUES", 4099)
        files = list(iter_sample_files(tmp_path))
        for sample_file, rows in zip(files, want, strict=True):
            got = build_metrics_dataset([sample_file], cfg).rows
            assert got.tobytes() == rows.tobytes()
        assert sum(len(rows) for rows in want) > 3

    def test_rows_concatenate_to_the_dataset(self):
        samples = list(small_scene_set(count=3, seed=269)) + [
            iid_sample(40, 50, 5, 0.3, seed=271, sample_id="iid")
        ]
        cfg = ThresholdConfig(0.7)
        ds = build_metrics_dataset(samples, cfg)
        rows = [build_metrics_dataset([sample], cfg).rows for sample in samples]
        assert len(ds) > 20
        assert np.concatenate(rows).tobytes() == ds.rows.tobytes()


class TestMetricsDataset:
    def toy(self):
        names = ["m0", "m1", "m2"]
        rows = np.arange(12, dtype=np.float64).reshape(4, 3)
        labels = np.array([True, False, True, False])
        groups = ("a", "a", "b", "c")
        return MetricsDataset(rows, labels, groups, names)

    def test_subset_preserves_order(self):
        ds = self.toy()
        sub = ds.subset([2, 0])
        np.testing.assert_array_equal(sub.rows[0], ds.rows[2])
        assert sub.group_ids == ("b", "a")
        assert list(sub.labels) == [True, True]

    def test_select_metrics(self):
        ds = self.toy()
        sel = ds.select_metrics([2, 0])
        assert sel.names == ("m2", "m0")
        np.testing.assert_array_equal(sel.rows, ds.rows[:, [2, 0]])

    def test_shape_validation(self):
        names = ["m0", "m1"]
        with pytest.raises(ValueError, match="rows must be"):
            MetricsDataset(np.zeros((2, 3)), [True, False], ("a", "b"), names)
        with pytest.raises(ValueError, match="equal length"):
            MetricsDataset(np.zeros((2, 2)), [True], ("a", "b"), names)

    def test_non_finite_rejected(self):
        names = ["m0"]
        with pytest.raises(ValueError, match="finite"):
            MetricsDataset(np.array([[np.nan]]), [True], ("a",), names)

    def test_names_kept_as_a_tuple(self):
        ds = MetricsDataset(np.zeros((1, 2)), [True], ("a",), ["x", "y"])
        assert ds.names == ("x", "y") and ds.num_metrics == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            MetricsDataset(np.zeros((1, 2)), [True], ("a",), ["m", "m"])
        with pytest.raises(ValueError, match="at least one metric"):
            MetricsDataset(np.zeros((1, 0)), [True], ("a",), [])


class TestCallerArraysStayWriteable:
    def test_metrics_dataset(self):
        rows, labels = np.zeros((2, 2)), np.array([True, False])
        ds = MetricsDataset(rows, labels, ("a", "b"), ["x", "y"])
        rows[0, 0] = 5.0
        labels[0] = False
        assert ds.rows[0, 0] == 0.0 and ds.labels[0]
        assert not (ds.rows.flags.writeable or ds.labels.flags.writeable)

    def test_standardization_stats(self):
        mean, sigma = np.zeros(2), np.ones(2)
        stats = StandardizationStats(mean, sigma)
        mean[0], sigma[0] = 3.0, 2.0
        assert stats.mean[0] == 0.0 and stats.sigma[0] == 1.0
        assert not (stats.mean.flags.writeable or stats.sigma.flags.writeable)


class TestStandardize:
    def test_known_column(self):
        names = ["m0"]
        ds = MetricsDataset(
            np.array([[0.0], [2.0], [4.0]]), [0, 1, 0], ("a", "b", "c"), names
        )
        out, stats = standardize(ds)
        np.testing.assert_allclose(
            out.rows[:, 0], [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-12
        )
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.sigma[0] == pytest.approx(1.632993161855452, abs=1e-12)

    def test_zero_variance_column_unchanged(self):
        names = ["m0", "m1"]
        rows = np.array([[5.0, 1.0], [5.0, 3.0]])
        ds = MetricsDataset(rows, [0, 1], ("a", "b"), names)
        out, stats = standardize(ds)
        np.testing.assert_array_equal(out.rows[:, 0], [5.0, 5.0])
        assert stats.mean[0] == 0.0 and stats.sigma[0] == 1.0

    def test_standardized_moments(self):
        rng = np.random.default_rng(67)
        names = [f"m{i}" for i in range(4)]
        ds = MetricsDataset(
            rng.normal(3.0, 2.5, size=(50, 4)),
            rng.random(50) < 0.5,
            tuple(f"g{i}" for i in range(50)),
            names,
        )
        out, _ = standardize(ds)
        np.testing.assert_allclose(out.rows.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.rows.std(axis=0), 1.0, atol=1e-12)

    def test_stats_apply_to_held_out_rows(self):
        names = ["m0"]
        ds = MetricsDataset(np.array([[0.0], [2.0]]), [0, 1], ("a", "b"), names)
        _, stats = standardize(ds)
        np.testing.assert_allclose(stats.apply(np.array([[4.0]])), [[3.0]])

    def test_one_row_gets_identity_statistics(self):
        # Every column of one row has zero variance, so the row keeps its
        # bits, its -0.0 included.
        row = np.array([[1.5, -0.0, -2.25, 0.0]])
        ds = MetricsDataset(row, [1], ("a",), ["m0", "m1", "m2", "m3"])
        out, stats = standardize(ds)
        assert stats.mean.tobytes() == np.zeros(4).tobytes()
        assert stats.sigma.tobytes() == np.ones(4).tobytes()
        assert out.rows.tobytes() == row.tobytes()

    def test_zero_rows_rejected(self):
        ds = MetricsDataset(np.zeros((0, 1)), np.zeros(0, dtype=bool), (), ["m0"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty dataset"):
                standardize(ds)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            StandardizationStats(np.zeros(2), np.array([1.0, 0.0]))


def small_scene_set(count=4, seed=101):
    spec = SceneSpec(
        dims=(32, 32),
        num_classes=5,
        blob_count=(1, 2),
        blob_size=(4, 7),
        false_blob_rate=1.5,
        seed=seed,
    )
    return generate(spec, count)


class TestBuildDataset:
    def test_rows_follow_sample_then_component_order(self):
        samples = small_scene_set()
        ds = build_metrics_dataset(samples, ThresholdConfig(0.7))
        assert len(ds) > 0
        # group ids appear in sample order, contiguously
        seen = []
        for g in ds.group_ids:
            if not seen or seen[-1] != g:
                seen.append(g)
        assert seen == [s.id for s in samples if s.id in seen]

    def test_deterministic_rebuild(self):
        samples = small_scene_set()
        a = build_metrics_dataset(samples, ThresholdConfig(0.7))
        b = build_metrics_dataset(samples, ThresholdConfig(0.7))
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.group_ids == b.group_ids

    def test_repeated_sample_id_rejected(self):
        # Rows are grouped by sample id, so a repeated id would put two
        # scenes in one leave-one-out fold.
        first, second = small_scene_set(count=2)
        twin = Sample(first.id, second.pmap, second.mask)
        with pytest.raises(ValueError, match="'scene_0000' is repeated"):
            build_metrics_dataset([first, twin], ThresholdConfig(0.7))

    def test_class_mismatch_rejected(self):
        # The first sample sets C; a later one with another C is refused
        # before its first block is read.
        mixed = [
            iid_sample(12, 16, 5, 0.3, seed=277, sample_id="c5"),
            iid_sample(12, 16, 7, 0.3, seed=281, sample_id="c7"),
        ]
        with pytest.raises(ValueError, match="sample 'c7' has C=7, the first sample has C=5"):
            build_metrics_dataset(mixed, ThresholdConfig(0.7))

    def test_class_mismatch_rejected_on_threads(self, monkeypatch):
        # The class count is the first sample's before any sample goes to
        # a thread, so no timing lets the C=7 sample through.
        monkeypatch.setattr(raster, "_THREAD_MIN_VALUES", 0)
        monkeypatch.setenv("METASEG_THREADS", "2")
        mixed = [
            iid_sample(12, 16, 5, 0.3, seed=277, sample_id="c5"),
            iid_sample(12, 16, 7, 0.3, seed=281, sample_id="c7"),
        ]
        for _ in range(20):
            with pytest.raises(ValueError, match="sample 'c7' has C=7, the first sample has C=5"):
                build_metrics_dataset(mixed, ThresholdConfig(0.7))

    def test_high_threshold_gives_empty_dataset(self):
        samples = small_scene_set()
        ds = build_metrics_dataset(samples, ThresholdConfig(1.0))
        assert len(ds) == 0
        assert ds.rows.shape == (0, 75 - 2 * (19 - 5))


class TestStreamedBuild:
    """`build_metrics_dataset` fed one sample at a time from a directory."""

    def watch_loads(self, monkeypatch):
        """Count, at every map load, the earlier maps still alive."""
        refs, alive = [], []
        load = raster.load_probability_map

        def watched(path):
            alive.append(sum(ref() is not None for ref in refs))
            pmap = load(path)
            refs.append(weakref.ref(pmap.values))
            return pmap

        monkeypatch.setattr(raster, "load_probability_map", watched)
        return refs, alive

    def test_holds_one_map_at_a_time(self, tmp_path, monkeypatch):
        save_samples(small_scene_set(), tmp_path)
        cfg = ThresholdConfig(0.7)
        want = build_metrics_dataset(list(loaded_samples(tmp_path)), cfg)
        refs, alive = self.watch_loads(monkeypatch)
        got = build_metrics_dataset(loaded_samples(tmp_path), cfg)
        assert alive == [0, 0, 0, 0]
        assert all(ref() is None for ref in refs)
        assert len(got) > 0 and got.names == want.names
        assert got.rows.tobytes() == want.rows.tobytes()
        assert np.array_equal(got.labels, want.labels)
        assert got.group_ids == want.group_ids

    def test_holds_one_map_per_thread(self, tmp_path, monkeypatch):
        # With every map on a thread, a map is loaded while at most one
        # per other worker is still in work or waiting.
        monkeypatch.setattr(raster, "_THREAD_MIN_VALUES", 0)
        monkeypatch.setenv("METASEG_THREADS", "2")
        save_samples(small_scene_set(), tmp_path)
        cfg = ThresholdConfig(0.7)
        want = build_metrics_dataset(list(loaded_samples(tmp_path)), cfg)
        refs, alive = self.watch_loads(monkeypatch)
        got = build_metrics_dataset(loaded_samples(tmp_path), cfg)
        assert len(alive) == 4 and max(alive) <= raster.worker_count() - 1
        assert all(ref() is None for ref in refs)
        assert len(got) > 0 and got.names == want.names
        assert got.rows.tobytes() == want.rows.tobytes()
        assert np.array_equal(got.labels, want.labels)
        assert got.group_ids == want.group_ids

    def test_files_match_loaded_samples(self, tmp_path, monkeypatch):
        # Walked from their files, in blocks that split the images
        # anywhere, the samples give the rows of their loaded maps, walked
        # in blocks of the default size.
        save_samples([
            iid_sample(70, 90, 6, 0.3, seed=s, sample_id=f"f{s}") for s in (241, 243)
        ], tmp_path)
        cfg = ThresholdConfig(0.7)
        want = build_metrics_dataset(list(loaded_samples(tmp_path)), cfg)
        monkeypatch.setattr(raster, "_BLOCK_VALUES", 4099)
        got = build_metrics_dataset(iter_sample_files(tmp_path), cfg)
        assert len(got) > 100 and got.names == want.names
        assert got.rows.tobytes() == want.rows.tobytes()
        assert np.array_equal(got.labels, want.labels)
        assert got.group_ids == want.group_ids

    def test_empty_stream_needs_a_registry(self):
        with pytest.raises(ValueError, match="no samples"):
            build_metrics_dataset(iter(()), ThresholdConfig(0.7))


def reference_save(dataset, path):
    """Value-by-value metrics CSV writer: each float through its own
    `f"{x:.9g}"`, every record through `csv.writer`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(dataset.names) + ["label", "group_id"])
        for row, label, group in zip(dataset.rows, dataset.labels, dataset.group_ids):
            writer.writerow([f"{v:.9g}" for v in row] + [str(int(label)), group])


def reference_load(path):
    """Record-by-record metrics CSV reader: rows, labels, group ids."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *records = (rec for rec in csv.reader(fh) if rec)
    n = len(header) - 2
    for rec in records:
        assert len(rec) == n + 2 and rec[n] in ("0", "1")
    rows = np.array([[float(v) for v in rec[:n]] for rec in records]).reshape(-1, n)
    labels = np.array([rec[n] == "1" for rec in records], dtype=bool)
    return rows, labels, tuple(rec[n + 1] for rec in records)


def _nine_digit_boundary(digits, exponent, ulps, sign):
    """A float at (or `ulps` ulps off) the midpoint between two 9-digit
    decimals, where `%.9g` must round the same way every time."""
    x = float(f"{sign}{digits}5e{exponent}")
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


csv_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
        1.7976931348623157e308, 1e-4, 9.9999999995e-5, 999999999.5, 9.9999999995,
    ]),
    st.builds(
        _nine_digit_boundary,
        st.integers(10**8, 10**9 - 1), st.integers(-330, 298),
        st.integers(-1, 1), st.sampled_from(["", "-"]),
    ),
)

csv_group_ids = st.one_of(
    st.text(
        st.sampled_from([",", '"', "#", "\n", "\r", " ", "a", "é", "€", "0"])
        | st.characters(
            exclude_categories=("Cs",),
            # The csv module before Python 3.11 refuses NUL, so the
            # oracles could not take it there.
            exclude_characters="\0" if sys.version_info < (3, 11) else "",
        ),
        max_size=8,
    ),
    st.sampled_from(["", " g", "g ", "a,b", 'q"x', "a#b", "#", "a\r\nb"]),
)


@st.composite
def csv_datasets(draw):
    n = draw(st.integers(1, 4))
    count = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(csv_floats, min_size=n, max_size=n),
                         min_size=count, max_size=count))
    return MetricsDataset(
        rows=np.array(rows, dtype=np.float64).reshape(count, n),
        labels=draw(st.lists(st.booleans(), min_size=count, max_size=count)),
        group_ids=draw(st.lists(csv_group_ids, min_size=count, max_size=count)),
        names=[f"m{i}" for i in range(n)],
    )


class TestCsvMatchesReference:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dataset=csv_datasets())
    def test_bytes_and_loaded_values_match(self, tmp_path, dataset):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_metrics_csv(dataset, got)
        reference_save(dataset, want)
        # Before Python 3.13, csv.writer leaves a "\r" unquoted in a field
        # that needs no quotes otherwise, and the id does not survive its
        # own round trip; see the next test.
        bare_cr = any("\r" in g and not any(c in g for c in ',"\n')
                      for g in dataset.group_ids)
        if sys.version_info >= (3, 13) or not bare_cr:
            assert got.read_bytes() == want.read_bytes()
        back = load_metrics_csv(got)
        rows, labels, groups = reference_load(got)
        assert back.rows.tobytes() == rows.tobytes()
        assert back.labels.tolist() == labels.tolist()
        assert back.group_ids == groups == dataset.group_ids

    def test_carriage_return_in_group_id_is_quoted(self, tmp_path):
        ds = MetricsDataset(np.zeros((3, 1)), [0, 1, 0], ("a\rb", "c\r", "d"),
                            ["m0"])
        path = tmp_path / "cr.csv"
        save_metrics_csv(ds, path)
        assert path.read_bytes() == b'm0,label,group_id\n0,0,"a\rb"\n0,1,"c\r"\n0,0,d\n'
        assert load_metrics_csv(path).group_ids == ds.group_ids

    def test_standard_registry_scenes(self, tmp_path):
        samples = small_scene_set()
        ds = build_metrics_dataset(samples, ThresholdConfig(0.7))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_metrics_csv(ds, got)
        reference_save(ds, want)
        assert got.read_bytes() == want.read_bytes()
        back = load_metrics_csv(got)
        rows, labels, groups = reference_load(got)
        assert back.rows.tobytes() == rows.tobytes()
        assert back.labels.tolist() == labels.tolist()
        assert back.group_ids == groups


class TestMetricsCsv:
    def test_round_trip_standard_registry(self, tmp_path):
        samples = small_scene_set()
        names = metric_names(5)
        ds = build_metrics_dataset(samples, ThresholdConfig(0.7))
        path = tmp_path / "mu.csv"
        save_metrics_csv(ds, path)
        back = load_metrics_csv(path)
        assert back.names == names
        np.testing.assert_allclose(back.rows, ds.rows, rtol=1e-8, atol=1e-12)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.group_ids == ds.group_ids

    def test_column_count_matches_names_plus_two(self, tmp_path):
        samples = small_scene_set()
        names = metric_names(5)
        ds = build_metrics_dataset(samples, ThresholdConfig(0.7))
        path = tmp_path / "mu.csv"
        save_metrics_csv(ds, path)
        header = path.read_text().splitlines()[0].split(",")
        assert len(header) == len(names) + 2
        assert header[-2:] == ["label", "group_id"]

    def test_save_is_deterministic_and_stable(self, tmp_path):
        samples = small_scene_set()
        ds = build_metrics_dataset(samples, ThresholdConfig(0.7))
        p1, p2, p3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        save_metrics_csv(ds, p1)
        save_metrics_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # A load/save cycle reproduces the same bytes: 9-digit floats
        # re-format to themselves.
        save_metrics_csv(load_metrics_csv(p1), p3)
        assert p1.read_bytes() == p3.read_bytes()

    def test_custom_registry_detected(self, tmp_path):
        names = ["alpha", "beta"]
        ds = MetricsDataset(
            np.array([[1.5, -2.25], [0.0, 3.125]]), [1, 0], ("g1", "g2"), names
        )
        path = tmp_path / "toy.csv"
        save_metrics_csv(ds, path)
        back = load_metrics_csv(path)
        assert back.names == ("alpha", "beta")
        np.testing.assert_array_equal(back.rows, ds.rows)

    def test_malformed_files_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_metrics_csv(bad)
        bad.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="label,group_id"):
            load_metrics_csv(bad)
        bad.write_text("m0,label,group_id\n1.0,1\n")
        with pytest.raises(ValueError, match="expected 3 fields"):
            load_metrics_csv(bad)

    def test_label_other_than_zero_or_one_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("m0,label,group_id\n1.0,1,g\n1.0,2,g\n")
        with pytest.raises(ValueError, match="bad.csv:3: label must be 0 or 1"):
            load_metrics_csv(bad)

    def test_unparseable_value_names_file_and_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("m0,m1,label,group_id\n1.0,abc,0,g\n")
        with pytest.raises(ValueError, match="bad.csv:2: .*'abc'"):
            load_metrics_csv(bad)

    def test_oversized_field_names_file_and_line(self, tmp_path):
        bad = tmp_path / "big.csv"
        bad.write_text("m0,label,group_id\n1.0,0,g\n" + "9" * 200_000 + ",0,g\n")
        with pytest.raises(ValueError, match="big.csv:3: field larger"):
            load_metrics_csv(bad)

    def test_line_counts_lines_of_multiline_fields(self, tmp_path):
        # The quoted group id spans lines 2-3, so the bad label is on line 4.
        bad = tmp_path / "bad.csv"
        bad.write_text('m0,label,group_id\n1,0,"a\nb"\n1,2,g\n')
        with pytest.raises(ValueError, match="bad.csv:4: label must be 0 or 1"):
            load_metrics_csv(bad)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(
        st.binary(max_size=80),
        st.tuples(
            st.sampled_from([b"m0,m1,label,group_id\n", b"m0,m0,label,group_id\n",
                             b"label,group_id\n", b"m0,label,group_id\r\n"]),
            st.lists(st.sampled_from([b"1", b"0", b"nan", b"1e400", b'"', b"x"])
                     | st.binary(max_size=6), max_size=12).map(b",".join),
        ).map(b"".join),
    ))
    def test_arbitrary_bytes_raise_only_value_errors(self, tmp_path, data):
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        try:
            load_metrics_csv(path)
        except ValueError:
            pass
