"""Tests for curve metrics, leave-one-out evaluation, metric ordering,
and reporting.

Curve metrics are cross-checked against brute-force oracles (pair
counting for AUROC, explicit threshold scans for AUPRC and FPR at 95%
TPR).  The least-angle-regression order is checked against a
correlation-sort oracle on orthogonalized designs, where the two must
agree exactly.
"""

import csv
import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metaseg import analysis, raster
from metaseg.analysis import (
    EvalReport,
    auprc,
    auroc,
    evaluate_components,
    evaluate_pixels,
    evaluate_scores,
    evaluate_with_curves,
    fpr_at_95_tpr,
    incremental_evaluation,
    lars_order,
    loo_scores,
    ood_fraction,
    save_curve_csv,
    save_report_csv,
    split_by_ood_fraction,
    svg_line_plot,
)
from metaseg.features import (
    MetricsDataset,
    StandardizationStats,
    build_metrics_dataset,
)
from metaseg.metaclf import HIDDEN_DIMS, MetaModel, MlpModel, TrainConfig
from metaseg.raster import IGNORE_LABEL, OOD_LABEL, LabelMask, ScoreMap
from metaseg.segments import ThresholdConfig
from metaseg.synth import SceneSpec, generate


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def auroc_by_pairs(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    wins = 0.0
    total = 0
    for i in range(s.size):
        if not y[i]:
            continue
        for j in range(s.size):
            if y[j]:
                continue
            total += 1
            if s[i] > s[j]:
                wins += 1.0
            elif s[i] == s[j]:
                wins += 0.5
    return wins / total


def curve_by_scan(scores, labels):
    """(recalls, precisions, fprs) over distinct descending thresholds."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    pos = int(y.sum())
    neg = s.size - pos
    rec, prec, fpr = [], [], []
    for t in sorted(set(s.tolist()), reverse=True):
        sel = s >= t
        tp = int((sel & y).sum())
        fp = int((sel & ~y).sum())
        rec.append(tp / pos)
        prec.append(tp / (tp + fp))
        fpr.append(fp / neg if neg else 0.0)
    return rec, prec, fpr


def ap_by_scan(scores, labels):
    rec, prec, _ = curve_by_scan(scores, labels)
    total = 0.0
    prev = 0.0
    for r, p in zip(rec, prec):
        total += (r - prev) * p
        prev = r
    return total


def fpr95_by_scan(scores, labels):
    rec, _, fpr = curve_by_scan(scores, labels)
    candidates = [f for r, f in zip(rec, fpr) if r >= 0.95]
    return min(candidates)


def auroc_by_rank_sum(scores, labels):
    """Mann-Whitney U from midranks: every run of tied scores shares the
    mean of its ranks.  U is held exactly, so the one division rounds
    once."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=bool).reshape(-1)
    pos = int(y.sum())
    neg = s.size - pos
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    ranks = np.empty(s.size, dtype=np.float64)
    i = 0
    while i < s.size:
        j = i
        while j < s.size and s_sorted[j] == s_sorted[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)
        i = j
    return float((ranks[y].sum() - pos * (pos + 1) / 2.0) / (pos * neg))


def rank_table_by_argsort(scores, labels):
    """(TP, FP) at each distinct descending score from one stable argsort
    and a cumulative sum of the permuted labels, plus the totals."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=bool).reshape(-1)
    pos = int(y.sum())
    order = np.argsort(-s, kind="stable")
    s = s[order]
    last = np.append(np.flatnonzero(s[1:] != s[:-1]), s.size - 1)
    tp = np.cumsum(y[order])[last]
    return tp, last + 1 - tp, pos, s.size - pos


def quantized_scores(rng, n, levels):
    """Float32 scores on a grid of `levels` values: ties everywhere, as in
    score maps stored at float32."""
    return (rng.integers(0, levels, size=n) / levels).astype(np.float32)


class TestCurveMetricValues:
    def test_auroc_known(self):
        assert auroc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == 0.75

    def test_auroc_perfect_and_inverted(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        assert auroc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_auroc_all_tied_is_half(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_auprc_known(self):
        assert auprc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(
            5.0 / 6.0, abs=1e-12
        )

    def test_auprc_single_positive_ranked_last(self):
        assert auprc([0.9, 0.8, 0.7, 0.6], [0, 0, 0, 1]) == 0.25

    def test_auprc_all_positives_first(self):
        assert auprc([0.9, 0.8, 0.2], [1, 1, 0]) == 1.0

    def test_fpr95_perfect_separation(self):
        assert fpr_at_95_tpr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 0.0

    def test_fpr95_positives_below_negatives(self):
        assert fpr_at_95_tpr([0.4, 0.3], [0, 1]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            auroc([0.5, 0.4], [0, 0])
        with pytest.raises(ValueError, match="negative"):
            auroc([0.5, 0.4], [1, 1])
        with pytest.raises(ValueError, match="equal-length"):
            auroc([0.5], [1, 0])
        with pytest.raises(ValueError, match="finite"):
            auroc([np.nan, 0.4], [1, 0])
        # AUPRC is defined without negatives.
        assert auprc([0.5, 0.4], [1, 1]) == 1.0


class TestCurveMetricOracles:
    def test_match_brute_force(self):
        rng = np.random.default_rng(107)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            # Coarse score grid makes ties common.
            s = rng.integers(0, 4, size=n) / 3.0
            y = rng.random(n) < 0.5
            if y.all() or not y.any():
                continue
            assert auroc(s, y) == pytest.approx(auroc_by_pairs(s, y), abs=1e-12)
            assert auprc(s, y) == pytest.approx(ap_by_scan(s, y), abs=1e-12)
            assert fpr_at_95_tpr(s, y) == pytest.approx(
                fpr95_by_scan(s, y), abs=1e-12
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(109)
        s = rng.random(40)
        y = rng.random(40) < 0.4
        y[0] = True
        y[1] = False
        for f in (np.exp, lambda v: 3 * v - 1, lambda v: v**3):
            assert auroc(f(s), y) == pytest.approx(auroc(s, y), abs=1e-12)
            assert auprc(f(s), y) == pytest.approx(auprc(s, y), abs=1e-12)
            assert fpr_at_95_tpr(f(s), y) == pytest.approx(
                fpr_at_95_tpr(s, y), abs=1e-12
            )

    def test_roc_points_start_at_origin_end_at_one(self):
        rng = np.random.default_rng(113)
        s = rng.random(30)
        y = rng.random(30) < 0.5
        y[0], y[1] = True, False
        _, (fpr, tpr), _ = evaluate_with_curves(s, y)
        assert (fpr[0], tpr[0]) == (0.0, 0.0)
        assert (fpr[-1], tpr[-1]) == (1.0, 1.0)
        assert (np.diff(fpr) >= 0).all() and (np.diff(tpr) >= 0).all()
        rec_o, _, fpr_o = curve_by_scan(s, y)
        np.testing.assert_allclose(fpr[1:], fpr_o, atol=1e-12)
        np.testing.assert_allclose(tpr[1:], rec_o, atol=1e-12)

    def test_pr_points_match_scan(self):
        rng = np.random.default_rng(127)
        s = rng.integers(0, 5, size=20) / 4.0
        y = rng.random(20) < 0.5
        y[0], y[1] = True, False
        _, _, (rec, prec) = evaluate_with_curves(s, y)
        rec_o, prec_o, _ = curve_by_scan(s, y)
        np.testing.assert_allclose(rec, rec_o, atol=1e-12)
        np.testing.assert_allclose(prec, prec_o, atol=1e-12)


class TestRankTableExact:
    """The count table must reproduce the midrank formula to the last
    bit, because report CSVs are compared byte for byte."""

    def test_auroc_equals_rank_sum_on_tied_float32_scores(self):
        rng = np.random.default_rng(137)
        for n, levels, prevalence in [
            (2, 1, 0.5), (17, 2, 0.3), (200, 5, 0.1), (1_000, 64, 0.5),
            (5_000, 1_000, 0.02), (20_000, 4_096, 0.7),
        ]:
            s = quantized_scores(rng, n, levels)
            y = rng.random(n) < prevalence
            y[0], y[1] = True, False
            assert auroc(s, y) == auroc_by_rank_sum(s, y)

    def test_auroc_equals_rank_sum_on_large_population(self):
        rng = np.random.default_rng(139)
        n = 150_000
        s = quantized_scores(rng, n, 20_000)
        y = rng.random(n) < s * 0.3
        assert auroc(s, y) == auroc_by_rank_sum(s, y)

    def test_evaluate_scores_equals_separate_metrics(self):
        rng = np.random.default_rng(149)
        for n, levels in [(2, 1), (50, 3), (3_000, 200), (100_000, 1_000)]:
            s = quantized_scores(rng, n, levels)
            y = rng.random(n) < 0.25
            y[0], y[1] = True, False
            report = evaluate_scores(s, y)
            assert report.auroc == auroc(s, y)
            assert report.auprc == auprc(s, y)
            assert report.fpr95 == fpr_at_95_tpr(s, y)
            assert (report.positives, report.negatives) == (
                int(y.sum()), int((~y).sum())
            )

    def test_evaluate_with_curves_equals_separate_calls(self):
        rng = np.random.default_rng(151)
        for n, levels in [(2, 1), (50, 3), (3_000, 200)]:
            s = quantized_scores(rng, n, levels)
            y = rng.random(n) < 0.25
            y[0], y[1] = True, False
            report, _, _ = evaluate_with_curves(s, y)
            assert report == evaluate_scores(s, y)

    def test_evaluate_scores_validation(self):
        with pytest.raises(ValueError, match="negative"):
            evaluate_scores([0.5, 0.4], [1, 1])
        with pytest.raises(ValueError, match="positive"):
            evaluate_scores([0.5, 0.4], [0, 0])


def assert_table_matches_argsort(scores, labels, need_negative=True):
    got = analysis._rank_table(scores, labels, need_negative=need_negative)
    want = rank_table_by_argsort(scores, labels)
    for g, w in zip(got[:2], want[:2]):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    assert got[2:] == want[2:]


class TestRankTableAgainstArgsort:
    """The count table equals the stable-argsort one element for element,
    so every report and curve keeps its bits."""

    def test_quantized_float32_ties(self):
        rng = np.random.default_rng(157)
        for n, levels in [(17, 2), (1_000, 64), (20_000, 4_096)]:
            y = rng.random(n) < 0.3
            y[0], y[1] = True, False
            assert_table_matches_argsort(quantized_scores(rng, n, levels), y)

    def test_float32_scores_rank_as_their_float64_cast(self):
        # Ranked without upcasting: the cast is exact, so every count is
        # the same, ties and signed zeros included.
        rng = np.random.default_rng(167)
        for n, levels in [(17, 2), (1_000, 64), (20_000, 1 << 20)]:
            s = quantized_scores(rng, n, levels)
            s[rng.random(n) < 0.1] = -0.0
            y = rng.random(n) < 0.3
            y[0], y[1] = True, False
            got = analysis._rank_table(s, y, need_negative=True)
            want = analysis._rank_table(s.astype(np.float64), y, need_negative=True)
            for g, w in zip(got[:2], want[:2]):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)
            assert got[2:] == want[2:]

    def test_caller_scores_stay_unsorted(self):
        s = np.array([0.9, 0.1, 0.5], dtype=np.float32)
        analysis._rank_table(s, [True, False, True], need_negative=True)
        assert s.tolist() == pytest.approx([0.9, 0.1, 0.5])

    def test_mixed_signed_zeros_tie(self):
        s = np.array([0.0, -0.0, 0.5, -0.0, 0.0, -0.5, -0.0])
        y = np.array([1, 0, 0, 1, 0, 1, 1], dtype=bool)
        assert_table_matches_argsort(s, y)
        tp, fp, _, _ = analysis._rank_table(s, y, need_negative=True)
        assert tp.tolist() == [0, 3, 4] and fp.tolist() == [1, 3, 3]

    def test_all_equal_scores(self):
        y = np.zeros(50, dtype=bool)
        y[::7] = True
        assert_table_matches_argsort(np.full(50, 0.25), y)

    def test_single_positive(self):
        rng = np.random.default_rng(163)
        s = quantized_scores(rng, 500, 40)
        for i in (0, 250, 499):
            y = np.zeros(500, dtype=bool)
            y[i] = True
            assert_table_matches_argsort(s, y)

    def test_no_negatives(self):
        rng = np.random.default_rng(167)
        s = quantized_scores(rng, 300, 25)
        assert_table_matches_argsort(s, np.ones(300, dtype=bool), need_negative=False)

    def test_single_element(self):
        assert_table_matches_argsort([0.3], [True], need_negative=False)

    def test_large_nearly_distinct_population(self):
        rng = np.random.default_rng(173)
        n = 200_000
        s = rng.random(n).astype(np.float32)
        y = rng.random(n) < s * 0.2
        assert_table_matches_argsort(s, y)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.sampled_from([
                    -1.0, -0.5, -0.0, 0.0, 5e-324, 0.5, np.nextafter(0.5, 1.0),
                    np.nextafter(0.5, 0.0), 1.0, 1e300,
                ]),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_property_matches_argsort(self, data):
        s = np.array([v for v, _ in data])
        y = np.array([b for _, b in data])
        assume(y.any())
        assert_table_matches_argsort(s, y, need_negative=False)


class TestEvalReport:
    def test_prevalence(self):
        r = EvalReport(auroc=0.5, auprc=0.5, fpr95=0.5, positives=3, negatives=9)
        assert r.prevalence == 0.25

    def test_range_validation(self):
        with pytest.raises(ValueError, match="auroc"):
            EvalReport(auroc=1.5, auprc=0.5, fpr95=0.5, positives=1, negatives=1)
        with pytest.raises(ValueError, match="fpr95"):
            EvalReport(auroc=0.5, auprc=0.5, fpr95=-0.1, positives=1, negatives=1)


def identity_meta(weights, bias=0.0):
    n = len(weights)
    w = np.asarray(weights, dtype=np.float64).reshape(n, 1)
    return MetaModel(
        core=MlpModel(layers=((w, [bias]),)),
        stats=StandardizationStats(np.zeros(n), np.ones(n)),
        config=TrainConfig(),
    )


def toy_dataset(rows, labels, groups=None):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    names = [f"m{i}" for i in range(rows.shape[1])]
    if groups is None:
        groups = tuple(f"g{i}" for i in range(rows.shape[0]))
    return MetricsDataset(rows, np.asarray(labels, dtype=bool), tuple(groups), names)


class TestEvaluateComponents:
    def test_separating_model_scores_one(self):
        # Feature 0 equals the label; a large positive weight on it ranks
        # all positives above all negatives.
        rows = np.array([[1.0, 0.3], [0.0, 0.9], [1.0, 0.5], [0.0, 0.1]])
        ds = toy_dataset(rows, [1, 0, 1, 0])
        report = evaluate_components(identity_meta([10.0, 0.0]), ds)[0]
        assert report.auroc == 1.0
        assert report.auprc == 1.0
        assert report.fpr95 == 0.0
        assert (report.positives, report.negatives) == (2, 2)

    def test_constant_model_scores_half(self):
        rows = np.random.default_rng(131).normal(0, 1, (10, 2))
        ds = toy_dataset(rows, [1, 0] * 5)
        report = evaluate_components(identity_meta([0.0, 0.0]), ds)[0]
        assert report.auroc == 0.5

    def test_permuted_metrics_rejected(self):
        ds = toy_dataset(np.eye(2), [1, 0])
        meta = dataclasses.replace(identity_meta([1.0, 0.0]), feature_names=("m1", "m0"))
        with pytest.raises(ValueError, match="dataset metric 0 is 'm0'"):
            evaluate_components(meta, ds)
        meta = dataclasses.replace(meta, feature_names=("m0", "m1"))
        assert evaluate_components(meta, ds)[0].auroc == 1.0

    def test_empty_dataset_rejected(self):
        ds = MetricsDataset(np.zeros((0, 1)), np.zeros(0, dtype=bool), (), ["m0"])
        with pytest.raises(ValueError, match="empty"):
            evaluate_components(identity_meta([1.0]), ds)


class TestEvaluatePixels:
    def test_perfect_scores(self):
        labels = np.zeros((4, 4), dtype=np.uint8)
        labels[1:3, 1:3] = OOD_LABEL
        mask = LabelMask(labels)
        scores = ScoreMap(mask.is_ood().astype(np.float64))
        report = evaluate_pixels([scores], [mask])
        assert report.auroc == 1.0
        assert report.auprc == 1.0
        assert report.fpr95 == 0.0
        assert report.positives == 4
        assert report.negatives == 12

    def test_constant_scores(self):
        labels = np.zeros((4, 4), dtype=np.uint8)
        labels[0, 0] = OOD_LABEL
        mask = LabelMask(labels)
        report = evaluate_pixels([ScoreMap(np.full((4, 4), 0.5))], [mask])
        assert report.auroc == 0.5
        assert report.auprc == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert report.fpr95 == 1.0

    def test_ignore_pixels_excluded(self):
        labels = np.zeros((2, 2), dtype=np.uint8)
        labels[0, 0] = OOD_LABEL
        labels[0, 1] = IGNORE_LABEL
        # The IGNORE pixel carries score 1.0; counted as a negative it
        # would drag AUROC below 1.
        scores = ScoreMap(np.array([[1.0, 1.0], [0.0, 0.0]]))
        report = evaluate_pixels([scores], [LabelMask(labels)])
        assert report.auroc == 1.0
        assert report.negatives == 2

    def test_pooling_across_images(self):
        la = np.zeros((2, 2), dtype=np.uint8)
        la[0, 0] = OOD_LABEL
        lb = np.zeros((2, 2), dtype=np.uint8)
        sa = ScoreMap(np.array([[0.9, 0.1], [0.1, 0.1]]))
        sb = ScoreMap(np.full((2, 2), 0.5))
        report = evaluate_pixels([sa, sb], [LabelMask(la), LabelMask(lb)])
        assert report.positives == 1
        assert report.negatives == 7

    def test_no_ood_anywhere_rejected(self):
        mask = LabelMask(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="no OOD"):
            evaluate_pixels([ScoreMap(np.zeros((2, 2)))], [mask])

    def test_dim_mismatch_rejected(self):
        mask = LabelMask(np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="does not match"):
            evaluate_pixels([ScoreMap(np.zeros((2, 2)))], [mask])

    def test_file_label_outside_a_byte_rejected(self, tmp_path):
        # Raw 254 pixels would still count as OOD: the label is refused,
        # not ignored.
        labels = np.zeros((2, 2), dtype=np.uint8)
        labels[0, 0] = OOD_LABEL
        raster.save_score_map(ScoreMap(np.full((2, 2), 0.5)), tmp_path / "a.score.rast")
        raster.save_mask(LabelMask(labels), tmp_path / "a.pgm")
        pairs = [(tmp_path / "a.score.rast", tmp_path / "a.pgm")]
        with pytest.raises(ValueError, match="^ood_label must fit in a byte, got 300$"):
            analysis.evaluate_pixel_files(pairs, ood_label=300)

    def test_peak_memory_per_kept_pixel(self):
        # On nearly distinct scores, as the 890,880 kept pixels of the
        # benchmark's two Cityscapes-shaped score maps hold, the pooled
        # float64 scores, sorted in place, and the count table peaked at
        # 24.4 B per kept pixel (56.9 B when the pool was copied to sort
        # and the report built table-length temporaries).
        rng = np.random.default_rng(179)
        scores, masks = [], []
        for _ in range(2):
            labels = np.zeros((500, 1000), dtype=np.uint8)
            labels[rng.random(labels.shape) < 0.05] = OOD_LABEL
            labels[rng.random(labels.shape) < 0.1] = IGNORE_LABEL
            masks.append(LabelMask(labels))
            scores.append(ScoreMap(rng.random(labels.shape).astype(np.float32)))
        kept = sum(int((~m.is_ignore()).sum()) for m in masks)
        tracemalloc.start()
        try:
            evaluate_pixels(scores, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / kept <= 25.5


class TestLeaveOneOut:
    def grouped_dataset(self, seed=137, groups=6, rows_per=5):
        rng = np.random.default_rng(seed)
        y = rng.random(groups * rows_per) < 0.5
        y[:2] = [True, False]
        x = np.column_stack([
            np.where(y, 1.0, -1.0) + rng.normal(0, 0.5, y.size),
            rng.normal(0, 1, y.size),
        ])
        gids = tuple(f"img{j // rows_per}" for j in range(y.size))
        return toy_dataset(x, y, gids)

    def test_every_row_scored_once(self):
        ds = self.grouped_dataset()
        cfg = TrainConfig(learning_rate=0.05, epochs=20, batch_size=8, seed=0)
        scores = loo_scores(ds, cfg, hidden_dims=())
        assert scores.shape == (len(ds),)
        assert np.isfinite(scores).all()

    def test_deterministic(self):
        ds = self.grouped_dataset()
        cfg = TrainConfig(epochs=5, seed=3)
        a = loo_scores(ds, cfg, hidden_dims=())
        b = loo_scores(ds, cfg, hidden_dims=())
        np.testing.assert_array_equal(a, b)

    def test_holding_out_changes_predictions(self):
        # In-sample training sees the held-out rows; leave-one-out must
        # not, so the two disagree in general.
        ds = self.grouped_dataset()
        cfg = TrainConfig(learning_rate=0.05, epochs=30, batch_size=8, seed=1)
        loo = loo_scores(ds, cfg, hidden_dims=())
        from metaseg.metaclf import train

        full, _ = train(ds, cfg, hidden_dims=())
        in_sample = full.predict_raw_batch(ds.rows)
        assert not np.allclose(loo, in_sample)

    def test_single_group_rejected(self):
        ds = toy_dataset(
            np.random.default_rng(0).normal(0, 1, (4, 2)),
            [1, 0, 1, 0],
            ("a", "a", "a", "a"),
        )
        with pytest.raises(ValueError, match="2 groups"):
            loo_scores(ds, TrainConfig(epochs=1), hidden_dims=())

    def test_end_to_end_on_scenes(self):
        spec = SceneSpec(
            dims=(32, 32),
            num_classes=5,
            blob_count=(1, 2),
            blob_size=(4, 7),
            false_blob_rate=1.5,
            seed=139,
        )
        samples = generate(spec, 6)
        dataset = build_metrics_dataset(samples, ThresholdConfig(0.7))
        scores = loo_scores(dataset, TrainConfig(epochs=10, seed=0), hidden_dims=())
        report = evaluate_scores(scores, dataset.labels)
        assert np.isfinite(scores).all()
        assert 0.0 <= report.auroc <= 1.0
        assert report.positives + report.negatives == scores.shape[0]


def orthogonal_design(rng, n, p):
    """Columns centered, population sigma 1, mutually orthogonal."""
    g = rng.normal(0, 1, (n, p))
    g -= g.mean(axis=0)
    q, _ = np.linalg.qr(g)
    x = q[:, :p] * math.sqrt(n)
    return x


class TestLarsOrder:
    def test_response_equal_to_one_column(self):
        rng = np.random.default_rng(149)
        x = rng.normal(0, 1, (30, 5))
        y = x[:, 3] > 0
        ds = toy_dataset(x, y)
        ordering = lars_order(ds)
        assert ordering.ordered_metric_indices[0] == 3

    def test_orthogonal_design_matches_correlation_sort(self):
        # On an orthogonal design the equiangular advance never changes
        # the relative order of inactive correlations, so the entry order
        # is exactly the descending-|correlation| sort.
        rng = np.random.default_rng(151)
        for _ in range(30):
            p = int(rng.integers(2, 12))
            n = p + int(rng.integers(3, 15))
            x = orthogonal_design(rng, n, p)
            y = rng.random(n) < 0.5
            if y.all() or not y.any():
                continue
            ds = toy_dataset(x, y)
            yc = y.astype(np.float64) - y.mean()
            xs = (x - x.mean(axis=0)) / x.std(axis=0)
            oracle = tuple(np.argsort(-np.abs(xs.T @ yc), kind="stable").tolist())
            got = lars_order(ds).ordered_metric_indices
            assert got == oracle

    def test_entry_correlations_nonincreasing_on_orthogonal_design(self):
        rng = np.random.default_rng(157)
        x = orthogonal_design(rng, 40, 8)
        y = rng.random(40) < 0.5
        y[0], y[1] = True, False
        ordering = lars_order(toy_dataset(x, y))
        corr = ordering.entry_correlations
        assert all(corr[i] >= corr[i + 1] - 1e-9 for i in range(len(corr) - 1))

    def test_duplicated_column_defers_to_lower_index(self):
        # An exact duplicate moves in lockstep with its twin: the lower
        # index enters first, and the duplicate stays tied to the maximal
        # correlation, losing every tie until it enters last.
        rng = np.random.default_rng(163)
        base = rng.normal(0, 1, (40, 3))
        x = np.column_stack([base, base[:, 0]])  # column 3 duplicates 0
        y = base[:, 0] + 0.1 * rng.normal(0, 1, 40) > 0
        ordering = lars_order(toy_dataset(x, y)).ordered_metric_indices
        assert ordering[0] == 0
        assert ordering[-1] == 3

    def test_constant_column_appended_last_with_zero_correlation(self):
        rng = np.random.default_rng(167)
        x = rng.normal(0, 1, (20, 4))
        x[:, 2] = 7.0
        y = rng.random(20) < 0.5
        y[0], y[1] = True, False
        ordering = lars_order(toy_dataset(x, y))
        assert ordering.ordered_metric_indices[-1] == 2
        assert ordering.entry_correlations[-1] == 0.0

    def test_permutation_property(self):
        rng = np.random.default_rng(173)
        x = rng.normal(0, 1, (25, 6))
        y = rng.random(25) < 0.5
        y[0], y[1] = True, False
        ordering = lars_order(toy_dataset(x, y))
        assert sorted(ordering.ordered_metric_indices) == list(range(6))

    def test_single_class_labels_rejected(self):
        ds = toy_dataset(np.random.default_rng(0).normal(0, 1, (5, 2)), [1] * 5)
        with pytest.raises(ValueError, match="zero variance"):
            lars_order(ds)


class TestIncrementalEvaluation:
    def small_dataset(self):
        rng = np.random.default_rng(179)
        groups = 6
        rows_per = 6
        y = np.tile([True, False, True, False, True, False], groups)
        x = np.column_stack([
            np.where(y, 1.5, -1.5) + rng.normal(0, 0.4, y.size),
            rng.normal(0, 1.0, y.size),
            rng.normal(0, 1.0, y.size),
            rng.normal(0, 1.0, y.size),
        ])
        gids = tuple(f"img{j // rows_per}" for j in range(y.size))
        return toy_dataset(x, y, gids)

    def test_lengths_match_metric_count(self):
        ds = self.small_dataset()
        cfg = TrainConfig(learning_rate=0.05, epochs=8, batch_size=8, seed=0)
        aurocs, auprcs = incremental_evaluation(ds, cfg, hidden_dims=())
        assert len(aurocs) == ds.num_metrics
        assert len(auprcs) == ds.num_metrics
        assert all(0.0 <= v <= 1.0 for v in aurocs + auprcs)

    def test_final_step_reproduces_full_run_exactly(self):
        ds = self.small_dataset()
        cfg = TrainConfig(learning_rate=0.05, epochs=8, batch_size=8, seed=0)
        aurocs, auprcs = incremental_evaluation(ds, cfg, hidden_dims=())
        full = loo_scores(ds, cfg, hidden_dims=())
        assert aurocs[-1] == auroc(full, ds.labels)
        assert auprcs[-1] == auprc(full, ds.labels)


def fold_spy(monkeypatch):
    """Held-out rows of the folds `analysis._fold` trains in this process;
    folds run by worker processes never reach it."""
    seen = []
    fold = analysis._fold

    def spy(dataset, cfg, hidden_dims, held, cols=None):
        seen.append(held)
        return fold(dataset, cfg, hidden_dims, held, cols)

    monkeypatch.setattr(analysis, "_fold", spy)
    return seen


class TestFoldPool:
    """Folds run on worker processes: same bits, warnings and errors as
    in-process, no process left behind, and only above the cut-off."""

    CFG = TrainConfig(learning_rate=0.05, epochs=8, batch_size=8, seed=0)

    def test_single_class_warning_reaches_caller(self, monkeypatch):
        # Group g0 holds every positive row, so its fold trains on one class.
        y = [True, True, False, False, False, False]
        ds = toy_dataset(np.arange(12.0).reshape(6, 2), y,
                         ("g0", "g0", "g1", "g1", "g2", "g2"))
        caught = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("METASEG_THREADS", threads)
            # Any training work pools when two workers are allowed.
            monkeypatch.setattr(analysis, "_POOL_MIN_WORK", 0.0)
            seen = fold_spy(monkeypatch)
            with pytest.warns(UserWarning, match="single-class") as got:
                loo_scores(ds, self.CFG, hidden_dims=())
            assert len(seen) == (3 if threads == "1" else 0)
            caught[threads] = [(str(w.message), w.filename, w.lineno) for w in got]
        assert caught["1"] == caught["2"]
        assert caught["1"][0][1] == analysis.__file__

    def test_unguarded_script_fails_instead_of_hanging(self, tmp_path):
        # Each spawned worker imports the script again and dies starting a
        # pool of its own; the caller must get an error, also when the
        # dataset's pickle (77 KB here) exceeds a pipe buffer.
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import numpy as np\n"
            "from metaseg import analysis, features, metaclf\n"
            "analysis._POOL_MIN_WORK = 0.0\n"
            "rows = np.random.default_rng(0).normal(size=(120, 80))\n"
            "ds = features.MetricsDataset(\n"
            "    rows, np.arange(120) % 2 == 0, [f'g{i % 4}' for i in range(120)],\n"
            "    [f'm{j}' for j in range(80)])\n"
            "analysis.loo_scores(ds, metaclf.TrainConfig(epochs=1), hidden_dims=())\n"
        )
        env = dict(os.environ, METASEG_THREADS="2")
        proc = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode != 0
        assert b"BrokenProcessPool" in proc.stderr

    def test_small_logistic_loo_stays_in_process(self, monkeypatch):
        monkeypatch.setenv("METASEG_THREADS", "2")
        seen = fold_spy(monkeypatch)
        ds = TestIncrementalEvaluation().small_dataset()
        loo_scores(ds, self.CFG, hidden_dims=())
        # One fold per group, in order of first appearance, holding out
        # exactly that group's rows.
        assert seen == [[i for i, g in enumerate(ds.group_ids) if g == group]
                        for group in dict.fromkeys(ds.group_ids)]

    def test_cut_off_splits_the_walkthrough_loo_runs(self):
        # The README walkthrough's mu.csv: 246 rows of 75 metrics from 50
        # scenes, trained with the CLI defaults.
        def work(hidden_dims):
            return 50 * analysis._training_work(246, 75, TrainConfig(), hidden_dims)

        assert work(()) < analysis._POOL_MIN_WORK < work(HIDDEN_DIMS["mlp"])


class TestOodFractionSplit:
    def mask_with_fraction(self, ood_pixels, total=100, ignore_pixels=0):
        labels = np.zeros((10, 10), dtype=np.uint8)
        flat = labels.reshape(-1)
        flat[:ood_pixels] = OOD_LABEL
        if ignore_pixels:
            flat[total - ignore_pixels :] = IGNORE_LABEL
        return LabelMask(labels)

    def test_fraction_counts(self):
        assert ood_fraction(self.mask_with_fraction(10)) == pytest.approx(0.1)
        # IGNORE pixels leave the denominator.
        m = self.mask_with_fraction(20, ignore_pixels=20)
        assert ood_fraction(m) == pytest.approx(0.25)

    def test_partition(self):
        masks = [
            self.mask_with_fraction(10),  # 0.10 -> low
            self.mask_with_fraction(85),  # 0.85 -> high
            self.mask_with_fraction(50),  # 0.50 -> rest
            self.mask_with_fraction(20),  # 0.20 -> low (boundary)
            self.mask_with_fraction(80),  # 0.80 -> high (boundary)
        ]
        low, high, rest = split_by_ood_fraction(masks, 0.2, 0.8)
        assert low == [0, 3]
        assert high == [1, 4]
        assert rest == [2]

    def test_indices_partition_input(self):
        rng = np.random.default_rng(181)
        masks = [self.mask_with_fraction(int(rng.integers(0, 101))) for _ in range(20)]
        low, high, rest = split_by_ood_fraction(masks, 0.2, 0.8)
        assert sorted(low + high + rest) == list(range(20))

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="low"):
            split_by_ood_fraction([], 0.8, 0.2)

    def test_all_ignore_rejected(self):
        m = LabelMask(np.full((2, 2), IGNORE_LABEL, dtype=np.uint8))
        with pytest.raises(ValueError, match="non-IGNORE"):
            ood_fraction(m)


class TestSerialization:
    def report(self):
        return EvalReport(
            auroc=0.875, auprc=0.75, fpr95=0.125, positives=4, negatives=12
        )

    def test_report_csv_contents(self, tmp_path):
        path = tmp_path / "report.csv"
        save_report_csv(self.report(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,value"
        data = dict(line.split(",") for line in lines[1:])
        assert data["auroc"] == "0.875"
        assert data["fpr95"] == "0.125"
        assert data["positives"] == "4"
        assert data["prevalence"] == "0.25"

    def test_svg_deterministic_and_wellformed(self, tmp_path):
        xs = np.linspace(0, 1, 20)
        series = [("a", xs, xs**2), ("b", xs, 1 - xs)]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        svg_line_plot(series, p1, title="t", x_label="x", y_label="y")
        svg_line_plot(series, p2, title="t", x_label="x", y_label="y")
        body = p1.read_text()
        assert p1.read_bytes() == p2.read_bytes()
        assert body.startswith("<svg ")
        assert body.rstrip().endswith("</svg>")
        assert body.count("<polyline") == 3  # axis + two series

    def test_svg_escapes_markup_in_text(self, tmp_path):
        path = tmp_path / "e.svg"
        svg_line_plot([("a < b & c", [0.0, 1.0], [0.0, 1.0])], path,
                      title="ROC & PR <test>", x_label="x > 0", y_label="<y>")
        texts = [el.text for el in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
        for text in ("ROC & PR <test>", "x > 0", "<y>", "a < b & c"):
            assert text in texts

    def test_svg_range_override(self, tmp_path):
        path = tmp_path / "r.svg"
        svg_line_plot(
            [("a", [0.2, 0.4], [0.5, 0.6])], path,
            x_range=(0.0, 1.0), y_range=(0.0, 1.0),
        )
        assert "0.00" in path.read_text()

    def test_svg_validation(self, tmp_path):
        with pytest.raises(ValueError, match="at least one series"):
            svg_line_plot([], tmp_path / "x.svg")
        with pytest.raises(ValueError, match="equal-length"):
            svg_line_plot([("a", [1, 2], [1])], tmp_path / "x.svg")

    def test_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        save_curve_csv([("x", [0.0, 0.5]), ("y", [1.0, 0.25])], path)
        assert path.read_text() == "x,y\n0,1\n0.5,0.25\n"

    def test_names_with_commas_read_back(self, tmp_path):
        curve, report = tmp_path / "curve.csv", tmp_path / "report.csv"
        save_curve_csv([("a,b", [1, 2]), ('q"x', [3, 4])], curve)
        with open(curve, newline="") as fh:
            assert list(csv.reader(fh)) == [["a,b", 'q"x'], ["1", "3"], ["2", "4"]]
        save_report_csv(self.report(), report)
        with open(report, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == ["metric", "value"]
        assert all(len(rec) == 2 for rec in records) and len(records) == 7

    def test_curve_csv_validation(self, tmp_path):
        with pytest.raises(ValueError, match="equal-length"):
            save_curve_csv([("x", [1.0]), ("y", [1.0, 2.0])], tmp_path / "c.csv")
