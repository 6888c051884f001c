"""Tests for entropy, anomaly scores, and the reference losses."""

import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metaseg import raster, scoring
from metaseg.raster import (
    IGNORE_LABEL,
    OOD_LABEL,
    LabelMask,
    ProbabilityMap,
    RasterFormatError,
    Sample,
    SampleSet,
    load_probability_map,
    save_probability_map,
)
from metaseg.scoring import (
    anomaly_score_file,
    anomaly_score_map,
    combined_objective,
    entropy_map,
    loss_in,
    loss_out,
    margin_map,
    pixel_entropy,
    variation_ratio_map,
)


def pmap_of(vec, h=1, w=1):
    """Constant probability map with the given per-pixel vector."""
    arr = np.tile(np.asarray(vec, dtype=np.float64), (h, w, 1))
    return ProbabilityMap(arr)


def random_pmap(rng, h, w, c):
    raw = rng.random((h, w, c)) + 1e-3
    return ProbabilityMap(raw / raw.sum(axis=2, keepdims=True))


class TestPixelEntropy:
    def test_known_binary_value(self):
        # H(0.9, 0.1) = -(0.9 ln 0.9 + 0.1 ln 0.1), frozen independently.
        assert pixel_entropy([0.9, 0.1]) == pytest.approx(
            0.3250829733914482, abs=1e-12
        )

    def test_one_hot_is_zero(self):
        for c in (2, 19, 150):
            vec = np.zeros(c)
            vec[c // 2] = 1.0
            assert pixel_entropy(vec) == 0.0

    def test_uniform_is_log_c(self):
        for c in (2, 19, 150):
            assert pixel_entropy(np.full(c, 1.0 / c)) == pytest.approx(
                math.log(c), abs=1e-9
            )

    def test_bounds_hold_on_random_vectors(self):
        rng = np.random.default_rng(17)
        for c in (2, 19, 150):
            for _ in range(200):
                raw = rng.random(c) + 1e-9
                vec = raw / raw.sum()
                e = pixel_entropy(vec)
                assert -1e-12 <= e <= math.log(c) + 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        raw = rng.random(7)
        vec = raw / raw.sum()
        e = pixel_entropy(vec)
        for _ in range(5):
            assert pixel_entropy(rng.permutation(vec)) == pytest.approx(e, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pixel_entropy([1.0])
        with pytest.raises(ValueError):
            pixel_entropy([0.8, 0.1])
        with pytest.raises(ValueError):
            pixel_entropy([1.2, -0.2])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**16), c=st.integers(2, 40))
    def test_entropy_below_uniform(self, seed, c):
        raw = np.random.default_rng(seed).random(c) + 1e-9
        vec = raw / raw.sum()
        assert pixel_entropy(vec) <= math.log(c) + 1e-9


class TestScoreMaps:
    def test_uniform_scores_one(self):
        sm = anomaly_score_map(pmap_of(np.full(19, 1.0 / 19), 2, 3))
        np.testing.assert_allclose(sm.scores, 1.0, atol=1e-9)

    def test_one_hot_scores_zero(self):
        vec = np.zeros(19)
        vec[4] = 1.0
        sm = anomaly_score_map(pmap_of(vec, 2, 2))
        np.testing.assert_array_equal(sm.scores, 0.0)

    def test_known_binary_score(self):
        sm = anomaly_score_map(pmap_of([0.9, 0.1]))
        assert sm.scores[0, 0] == pytest.approx(0.46899559358928117, abs=1e-12)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(29)
        for c in (2, 19, 150):
            sm = anomaly_score_map(random_pmap(rng, 8, 8, c))
            assert sm.scores.min() >= 0.0
            assert sm.scores.max() <= 1.0

    def test_entropy_map_matches_pixelwise(self):
        rng = np.random.default_rng(31)
        pm = random_pmap(rng, 3, 4, 6)
        em = entropy_map(pm)
        for r in range(3):
            for c in range(4):
                assert em[r, c] == pytest.approx(
                    pixel_entropy(pm.values[r, c]), abs=1e-12
                )

    def test_class_permutation_leaves_scores_unchanged(self):
        rng = np.random.default_rng(37)
        pm = random_pmap(rng, 4, 4, 9)
        perm = rng.permutation(9)
        pm2 = ProbabilityMap(pm.values[:, :, perm])
        np.testing.assert_allclose(
            anomaly_score_map(pm).scores, anomaly_score_map(pm2).scores, atol=1e-12
        )


class TestVariationRatioAndMargin:
    def test_variation_ratio_values(self):
        vr = variation_ratio_map(pmap_of([0.7, 0.2, 0.1]))
        assert vr[0, 0] == pytest.approx(0.3, abs=1e-12)
        vr_uniform = variation_ratio_map(pmap_of(np.full(4, 0.25)))
        assert vr_uniform[0, 0] == pytest.approx(0.75, abs=1e-12)

    def test_margin_values(self):
        mg = margin_map(pmap_of([0.7, 0.2, 0.1]))
        assert mg[0, 0] == pytest.approx(0.5, abs=1e-12)
        mg_tied = margin_map(pmap_of([0.4, 0.4, 0.2]))
        assert mg_tied[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_margin_matches_sort(self):
        rng = np.random.default_rng(41)
        pm = random_pmap(rng, 5, 5, 11)
        mg = margin_map(pm)
        top2 = np.sort(pm.values, axis=-1)[:, :, -2:]
        np.testing.assert_allclose(mg, top2[:, :, 1] - top2[:, :, 0], atol=1e-12)

    def test_one_hot_extremes(self):
        vec = np.zeros(5)
        vec[0] = 1.0
        assert variation_ratio_map(pmap_of(vec))[0, 0] == 0.0
        assert margin_map(pmap_of(vec))[0, 0] == 1.0


def whole_array_entropy(values):
    """The per-pixel entropy as one whole-array expression (the oracle)."""
    return -np.sum(values * np.log(np.maximum(values, scoring.EPS)), axis=-1)


def whole_array_margin(values):
    part = np.partition(values, values.shape[-1] - 2, axis=-1)
    return part[..., -1] - part[..., -2]


def bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float64).tobytes()


def mixed_pmap(rng, h, w, c):
    """Random pixels plus one-hot and near-uniform ones, in rows that
    straddle block edges."""
    raw = rng.random((h, w, c)) ** 4 + 1e-9
    raw /= raw.sum(axis=2, keepdims=True)
    flat = raw.reshape(-1, c)
    n = flat.shape[0]
    hot = rng.choice(n, size=n // 7, replace=False)
    flat[hot] = 0.0
    flat[hot, rng.integers(0, c, size=hot.size)] = 1.0
    near = rng.choice(n, size=n // 7, replace=False)
    jitter = 1.0 + 1e-6 * rng.standard_normal((near.size, c))
    flat[near] = jitter / jitter.sum(axis=1, keepdims=True)
    flat[-1] = 1.0 / c
    return ProbabilityMap(raw)


class TestBlockKernels:
    """The block-wise kernels against the whole-array expressions they
    replace, bit for bit, on maps wider than one block whose last block
    is partial."""

    @pytest.mark.parametrize("c", [2, 19])
    @pytest.mark.parametrize("shape", [(1, 4097), (3, 5000), (2, 2049)])
    @pytest.mark.parametrize("block", [None, 7, 64])
    def test_fields_match_whole_array(self, c, shape, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(scoring, "_BLOCK_PIXELS", block)
        pixels = shape[0] * shape[1]
        assert pixels > scoring._BLOCK_PIXELS
        assert pixels % scoring._BLOCK_PIXELS
        rng = np.random.default_rng(c * 1000 + shape[1])
        pm = mixed_pmap(rng, *shape, c)
        v = pm.values
        ent = whole_array_entropy(v)
        assert bits(entropy_map(pm)) == bits(ent)
        scores = np.clip(ent / np.log(c), 0.0, 1.0)
        assert bits(anomaly_score_map(pm).scores) == bits(scores)
        assert bits(variation_ratio_map(pm)) == bits(1.0 - v.max(axis=-1))
        assert bits(margin_map(pm)) == bits(whole_array_margin(v))
        top, margin = scoring._top_two_fields(v)
        assert bits(top) == bits(v.max(axis=-1))
        assert bits(margin) == bits(whole_array_margin(v))

    @pytest.mark.parametrize("c", [2, 19])
    def test_single_vector_matches_whole_array(self, c):
        rng = np.random.default_rng(c)
        for vec in mixed_pmap(rng, 4, 5, c).values.reshape(-1, c):
            assert pixel_entropy(vec) == float(whole_array_entropy(vec))


def rast_file(path, arr):
    """Write `arr` as a raw RAST file, bypassing the library writer."""
    data = b"RASTv001" + struct.pack("<III", *arr.shape)
    path.write_bytes(data + np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return path


class TestStreamedScore:
    """Scoring a file block by block as it is read against loading the
    whole map and scoring it: the same bits, and the same error."""

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        # 7 values: a chunk is no multiple of C = 2..5 and shapes straddle
        # chunk edges; the constructor checks 5-value blocks.
        monkeypatch.setattr(raster, "_CHUNK_VALUES", 7)
        monkeypatch.setattr(raster, "_BLOCK_VALUES", 5)

    @staticmethod
    def same_error(path):
        """The message both paths raise for `path`, asserted equal."""
        with pytest.raises(RasterFormatError) as loaded:
            load_probability_map(path)
        with pytest.raises(RasterFormatError) as streamed:
            anomaly_score_file(path)
        assert str(streamed.value) == str(loaded.value)
        return str(streamed.value)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        h=st.integers(1, 6), w=st.integers(1, 6), c=st.integers(2, 5),
        seed=st.integers(0, 2**16),
        drift=st.sampled_from([0.0, 3e-6, -4e-6]),
        block=st.sampled_from([None, 3]),
    )
    def test_matches_load_then_score_bit_for_bit(
        self, tmp_path, small_chunks, monkeypatch, h, w, c, seed, drift, block
    ):
        if block is not None:
            monkeypatch.setattr(scoring, "_BLOCK_PIXELS", block)
        raw = np.random.default_rng(seed).random((h, w, c)) + 1e-3
        arr = (raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
        arr.reshape(-1, c)[1::3, 0] += np.float32(drift)
        path = rast_file(tmp_path / "p.rast", arr)
        streamed = anomaly_score_file(path)
        assert streamed.scores.shape == (h, w)
        loaded = anomaly_score_map(load_probability_map(path))
        assert streamed.scores.tobytes() == loaded.scores.tobytes()
        # Exact sums are scored untouched, drifted ones renormalized.
        ent = whole_array_entropy(arr.astype(np.float64))
        untouched = np.clip(ent / np.log(c), 0.0, 1.0)
        assert (streamed.scores.tobytes() == untouched.tobytes()) == (
            drift == 0.0 or h * w < 2
        )

    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001])  # NaN, signalling NaN
    def test_non_finite_past_first_chunk(self, tmp_path, small_chunks, bits):
        arr = np.full((3, 4, 2), 0.5, dtype=np.float32)
        arr.view("<u4")[2, 1, 1] = bits
        arr.view("<u4")[2, 3, 0] = bits
        path = rast_file(tmp_path / "nan.rast", arr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = self.same_error(path)
        assert message.endswith("nan.rast: non-finite value at (2, 1, 1)")

    def test_non_finite_reported_before_an_earlier_range_fault(
        self, tmp_path, small_chunks
    ):
        arr = np.full((3, 4, 2), 0.5)
        arr[0, 0] = (-0.5, 1.5)
        arr[2, 2, 1] = np.nan
        path = rast_file(tmp_path / "mixed.rast", arr)
        assert self.same_error(path).endswith("non-finite value at (2, 2, 1)")

    def test_range_fault_reported_before_a_sum_fault(self, tmp_path, small_chunks):
        arr = np.full((3, 4, 2), 0.5)
        arr[0, 1] = (0.9, 0.9)
        arr[2, 0] = (-0.25, 1.25)
        path = rast_file(tmp_path / "range.rast", arr)
        assert self.same_error(path).endswith("probabilities outside [0, 1]")

    def test_largest_sum_fault_across_chunks_is_named(self, tmp_path, small_chunks):
        arr = np.full((3, 4, 2), 0.5)
        arr[0, 1] = (0.5, 0.55)
        arr[2, 2] = (0.25, 0.25)
        path = rast_file(tmp_path / "sums.rast", arr)
        assert self.same_error(path).endswith(
            "pixel (2, 2) probabilities sum to 0.50000000"
        )

    def test_first_of_equal_sum_faults_is_named(self, tmp_path, small_chunks):
        arr = np.full((3, 4, 2), 0.5)
        arr[0, 1] = (0.5, 0.75)
        arr[2, 2] = (0.5, 0.75)
        path = rast_file(tmp_path / "tie.rast", arr)
        assert self.same_error(path).endswith(
            "pixel (0, 1) probabilities sum to 1.25000000"
        )

    def test_single_class_refused(self, tmp_path, small_chunks):
        path = rast_file(tmp_path / "one.rast", np.ones((2, 3, 1)))
        assert self.same_error(path).endswith(
            "one.rast: invalid probability map shape (2, 3, 1)"
        )

    def test_short_read_refused(self, tmp_path, small_chunks, monkeypatch):
        path = rast_file(tmp_path / "p.rast", np.full((3, 4, 2), 0.5))
        size = path.stat().st_size

        class Shrinking:
            """The file, of which the last value vanishes after its size
            was taken."""

            def __init__(self, name, mode):
                self.fh = open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def fileno(self):
                return self.fh.fileno()

            def read(self, n):
                return self.fh.read(n)

            def readinto(self, buf):
                room = size - 4 - self.fh.tell()
                return self.fh.readinto(memoryview(buf).cast("B")[:room])

        monkeypatch.setattr(raster, "open", Shrinking, raising=False)
        assert self.same_error(path).endswith("p.rast: file shrank while being read")

    def test_memory_bounded_below_the_map(self, tmp_path):
        rng = np.random.default_rng(5)
        raw = rng.random((256, 512, 19)) + 1e-3
        path = tmp_path / "big.rast"
        save_probability_map(ProbabilityMap(raw / raw.sum(axis=2, keepdims=True)), path)
        nbytes = raw.nbytes
        del raw
        tracemalloc.start()
        try:
            smap = anomaly_score_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * nbytes, peak / nbytes
        assert smap.scores.shape == (256, 512)


class TestLossIn:
    def test_perfect_prediction_is_zero(self):
        vec = np.zeros(4)
        vec[2] = 1.0
        mask = LabelMask(np.full((1, 1), 2, dtype=np.uint8))
        assert loss_in(pmap_of(vec), mask) == 0.0

    def test_uniform_prediction_is_log_c(self):
        mask = LabelMask(np.zeros((1, 1), dtype=np.uint8))
        assert loss_in(pmap_of(np.full(19, 1.0 / 19)), mask) == pytest.approx(
            math.log(19), abs=1e-9
        )

    def test_known_two_pixel_value(self):
        # -(ln 0.5 + ln 0.25) = 3 ln 2, frozen independently.
        arr = np.array([[[0.5, 0.5], [0.25, 0.75]]])
        mask = LabelMask(np.zeros((1, 2), dtype=np.uint8))
        assert loss_in(ProbabilityMap(arr), mask) == pytest.approx(
            2.0794415416798357, abs=1e-12
        )

    def test_ood_and_ignore_pixels_skipped(self):
        arr = np.array([[[0.5, 0.5], [0.9, 0.1], [0.8, 0.2]]])
        labels = np.array([[0, OOD_LABEL, IGNORE_LABEL]], dtype=np.uint8)
        got = loss_in(ProbabilityMap(arr), LabelMask(labels))
        assert got == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_no_class_pixels_gives_zero(self):
        mask = LabelMask(np.full((2, 2), OOD_LABEL, dtype=np.uint8))
        assert loss_in(pmap_of([0.5, 0.5], 2, 2), mask) == 0.0

    def test_label_out_of_range_rejected(self):
        mask = LabelMask(np.full((1, 1), 5, dtype=np.uint8))
        with pytest.raises(ValueError, match="out of range"):
            loss_in(pmap_of([0.5, 0.5]), mask)

    def test_dim_mismatch_rejected(self):
        mask = LabelMask(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="mask is"):
            loss_in(pmap_of([0.5, 0.5]), mask)


class TestLossOut:
    def test_uniform_prediction_attains_log_c(self):
        mask = LabelMask(np.full((1, 1), OOD_LABEL, dtype=np.uint8))
        for c in (2, 19):
            got = loss_out(pmap_of(np.full(c, 1.0 / c)), mask)
            assert got == pytest.approx(math.log(c), abs=1e-9)

    def test_near_one_hot_value(self):
        # C=2, p = (1 - 1e-12, 1e-12): the small term clamps at EPS, so
        # the loss is -(ln(1 - 1e-12) + ln 1e-12)/2.  Frozen independently.
        arr = np.array([[[1.0 - 1e-12, 1e-12]]])
        mask = LabelMask(np.full((1, 1), OOD_LABEL, dtype=np.uint8))
        assert loss_out(ProbabilityMap(arr), mask) == pytest.approx(
            13.815510557964274, rel=1e-9
        )

    def test_no_ood_pixels_gives_zero(self):
        mask = LabelMask(np.zeros((2, 2), dtype=np.uint8))
        assert loss_out(pmap_of([0.3, 0.7], 2, 2), mask) == 0.0

    def test_lower_bound_is_pixels_times_log_c(self):
        # Jensen: per OOD pixel the loss is >= ln C, with equality only at
        # the uniform distribution.
        rng = np.random.default_rng(43)
        for _ in range(25):
            c = int(rng.integers(2, 12))
            h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            pm = random_pmap(rng, h, w, c)
            labels = np.where(
                rng.random((h, w)) < 0.5, OOD_LABEL, 0
            ).astype(np.uint8)
            mask = LabelMask(labels)
            n_ood = int(mask.is_ood().sum())
            assert loss_out(pm, mask) >= n_ood * math.log(c) - 1e-9

    def test_only_ood_pixels_counted(self):
        arr = np.array([[[0.5, 0.5], [0.9, 0.1]]])
        labels = np.array([[OOD_LABEL, 1]], dtype=np.uint8)
        got = loss_out(ProbabilityMap(arr), LabelMask(labels))
        assert got == pytest.approx(math.log(2), abs=1e-12)


class TestCombinedObjective:
    def sample_with(self, vec, label):
        pm = pmap_of(vec)
        mask = LabelMask(np.full((1, 1), label, dtype=np.uint8))
        return pm, mask

    def make_sets(self):
        pm_in, mask_in = self.sample_with([0.5, 0.5], 0)
        pm_out, mask_out = self.sample_with([0.5, 0.5], OOD_LABEL)
        in_batch = SampleSet((Sample("i0", pm_in, mask_in),))
        out_batch = SampleSet((Sample("o0", pm_out, mask_out),))
        return in_batch, out_batch

    def test_weighting_identity(self):
        in_batch, out_batch = self.make_sets()
        for lam in (0.0, 0.25, 0.9, 1.0):
            br = combined_objective(in_batch, out_batch, lam)
            assert br.combined == pytest.approx(
                (1.0 - lam) * br.l_in + lam * br.l_out, rel=1e-12
            )
            assert br.lam == lam

    def test_uniform_prediction_values(self):
        in_batch, out_batch = self.make_sets()
        br = combined_objective(in_batch, out_batch, 0.9)
        assert br.l_in == pytest.approx(math.log(2), abs=1e-12)
        assert br.l_out == pytest.approx(math.log(2), abs=1e-12)

    def test_sides_average_per_sample(self):
        pm_a, mask_a = self.sample_with([0.5, 0.5], 0)
        pm_b, mask_b = self.sample_with([0.25, 0.75], 1)
        in_batch = SampleSet(
            (Sample("a", pm_a, mask_a), Sample("b", pm_b, mask_b))
        )
        _, out_batch = self.make_sets()
        br = combined_objective(in_batch, out_batch, 0.5)
        expected = 0.5 * (-math.log(0.5) - math.log(0.75))
        assert br.l_in == pytest.approx(expected, rel=1e-12)

    def test_zero_weight_side_may_be_empty(self):
        in_batch, out_batch = self.make_sets()
        empty = SampleSet(())
        assert combined_objective(in_batch, empty, 0.0).l_out == 0.0
        assert combined_objective(empty, out_batch, 1.0).l_in == 0.0

    def test_nonzero_weight_requires_samples(self):
        in_batch, out_batch = self.make_sets()
        empty = SampleSet(())
        with pytest.raises(ValueError, match="out_batch is empty"):
            combined_objective(in_batch, empty, 0.5)
        with pytest.raises(ValueError, match="in_batch is empty"):
            combined_objective(empty, out_batch, 0.5)

    def test_lambda_range_validated(self):
        in_batch, out_batch = self.make_sets()
        for lam in (-0.1, 1.1):
            with pytest.raises(ValueError, match="lambda"):
                combined_objective(in_batch, out_batch, lam)
