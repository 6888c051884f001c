"""Tests for raster containers and the RAST/PGM file formats."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metaseg import raster
from metaseg.raster import (
    IGNORE_LABEL,
    OOD_LABEL,
    LabelMask,
    ProbabilityMap,
    RasterFormatError,
    Sample,
    SampleSet,
    ScoreMap,
    atomic_write_bytes,
    load_mask,
    load_probability_map,
    load_samples,
    load_score_map,
    save_mask,
    save_probability_map,
    save_samples,
    save_score_map,
)

MAGIC = b"RASTv001"


def random_pmap(rng, h, w, c):
    raw = rng.random((h, w, c)) + 1e-3
    return ProbabilityMap(raw / raw.sum(axis=2, keepdims=True))


def rast_file(tmp_path, name, arr):
    """Write a raw RAST file directly, bypassing the library writer."""
    h, w, c = arr.shape
    data = MAGIC + struct.pack("<III", h, w, c)
    data += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    path = tmp_path / name
    path.write_bytes(data)
    return path


class TestProbabilityMap:
    def test_valid_construction(self):
        pm = ProbabilityMap(np.full((2, 3, 4), 0.25))
        assert (pm.height, pm.width, pm.num_classes) == (2, 3, 4)
        assert pm.values.dtype == np.float64

    def test_arrays_are_read_only(self):
        pm = ProbabilityMap(np.full((1, 1, 2), 0.5))
        with pytest.raises(ValueError):
            pm.values[0, 0, 0] = 0.9

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ProbabilityMap(np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            ProbabilityMap(np.ones((2, 2, 1)))

    def test_rejects_out_of_range(self):
        arr = np.full((1, 1, 2), 0.5)
        arr[0, 0, 0] = -0.1
        arr[0, 0, 1] = 1.1
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProbabilityMap(arr)

    def test_rejects_bad_sums(self):
        with pytest.raises(ValueError, match="sum"):
            ProbabilityMap(np.full((1, 1, 2), 0.6))

    def test_rejects_non_finite(self):
        arr = np.full((2, 2, 2), 0.5)
        arr[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match=r"non-finite value at \(1, 0, 1\)"):
            ProbabilityMap(arr)

    def test_float32_signalling_nan_rejected_without_warning(self):
        arr = np.array([0x7F800001, 0], dtype="<u4").view("<f4").reshape(1, 1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                ProbabilityMap(arr)
            with pytest.raises(ValueError, match="non-finite"):
                ScoreMap(arr[:, :, 0])

    def test_accepts_small_sum_drift(self):
        # Within the documented tolerance the constructor must not reject.
        arr = np.full((1, 1, 2), 0.5)
        arr[0, 0, 0] += 4e-6
        ProbabilityMap(arr)


class TestLabelMask:
    def test_helpers_partition_pixels(self):
        m = LabelMask(np.array([[0, 5], [OOD_LABEL, IGNORE_LABEL]], dtype=np.uint8))
        assert m.is_ood().sum() == 1
        assert m.is_ignore().sum() == 1
        assert m.is_class().sum() == 2
        total = m.is_ood() | m.is_ignore() | m.is_class()
        assert total.all()

    def test_accepts_wider_ints_in_byte_range(self):
        m = LabelMask(np.array([[0, 254]], dtype=np.int64))
        assert m.labels.dtype == np.uint8

    def test_rejects_out_of_byte_range(self):
        with pytest.raises(ValueError):
            LabelMask(np.array([[0, 256]], dtype=np.int64))

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            LabelMask(np.array([[0.0, 1.0]]))


class TestScoreMap:
    def test_clamps_tiny_excursions(self):
        sm = ScoreMap(np.array([[1.0 + 1e-13, -1e-13]]))
        assert sm.scores.max() <= 1.0
        assert sm.scores.min() >= 0.0

    def test_rejects_real_excursions(self):
        with pytest.raises(ValueError):
            ScoreMap(np.array([[1.001]]))
        with pytest.raises(ValueError):
            ScoreMap(np.array([[-0.001]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ScoreMap(np.array([[np.nan]]))


class TestCallerArraysStayWriteable:
    """A container keeps a read-only copy of an array the caller passed;
    the caller's array stays writeable and later writes to it do not
    reach the container."""

    def test_probability_map(self):
        a = np.full((1, 1, 2), 0.5)
        pmap = ProbabilityMap(a)
        a[0, 0, 0] = 0.4
        assert pmap.values[0, 0, 0] == 0.5
        assert not pmap.values.flags.writeable

    def test_label_mask(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        mask = LabelMask(a)
        a[0, 0] = OOD_LABEL
        assert not mask.is_ood().any()
        assert not mask.labels.flags.writeable

    def test_score_map(self):
        a = np.full((2, 2), 0.5)
        sm = ScoreMap(a)
        a[0, 0] = 0.9
        assert sm.scores[0, 0] == 0.5
        assert not sm.scores.flags.writeable


class TestSampleSet:
    def test_dim_mismatch_rejected(self):
        pm = ProbabilityMap(np.full((2, 2, 2), 0.5))
        mask = LabelMask(np.zeros((3, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="2x2"):
            Sample("a", pm, mask)

    def test_duplicate_ids_rejected(self):
        pm = ProbabilityMap(np.full((1, 1, 2), 0.5))
        mask = LabelMask(np.zeros((1, 1), dtype=np.uint8))
        s = Sample("a", pm, mask)
        with pytest.raises(ValueError, match="unique"):
            SampleSet((s, s))

    def test_iteration_preserves_order(self):
        pm = ProbabilityMap(np.full((1, 1, 2), 0.5))
        mask = LabelMask(np.zeros((1, 1), dtype=np.uint8))
        ss = SampleSet(tuple(Sample(f"s{i}", pm, mask) for i in range(4)))
        assert ss.ids == ("s0", "s1", "s2", "s3")
        assert len(ss) == 4
        assert ss[2].id == "s2"


class TestRastRoundTrip:
    def test_dyadic_values_round_trip_bit_exact(self, tmp_path):
        # Values exactly representable in float32 survive save/load/save
        # without a single differing byte.
        arr = np.array([[[0.25, 0.75], [0.5, 0.5]], [[1.0, 0.0], [0.125, 0.875]]])
        p1 = tmp_path / "a.rast"
        p2 = tmp_path / "b.rast"
        save_probability_map(ProbabilityMap(arr), p1)
        save_probability_map(load_probability_map(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_random_values_round_trip_within_f32(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(10):
            pm = random_pmap(rng, 4, 5, 7)
            path = tmp_path / f"t{trial}.rast"
            save_probability_map(pm, path)
            back = load_probability_map(path)
            np.testing.assert_allclose(back.values, pm.values, atol=2e-6)
            np.testing.assert_allclose(back.values.sum(axis=2), 1.0, atol=1e-5)

    def test_score_map_round_trip(self, tmp_path):
        sm = ScoreMap(np.array([[0.0, 0.5], [1.0, 0.25]]))
        path = tmp_path / "s.score.rast"
        save_score_map(sm, path)
        back = load_score_map(path)
        np.testing.assert_array_equal(back.scores, sm.scores)

    def test_score_map_rejection_names_file(self, tmp_path):
        path = rast_file(tmp_path, "hot.rast", np.full((2, 2, 1), 1.5))
        with pytest.raises(RasterFormatError, match="hot.rast: scores must lie"):
            load_score_map(path)

    def test_score_map_rejects_multichannel(self, tmp_path):
        path = rast_file(tmp_path, "bad.rast", np.full((2, 2, 3), 0.25))
        with pytest.raises(RasterFormatError, match="C=1"):
            load_score_map(path)

    def test_score_map_refuses_multichannel_before_reading_it(self, tmp_path):
        pm = random_pmap(np.random.default_rng(4), 256, 512, 19)
        path = tmp_path / "probs.rast"
        save_probability_map(pm, path)
        nbytes = pm.values.nbytes
        del pm
        tracemalloc.start()
        try:
            with pytest.raises(RasterFormatError,
                               match="probs.rast: score map must have C=1, got 19"):
                load_score_map(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * nbytes, peak / nbytes

    # Reusing one tmp_path across examples is fine: each example fully
    # overwrites the same file.
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        h=st.integers(1, 5),
        w=st.integers(1, 5),
        c=st.integers(2, 6),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_property(self, tmp_path, h, w, c, seed):
        pm = random_pmap(np.random.default_rng(seed), h, w, c)
        path = tmp_path / "p.rast"
        save_probability_map(pm, path)
        back = load_probability_map(path)
        assert back.values.shape == (h, w, c)
        np.testing.assert_allclose(back.values, pm.values, atol=2e-6)


class TestRastValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rast"
        path.write_bytes(b"NOTRAST!" + b"\x00" * 16)
        with pytest.raises(RasterFormatError, match="bad magic"):
            load_probability_map(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.rast"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(RasterFormatError, match="truncated"):
            load_probability_map(path)

    def test_truncated_payload(self, tmp_path):
        good = MAGIC + struct.pack("<III", 2, 2, 2) + b"\x00" * 32
        path = tmp_path / "trunc.rast"
        path.write_bytes(good[:-4])
        with pytest.raises(RasterFormatError, match="payload"):
            load_probability_map(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge.rast"
        path.write_bytes(MAGIC + struct.pack("<III", 1 << 20, 1 << 20, 4))
        with pytest.raises(RasterFormatError, match="dimension overflow"):
            load_probability_map(path)

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "zero.rast"
        path.write_bytes(MAGIC + struct.pack("<III", 0, 2, 2))
        with pytest.raises(RasterFormatError, match="dimension"):
            load_probability_map(path)

    def test_nan_payload(self, tmp_path):
        arr = np.full((2, 2, 2), 0.5, dtype=np.float64)
        arr[0, 1, 0] = np.nan
        path = rast_file(tmp_path, "nan.rast", arr)
        with pytest.raises(RasterFormatError, match=r"non-finite value at \(0, 1, 0\)"):
            load_probability_map(path)

    def test_sum_far_from_one_rejected(self, tmp_path):
        path = rast_file(tmp_path, "off.rast", np.full((1, 1, 2), 0.51))
        with pytest.raises(RasterFormatError, match="sum"):
            load_probability_map(path)

    def test_small_drift_renormalized(self, tmp_path):
        arr = np.full((1, 1, 4), 0.25)
        arr[0, 0, 0] += 3e-6
        path = rast_file(tmp_path, "drift.rast", arr)
        pm = load_probability_map(path)
        np.testing.assert_allclose(pm.values.sum(axis=2), 1.0, atol=1e-12)

    def test_loader_and_constructor_agree_bit_for_bit(self, tmp_path):
        # One path validates and renormalizes both loaded and in-memory maps.
        rng = np.random.default_rng(11)
        raw = rng.random((3, 4, 5)) + 1e-3
        arr = (raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
        arr[1, 2, 0] += np.float32(3e-6)
        path = rast_file(tmp_path, "drift.rast", arr)
        loaded = load_probability_map(path).values
        built = ProbabilityMap(arr).values
        np.testing.assert_array_equal(loaded, built)
        assert abs(built[1, 2].sum() - 1.0) < 1e-12

    def test_negative_probability_rejected(self, tmp_path):
        arr = np.zeros((1, 1, 2))
        arr[0, 0, 0] = -0.25
        arr[0, 0, 1] = 1.25
        path = rast_file(tmp_path, "neg.rast", arr)
        with pytest.raises(RasterFormatError, match=r"outside \[0, 1\]"):
            load_probability_map(path)


def drifted_f32_map(seed, h, w, c, drift):
    """A float32 map summing to 1 up to float32 noise, with `drift` added
    to the first class of every third pixel."""
    raw = np.random.default_rng(seed).random((h, w, c)) + 1e-3
    arr = (raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
    arr.reshape(-1, c)[::3, 0] += np.float32(drift)
    return arr


class TestStreamedLoad:
    """The loader streams the file in chunks into the map's own array and
    checks finiteness block by block; the in-memory constructor over the
    file's float32 view is the oracle."""

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(raster, "_CHUNK_VALUES", 7)
        monkeypatch.setattr(raster, "_BLOCK_VALUES", 5)

    @staticmethod
    def oracle(path):
        data = path.read_bytes()
        h, w, c = struct.unpack("<III", data[8:20])
        return ProbabilityMap(np.frombuffer(data, "<f4", offset=20).reshape(h, w, c))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        h=st.integers(1, 6), w=st.integers(1, 6), c=st.integers(2, 5),
        seed=st.integers(0, 2**16),
        drift=st.sampled_from([0.0, 3e-6, -4e-6]),
    )
    def test_matches_constructor_bit_for_bit(self, tmp_path, small_chunks,
                                             h, w, c, seed, drift):
        arr = drifted_f32_map(seed, h, w, c, drift)
        path = rast_file(tmp_path, "p.rast", arr)
        loaded = load_probability_map(path).values
        expected = self.oracle(path).values
        assert loaded.shape == expected.shape
        assert loaded.tobytes() == expected.tobytes()
        # Exact sums pass through untouched; drifted ones are renormalized.
        untouched = loaded.tobytes() == arr.astype(np.float64).tobytes()
        assert untouched == (drift == 0.0)

    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001])  # NaN, signalling NaN
    def test_non_finite_past_first_block_names_whole_map_index(
        self, tmp_path, small_chunks, bits
    ):
        arr = np.full((3, 4, 2), 0.5, dtype=np.float32)
        arr.view("<u4")[2, 1, 1] = bits
        arr.view("<u4")[2, 3, 0] = bits
        path = rast_file(tmp_path, "nan.rast", arr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RasterFormatError,
                               match=r"nan.rast: non-finite value at \(2, 1, 1\)"):
                load_probability_map(path)

    def test_non_finite_reported_before_an_earlier_range_fault(
        self, tmp_path, small_chunks
    ):
        arr = np.full((3, 4, 2), 0.5)
        arr[0, 0] = (-0.5, 1.5)
        arr[2, 2, 1] = np.nan
        path = rast_file(tmp_path, "mixed.rast", arr)
        with pytest.raises(RasterFormatError, match=r"non-finite value at \(2, 2, 1\)"):
            load_probability_map(path)

    def test_short_read_rejected(self, tmp_path, small_chunks, monkeypatch):
        path = rast_file(tmp_path, "p.rast", np.full((3, 4, 2), 0.5))
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
        with pytest.raises(RasterFormatError, match="p.rast"):
            load_probability_map(path)

    def test_memory_bounded_by_the_map(self, tmp_path):
        pm = random_pmap(np.random.default_rng(2), 256, 512, 19)
        path = tmp_path / "big.rast"
        save_probability_map(pm, path)
        nbytes = pm.values.nbytes
        del pm
        tracemalloc.start()
        try:
            loaded = load_probability_map(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * nbytes, peak / nbytes
        assert not loaded.values.flags.writeable
        assert loaded.values.flags.owndata


def whole_map_check(values):
    """The probability-map checks as whole-array expressions (the oracle
    of the block-wise check): the renormalized float64 map, or the
    message of its first fault."""
    arr = np.array(values, dtype=np.float64)
    bad = ~np.isfinite(arr)
    if bad.any():
        r, col, k = np.argwhere(bad)[0]
        return f"non-finite value at ({r}, {col}, {k})"
    if arr.min() < 0.0 or arr.max() > 1.0:
        return "probabilities outside [0, 1]"
    sums = arr.sum(axis=2)
    dev = np.abs(sums - 1.0)
    if dev.max() > raster.PROB_SUM_TOL:
        r, col = np.unravel_index(int(dev.argmax()), dev.shape)
        return f"pixel ({r}, {col}) probabilities sum to {sums[r, col]:.8f}"
    renorm = dev > 1e-7
    arr[renorm] /= sums[renorm][:, None]
    return arr


class TestBlockCheck:
    """The constructor's block-wise check against the whole-array checks,
    on maps with faults and drift scattered over many blocks."""

    # (value, whether it replaces a probability rather than adds to it):
    # non-finite values, range faults, a sum fault and in-tolerance drift.
    FAULTS = ((np.nan, True), (np.inf, True), (-np.inf, True), (-0.25, True),
              (1.25, True), (0.2, False), (3e-6, False), (-4e-6, False))

    @settings(max_examples=150, deadline=None)
    @given(
        h=st.integers(1, 5), w=st.integers(1, 5), c=st.integers(2, 4),
        seed=st.integers(0, 2**16), block=st.sampled_from([1, 5, 8, 1 << 16]),
        faults=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 3),
                                  st.sampled_from(FAULTS)), max_size=4),
    )
    def test_matches_whole_map_checks(self, h, w, c, seed, block, faults):
        raw = np.random.default_rng(seed).random((h, w, c)) + 1e-3
        arr = raw / raw.sum(axis=2, keepdims=True)
        flat = arr.reshape(-1, c)
        for pixel, k, (value, replaces) in faults:
            pixel, k = pixel % len(flat), k % c
            flat[pixel, k] = value if replaces else flat[pixel, k] + value
        expected = whole_map_check(arr)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(raster, "_BLOCK_VALUES", block)
            if isinstance(expected, str):
                with pytest.raises(ValueError) as exc:
                    ProbabilityMap(arr)
                assert str(exc.value) == expected
            else:
                assert ProbabilityMap(arr).values.tobytes() == expected.tobytes()


class TestPgmMasks:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 19, size=(6, 4)).astype(np.uint8)
        labels[0, 0] = OOD_LABEL
        labels[5, 3] = IGNORE_LABEL
        path = tmp_path / "m.pgm"
        save_mask(LabelMask(labels), path)
        back = load_mask(path)
        np.testing.assert_array_equal(back.labels, labels)

    def test_header_comments_ignored(self, tmp_path):
        payload = bytes([0, 1, 2, 3])
        data = b"P5\n# a comment line\n2 2\n# another\n255\n" + payload
        path = tmp_path / "c.pgm"
        path.write_bytes(data)
        back = load_mask(path)
        np.testing.assert_array_equal(back.labels, [[0, 1], [2, 3]])

    def test_label_remapping(self, tmp_path):
        # Foreign convention: OOD stored as 1, ignore as 2.
        raw = np.array([[0, 1], [2, 0]], dtype=np.uint8)
        path = tmp_path / "r.pgm"
        save_mask(LabelMask(raw), path)
        back = load_mask(path, ood_label=1, ignore_label=2)
        expected = np.array([[0, OOD_LABEL], [IGNORE_LABEL, 0]], dtype=np.uint8)
        np.testing.assert_array_equal(back.labels, expected)

    def test_unknown_label_rejected(self, tmp_path):
        raw = np.array([[0, 200]], dtype=np.uint8)
        path = tmp_path / "u.pgm"
        save_mask(LabelMask(raw), path)
        with pytest.raises(RasterFormatError, match=r"unknown label 200 at \(0, 1\)"):
            load_mask(path, num_classes=19)

    def test_ood_equals_ignore_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        save_mask(LabelMask(np.zeros((1, 1), dtype=np.uint8)), path)
        with pytest.raises(ValueError, match="differ"):
            load_mask(path, ood_label=7, ignore_label=7)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(RasterFormatError, match="P5"):
            load_mask(path)

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "sz.pgm"
        path.write_bytes(b"P5\n3 3\n255\n" + b"\x00" * 5)
        with pytest.raises(RasterFormatError, match="payload"):
            load_mask(path)


def rast_bytes_strategy():
    """Arbitrary bytes, and RAST headers of small dimensions followed by
    arbitrary payloads, some of them of the declared size."""
    header = st.builds(
        lambda h, w, c: MAGIC + struct.pack("<III", h, w, c),
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
    )
    exact = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda d: st.binary(min_size=4 * d[0] * d[1] * d[2],
                            max_size=4 * d[0] * d[1] * d[2]).map(
            lambda payload: MAGIC + struct.pack("<III", *d) + payload)
    )
    return st.one_of(
        st.binary(max_size=64),
        st.tuples(header, st.binary(max_size=48)).map(b"".join),
        exact,
    )


def pgm_bytes_strategy():
    """Arbitrary bytes, and P5 headers (possibly malformed) followed by
    arbitrary payloads."""
    token = st.one_of(
        st.integers(-2, 300).map(lambda n: str(n).encode()),
        st.binary(min_size=1, max_size=4),
    )
    sep = st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n", b""])
    header = st.tuples(
        st.sampled_from([b"P5", b"P2", b"P"]), sep, token, sep, token, sep,
        token, sep,
    ).map(b"".join)
    return st.one_of(
        st.binary(max_size=64),
        st.tuples(header, st.binary(max_size=32)).map(b"".join),
    )


class TestParserFuzz:
    """Any bytes either parse or raise a ValueError subclass."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=rast_bytes_strategy())
    def test_rast_parsers(self, tmp_path, data):
        path = tmp_path / "f.rast"
        path.write_bytes(data)
        for load in (load_probability_map, load_score_map):
            try:
                load(path)
            except ValueError:
                pass

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=pgm_bytes_strategy(), num_classes=st.sampled_from([None, 19]))
    def test_pgm_parser(self, tmp_path, data, num_classes):
        path = tmp_path / "f.pgm"
        path.write_bytes(data)
        try:
            load_mask(path, num_classes=num_classes)
        except ValueError:
            pass


class TestSampleDirectories:
    def build_set(self, rng, n=3):
        out = []
        for i in range(n):
            pm = random_pmap(rng, 3, 4, 5)
            labels = rng.integers(0, 5, size=(3, 4)).astype(np.uint8)
            labels[0, 0] = OOD_LABEL
            out.append(Sample(f"img_{i:03d}", pm, LabelMask(labels)))
        return SampleSet(tuple(out))

    def test_round_trip(self, tmp_path):
        ss = self.build_set(np.random.default_rng(5))
        save_samples(ss, tmp_path / "d")
        back = load_samples(tmp_path / "d")
        assert back.ids == ss.ids
        for a, b in zip(ss, back):
            np.testing.assert_allclose(a.pmap.values, b.pmap.values, atol=2e-6)
            np.testing.assert_array_equal(a.mask.labels, b.mask.labels)

    def test_score_rasters_skipped(self, tmp_path):
        ss = self.build_set(np.random.default_rng(6))
        save_samples(ss, tmp_path / "d")
        save_score_map(
            ScoreMap(np.zeros((2, 2))), tmp_path / "d" / "img_000.score.rast"
        )
        back = load_samples(tmp_path / "d")
        assert back.ids == ss.ids

    def test_missing_mask_rejected(self, tmp_path):
        ss = self.build_set(np.random.default_rng(7), n=1)
        save_samples(ss, tmp_path / "d")
        (tmp_path / "d" / "img_000.pgm").unlink()
        with pytest.raises(RasterFormatError, match="no matching mask"):
            load_samples(tmp_path / "d")

    def test_empty_directory_rejected(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(RasterFormatError, match="no sample pairs"):
            load_samples(tmp_path / "d")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_samples(tmp_path / "nope")


class TestAtomicWrites:
    def test_no_temp_files_left(self, tmp_path):
        atomic_write_bytes(tmp_path / "f.bin", b"abc")
        assert (tmp_path / "f.bin").read_bytes() == b"abc"
        leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []

    def test_overwrite_replaces_content(self, tmp_path):
        path = tmp_path / "g.bin"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"
