"""Tests for the meta-classifier models, training loop, and model files.

Analytic gradients are cross-checked against central finite differences
computed directly from the loss, sharing no code with backpropagation.
"""

import dataclasses
import hashlib
import math
import re
import struct
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pixel_sets import pixel_sets
from sample_dirs import iid_sample, loaded_samples
from test_blas_default import _blas_getter, needs_openblas

import metaseg
from metaseg import features, metaclf, raster, scoring, synth
from metaseg.features import (
    MetricsDataset, StandardizationStats, build_metrics_dataset,
)
from metaseg.metaclf import (
    HIDDEN_DIMS,
    MetaModel,
    MlpModel,
    TrainConfig,
    bce_loss,
    count_parameters,
    glorot_init_vector,
    gradient,
    load_model,
    parameter_breakdown,
    predict_batch,
    remove_false_positives,
    save_model,
    sigmoid,
    train,
)
from metaseg.raster import LabelMask, ProbabilityMap, Sample
from metaseg.segments import ThresholdConfig, label_image


def toy_dataset(rows, labels):
    rows = np.asarray(rows, dtype=np.float64)
    names = [f"m{i}" for i in range(rows.shape[1])]
    groups = tuple(f"g{i}" for i in range(rows.shape[0]))
    return MetricsDataset(rows, np.asarray(labels, dtype=bool), groups, names)


def logistic(weights, bias):
    """The one-layer core with these weights and bias."""
    w = np.asarray(weights, dtype=np.float64).reshape(-1, 1)
    return MlpModel(layers=((w, [float(bias)]),))


def pinned_models():
    """Two hand-built models (no training, so no BLAS): a logistic one
    and an MLP with a threshold."""
    stats = StandardizationStats(np.array([0.0, 1.0, -2.5]), np.array([1.0, 2.0, 0.5]))
    rng = np.random.Generator(np.random.PCG64(0))
    return [
        MetaModel(logistic(np.arange(3) / 4, 0.5), stats, TrainConfig()),
        MetaModel(MlpModel.from_dims((3, 4, 1), rng), stats, TrainConfig(),
                  threshold=0.7),
    ]


def v1_model_bytes(meta, path) -> bytes:
    """`meta` in model format v1, which restated the kind, the input
    width and the two activations in header lines, counted the parameters
    on a `params N` line and stored them as a 1 x 1 x N RAST block.  Built
    from the v2 file `save_model` writes to `path`."""
    save_model(meta, path)
    head, _, payload = path.read_bytes().partition(b"\nparams\n")
    lines = head.split(b"\n")
    n = len(payload) // 4
    v1 = [b"metaseg-model v1", f"kind {meta.kind}".encode(),
          f"n_features {meta.core.n_features}".encode(), lines[1],
          b"hidden_activation relu", b"output_activation sigmoid", *lines[2:],
          f"params {n}".encode()]
    return (b"\n".join(v1) + b"\nRASTv001" + struct.pack("<III", 1, 1, n)
            + payload)


def fd_gradient(model, x, y, h=1e-5):
    """Central finite differences of the batch-mean BCE."""
    theta = model.to_vector()
    out = np.zeros_like(theta)
    n = np.asarray(x).shape[0]
    for k in range(theta.shape[0]):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        pp = predict_batch(model.with_vector(tp), x)
        pm = predict_batch(model.with_vector(tm), x)
        out[k] = (bce_loss(pp, y) / n - bce_loss(pm, y) / n) / (2 * h)
    return out


def min_preactivation_gap(model, x):
    """Smallest |hidden pre-activation| over the batch; infinity for a
    model without hidden layers.

    The loss is non-differentiable where a rectifier input is exactly
    zero, so finite-difference checks are valid only with a clear margin
    from that kink.
    """
    gap = np.inf
    a = np.asarray(x, dtype=np.float64)
    for w, b in model.layers[:-1]:
        z = a @ w + b
        gap = min(gap, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return gap


class TestParameterCounts:
    def test_standard_mlp_breakdown(self):
        model = MlpModel.from_dims((75, *HIDDEN_DIMS["mlp"], 1))
        assert count_parameters(model) == 17176
        assert parameter_breakdown(model) == [5700, 5700, 5700, 76]
        assert model.layer_dims == (75, 75, 75, 75, 1)

    def test_logistic_count(self):
        model = MlpModel.from_dims((75, *HIDDEN_DIMS["logistic"], 1))
        assert count_parameters(model) == 76
        assert parameter_breakdown(model) == [76]

    def test_small_mlp_count(self):
        model = MlpModel.from_dims((2, 75, 75, 1))
        # 2*75+75 + 75*75+75 + 75*1+1
        assert count_parameters(model) == 6001

    def test_count_scales_with_features(self):
        for n in (5, 20, 75):
            model = MlpModel.from_dims((n, *HIDDEN_DIMS["mlp"], 1))
            assert count_parameters(model) == (
                n * 75 + 75 + 2 * (75 * 75 + 75) + 75 + 1
            )

    def test_vector_round_trip(self):
        rng = np.random.default_rng(79)
        model = MlpModel.from_dims((4, 6, 1), rng)
        vec = model.to_vector()
        again = model.with_vector(vec)
        np.testing.assert_array_equal(again.to_vector(), vec)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            MlpModel.from_dims((4, 6, 2))  # output must be one unit


class TestPrediction:
    def test_zero_parameters_give_half(self):
        for dims in ((3, 1), (3, 4, 1)):
            model = MlpModel.from_dims(dims)
            assert predict_batch(model, np.ones((1, 3))).tolist() == [0.5]

    def test_known_sigmoid_value(self):
        lg = logistic([1.0], 0.0)
        assert predict_batch(lg, [[math.log(3.0)]])[0] == pytest.approx(0.75, abs=1e-12)

    def test_sigmoid_stability(self):
        assert sigmoid(np.array([1000.0]))[0] == 1.0
        assert sigmoid(np.array([-1000.0]))[0] == 0.0
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(83)
        model = MlpModel.from_dims((5, 8, 8, 1), rng)
        p = predict_batch(model, rng.normal(0, 10, (100, 5)))
        assert p.min() >= 0.0 and p.max() <= 1.0

    def test_feature_count_checked(self):
        lg = MlpModel.from_dims((3, 1))
        with pytest.raises(ValueError, match="expects 3"):
            predict_batch(lg, np.ones((1, 4)))
        with pytest.raises(ValueError, match="rows"):
            predict_batch(lg, np.ones((2, 4)))

    def test_sigmoid_bits_match_masked_formula(self):
        # The formula `sigmoid` replaced: each branch computed on the
        # elements of its sign only, through boolean masks.
        def masked(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        rng = np.random.default_rng(91)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
                    745.0, -745.0, 1e-300, -1e-300]
        z = np.concatenate([specials, rng.normal(0, 20, 10_000),
                            rng.uniform(-800, 800, 1_000)])
        np.testing.assert_array_equal(sigmoid(z).view(np.uint64),
                                      masked(z).view(np.uint64))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(89)
        model = MlpModel.from_dims((4, 6, 1), rng)
        rows = rng.normal(0, 1, (10, 4))
        batch = predict_batch(model, rows)
        for i in range(10):
            single = predict_batch(model, rows[i : i + 1])[0]
            assert batch[i] == pytest.approx(single, abs=1e-15)


class TestBceLoss:
    def test_half_prediction_is_log2(self):
        assert bce_loss([0.5], [1]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_known_value(self):
        assert bce_loss([0.75], [1]) == pytest.approx(
            0.2876820724517809, abs=1e-12
        )

    def test_sum_form(self):
        p = [0.5, 0.5, 0.5]
        assert bce_loss(p, [1, 1, 1]) == pytest.approx(3 * math.log(2.0), abs=1e-12)

    def test_clamp_keeps_loss_finite(self):
        assert np.isfinite(bce_loss([0.0], [1]))
        assert np.isfinite(bce_loss([1.0], [0]))
        assert bce_loss([0.0], [1]) == pytest.approx(-math.log(1e-12), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="length mismatch"):
            bce_loss([0.5], [1, 0])
        with pytest.raises(ValueError, match="empty"):
            bce_loss([], [])


class TestGradient:
    def test_zero_logistic_closed_form(self):
        # At zero parameters p = 1/2, so the mean-BCE gradient for a
        # single (x, y=1) row is (-x/2, -1/2).
        lg = MlpModel.from_dims((3, 1))
        x = np.array([1.0, -2.0, 0.5])
        g = gradient(lg, x, [1])
        np.testing.assert_allclose(g[:3], -x / 2.0, atol=1e-15)
        assert g[3] == pytest.approx(-0.5, abs=1e-15)

    def test_duplicated_rows_leave_mean_gradient_unchanged(self):
        rng = np.random.default_rng(97)
        model = MlpModel.from_dims((3, 5, 1), rng)
        x = rng.normal(0, 1, (4, 3))
        y = np.array([1.0, 0.0, 1.0, 0.0])
        g1 = gradient(model, x, y)
        g2 = gradient(model, np.vstack([x, x]), np.concatenate([y, y]))
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 20:
            if checked % 2 == 0:
                model = logistic(rng.normal(0, 0.5, 3), rng.normal())
            else:
                model = MlpModel.from_dims((3, 4, 4, 1), rng)
            x = rng.normal(0, 1, (int(rng.integers(1, 6)), 3))
            y = (rng.random(x.shape[0]) < 0.5).astype(np.float64)
            if min_preactivation_gap(model, x) < 1e-3:
                continue  # too close to a rectifier kink for FD to apply
            ga = gradient(model, x, y)
            gfd = fd_gradient(model, x, y)
            denom = max(float(np.linalg.norm(gfd)), 1e-12)
            assert np.linalg.norm(ga - gfd) / denom < 1e-6
            checked += 1

    def test_validation(self):
        lg = MlpModel.from_dims((2, 1))
        with pytest.raises(ValueError, match="empty"):
            gradient(lg, np.zeros((0, 2)), [])
        with pytest.raises(ValueError, match="equal length"):
            gradient(lg, np.zeros((2, 2)), [1])


class TestGlorotInit:
    def test_bounds_and_zero_biases(self):
        rng = np.random.default_rng(103)
        dims = (10, 7, 1)
        vec = glorot_init_vector(dims, rng)
        w1 = vec[:70]
        b1 = vec[70:77]
        w2 = vec[77:84]
        b2 = vec[84:]
        assert np.abs(w1).max() <= math.sqrt(6.0 / 17.0)
        assert np.abs(w2).max() <= math.sqrt(6.0 / 8.0)
        np.testing.assert_array_equal(b1, 0.0)
        np.testing.assert_array_equal(b2, 0.0)

    def test_deterministic_per_seed(self):
        a = glorot_init_vector((5, 3, 1), np.random.Generator(np.random.PCG64(7)))
        b = glorot_init_vector((5, 3, 1), np.random.Generator(np.random.PCG64(7)))
        np.testing.assert_array_equal(a, b)


def separable_dataset(n=40, seed=71):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2 == 0
    x = np.column_stack([
        np.where(y, 3.0, -3.0) + rng.normal(0, 0.3, n),
        rng.normal(0, 1, n),
    ])
    return toy_dataset(x, y)


def pinned_dataset():
    """45 rows of 6 metrics, all exact multiples of 1/4, with labels that
    no metric separates."""
    i = np.arange(45)[:, None]
    rows = ((i * 7 + np.arange(6) * 13) % 17 - 8) / 4.0
    return toy_dataset(rows, (i[:, 0] * 5) % 3 == 0)


def xor_dataset(reps=32, seed=71):
    rng = np.random.default_rng(seed)
    base = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    x = np.tile(base, (reps, 1)) + rng.normal(0, 0.1, (4 * reps, 2))
    y = np.tile(np.array([False, True, True, False]), reps)
    return toy_dataset(x, y)


class TestTraining:
    def test_both_kinds_fit_separable_data(self):
        ds = separable_dataset()
        cfg = TrainConfig(learning_rate=0.05, epochs=200, batch_size=8, seed=1)
        for hidden_dims in ((), (8, 8)):
            meta, trace = train(ds, cfg, hidden_dims=hidden_dims)
            p = meta.predict_raw_batch(ds.rows)
            assert np.mean((p >= 0.5) == ds.labels) == 1.0
            assert trace[-1] < trace[0]

    def test_mlp_solves_xor_logistic_cannot(self):
        ds = xor_dataset()
        cfg = TrainConfig(learning_rate=0.02, epochs=300, batch_size=16, seed=3)
        meta_mlp, _ = train(ds, cfg, hidden_dims=(8, 8))
        acc_mlp = np.mean((meta_mlp.predict_raw_batch(ds.rows) >= 0.5) == ds.labels)
        assert acc_mlp >= 0.95
        meta_lg, _ = train(ds, cfg, hidden_dims=())
        acc_lg = np.mean((meta_lg.predict_raw_batch(ds.rows) >= 0.5) == ds.labels)
        assert acc_lg <= 0.75

    def test_bit_deterministic(self):
        ds = separable_dataset()
        cfg = TrainConfig(epochs=5, seed=9)
        a, trace_a = train(ds, cfg, hidden_dims=(6, 6))
        b, trace_b = train(ds, cfg, hidden_dims=(6, 6))
        np.testing.assert_array_equal(a.core.to_vector(), b.core.to_vector())
        assert trace_a == trace_b

    def test_bits_pinned(self):
        # Digests recorded before the in-place Adam step, so a reordered
        # float operation in the optimizer fails here even though two runs
        # of the same code agree.  45 rows in batches of 16 end in a short
        # batch.  The inputs are exact binary fractions; the digests hold
        # for x86-64 numpy 2.x with its bundled OpenBLAS.
        ds = pinned_dataset()
        cfg = TrainConfig(learning_rate=0.01, epochs=4, batch_size=16, seed=3)
        cases = [
            ("mlp", (8, 8),
             "0505ac9f608e95d566f75b2471638d271b46cc6416a1bb6f417c19885cc2e3f3",
             "93e21731562e8fe364e65899f26891d72f01753949e873d848f20d632076cc76"),
            ("logistic", HIDDEN_DIMS["logistic"],
             "8c1e853145a5acb5fe34f61b8746ce824e9bee9dfb67a751c8631a35c9efdfc6",
             "d403887a81b7b38bc77de1266c8231dfdf714badab8a51af04bd6be2d37435bb"),
        ]
        for kind, hidden_dims, params_digest, trace_digest in cases:
            meta, trace = train(ds, cfg, hidden_dims=hidden_dims)
            vec = meta.core.to_vector().tobytes()
            assert hashlib.sha256(vec).hexdigest() == params_digest, kind
            assert hashlib.sha256(repr(trace).encode()).hexdigest() == trace_digest, kind

    def test_seed_changes_parameters(self):
        ds = separable_dataset()
        a, _ = train(ds, TrainConfig(epochs=3, seed=0), hidden_dims=())
        b, _ = train(ds, TrainConfig(epochs=3, seed=1), hidden_dims=())
        assert not np.array_equal(a.core.to_vector(), b.core.to_vector())

    def test_zero_epochs_returns_initialization(self):
        ds = separable_dataset()
        cfg = TrainConfig(epochs=0, seed=4)
        meta, trace = train(ds, cfg, hidden_dims=())
        assert trace == ()
        expected = glorot_init_vector(
            (2, 1), np.random.Generator(np.random.PCG64(4))
        )
        np.testing.assert_array_equal(meta.core.to_vector(), expected)

    def test_trace_length_and_finiteness(self):
        ds = separable_dataset()
        meta, trace = train(ds, TrainConfig(epochs=7, seed=2), hidden_dims=())
        assert len(trace) == 7
        assert all(np.isfinite(v) for v in trace)

    def test_weight_decay_shrinks_weights_not_bias(self):
        # Pure decay exposure: balanced labels at x=0 give zero gradient
        # on weights only when predictions sit at 1/2; with a large decay
        # the weight norm must drop relative to the no-decay run.
        ds = separable_dataset()
        hi, _ = train(ds, TrainConfig(weight_decay=0.5, epochs=30, seed=5),
                      hidden_dims=())
        lo, _ = train(ds, TrainConfig(weight_decay=0.0, epochs=30, seed=5),
                      hidden_dims=())
        (w_hi, _), = hi.core.layers
        (w_lo, _), = lo.core.layers
        assert np.linalg.norm(w_hi) < np.linalg.norm(w_lo)

    def test_single_class_labels_warn(self):
        ds = toy_dataset(np.random.default_rng(0).normal(0, 1, (6, 2)), [1] * 6)
        with pytest.warns(UserWarning, match="single-class"):
            train(ds, TrainConfig(epochs=1, seed=0), hidden_dims=())

    def test_empty_dataset_rejected(self):
        ds = MetricsDataset(np.zeros((0, 1)), np.zeros(0, dtype=bool), (), ["m0"])
        with pytest.raises(ValueError, match="empty"):
            train(ds, TrainConfig(epochs=1), hidden_dims=())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(adam_beta1=1.0)
        for field in ("learning_rate", "weight_decay", "adam_eps"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError,
                                   match=f"{field} must be .* finite, got {value}"):
                    TrainConfig(**{field: value})


@needs_openblas
def test_trained_bits_same_at_two_and_one_blas_threads():
    # The count is set here directly: OpenBLAS splits a product across
    # threads, and the split must not change the bits.
    setter, get = metaseg._blas_setter(), _blas_getter()
    ds = separable_dataset()
    cfg = TrainConfig(epochs=3, batch_size=8, seed=2)
    found = setter(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS did not take a count of 2")
        two = train(ds, cfg, hidden_dims=(6, 6))
        setter(1)
        one = train(ds, cfg, hidden_dims=(6, 6))
    finally:
        setter(found)
    np.testing.assert_array_equal(two[0].core.to_vector(), one[0].core.to_vector())
    assert two[1] == one[1]


def test_concurrent_trains_give_same_bits():
    # More threads than cores and a short switch interval make the trains
    # overlap; each keeps its buffers to itself.
    ds = separable_dataset()
    cfg = TrainConfig(epochs=3, batch_size=8, seed=2)
    expected = train(ds, cfg, hidden_dims=(4,))[0].core.to_vector()
    results = []

    def work():
        for _ in range(5):
            results.append(train(ds, cfg, hidden_dims=(4,))[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 30
    for meta in results:
        np.testing.assert_array_equal(meta.core.to_vector(), expected)


def two_block_sample(c=2, sample_id="s"):
    """A 6 x 6 sample, one-hot on class 0 (score 0) but for two 2 x 2
    blocks of uniform probabilities (score 1): the components of ids 0
    (top left) and 1 (bottom right)."""
    probs = np.zeros((6, 6, c))
    probs[..., 0] = 1.0
    probs[0:2, 0:2] = probs[4:6, 4:6] = 1.0 / c
    return Sample(sample_id, ProbabilityMap(probs), LabelMask(np.zeros((6, 6), np.uint8)))


def four_step_removal(sample, model, decision_threshold=0.5):
    """The removal composed by hand: score the map, label it at the
    model's threshold, take the rows `build_metrics_dataset` gives the
    sample, predict them, and zero each flagged component pixel by pixel.
    Returns (cleaned scores, kept ids)."""
    score = scoring.anomaly_score_map(sample.pmap)
    image = label_image(score.scores >= model.threshold)
    rows = build_metrics_dataset([sample], ThresholdConfig(model.threshold)).rows
    flagged = model.predict_raw_batch(rows) >= decision_threshold
    cleaned = score.scores.copy()
    kept = []
    for k, (pixels, _, _) in enumerate(pixel_sets(image)):
        if flagged[k]:
            for r, c in pixels:
                cleaned[r, c] = 0.0
        else:
            kept.append(k)
    return cleaned, kept


class TestRemoveFalsePositives:
    NAMES = features.metric_names(2)

    def logistic_model(self, weights, bias, names=NAMES, threshold=0.7):
        n = len(names)
        stats = StandardizationStats(np.zeros(n), np.ones(n))
        return MetaModel(core=logistic(weights, bias), stats=stats, config=TrainConfig(),
                         threshold=threshold, feature_names=names)

    def constant_model(self, p_out, **kwargs):
        # Logistic with zero weights: output sigmoid(bias) everywhere.
        n = len(kwargs.get("names", self.NAMES))
        return self.logistic_model(np.zeros(n), math.log(p_out / (1.0 - p_out)), **kwargs)

    def test_row_dependent_model_removes_one_keeps_other(self):
        sample = two_block_sample()
        # The top-left component (id 0, center_row 1/12) gets
        # p = sigmoid(10 - 40 / 12), the other (center_row 3/4) sigmoid(-20).
        weights = np.zeros(len(self.NAMES))
        weights[self.NAMES.index("center_row")] = -40.0
        out, kept = remove_false_positives(sample, self.logistic_model(weights, 10.0))
        assert kept.tolist() == [1]
        expected = scoring.anomaly_score_map(sample.pmap).scores.copy()
        expected[0:2, 0:2] = 0.0
        assert expected[4:6, 4:6].tolist() == [[1.0, 1.0], [1.0, 1.0]]
        np.testing.assert_array_equal(out.scores, expected)

    def test_confident_model_zeroes_components(self):
        out, kept = remove_false_positives(two_block_sample(), self.constant_model(0.9))
        assert kept.tolist() == []
        np.testing.assert_array_equal(out.scores, 0.0)

    def test_unconfident_model_keeps_everything(self):
        sample = two_block_sample()
        out, kept = remove_false_positives(sample, self.constant_model(0.1))
        assert kept.tolist() == [0, 1]
        np.testing.assert_array_equal(
            out.scores, scoring.anomaly_score_map(sample.pmap).scores)

    def test_original_map_untouched(self):
        # Each call scores the map afresh: the sample keeps its map, and a
        # second call gives the same bits in an array of its own.
        sample = two_block_sample()
        before = sample.pmap.values.copy()
        model = self.constant_model(0.9)
        first, _ = remove_false_positives(sample, model)
        second, _ = remove_false_positives(sample, model)
        np.testing.assert_array_equal(sample.pmap.values, before)
        assert first.scores.tobytes() == second.scores.tobytes()
        assert not np.shares_memory(first.scores, second.scores)

    def test_image_without_components(self):
        probs = np.zeros((6, 6, 2))
        probs[..., 0] = 1.0
        sample = Sample("cold", ProbabilityMap(probs), LabelMask(np.zeros((6, 6), np.uint8)))
        out, kept = remove_false_positives(sample, self.constant_model(0.9))
        assert kept.tolist() == []
        np.testing.assert_array_equal(out.scores, 0.0)

    def test_decision_threshold_validated(self):
        with pytest.raises(ValueError, match="decision_threshold"):
            remove_false_positives(
                two_block_sample(), self.constant_model(0.9), decision_threshold=1.5
            )

    def test_other_metric_names_refused(self, monkeypatch):
        # The model's metrics must be the sample's, in order; the map is
        # not read before they are checked.
        reads = []
        monkeypatch.setattr(Sample, "probability_blocks",
                            lambda self: reads.append(self.id) or iter(()))
        sample = two_block_sample()
        with pytest.raises(ValueError, match=r"^sample 's' \(C=2\) has 41 metrics, "
                                             "model was trained on 43$"):
            remove_false_positives(
                sample, self.constant_model(0.9, names=features.metric_names(3)))
        swapped = (self.NAMES[1], self.NAMES[0], *self.NAMES[2:])
        with pytest.raises(ValueError, match=r"^sample 's' \(C=2\) metric 0 is "
                                             "'ent_mean', model was trained on "
                                             "'ent_mean_in'$"):
            remove_false_positives(sample, self.constant_model(0.9, names=swapped))
        assert reads == []

    def test_model_without_threshold_refused(self):
        with pytest.raises(ValueError, match="no score threshold"):
            remove_false_positives(two_block_sample(),
                                   self.constant_model(0.9, threshold=None))

    def test_sample_file_map_read_once(self, tmp_path, monkeypatch):
        raster.save_samples([two_block_sample(c=3)], tmp_path)
        sample_file, = raster.iter_sample_files(tmp_path)
        opened = []
        walk = raster.iter_probability_blocks
        monkeypatch.setattr(raster, "iter_probability_blocks",
                            lambda path: opened.append(path) or walk(path))
        model = self.constant_model(0.1, names=features.metric_names(3))
        _, kept = remove_false_positives(sample_file, model)
        assert opened == [sample_file.path]
        assert kept.tolist() == [0, 1]

    def test_matches_per_record_loop_on_iid_scene(self, tmp_path, monkeypatch):
        # The loaded map of a file, and the file itself, against the
        # four-step composition, bit for bit.
        raster.save_samples([iid_sample(128, 176, 6, 0.3, seed=307)], tmp_path)
        sample, = loaded_samples(tmp_path)
        sample_file, = raster.iter_sample_files(tmp_path)
        dataset = build_metrics_dataset([sample], ThresholdConfig(0.7))
        model, _ = train(dataset, TrainConfig(epochs=3, seed=0), threshold=0.7,
                         hidden_dims=())
        t = float(np.median(model.predict_raw_batch(dataset.rows)))
        want, want_kept = four_step_removal(sample, model, t)
        calls = []
        batch = MetaModel.predict_raw_batch
        monkeypatch.setattr(MetaModel, "predict_raw_batch",
                            lambda self, x: calls.append(len(x)) or batch(self, x))
        for given in (sample, sample_file):
            out, kept = remove_false_positives(given, model, t)
            assert kept.tolist() == want_kept
            assert out.scores.tobytes() == want.tobytes()
        assert calls == [len(dataset)] * 2 and len(dataset) >= 1000
        assert 0 < len(want_kept) < len(dataset)

    def test_readme_snippet(self):
        # The README's removal snippet, run on a small trained model.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
        snippet, = [b for b in blocks if "remove_false_positives(" in b]
        samples = synth.generate(synth.SceneSpec(dims=(32, 32), num_classes=4, seed=3), 4)
        dataset = build_metrics_dataset(samples, ThresholdConfig(0.7))
        model, _ = train(dataset, TrainConfig(epochs=5, seed=0), threshold=0.7,
                         hidden_dims=())
        env = {"metaclf": metaclf, "samples": samples, "model": model}
        exec(snippet, env)
        want, want_kept = four_step_removal(samples[0], model)
        assert want_kept and env["kept"].tolist() == want_kept
        assert env["cleaned"].scores.tobytes() == want.tobytes()


class TestModelFiles:
    def trained(self, kind):
        ds = separable_dataset()
        cfg = TrainConfig(learning_rate=0.05, epochs=20, batch_size=8, seed=1)
        hidden_dims = {"logistic": (), "mlp": (6, 6)}[kind]
        meta, _ = train(ds, cfg, threshold=0.7, hidden_dims=hidden_dims)
        return meta, ds

    def test_round_trip_fields(self, tmp_path):
        meta, _ = self.trained("mlp")
        path = tmp_path / "model.bin"
        save_model(meta, path)
        back = load_model(path)
        assert back.kind == "mlp"
        assert back.core.layer_dims == meta.core.layer_dims
        assert back.config == meta.config
        assert back.threshold == 0.7
        np.testing.assert_array_equal(back.stats.mean, meta.stats.mean)
        np.testing.assert_array_equal(back.stats.sigma, meta.stats.sigma)

    def test_save_load_save_is_byte_stable(self, tmp_path):
        for kind in ("logistic", "mlp"):
            meta, _ = self.trained(kind)
            p1 = tmp_path / f"{kind}1.bin"
            p2 = tmp_path / f"{kind}2.bin"
            save_model(meta, p1)
            save_model(load_model(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_predictions_survive_round_trip(self, tmp_path):
        meta, ds = self.trained("mlp")
        path = tmp_path / "model.bin"
        save_model(meta, path)
        back = load_model(path)
        # Parameters are stored at f32, so predictions match only to that
        # precision.
        p1 = meta.predict_raw_batch(ds.rows)
        p2 = back.predict_raw_batch(ds.rows)
        np.testing.assert_allclose(p1, p2, atol=1e-5)

    def test_no_threshold_round_trips_as_none(self, tmp_path):
        ds = separable_dataset()
        meta, _ = train(ds, TrainConfig(epochs=1, seed=0), hidden_dims=())
        path = tmp_path / "model.bin"
        save_model(meta, path)
        assert load_model(path).threshold is None

    @pytest.mark.parametrize("threshold", [7.0, -0.1, float("nan"), float("inf")])
    def test_threshold_outside_unit_interval_refused(self, threshold):
        meta, _ = self.trained("logistic")
        with pytest.raises(ValueError, match=re.escape(
                f"threshold must be in [0, 1], got {threshold}")):
            MetaModel(core=meta.core, stats=meta.stats, config=meta.config,
                      threshold=threshold)

    def test_non_finite_threshold_in_file_refused(self, tmp_path):
        meta, _ = self.trained("logistic")
        path = tmp_path / "model.bin"
        save_model(meta, path)
        data = path.read_bytes()
        start = data.index(b"\nthreshold ") + 1
        path.write_bytes(data[:start] + b"threshold nan"
                         + data[data.index(b"\n", start):])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: threshold must be in [0, 1], got nan")):
            load_model(path)

    def test_metric_names_round_trip(self, tmp_path):
        meta, ds = self.trained("logistic")
        assert meta.feature_names == ds.names
        names = ("a,b", 'q"uote, tab\tand\rcr, \u00e9t\u00e9')
        meta = dataclasses.replace(meta, feature_names=names)
        p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        save_model(meta, p1)
        back = load_model(p1)
        assert back.feature_names == names
        save_model(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_empty_metric_name_round_trips(self, tmp_path):
        ds = toy_dataset([[0.0], [1.0], [2.0]], [0, 1, 1])
        ds = MetricsDataset(ds.rows, ds.labels, ds.group_ids, [""])
        meta, _ = train(ds, TrainConfig(epochs=1, seed=0), hidden_dims=())
        save_model(meta, tmp_path / "m.bin")
        assert load_model(tmp_path / "m.bin").feature_names == ("",)

    def test_metric_name_with_line_break_refused(self, tmp_path):
        meta, _ = self.trained("logistic")
        names = ("a\nb",) + meta.feature_names[1:]
        with pytest.raises(ValueError, match="line break"):
            save_model(dataclasses.replace(meta, feature_names=names), tmp_path / "m.bin")
        assert not (tmp_path / "m.bin").exists()

    def test_name_count_must_match_features(self, tmp_path):
        meta, _ = self.trained("logistic")
        with pytest.raises(ValueError, match="feature names do not match"):
            dataclasses.replace(meta, feature_names=meta.feature_names[:-1])
        path = tmp_path / "m.bin"
        save_model(meta, path)
        data = path.read_bytes()
        start = data.index(b"\nfeature_names ") + 1
        end = data.index(b"\n", start)
        path.write_bytes(data[:start] + b"feature_names only_one" + data[end:])
        with pytest.raises(ValueError, match=re.escape(f"{path}: feature names do")):
            load_model(path)

    def test_file_without_names_loads_and_checks_nothing(self, tmp_path):
        meta, ds = self.trained("logistic")
        path = tmp_path / "m.bin"
        save_model(meta, path)
        data = path.read_bytes()
        start = data.index(b"\nfeature_names ")
        path.write_bytes(data[:start] + data[data.index(b"\n", start + 1):])
        back = load_model(path)
        assert back.feature_names is None
        back.check_metrics(ds.names[::-1])

    def test_check_metrics_refuses_other_names(self):
        meta, ds = self.trained("logistic")
        meta.check_metrics(ds.names)
        names = ds.names[::-1]
        with pytest.raises(ValueError, match="dataset metric 0 is 'm1', model was "
                                             "trained on 'm0'"):
            meta.check_metrics(names)
        with pytest.raises(ValueError, match="dataset has 1 metrics, model was "
                                             "trained on 2"):
            meta.check_metrics(names[:1])

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a model")
        with pytest.raises(ValueError, match="not a model file"):
            load_model(path)

    def test_file_bytes_pinned(self, tmp_path):
        # Pins the exact bytes that save_model writes for both kinds.
        digests = [
            "3899c5a12bbdabeb60ae3e1269fc1c4a255d646784f87172e0a8c4f41c5286bf",
            "b8018fc7ab55871c0a1e44ade85ff964f4072baf5c39bd8a4161550ef40ca358",
        ]
        for meta, digest in zip(pinned_models(), digests):
            path = tmp_path / f"{meta.kind}.bin"
            save_model(meta, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_v1_file_refused(self, tmp_path):
        # v1_model_bytes rebuilds the v1 writer's files: these are their digests.
        digests = [
            "ed797aa01b2f0efbedc78089f1e41e3c5bc307bce821374a0b0bc206db7250d7",
            "4a1a6a1ae7b9a1af468896dd07064bdcfa040b447c838d1fe67e0f013817992b",
        ]
        for meta, digest in zip(pinned_models(), digests):
            path = tmp_path / f"{meta.kind}.bin"
            data = v1_model_bytes(meta, path)
            assert hashlib.sha256(data).hexdigest() == digest
            path.write_bytes(data)
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: not a model file (expected metaseg-model v2)")):
                load_model(path)

    def test_parameters_keep_their_float32_bits(self, tmp_path):
        for meta in pinned_models():
            path = tmp_path / f"{meta.kind}.bin"
            save_model(meta, path)
            back = load_model(path)
            assert (back.core.to_vector().tobytes()
                    == meta.core.to_vector().astype(np.float32).astype(np.float64)
                    .tobytes())

    @pytest.mark.parametrize("change", [-4, 4])
    def test_payload_of_another_length_refused(self, tmp_path, change):
        # One float32 value short, or one long.
        meta = pinned_models()[0]
        path = tmp_path / "model.bin"
        save_model(meta, path)
        data = path.read_bytes()
        path.write_bytes(data[:change] if change < 0 else data + bytes(change))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: parameter block is {16 + change} bytes, "
                "layer_dims (3, 1) need 16")):
            load_model(path)

    def test_every_missing_field_is_named(self, tmp_path):
        meta, _ = self.trained("logistic")
        path = tmp_path / "model.bin"
        save_model(meta, path)
        data = path.read_bytes()
        header = data[: data.index(b"\nparams\n")].decode("ascii")
        for line in header.splitlines()[1:]:
            key = line.split(" ", 1)[0]
            if key in ("threshold", "feature_names"):
                continue
            start = data.index(f"\n{key} ".encode("ascii"))
            path.write_bytes(data[:start] + data[data.index(b"\n", start + 1):])
            with pytest.raises(ValueError, match=f"missing model field '{key}'"):
                load_model(path)

    @pytest.mark.parametrize("line", [b"kind mlp", b"n_features 3",
                                      b"hidden_activation relu",
                                      b"output_activation sigmoid", b"params 16",
                                      b""])
    def test_undefined_field_is_named(self, tmp_path, line):
        # The v1 lines that restated the parameters among them.
        meta = pinned_models()[0]
        path = tmp_path / "model.bin"
        save_model(meta, path)
        data = path.read_bytes()
        start = data.index(b"\nlayer_dims ") + 1
        path.write_bytes(data[:start] + line + b"\n" + data[start:])
        key = line.split(b" ")[0].decode()
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: undefined model field {key!r}")):
            load_model(path)

    @pytest.mark.parametrize("key", ["threshold", "layer_dims", "feature_names"])
    def test_repeated_field_refused(self, tmp_path, key):
        # A second line would otherwise win: a second threshold line
        # would change where remove_false_positives labels components.
        meta, _ = self.trained("logistic")
        path = tmp_path / "model.bin"
        save_model(meta, path)
        data = path.read_bytes()
        start = data.index(f"\n{key} ".encode()) + 1
        line = data[start : data.index(b"\n", start) + 1]
        path.write_bytes(data[:start] + line + line + data[start + len(line):])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: model field {key!r} is repeated")):
            load_model(path)

    def test_signalling_nan_parameter_refused_without_warning(self, tmp_path):
        meta = pinned_models()[0]
        path = tmp_path / "model.bin"
        save_model(meta, path)
        path.write_bytes(path.read_bytes()[:-4] + bytes.fromhex("0100807f"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: parameters must be finite")):
                load_model(path)

    def test_non_finite_config_field_refused(self, tmp_path):
        meta, _ = self.trained("logistic")
        path = tmp_path / "model.bin"
        save_model(meta, path)
        data = path.read_bytes()
        start = data.index(b"\nlearning_rate ") + 1
        path.write_bytes(data[:start] + b"learning_rate nan"
                         + data[data.index(b"\n", start):])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: learning_rate must be positive and finite, got nan")):
            load_model(path)

    def test_every_unparseable_config_field_is_named(self, tmp_path):
        meta, _ = self.trained("logistic")
        path = tmp_path / "model.bin"
        save_model(meta, path)
        data = path.read_bytes()
        for field in dataclasses.fields(TrainConfig):
            start = data.index(f"\n{field.name} ".encode("ascii")) + 1
            end = data.index(b"\n", start)
            path.write_bytes(data[:start] + f"{field.name} abc".encode("ascii")
                             + data[end:])
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: model field '{field.name}'")):
                load_model(path)


class TestCallerArraysStayWriteable:
    def test_mlp_model(self):
        w0, b0, w1, b1 = np.ones((2, 3)), np.zeros(3), np.ones((3, 1)), np.zeros(1)
        model = MlpModel(layers=((w0, b0), (w1, b1)))
        w0[0, 0], b1[0] = 7.0, 7.0
        assert model.layers[0][0][0, 0] == 1.0 and model.layers[1][1][0] == 0.0
        assert not any(a.flags.writeable for layer in model.layers for a in layer)



class TestKindFromDepth:
    """A model's kind is read from its depth: one layer is logistic."""

    def test_core_kind(self):
        assert MlpModel.from_dims((2, 1)).kind == "logistic"
        assert MlpModel.from_dims((2, 3, 1)).kind == "mlp"
        stats = StandardizationStats(np.zeros(2), np.ones(2))
        for dims, kind in (((2, 1), "logistic"), ((2, 3, 1), "mlp")):
            meta = MetaModel(MlpModel.from_dims(dims), stats, TrainConfig())
            assert meta.kind == kind

    def test_logistic_core_round_trips(self, tmp_path):
        rng = np.random.default_rng(113)
        core = MlpModel.from_dims((5, *HIDDEN_DIMS["logistic"], 1), rng)
        assert core.kind == "logistic" and core.layer_dims == (5, 1)
        path = tmp_path / "logistic.bin"
        stats = StandardizationStats(np.zeros(5), np.ones(5))
        save_model(MetaModel(core, stats, TrainConfig()), path)
        back = load_model(path)
        assert back.kind == "logistic"
        # The file stores float32 parameters.
        np.testing.assert_array_equal(back.core.to_vector(),
                                      core.to_vector().astype(np.float32))


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """Bytes of a small saved MLP model, plus a scratch path to write to."""
    meta, _ = train(separable_dataset(), TrainConfig(epochs=1, seed=0),
                    threshold=0.5, hidden_dims=(3,))
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    save_model(meta, path)
    return path.read_bytes(), path


_MUTATIONS = st.one_of(
    st.tuples(st.just("drop_line"), st.integers(0, 10**6)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(
        st.just("flip"),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                 min_size=1, max_size=4),
    ),
)


def _mutate(data: bytes, mutation) -> bytes:
    op, arg = mutation
    if not data:
        return data
    if op == "drop_line":
        lines = data.split(b"\n")
        i = arg % len(lines)
        return b"\n".join(lines[:i] + lines[i + 1:])
    if op == "truncate":
        return data[: arg % len(data)]
    buf = bytearray(data)
    for pos, xor in arg:
        buf[pos % len(buf)] ^= xor
    return bytes(buf)


@settings(max_examples=300, deadline=None)
@given(mutations=st.lists(_MUTATIONS, min_size=1, max_size=3))
def test_mutated_model_file_raises_only_value_error(saved_model, mutations):
    """A damaged model file either still loads or raises a ValueError
    subclass; no other exception escapes the parser."""
    data, path = saved_model
    for mutation in mutations:
        data = _mutate(data, mutation)
    path.write_bytes(data)
    try:
        load_model(path)
    except ValueError:
        pass
