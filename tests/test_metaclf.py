"""Tests for the meta-classifier models, training loop, and model files.

Analytic gradients are cross-checked against central finite differences
computed directly from the loss, sharing no code with backpropagation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaseg.features import MetricRegistry, MetricsDataset
from metaseg.metaclf import (
    LogisticModel,
    MetaModel,
    MlpModel,
    TrainConfig,
    bce_loss,
    bce_loss_mean,
    count_parameters,
    glorot_init_vector,
    gradient,
    load_model,
    parameter_breakdown,
    predict,
    predict_batch,
    remove_false_positives,
    save_model,
    sigmoid,
    train,
)
from metaseg.raster import ScoreMap
from metaseg.segments import connected_components


def toy_dataset(rows, labels):
    rows = np.asarray(rows, dtype=np.float64)
    reg = MetricRegistry.custom([f"m{i}" for i in range(rows.shape[1])])
    groups = tuple(f"g{i}" for i in range(rows.shape[0]))
    return MetricsDataset(rows, np.asarray(labels, dtype=bool), groups, reg)


def fd_gradient(model, x, y, h=1e-5):
    """Central finite differences of the batch-mean BCE."""
    theta = model.to_vector()
    out = np.zeros_like(theta)
    for k in range(theta.shape[0]):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        pp = predict_batch(model.with_vector(tp), x)
        pm = predict_batch(model.with_vector(tm), x)
        out[k] = (bce_loss_mean(pp, y) - bce_loss_mean(pm, y)) / (2 * h)
    return out


def min_preactivation_gap(model, x):
    """Smallest |hidden pre-activation| over the batch; infinity for a
    model without hidden layers.

    The loss is non-differentiable where a rectifier input is exactly
    zero, so finite-difference checks are valid only with a clear margin
    from that kink.
    """
    if isinstance(model, LogisticModel):
        return np.inf
    gap = np.inf
    a = np.asarray(x, dtype=np.float64)
    for w, b in model.layers[:-1]:
        z = a @ w + b
        gap = min(gap, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return gap


class TestParameterCounts:
    def test_standard_mlp_breakdown(self):
        model = MlpModel.standard(75)
        assert count_parameters(model) == 17176
        assert parameter_breakdown(model) == [5700, 5700, 5700, 76]
        assert model.layer_dims == (75, 75, 75, 75, 1)

    def test_logistic_count(self):
        model = LogisticModel(weights=np.zeros(75), bias=0.0)
        assert count_parameters(model) == 76
        assert parameter_breakdown(model) == [76]

    def test_small_mlp_count(self):
        model = MlpModel.from_dims((2, 75, 75, 1))
        # 2*75+75 + 75*75+75 + 75*1+1
        assert count_parameters(model) == 6001

    def test_count_scales_with_features(self):
        for n in (5, 20, 75):
            model = MlpModel.standard(n)
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
            MlpModel.from_dims((4, 1))  # no hidden layer
        with pytest.raises(ValueError):
            MlpModel.from_dims((4, 6, 2))  # output must be one unit


class TestPrediction:
    def test_zero_parameters_give_half(self):
        lg = LogisticModel(weights=np.zeros(3), bias=0.0)
        assert predict(lg, np.ones(3)) == 0.5
        mlp = MlpModel.from_dims((3, 4, 1))
        assert predict(mlp, np.ones(3)) == 0.5

    def test_known_sigmoid_value(self):
        lg = LogisticModel(weights=np.array([1.0]), bias=0.0)
        assert predict(lg, [math.log(3.0)]) == pytest.approx(0.75, abs=1e-12)

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
        lg = LogisticModel(weights=np.zeros(3), bias=0.0)
        with pytest.raises(ValueError, match="expects 3"):
            predict(lg, np.ones(4))
        with pytest.raises(ValueError, match="rows"):
            predict_batch(lg, np.ones((2, 4)))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(89)
        model = MlpModel.from_dims((4, 6, 1), rng)
        rows = rng.normal(0, 1, (10, 4))
        batch = predict_batch(model, rows)
        for i in range(10):
            assert batch[i] == pytest.approx(predict(model, rows[i]), abs=1e-15)


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
        assert bce_loss_mean(p, [1, 1, 1]) == pytest.approx(math.log(2.0), abs=1e-12)

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
        lg = LogisticModel(weights=np.zeros(3), bias=0.0)
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
                model = LogisticModel(
                    weights=rng.normal(0, 0.5, 3), bias=float(rng.normal())
                )
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
        lg = LogisticModel(weights=np.zeros(2), bias=0.0)
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
        for kind in ("logistic", "mlp"):
            meta, trace = train(kind, ds, cfg, hidden_dims=(8, 8))
            p = meta.predict_raw_batch(ds.rows)
            assert np.mean((p >= 0.5) == ds.labels) == 1.0
            assert trace[-1] < trace[0]

    def test_mlp_solves_xor_logistic_cannot(self):
        ds = xor_dataset()
        cfg = TrainConfig(learning_rate=0.02, epochs=300, batch_size=16, seed=3)
        meta_mlp, _ = train("mlp", ds, cfg, hidden_dims=(8, 8))
        acc_mlp = np.mean((meta_mlp.predict_raw_batch(ds.rows) >= 0.5) == ds.labels)
        assert acc_mlp >= 0.95
        meta_lg, _ = train("logistic", ds, cfg)
        acc_lg = np.mean((meta_lg.predict_raw_batch(ds.rows) >= 0.5) == ds.labels)
        assert acc_lg <= 0.75

    def test_bit_deterministic(self):
        ds = separable_dataset()
        cfg = TrainConfig(epochs=5, seed=9)
        a, trace_a = train("mlp", ds, cfg, hidden_dims=(6, 6))
        b, trace_b = train("mlp", ds, cfg, hidden_dims=(6, 6))
        np.testing.assert_array_equal(a.core.to_vector(), b.core.to_vector())
        assert trace_a == trace_b

    def test_seed_changes_parameters(self):
        ds = separable_dataset()
        a, _ = train("logistic", ds, TrainConfig(epochs=3, seed=0))
        b, _ = train("logistic", ds, TrainConfig(epochs=3, seed=1))
        assert not np.array_equal(a.core.to_vector(), b.core.to_vector())

    def test_zero_epochs_returns_initialization(self):
        ds = separable_dataset()
        cfg = TrainConfig(epochs=0, seed=4)
        meta, trace = train("logistic", ds, cfg)
        assert trace == ()
        expected = glorot_init_vector(
            (2, 1), np.random.Generator(np.random.PCG64(4))
        )
        np.testing.assert_array_equal(meta.core.to_vector(), expected)

    def test_trace_length_and_finiteness(self):
        ds = separable_dataset()
        meta, trace = train("logistic", ds, TrainConfig(epochs=7, seed=2))
        assert len(trace) == 7
        assert all(np.isfinite(v) for v in trace)

    def test_weight_decay_shrinks_weights_not_bias(self):
        # Pure decay exposure: balanced labels at x=0 give zero gradient
        # on weights only when predictions sit at 1/2; with a large decay
        # the weight norm must drop relative to the no-decay run.
        ds = separable_dataset()
        hi, _ = train(
            "logistic", ds,
            TrainConfig(weight_decay=0.5, epochs=30, seed=5),
        )
        lo, _ = train(
            "logistic", ds,
            TrainConfig(weight_decay=0.0, epochs=30, seed=5),
        )
        assert np.linalg.norm(hi.core.weights) < np.linalg.norm(lo.core.weights)

    def test_single_class_labels_warn(self):
        ds = toy_dataset(np.random.default_rng(0).normal(0, 1, (6, 2)), [1] * 6)
        with pytest.warns(UserWarning, match="single-class"):
            train("logistic", ds, TrainConfig(epochs=1, seed=0))

    def test_empty_dataset_rejected(self):
        reg = MetricRegistry.custom(["m0"])
        ds = MetricsDataset(np.zeros((0, 1)), np.zeros(0, dtype=bool), (), reg)
        with pytest.raises(ValueError, match="empty"):
            train("logistic", ds, TrainConfig(epochs=1))

    def test_unknown_kind_rejected(self):
        ds = separable_dataset()
        with pytest.raises(ValueError, match="unknown model kind"):
            train("forest", ds, TrainConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(adam_beta1=1.0)


class TestRemoveFalsePositives:
    def setup_scene(self):
        scores = np.zeros((6, 6))
        scores[0:2, 0:2] = 0.9
        scores[4:6, 4:6] = 0.8
        sm = ScoreMap(scores)
        pixels = {(r, c) for r, c in np.argwhere(scores >= 0.7)}
        comps = connected_components(pixels, (6, 6))
        return sm, comps

    def constant_model(self, p_out):
        # Logistic with zero weights: output sigmoid(bias) everywhere.
        bias = math.log(p_out / (1.0 - p_out))
        core = LogisticModel(weights=np.zeros(2), bias=bias)
        from metaseg.features import StandardizationStats

        stats = StandardizationStats(np.zeros(2), np.ones(2))
        return MetaModel(
            kind="logistic", core=core, stats=stats, config=TrainConfig()
        )

    def test_confident_model_zeroes_components(self):
        sm, comps = self.setup_scene()
        model = self.constant_model(0.9)
        out, kept = remove_false_positives(sm, comps, model, lambda c: np.zeros(2))
        assert kept == []
        np.testing.assert_array_equal(out.scores, 0.0)

    def test_unconfident_model_keeps_everything(self):
        sm, comps = self.setup_scene()
        model = self.constant_model(0.1)
        out, kept = remove_false_positives(sm, comps, model, lambda c: np.zeros(2))
        assert len(kept) == len(comps)
        np.testing.assert_array_equal(out.scores, sm.scores)

    def test_original_map_untouched(self):
        sm, comps = self.setup_scene()
        before = sm.scores.copy()
        model = self.constant_model(0.9)
        remove_false_positives(sm, comps, model, lambda c: np.zeros(2))
        np.testing.assert_array_equal(sm.scores, before)

    def test_decision_threshold_validated(self):
        sm, comps = self.setup_scene()
        model = self.constant_model(0.9)
        with pytest.raises(ValueError, match="decision_threshold"):
            remove_false_positives(
                sm, comps, model, lambda c: np.zeros(2), decision_threshold=1.5
            )


class TestModelFiles:
    def trained(self, kind, tmp=None):
        ds = separable_dataset()
        cfg = TrainConfig(learning_rate=0.05, epochs=20, batch_size=8, seed=1)
        meta, _ = train(kind, ds, cfg, threshold=0.7, hidden_dims=(6, 6))
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
        meta, _ = train("logistic", ds, TrainConfig(epochs=1, seed=0))
        path = tmp_path / "model.bin"
        save_model(meta, path)
        assert load_model(path).threshold is None

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a model")
        with pytest.raises(ValueError, match="not a model file"):
            load_model(path)

    def test_every_missing_field_is_named(self, tmp_path):
        meta, _ = self.trained("logistic")
        path = tmp_path / "model.bin"
        save_model(meta, path)
        data = path.read_bytes()
        header = data[: data.index(b"\nparams ")].decode("ascii")
        for line in header.splitlines()[1:]:
            key = line.split(" ", 1)[0]
            if key in ("n_features", "hidden_activation", "output_activation",
                       "threshold"):
                continue
            start = data.index(f"\n{key} ".encode("ascii"))
            path.write_bytes(data[:start] + data[data.index(b"\n", start + 1):])
            with pytest.raises(ValueError, match=f"missing model field '{key}'"):
                load_model(path)



@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """Bytes of a small saved MLP model, plus a scratch path to write to."""
    meta, _ = train("mlp", separable_dataset(), TrainConfig(epochs=1, seed=0),
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
