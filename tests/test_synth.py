"""Tests for the synthetic scene generator."""

import math
import weakref

import numpy as np
import pytest

from metaseg import synth
from metaseg.raster import OOD_LABEL, ProbabilityMap
from metaseg.scoring import anomaly_score_map, pixel_entropy
from metaseg.segments import label_image
from metaseg.synth import SceneSpec, generate, solve_mix_weight


def base_spec(**overrides):
    defaults = dict(
        dims=(48, 48),
        num_classes=7,
        blob_count=(1, 3),
        blob_size=(4, 9),
        anomaly_entropy=0.85,
        background_entropy=0.2,
        false_blob_rate=1.5,
        seed=11,
    )
    defaults.update(overrides)
    return SceneSpec(**defaults)


def values_by_whole_map(spec, index):
    """Scene `index`'s probabilities with the mixture weight solved for
    every pixel's own (target, alpha) in one whole-map bisection."""
    peak, second, kind, _ = synth._layout(spec, index)
    target, alpha = synth._pair_table(spec)
    target, alpha = target[kind], alpha[kind]
    c = spec.num_classes
    weight = solve_mix_weight(target, alpha, c)
    values = np.repeat((weight / c)[:, :, None], c, axis=2)
    rr, cc = np.mgrid[0 : spec.dims[0], 0 : spec.dims[1]]
    values[rr, cc, peak] += (1.0 - weight) * alpha
    values[rr, cc, second] += (1.0 - weight) * (1.0 - alpha)
    return ProbabilityMap(values).values


def labeled(sample):
    """The label image of a sample's score map thresholded at 0.7, with
    the false-positive flags of its mask."""
    return label_image(anomaly_score_map(sample.pmap).scores >= 0.7, ood=sample.mask.is_ood())


class TestSolveMixWeight:
    def test_hits_targets_exactly(self):
        for c in (2, 7, 19):
            targets = np.array([0.05, 0.3, 0.7, 0.95])
            w = solve_mix_weight(targets, 1.0, c)
            for wi, ti in zip(w, targets):
                vec = np.full(c, wi / c)
                vec[0] += 1.0 - wi
                got = pixel_entropy(vec) / math.log(c)
                assert got == pytest.approx(ti, abs=1e-9)

    def test_extremes_exact(self):
        w = solve_mix_weight(np.array([1.0, 0.0]), 1.0, 19)
        assert w[0] == 1.0
        assert w[1] == 0.0

    def test_low_alpha_floor(self):
        # alpha = 0.55 cannot reach entropy 0: the two-point split alone
        # already carries entropy.
        with pytest.raises(ValueError, match="below the minimum"):
            solve_mix_weight(np.array([0.0]), 0.55, 19)

    def test_low_alpha_reachable_targets(self):
        w = solve_mix_weight(np.array([0.5, 0.9]), 0.55, 19)
        for wi, ti in zip(w, (0.5, 0.9)):
            vec = np.full(19, wi / 19)
            vec[0] += (1.0 - wi) * 0.55
            vec[1] += (1.0 - wi) * 0.45
            got = pixel_entropy(vec) / math.log(19)
            assert got == pytest.approx(ti, abs=1e-9)

    def test_monotone_in_target(self):
        targets = np.linspace(0.1, 1.0, 12)
        w = solve_mix_weight(targets, 1.0, 7)
        assert (np.diff(w) > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="target"):
            solve_mix_weight(np.array([1.2]), 1.0, 5)
        with pytest.raises(ValueError, match="alpha"):
            solve_mix_weight(np.array([0.5]), 0.3, 5)


class TestSceneSpecValidation:
    def test_valid_defaults(self):
        SceneSpec()

    def test_entropy_ordering_enforced(self):
        with pytest.raises(ValueError, match="background_entropy"):
            base_spec(anomaly_entropy=0.2, background_entropy=0.5)

    def test_blob_must_fit(self):
        with pytest.raises(ValueError, match="fit"):
            base_spec(dims=(16, 16), blob_size=(4, 15))

    def test_tiny_dims_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            base_spec(dims=(4, 64))

    def test_coupling_needs_room_for_holes(self):
        with pytest.raises(ValueError, match="ring holes"):
            base_spec(blob_size=(2, 9), nonlinear_coupling=True)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError, match="blob_count"):
            base_spec(blob_count=(3, 1))
        with pytest.raises(ValueError, match="blob_size"):
            base_spec(blob_size=(5, 4))
        with pytest.raises(ValueError, match="num_classes"):
            base_spec(num_classes=1)


class TestGeneration:
    def test_deterministic(self):
        a = generate(base_spec(), 4)
        b = generate(base_spec(), 4)
        assert [s.id for s in a] == [s.id for s in b]
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.pmap.values, sb.pmap.values)
            np.testing.assert_array_equal(sa.mask.labels, sb.mask.labels)

    def test_seed_changes_content(self):
        a = generate(base_spec(seed=11), 1)
        b = generate(base_spec(seed=12), 1)
        assert not np.array_equal(a[0].pmap.values, b[0].pmap.values)

    def test_prefix_stability(self):
        # Scene i depends only on seed + i, so a longer run extends a
        # shorter one.
        a = generate(base_spec(), 2)
        b = generate(base_spec(), 5)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.pmap.values, sb.pmap.values)

    def test_ids_and_dims(self):
        ss = generate(base_spec(), 3)
        assert [s.id for s in ss] == ["scene_0000", "scene_0001", "scene_0002"]
        for s in ss:
            assert (s.pmap.height, s.pmap.width) == (48, 48)
            assert s.pmap.num_classes == 7

    def test_scores_hit_entropy_targets(self):
        ss = generate(base_spec(), 3)
        for s in ss:
            scores = anomaly_score_map(s.pmap).scores
            ood = s.mask.is_ood()
            if ood.any():
                np.testing.assert_allclose(scores[ood], 0.85, atol=1e-8)
            # Background pixels sit at the background target unless a
            # false blob covers them.
            bg = ~ood
            lo = scores[bg].min()
            assert lo == pytest.approx(0.2, abs=1e-8)

    def test_anomaly_entropy_one_gives_uniform(self):
        ss = generate(base_spec(anomaly_entropy=1.0, false_blob_rate=0.0), 2)
        for s in ss:
            ood = s.mask.is_ood()
            if not ood.any():
                continue
            vals = s.pmap.values[ood]
            np.testing.assert_allclose(vals, 1.0 / 7.0, atol=1e-12)

    def test_true_blobs_marked_ood(self):
        ss = generate(base_spec(false_blob_rate=0.0), 4)
        for s in ss:
            assert not labeled(s).is_false_positive.any()

    def test_false_blobs_labeled_false_positive(self):
        # blob_count (0, 0): every component comes from a false blob.
        ss = generate(base_spec(blob_count=(0, 0), false_blob_rate=3.0), 6)
        total = 0
        for s in ss:
            assert not s.mask.is_ood().any()
            image = labeled(s)
            assert image.is_false_positive.all()
            total += image.count
        assert total > 0

    def test_components_match_planted_blobs(self):
        # Separation keeps each blob its own component; with no false
        # blobs the component count equals the OOD component count.
        ss = generate(base_spec(false_blob_rate=0.0, blob_count=(2, 3)), 5)
        for s in ss:
            ood_pixels = int(s.mask.is_ood().sum())
            comp_pixels = int(labeled(s).sizes.sum())
            assert comp_pixels == ood_pixels

    def test_coupled_scenes_balanced(self):
        spec = base_spec(
            dims=(64, 64),
            num_classes=19,
            blob_count=(2, 4),
            blob_size=(5, 12),
            false_blob_rate=3.0,
            nonlinear_coupling=True,
            seed=21,
        )
        ss = generate(spec, 30)
        n_tp = n_fp = 0
        for s in ss:
            fp = labeled(s).is_false_positive
            n_fp += int(fp.sum())
            n_tp += int((~fp).sum())
        # Both classes must be present in comparable numbers.
        assert n_tp >= 20 and n_fp >= 20

    @pytest.mark.parametrize("coupled", [False, True])
    @pytest.mark.parametrize("seed", [3, 29])
    def test_matches_whole_map_solve(self, coupled, seed):
        spec = base_spec(dims=(64, 64), num_classes=19, blob_size=(5, 12),
                         false_blob_rate=3.0, nonlinear_coupling=coupled, seed=seed)
        for i, sample in enumerate(generate(spec, 6)):
            want = values_by_whole_map(spec, i)
            assert np.array_equal(sample.pmap.values.view(np.uint64), want.view(np.uint64))

    def test_low_alpha_floor_only_where_a_blob_uses_it(self):
        # At 19 classes the alpha = 0.55 pair cannot go below a normalized
        # entropy of 0.23; only coupled scenes paint low-margin blobs.
        # Scenes are built when they are asked for, so the error comes
        # from building the scene, not from `generate`.
        spec = dict(num_classes=19, anomaly_entropy=0.22, background_entropy=0.05)
        assert len(list(generate(base_spec(**spec), 4))) == 4
        scenes = generate(base_spec(nonlinear_coupling=True, **spec), 4)
        with pytest.raises(ValueError, match="below the minimum"):
            list(scenes)

    def test_count_validated(self):
        with pytest.raises(ValueError, match="count"):
            generate(base_spec(), 0)


class TestLazyScenes:
    """`generate` builds each scene when it is asked for."""

    def spec(self):
        return base_spec(dims=(40, 40), num_classes=19, blob_size=(5, 12),
                         false_blob_rate=3.0, nonlinear_coupling=True, seed=5)

    def test_same_bits_by_iteration_indexing_and_reversed_order(self):
        def bits(sample):
            return sample.id, sample.pmap.values.tobytes(), sample.mask.labels.tobytes()

        by_iteration = [bits(s) for s in generate(self.spec(), 6)]
        # A fresh call built backwards solves its mixture pairs in another
        # order; building a scene again on the same call reuses them.
        backwards = generate(self.spec(), 6)
        by_reversed_index = [bits(backwards[i]) for i in reversed(range(6))][::-1]
        again = [bits(backwards[i]) for i in range(6)]
        assert by_reversed_index == by_iteration
        assert again == by_iteration
        assert bits(backwards[-1]) == by_iteration[-1]

    def test_sequence_protocol(self):
        scenes = generate(self.spec(), 3)
        assert len(scenes) == 3
        assert [s.id for s in scenes] == ["scene_0000", "scene_0001", "scene_0002"]
        assert [scenes[i].id for i in range(-3, 3)] == [s.id for s in scenes] * 2
        for i in (3, -4):
            with pytest.raises(IndexError):
                scenes[i]
        with pytest.raises(TypeError):
            scenes[0.0]

    def test_iteration_keeps_no_scene(self):
        scenes = iter(generate(self.spec(), 3))
        first = weakref.ref(next(scenes))
        assert first() is None
        assert next(scenes).id == "scene_0001"
