"""Tests for GBM path generation, transforms, and trend classification."""

import math

import pytest

from chartscribe.trend import (
    DIRECTIONAL_CLASSES,
    EmptyInputError,
    GbmParams,
    ParameterError,
    ShapeTransform,
    TooShortError,
    TrendClass,
    TrendSpec,
    TrendUnrealizableError,
    apply_transform,
    classify_trend,
    gbm_path,
    preset,
    synth_trend_series,
)

# Frozen output of a standalone one-file evaluation of the path formula
# with the documented RNG (s0=1, mu=0.05, sigma=0.01, n=10, seed=42).
GOLDEN_PATH = [
    1.0,
    1.0555871976101832,
    1.0997999893060513,
    1.176300408485718,
    1.2433140936717495,
    1.2929498859329,
    1.3352090350396857,
    1.387608380765725,
    1.462483738726447,
    1.5050096573014433,
]


class TestGbmParams:
    def test_rejects_nonpositive_s0(self):
        with pytest.raises(ParameterError, match="s0"):
            GbmParams(s0=0.0, mu=0.1, sigma=0.1, n_points=5)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ParameterError, match="sigma"):
            GbmParams(s0=1.0, mu=0.1, sigma=-0.1, n_points=5)

    def test_rejects_short_path(self):
        with pytest.raises(ParameterError, match="n_points"):
            GbmParams(s0=1.0, mu=0.1, sigma=0.1, n_points=1)

    def test_drift_is_derived(self):
        p = GbmParams(s0=1.0, mu=0.05, sigma=0.2, n_points=5)
        assert p.drift == 0.05 - 0.2 * 0.2 / 2.0


class TestGbmPath:
    def test_golden_sequence_exact(self):
        p = GbmParams(s0=1.0, mu=0.05, sigma=0.01, n_points=10)
        assert gbm_path(p, 42) == GOLDEN_PATH

    def test_first_point_is_s0_exactly(self):
        for seed in range(20):
            p = GbmParams(s0=123.456, mu=0.3, sigma=0.5, n_points=4)
            assert gbm_path(p, seed)[0] == 123.456

    def test_sigma_zero_closed_form(self):
        p = GbmParams(s0=100.0, mu=0.1, sigma=0.0, n_points=5)
        for seed in (0, 1, 99):
            path = gbm_path(p, seed)
            for i, y in enumerate(path):
                expect = 100.0 * math.exp(0.1 * i)
                assert abs(y - expect) / expect < 1e-12

    def test_deterministic(self):
        p = GbmParams(s0=5.0, mu=0.02, sigma=0.3, n_points=50)
        assert gbm_path(p, 7) == gbm_path(p, 7)
        assert gbm_path(p, 7) != gbm_path(p, 8)

    def test_all_positive(self):
        p = GbmParams(s0=2.0, mu=0.0, sigma=1.0, n_points=30)
        for seed in range(50):
            assert all(y > 0 for y in gbm_path(p, seed))

    def test_zero_drift_log_ratio_centered(self):
        # drift = mu - sigma^2/2 = 0, so mean log(Y_last/Y_0) over many
        # seeds stays within 3 standard errors of zero
        n, sigma = 200, 0.2
        p = GbmParams(s0=50.0, mu=0.02, sigma=sigma, n_points=n)
        logs = [math.log(gbm_path(p, s)[-1] / 50.0) for s in range(1000)]
        mean = sum(logs) / len(logs)
        bound = 3 * sigma * math.sqrt(n - 1) / math.sqrt(1000)
        assert abs(mean) <= bound


class TestApplyTransform:
    def test_identity(self):
        assert apply_transform([1, 2, 3], ShapeTransform.IDENTITY) == [1, 2, 3]

    def test_reflect_reverse_is_reflect_then_reverse(self):
        # reflected about (4 + 1) / 2: [4, 3, 1]; then reversed
        assert apply_transform([1.0, 2.0, 4.0],
                               ShapeTransform.REFLECT_REVERSE) == [1.0, 3.0, 4.0]

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            apply_transform([], ShapeTransform.IDENTITY)

    def test_involutions(self):
        ys = [3.0, 1.0, 4.0, 1.5, 9.0]
        t = ShapeTransform.REFLECT_REVERSE
        twice = apply_transform(apply_transform(ys, t), t)
        assert all(abs(a - b) < 1e-12 for a, b in zip(twice, ys))

    def test_reflect_preserves_envelope(self):
        ys = [2.0, 7.0, 3.0]
        out = apply_transform(ys, ShapeTransform.REFLECT_REVERSE)
        assert max(out) == max(ys) and min(out) == min(ys)


class TestClassifyTrend:
    """Rule-based classification on canonical and constructed series."""

    def test_exact_line_increase(self):
        assert classify_trend([1, 2, 3, 4, 5]) is TrendClass.LINEAR_INCREASE

    def test_exact_line_decrease(self):
        assert classify_trend([5, 4, 3, 2, 1]) is TrendClass.LINEAR_DECREASE

    def test_constant_is_plateau(self):
        assert classify_trend([5, 5, 5, 5]) is TrendClass.PLATEAU

    def test_tiny_relative_range_is_plateau(self):
        assert classify_trend([100.0, 100.4, 99.9, 100.2, 100.1]) is TrendClass.PLATEAU

    def test_doubling_is_convex_increase(self):
        assert classify_trend([1, 2, 4, 8, 16]) is TrendClass.CONVEX_INCREASE

    def test_decay_is_convex_decrease(self):
        assert classify_trend([16, 8, 4, 2, 1]) is TrendClass.CONVEX_DECREASE

    def test_saturating_is_concave_increase(self):
        assert classify_trend([1, 9, 13, 15, 16]) is TrendClass.CONCAVE_INCREASE

    def test_concave_decrease(self):
        assert classify_trend([16, 15, 13, 9, 1]) is TrendClass.CONCAVE_DECREASE

    def test_zigzag_is_random(self):
        assert classify_trend([1, 10, 2, 9, 3, 8]) is TrendClass.RANDOM_FLUCTUATION

    def test_too_short(self):
        with pytest.raises(TooShortError):
            classify_trend([1, 2])

    def test_vertical_reflect_swaps_direction(self):
        # reflection must swap increase and decrease and fix the flat classes
        series = {
            TrendClass.LINEAR_INCREASE: [1, 2, 3, 4, 5],
            TrendClass.CONVEX_INCREASE: [1, 2, 4, 8, 16],
            TrendClass.PLATEAU: [5, 5, 5, 5],
            TrendClass.RANDOM_FLUCTUATION: [1, 10, 2, 9, 3, 8],
        }
        for cls, ys in series.items():
            m = max(ys) + min(ys)
            got = classify_trend([m - y for y in ys])
            if cls.direction is None:
                assert got is cls
            else:
                assert got.direction == "decrease"


class TestTrendSpecValidation:
    def test_increase_needs_positive_drift(self):
        p = GbmParams(s0=1.0, mu=-0.1, sigma=0.0, n_points=5)
        with pytest.raises(ParameterError):
            TrendSpec(TrendClass.LINEAR_INCREASE, p, ShapeTransform.IDENTITY)

    def test_decrease_needs_negative_drift(self):
        p = GbmParams(s0=1.0, mu=0.1, sigma=0.0, n_points=5)
        with pytest.raises(ParameterError):
            TrendSpec(TrendClass.CONVEX_DECREASE, p, ShapeTransform.IDENTITY)

    def test_flat_classes_need_zero_drift(self):
        p = GbmParams(s0=1.0, mu=0.1, sigma=0.0, n_points=5)
        with pytest.raises(ParameterError):
            TrendSpec(TrendClass.RANDOM_FLUCTUATION, p, ShapeTransform.IDENTITY)

    def test_presets_all_valid(self):
        for cls in TrendClass:
            spec = preset(cls)
            assert spec.trend_class is cls
            assert spec.params.n_points == 8


class TestSynthTrendSeries:
    def test_deterministic(self):
        spec = preset(TrendClass.CONVEX_INCREASE)
        assert synth_trend_series(spec, 5) == synth_trend_series(spec, 5)

    def test_output_classifies_as_requested(self):
        for cls in TrendClass:
            spec = preset(cls)
            for seed in range(25):
                ys = synth_trend_series(spec, seed)
                assert classify_trend(ys) is cls

    def test_linear_increase_has_positive_slope(self):
        spec = preset(TrendClass.LINEAR_INCREASE)
        for seed in range(50):
            ys = synth_trend_series(spec, seed)
            n = len(ys)
            xb = (n - 1) / 2
            yb = sum(ys) / n
            num = sum((i - xb) * (y - yb) for i, y in enumerate(ys))
            assert num > 0

    def test_plateau_endpoints_close(self):
        # brute-force check over many seeds: plateau outputs stay flat
        spec = preset(TrendClass.PLATEAU)
        for seed in range(1000):
            ys = synth_trend_series(spec, seed)
            assert abs(ys[-1] - ys[0]) / ys[0] < 0.05

    def test_second_difference_sign_matches_recipe(self):
        # curvature classes show the documented raw second-difference sign
        # in the majority over many seeds
        cases = {TrendClass.CONVEX_INCREASE: 1, TrendClass.CONVEX_DECREASE: 1,
                 TrendClass.CONCAVE_INCREASE: -1, TrendClass.CONCAVE_DECREASE: -1}
        for cls, want in cases.items():
            spec = preset(cls)
            agree = 0
            total = 0
            for seed in range(1000):
                ys = synth_trend_series(spec, seed)
                d2 = [ys[i + 1] - 2 * ys[i] + ys[i - 1] for i in range(1, len(ys) - 1)]
                agree += sum(1 for d in d2 if d * want > 0)
                total += len(d2)
            assert agree / total > 0.5

    def test_unrealizable_raises_with_spec(self):
        # a plateau request with huge volatility cannot classify as plateau
        params = GbmParams(s0=100.0, mu=0.5, sigma=1.0, n_points=8)
        spec = TrendSpec(TrendClass.PLATEAU, params, ShapeTransform.IDENTITY)
        with pytest.raises(TrendUnrealizableError) as exc:
            synth_trend_series(spec, 3)
        assert exc.value.spec is spec

    def test_rejects_unverifiable_length(self):
        cls = TrendClass.LINEAR_INCREASE
        with pytest.raises(ParameterError, match="n_points"):
            synth_trend_series(preset(cls, n_points=2), 1)


class TestDriftSignRecovery:
    """Low-volatility paths with clear drift classify to the right direction."""

    def test_drift_direction_recovered(self):
        for drift, want in ((0.05, "increase"), (-0.05, "decrease"),
                            (0.35, "increase"), (-0.35, "decrease")):
            sigma = 0.02
            p = GbmParams(s0=100.0, mu=drift + sigma * sigma / 2.0,
                          sigma=sigma, n_points=8)
            hits = 0
            for seed in range(1000):
                got = classify_trend(gbm_path(p, seed))
                if got.direction == want:
                    hits += 1
            assert hits >= 990
