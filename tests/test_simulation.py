"""Tests for population sampling, the synthetic world, and model fitting."""

import math
import random
import warnings

import numpy as np
import pytest

from socialchoice.seeding import derive_seed
from socialchoice.simulation import (
    ComponentDist,
    GroundTruthWorld,
    GroupSpec,
    IndividualPreferenceModel,
    PopulationSpec,
    ResponseRecord,
    clamp_ratings,
    fit_individual_model,
    group_quotas,
    kron_rows,
    predict_rating,
    sample_population,
    true_rating,
    true_ratings,
)


def uniform_group(weight, lo, hi, d=1):
    return GroupSpec(weight, tuple(ComponentDist("uniform", lo, hi) for _ in range(d)))


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(0, "noise", 1, "y1") == derive_seed(0, "noise", 1, "y1")
        assert derive_seed(0, "noise", 1, "y1") != derive_seed(0, "noise", 1, "y2")
        assert derive_seed(0, "noise", 1, "y1") != derive_seed(1, "noise", 1, "y1")

    def test_range(self):
        for parts in (("a",), (1, 2), ("population", 7)):
            value = derive_seed(3, *parts)
            assert 0 <= value < 2**63

    def test_no_concatenation_collisions(self):
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


class TestGroupQuotas:
    def test_even_split(self):
        assert group_quotas([0.5, 0.5], 10) == [5, 5]

    def test_majority_split(self):
        assert group_quotas([0.52, 0.48], 100) == [52, 48]

    def test_largest_remainder_assignment(self):
        # floors are 1, 1, 0 and the two largest remainders get the leftovers
        assert group_quotas([0.45, 0.35, 0.2], 4) == [2, 1, 1]

    def test_sums_and_deviation(self):
        rng = random.Random(8)
        for _ in range(50):
            k = rng.randint(1, 5)
            raw = [rng.uniform(0.05, 1) for _ in range(k)]
            total = sum(raw)
            weights = [w / total for w in raw]
            n = rng.randint(1, 40)
            quotas = group_quotas(weights, n)
            assert sum(quotas) == n
            for w, quota in zip(weights, quotas):
                assert abs(quota - w * n) < 1.0


class TestSamplePopulation:
    def test_deterministic(self):
        spec = PopulationSpec(2, (uniform_group(0.6, 0, 1, d=2), uniform_group(0.4, 0, 1, d=2)))
        assert np.array_equal(sample_population(spec, 9, seed=4), sample_population(spec, 9, seed=4))
        assert not np.array_equal(
            sample_population(spec, 9, seed=4), sample_population(spec, 9, seed=5)
        )

    def test_draw_is_a_read_only_float_array(self):
        spec = PopulationSpec(2, (uniform_group(1.0, 0, 1, d=2),))
        sample = sample_population(spec, 5, seed=0)
        assert (sample.shape, sample.dtype) == ((5, 2), np.float64)
        assert not sample.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sample[0, 0] = 0.5

    def test_quota_counts_visible_in_disjoint_supports(self):
        spec = PopulationSpec(1, (uniform_group(0.52, 0.0, 0.4), uniform_group(0.48, 0.6, 1.0)))
        evaluators = sample_population(spec, 100, seed=0)
        low = sum(1 for (x,) in evaluators if x <= 0.4)
        high = sum(1 for (x,) in evaluators if x >= 0.6)
        assert (low, high) == (52, 48)

    def test_components_in_unit_interval(self):
        spec = PopulationSpec(
            3,
            (
                GroupSpec(0.5, (ComponentDist("beta", 2, 5),) * 3),
                GroupSpec(0.5, (ComponentDist("uniform", 0.2, 0.9),) * 3),
            ),
        )
        for f in sample_population(spec, 40, seed=11):
            assert len(f) == 3
            assert all(0.0 <= x <= 1.0 for x in f)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            PopulationSpec(1, (uniform_group(0.6, 0, 1), uniform_group(0.6, 0, 1)))
        with pytest.raises(ValueError, match="positive"):
            GroupSpec(0.0, (ComponentDist("uniform", 0, 1),))
        with pytest.raises(ValueError, match="component distributions"):
            PopulationSpec(2, (uniform_group(1.0, 0, 1, d=1),))
        with pytest.raises(ValueError, match="inside"):
            ComponentDist("uniform", -0.1, 0.5)
        with pytest.raises(ValueError, match="kind"):
            ComponentDist("normal", 0, 1)

    @pytest.mark.parametrize(
        "a, b, fault",
        [(math.nan, 2.0, "positive"), (2.0, math.nan, "positive"),
         (math.inf, 2.0, "finite"), (2.0, math.inf, "finite")],
    )
    def test_non_finite_beta_shapes_rejected(self, a, b, fault):
        # Only built: the gamma draws never accept at such a shape, so
        # sampling it would not return.
        with pytest.raises(ValueError, match=f"^beta shape parameters must be {fault}$"):
            ComponentDist("beta", a, b)

    def test_nan_weight_and_noise_rejected(self):
        with pytest.raises(ValueError, match="^group weight must be positive$"):
            GroupSpec(math.nan, (ComponentDist("uniform", 0, 1),))
        with pytest.raises(ValueError, match="^noise_sigma must be non-negative$"):
            PopulationSpec(1, (uniform_group(1.0, 0, 1),), math.nan)
        with pytest.raises(ValueError, match="^noise_sigma must be non-negative$"):
            GroundTruthWorld(((1.0,),), math.nan)

    def test_zero_sample_size_rejected(self):
        spec = PopulationSpec(1, (uniform_group(1.0, 0, 1),))
        with pytest.raises(ValueError, match="at least 1"):
            sample_population(spec, 0, seed=0)


def beta_group(weight, a, b, d=1):
    return GroupSpec(weight, tuple(ComponentDist("beta", a, b) for _ in range(d)))


class TestPopulationDraws:
    def test_a_groups_first_rows_do_not_depend_on_n(self):
        spec = PopulationSpec(2, (beta_group(0.3, 0.5, 2.0, d=2), uniform_group(0.7, 0.1, 0.8, d=2)))
        full = sample_population(spec, 200, seed=9)
        quotas = group_quotas([0.3, 0.7], 200)
        groups = (full[: quotas[0]], full[quotas[0] :])
        for n in (1, 2, 7, 50, 199):
            rows = sample_population(spec, n, seed=9)
            k = group_quotas([0.3, 0.7], n)
            assert rows.tolist() == groups[0][: k[0]].tolist() + groups[1][: k[1]].tolist()

    @pytest.mark.parametrize("a, b", [(0.3, 1.0), (1.0, 2.5), (2.5, 40.0), (40.0, 0.3), (0.3, 0.3)])
    def test_beta_mean_and_variance(self, a, b):
        # Tolerances are 5 standard errors: sqrt(var / n) for the mean and
        # var * sqrt((excess kurtosis + 2) / n) for the variance.
        n = 10**5
        x = np.array(sample_population(PopulationSpec(1, (beta_group(1.0, a, b),)), n, seed=17))
        s = a + b
        mean, var = a / s, a * b / (s * s * (s + 1))
        excess = 6 * ((a - b) ** 2 * (s + 1) - a * b * (s + 2)) / (a * b * (s + 2) * (s + 3))
        assert abs(x.mean() - mean) <= 5 * math.sqrt(var / n)
        assert abs(x.var() - var) <= 5 * var * math.sqrt((excess + 2) / n)

    def test_degenerate_uniform_is_its_bound(self):
        # Acceptance check 8 reads one-hot evaluators from uniform(a, a).
        values = [0.0, 0.3, 1 / 3, 1.0]
        spec = PopulationSpec(4, (GroupSpec(1.0, tuple(ComponentDist("uniform", v, v) for v in values)),))
        assert sample_population(spec, 50, seed=2).tolist() == [values] * 50

    @pytest.mark.parametrize("shape", [1e-3, 1e6])
    def test_extreme_shapes_stay_finite(self, shape):
        spec = PopulationSpec(2, (beta_group(1.0, shape, shape, d=2),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = np.array(sample_population(spec, 2000, seed=4))
        assert np.isfinite(x).all() and (x >= 0).all() and (x <= 1).all()
        if shape < 1:
            # Both gammas underflow to 0 in most draws; the draw is then 0.0,
            # as random.betavariate gives, and never 0 / 0.
            assert (x == 0.0).mean() > 0.3
        else:
            assert abs(x.mean() - 0.5) < 1e-3


def one_hot_response(rid, j, q):
    features = [0.0] * q
    features[j] = 1.0
    return ResponseRecord(rid, f"text {rid}", tuple(features))


class TestTrueRating:
    def test_zero_evaluator_rates_zero(self):
        world = GroundTruthWorld(((3.0, 4.0), (1.0, 2.0)))
        y = ResponseRecord("y0", "t", (1.0, 1.0))
        assert true_rating(world, (0.0, 0.0), y, seed=0, evaluator_index=0) == 0.0

    def test_scalar_world(self):
        world = GroundTruthWorld(((10.0,),))
        y = ResponseRecord("y0", "t", (1.0,))
        assert true_rating(world, (0.5,), y, seed=0, evaluator_index=0) == 5.0

    def test_always_clamped(self):
        world = GroundTruthWorld(((100.0,),), noise_sigma=5.0)
        y = ResponseRecord("y0", "t", (1.0,))
        for i in range(20):
            value = true_rating(world, (1.0,), y, seed=7, evaluator_index=i)
            assert 0.0 <= value <= 10.0

    def test_noise_stream_keyed_by_evaluator_and_response(self):
        world = GroundTruthWorld(((1.0,),), noise_sigma=1.0)
        ys = [ResponseRecord(f"y{i}", "t", (1.0,)) for i in range(3)]
        first = [true_rating(world, (0.5,), y, seed=3, evaluator_index=e) for e in range(2) for y in ys]
        again = [true_rating(world, (0.5,), y, seed=3, evaluator_index=e) for e in range(2) for y in reversed(ys)]
        assert sorted(first) == sorted(again)
        assert first != again

    def test_dimension_mismatch(self):
        world = GroundTruthWorld(((1.0, 2.0),))
        with pytest.raises(ValueError, match="features"):
            true_rating(world, (0.5, 0.5), ResponseRecord("y", "t", (1.0, 1.0)), 0, 0)


class TestNoiseStream:
    # f' M g is 5 for every pair, so sigma = 0.5 keeps 10 sigma from either
    # clamp and each rating minus 5 is the noise draw itself.
    WORLD = GroundTruthWorld(((10.0,),), noise_sigma=0.5)
    RESPONSES = tuple(ResponseRecord(f"y{j}", "", (1.0,)) for j in range(50))

    def block(self, n, responses=RESPONSES, first_index=0, seed=11):
        F = np.full((n, 1), 0.5)
        return true_ratings(self.WORLD, F, responses, seed, first_index)

    def test_rows_depend_only_on_the_evaluator_index(self):
        full = self.block(40)
        for k in (1, 17, 39):
            assert np.array_equal(self.block(40 - k, first_index=k), full[k:])
            assert np.array_equal(self.block(1, first_index=k), full[k : k + 1])

    def test_columns_depend_only_on_the_response(self):
        full = self.block(30)
        picked = [7, 2, 41, 2, 0]
        got = self.block(30, tuple(self.RESPONSES[j] for j in picked))
        assert np.array_equal(got, full[:, picked])
        assert not np.array_equal(full[:, 0], full[:, 1])

    def test_draws_are_normal_with_sigma(self):
        noise = (self.block(2000) - 5.0).ravel()
        sigma = self.WORLD.noise_sigma
        assert noise.size == 10**5
        assert abs(noise.mean()) <= 5 * sigma / math.sqrt(noise.size)
        assert abs(noise.var() / sigma**2 - 1) <= 0.02

    def test_no_runtime_warnings(self):
        # uint64 arithmetic must wrap silently, and log1p(-u) must stay finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.block(500, first_index=2**40)
            true_rating(self.WORLD, (0.5,), self.RESPONSES[0], 11, 3)


class TestFitIndividualModel:
    def test_recovers_ground_truth(self):
        rng = random.Random(12)
        M_star = ((2.0, -1.5), (0.5, 3.0))
        world = GroundTruthWorld(M_star)
        samples = []
        for i in range(16):
            f = (rng.random(), rng.random())
            y = ResponseRecord(f"y{i}", "t", (rng.random(), rng.random()))
            samples.append((f, y, float(np.asarray(f) @ np.asarray(M_star) @ y.features)))
        psi = fit_individual_model(samples, ridge_lambda=1e-9)
        for got_row, want_row in zip(psi.M_hat, M_star):
            for got, want in zip(got_row, want_row):
                assert abs(got - want) <= 1e-6

    def test_held_out_prediction_error(self):
        # M_star keeps f'Mg inside [0, 10] for f, g in the unit cube, so the
        # clamp never distorts a target and the fit must be exact.
        rng = random.Random(13)
        M_star = ((1.0, 2.0, 0.5), (0.0, 1.5, 2.5))
        world = GroundTruthWorld(M_star)
        def draw(i):
            f = (rng.random(), rng.random())
            y = ResponseRecord(f"y{i}", "t", tuple(rng.random() for _ in range(3)))
            return f, y, true_rating(world, f, y, seed=0, evaluator_index=i)
        train = [draw(i) for i in range(24)]
        psi = fit_individual_model(train, ridge_lambda=0.0)
        for i in range(24, 40):
            f, y, want = draw(i)
            assert abs(predict_rating(psi, f, y) - want) <= 1e-5

    def test_rank_deficiency_reported_at_zero_lambda(self):
        y = ResponseRecord("y0", "t", (1.0, 0.0))
        samples = [((1.0,), y, 5.0), ((0.5,), y, 2.5)]
        with pytest.raises(ValueError, match="rank deficient"):
            fit_individual_model(samples, ridge_lambda=0.0)

    def test_ridge_shrinks_toward_zero(self):
        y = ResponseRecord("y0", "t", (1.0,))
        samples = [((1.0,), y, 10.0)]
        norms = []
        for lam in (0.1, 1.0, 10.0, 1000.0):
            psi = fit_individual_model(samples, ridge_lambda=lam)
            norms.append(abs(psi.M_hat[0][0]))
        assert norms == sorted(norms, reverse=True)
        assert norms[-1] < 0.02

    def test_constant_evaluator_gives_per_response_means(self):
        # With d=1 and f fixed at 1, the model reduces to one score per
        # response: the least-squares fit is that response's mean rating.
        ys = [one_hot_response(f"y{j}", j, 3) for j in range(3)]
        samples = [
            ((1.0,), ys[0], 4.0),
            ((1.0,), ys[0], 6.0),
            ((1.0,), ys[1], 2.0),
            ((1.0,), ys[1], 3.0),
            ((1.0,), ys[2], 9.0),
            ((1.0,), ys[2], 9.0),
        ]
        psi = fit_individual_model(samples, ridge_lambda=0.0)
        assert predict_rating(psi, (1.0,), ys[0]) == pytest.approx(5.0)
        assert predict_rating(psi, (1.0,), ys[1]) == pytest.approx(2.5)
        assert predict_rating(psi, (1.0,), ys[2]) == pytest.approx(9.0)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            fit_individual_model([], ridge_lambda=1.0)


class TestPredictRating:
    def test_matches_noiseless_world(self):
        M = ((1.0, 0.5), (2.0, -1.0))
        world = GroundTruthWorld(M)
        psi = IndividualPreferenceModel(M, ridge_lambda=0.0)
        rng = random.Random(14)
        for i in range(10):
            f = (rng.random(), rng.random())
            y = ResponseRecord(f"y{i}", "t", (rng.random(), rng.random()))
            assert predict_rating(psi, f, y) == true_rating(world, f, y, 0, i)

    def test_zero_matrix(self):
        psi = IndividualPreferenceModel(((0.0,),), ridge_lambda=1.0)
        assert predict_rating(psi, (0.9,), ResponseRecord("y", "t", (1.0,))) == 0.0

    def test_scalar_case(self):
        psi = IndividualPreferenceModel(((10.0,),), ridge_lambda=0.0)
        assert predict_rating(psi, (0.3,), ResponseRecord("y", "t", (1.0,))) == pytest.approx(3.0)


class TestKronRows:
    def test_rows_are_written_into_out(self):
        F = np.array([[1.0, 2.0], [3.0, 4.0]])
        G = np.array([[5.0], [6.0], [7.0]])
        out = np.full((8, 2), np.nan)
        rows = kron_rows(F[:, None], G[None], out=out[1:7])
        assert np.shares_memory(rows, out)
        assert out[1:7].tolist() == kron_rows(F[:, None], G[None]).tolist() == [
            [5.0, 10.0], [6.0, 12.0], [7.0, 14.0], [15.0, 20.0], [18.0, 24.0], [21.0, 28.0],
        ]
        assert np.isnan(out[[0, 7]]).all()


class TestClamp:
    def test_bounds(self):
        assert clamp_ratings(np.array([-3.0, 12.0, math.pi])).tolist() == [0.0, 10.0, math.pi]
