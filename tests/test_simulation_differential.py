"""Differential tests: the batched rating kernels against per-pair references.

The reference functions below are the per-(evaluator, response)
implementations the batched kernels replaced: one `(f @ M) @ g` product,
noise draw (SplitMix64 on Python ints, then Box-Muller) and clamp per pair,
one `np.kron` design row per training sample, and one sort per induced
ranking.  The kernels must reproduce them exactly
(`==`, never approximately), including the lambda = 0 rank-deficiency error.
The one exception is the lambda > 0 ridge of `_train_psi`, which sums the
normal equations in another order; it is held to stated float64 error bounds
(see `check_gram_fit`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socialchoice.pipeline as pipeline
from socialchoice.cardinal import RATING_MAX, RATING_MIN, cardinal_rule
from socialchoice.ordinal import ordinal_rule
from socialchoice.pipeline import (
    ComposedRewardModel,
    PromptCase,
    SimulationDataset,
    _induced_orders,
    _normal_equations,
    _rating_blocks,
    _train_psi,
    evaluate_reward,
    induced_ranking,
    simulate_collective_decision,
)
from socialchoice.profiles import OrdinalProfile, RankingBallot
from socialchoice.rules import resolve_rule, rule_ids
from socialchoice.seeding import derive_seed
from socialchoice.simulation import (
    ComponentDist,
    GroundTruthWorld,
    GroupSpec,
    IndividualPreferenceModel,
    PopulationSpec,
    ResponseRecord,
    evaluator_matrix,
    fit_individual_model,
    group_quotas,
    predict_rating,
    predicted_ratings,
    ridge_solve,
    sample_population,
    true_rating,
    true_ratings,
)

# ---------------------------------------------------------------------------
# Reference implementations.


def reference_clamp(value):
    return min(RATING_MAX, max(RATING_MIN, float(value)))


MASK64 = (1 << 64) - 1


def reference_uniform(key, counter):
    # SplitMix64's output number `counter` for the seed `key`, on Python
    # ints masked to 64 bits, cut to its top 53 bits.
    z = (key + (counter + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def reference_true_rating(world, f, y, seed, evaluator_index):
    value = float(np.asarray(f) @ np.asarray(world.M_star) @ np.asarray(y.features))
    if world.noise_sigma > 0:
        key = derive_seed(seed, "noise", y.id)
        u1 = reference_uniform(key, 2 * evaluator_index)
        u2 = reference_uniform(key, 2 * evaluator_index + 1)
        # numpy's scalar log1p, sqrt and cos give the kernel's vector results
        # bit for bit; math.log1p and math.cos differ in about 3.6% of draws.
        value += (world.noise_sigma * np.sqrt(-2.0 * np.log1p(np.float64(-u1)))
                  * np.cos(2.0 * np.pi * np.float64(u2)))
    return reference_clamp(value)


def reference_gamma(key, counter, shape):
    # Marsaglia & Tsang, one attempt at a time: attempt t reads u1, u2, u3 at
    # counter + 0, 1, 2 plus t * 2**48, and a shape below 1 is boosted from
    # shape + 1 by (1 - u4)^(1 / shape), u4 at counter + 3.  numpy's scalar
    # log and power give the kernel's vector results, as log1p and cos do.
    dd = np.float64(shape + 1.0 if shape < 1 else shape) - 1.0 / 3.0
    c = 1.0 / (3.0 * np.sqrt(dd))
    attempt = 0
    while True:
        at = counter + attempt * 2**48
        u1, u2, u3 = (reference_uniform(key, at + slot) for slot in range(3))
        x = np.sqrt(-2.0 * np.log1p(np.float64(-u1))) * np.cos(2.0 * np.pi * np.float64(u2))
        v = 1.0 + c * x
        v = v * v * v
        if v > 0 and np.log1p(np.float64(-u3)) < 0.5 * x * x + dd - dd * v + dd * np.log(v):
            break
        attempt += 1
    if shape < 1:
        return dd * v * np.power(np.float64(1.0 - reference_uniform(key, counter + 3)), 1.0 / shape)
    return dd * v


def reference_component(dist, key, counter):
    if dist.kind == "uniform":
        return dist.a + (dist.b - dist.a) * reference_uniform(key, counter)
    x = reference_gamma(key, counter, dist.a)
    y = reference_gamma(key, counter + 4, dist.b)
    return float(x / (x + y)) if x > 0 else 0.0


def reference_sample_population(spec, n, seed):
    # Evaluator e of group g reads dimension j at counters from 8 * (d * e + j).
    rows = []
    quotas = group_quotas([g.weight for g in spec.groups], n)
    for gi, (group, quota) in enumerate(zip(spec.groups, quotas)):
        key = derive_seed(seed, "population-group", gi)
        for e in range(quota):
            rows.append(tuple(reference_component(dist, key, 8 * (spec.d * e + j))
                              for j, dist in enumerate(group.components)))
    return tuple(rows)


def reference_predict_rating(psi, f, y):
    return reference_clamp(float(np.asarray(f) @ np.asarray(psi.M_hat) @ np.asarray(y.features)))


def reference_design(samples):
    X = np.vstack([np.kron(np.asarray(f, dtype=float), np.asarray(y.features, dtype=float))
                   for f, y, _ in samples])
    return X, np.asarray([float(rating) for _, _, rating in samples])


def reference_fit(samples, ridge_lambda):
    d = len(samples[0][0])
    q = len(samples[0][1].features)
    X, r = reference_design(samples)
    if ridge_lambda == 0:
        rank = np.linalg.matrix_rank(X)
        if rank < d * q:
            raise ValueError(
                f"design is rank deficient at lambda=0 (rank {rank} < {d * q}); "
                "add samples or use a positive ridge_lambda"
            )
        w = np.linalg.lstsq(X, r, rcond=None)[0]
    else:
        w = np.linalg.solve(X.T @ X + ridge_lambda * np.eye(d * q), X.T @ r)
    return tuple(tuple(row) for row in w.reshape(d, q).tolist())


def reference_samples(dataset, sample, seed):
    # The (f, y, rating) triples the pipeline trains on, in the old order.
    samples = []
    for ci, case in enumerate(dataset.cases):
        case_seed = derive_seed(seed, "case-ratings", ci)
        for ei, f in enumerate(sample):
            for y in case.responses:
                samples.append((f, y, reference_true_rating(dataset.world, f, y, case_seed, ei)))
    return samples


U = 2.0**-53


def gamma(n):
    # Higham's gamma_n = nu / (1 - nu): |(1 + d_1) ... (1 + d_n) - 1| <= gamma_n
    # for n roundings |d_i| <= u (Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., 2002, Lemma 3.1).
    return n * U / (1 - n * U)


def check_gram_fit(dataset, sample, seed, samples, ridge_lambda, M_hat, want_M_hat):
    """The lambda > 0 fit against the ridge on the formed design X and ratings r.

    Normal equations: each product or sum is one rounding, and a term of X'X
    or X'r passes at most m = N R + N + R + 1 of them on either path (X.T @ X
    sums N R products; (F'F) kron (G'G) multiplies sums of N and of R
    products; F'(R G) sums R products, then N, and adds up the row runs).  So
    each path is within gamma_m |X|'|X|, or gamma_m |X|'|r|, of the exact
    value (Higham 2002, section 3.1), and the two within twice that,
    elementwise.

    Solves: each fit w must solve its own formed equations A~ w = b~ stably.
    Its normwise backward error ||A~ w - b~|| / (||A~|| ||w|| + ||b~||), with
    the residual's own rounding gamma_{n+1} (|A~| |w| + |b~|) added, must be
    at most eta = 2 n^2 gamma_{3n} (n = d q): Wilkinson's normwise bound for
    LU with partial pivoting (Higham 2002, chapter 9) at growth factor 1.

    M_hat: so each fit solves (A + dA) w = b + db exactly, with A = X'X +
    lambda I and b = X'r exact, ||dA|| <= eta ||A~|| + ||gamma_m (|X|'|X| +
    lambda I)||_F and ||db|| <= eta ||b~|| + ||gamma_m |X|'|r|||.  Then
    ||w - A^-1 b|| <= ||A^-1|| (||dA|| ||w|| + ||db||), where ||A^-1||_2 =
    kappa_2(A) / ||A||_2 = 1 / sigma_min(A), and the two fits differ by at
    most the sum of their two bounds.  sigma_min(A) is at least lambda, as
    X'X is positive semidefinite, and at least the computed sigma_min(A~) less
    ||A~ - A||_F (Weyl) and less n^2 u ||A~||_2 for the SVD's own error.
    """
    X, r = reference_design(samples)
    n_rows, n = X.shape
    N = len(sample)
    R = n_rows // N
    F = evaluator_matrix(sample, dataset.world.d)
    G = np.array([y.features for case in dataset.cases for y in case.responses])
    gram, rhs = _normal_equations(dataset, F, G, seed)
    rounding = gamma(N * R + N + R + 1)
    abs_X = np.abs(X)
    gram_err = rounding * (abs_X.T @ abs_X)
    rhs_err = rounding * (abs_X.T @ np.abs(r))
    assert (np.abs(gram - X.T @ X) <= 2 * gram_err).all()
    assert (np.abs(rhs.ravel() - X.T @ r) <= 2 * rhs_err).all()

    eta = 2 * n**2 * gamma(3 * n)
    A_err = np.linalg.norm(gram_err + rounding * ridge_lambda * np.eye(n))
    b_err = np.linalg.norm(rhs_err)

    def solve_error(A_formed, b_formed, w):
        # Checks that w solved A_formed w = b_formed stably, and bounds
        # ||w - A^-1 b|| / ||A^-1|| for the exact A and b.
        residual = np.abs(A_formed @ w - b_formed)
        residual += gamma(n + 1) * (np.abs(A_formed) @ np.abs(w) + np.abs(b_formed))
        A_norm, b_norm = np.linalg.norm(A_formed, 2), np.linalg.norm(b_formed)
        w_norm = np.linalg.norm(w)
        assert np.linalg.norm(residual) <= eta * (A_norm * w_norm + b_norm)
        return (eta * A_norm + A_err) * w_norm + eta * b_norm + b_err

    A = X.T @ X + ridge_lambda * np.eye(n)
    b = X.T @ r
    ours, want = np.ravel(M_hat), np.ravel(want_M_hat)
    bound = solve_error(gram + ridge_lambda * np.eye(n), rhs.ravel(), ours)
    bound += solve_error(A, b, want)
    sigma = np.linalg.svd(A, compute_uv=False)
    sigma_min = max(ridge_lambda, sigma[-1] - A_err - n**2 * U * sigma[0])
    assert np.linalg.norm(ours - want) <= bound / sigma_min


def reference_induced_ranking(ratings):
    # `ratings` maps each response id to one evaluator's predicted rating.
    return tuple(sorted(ratings, key=lambda rid: (-ratings[rid], rid)))


def outcome(fn):
    try:
        return "ok", fn()
    except ValueError as exc:
        return "error", str(exc)


# ---------------------------------------------------------------------------
# Inputs.  Sizes come from hypothesis; the entries, repeats and id orders
# come from a numpy stream it seeds, which keeps 60 x 6 blocks cheap to draw.  Matrix entries span
# [-12, 12] and features mix exact 0s and 1s with uniform values, so ratings
# clamp at both ends; responses repeat feature rows, so ratings tie.


@st.composite
def blocks(draw, max_cases=1):
    d = draw(st.integers(1, 6))
    q = draw(st.integers(1, 6))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def features(shape):
        values = rng.uniform(0.0, 1.0, shape)
        values[rng.random(shape) < 0.2] = 0.0
        values[rng.random(shape) < 0.2] = 1.0
        return values

    M = tuple(map(tuple, rng.uniform(-12.0, 12.0, (d, q)).tolist()))
    sample = tuple(map(tuple, features((n, d)).tolist()))
    cases = []
    for c in range(draw(st.integers(1, max_cases))):
        r = draw(st.integers(2, 6))
        rows = features((r, q))[rng.integers(0, r, r)].tolist()
        ids = [f"y{j}" for j in rng.permutation(r)]
        cases.append(tuple(ResponseRecord(rid, "", row) for rid, row in zip(ids, rows)))
    return M, sample, cases


POPULATION = PopulationSpec(1, (GroupSpec(1.0, (ComponentDist("uniform", 0.0, 1.0),)),))


class TestTrueRatings:
    @settings(max_examples=150, deadline=None)
    @given(blocks(max_cases=2), st.sampled_from([0.0, 0.5, 0.3]), st.integers(0, 10**6),
           st.sampled_from([0.0, 1e-6, 0.5]))
    def test_training_matches_reference(self, block, sigma, seed, ridge_lambda):
        M, sample, cases = block
        world = GroundTruthWorld(M, sigma)
        dataset = SimulationDataset(
            tuple(PromptCase(f"p{c}", responses) for c, responses in enumerate(cases)),
            POPULATION,
            world,
        )
        samples = reference_samples(dataset, sample, seed)
        case_seed = derive_seed(seed, "case-ratings", 0)
        got = true_ratings(world, evaluator_matrix(sample, world.d), cases[0], case_seed)
        assert got.ravel().tolist() == [rating for _, _, rating in samples[: got.size]]
        ei = len(sample) - 1
        want = reference_true_rating(world, sample[ei], cases[0][1], case_seed, ei)
        assert true_rating(world, sample[ei], cases[0][1], case_seed, ei) == want

        want_fit = outcome(lambda: reference_fit(samples, ridge_lambda))
        assert outcome(lambda: fit_individual_model(samples, ridge_lambda).M_hat) == want_fit
        got_fit = outcome(lambda: _train_psi(dataset, sample, ridge_lambda, seed).M_hat)
        if ridge_lambda == 0:
            # The formed design, as in the reference: the same bits or the same error.
            assert got_fit == want_fit
        else:
            assert got_fit[0] == want_fit[0] == "ok"
            check_gram_fit(dataset, sample, seed, samples, ridge_lambda, got_fit[1], want_fit[1])

    def test_clamps_both_ends_and_rank_deficiency(self):
        world = GroundTruthWorld(((30.0, -30.0),), noise_sigma=1.0)
        ys = (ResponseRecord("hi", "", (1.0, 0.0)), ResponseRecord("lo", "", (0.0, 1.0)))
        sample = ((0.5,), (1.0,))
        got = true_ratings(world, evaluator_matrix(sample, 1), ys, 9)
        assert got.tolist() == [[10.0, 0.0], [10.0, 0.0]]
        assert got.tolist() == [[reference_true_rating(world, f, y, 9, ei) for y in ys]
                                for ei, f in enumerate(sample)]
        # Parallel feature rows leave the d*q = 2 design columns at rank 1.
        ys = (ResponseRecord("a", "", (1.0, 1.0)), ResponseRecord("b", "", (0.5, 0.5)))
        dataset = SimulationDataset((PromptCase("p", ys),), POPULATION, world)
        want = outcome(lambda: reference_fit(reference_samples(dataset, sample, 1), 0.0))
        assert want == ("error", "design is rank deficient at lambda=0 (rank 1 < 2); "
                        "add samples or use a positive ridge_lambda")
        assert outcome(lambda: _train_psi(dataset, sample, 0.0, 1)) == want


def designs_near_the_cutoff(rng, M, N, scale):
    # M x N designs U diag(s) V' whose smallest singular value is `scale`
    # times matrix_rank's cutoff sigma_max * max(M, N) * eps, sigma_max = 1.
    s = np.linspace(1.0, 0.1, N)
    s[-1] = scale * max(M, N) * np.finfo(float).eps
    U = np.linalg.qr(rng.standard_normal((M, N)))[0]
    V = np.linalg.qr(rng.standard_normal((N, N)))[0]
    return (U * s) @ V.T


class TestRidgeRank:
    """At lambda = 0, `ridge_solve` reads the rank from lstsq's one SVD; the
    verdict must be `matrix_rank`'s, which takes an SVD of its own.

    Near the cutoff the verdict itself is uncertain: rounding in forming X
    carries the smallest singular value across the cutoff for about half of
    the designs placed on it, and about a fifth of those placed at 1 +- 0.001
    of it.  Yet on 1,800 such designs (sizes 6 x 6 to 1,000 x 15, scales 0.9
    to 1.1) lstsq's rank matched `matrix_rank` every time (numpy 2.4.6).
    """

    @staticmethod
    def designs():
        rng = np.random.default_rng(7)
        yield "full rank", rng.standard_normal((40, 6))
        A = rng.standard_normal((40, 3))
        yield "rank 3 of 6", np.hstack([A, A @ rng.standard_normal((3, 3))])
        yield "a zero column", np.hstack([rng.standard_normal((30, 4)), np.zeros((30, 1))])
        yield "all zero", np.zeros((12, 3))
        for M, N in ((40, 3), (200, 6), (1000, 15)):
            for scale in (0.5, 0.99, 0.999, 1.0, 1.001, 1.01, 2.0):
                for trial in range(4):
                    yield f"{M}x{N} at {scale}", designs_near_the_cutoff(rng, M, N, scale)

    def test_the_rank_verdict_is_matrix_ranks(self):
        rng = np.random.default_rng(8)
        verdicts = set()
        for name, X in self.designs():
            y = rng.standard_normal(X.shape[0])
            rank = np.linalg.matrix_rank(X)
            if rank < X.shape[1]:
                with pytest.raises(ValueError) as caught:
                    ridge_solve(X, y, 0.0)
                assert str(caught.value) == (
                    f"design is rank deficient at lambda=0 (rank {rank} < {X.shape[1]}); "
                    "add samples or use a positive ridge_lambda"), name
            else:
                assert ridge_solve(X, y, 0.0).tolist() == (
                    np.linalg.lstsq(X, y, rcond=None)[0].tolist()), name
            verdicts.add((name.partition(" at ")[2], rank < X.shape[1]))
        # Both verdicts are reached just either side of the cutoff.
        assert {("0.999", True), ("1.001", False)} <= verdicts


class TestRatingBlocks:
    # Case 0 rates a, b, c and case 1 rates b, a: the same ids in two cases of
    # different sizes, and a with the same features in both.
    WORLD = GroundTruthWorld(((2.0, -1.0), (0.5, 3.0)), noise_sigma=0.8)
    CASES = (
        (ResponseRecord("a", "", (1.0, 0.2)), ResponseRecord("b", "", (0.3, 0.9)),
         ResponseRecord("c", "", (0.0, 1.0))),
        (ResponseRecord("b", "", (0.6, 0.6)), ResponseRecord("a", "", (1.0, 0.2))),
    )

    @pytest.mark.parametrize("sigma", [0.0, 0.8])
    @pytest.mark.parametrize("rows_per_run", [1, 7, None])
    def test_runs_are_each_cases_true_ratings(self, monkeypatch, sigma, rows_per_run):
        world = GroundTruthWorld(self.WORLD.M_star, sigma)
        dataset = SimulationDataset(
            tuple(PromptCase(f"p{c}", responses) for c, responses in enumerate(self.CASES)),
            POPULATION,
            world,
        )
        F = np.random.default_rng(5).uniform(0.0, 1.0, (23, 2))
        G = np.array([y.features for responses in self.CASES for y in responses])
        if rows_per_run is not None:
            monkeypatch.setattr(pipeline, "RATING_BLOCK_ENTRIES", rows_per_run * len(G))
        runs = list(_rating_blocks(dataset, F, G, 17))
        step = rows_per_run or len(F)
        assert [(rows.start, len(block)) for rows, block in runs] == [
            (start, min(step, len(F) - start)) for start in range(0, len(F), step)
        ]
        ratings = np.concatenate([block for _, block in runs])
        lo = 0
        for ci, responses in enumerate(self.CASES):
            case_seed = derive_seed(17, "case-ratings", ci)
            want = true_ratings(world, F, responses, case_seed)
            assert ratings[:, lo : lo + len(responses)].tobytes() == want.tobytes()
            # One evaluator and one response alone give the same bits.
            e, j = 11, len(responses) - 1
            one = true_ratings(world, F[e : e + 1], responses[j:], case_seed, e)
            assert one.tobytes() == want[e : e + 1, j:].tobytes()
            lo += len(responses)
        # Response a has the same features in both cases, but its own noise in each.
        assert np.array_equal(ratings[:, 0], ratings[:, 4]) == (sigma == 0)


class TestPredictions:
    @settings(max_examples=150, deadline=None)
    @given(blocks(), st.sampled_from(["mean", "median"]))
    def test_predictions_and_rankings_match_reference(self, block, rule_w):
        M, sample, (responses,) = block
        psi = IndividualPreferenceModel(M, 0.0)
        got = predicted_ratings(psi, evaluator_matrix(sample, psi.d), responses)
        want = [[reference_predict_rating(psi, f, y) for y in responses] for f in sample]
        assert got.tolist() == want
        assert predict_rating(psi, sample[-1], responses[0]) == want[-1][0]

        ids = [y.id for y in responses]
        rankings = [reference_induced_ranking(dict(zip(ids, row))) for row in want]
        assert [tuple(ids[j] for j in row) for row in _induced_orders(got, ids)] == rankings
        assert induced_ranking(psi, sample[0], responses) == rankings[0]

        case = PromptCase("p", responses)
        profile = OrdinalProfile(case.response_ids(), tuple(map(RankingBallot, rankings)))
        winner = ordinal_rule("ranked_pairs")(profile).winner
        assert simulate_collective_decision(case, psi, sample, "ranked_pairs").id == winner

        model = ComposedRewardModel(psi, sample, rule_w)
        for j, y in enumerate(responses):
            want_reward = float(cardinal_rule(rule_w)([row[j] for row in want]))
            assert evaluate_reward(model, "p", y) == want_reward

    @settings(max_examples=100, deadline=None)
    @given(blocks(), st.data())
    def test_counted_ballots_decide_as_unit_ballots(self, block, data):
        # The evaluators vote as counted rankings; each rule must decide as
        # on the N unit ballots the constructor checks and merges.
        M, sample, (responses,) = block
        psi = IndividualPreferenceModel(M, 0.0)
        case = PromptCase("p", responses)
        ids = case.response_ids()
        ratings = predicted_ratings(psi, evaluator_matrix(sample, psi.d), responses)
        rankings = [tuple(ids[j] for j in row) for row in _induced_orders(ratings, ids)]
        units = OrdinalProfile(case.response_ids(), tuple(map(RankingBallot, rankings)))
        for rule in rule_ids("ordinal"):
            want = ordinal_rule(rule)(units).winner
            assert simulate_collective_decision(case, psi, sample, rule).id == want
        k = data.draw(st.integers(1, len(responses)))
        for rule in rule_ids("committee"):
            want = resolve_rule(rule).fn(units, k)
            assert simulate_collective_decision(case, psi, sample, rule, k) == want

    def test_equal_ratings_rank_by_id(self):
        psi = IndividualPreferenceModel(((1.0,),), 0.0)
        ys = tuple(ResponseRecord(rid, "", (0.5,)) for rid in ("b", "c", "a"))
        assert induced_ranking(psi, (1.0,), ys) == ("a", "b", "c")
        ratings = {y.id: reference_predict_rating(psi, (1.0,), y) for y in ys}
        assert induced_ranking(psi, (1.0,), ys) == reference_induced_ranking(ratings)


# Beta shapes below, at and above 1, and both ends of the range the sampler
# must survive; uniform bounds include a = b.
SHAPES = st.sampled_from([1e-3, 0.05, 0.3, 0.7, 1.0, 1.5, 2.5, 40.0, 1e6])


@st.composite
def components(draw):
    if draw(st.booleans()):
        return ComponentDist("beta", draw(SHAPES), draw(SHAPES))
    a, b = sorted(draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]) | st.floats(0, 1),
                                min_size=2, max_size=2)))
    return ComponentDist("uniform", a, b)


@st.composite
def populations(draw):
    d = draw(st.integers(1, 4))
    raw = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    weights = [w / sum(raw) for w in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    groups = tuple(GroupSpec(w, tuple(draw(components()) for _ in range(d))) for w in weights)
    return PopulationSpec(d, groups)


class TestPopulationDraws:
    @settings(max_examples=150, deadline=None)
    @given(populations(), st.integers(1, 60), st.integers(0, 2**63 - 1))
    def test_draws_match_reference(self, spec, n, seed):
        got = sample_population(spec, n, seed)
        assert got.tolist() == [list(row) for row in reference_sample_population(spec, n, seed)]
