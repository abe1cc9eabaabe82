"""Reward-model pipeline tests.

The recurring three-response election (23 voters, margins +1/+3/+7) doubles
here as a jury and as an engineered evaluator population, because its three
single-winner outcomes (borda C, instant-runoff A, ranked-pairs B) make rule
sensitivity visible end to end.
"""

import json

import numpy as np
import pytest

from socialchoice.cardinal import Committee
from socialchoice.pipeline import (
    ComposedRewardModel,
    FittedRewardModel,
    PipelineConfig,
    PromptCase,
    _fit_targets,
    config_from_json,
    dataset_from_json,
    evaluate_reward,
    inference_time_choice,
    induced_ranking,
    rank_target_scores,
    rlchf_from_features,
    run_pipeline,
    select_response,
    sft_jsonl_lines,
    simulate_collective_decision,
    variant1_targets,
)
from socialchoice.profiles import RankingBallot
from socialchoice.seeding import derive_seed
from socialchoice.simulation import (
    ComponentDist,
    GroupSpec,
    IndividualPreferenceModel,
    PopulationSpec,
    ResponseRecord,
    predict_rating,
    sample_population,
)

JURY = (
    RankingBallot(("A", "B", "C"), 4),
    RankingBallot(("A", "C", "B"), 4),
    RankingBallot(("B", "C", "A"), 9),
    RankingBallot(("C", "A", "B"), 4),
    RankingBallot(("C", "B", "A"), 2),
)


def one_hot_responses():
    return (
        ResponseRecord("A", "answer a", (1.0, 0.0, 0.0)),
        ResponseRecord("B", "answer b", (0.0, 1.0, 0.0)),
        ResponseRecord("C", "answer c", (0.0, 0.0, 1.0)),
    )


@pytest.fixture
def jury_case():
    return PromptCase("what should we cook?", one_hot_responses(), JURY)


# Five evaluator archetypes, one per ballot type above; row g of M scores the
# one-hot responses 9/6/3 in that archetype's preference order.
FIGURE_M = (
    (9.0, 6.0, 3.0),  # A > B > C
    (9.0, 3.0, 6.0),  # A > C > B
    (3.0, 9.0, 6.0),  # B > C > A
    (6.0, 3.0, 9.0),  # C > A > B
    (3.0, 6.0, 9.0),  # C > B > A
)
FIGURE_COUNTS = (4, 4, 9, 4, 2)


def figure_psi():
    return IndividualPreferenceModel(FIGURE_M, 0.0)


def figure_sample():
    sample = []
    for group, count in enumerate(FIGURE_COUNTS):
        f = tuple(1.0 if i == group else 0.0 for i in range(5))
        sample.extend([f] * count)
    return tuple(sample)


class TestPromptCase:
    def test_single_response_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            PromptCase("x", (ResponseRecord("A", "a", (1.0,)),))

    def test_duplicate_response_ids_rejected(self):
        responses = (
            ResponseRecord("A", "a", (1.0,)),
            ResponseRecord("A", "b", (2.0,)),
        )
        with pytest.raises(ValueError, match="duplicate"):
            PromptCase("x", responses)

    def test_mixed_feature_dimensions_rejected(self):
        responses = (
            ResponseRecord("A", "a", (1.0,)),
            ResponseRecord("B", "b", (1.0, 2.0)),
        )
        with pytest.raises(ValueError, match="dimension"):
            PromptCase("x", responses)

    def test_jury_over_wrong_alternatives_rejected(self):
        jury = (RankingBallot(("A", "B", "D")),)
        with pytest.raises(ValueError):
            PromptCase("x", one_hot_responses(), jury)

    def test_jury_must_rank_every_response(self):
        jury = (RankingBallot(("A", "B")),)
        with pytest.raises(ValueError):
            PromptCase("x", one_hot_responses(), jury)

    def test_jury_profile_is_the_checked_profile(self, jury_case):
        # The profile built to check the jury is kept, not rebuilt per call.
        profile = jury_case.jury_profile()
        assert jury_case.jury_profile() is profile
        assert profile.num_voters == 23


class TestVariant1Targets:
    def test_rank_score_map_endpoints(self):
        assert rank_target_scores(("X", "Y")) == {"X": 10.0, "Y": 0.0}

    def test_rank_score_map_is_affine_in_position(self):
        scores = rank_target_scores(("P", "Q", "R", "S", "T"))
        assert scores == {"P": 10.0, "Q": 7.5, "R": 5.0, "S": 2.5, "T": 0.0}

    def test_borda_targets_on_jury_case(self, jury_case):
        # Borda order is C > B > A, so the linear map gives 10 / 5 / 0.
        assert variant1_targets(jury_case, "borda") == {"C": 10.0, "B": 5.0, "A": 0.0}

    def test_three_rules_three_distinct_target_orders(self, jury_case):
        orders = set()
        for rule in ("borda", "ranked_pairs", "instant_runoff"):
            targets = variant1_targets(jury_case, rule)
            orders.add(tuple(sorted(targets, key=lambda rid: -targets[rid])))
        assert orders == {("C", "B", "A"), ("B", "C", "A"), ("A", "B", "C")}


def fit_jury_targets(cases, rule_f, ridge_lambda):
    """The rankings variant's reward model: each jury aggregated by rule_f, then fitted."""
    return _fit_targets(cases, [variant1_targets(case, rule_f) for case in cases], ridge_lambda)


class TestFitJuryTargets:
    def test_fitted_model_reproduces_targets(self, jury_case):
        model = fit_jury_targets([jury_case], "borda", 1e-9)
        targets = {"A": 0.0, "B": 5.0, "C": 10.0}
        for y in jury_case.responses:
            assert evaluate_reward(model, jury_case.prompt, y) == pytest.approx(
                targets[y.id], abs=1e-6
            )

    def test_unanimous_two_response_targets(self):
        responses = (
            ResponseRecord("A", "a", (1.0, 0.0)),
            ResponseRecord("B", "b", (0.0, 1.0)),
        )
        case = PromptCase("x", responses, (RankingBallot(("A", "B"), 3),))
        assert variant1_targets(case, "plurality") == {"A": 10.0, "B": 0.0}
        model = fit_jury_targets([case], "plurality", 1e-9)
        assert evaluate_reward(model, "x", responses[0]) == pytest.approx(10.0, abs=1e-6)
        assert evaluate_reward(model, "x", responses[1]) == pytest.approx(0.0, abs=1e-6)

    def test_rule_choice_changes_fitted_model(self, jury_case):
        borda_model = fit_jury_targets([jury_case], "borda", 1e-9)
        rp_model = fit_jury_targets([jury_case], "ranked_pairs", 1e-9)
        assert borda_model.weights != rp_model.weights

    def test_case_without_jury_rejected(self):
        case = PromptCase("x", one_hot_responses())
        with pytest.raises(ValueError, match="jury"):
            variant1_targets(case, "borda")

    def test_no_cases_rejected(self):
        with pytest.raises(ValueError, match="at least one prompt case"):
            _fit_targets([], [], 1e-9)

    def test_lambda_zero_exact_fit_on_full_rank_design(self):
        # Two feature columns plus the intercept exactly span three targets.
        responses = (
            ResponseRecord("A", "a", (0.0, 0.0)),
            ResponseRecord("B", "b", (1.0, 0.0)),
            ResponseRecord("C", "c", (0.0, 1.0)),
        )
        case = PromptCase("x", responses, JURY)
        model = fit_jury_targets([case], "borda", 0.0)
        assert evaluate_reward(model, "x", responses[2]) == pytest.approx(10.0, abs=1e-9)
        assert evaluate_reward(model, "x", responses[1]) == pytest.approx(5.0, abs=1e-9)

    def test_lambda_zero_rank_deficient_design_rejected(self, jury_case):
        # One-hot columns become collinear once centered against the intercept.
        with pytest.raises(ValueError, match="rank deficient"):
            fit_jury_targets([jury_case], "borda", 0.0)


class TestComposedModel:
    def test_single_evaluator_equals_psi(self):
        psi = IndividualPreferenceModel(((2.0, -1.0), (0.5, 3.0)), 0.0)
        f = (1.0, 0.5)
        model = rlchf_from_features(psi, [f], "mean")
        for features in [(1.0, 0.0), (0.0, 1.0), (0.3, 0.7)]:
            y = ResponseRecord("y", "t", features)
            assert evaluate_reward(model, "x", y) == predict_rating(psi, f, y)

    def test_mean_and_median_on_3_6_6(self):
        psi = IndividualPreferenceModel(((1.0,),), 0.0)
        sample = [(3.0,), (6.0,), (6.0,)]
        y = ResponseRecord("y", "t", (1.0,))
        assert evaluate_reward(rlchf_from_features(psi, sample, "mean"), "x", y) == 5.0
        assert evaluate_reward(rlchf_from_features(psi, sample, "median"), "x", y) == 6.0

    def test_empty_sample_rejected(self):
        psi = IndividualPreferenceModel(((1.0,),), 0.0)
        with pytest.raises(ValueError, match="non-empty"):
            rlchf_from_features(psi, [], "mean")

    def test_unknown_cardinal_rule_rejected(self):
        psi = IndividualPreferenceModel(((1.0,),), 0.0)
        with pytest.raises(ValueError):
            rlchf_from_features(psi, [(1.0,)], "mode")

    def test_median_tracks_majority_group_mean_sits_between(self):
        # Three evaluators rate 8, two rate 2.
        psi = IndividualPreferenceModel(((1.0,),), 0.0)
        sample = [(8.0,)] * 3 + [(2.0,)] * 2
        y = ResponseRecord("y", "t", (1.0,))
        median = evaluate_reward(rlchf_from_features(psi, sample, "median"), "x", y)
        mean = evaluate_reward(rlchf_from_features(psi, sample, "mean"), "x", y)
        assert median == 8.0
        assert mean == pytest.approx(5.6)
        assert 2.0 < mean < 8.0

    def test_constant_evaluator_features_make_sample_irrelevant(self):
        # With d=1 and every feature fixed at 1.0, psi ignores who is asked.
        psi = IndividualPreferenceModel(((2.0, 1.0),), 0.0)
        spec = PopulationSpec(
            1,
            (GroupSpec(1.0, (ComponentDist("uniform", 1.0, 1.0),)),),
            0.0,
        )
        y = ResponseRecord("y", "t", (3.0, 0.5))
        rewards = []
        for n, seed in [(1, 0), (5, 1), (40, 2)]:
            sample = sample_population(spec, n, seed)
            model = rlchf_from_features(psi, sample, "mean")
            rewards.append(evaluate_reward(model, "x", y))
        assert max(rewards) - min(rewards) < 1e-12


class TestEvaluateReward:
    def test_zero_weights_returns_intercept(self):
        model = FittedRewardModel((0.0, 0.0, 0.0), 5.0)
        for y in one_hot_responses():
            assert evaluate_reward(model, "x", y) == 5.0

    def test_clamped_to_rating_scale(self):
        model = FittedRewardModel((100.0,), 0.0)
        assert evaluate_reward(model, "x", ResponseRecord("hi", "t", (1.0,))) == 10.0
        assert evaluate_reward(model, "x", ResponseRecord("lo", "t", (-1.0,))) == 0.0

    def test_dimension_mismatch_rejected(self):
        model = FittedRewardModel((1.0, 2.0), 0.0)
        with pytest.raises(ValueError, match="features"):
            evaluate_reward(model, "x", ResponseRecord("y", "t", (1.0,)))

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError):
            FittedRewardModel((float("nan"),), 0.0)


class TestSelectResponse:
    def test_argmax_picks_top_fitted_target(self, jury_case):
        model = fit_jury_targets([jury_case], "borda", 1e-9)
        assert select_response(model, jury_case, 0.0, 0).id == "C"

    def test_argmax_tie_breaks_lexicographically(self, jury_case):
        model = FittedRewardModel((0.0, 0.0, 0.0), 5.0)
        assert select_response(model, jury_case, 0.0, 7).id == "A"

    def test_argmax_invariant_under_positive_affine_rescaling(self, jury_case):
        base = FittedRewardModel((2.0, 3.0, 4.0), 1.0)
        for a, c in [(0.5, 0.0), (2.0, 1.0), (1.5, -1.0)]:
            scaled = FittedRewardModel(tuple(a * w for w in base.weights), a * base.intercept + c)
            for seed in range(5):
                assert (
                    select_response(base, jury_case, 0.0, seed).id
                    == select_response(scaled, jury_case, 0.0, seed).id
                )

    def test_negative_temperature_rejected(self, jury_case):
        model = FittedRewardModel((1.0, 2.0, 8.0), 0.0)
        with pytest.raises(ValueError, match="^temperature must be non-negative$"):
            select_response(model, jury_case, -0.1, 0)

    def test_nan_temperature_rejected(self, jury_case):
        # NaN fails every comparison, so a `< 0` check let it reach the draw.
        model = FittedRewardModel((1.0, 2.0, 8.0), 0.0)
        with pytest.raises(ValueError, match="^temperature must be non-negative$"):
            select_response(model, jury_case, float("nan"), 0)

    def test_low_temperature_concentrates_on_argmax(self, jury_case):
        model = FittedRewardModel((1.0, 2.0, 8.0), 0.0)
        picks = {select_response(model, jury_case, 0.01, s).id for s in range(200)}
        assert picks == {"C"}

    def test_same_seed_same_sample(self, jury_case):
        model = FittedRewardModel((1.0, 2.0, 8.0), 0.0)
        a = select_response(model, jury_case, 5.0, 123).id
        b = select_response(model, jury_case, 5.0, 123).id
        assert a == b

    def test_high_temperature_samples_are_not_constant(self, jury_case):
        model = FittedRewardModel((1.0, 2.0, 8.0), 0.0)
        picks = {select_response(model, jury_case, 50.0, s).id for s in range(50)}
        assert len(picks) > 1

    def test_infinite_temperature_limit_is_uniform(self, jury_case):
        # Chi-square goodness of fit on 10000 seeded draws over 3 responses;
        # the 99th percentile at 2 degrees of freedom is 9.21034.
        model = FittedRewardModel((1.0, 2.0, 8.0), 0.0)
        counts = {"A": 0, "B": 0, "C": 0}
        for seed in range(10_000):
            counts[select_response(model, jury_case, 1e9, seed).id] += 1
        expected = 10_000 / 3
        chi2 = sum((obs - expected) ** 2 / expected for obs in counts.values())
        assert chi2 < 9.21034


class TestSimulateCollectiveDecision:
    def test_induced_ranking_sorts_by_rating_then_id(self):
        psi = figure_psi()
        f = (1.0, 0.0, 0.0, 0.0, 0.0)
        assert induced_ranking(psi, f, one_hot_responses()) == ("A", "B", "C")

    def test_induced_ranking_breaks_rating_ties_lexicographically(self):
        psi = IndividualPreferenceModel(((0.0, 0.0, 0.0),), 0.0)
        assert induced_ranking(psi, (1.0,), one_hot_responses()) == ("A", "B", "C")

    def test_engineered_population_recovers_three_rule_split(self):
        case = PromptCase("x", one_hot_responses())
        psi, sample = figure_psi(), figure_sample()
        winners = {
            rule: simulate_collective_decision(case, psi, sample, rule).id
            for rule in ("ranked_pairs", "instant_runoff", "borda")
        }
        assert winners == {"ranked_pairs": "B", "instant_runoff": "A", "borda": "C"}

    def test_single_evaluator_gets_their_favourite(self):
        case = PromptCase("x", one_hot_responses())
        f = (0.0, 0.0, 1.0, 0.0, 0.0)  # B > C > A archetype
        assert simulate_collective_decision(case, figure_psi(), [f], "plurality").id == "B"

    def test_empty_sample_rejected(self):
        case = PromptCase("x", one_hot_responses())
        with pytest.raises(ValueError, match="non-empty"):
            simulate_collective_decision(case, figure_psi(), [], "borda")

    def test_multiwinner_committee_selection(self):
        case = PromptCase("x", one_hot_responses())
        committee = simulate_collective_decision(
            case, figure_psi(), figure_sample(), "k_borda", k=2
        )
        assert committee == Committee(("C", "B"))
        greedy = simulate_collective_decision(
            case, figure_psi(), figure_sample(), "greedy_cc", k=2
        )
        assert greedy.winners == ("C", "B")

    def test_multiwinner_without_k_rejected(self):
        case = PromptCase("x", one_hot_responses())
        with pytest.raises(ValueError, match="committee size"):
            simulate_collective_decision(case, figure_psi(), figure_sample(), "k_borda")

    def test_unknown_rule_rejected(self):
        case = PromptCase("x", one_hot_responses())
        with pytest.raises(ValueError, match="unknown ordinal rule"):
            simulate_collective_decision(case, figure_psi(), figure_sample(), "approval")


class TestSftLines:
    def test_jsonl_lines_schema(self):
        lines = sft_jsonl_lines((("why?", "B"), ("how?", "A")))
        assert lines == (
            '{"chosen": "B", "prompt": "why?"}',
            '{"chosen": "A", "prompt": "how?"}',
        )
        assert json.loads(lines[0]) == {"prompt": "why?", "chosen": "B"}


CONSTANT_SPEC = PopulationSpec(
    1, (GroupSpec(1.0, (ComponentDist("uniform", 1.0, 1.0),)),), 0.0
)


class TestInferenceTimeChoice:
    def test_matches_direct_collective_decision(self):
        case = PromptCase("x", one_hot_responses())
        psi = IndividualPreferenceModel(((3.0, 7.0, 5.0),), 0.0)
        chosen = inference_time_choice(case, CONSTANT_SPEC, 4, psi, "borda", seed=11)
        sample = sample_population(CONSTANT_SPEC, 4, derive_seed(11, "population"))
        direct = simulate_collective_decision(case, psi, sample, "borda")
        assert chosen.id == direct.id == "B"

    def test_single_evaluator_takes_top_candidate(self):
        psi = IndividualPreferenceModel(((3.0, 7.0, 5.0),), 0.0)
        case = PromptCase("x", one_hot_responses())
        chosen = inference_time_choice(case, CONSTANT_SPEC, 1, psi, "plurality", seed=0)
        assert chosen.id == "B"

    def test_repeated_call_same_seed_identical(self):
        psi = IndividualPreferenceModel(((3.0, 7.0, 5.0),), 0.0)
        args = (PromptCase("x", one_hot_responses()), CONSTANT_SPEC, 5, psi, "borda")
        assert inference_time_choice(*args, seed=42).id == inference_time_choice(*args, seed=42).id

    def test_lone_candidate_rejected(self):
        psi = IndividualPreferenceModel(((3.0,),), 0.0)
        lone = (ResponseRecord("A", "a", (1.0,)),)
        with pytest.raises(ValueError, match="at least two responses"):
            inference_time_choice(PromptCase("x", lone), CONSTANT_SPEC, 3, psi, "borda", seed=0)

    def test_zero_evaluators_rejected(self):
        psi = IndividualPreferenceModel(((3.0, 7.0, 5.0),), 0.0)
        case = PromptCase("x", one_hot_responses())
        with pytest.raises(ValueError, match="at least one"):
            inference_time_choice(case, CONSTANT_SPEC, 0, psi, "borda", seed=0)


def jury_dataset_json():
    return json.dumps(
        {
            "cases": [
                {
                    "prompt": "what should we cook?",
                    "responses": [
                        {"id": "A", "text": "answer a", "features": [1, 0, 0]},
                        {"id": "B", "text": "answer b", "features": [0, 1, 0]},
                        {"id": "C", "text": "answer c", "features": [0, 0, 1]},
                    ],
                    "jury": [
                        {"ranking": ["A", "B", "C"], "weight": 4},
                        {"ranking": ["A", "C", "B"], "weight": 4},
                        {"ranking": ["B", "C", "A"], "weight": 9},
                        {"ranking": ["C", "A", "B"], "weight": 4},
                        {"ranking": ["C", "B", "A"], "weight": 2},
                    ],
                }
            ],
            "population": {
                "d": 1,
                "groups": [
                    {"weight": 1.0, "components": [{"kind": "uniform", "a": 0.0, "b": 1.0}]}
                ],
            },
            "world": {"M_star": [[2.0, 5.0, 8.0]]},
        }
    )


class TestConfigAndDataset:
    def test_dataset_round_trip(self):
        dataset = dataset_from_json(jury_dataset_json())
        assert dataset.cases[0].response_ids() == ("A", "B", "C")
        assert dataset.cases[0].jury_profile().num_voters == 23
        assert dataset.population.d == 1
        assert dataset.world.M_star == ((2.0, 5.0, 8.0),)

    def test_dataset_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            dataset_from_json('{"cases": []}')

    def test_config_parses_all_fields(self):
        config = config_from_json(
            '{"variant": "collective", "C": "ranked_pairs", "N": 23,'
            ' "seed": 7, "ridge_lambda": 0.001, "dataset": "cases.json"}'
        )
        assert config.rule == "ranked_pairs"
        assert config.n_evaluators == 23
        assert config.seed == 7
        assert config.dataset == "cases.json"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            PipelineConfig("offline")

    @pytest.mark.parametrize(
        "variant,missing",
        [("rankings", "F"), ("features", "W"), ("collective", "C"), ("inference", "C")],
    )
    def test_variant_specific_rule_required(self, variant, missing):
        with pytest.raises(ValueError, match=missing):
            config_from_json(json.dumps({"variant": variant, "N": 5}))

    def test_population_size_required_for_simulated_variants(self):
        with pytest.raises(ValueError, match="population size"):
            PipelineConfig("features", rule="mean")


class TestRunPipeline:
    def test_rankings_variant_reports_targets_and_choice(self):
        dataset = dataset_from_json(jury_dataset_json())
        config = PipelineConfig("rankings", rule="borda", ridge_lambda=1e-9)
        payload, sft = run_pipeline(config, dataset, seed=0)
        assert sft is None
        case = payload["cases"][0]
        assert case["targets"] == {"C": 10.0, "B": 5.0, "A": 0.0}
        assert case["chosen"] == "C"
        assert case["rewards"]["C"] == pytest.approx(10.0, abs=1e-6)

    def test_collective_variant_emits_dataset_deterministically(self):
        dataset = dataset_from_json(jury_dataset_json())
        config = PipelineConfig("collective", rule="borda", n_evaluators=9)
        runs = [run_pipeline(config, dataset, seed=5) for _ in range(2)]
        assert runs[0] == runs[1]
        payload, sft = runs[0]
        assert len(sft) == 1
        record = json.loads(sft[0])
        assert set(record) == {"prompt", "chosen"}
        assert payload["cases"][0]["chosen"] == record["chosen"]

    def test_features_variant_scores_every_response(self):
        dataset = dataset_from_json(jury_dataset_json())
        config = PipelineConfig("features", rule="median", n_evaluators=7)
        payload, sft = run_pipeline(config, dataset, seed=3)
        assert sft is None
        rewards = payload["cases"][0]["rewards"]
        assert set(rewards) == {"A", "B", "C"}
        # The world rates C above B above A for every evaluator.
        assert rewards["C"] > rewards["B"] > rewards["A"]
        assert payload["cases"][0]["chosen"] == "C"

    def test_collective_sft_lines_follow_case_order(self):
        data = json.loads(jury_dataset_json())
        first = data["cases"][0]
        data["cases"] = [{**first, "prompt": "first?"}, {**first, "prompt": "second?"}]
        dataset = dataset_from_json(json.dumps(data))
        config = PipelineConfig("collective", rule="borda", n_evaluators=9)
        payload, sft = run_pipeline(config, dataset, seed=5)
        records = [json.loads(line) for line in sft]
        assert [r["prompt"] for r in records] == ["first?", "second?"]
        assert records == [{"prompt": c["prompt"], "chosen": c["chosen"]} for c in payload["cases"]]

    def test_inference_variant_reports_choice(self):
        dataset = dataset_from_json(jury_dataset_json())
        config = PipelineConfig("inference", rule="instant_runoff", n_evaluators=5)
        payload, _ = run_pipeline(config, dataset, seed=1)
        assert payload["cases"][0]["chosen"] in {"A", "B", "C"}

    def test_config_seed_overrides_caller_seed(self):
        dataset = dataset_from_json(jury_dataset_json())
        pinned = PipelineConfig("collective", rule="borda", n_evaluators=9, seed=5)
        payload_a, _ = run_pipeline(pinned, dataset, seed=0)
        payload_b, _ = run_pipeline(pinned, dataset, seed=99)
        assert payload_a == payload_b
        assert payload_a["seed"] == 5


class TestComposedModelType:
    def test_composed_model_normalizes_sample(self):
        psi = IndividualPreferenceModel(((1.0,),), 0.0)
        model = ComposedRewardModel(psi, [[4.0], [5.0]], "mean")
        assert isinstance(model.sample, np.ndarray)
        assert model.sample.tolist() == [[4.0], [5.0]]


@pytest.mark.parametrize(
    "config",
    [
        PipelineConfig("rankings", rule="borda", ridge_lambda=1e-9),
        PipelineConfig("features", rule="median", n_evaluators=7),
    ],
)
def test_run_pipeline_computes_each_target_and_reward_once(monkeypatch, config):
    # Rewards are computed a case at a time: one `_rewards` call per case, on
    # that case's responses, and for the composed model one N x r prediction
    # per case.
    import socialchoice.pipeline as pipeline

    dataset = dataset_from_json(jury_dataset_json())
    expected = run_pipeline(config, dataset, seed=3)
    # Each counted function records the response ids of the case it was called for.
    ids = {
        "variant1_targets": lambda case, rule: case.response_ids(),
        "_rewards": lambda model, responses: tuple(y.id for y in responses),
        "predicted_ratings": lambda psi, F, responses: tuple(y.id for y in responses),
    }
    calls = {name: [] for name in ids}
    for name in calls:
        original = getattr(pipeline, name)

        def counted(*args, _original=original, _name=name):
            calls[_name].append(ids[_name](*args))
            return _original(*args)

        monkeypatch.setattr(pipeline, name, counted)
    assert run_pipeline(config, dataset, seed=3) == expected
    per_case = [case.response_ids() for case in dataset.cases]
    assert calls == {
        "variant1_targets": per_case if config.variant == "rankings" else [],
        "_rewards": per_case,
        "predicted_ratings": per_case if config.variant == "features" else [],
    }
