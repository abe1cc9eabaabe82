"""Acceptance suite: one test per shipped guarantee, one line per verdict.

Each test pins the package's headline behaviors end to end, at the stated
tolerances.  Timed checks use wall-clock budgets that hold with two orders of
magnitude to spare on ordinary hardware.
"""

import json
import time
from itertools import combinations_with_replacement, permutations
from pathlib import Path
from random import Random

import numpy as np
import pytest

from audit_helpers import random_clone_spec, random_strict_profile
from socialchoice.audits import (
    CloneSpec,
    anonymity_check,
    clone_test,
    cloned_profile,
    manipulation_search_cardinal,
    manipulation_search_ordinal,
    reverify_cardinal_witness,
    reverify_ordinal_witness,
)
from socialchoice.cardinal import RatingProfile, aggregate_ratings, greedy_cc, k_borda
from socialchoice.cli import main
from socialchoice.judgment import (
    Agenda,
    JudgmentProfile,
    check_consistency,
    closest_consistent,
    majority_judgments,
)
from socialchoice.ordinal import (
    borda,
    first_place_counts,
    instant_runoff,
    ordinal_rule,
    random_dictator,
    ranked_pairs,
)
from socialchoice.pipeline import PromptCase, rlchf_from_features, evaluate_reward, variant1_targets
from socialchoice.profiles import (
    RankingBallot,
    detect_cycles,
    margin_matrix,
    profile_from_rankings,
)
from socialchoice.simulation import (
    ComponentDist,
    GroundTruthWorld,
    GroupSpec,
    IndividualPreferenceModel,
    PopulationSpec,
    ResponseRecord,
    fit_individual_model,
    sample_population,
    true_rating,
)

DATA = Path(__file__).resolve().parent.parent / "data"

THREE_WAY = profile_from_rankings(
    [("A", "B", "C")] * 4
    + [("A", "C", "B")] * 4
    + [("B", "C", "A")] * 9
    + [("C", "A", "B")] * 4
    + [("C", "B", "A")] * 2,
    ("A", "B", "C"),
)


def test_01_three_rules_three_winners():
    """borda C>B>A, instant runoff A>B>C, ranked pairs B>C>A; < 10 ms."""
    start = time.perf_counter()
    borda_ranking = borda(THREE_WAY).ranking
    irv_ranking = instant_runoff(THREE_WAY).ranking
    rp_ranking = ranked_pairs(THREE_WAY).ranking
    elapsed = time.perf_counter() - start
    assert borda_ranking == ("C", "B", "A")
    assert irv_ranking == ("A", "B", "C")
    assert rp_ranking == ("B", "C", "A")
    assert elapsed < 0.010


def test_02_margin_structure():
    """Pairwise margins are exactly +1, +3, +7 and form a majority cycle."""
    mm = margin_matrix(THREE_WAY)
    assert mm.margin("A", "B") == 1
    assert mm.margin("B", "C") == 3
    assert mm.margin("C", "A") == 7
    report = detect_cycles(mm)
    assert not report.has_condorcet_winner
    assert report.cycles == (("A", "B", "C"),)


def test_03_condorcet_cycle_witness():
    """The 3-voter rotation has no Condorcet winner; the cycle is (A, B, C)."""
    profile = profile_from_rankings(
        [("A", "B", "C"), ("B", "C", "A"), ("C", "A", "B")], ("A", "B", "C")
    )
    report = detect_cycles(margin_matrix(profile))
    assert report.condorcet_winner is None
    assert not report.has_condorcet_winner
    assert report.cycles == (("A", "B", "C"),)


def test_04_clone_flip():
    """Cloning the 52%-winner flips plurality to the 48% rival; ranked pairs
    keeps a clone winning on the identical construction."""
    profile = profile_from_rankings(
        [("C", "I")] * 52 + [("I", "C")] * 48, ("C", "I")
    )
    orders = {i: (("C1", "C2") if i % 2 == 0 else ("C2", "C1")) for i in range(100)}
    spec = CloneSpec("C", 2, orders)
    assert first_place_counts(cloned_profile(profile, spec)) == {
        "C1": 26,
        "C2": 26,
        "I": 48,
    }
    plurality_result = clone_test("plurality", profile, spec)
    assert plurality_result.verdict == "violated"
    assert plurality_result.base_winner == "C"
    assert plurality_result.cloned_winner == "I"
    rp_result = clone_test("ranked_pairs", profile, spec)
    assert rp_result.verdict == "independent"
    assert rp_result.cloned_winner in {"C1", "C2"}


def test_05_median_resists_the_mean_manipulation():
    """{3,6,6}: mean 5, median 6; misreport 0 pulls the mean to 4 but cannot
    move the median; the searcher finds exactly that; < 10 ms."""
    start = time.perf_counter()
    honest = RatingProfile(("x",), ("e1", "e2", "e3"), {
        "e1": {"x": 3}, "e2": {"x": 6}, "e3": {"x": 6},
    })
    misreported = RatingProfile(("x",), ("e1", "e2", "e3"), {
        "e1": {"x": 0}, "e2": {"x": 6}, "e3": {"x": 6},
    })
    assert aggregate_ratings(honest, "mean") == {"x": 5.0}
    assert aggregate_ratings(honest, "median") == {"x": 6.0}
    assert aggregate_ratings(misreported, "mean") == {"x": 4.0}
    assert aggregate_ratings(misreported, "median") == {"x": 6.0}
    witness = manipulation_search_cardinal("mean", (3, 6, 6), 0)
    assert witness is not None
    assert witness.misreport == 0.0
    assert witness.honest_outcome == 5.0
    assert witness.manipulated_outcome == 4.0
    assert manipulation_search_cardinal("median", (3, 6, 6), 0) is None
    assert time.perf_counter() - start < 0.010


def test_06_judgment_paradox_and_minimal_repair():
    """Atom-wise majority is (1,1,0), inconsistent; the closest consistent set
    flips exactly one atom, verified against all 8 assignments."""
    agenda = Agenda(("safe", "helpful", "give"), "give <-> (safe & helpful)")
    profile = JudgmentProfile(agenda, (
        ("E1", {"safe": True, "helpful": False, "give": False}),
        ("E2", {"safe": False, "helpful": True, "give": False}),
        ("E3", {"safe": True, "helpful": True, "give": True}),
    ))
    majority = majority_judgments(profile)
    assert majority == {"safe": True, "helpful": True, "give": False}
    assert not check_consistency(majority, agenda)
    repair = closest_consistent(majority, agenda)
    distance = sum(1 for atom in agenda.atoms if repair[atom] != majority[atom])
    assert distance == 1
    assert check_consistency(repair, agenda)
    # Exhaustive minimality: no consistent assignment is closer.
    for bits in range(8):
        candidate = {
            atom: bool((bits >> i) & 1) for i, atom in enumerate(agenda.atoms)
        }
        if not agenda.satisfies(candidate):
            continue
        candidate_distance = sum(
            1 for atom in agenda.atoms if candidate[atom] != majority[atom]
        )
        assert candidate_distance >= distance


def test_07_bilinear_regression_recovery():
    """A noiseless 2x2 ground truth is recovered entrywise to 1e-6 from 16
    full-rank samples; < 1 s."""
    start = time.perf_counter()
    rng = Random(12)
    M_star = ((2.0, 1.5), (0.5, 3.0))  # keeps ratings inside [0, 10]
    world = GroundTruthWorld(M_star, noise_sigma=0.0)
    samples = []
    for i in range(16):
        f = (rng.random(), rng.random())
        y = ResponseRecord(f"y{i}", "t", (rng.random(), rng.random()))
        samples.append((f, y, true_rating(world, f, y, seed=0, evaluator_index=i)))
    design = np.vstack([np.kron(f, y.features) for f, y, _ in samples])
    assert np.linalg.matrix_rank(design) == 4
    psi = fit_individual_model(samples, ridge_lambda=1e-9)
    for got_row, want_row in zip(psi.M_hat, M_star):
        for got, want in zip(got_row, want_row):
            assert abs(got - want) <= 1e-6
    assert time.perf_counter() - start < 1.0


def test_08_constant_feature_reduction():
    """With d=1 and every evaluator feature pinned at 1, the composed reward
    ignores the sample entirely (spread < 1e-12)."""
    psi = IndividualPreferenceModel(((2.0, 1.0, 0.5),), 0.0)
    spec = PopulationSpec(
        1, (GroupSpec(1.0, (ComponentDist("uniform", 1.0, 1.0),)),), 0.0
    )
    responses = [
        ResponseRecord("p", "t", (1.0, 0.2, 0.4)),
        ResponseRecord("q", "t", (0.1, 3.0, 2.0)),
    ]
    for y in responses:
        rewards = []
        for rule in ("mean", "median"):
            for n, seed in [(1, 0), (3, 7), (25, 11), (60, 99)]:
                sample = sample_population(spec, n, seed)
                model = rlchf_from_features(psi, sample, rule)
                rewards.append(evaluate_reward(model, "x", y))
        assert max(rewards) - min(rewards) < 1e-12


def test_09_reward_targets_track_the_rule_choice():
    """On the 23-voter jury, the three ordinal rules give three distinct
    target orders for the fitted reward model."""
    responses = (
        ResponseRecord("A", "a", (1.0, 0.0, 0.0)),
        ResponseRecord("B", "b", (0.0, 1.0, 0.0)),
        ResponseRecord("C", "c", (0.0, 0.0, 1.0)),
    )
    jury = (
        RankingBallot(("A", "B", "C"), 4),
        RankingBallot(("A", "C", "B"), 4),
        RankingBallot(("B", "C", "A"), 9),
        RankingBallot(("C", "A", "B"), 4),
        RankingBallot(("C", "B", "A"), 2),
    )
    case = PromptCase("x", responses, jury)
    orders = set()
    for rule in ("borda", "instant_runoff", "ranked_pairs"):
        targets = variant1_targets(case, rule)
        orders.add(tuple(sorted(targets, key=lambda rid: -targets[rid])))
    assert len(orders) == 3


def test_10_simulate_runs_are_byte_identical(capsys, tmp_path):
    """Identical config and seed give byte-identical reports and datasets."""
    outputs = []
    datasets = []
    for run in range(2):
        out_path = tmp_path / f"sft-{run}.jsonl"
        code = main([
            "simulate",
            "--config", str(DATA / "pipeline_collective.json"),
            "--seed", "0",
            "--out", str(out_path),
        ])
        assert code == 0
        outputs.append(capsys.readouterr().out.encode())
        datasets.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert datasets[0] == datasets[1]
    assert json.loads(datasets[0].decode())["chosen"] == "B"


def test_11_property_sweeps():
    """Anonymity over 1000 random profiles for every rule; ranked pairs is
    Condorcet-consistent on every profile with 3 alternatives and up to 5
    voters; the clone sweep finds zero ranked-pairs violations and at least
    one each for plurality and borda; every found witness re-verifies."""
    ordinal_rules = (
        "plurality",
        "borda",
        "instant_runoff",
        "ranked_pairs",
        lambda p: random_dictator(p, 7)[0].probabilities,
        lambda p: k_borda(p, 2).winners,
        lambda p: greedy_cc(p, 2).winners,
    )
    rng = Random(404)
    for i in range(1000):
        profile = random_strict_profile(rng, rng.choice((3, 4)), rng.randint(2, 9))
        for rule in ordinal_rules:
            assert anonymity_check(rule, profile, seed=i)
        n_alts = rng.randint(1, 3)
        alts = tuple(chr(ord("a") + j) for j in range(n_alts))
        evaluators = tuple(f"e{j}" for j in range(rng.randint(2, 5)))
        ratings = {e: {a: rng.uniform(0, 10) for a in alts} for e in evaluators}
        rating_profile = RatingProfile(alts, evaluators, ratings)
        for rule in ("mean", "median"):
            assert anonymity_check(rule, rating_profile, seed=i)

    # Exhaustive Condorcet consistency for ranked pairs: m=3, n <= 5.
    alternatives = ("A", "B", "C")
    rankings = list(permutations(alternatives))
    checked = 0
    for n in range(1, 6):
        for combo in combinations_with_replacement(rankings, n):
            profile = profile_from_rankings(list(combo), alternatives)
            report = detect_cycles(margin_matrix(profile))
            if report.condorcet_winner is None:
                continue
            checked += 1
            assert ordinal_rule("ranked_pairs")(profile).winner == report.condorcet_winner
    assert checked > 300

    # Clone sweep: 1000 tied-margin-free profiles, random per-voter orders.
    sweep_rng = Random(20260819)
    violations = {"ranked_pairs": 0, "plurality": 0, "borda": 0}
    examined = 0
    while examined < 1000:
        m = sweep_rng.choice((3, 4))
        n = sweep_rng.choice((3, 5, 7, 9))
        profile = random_strict_profile(sweep_rng, m, n)
        mm = margin_matrix(profile)
        pairs = [
            (a, b) for a in profile.alternatives for b in profile.alternatives if a < b
        ]
        if any(mm.margin(a, b) == 0 for a, b in pairs):
            continue
        examined += 1
        spec = random_clone_spec(sweep_rng, profile)
        for rule in violations:
            if not clone_test(rule, profile, spec).independent:
                violations[rule] += 1
    assert violations["ranked_pairs"] == 0
    assert violations["plurality"] >= 1
    assert violations["borda"] >= 1

    # Every witness the searchers produce must survive re-verification.
    witness_rng = Random(7)
    found_ordinal = 0
    for _ in range(150):
        profile = random_strict_profile(witness_rng, 3, witness_rng.randint(2, 5))
        voter = witness_rng.randrange(profile.num_voters)
        for rule in ("plurality", "borda", "instant_runoff", "ranked_pairs"):
            witness = manipulation_search_ordinal(rule, profile, voter)
            if witness is not None:
                found_ordinal += 1
                assert reverify_ordinal_witness(rule, profile, witness)
    found_cardinal = 0
    for _ in range(150):
        ratings = [witness_rng.uniform(0, 10) for _ in range(witness_rng.randint(2, 7))]
        voter = witness_rng.randrange(len(ratings))
        for rule in ("mean", "median"):
            witness = manipulation_search_cardinal(rule, ratings, voter)
            if witness is not None:
                found_cardinal += 1
                assert reverify_cardinal_witness(rule, ratings, witness)
    assert found_ordinal > 0
    assert found_cardinal > 0
