"""Tests for rating aggregation and committee rules."""

import itertools
import random

import pytest

from socialchoice.cardinal import (
    Committee,
    RatingProfile,
    aggregate_ratings,
    cc_score,
    greedy_cc,
    k_borda,
    rating_profile_from_json,
)
from socialchoice.ordinal import borda
from socialchoice.profiles import parse_profile, profile_from_rankings

THREE_WAY = """\
alternatives: A, B, C
4: A > B > C
4: A > C > B
9: B > C > A
4: C > A > B
2: C > B > A
"""


def single_alt_profile(values):
    return RatingProfile(
        ("A",),
        tuple(f"e{i}" for i in range(len(values))),
        {f"e{i}": {"A": v} for i, v in enumerate(values)},
    )


class TestRatingProfile:
    def test_every_pair_must_be_rated(self):
        with pytest.raises(ValueError, match="exactly the declared alternatives"):
            RatingProfile(("A", "B"), ("e0",), {"e0": {"A": 5}})

    def test_scale_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            single_alt_profile([11])
        with pytest.raises(ValueError, match="outside"):
            single_alt_profile([-0.5])

    def test_json_load(self):
        rp = RatingProfile(
            ("A", "B"), ("e0", "e1"), {"e0": {"A": 3, "B": 7.5}, "e1": {"A": 6, "B": 2}}
        )
        text = (
            '{"alternatives": ["A", "B"],'
            ' "ratings": {"e0": {"A": 3, "B": 7.5}, "e1": {"A": 6, "B": 2}}}'
        )
        assert rating_profile_from_json(text) == rp

    def test_json_requires_both_keys(self):
        with pytest.raises(ValueError, match="alternatives"):
            rating_profile_from_json('{"ratings": {}}')


class TestAggregateRatings:
    def test_outlier_pulls_mean_not_median(self):
        rp = single_alt_profile([3, 6, 6])
        assert aggregate_ratings(rp, "mean") == {"A": 5.0}
        assert aggregate_ratings(rp, "median") == {"A": 6.0}

    def test_exaggerated_outlier_moves_only_the_mean(self):
        rp = single_alt_profile([0, 6, 6])
        assert aggregate_ratings(rp, "mean") == {"A": 4.0}
        assert aggregate_ratings(rp, "median") == {"A": 6.0}

    def test_single_evaluator(self):
        rp = single_alt_profile([7])
        assert aggregate_ratings(rp, "mean") == {"A": 7.0}
        assert aggregate_ratings(rp, "median") == {"A": 7.0}

    def test_even_count_median_is_midpoint(self):
        rp = single_alt_profile([2, 4, 8, 9])
        assert aggregate_ratings(rp, "median") == {"A": 6.0}

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown cardinal rule"):
            aggregate_ratings(single_alt_profile([5]), "mode")

    def test_anonymous_under_evaluator_permutation(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(1, 6)
            values = [rng.uniform(0, 10) for _ in range(n)]
            rp = single_alt_profile(values)
            shuffled = list(values)
            rng.shuffle(shuffled)
            rp2 = single_alt_profile(shuffled)
            for rule in ("mean", "median"):
                assert aggregate_ratings(rp, rule) == pytest.approx(
                    aggregate_ratings(rp2, rule)
                )

    def test_scale_monotone(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(1, 6)
            values = [rng.uniform(0, 9) for _ in range(n)]
            bumped = list(values)
            i = rng.randrange(n)
            bumped[i] = min(10.0, bumped[i] + rng.uniform(0, 3))
            for rule in ("mean", "median"):
                before = aggregate_ratings(single_alt_profile(values), rule)["A"]
                after = aggregate_ratings(single_alt_profile(bumped), rule)["A"]
                assert after >= before - 1e-12

    def test_median_reporting_robust(self):
        # For odd-sized profiles, no single evaluator can pull the median
        # strictly closer to their own true value by misreporting.
        for n in (1, 3, 5):
            for others in itertools.combinations_with_replacement(range(0, 11, 2), n - 1):
                for true in range(0, 11, 2):
                    honest = sorted((*others, true))[n // 2]
                    for report in range(11):
                        dishonest = sorted((*others, report))[n // 2]
                        assert abs(dishonest - true) >= abs(honest - true)


class TestKBorda:
    def test_three_way_top_two(self):
        assert k_borda(parse_profile(THREE_WAY), 2) == Committee(("C", "B"))

    def test_full_committee_matches_borda_ranking(self):
        rng = random.Random(9)
        for _ in range(10):
            m = rng.choice([2, 3, 4])
            alts = tuple(sorted(rng.sample("ABCDE", m)))
            rankings = [tuple(rng.sample(alts, m)) for _ in range(rng.randint(1, 5))]
            profile = profile_from_rankings(rankings, alts)
            assert k_borda(profile, m).winners == borda(profile).ranking

    def test_single_winner(self):
        profile = parse_profile("alternatives: A, B, C\n1: A > B > C\n")
        assert k_borda(profile, 1).winners == ("A",)

    def test_oversized_committee_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            k_borda(parse_profile(THREE_WAY), 4)


class TestGreedyCC:
    def test_three_way_top_two(self):
        # C enters with score 25; B's marginal 13 beats A's 12.
        assert greedy_cc(parse_profile(THREE_WAY), 2) == Committee(("C", "B"))

    def test_k1_is_borda_winner(self):
        rng = random.Random(15)
        for _ in range(10):
            m = rng.choice([2, 3, 4])
            alts = tuple(sorted(rng.sample("ABCDE", m)))
            rankings = [tuple(rng.sample(alts, m)) for _ in range(rng.randint(1, 5))]
            profile = profile_from_rankings(rankings, alts)
            assert greedy_cc(profile, 1).winners == (borda(profile).winner,)

    def test_polarized_blocs_both_covered(self):
        profile = parse_profile("alternatives: A, B, X\n3: A > B > X\n3: X > B > A\n")
        assert set(greedy_cc(profile, 2).winners) == {"A", "X"}

    def test_known_gap_to_exhaustive_optimum(self):
        # Greedy CC is a heuristic: round one must take the Borda winner, and
        # on this profile every first pick ties at gain 2, so the break picks
        # A and the optimum {B, C} is out of reach.
        profile = parse_profile("alternatives: A, B, C\n1: B > A > C\n1: C > A > B\n")
        committee = greedy_cc(profile, 2)
        assert committee == Committee(("A", "B"))
        assert cc_score(profile, committee.winners) == 3.0
        assert cc_score(profile, ("B", "C")) == 4.0

    def test_against_exhaustive_optimum_small_domain(self):
        # Frozen from exhaustive enumeration: over all profiles with m <= 4,
        # n <= 4, k <= 2, greedy is exactly optimal for k = 1 and never drops
        # below 3/4 of the optimal CC score (the ratio 3/4 is attained).
        attained = False
        for m in (2, 3, 4):
            alts = tuple("ABCD"[:m])
            all_rankings = list(itertools.permutations(alts))
            for n in (1, 2, 3, 4):
                for combo in itertools.combinations_with_replacement(all_rankings, n):
                    profile = profile_from_rankings(combo, alts)
                    for k in (1, 2):
                        if k > m:
                            continue
                        got = cc_score(profile, greedy_cc(profile, k).winners)
                        best = max(
                            cc_score(profile, c)
                            for c in itertools.combinations(alts, k)
                        )
                        if k == 1:
                            assert got == best
                        else:
                            assert got >= 0.75 * best
                            attained = attained or got == 0.75 * best
        assert attained


class TestCommitteeValidation:
    def test_distinct_winners(self):
        with pytest.raises(ValueError, match="distinct"):
            Committee(("A", "A"))
