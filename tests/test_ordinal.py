"""Tests for the ordinal voting rules."""

import itertools
import random

import pytest

from socialchoice.ordinal import (
    ORDINAL_RULES,
    Lottery,
    SocialRanking,
    borda,
    first_place_counts,
    instant_runoff,
    ordinal_rule,
    plurality,
    random_dictator,
    ranked_pairs,
)
from socialchoice.profiles import margin_matrix, parse_profile, profile_from_rankings

THREE_WAY = """\
alternatives: A, B, C
4: A > B > C
4: A > C > B
9: B > C > A
4: C > A > B
2: C > B > A
"""

# Two restaurants, the Chinese one split into clone floors C1 and C2.
CLONED_RESTAURANTS = """\
alternatives: C1, C2, I
26: C1 > C2 > I
26: C2 > C1 > I
24: I > C1 > C2
24: I > C2 > C1
"""

CYCLE_ROTATION = """\
alternatives: A, B, C
1: A > B > C
1: C > A > B
1: B > C > A
"""

SINGLE_VOTER = "alternatives: A, B, C\n1: A > B > C\n"


def three_way():
    return parse_profile(THREE_WAY)


class TestPlurality:
    def test_three_way(self):
        result = plurality(three_way())
        assert result.ranking == ("B", "A", "C")
        assert result.scores == {"A": 8.0, "B": 9.0, "C": 6.0}
        assert result.tie_groups == (("B",), ("A",), ("C",))
        assert result.winner == "B"

    def test_cloning_splits_the_majority(self):
        # 52 voters favor the Chinese restaurant, but its two floors split
        # them and the Indian restaurant wins on 48 first places.
        result = plurality(parse_profile(CLONED_RESTAURANTS))
        assert result.winner == "I"
        assert result.scores == {"C1": 26.0, "C2": 26.0, "I": 48.0}
        assert result.tie_groups == (("I",), ("C1", "C2"))

    def test_full_tie_breaks_lexicographically(self):
        result = plurality(parse_profile(CYCLE_ROTATION))
        assert result.ranking == ("A", "B", "C")
        assert result.tie_groups == (("A", "B", "C"),)


class TestBorda:
    def test_three_way(self):
        result = borda(three_way())
        assert result.ranking == ("C", "B", "A")
        assert result.scores == {"A": 20.0, "B": 24.0, "C": 25.0}

    def test_single_voter(self):
        result = borda(parse_profile(SINGLE_VOTER))
        assert result.ranking == ("A", "B", "C")
        assert result.scores == {"A": 2.0, "B": 1.0, "C": 0.0}

    def test_rotation_scores_all_equal(self):
        result = borda(parse_profile(CYCLE_ROTATION))
        assert result.scores == {"A": 3.0, "B": 3.0, "C": 3.0}
        assert result.ranking == ("A", "B", "C")
        assert result.tie_groups == (("A", "B", "C"),)


class TestInstantRunoff:
    def test_three_way(self):
        # C goes out with 6 firsts, then B loses the A-B head-to-head 11 to 12.
        result = instant_runoff(three_way())
        assert result.ranking == ("A", "B", "C")
        assert result.scores == {"C": 6.0, "B": 11.0, "A": 23.0}

    def test_single_voter(self):
        assert instant_runoff(parse_profile(SINGLE_VOTER)).ranking == ("A", "B", "C")

    def test_two_against_one(self):
        profile = parse_profile("alternatives: A, B\n2: A > B\n1: B > A\n")
        result = instant_runoff(profile)
        assert result.ranking == ("A", "B")
        assert result.scores["B"] == 1.0

    def test_ties_eliminate_lexicographically_largest(self):
        result = instant_runoff(parse_profile(CYCLE_ROTATION))
        assert result.ranking == ("A", "B", "C")
        assert result.tie_groups == (("A",), ("B", "C"))


class TestRankedPairs:
    def test_three_way(self):
        # Locks C>A (margin 7) and B>C (margin 3), skips A>B (margin 1).
        result = ranked_pairs(three_way())
        assert result.ranking == ("B", "C", "A")
        assert result.tie_groups == (("B",), ("C",), ("A",))

    def test_single_voter(self):
        assert ranked_pairs(parse_profile(SINGLE_VOTER)).ranking == ("A", "B", "C")

    def test_clone_still_wins(self):
        # Both floors beat the Indian restaurant by 4; the floors are tied
        # head-to-head, so a floor wins and the order among floors is a break.
        result = ranked_pairs(parse_profile(CLONED_RESTAURANTS))
        assert result.winner == "C1"
        assert result.ranking == ("C1", "C2", "I")
        assert result.tie_groups == (("C1", "C2"), ("I",))


class TestRandomDictator:
    def test_three_way_lottery(self):
        lottery, winner = random_dictator(three_way(), seed=0)
        assert lottery.probabilities == {"A": 8 / 23, "B": 9 / 23, "C": 6 / 23}
        assert winner in {"A", "B", "C"}

    def test_single_voter_is_degenerate(self):
        lottery, winner = random_dictator(parse_profile(SINGLE_VOTER), seed=5)
        assert lottery.probabilities == {"A": 1.0, "B": 0.0, "C": 0.0}
        assert winner == "A"

    def test_rotation_is_uniform(self):
        lottery, _ = random_dictator(parse_profile(CYCLE_ROTATION), seed=1)
        assert lottery.probabilities == pytest.approx({"A": 1 / 3, "B": 1 / 3, "C": 1 / 3})

    def test_lottery_independent_of_seed_winner_deterministic(self):
        profile = three_way()
        base_lottery, base_winner = random_dictator(profile, seed=42)
        again_lottery, again_winner = random_dictator(profile, seed=42)
        assert again_lottery == base_lottery and again_winner == base_winner
        other_lottery, _ = random_dictator(profile, seed=43)
        assert other_lottery == base_lottery

    def test_sampled_frequencies_track_lottery(self):
        profile = three_way()
        lottery, _ = random_dictator(profile, seed=0)
        tally = {a: 0 for a in profile.alternatives}
        for seed in range(2000):
            _, winner = random_dictator(profile, seed)
            tally[winner] += 1
        for alt, prob in lottery.probabilities.items():
            assert abs(tally[alt] / 2000 - prob) < 0.05

    def test_invalid_lottery_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            Lottery({"A": 0.5, "B": 0.4})
        with pytest.raises(ValueError, match="non-negative"):
            Lottery({"A": 1.5, "B": -0.5})


class TestRegistry:
    def test_known_rules(self):
        assert set(ORDINAL_RULES) == {"plurality", "borda", "instant_runoff", "ranked_pairs"}
        assert ordinal_rule("borda") is borda

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown ordinal rule"):
            ordinal_rule("kemeny")


def random_profile(rng, m_choices=(2, 3, 4), n_max=7):
    m = rng.choice(m_choices)
    alts = tuple(sorted(rng.sample("ABCDEFG", m)))
    n = rng.randint(1, n_max)
    return profile_from_rankings([tuple(rng.sample(alts, m)) for _ in range(n)], alts)


ALL_RULES = [plurality, borda, instant_runoff, ranked_pairs]


class TestSharedProperties:
    def test_output_is_permutation_with_consistent_groups(self):
        rng = random.Random(11)
        for _ in range(25):
            profile = random_profile(rng)
            for rule in ALL_RULES:
                result = rule(profile)
                assert sorted(result.ranking) == sorted(profile.alternatives)
                assert tuple(a for g in result.tie_groups for a in g) == result.ranking

    def test_anonymity(self):
        rng = random.Random(13)
        for _ in range(20):
            profile = random_profile(rng)
            rankings = list(profile.unit_rankings())
            rng.shuffle(rankings)
            shuffled = profile_from_rankings(rankings, profile.alternatives)
            for rule in ALL_RULES:
                assert rule(shuffled).ranking == rule(profile).ranking

    def test_weight_expansion(self):
        rng = random.Random(17)
        for _ in range(20):
            profile = random_profile(rng)
            expanded = profile_from_rankings(profile.unit_rankings(), profile.alternatives)
            for rule in ALL_RULES:
                assert rule(expanded) == rule(profile)

    def test_unanimity_at_top(self):
        rng = random.Random(19)
        for _ in range(20):
            m = rng.choice([2, 3, 4])
            alts = tuple(sorted(rng.sample("ABCDEFG", m)))
            top = rng.choice(alts)
            rest = [a for a in alts if a != top]
            rankings = [(top, *rng.sample(rest, len(rest))) for _ in range(rng.randint(1, 6))]
            profile = profile_from_rankings(rankings, alts)
            for rule in ALL_RULES:
                assert rule(profile).winner == top


def relabeled(profile, mapping):
    alts = tuple(mapping[a] for a in profile.alternatives)
    rankings = [tuple(mapping[a] for a in r) for r in profile.unit_rankings()]
    return profile_from_rankings(rankings, alts)


def irv_is_tie_free(profile):
    active = set(profile.alternatives)
    while active:
        counts = first_place_counts(profile, active)
        fewest = min(counts.values())
        losers = [a for a, c in counts.items() if c == fewest]
        if len(losers) > 1:
            return False
        active.remove(losers[0])
    return True


class TestNeutrality:
    # Relabeling alternatives commutes with a rule only on profiles where the
    # rule never consults the lexicographic tie-break.

    def tie_free(self, rule, profile, result):
        if rule in (plurality, borda):
            return len(set(result.scores.values())) == len(result.scores)
        if rule is instant_runoff:
            return irv_is_tie_free(profile)
        margins = [m for row in margin_matrix(profile).entries for m in row if m > 0]
        return len(set(margins)) == len(margins) and all(len(g) == 1 for g in result.tie_groups)

    def test_relabeling_commutes(self):
        rng = random.Random(23)
        checked = 0
        while checked < 15:
            profile = random_profile(rng, m_choices=(3, 4), n_max=7)
            perm = list(profile.alternatives)
            rng.shuffle(perm)
            mapping = dict(zip(profile.alternatives, perm))
            for rule in ALL_RULES:
                result = rule(profile)
                if not self.tie_free(rule, profile, result):
                    continue
                renamed = rule(relabeled(profile, mapping))
                assert renamed.ranking == tuple(mapping[a] for a in result.ranking)
                checked += 1


def condorcet_winner(matrix):
    for a in matrix.alternatives:
        if all(matrix.margin(a, b) > 0 for b in matrix.alternatives if b != a):
            return a
    return None


class TestRankedPairsCondorcet:
    def test_exhaustive_small_domain(self):
        # All anonymous profiles over three alternatives with up to 5 voters
        # (anonymity itself is checked separately above).
        alts = ("A", "B", "C")
        all_rankings = list(itertools.permutations(alts))
        for n in range(1, 6):
            for combo in itertools.combinations_with_replacement(all_rankings, n):
                profile = profile_from_rankings(combo, alts)
                winner = condorcet_winner(margin_matrix(profile))
                if winner is not None:
                    assert ranked_pairs(profile).winner == winner


class TestSocialRankingValidation:
    def test_groups_must_cover_ranking(self):
        with pytest.raises(ValueError, match="partition"):
            SocialRanking(("A", "B"), (("A",),))
