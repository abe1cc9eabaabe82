"""Differential tests: the rules over merged rankings against per-ballot references.

The reference functions below are the per-ballot loops that plurality,
Borda, instant runoff and random dictator ran before the profile kept its
ballots merged by ranking.  The rules must reproduce them exactly, on
weighted profiles with repeated rankings.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from socialchoice.ordinal import (
    _score_ranking,
    borda,
    first_place_counts,
    instant_runoff,
    plurality,
    random_dictator,
)
from socialchoice.profiles import OrdinalProfile, RankingBallot

# ---------------------------------------------------------------------------
# Reference implementations.


def reference_first_place_counts(profile, active=None):
    if active is None:
        active = set(profile.alternatives)
    counts = {a: 0 for a in profile.alternatives if a in active}
    for ballot in profile.ballots:
        for alt in ballot.ranking:
            if alt in active:
                counts[alt] += ballot.weight
                break
    return counts


def reference_borda_scores(profile):
    m = profile.num_alternatives
    scores = {a: 0.0 for a in profile.alternatives}
    for ballot in profile.ballots:
        for pos, alt in enumerate(ballot.ranking):
            scores[alt] += ballot.weight * (m - 1 - pos)
    return scores


def reference_instant_runoff(profile):
    """(ranking, tie groups, scores, elimination order)."""
    active = set(profile.alternatives)
    eliminated = []
    argmin_sets = []
    scores = {}
    while active:
        counts = reference_first_place_counts(profile, active)
        fewest = min(counts.values())
        losers = {a for a, c in counts.items() if c == fewest}
        out = max(losers)
        eliminated.append(out)
        argmin_sets.append(losers)
        scores[out] = float(counts[out])
        active.remove(out)
    groups = [[eliminated[0]]]
    for rnd in range(1, len(eliminated)):
        if eliminated[rnd] in argmin_sets[rnd - 1]:
            groups[-1].append(eliminated[rnd])
        else:
            groups.append([eliminated[rnd]])
    tie_groups = tuple(tuple(reversed(g)) for g in reversed(groups))
    return tuple(reversed(eliminated)), tie_groups, scores, tuple(eliminated)


def reference_random_dictator(profile, seed):
    """(lottery probabilities, sampled winner)."""
    n = sum(b.weight for b in profile.ballots)
    counts = reference_first_place_counts(profile)
    probabilities = {a: c / n for a, c in counts.items()}
    ticket = random.Random(seed).random() * n
    cumulative = 0.0
    winner = profile.alternatives[0]
    for alt in profile.alternatives:
        cumulative += counts[alt]
        if ticket < cumulative:
            winner = alt
            break
    return probabilities, winner


# ---------------------------------------------------------------------------
# Profiles: a small pool of rankings drawn with repeats, and weights either
# small (so counts and scores tie often) or up to 2^40.  With at most 12
# ballots and m <= 8, every Borda total stays below 12 * 7 * 2^40 < 2^53,
# where the reference's float sums are exact.


@st.composite
def profiles(draw, max_m=8):
    m = draw(st.integers(1, max_m))
    alts = tuple(draw(st.permutations([f"c{i}" for i in range(m)])))
    pool = draw(st.lists(st.permutations(alts), min_size=1, max_size=5))
    weights = st.one_of(st.integers(1, 4), st.integers(1, 2**40))
    ballots = draw(
        st.lists(st.tuples(st.sampled_from(pool), weights), min_size=1, max_size=12)
    )
    return OrdinalProfile(alts, tuple(RankingBallot(tuple(r), w) for r, w in ballots))


class TestMerge:
    @settings(max_examples=150, deadline=None)
    @given(profiles())
    def test_merge_sums_weights_in_first_occurrence_order(self, profile):
        merged = {}
        for ranking, weight in profile.ballots:
            merged[ranking] = merged.get(ranking, 0) + weight
        assert profile.merged == tuple(RankingBallot(r, w) for r, w in merged.items())
        assert profile.num_voters == sum(b.weight for b in profile.ballots)

    def test_merge_takes_no_part_in_equality(self):
        split = OrdinalProfile(("A", "B"), (RankingBallot(("A", "B"), 1),) * 2)
        joined = OrdinalProfile(("A", "B"), (RankingBallot(("A", "B"), 2),))
        assert split.merged == joined.merged
        assert split != joined


class TestRulesMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(profiles(), st.data())
    def test_first_place_counts(self, profile, data):
        active = set(data.draw(st.sets(st.sampled_from(profile.alternatives), min_size=1)))
        assert first_place_counts(profile) == reference_first_place_counts(profile)
        assert first_place_counts(profile, active) == reference_first_place_counts(
            profile, active
        )

    @settings(max_examples=150, deadline=None)
    @given(profiles())
    def test_plurality(self, profile):
        counts = reference_first_place_counts(profile)
        expected = _score_ranking({a: float(c) for a, c in counts.items()})
        result = plurality(profile)
        assert result == expected
        assert result.scores == expected.scores

    @settings(max_examples=150, deadline=None)
    @given(profiles())
    def test_borda(self, profile):
        scores = reference_borda_scores(profile)
        result = borda(profile)
        assert result == _score_ranking(scores)
        assert result.scores == scores
        assert all(type(s) is float for s in result.scores.values())

    @settings(max_examples=150, deadline=None)
    @given(profiles())
    def test_instant_runoff(self, profile):
        ranking, tie_groups, scores, eliminated = reference_instant_runoff(profile)
        result = instant_runoff(profile)
        assert result.ranking == ranking
        assert result.tie_groups == tie_groups
        assert result.scores == scores
        assert result.elimination_order == eliminated

    @settings(max_examples=150, deadline=None)
    @given(profiles(), st.integers(0, 2**32))
    def test_random_dictator(self, profile, seed):
        probabilities, winner = reference_random_dictator(profile, seed)
        lottery, sampled = random_dictator(profile, seed)
        assert lottery.probabilities == probabilities
        assert sampled == winner
