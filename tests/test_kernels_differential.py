"""Differential tests: the array and bitset kernels against simple references.

The reference functions below are the plain pure-Python implementations the
kernels replaced (per-ballot margin tally, edge-scan ranked pairs, per-ballot
Chamberlin-Courant, the unpruned depth-first cycle walk).  The kernels must
reproduce them exactly.  The margin, CC score and greedy CC tallies each have
two kernels, one on the merge and one on numpy arrays, chosen by profile
size; both are run directly on every profile.
"""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialchoice.cardinal import (
    _cc_score_on_arrays,
    _cc_score_on_merge,
    _greedy_cc_on_arrays,
    _greedy_cc_on_merge,
    cc_score,
    greedy_cc,
)
from socialchoice.ordinal import instant_runoff, random_dictator, ranked_pairs, ranked_pairs_locks
from socialchoice.profiles import (
    MAX_ENUMERATED_ALTERNATIVES,
    SMALL_TALLY_STEPS,
    MarginMatrix,
    OrdinalProfile,
    RankingBallot,
    _margins_on_arrays,
    _margins_on_merge,
    detect_cycles,
    margin_matrix,
    profile_from_rankings,
)

# ---------------------------------------------------------------------------
# Reference implementations.


def reference_margin_matrix(profile):
    alts = profile.alternatives
    m = len(alts)
    index = {a: i for i, a in enumerate(alts)}
    entries = [[0] * m for _ in range(m)]
    for ballot in profile.ballots:
        pos = {alt: i for i, alt in enumerate(ballot.ranking)}
        for i, a in enumerate(alts):
            for j in range(i + 1, m):
                b = alts[j]
                if pos[a] < pos[b]:
                    entries[i][index[b]] += ballot.weight
                    entries[index[b]][i] -= ballot.weight
                else:
                    entries[i][index[b]] -= ballot.weight
                    entries[index[b]][i] += ballot.weight
    return tuple(tuple(row) for row in entries)


def _reaches(edges, start, goal):
    stack = [start]
    seen = {start}
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        for a, b in edges:
            if a == node and b not in seen:
                seen.add(b)
                stack.append(b)
    return False


def reference_ranked_pairs(profile):
    """(ranking, tie groups, locks) by the edge-scan reachability test."""
    alts = profile.alternatives
    entries = reference_margin_matrix(profile)
    pairs = sorted(
        (
            (a, b, entries[i][j])
            for i, a in enumerate(alts)
            for j, b in enumerate(alts)
            if entries[i][j] > 0
        ),
        key=lambda p: (-p[2], p[0], p[1]),
    )
    locks = []
    edges = set()
    for winner, loser, margin in pairs:
        if not _reaches(edges, loser, winner):
            locks.append((winner, loser, margin))
            edges.add((winner, loser))
    indegree = {a: 0 for a in profile.alternatives}
    for _, b in edges:
        indegree[b] += 1
    ranking = []
    remaining = set(profile.alternatives)
    while remaining:
        nxt = min(a for a in remaining if indegree[a] == 0)
        ranking.append(nxt)
        remaining.remove(nxt)
        for a, b in edges:
            if a == nxt:
                indegree[b] -= 1
    groups = [[ranking[0]]]
    for alt in ranking[1:]:
        if _reaches(edges, groups[-1][-1], alt):
            groups.append([alt])
        else:
            groups[-1].append(alt)
    return tuple(ranking), tuple(tuple(g) for g in groups), tuple(locks)


def reference_cc_score(profile, committee):
    m = profile.num_alternatives
    total = 0.0
    for ballot in profile.ballots:
        pos = {alt: i for i, alt in enumerate(ballot.ranking)}
        total += ballot.weight * max(m - 1 - pos[alt] for alt in committee)
    return total


def reference_greedy_cc(profile, k):
    m = profile.num_alternatives
    satisfaction = [
        {alt: m - 1 - pos for pos, alt in enumerate(b.ranking)} for b in profile.ballots
    ]
    weights = [b.weight for b in profile.ballots]
    current = [0.0] * len(profile.ballots)
    chosen = []
    for _ in range(k):
        best_alt = None
        best_gain = -1.0
        for alt in profile.alternatives:
            if alt in chosen:
                continue
            gain = sum(
                w * max(sat[alt] - cur, 0.0)
                for sat, cur, w in zip(satisfaction, current, weights)
            )
            if gain > best_gain or (gain == best_gain and alt < best_alt):
                best_alt = alt
                best_gain = gain
        chosen.append(best_alt)
        current = [max(cur, sat[best_alt]) for sat, cur in zip(satisfaction, current)]
    return tuple(chosen)


def reference_enumerate_cycles(adjacency, stop_after_first):
    cycles = []

    def extend(root, path, on_path):
        for nxt in adjacency[path[-1]]:
            if nxt == root and len(path) >= 3:
                cycles.append(tuple(path))
                if stop_after_first:
                    return True
            elif nxt > root and nxt not in on_path:
                on_path.add(nxt)
                path.append(nxt)
                if extend(root, path, on_path):
                    return True
                path.pop()
                on_path.remove(nxt)
        return False

    for root in sorted(adjacency):
        if extend(root, [root], {root}) and stop_after_first:
            break
    return cycles


def reference_cycles(matrix):
    alts = matrix.alternatives
    m = len(alts)
    order = sorted(range(m), key=lambda i: alts[i])
    relabel = {orig: rank for rank, orig in enumerate(order)}
    adjacency = {
        relabel[i]: sorted(relabel[j] for j in range(m) if matrix.entries[i][j] > 0)
        for i in range(m)
    }
    raw = reference_enumerate_cycles(adjacency, m > MAX_ENUMERATED_ALTERNATIVES)
    return tuple(
        sorted((tuple(alts[order[i]] for i in cyc) for cyc in raw), key=lambda c: (len(c), c))
    )


# ---------------------------------------------------------------------------
# Profiles: few distinct rankings and small weights, so duplicate ballots and
# ties in margins and committee gains are common.


@st.composite
def profiles(draw, max_m=8):
    m = draw(st.integers(1, max_m))
    alts = tuple(draw(st.permutations([f"c{i}" for i in range(m)])))
    pool = draw(st.lists(st.permutations(alts), min_size=1, max_size=6))
    ballots = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.integers(1, 4)), min_size=1, max_size=12
        )
    )
    return OrdinalProfile(alts, tuple(RankingBallot(tuple(r), w) for r, w in ballots))


def seeded_profile(seed, m, n):
    rng = random.Random(seed)
    alts = tuple(f"a{i:02d}" for i in range(m))
    ballots = []
    for _ in range(n):
        ballots.append(RankingBallot(tuple(rng.sample(alts, m)), rng.randint(1, 3)))
    ballots.extend(ballots[: n // 5])
    return OrdinalProfile(alts, tuple(ballots))


SEEDED_M50 = [seeded_profile(seed, 50, 41) for seed in (1, 2, 3)]


def distinct_profile(seed, m, k):
    """k distinct random rankings of m alternatives, weights 1 to 3."""
    rng = random.Random(seed)
    alts = tuple(f"a{i}" for i in range(m))
    rankings = {}
    while len(rankings) < k:
        rankings[tuple(rng.sample(alts, m))] = rng.randint(1, 3)
    return OrdinalProfile(alts, tuple(itertools.starmap(RankingBallot, rankings.items())))


# Profiles on each side of the bound: k * m**2 at it and just past it, one
# or two alternatives, and all 24 rankings of 4 alternatives.
ON_MERGE = [distinct_profile(1, 8, 8), distinct_profile(2, 1, 1), distinct_profile(3, 2, 2),
            distinct_profile(4, 4, 24)]
ON_ARRAYS = [distinct_profile(5, 8, 9), distinct_profile(6, 5, 21), distinct_profile(7, 6, 15)]
assert all(p._tallies_on_merge for p in ON_MERGE)
assert not any(p._tallies_on_merge for p in ON_ARRAYS)
assert len(ON_MERGE[0].merged) * 8**2 == SMALL_TALLY_STEPS

# Weights near 10**400: an object-dtype array on the numpy side, plain ints
# on the other.
HUGE = 10**400
HUGE_PROFILE = OrdinalProfile(
    ("A", "B", "C"),
    (RankingBallot(("A", "B", "C"), HUGE), RankingBallot(("C", "B", "A"), HUGE + 3),
     RankingBallot(("B", "A", "C"), HUGE)),
)

MARGIN_KERNELS = pytest.mark.parametrize(
    "kernel", [_margins_on_merge, _margins_on_arrays], ids=["merge", "arrays"]
)
CC_KERNELS = pytest.mark.parametrize(
    "score, greedy",
    [(_cc_score_on_merge, _greedy_cc_on_merge), (_cc_score_on_arrays, _greedy_cc_on_arrays)],
    ids=["merge", "arrays"],
)


class TestMarginMatrix:
    @settings(max_examples=150, deadline=None)
    @given(profiles())
    def test_matches_reference(self, profile):
        assert margin_matrix(profile).entries == reference_margin_matrix(profile)

    def test_seeded_m50(self):
        for profile in SEEDED_M50:
            assert margin_matrix(profile).entries == reference_margin_matrix(profile)

    def test_weights_beyond_int64_stay_exact(self):
        big = 2**62
        profile = OrdinalProfile(
            ("A", "B", "C"),
            (RankingBallot(("A", "B", "C"), big), RankingBallot(("C", "B", "A"), big + 3),
             RankingBallot(("B", "A", "C"), big)),
        )
        entries = margin_matrix(profile).entries
        assert entries == reference_margin_matrix(profile)
        assert entries[0][2] == big - 3
        assert all(type(x) is int for row in entries for x in row)

    @MARGIN_KERNELS
    @settings(max_examples=150, deadline=None)
    @given(profile=profiles())
    def test_kernel_matches_reference(self, kernel, profile):
        entries = kernel(profile)
        assert tuple(map(tuple, entries)) == reference_margin_matrix(profile)
        assert all(type(x) is int for row in entries for x in row)

    @MARGIN_KERNELS
    def test_kernel_on_both_sides_of_the_bound(self, kernel):
        for profile in ON_MERGE + ON_ARRAYS:
            assert tuple(map(tuple, kernel(profile))) == reference_margin_matrix(profile)
            assert margin_matrix(profile).entries == reference_margin_matrix(profile)

    @MARGIN_KERNELS
    def test_kernel_stays_exact_near_10_to_the_400(self, kernel):
        entries = kernel(HUGE_PROFILE)
        assert tuple(map(tuple, entries)) == reference_margin_matrix(HUGE_PROFILE)
        assert entries[0][2] == HUGE - 3
        assert all(type(x) is int for row in entries for x in row)


class TestRankedPairs:
    @settings(max_examples=150, deadline=None)
    @given(profiles())
    def test_matches_reference(self, profile):
        ranking, groups, locks = reference_ranked_pairs(profile)
        result = ranked_pairs(profile)
        assert result.ranking == ranking
        assert result.tie_groups == groups
        assert ranked_pairs_locks(profile) == locks

    def test_seeded_m50(self):
        for profile in SEEDED_M50:
            ranking, groups, locks = reference_ranked_pairs(profile)
            result = ranked_pairs(profile)
            assert (result.ranking, result.tie_groups) == (ranking, groups)
            assert ranked_pairs_locks(profile) == locks

    def test_margin_ties_lock_in_lexicographic_order(self):
        # All three margins are +1: A>B is locked, then B>C, and C>A would
        # close the cycle.
        profile = profile_from_rankings(
            [("A", "B", "C"), ("C", "A", "B"), ("B", "C", "A")], ("A", "B", "C")
        )
        assert ranked_pairs_locks(profile) == (("A", "B", 1), ("B", "C", 1))
        assert ranked_pairs(profile).tie_groups == (("A",), ("B",), ("C",))


class TestChamberlinCourant:
    @settings(max_examples=150, deadline=None)
    @given(profiles(), st.data())
    def test_greedy_matches_reference(self, profile, data):
        k = data.draw(st.integers(1, profile.num_alternatives))
        assert greedy_cc(profile, k).winners == reference_greedy_cc(profile, k)

    @settings(max_examples=150, deadline=None)
    @given(profiles(), st.data())
    def test_score_matches_reference(self, profile, data):
        size = data.draw(st.integers(1, profile.num_alternatives))
        committee = tuple(data.draw(st.permutations(profile.alternatives))[:size])
        score = cc_score(profile, committee)
        assert type(score) is float
        assert score == reference_cc_score(profile, committee)

    def test_seeded_m50(self):
        for profile in SEEDED_M50:
            winners = reference_greedy_cc(profile, 3)
            assert greedy_cc(profile, 3).winners == winners
            assert cc_score(profile, winners) == reference_cc_score(profile, winners)

    def test_weights_beyond_int64_stay_exact(self):
        big = 2**62
        profile = OrdinalProfile(
            ("A", "B", "C"),
            (RankingBallot(("A", "B", "C"), big), RankingBallot(("C", "B", "A"), big + 1)),
        )
        # Round one: C gains 2 big + 2 against B's 2 big + 1, a difference
        # that float gains would round away; round two: A adds 2 big.
        assert greedy_cc(profile, 2).winners == ("C", "A")
        assert cc_score(profile, ("A",)) == 2 * big
        assert type(cc_score(profile, ("A",))) is int

    @CC_KERNELS
    @settings(max_examples=150, deadline=None)
    @given(profile=profiles(), data=st.data())
    def test_greedy_kernel_matches_reference(self, score, greedy, profile, data):
        k = data.draw(st.integers(1, profile.num_alternatives))
        assert greedy(profile, k) == reference_greedy_cc(profile, k)

    @CC_KERNELS
    @settings(max_examples=150, deadline=None)
    @given(profile=profiles(), data=st.data())
    def test_score_kernel_matches_reference(self, score, greedy, profile, data):
        size = data.draw(st.integers(1, profile.num_alternatives))
        committee = tuple(data.draw(st.permutations(profile.alternatives))[:size])
        total = score(profile, committee)
        assert type(total) is int
        assert total == reference_cc_score(profile, committee)

    @CC_KERNELS
    def test_kernels_on_both_sides_of_the_bound(self, score, greedy):
        for profile in ON_MERGE + ON_ARRAYS:
            for k in range(1, profile.num_alternatives + 1):
                winners = reference_greedy_cc(profile, k)
                assert greedy(profile, k) == greedy_cc(profile, k).winners == winners
                expected = reference_cc_score(profile, winners)
                assert score(profile, winners) == cc_score(profile, winners) == expected

    @CC_KERNELS
    def test_kernels_stay_exact_near_10_to_the_400(self, score, greedy):
        # Round one: B gains 4 HUGE + 3 against A's 3 HUGE and C's 2 HUGE + 6;
        # round two: C adds HUGE + 3 against A's HUGE, a difference that
        # float gains would round away.
        assert greedy(HUGE_PROFILE, 2) == ("B", "C")
        assert score(HUGE_PROFILE, ("A",)) == 3 * HUGE
        assert score(HUGE_PROFILE, ("B", "C")) == 5 * HUGE + 6
        assert type(score(HUGE_PROFILE, ("A",))) is int


class TestInstantRunoff:
    @pytest.mark.parametrize("big", [2**53 - 1, 2**62, 10**400])
    def test_weights_beyond_int64_stay_exact(self, big):
        profile = OrdinalProfile(
            ("A", "B", "C"),
            (RankingBallot(("A", "B", "C"), big), RankingBallot(("B", "A", "C"), big + 1),
             RankingBallot(("C", "A", "B"), 2)),
        )
        # Round two: A has big + 2 first places to B's big + 1.  A score is a
        # float up to 2**53 and the exact int above.
        result = instant_runoff(profile)
        assert result.elimination_order == ("C", "B", "A")
        assert result.scores == {"C": 2, "B": big + 1, "A": 2 * big + 3}
        assert [type(result.scores[alt]) for alt in "CBA"] == [
            float, float if big + 1 <= 2**53 else int, int
        ]


class TestRandomDictator:
    @pytest.mark.parametrize("big", [2**53, 2**62, 10**400])
    def test_weights_beyond_int64_stay_exact(self, big):
        profile = OrdinalProfile(
            ("A", "B", "C"),
            (RankingBallot(("A", "B", "C"), big), RankingBallot(("B", "A", "C"), 1),
             RankingBallot(("C", "A", "B"), big)),
        )
        n = 2 * big + 1
        # Past 2**53 voters the ticket is the exact draw randrange(n), and
        # voters [0, big) rank A first, voter big B and the rest C.
        winners = set()
        for seed in range(20):
            ticket = random.Random(seed).randrange(n)
            lottery, winner = random_dictator(profile, seed)
            assert winner == ("A" if ticket < big else "B" if ticket == big else "C")
            assert lottery.probabilities == {"A": big / n, "B": 1 / n, "C": big / n}
            winners.add(winner)
        assert winners == {"A", "C"}


class TestCycleWitness:
    def test_matches_unpruned_walk_at_m9_to_12(self):
        rng = random.Random(12)
        for _ in range(60):
            m = rng.randint(9, 12)
            alts = tuple(f"a{i:02d}" for i in rng.sample(range(40), m))
            n = rng.choice([3, 5, 7, 9, 15])
            matrix = margin_matrix(
                profile_from_rankings([tuple(rng.sample(alts, m)) for _ in range(n)], alts)
            )
            assert detect_cycles(matrix).cycles == reference_cycles(matrix)

    @settings(max_examples=150, deadline=None)
    @given(profiles())
    def test_enumeration_matches_unpruned_walk(self, profile):
        matrix = margin_matrix(profile)
        assert detect_cycles(matrix).cycles == reference_cycles(matrix)

    def test_dead_end_maze_at_m30(self):
        # a00 beats every trap a01..a27 and a28; the traps form a transitive
        # chain (lower beats higher) that never leads back; a28 > a29 > a00.
        # The unpruned walk first tries all 2^27 paths through the traps.
        m = 30
        alts = tuple(f"a{i:02d}" for i in range(m))
        beats = {(0, j) for j in range(1, m - 1)} | {(m - 2, m - 1), (m - 1, 0)}
        beats |= {(i, j) for i in range(1, m - 2) for j in range(i + 1, m - 2)}
        beats |= {(s, t) for s in (m - 2, m - 1) for t in range(1, m - 2)}
        entries = [[0] * m for _ in range(m)]
        for i, j in beats:
            entries[i][j], entries[j][i] = 1, -1
        assert all(entries[i][j] for i, j in itertools.permutations(range(m), 2))
        matrix = MarginMatrix(alts, tuple(tuple(row) for row in entries))
        start = time.perf_counter()
        report = detect_cycles(matrix)
        assert time.perf_counter() - start < 5.0
        assert report.cycles == (("a00", "a28", "a29"),)
        assert not report.has_condorcet_winner
