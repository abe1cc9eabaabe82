"""Ordinal social welfare functions: full social rankings from ranking profiles."""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from .profiles import OrdinalProfile, margin_matrix
from .rules import resolve_rule, rule_ids

LOTTERY_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SocialRanking:
    """A complete collective ranking.

    `ranking` is a permutation of the profile's alternatives, winner first.
    `scores` carries rule-specific per-alternative detail when the rule has a
    natural score.  `tie_groups` partitions the ranking into maximal blocks
    whose internal order came from the lexicographic tie-break rather than
    from the rule itself; singleton blocks mean no tie was broken.
    `elimination_order` (instant runoff, first out first) and `locked_pairs`
    (ranked pairs, as (winner, loser, margin) in lock order) record how the
    ranking was reached; they take no part in equality.
    """

    ranking: tuple[str, ...]
    tie_groups: tuple[tuple[str, ...], ...]
    scores: dict[str, float] | None = None
    elimination_order: tuple[str, ...] | None = field(default=None, compare=False)
    locked_pairs: tuple[tuple[str, str, int], ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ranking", tuple(self.ranking))
        object.__setattr__(self, "tie_groups", tuple(tuple(g) for g in self.tie_groups))
        flattened = tuple(a for group in self.tie_groups for a in group)
        if flattened != self.ranking:
            raise ValueError("tie_groups must partition the ranking in order")

    @property
    def winner(self) -> str:
        return self.ranking[0]


@dataclass(frozen=True)
class Lottery:
    """A probability distribution over alternatives."""

    probabilities: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "probabilities", dict(self.probabilities))
        if any(p < 0 for p in self.probabilities.values()):
            raise ValueError("lottery probabilities must be non-negative")
        total = sum(self.probabilities.values())
        if abs(total - 1.0) > LOTTERY_SUM_TOL:
            raise ValueError(f"lottery probabilities sum to {total}, expected 1")

    def probability(self, alt: str) -> float:
        return self.probabilities.get(alt, 0.0)


def _groups_by_score(ordered: list[str], scores: dict[str, float]) -> tuple[tuple[str, ...], ...]:
    groups: list[list[str]] = []
    for alt in ordered:
        if groups and scores[groups[-1][-1]] == scores[alt]:
            groups[-1].append(alt)
        else:
            groups.append([alt])
    return tuple(tuple(g) for g in groups)


def _score_ranking(scores: dict[str, float]) -> SocialRanking:
    # Descending score, lexicographic id within equal scores.
    ordered = sorted(scores, key=lambda a: (-scores[a], a))
    return SocialRanking(tuple(ordered), _groups_by_score(ordered, scores), scores)


def first_place_counts(profile: OrdinalProfile, active: set[str] | None = None) -> dict[str, int]:
    """Weighted count of ballots whose top-ranked active alternative is each id."""
    if active is None:
        active = set(profile.alternatives)
    counts = {a: 0 for a in profile.alternatives if a in active}
    for ranking, weight in profile.merged:
        for alt in ranking:
            if alt in active:
                counts[alt] += weight
                break
    return counts


def plurality(profile: OrdinalProfile) -> SocialRanking:
    """Rank alternatives by how often they appear at the very top of a ballot."""
    counts = first_place_counts(profile)
    return _score_ranking({a: float(c) for a, c in counts.items()})


def borda(profile: OrdinalProfile) -> SocialRanking:
    """Rank by Borda score: m-1 points for a first place down to 0 for a last place."""
    scores = dict.fromkeys(profile.alternatives, 0)
    for ranking, weight in profile.merged:
        for points, alt in enumerate(reversed(ranking)):
            scores[alt] += weight * points
    return _score_ranking({a: float(s) for a, s in scores.items()})


def instant_runoff(profile: OrdinalProfile) -> SocialRanking:
    """Repeatedly eliminate the alternative with fewest current first places.

    The lexicographically largest id is eliminated when several share the
    fewest count.  The social ranking is the reverse elimination order; the
    recorded score of each alternative is its first-place count in the round
    it went out.
    """
    active = set(profile.alternatives)
    eliminated: list[str] = []
    argmin_sets: list[set[str]] = []
    scores: dict[str, float] = {}
    while active:
        counts = first_place_counts(profile, active)
        fewest = min(counts.values())
        losers = {a for a, c in counts.items() if c == fewest}
        out = max(losers)
        eliminated.append(out)
        argmin_sets.append(losers)
        scores[out] = float(counts[out])
        active.remove(out)
    ranking = tuple(reversed(eliminated))
    # Adjacent alternatives were tie-broken when the higher-ranked one sat in
    # the same fewest-firsts set at the round the lower one went out.
    groups: list[list[str]] = [[eliminated[0]]]
    for rnd in range(1, len(eliminated)):
        if eliminated[rnd] in argmin_sets[rnd - 1]:
            groups[-1].append(eliminated[rnd])
        else:
            groups.append([eliminated[rnd]])
    tie_groups = tuple(tuple(reversed(g)) for g in reversed(groups))
    return SocialRanking(ranking, tie_groups, scores, elimination_order=tuple(eliminated))


def ranked_pairs(profile: OrdinalProfile) -> SocialRanking:
    """Tideman's method: lock majority pairs from largest margin down, skip cycles.

    Strict-majority pairs are considered from largest margin down, margin ties
    in lexicographic (winner, loser) order; a pair is skipped when it would
    close a cycle with the pairs already locked.  The output is the
    topological order of the locked digraph, choosing the lexicographically
    smallest available alternative at each step; blocks of mutually unordered
    alternatives are reported as tie groups, and the lock order as
    `locked_pairs`.  After the margin tally this costs O(m^3): one
    reachability-bitset test per pair and an O(m) bitset update per lock that
    orders a new pair.
    """
    # reach[i] is the bitset of alternatives that i reaches in the locked
    # digraph, i itself included; it is kept transitively closed.
    matrix = margin_matrix(profile)
    alts = profile.alternatives
    m = len(alts)
    index = {a: i for i, a in enumerate(alts)}
    reach = [1 << i for i in range(m)]
    children: list[list[int]] = [[] for _ in range(m)]
    indegree = [0] * m
    locked: list[tuple[str, str, int]] = []
    for winner, loser, margin in sorted(matrix.positive_pairs(), key=lambda p: (-p[2], p[0], p[1])):
        w, l = index[winner], index[loser]
        if reach[l] >> w & 1:
            continue
        locked.append((winner, loser, margin))
        children[w].append(l)
        indegree[l] += 1
        if not reach[w] >> l & 1:
            w_bit, gained = 1 << w, reach[l]
            for u in range(m):
                if reach[u] & w_bit:
                    reach[u] |= gained
    assert not any(
        reach[j] >> i & 1 for i in range(m) for j in range(m) if i != j and reach[i] >> j & 1
    ), "locked digraph has a cycle"

    available = [(alts[i], i) for i in range(m) if indegree[i] == 0]
    heapq.heapify(available)
    order: list[int] = []
    while available:
        _, i = heapq.heappop(available)
        order.append(i)
        for j in children[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(available, (alts[j], j))

    # Two adjacent alternatives are tied when the locked digraph never orders
    # them, directly or transitively.
    groups: list[list[str]] = [[alts[order[0]]]]
    for prev, i in zip(order, order[1:]):
        if reach[prev] >> i & 1:
            groups.append([alts[i]])
        else:
            groups[-1].append(alts[i])
    return SocialRanking(
        tuple(alts[i] for i in order), tuple(tuple(g) for g in groups), locked_pairs=tuple(locked)
    )


def ranked_pairs_locks(profile: OrdinalProfile) -> tuple[tuple[str, str, int], ...]:
    """The (winner, loser, margin) pairs Tideman's method locks, in lock order."""
    return ranked_pairs(profile).locked_pairs


def random_dictator(profile: OrdinalProfile, seed: int) -> tuple[Lottery, str]:
    """First-place-share lottery plus one winner sampled with the seeded generator.

    The lottery itself does not depend on the seed; only the sampled winner does.
    """
    n = profile.num_voters
    counts = first_place_counts(profile)
    lottery = Lottery({a: c / n for a, c in counts.items()})
    rng = random.Random(seed)
    ticket = rng.random() * n
    cumulative = 0.0
    winner = profile.alternatives[0]
    for alt in profile.alternatives:
        cumulative += counts[alt]
        if ticket < cumulative:
            winner = alt
            break
    return lottery, winner


# Each registry id of kind "ordinal" names its function in this module.
ORDINAL_RULES: dict[str, Callable[[OrdinalProfile], SocialRanking]] = {
    rid: globals()[rid] for rid in rule_ids("ordinal")
}


def ordinal_rule(name: str) -> Callable[[OrdinalProfile], SocialRanking]:
    """Look up a deterministic ordinal rule by any spelling of its id."""
    return resolve_rule(name, "ordinal").fn
