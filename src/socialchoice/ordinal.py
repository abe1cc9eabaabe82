"""Ordinal social welfare functions: full social rankings from ranking profiles.

Each deterministic rule is `decide(tally(profile))` of its `ORDINAL_TALLIES`
row, whose `tally` is additive over ballots and whose `add` is the tally of one
ballot, so a misreport is decided from the base tally without a new profile.
The row's `reads` and `hopeless` tell the manipulation search which blocks of
misreports it need not decide.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable, Mapping, Set
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, NamedTuple

from .profiles import MarginMatrix, OrdinalProfile, margin_matrix
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
    scores: dict[str, int | float] | None = None
    elimination_order: tuple[str, ...] | None = field(default=None, compare=False)
    locked_pairs: tuple[tuple[str, str, int], ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ranking", tuple(self.ranking))
        object.__setattr__(self, "tie_groups", tuple(map(tuple, self.tie_groups)))
        if tuple(chain.from_iterable(self.tie_groups)) != self.ranking:
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


def reported_score(score: int) -> int | float:
    """A tally as reports show it: a float while that is exact (|s| <= 2**53), else the int."""
    return float(score) if abs(score) <= 2**53 else score


def _groups_by_score(
    ordered: list[str], scores: Mapping[str, int | float]
) -> tuple[tuple[str, ...], ...]:
    groups: list[list[str]] = []
    for alt in ordered:
        if groups and scores[groups[-1][-1]] == scores[alt]:
            groups[-1].append(alt)
        else:
            groups.append([alt])
    return tuple(tuple(g) for g in groups)


def _score_ranking(scores: Mapping[str, int | float]) -> SocialRanking:
    """Plurality's and Borda's decide step: rank a score tally.

    Descending score, lexicographic id within equal scores.  Sorting and
    grouping read the tally as given, so integer tallies rank exactly at any
    size; the reported `scores` go through `reported_score`.
    """
    # Stable: the descending sort keeps equal scores in id order.
    ordered = sorted(sorted(scores), key=scores.__getitem__, reverse=True)
    reported = {a: reported_score(s) for a, s in scores.items()}
    return SocialRanking(tuple(ordered), _groups_by_score(ordered, scores), reported)


def first_place_counts(profile: OrdinalProfile, active: Set[str] | None = None) -> dict[str, int]:
    """Weighted count of ballots whose top-ranked active alternative is each id.

    Plurality's tally over all alternatives, and instant runoff's per active set.
    """
    if active is None:
        active = set(profile.alternatives)
    counts = {a: 0 for a in profile.alternatives if a in active}
    for ranking, weight in profile.merged:
        for alt in ranking:
            if alt in active:
                counts[alt] += weight
                break
    return counts


def borda_scores(profile: OrdinalProfile) -> dict[str, int]:
    """Borda's tally: m-1 points per voter for a first place down to 0 for a last place."""
    scores = dict.fromkeys(profile.alternatives, 0)
    for ranking, weight in profile.merged:
        for points, alt in enumerate(reversed(ranking)):
            scores[alt] += weight * points
    return scores


def _add_first_place(counts: dict[str, int], ranking: tuple[str, ...], sign: int) -> dict[str, int]:
    top = ranking[0]
    return {**counts, top: counts[top] + sign}


def _add_borda_points(scores: dict[str, int], ranking: tuple[str, ...], sign: int) -> dict[str, int]:
    scores = scores.copy()
    for points, alt in enumerate(reversed(ranking)):
        scores[alt] += sign * points
    return scores


def plurality(profile: OrdinalProfile) -> SocialRanking:
    """Rank alternatives by how often they appear at the very top of a ballot."""
    return _score_ranking(first_place_counts(profile))


def borda(profile: OrdinalProfile) -> SocialRanking:
    """Rank by Borda score: m-1 points for a first place down to 0 for a last place."""
    return _score_ranking(borda_scores(profile))


class RunoffTally:
    """Instant runoff's tally: a profile, its first places per active set and added ballots.

    `firsts` maps an active set to its first-place counts, counted when a
    round first reads them; `pending` holds the (ranking, sign) ballots
    added since, which each round adds in.  A tally made by `add` shares its
    source's `firsts`, which no decide step changes.

    Tallies are equal when their alternatives, their merges as ranking ->
    weight mappings and their added ballots are.  Each round's counts are
    sums over the merge, so `decide` reads only that value, whatever order
    the merge is in; `firsts` takes no part.  The value is built when `==`
    first needs it, so deciding a profile or adding a ballot pays nothing
    for it.
    """

    __slots__ = ("profile", "firsts", "pending", "_value")

    def __init__(self, profile: OrdinalProfile, firsts=None, pending=()):
        self.profile = profile
        self.firsts = {} if firsts is None else firsts
        self.pending = pending

    def __eq__(self, other):
        if not isinstance(other, RunoffTally):
            return NotImplemented
        return self._view() == other._view()

    def _view(self):
        try:
            return self._value
        except AttributeError:
            self._value = (self.profile.alternatives, dict(self.profile.merged), self.pending)
            return self._value


def _add_pending(tally: RunoffTally, ranking: tuple[str, ...], sign: int) -> RunoffTally:
    return RunoffTally(tally.profile, tally.firsts, (*tally.pending, (ranking, sign)))


def _runoff_counts(tally: RunoffTally, active: frozenset[str]) -> dict[str, int]:
    """One round's first-place counts over `active`: `firsts`, counted once, plus `pending`.

    The dict may be the one `firsts` keeps, so callers do not change it.
    """
    counts = tally.firsts.get(active)
    if counts is None:
        counts = tally.firsts[active] = first_place_counts(tally.profile, active)
    if tally.pending:
        counts = counts.copy()
        for ranking, sign in tally.pending:
            for alt in ranking:
                if alt in active:
                    counts[alt] += sign
                    break
    return counts


def _runoff_ranking(tally: RunoffTally) -> SocialRanking:
    """Instant runoff's decide step: eliminate round by round from each active set's counts."""
    active = frozenset(tally.profile.alternatives)
    eliminated: list[str] = []
    groups: list[list[str]] = []
    scores: dict[str, int | float] = {}
    while active:
        counts = _runoff_counts(tally, active)
        fewest = min(counts.values())
        out = max([a for a, c in counts.items() if c == fewest])
        # `out` was tie-broken against the previous round's loser when it
        # had that round's fewest count too.
        if eliminated and last_counts[out] == last_fewest:
            groups[-1].append(out)
        else:
            groups.append([out])
        last_counts, last_fewest = counts, fewest
        eliminated.append(out)
        scores[out] = reported_score(counts[out])
        active = active.difference((out,))
    ranking = tuple(reversed(eliminated))
    tie_groups = tuple(tuple(reversed(g)) for g in reversed(groups))
    return SocialRanking(ranking, tie_groups, scores, elimination_order=tuple(eliminated))


def instant_runoff(profile: OrdinalProfile) -> SocialRanking:
    """Repeatedly eliminate the alternative with fewest current first places.

    The lexicographically largest id is eliminated when several share the
    fewest count.  The social ranking is the reverse elimination order; the
    recorded score of each alternative is its first-place count in the round
    it went out.
    """
    return _runoff_ranking(RunoffTally(profile))


def _locked_ranking(matrix: MarginMatrix) -> SocialRanking:
    """Ranked pairs' decide step: lock a margin tally's pairs and order the result.

    After the tally this costs O(m^3): one reachability-bitset test per pair
    and an O(m) bitset update per lock that orders a new pair.
    """
    # reach[i] is the bitset of alternatives that i reaches in the locked
    # digraph, i itself included; it is kept transitively closed.
    alts = matrix.alternatives
    m = len(alts)
    reach = [1 << i for i in range(m)]
    children: list[list[int]] = [[] for _ in range(m)]
    indegree = [0] * m
    locked: list[tuple[str, str, int]] = []
    # Largest margin first, then by (winner, loser) id: the indices that
    # follow the ids never decide the order.
    pairs = [
        (-margin, alts[w], alts[l], w, l)
        for w, row in enumerate(matrix.entries)
        for l, margin in enumerate(row)
        if margin > 0
    ]
    pairs.sort()
    for negated, winner, loser, w, l in pairs:
        if reach[l] >> w & 1:
            continue
        locked.append((winner, loser, -negated))
        children[w].append(l)
        indegree[l] += 1
        if not reach[w] >> l & 1:
            w_bit, gained = 1 << w, reach[l]
            for u in range(m):
                if reach[u] & w_bit:
                    reach[u] |= gained

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
    # The topological order reaches every alternative only if no cycle was locked.
    assert len(order) == m, "locked digraph has a cycle"

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


def _add_margins(matrix: MarginMatrix, ranking: tuple[str, ...], sign: int) -> MarginMatrix:
    # One ballot adds `sign` to each pair it ranks in order and takes it from
    # the reverse pair.
    rows = [list(row) for row in matrix.entries]
    order = list(map(matrix.alternatives.index, ranking))
    for position, above in enumerate(order):
        for below in order[position + 1:]:
            rows[above][below] += sign
            rows[below][above] -= sign
    return MarginMatrix(matrix.alternatives, tuple(map(tuple, rows)))


def ranked_pairs(profile: OrdinalProfile) -> SocialRanking:
    """Tideman's method: lock majority pairs from largest margin down, skip cycles.

    Strict-majority pairs are considered from largest margin down, margin ties
    in lexicographic (winner, loser) order; a pair is skipped when it would
    close a cycle with the pairs already locked.  The output is the
    topological order of the locked digraph, choosing the lexicographically
    smallest available alternative at each step; blocks of mutually unordered
    alternatives are reported as tie groups, and the lock order as
    `locked_pairs`.
    """
    return _locked_ranking(margin_matrix(profile))


def ranked_pairs_locks(profile: OrdinalProfile) -> tuple[tuple[str, str, int], ...]:
    """The (winner, loser, margin) pairs Tideman's method locks, in lock order."""
    return ranked_pairs(profile).locked_pairs


def random_dictator(profile: OrdinalProfile, seed: int) -> tuple[Lottery, str]:
    """First-place-share lottery plus one winner sampled with the seeded generator.

    The lottery itself does not depend on the seed; only the sampled winner
    does, through the ticket `rng.random() * n` for n <= 2**53 voters and the
    exact uniform integer `rng.randrange(n)` above that.
    """
    n = profile.num_voters
    counts = first_place_counts(profile)
    lottery = Lottery({a: c / n for a, c in counts.items()})
    rng = random.Random(seed)
    ticket = rng.random() * n if n <= 2**53 else rng.randrange(n)
    cumulative = 0
    winner = profile.alternatives[0]
    for alt in profile.alternatives:
        cumulative += counts[alt]
        if ticket < cumulative:
            winner = alt
            break
    return lottery, winner


def _reads_top(result: SocialRanking, ranking: tuple[str, ...]) -> int:
    return 1


def _reads_all(result: SocialRanking, ranking: tuple[str, ...]) -> int:
    return len(ranking)


def _reaches_its_beaters(upper: list[list[int]], c: int) -> bool:
    """Does c reach each y with upper[c][y] < 0 by a path at least -upper[c][y] wide?

    A path's width is its narrowest margin in `upper`.  As in Dijkstra's
    search, the widest unreached alternative is reached next, so once its
    width falls short of a beater still unreached, that beater's widest path
    does too.
    """
    need = {y: -margin for y, margin in enumerate(upper[c]) if margin < 0}
    widest = upper[c].copy()
    todo = set(range(len(upper)))
    todo.discard(c)
    while need:
        u = max(todo, key=widest.__getitem__)
        width = widest[u]
        if width < max(need.values()):
            return False
        need.pop(u, None)
        todo.discard(u)
        row = upper[u]
        for y in todo:
            through = row[y] if row[y] < width else width
            if through > widest[y]:
                widest[y] = through
    return True


def _margins_hopeless(matrix: MarginMatrix, prefix: tuple[str, ...], wanted: Set[str]) -> bool:
    """Does no ranking that starts with `prefix`, added to `matrix`, elect one of `wanted`?

    Ranked pairs' bound, sound but not exact.  No locked pair points into
    the winner c, so each pair (y, c) with M(y, c) > 0 was skipped as closing
    a cycle: c already reached y through locked pairs of margin at least
    M(y, c), a path at least that wide.  The ranking adds 1 to M(a, b) when
    it puts a above b and takes 1 away otherwise, so a pair with a placed
    end has a known margin, and a pair of two unplaced alternatives is
    within 1 of its margin in `matrix`.  Widening every path to its upper
    margins, and lowering each M(y, c) to its lower margin, only eases the
    test, so a c that fails it here fails it on every completion.  It can
    pass for a c that does not win.
    """
    alts = matrix.alternatives
    # The unplaced alternatives share the place after the prefix, as a pair
    # of them may go either way.
    place = dict.fromkeys(alts, len(prefix))
    place.update(zip(prefix, range(len(prefix))))
    at = [place[a] for a in alts]
    # upper[i][j] is the largest M(i, j) a completion gives, and -upper[j][i]
    # the smallest.
    upper = [
        [margin + 1 if at[i] <= at[j] else margin - 1 for j, margin in enumerate(row)]
        for i, row in enumerate(matrix.entries)
    ]
    return not any(_reaches_its_beaters(upper, c) for c in map(alts.index, wanted))


def _scores_hopeless(scores: dict[str, int], prefix: tuple[str, ...], wanted: Set[str]) -> bool:
    """Does no ranking that starts with `prefix`, added to `scores`, elect one of `wanted`?

    Borda's bound, exact by the greedy completion of Bartholdi, Tovey and
    Trick (1989).  An unplaced c does best at the top free place, as moving
    it up only takes points from the others.  Then each other alternative y
    has room to gain c's total minus y's score, less 1 when y < c, as
    `_score_ranking` breaks equal scores by the smaller id.  The placed
    alternatives' points are fixed, and the free points fit the free
    alternatives' rooms exactly when, both sorted, each point fits the room
    it meets.
    """
    m = len(scores)
    gained = {a: m - 1 - i for i, a in enumerate(prefix)}
    for c in wanted:
        total = scores[c] + gained.get(c, m - 1 - len(prefix))
        # How many points each other alternative may gain with c still first.
        room = {y: total - s - (y < c) for y, s in scores.items() if y != c}
        placed_fit = all(room.pop(y) >= points for y, points in gained.items() if y != c)
        # The free alternatives left in `room` share the points 0, 1, 2, ...
        if placed_fit and all(points <= most for points, most in enumerate(sorted(room.values()))):
            return False
    return True


def _runoff_hopeless(tally: RunoffTally, prefix: tuple[str, ...], wanted: Set[str]) -> bool:
    """Does no ranking that starts with `prefix`, added to `tally`, elect one of `wanted`?

    Instant runoff's bound, exact: the elimination-sequence search of
    Conitzer, Sandholm and Lang (2007).  Each round the ballot's vote goes
    to its first active alternative: one of `prefix` while any is active,
    and after that a free alternative it backs until that one is out, and
    then another.  Every sequence of such choices is made by some
    completion of the prefix, the backed alternatives first in the order
    backed, so searching the choices searches the completions.  A state is
    the active set and the alternative holding the ballot, fewer than m 2^m
    of them, and each is searched once per call.
    """
    everyone = frozenset(tally.profile.alternatives)
    free = everyone.difference(prefix)
    known: dict[tuple[frozenset[str], str], bool] = {}

    def holders(active: frozenset[str]):
        placed = [a for a in prefix if a in active]
        return placed[:1] or active & free

    def elects(active: frozenset[str], holder: str) -> bool:
        if not active & wanted:
            return False
        if len(active) == 1:
            return True
        state = (active, holder)
        if state not in known:
            counts = _runoff_counts(tally, active).copy()
            counts[holder] += 1
            fewest = min(counts.values())
            out = max([a for a, c in counts.items() if c == fewest])
            rest = active.difference((out,))
            known[state] = (
                any(elects(rest, h) for h in holders(rest)) if out == holder
                else elects(rest, holder)
            )
        return known[state]

    return not any(elects(everyone, h) for h in holders(everyone))


class TallyRow(NamedTuple):
    """A deterministic ordinal rule as `decide(tally(profile))`.

    `add(t, ranking, sign)` is tally `t` plus `sign` times the tally of one
    unit ballot; it returns a new tally.  `reads(result, ranking)` is how
    many leading places of `ranking` deciding `add(t, ranking, 1)` read to
    reach `result`: every ranking that shares them decides the same.
    `hopeless(t, prefix, wanted)`, where a row has it, is true only when no
    ranking that starts with `prefix`, added to tally `t`, has a winner in
    `wanted`; it may be false when none has, but never true when one has.
    """

    tally: Callable[[OrdinalProfile], Any]
    add: Callable[[Any, tuple[str, ...], int], Any]
    decide: Callable[[Any], SocialRanking]
    reads: Callable[[SocialRanking, tuple[str, ...]], int]
    hopeless: Callable[[Any, tuple[str, ...], Set[str]], bool] | None = None


# One row per registry id of kind "ordinal"; its function is `decide(tally(profile))`.
ORDINAL_TALLIES: dict[str, TallyRow] = {
    "plurality": TallyRow(first_place_counts, _add_first_place, _score_ranking, _reads_top),
    "borda": TallyRow(
        borda_scores, _add_borda_points, _score_ranking, _reads_all, _scores_hopeless
    ),
    "instant_runoff": TallyRow(
        RunoffTally, _add_pending, _runoff_ranking, _reads_all, _runoff_hopeless
    ),
    "ranked_pairs": TallyRow(
        margin_matrix, _add_margins, _locked_ranking, _reads_all, _margins_hopeless
    ),
}

# Each registry id of kind "ordinal" names its function in this module.
ORDINAL_RULES: dict[str, Callable[[OrdinalProfile], SocialRanking]] = {
    rid: globals()[rid] for rid in rule_ids("ordinal")
}


def ordinal_rule(name: str) -> Callable[[OrdinalProfile], SocialRanking]:
    """Look up a deterministic ordinal rule by any spelling of its id."""
    return resolve_rule(name, "ordinal").fn
