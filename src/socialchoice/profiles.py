"""Strict-ranking ballot profiles, pairwise majority margins, and cycle detection."""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat, starmap
from typing import TYPE_CHECKING, NamedTuple, NoReturn

if TYPE_CHECKING:
    import numpy as np

_FORBIDDEN_ID_CHARS = (">", ",")

# Full cycle enumeration is factorial in the number of alternatives; above
# this we report a single witness cycle instead.
MAX_ENUMERATED_ALTERNATIVES = 8

_INT64_MAX = 2**63 - 1

# A tally over k distinct rankings of m alternatives runs in pure Python on
# the merge when k * m**2 is at most this, and on numpy arrays above it.
# Below the bound a one-command run also skips numpy's import, 75-110 ms of
# a process.  Timings with numpy loaded, pure Python against arrays, "cold"
# when the call builds the position arrays (2 vCPUs, Python 3.11, numpy 2.4,
# committees of 2 or 3):
# - margins: the bound is their crossover.  9 against 27 us at m = 3, k = 6
#   (k m^2 = 54); 36 against 39 us at m = 5, k = 20 (500); 64 against 48 us
#   at m = 6, k = 28 (1,008); 50 against 10 ms at m = 10, k = 9,985.
# - greedy Chamberlin-Courant: the arrays catch up at about k*m*c = 150-300
#   for a committee of c, so just under the bound the merge can take 1.3-3x
#   as long (52 against 40 us at m = 4, k = 24, c = 2; 140 against 45 us at
#   c = 3), tens of us against the import it saves.  Far above it the arrays
#   win 4-5x: 38 against 9 ms at m = 10, k = 9,985 and 13 against 3 ms at
#   m = 50, k = 1,000, c = 3.
# - the CC score reads no bound.  Cold, the merge is never slower (7.4 against
#   7.5 ms and 1.5 against 2.6 ms on those two profiles), so the score reads
#   the arrays only once a margin or greedy tally has built them; then they
#   win, 7.4 ms against 30 us and 1.6 ms against 15 us, and from k*c of about
#   30 at small sizes.  So `committee --rule k-borda` never loads numpy, and
#   greedy CC's score above the bound follows greedy onto the arrays.
SMALL_TALLY_STEPS = 512


class BallotParseError(ValueError):
    """A ballot file (or profile construction) violated the expected format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def validate_alternative_id(alt_id: str) -> str:
    """Check an alternative id token: non-empty, no whitespace, no '>' or ','."""
    if not isinstance(alt_id, str) or not alt_id:
        raise BallotParseError(f"alternative id must be a non-empty string, got {alt_id!r}")
    if any(ch.isspace() for ch in alt_id):
        raise BallotParseError(f"alternative id {alt_id!r} contains whitespace")
    for ch in _FORBIDDEN_ID_CHARS:
        if ch in alt_id:
            raise BallotParseError(f"alternative id {alt_id!r} contains forbidden character {ch!r}")
    return alt_id


class RankingBallot(NamedTuple):
    """A strict ranking (a tuple) cast by `weight` voters; `OrdinalProfile` checks it."""

    ranking: tuple[str, ...]
    weight: int = 1


def _check_ranking(ranking: tuple[str, ...], alt_set: set[str]) -> None:
    if len(ranking) == len(alt_set) and set(ranking) == alt_set:
        return
    if len(set(ranking)) != len(ranking):
        raise BallotParseError(f"duplicate alternative in ranking {ranking}")
    unknown = set(ranking) - alt_set
    if unknown:
        raise BallotParseError(f"ballot {ranking} ranks unknown alternative(s) {sorted(unknown)}")
    raise BallotParseError(
        f"ballot {ranking} omits alternative(s) {sorted(alt_set - set(ranking))}; "
        "rankings must be complete"
    )


@dataclass(frozen=True)
class OrdinalProfile:
    """An immutable election: alternatives plus weighted strict rankings.

    `OrdinalProfile(alternatives, ballots)` checks the ballots and merges
    them.  `parse_profile`, the anonymity check's shuffle of the distinct
    rankings (`_shuffled`), cloning and the simulated evaluators' counted
    rankings build the merge themselves and hand it over checked, through
    `_trusted`, which keeps the tuple it is given; a shuffle's merge is the
    permuted tuple of `RankingBallot`s, also its ballots, and so are the
    cloned and the counted rankings.
    `ballots`, in input order, is read only to render the profile, find a
    voter's ballot, read each voter's ranking for cloning and compare
    profiles.
    """

    alternatives: tuple[str, ...]
    ballots: tuple[RankingBallot, ...]
    # Each distinct ranking once, in first-occurrence order, with its weights
    # summed.  By anonymity this is all a rule needs, and every rule reads it.
    merged: tuple[RankingBallot, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        object.__setattr__(self, "ballots", tuple(self.ballots))
        merged: dict[tuple[str, ...], int] = {}
        for ranking, weight in self.ballots:
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
                raise BallotParseError(f"ballot weight must be a positive integer, got {weight!r}")
            merged[ranking] = merged.get(ranking, 0) + weight
        if not self.alternatives:
            raise BallotParseError("a profile needs at least one alternative")
        for alt in self.alternatives:
            validate_alternative_id(alt)
        alt_set = set(self.alternatives)
        if len(alt_set) != len(self.alternatives):
            raise BallotParseError("duplicate alternative ids in profile")
        if not self.ballots:
            raise BallotParseError("a profile needs at least one ballot")
        # Each distinct ranking is checked once, in first-occurrence order, so
        # the first offending ballot is still the one reported.
        for ranking in merged:
            _check_ranking(ranking, alt_set)
        object.__setattr__(self, "merged", tuple(starmap(RankingBallot, merged.items())))

    @classmethod
    def _trusted(
        cls,
        alternatives: tuple[str, ...],
        ballots: tuple[RankingBallot, ...],
        merged: tuple[RankingBallot, ...],
    ) -> OrdinalProfile:
        """A profile whose alternatives, ballots and merge were built and checked by its caller.

        `merged` is kept as given, the very tuple and its `RankingBallot`s,
        so the caller builds each distinct ranking's entry once.  It must hold
        each distinct ranking of `ballots` once with its summed weight.
        """
        profile = object.__new__(cls)
        object.__setattr__(profile, "alternatives", alternatives)
        object.__setattr__(profile, "ballots", ballots)
        object.__setattr__(profile, "merged", merged)
        return profile

    def _shuffled(self, order: Sequence[int]) -> OrdinalProfile:
        """The profile with `merged` in `order` as both its ballots and its merge.

        No ranking is checked again.  When this profile's `_position_tally`
        is built, the shuffle's is its rows taken in `order`, read-only.
        `order` indexes them as a list, since numpy reads a tuple index as
        one index per axis.
        """
        permuted = tuple(map(self.merged.__getitem__, order))
        shuffled = self._trusted(self.alternatives, permuted, permuted)
        if "_position_tally" in vars(self):
            rows = list(order)
            positions, weights = (array[rows] for array in self._position_tally)
            positions.flags.writeable = weights.flags.writeable = False
            vars(shuffled)["_position_tally"] = positions, weights
        return shuffled

    @cached_property
    def _position_tally(self) -> tuple[np.ndarray, np.ndarray]:
        """Equal rankings merged: a read-only k x m position array and k summed weights.

        Row r gives each alternative's 0-indexed position (in the profile's
        alternative order) in the r-th distinct ranking, rows in
        first-occurrence order.  Weights are int64 whenever every weighted sum
        of values below m fits, and exact Python ints otherwise.  Computed on
        first use and kept, so the kernels run on one profile share it.
        """
        import numpy as np  # only the array kernels need numpy; it loads on first use

        rankings, counts = zip(*self.merged)
        m = len(self.alternatives)
        k = len(rankings)
        index = {a: i for i, a in enumerate(self.alternatives)}
        dtype = np.int16 if m <= np.iinfo(np.int16).max else np.int32
        order = np.fromiter(
            map(index.__getitem__, chain.from_iterable(rankings)), dtype=dtype, count=k * m
        ).reshape(k, m)
        positions = np.empty_like(order)
        positions[np.arange(k)[:, None], order] = np.arange(m, dtype=dtype)
        exact = self.num_voters * m <= _INT64_MAX
        weights = np.fromiter(counts, dtype=np.int64 if exact else object, count=k)
        positions.flags.writeable = weights.flags.writeable = False
        return positions, weights

    @property
    def _tallies_on_merge(self) -> bool:
        """Whether the tallies read `merged` in pure Python rather than `_position_tally`.

        True when k * m**2 is at most SMALL_TALLY_STEPS, for k distinct
        rankings and m alternatives.
        """
        return len(self.merged) * len(self.alternatives) ** 2 <= SMALL_TALLY_STEPS

    @property
    def num_alternatives(self) -> int:
        return len(self.alternatives)

    @cached_property
    def num_voters(self) -> int:
        return sum(weight for _, weight in self.merged)

    def unit_rankings(self) -> tuple[tuple[str, ...], ...]:
        """Expand weighted ballots into one ranking per voter, in ballot order."""
        return tuple(chain.from_iterable(starmap(repeat, self.ballots)))


def profile_from_rankings(
    rankings: Iterable[Sequence[str]], alternatives: Sequence[str] | None = None
) -> OrdinalProfile:
    """Build a unit-weight profile from raw rankings (alternatives default to the first ranking)."""
    rankings = [tuple(r) for r in rankings]
    if alternatives is None:
        if not rankings:
            raise BallotParseError("cannot infer alternatives from an empty ranking list")
        alternatives = rankings[0]
    return OrdinalProfile(tuple(alternatives), tuple(RankingBallot(r) for r in rankings))


def _raise_ranking_error(
    ranking: tuple[str, ...], alternatives: tuple[str, ...], lineno: int
) -> NoReturn:
    seen: set[str] = set()
    for alt in ranking:
        if not alt:
            raise BallotParseError("empty alternative token in ranking", lineno)
        if alt not in alternatives:
            raise BallotParseError(f"unknown alternative {alt!r}", lineno)
        if alt in seen:
            raise BallotParseError(f"alternative {alt!r} appears twice in ranking", lineno)
        seen.add(alt)
    missing = set(alternatives) - seen
    raise BallotParseError(
        f"ranking is missing alternative(s) {sorted(missing)}; rankings must be complete",
        lineno,
    )


def _parse_header(line: str, lineno: int) -> tuple[str, ...]:
    if not line.startswith("alternatives:"):
        raise BallotParseError("expected header 'alternatives: ...' before any ballot line", lineno)
    tokens = [t.strip() for t in line[len("alternatives:"):].split(",")]
    if tokens == [""]:
        raise BallotParseError("empty alternative list", lineno)
    try:
        alts = tuple(validate_alternative_id(t) for t in tokens)
    except BallotParseError as exc:
        raise BallotParseError(str(exc), lineno) from None
    if len(set(alts)) != len(alts):
        raise BallotParseError("duplicate alternative id in header", lineno)
    return alts


def _parse_ballot(line: str, header_ids: dict[str, str], lineno: int) -> RankingBallot:
    """One ballot line through every check in order; an error names `lineno`."""
    count_part, sep, ranking_part = line.partition(":")
    if not sep:
        raise BallotParseError("expected 'COUNT: X > Y > ...'", lineno)
    count_token = count_part.strip()
    if not count_token.isdecimal():  # exactly the digits int() reads
        raise BallotParseError(f"ballot count must be a positive integer, got {count_token!r}", lineno)
    limit = sys.get_int_max_str_digits()
    if limit and len(count_token) > limit:
        raise BallotParseError(f"ballot count has more than {limit} digits", lineno)
    count = int(count_token)
    if count < 1:
        raise BallotParseError("ballot count must be positive", lineno)
    tokens = tuple(map(str.strip, ranking_part.split(">")))
    if len(tokens) != len(header_ids) or set(tokens) != header_ids.keys():
        _raise_ranking_error(tokens, tuple(header_ids), lineno)
    # Rankings hold the header's id strings, not the line's tokens.
    return RankingBallot(tuple(map(header_ids.__getitem__, tokens)), count)


def parse_profile(text: str) -> OrdinalProfile:
    """Parse the on-disk ballot format.

    Lines starting with '#' are comments.  The first content line is
    ``alternatives: A, B, C``; each following line is ``COUNT: X > Y > Z``
    with COUNT a positive decimal integer and the ranking a permutation of
    the declared alternatives.  Whitespace around tokens is ignored.  Equal
    rankings are merged however they are spaced, and an error names the
    first offending line.
    """
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        header = raw.strip()
        if header and not header.startswith("#"):
            break
    else:
        raise BallotParseError("no 'alternatives:' header found")
    alternatives = _parse_header(header, lineno)
    m = len(alternatives)
    header_ids = {a: a for a in alternatives}
    # A longer count fails int(), so it goes to _parse_ballot, which reports it.
    max_digits = sys.get_int_max_str_digits() or len(text)
    merged: dict[tuple[str, ...], int] = {}
    ballots: dict[str, RankingBallot] = {}
    # Equal rankings share one tuple, however their lines are spaced.
    interned: dict[tuple[str, ...], tuple[str, ...]] = {}
    # Only the ballot lines stay, the one at index i on line lineno + i + 1
    # (counting an islice of the lines read 10,000-line files 1-2% slower).
    del lines[:lineno]
    # Byte-identical lines parse alike, so each distinct one is read once, in
    # first-occurrence order, and its error is located at its first
    # occurrence: the first failing distinct line is the file's first failing
    # line.  A copy of the header is a ballot line, and a bad one.
    for raw, times in Counter(lines).items():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # The common line, "COUNT: X > Y > Z" with single spaces, is checked
        # in one pass; any other goes through every check in order.
        count_part, sep, ranking_part = line.partition(":")
        count_token = count_part.strip()
        ranking = tuple(map(header_ids.get, ranking_part.strip().split(" > ")))
        if not (
            sep and count_token.isdecimal() and len(count_token) <= max_digits
            and len(ranking) == m and None not in ranking and len(set(ranking)) == m
            and (count := int(count_token)) > 0
        ):
            ranking, count = _parse_ballot(line, header_ids, lineno + lines.index(raw) + 1)
        ranking = interned.setdefault(ranking, ranking)
        ballots[raw] = RankingBallot(ranking, count)
        merged[ranking] = merged.get(ranking, 0) + count * times
    if not ballots:
        raise BallotParseError("no ballot lines found")
    # The file-order ballots: each ballot line's parsed ballot, shared by its
    # repeats, with comments and blank lines dropped.
    in_order = tuple(filter(None, map(ballots.get, lines)))
    return OrdinalProfile._trusted(
        alternatives, in_order, tuple(starmap(RankingBallot, merged.items()))
    )


@dataclass(frozen=True)
class MarginMatrix:
    """Pairwise net majority margins, indexed by the profile's alternative order.

    ``entries[i][j]`` is (#voters preferring alternatives[i] to alternatives[j])
    minus (#voters preferring alternatives[j] to alternatives[i]).
    """

    alternatives: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def margin(self, a: str, b: str) -> int:
        i = self.alternatives.index(a)
        j = self.alternatives.index(b)
        return self.entries[i][j]


def _margins_on_merge(profile: OrdinalProfile) -> list[list[int]]:
    alts = profile.alternatives
    # above[a][b] is the weight of the rankings that put a above b.
    above = {a: dict.fromkeys(alts, 0) for a in alts}
    for ranking, weight in profile.merged:
        for place, a in enumerate(ranking):
            row = above[a]
            for b in ranking[place + 1:]:
                row[b] += weight
    rows = [list(row.values()) for row in above.values()]
    return [[x - y for x, y in zip(row, col)] for row, col in zip(rows, zip(*rows))]


def _margins_on_arrays(profile: OrdinalProfile) -> list[list[int]]:
    import numpy as np

    positions, weights = profile._position_tally
    m = positions.shape[1]
    above = np.empty((m, m), dtype=weights.dtype)
    for i in range(m):
        above[i] = weights @ (positions[:, i, None] < positions)
    return (above - above.T).tolist()


def margin_matrix(profile: OrdinalProfile) -> MarginMatrix:
    """Tally the pairwise majority margin matrix of a profile.

    Costs O(k m^2) for k distinct rankings, in exact integer arithmetic: in
    pure Python on a small profile, on numpy arrays on a large one.
    """
    kernel = _margins_on_merge if profile._tallies_on_merge else _margins_on_arrays
    return MarginMatrix(profile.alternatives, tuple(map(tuple, kernel(profile))))


@dataclass(frozen=True)
class CycleReport:
    """Majority-cycle structure of a margin matrix."""

    has_condorcet_winner: bool
    condorcet_winner: str | None
    cycles: tuple[tuple[str, ...], ...]


def _enumerate_cycles(adjacency: dict[int, list[int]], stop_after_first: bool) -> list[tuple[int, ...]]:
    # Each elementary cycle is found exactly once, rooted at its smallest node:
    # the DFS only walks through nodes greater than the root.  It also steps
    # only into a node that can still get back to the root through nodes off
    # the path, so it skips only subtrees that hold no cycle: cycles are found
    # in the same order as by the plain walk.  As majority edges never run
    # both ways, no subtree it enters is a dead end, and the walk to a first
    # cycle never backtracks.  Nodes are 0..m-1; node sets are int bitsets.
    cycles: list[tuple[int, ...]] = []
    preds = dict.fromkeys(adjacency, 0)
    for u, successors in adjacency.items():
        for v in successors:
            preds[v] |= 1 << u

    def returning(root: int, free: int) -> int:
        # The free nodes with a path to the root through free nodes.
        found = 0
        frontier = preds[root] & free
        while frontier:
            found |= frontier
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= preds[low.bit_length() - 1]
                frontier ^= low
            frontier = reached & free & ~found
        return found

    def extend(root: int, path: list[int], free: int) -> bool:
        live = returning(root, free)
        for nxt in adjacency[path[-1]]:
            if nxt == root and len(path) >= 3:
                cycles.append(tuple(path))
                if stop_after_first:
                    return True
            elif live >> nxt & 1:
                path.append(nxt)
                if extend(root, path, free & ~(1 << nxt)):
                    return True
                path.pop()
        return False

    above_all = (1 << len(adjacency)) - 1
    for root in sorted(adjacency):
        if extend(root, [root], above_all >> (root + 1) << (root + 1)) and stop_after_first:
            break
    return cycles


def detect_cycles(matrix: MarginMatrix) -> CycleReport:
    """Report the Condorcet winner (if any) and the majority cycles of a margin matrix.

    A cycle is a sequence (a, b, ..., z) with strict majority edges a>b>...>z>a,
    written starting from its lexicographically smallest member.  All elementary
    cycles are enumerated for small alternative sets; above
    MAX_ENUMERATED_ALTERNATIVES a single witness cycle is reported, the first
    one a depth-first walk over ids in lexicographic order meets.  That walk
    never backtracks, so the witness costs O(m^2) operations on m-bit sets.
    """
    alts = matrix.alternatives
    m = len(alts)
    winner = None
    for i, a in enumerate(alts):
        if all(matrix.entries[i][j] > 0 for j in range(m) if j != i):
            winner = a
            break
    # Search the majority digraph over lexicographic alternative order so the
    # smallest-root canonicalization is by id, not by profile position.
    order = sorted(range(m), key=lambda i: alts[i])
    relabel = {orig: rank for rank, orig in enumerate(order)}
    adjacency = {
        relabel[i]: sorted(relabel[j] for j in range(m) if matrix.entries[i][j] > 0)
        for i in range(m)
    }
    raw = _enumerate_cycles(adjacency, stop_after_first=m > MAX_ENUMERATED_ALTERNATIVES)
    cycles = tuple(
        sorted(
            (tuple(alts[order[i]] for i in cyc) for cyc in raw),
            key=lambda c: (len(c), c),
        )
    )
    return CycleReport(winner is not None, winner, cycles)
