"""Property auditors: clone independence, manipulation search, anonymity.

Each auditor either certifies a property on the given instance or returns a
concrete witness that can be re-run to reproduce the failure.  Searches are
exhaustive within small caps, so "none" is a proof over the searched domain,
not a sampling statement.

The ordinal manipulation search is one walk for every rule: depth first over
the prefixes of the misreports, so it meets them in lexicographic order.  It
decides each misreport it reaches with the rule's `ordinal.ORDINAL_TALLIES`
row, from the base tally minus the truthful ballot plus the misreport, so it
finds the first witness that rerunning the rule would, without building a
profile.  Two prunes skip only misreports that cannot be the first witness,
each a whole block of misreports that share a prefix.  Each decision
reports the leading places of the misreport it read (`TallyRow.reads`), and
the rest of the block that shares them decides alike.  A row's `hopeless`
bound, tried at the root and at each prefix whose block holds more than one
misreport, skips a block in which no misreport can elect an alternative the
voter prefers to the honest winner.  Borda's bound is exact, and so is
instant runoff's, a search over its elimination sequences, so their
searches decide at most two misreports; ranked pairs' is sound but not
exact.  At the root it ends the search before any misreport is decided.
Each rule has its own measured cap on the alternatives searched,
`MAX_MANIPULATION_ALTERNATIVES`.  `reverify_ordinal_witness` reruns the
rule on a profile rebuilt by the constructor, as an independent check.

The anonymity check shuffles the distinct rankings of `merged` and builds
each shuffled profile once with `OrdinalProfile._shuffled`, which hands the
permuted tuple over as both ballots and merge and, once the base's position
rows are built, takes them in the shuffle's order.  A registry rule is
checked through its `ORDINAL_TALLIES` row: the base tally is decided once,
and a shuffle is decided only when its tally moves, as equal tallies decide
alike.  Every row's tally, instant runoff's too, compares by value, so no
rule decides a shuffle that left its tally alone.  A custom callable reruns
in full on every shuffle.  Past the exhaustive orders, each seeded order is
one sort of the indices, keyed by draws from the seeded generator.

The other auditors read the weighted ballots, as the rules do.  Only
cloning, whose `CloneSpec` fixes a clone order per voter, reads the voters
one by one, so only it is capped by `MAX_AUDIT_VOTERS`.  It counts their
(ranking, clone order) pairs and splices each distinct pair once, into one
weighted ballot, and hands the ballots over as their own merge, as distinct
pairs splice to distinct rankings.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import islice, permutations, repeat
from math import factorial
from random import Random

from .cardinal import RatingProfile, aggregate_ratings, cardinal_rule
from .ordinal import ORDINAL_TALLIES, ordinal_rule
from .profiles import OrdinalProfile, RankingBallot
from .rules import RATING_MAX, RATING_MIN, resolve_rule

# The ordinal search's cap on alternatives, per rule: the largest m at which
# the slowest search found took under 1 s and 100 MB per process, over random
# (up to 1,000 voters), Latin-square (cyclic shifts), no-witness and
# deep-witness profiles (2-vCPU VM, Python 3.11.7).  The tallies also grow
# with the distinct rankings of the file.  tests/test_worst_cases.py runs
# each rule's slowest case at its cap.
MAX_MANIPULATION_ALTERNATIVES = {
    # No bound: at most two decides per top choice, each reached by an O(m)
    # walk of O(m) slices.  Slowest, a Latin square's last voter, with no
    # witness: 0.39-0.42 s and 22 MB at 256; 2.6 s at 512.
    "plurality": 256,
    # An exact bound, so at most two decides, but O(m^2) bound calls of
    # O(m^2 log m) each.  Slowest, voter 4 of a Latin square, whose witness
    # starts deep in id order: 0.39-0.69 s and 21 MB at 80; 1.0 s at 96.
    "borda": 80,
    # An exact bound, but a call may visit up to m 2^m states, and one-voter
    # manipulation is NP-complete (Bartholdi and Orlin 1991), so this cap
    # rests on the worst case found, not on a proof.  Random profiles took at
    # most 60 ms in process at 32.  The slowest, found by hill-climbing on
    # the states visited, is tests/worst_cases/runoff_m32.vote: 0.31-0.39 s
    # and 25 MB per process, about 30,000 states over its bound calls and
    # 434 active sets kept in `firsts`.  At 40 a 100 s climb reached 0.59 s,
    # still rising.
    "instant_runoff": 32,
    # The search decides at most m! - 1 misreports.  The worst case is one
    # whose bound never fires, such as voter 10 of tests/golden/unpruned_m6.vote:
    # 719 decides and 517 bound calls, 52 ms (median of 30 runs).  Ranked
    # pairs stays NP-hard for one manipulator (Xia et al. 2009), so no bound
    # is known to make its search polynomial.
    "ranked_pairs": 6,
}
# Each copy adds an alternative to every ranking of the cloned profile, and
# the rules cost more than linearly in alternatives: `audit clones` on the
# 23-voter data/fig1.vote runs in 0.35 s with 100 copies under ranked pairs,
# but took about a minute with 1,000.
MAX_CLONE_COPIES = 100
# The cardinal grid search calls the rule once per grid rating, over every
# rater.  At this cap a median search with no witness, the slowest, takes
# 0.30-0.36 s and 22-23 MB peak RSS per process (2-vCPU VM, Python 3.11.7).
# `--ratings` is one argument, at most 128 KiB on Linux: about 25,000 ratings.
MAX_MANIPULATION_RATERS = 100_000
# Cloning reads each voter's clone order, so its time follows the counts, not
# the file: at this cap, `audit clones --rule borda --copies 100` on a
# two-line file takes 0.16 s and 21 MB peak RSS with the lexicographic split,
# and 0.33 s and 38 MB with the alternating one, whose spec holds an order per
# voter (2-vCPU VM, Python 3.11.7).
MAX_AUDIT_VOTERS = 100_000
DEFAULT_RATING_GRID = tuple(float(v) for v in range(11))
ANONYMITY_PERMUTATIONS = 20
# Exact-arithmetic distance ties must not become witnesses through float
# rounding; anything below this is treated as "no closer".
IMPROVEMENT_TOL = 1e-9


@dataclass(frozen=True)
class CloneSpec:
    """How to clone one alternative into near-identical copies.

    Clones replace the target as a contiguous block at its former position in
    every ballot.  `orders` optionally fixes the block's internal order per
    voter (the voter's index in ballot order); unlisted voters fall back
    to the lexicographic order.  One copy makes cloning a no-op.
    """

    target: str
    copies: int = 2
    orders: Mapping[int, tuple[str, ...]] | None = None

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError("copies must be at least 1")
        if self.copies > MAX_CLONE_COPIES:
            raise ValueError(f"copies must be at most {MAX_CLONE_COPIES}")
        if self.orders is not None:
            fixed = {int(i): tuple(order) for i, order in self.orders.items()}
            object.__setattr__(self, "orders", fixed)
            if any(i < 0 for i in fixed):
                raise ValueError("ballot indices must be non-negative")

    def clone_ids(self) -> tuple[str, ...]:
        if self.copies == 1:
            return (self.target,)
        return tuple(f"{self.target}{i}" for i in range(1, self.copies + 1))


def _capped_voters(profile: OrdinalProfile) -> int:
    """The voter count, refused past MAX_AUDIT_VOTERS before any voter is read."""
    # The count itself is not shown: a sum of 4,300-digit counts may be too
    # long to print.
    if profile.num_voters > MAX_AUDIT_VOTERS:
        raise ValueError(
            f"the profile has more than {MAX_AUDIT_VOTERS:,} voters, the cap for "
            "auditors that read each voter"
        )
    return profile.num_voters


def _voter_ballot(profile: OrdinalProfile, voter: int) -> tuple[int, int]:
    """The index in `profile.ballots` of the voter's ballot, and the voter's offset in it."""
    start = 0
    for index, (_, weight) in enumerate(profile.ballots):
        if 0 <= voter - start < weight:
            return index, voter - start
        start += weight
    # The count is not shown, as above.
    raise ValueError(f"voter index {voter} out of range for the profile's voters")


def cloned_profile(profile: OrdinalProfile, spec: CloneSpec) -> OrdinalProfile:
    """Clone the target in every voter's ballot, each distinct result once, weighted.

    Voters are read by `unit_rankings()` once MAX_AUDIT_VOTERS is checked, and
    their (ranking, clone order) pairs are counted.  Each distinct pair is
    spliced once into one weighted ballot, in first-occurrence order.
    Splicing is one-to-one, so the ballots are their own merge, the one a
    ballot per voter gives, and the profile is built without checking its
    rankings again; the spec's target, clone ids and orders are checked here.
    """
    if spec.target not in profile.alternatives:
        raise ValueError(f"clone target {spec.target!r} is not an alternative")
    clones = spec.clone_ids()
    taken = set(profile.alternatives) - {spec.target}
    collisions = sorted(taken & set(clones))
    if collisions:
        raise ValueError(f"clone id(s) {collisions} collide with existing alternatives")
    default_order = tuple(sorted(clones))
    n = _capped_voters(profile)
    orders = spec.orders or {}
    checked = set()  # ids of the order tuples found to be permutations
    for index, order in orders.items():
        if index >= n:
            raise ValueError(f"ballot index {index} out of range for {n} voters")
        if id(order) not in checked:
            if sorted(order) != list(default_order):
                raise ValueError(f"order for ballot {index} is not a permutation of {clones}")
            checked.add(id(order))

    def splice(ranking, block):
        i = ranking.index(spec.target)
        return ranking[:i] + block + ranking[i + 1:]

    voter_orders = map(orders.get, range(n), repeat(default_order))
    pairs = Counter(zip(profile.unit_rankings(), voter_orders))
    ballots = tuple(RankingBallot(splice(r, o), w) for (r, o), w in pairs.items())
    return OrdinalProfile._trusted(splice(profile.alternatives, default_order), ballots, ballots)


@dataclass(frozen=True)
class CloneTestResult:
    verdict: str  # "independent" or "violated"
    base_winner: str
    cloned_winner: str
    clones: tuple[str, ...]

    @property
    def independent(self) -> bool:
        return self.verdict == "independent"


def clone_test(rule_id: str, profile: OrdinalProfile, spec: CloneSpec) -> CloneTestResult:
    """Does cloning the target change the outcome class of the winner?

    Outcomes are compared with every clone identified back with the target, so
    "some clone wins" before and after counts as independent; any switch
    between a non-clone and the clone set (or between two non-clones) is a
    violation.
    """
    rule = ordinal_rule(rule_id)
    base_winner = rule(profile).winner
    expanded = cloned_profile(profile, spec)
    cloned_winner = rule(expanded).winner
    clones = spec.clone_ids()
    new_class = spec.target if cloned_winner in clones else cloned_winner
    verdict = "independent" if base_winner == new_class else "violated"
    return CloneTestResult(verdict, base_winner, cloned_winner, clones)


@dataclass(frozen=True)
class ManipulationWitness:
    """A misreport that strictly improves the outcome for the misreporter.

    Ordinal: outcomes are winners and `truthful`/`misreport` are rankings.
    Cardinal: outcomes are aggregates and `truthful`/`misreport` are ratings.
    """

    voter: int
    truthful: tuple[str, ...] | float
    misreport: tuple[str, ...] | float
    honest_outcome: str | float
    manipulated_outcome: str | float


def manipulation_search_ordinal(
    rule_id: str, profile: OrdinalProfile, voter: int
) -> ManipulationWitness | None:
    """Try every misreport for one voter; the first improving one is the witness.

    Misreports are tried in lexicographic order over all permutations of the
    alternatives, whose number the rule's `MAX_MANIPULATION_ALTERNATIVES`
    caps; improvement means the new winner is in `wanted`, the
    alternatives the voter's truthful ranking puts above the honest winner.
    Everything goes through the rule's `ORDINAL_TALLIES` row: the honest
    winner is `decide(tally(profile))`, that tally with the truthful ballot
    taken out is the base, and each misreport is decided as
    `decide(add(base, misreport, +1))`, so no misreported profile is built.
    The misreports are walked depth first by prefix, which meets them in
    that order, and a block of misreports that share a prefix is skipped in
    one step when:

    - a decision read only the places of that prefix (`reads`), as every
      misreport that shares them decides alike, and the first of them did
      not improve; or
    - the row's `hopeless(base, prefix, wanted)` holds, as then no
      misreport in the block elects an alternative in `wanted`.  The bound
      is tried at the root, where it ends the search before any misreport
      is decided, and at each prefix whose block holds more than one
      misreport; a block of one is decided, as the bound costs about as
      much as the decide.

    Neither prune skips a misreport that could be the first witness, so the
    witness is the one a plain loop over the m! - 1 misreports would find.
    """
    rule = resolve_rule(rule_id, "ordinal").id
    m, cap = len(profile.alternatives), MAX_MANIPULATION_ALTERNATIVES[rule]
    if m > cap:
        raise ValueError(
            f"{m} alternatives exceed {rule}'s exhaustive-search cap ({cap}); "
            "the misreport space is m!"
        )
    index, _ = _voter_ballot(profile, voter)
    truthful = profile.ballots[index].ranking
    tally, add, decide, reads, hopeless = ORDINAL_TALLIES[rule]
    counted = tally(profile)
    honest_winner = decide(counted).winner
    honest_rank = truthful.index(honest_winner)
    if honest_rank == 0:
        return None
    base = add(counted, truthful, -1)
    wanted = frozenset(truthful[:honest_rank])
    witness = None

    def walk(prefix: tuple[str, ...], rest: tuple[str, ...]) -> int:
        """Search the misreports that start with `prefix`, `rest` being the others in order.

        Returns how many leading places of `prefix` the search is done
        with: `len(prefix)` once this block is searched, fewer when a
        decision read fewer places, and 0 once the witness is found.
        """
        nonlocal witness
        if len(rest) > 1 and hopeless is not None and hopeless(base, prefix, wanted):
            return len(prefix)
        if not rest:
            if prefix == truthful:
                return len(prefix)
            result = decide(add(base, prefix, 1))
            if result.winner in wanted:
                witness = ManipulationWitness(voter, truthful, prefix, honest_winner, result.winner)
                return 0
            return reads(result, prefix)
        for i, alt in enumerate(rest):
            done = walk((*prefix, alt), rest[:i] + rest[i + 1:])
            if done <= len(prefix):
                return done
        return len(prefix)

    walk((), tuple(sorted(profile.alternatives)))
    return witness


def manipulation_search_cardinal(
    rule_id: str, ratings: Sequence[float], voter: int
) -> ManipulationWitness | None:
    """Grid-search misreports that pull the aggregate toward the voter's truth.

    Success is the strict kind: the aggregate after the misreport must land
    closer to the voter's truthful rating than the honest aggregate does.
    """
    if len(ratings) > MAX_MANIPULATION_RATERS:
        raise ValueError(
            f"{len(ratings):,} raters exceed the grid search's cap of {MAX_MANIPULATION_RATERS:,}"
        )
    values = [float(r) for r in ratings]
    for i, value in enumerate(values):
        # NaN fails both comparisons, so only finite ratings in range pass.
        if not RATING_MIN <= value <= RATING_MAX:
            raise ValueError(f"rater {i}: expected a finite rating in [0, 10], got {value}")
    if not 0 <= voter < len(values):
        raise ValueError(f"voter index {voter} out of range for {len(values)} raters")
    rule = cardinal_rule(rule_id)
    truth = values[voter]
    honest_gap = abs(rule(values) - truth)
    for report in DEFAULT_RATING_GRID:
        if report == truth:
            continue
        shifted = list(values)
        shifted[voter] = float(report)
        outcome = rule(shifted)
        if abs(outcome - truth) < honest_gap - IMPROVEMENT_TOL:
            return ManipulationWitness(voter, truth, float(report), rule(values), outcome)
    return None


def reverify_ordinal_witness(
    rule_id: str, profile: OrdinalProfile, witness: ManipulationWitness
) -> bool:
    """Re-run the election with the misreport and confirm the claimed flip.

    The claimed truthful ranking must be the voter's ballot.  That ballot
    is split around the voter, whose ranking becomes the misreport, so the
    voters keep their order.  The `OrdinalProfile` constructor checks the
    misreported profile as it checks any input.
    """
    rule = ordinal_rule(rule_id)
    index, offset = _voter_ballot(profile, witness.voter)
    ranking, weight = profile.ballots[index]
    if tuple(witness.truthful) != ranking:
        return False
    if rule(profile).winner != witness.honest_outcome:
        return False
    split = (RankingBallot(ranking, offset), RankingBallot(tuple(witness.misreport)),
             RankingBallot(ranking, weight - offset - 1))
    ballots = profile.ballots[:index] + tuple(b for b in split if b.weight) + profile.ballots[index + 1:]
    shifted = OrdinalProfile(profile.alternatives, ballots)
    if rule(shifted).winner != witness.manipulated_outcome:
        return False
    truthful = tuple(witness.truthful)
    return truthful.index(witness.manipulated_outcome) < truthful.index(witness.honest_outcome)


def reverify_cardinal_witness(
    rule_id: str, ratings: Sequence[float], witness: ManipulationWitness
) -> bool:
    rule = cardinal_rule(rule_id)
    values = [float(r) for r in ratings]
    if rule(values) != witness.honest_outcome:
        return False
    shifted = list(values)
    shifted[witness.voter] = float(witness.misreport)
    if rule(shifted) != witness.manipulated_outcome:
        return False
    truth = values[witness.voter]
    honest_gap = abs(witness.honest_outcome - truth)
    return abs(witness.manipulated_outcome - truth) < honest_gap - IMPROVEMENT_TOL


def _shuffled_entries(profile) -> int:
    return len(profile.merged if isinstance(profile, OrdinalProfile) else profile.evaluators)


def anonymity_order_count(profile) -> int:
    """How many orders `anonymity_orders` gives on `profile`, at any seed, without drawing them."""
    # k! <= ANONYMITY_PERMUTATIONS exactly when min(k, cap + 1)! is, as
    # (cap + 1)! > cap; the min keeps the factorial small for large k.
    every = factorial(min(_shuffled_entries(profile), ANONYMITY_PERMUTATIONS + 1))
    return every - 1 if every <= ANONYMITY_PERMUTATIONS else ANONYMITY_PERMUTATIONS


def anonymity_orders(profile, seed: int) -> list[Sequence[int]]:
    """The orders `anonymity_check` tries on `profile`'s k interchangeable entries.

    The entries are the evaluators of ratings, or the distinct rankings of an
    ordinal profile's `merged`.  When k! - 1 < ANONYMITY_PERMUTATIONS, every
    order but the identity, once, in `itertools.permutations` order;
    otherwise ANONYMITY_PERMUTATIONS seeded permutations, each the sort of
    `range(k)` keyed by k `Random(seed).random()` values drawn in index order.
    """
    n = _shuffled_entries(profile)
    if anonymity_order_count(profile) < ANONYMITY_PERMUTATIONS:
        return list(islice(permutations(range(n)), 1, None))
    draw = Random(seed).random
    return [sorted(range(n), key=lambda _: draw()) for _ in range(ANONYMITY_PERMUTATIONS)]


def anonymity_check(rule, profile, seed: int) -> bool:
    """Is the outcome invariant under shuffling who cast which ballot?

    `rule` is an ordinal or cardinal rule id, or any callable on the profile
    type; `profile` is an OrdinalProfile or a RatingProfile.  A permutation
    reorders the evaluators of ratings, or the distinct rankings of an
    ordinal profile's `merged`, as both ballots and merge: voters who cast
    one ranking are interchangeable.  The orders tried are
    `anonymity_orders(profile, seed)`.  True means all outcomes matched the
    original.

    An ordinal registry id is checked through its `ORDINAL_TALLIES` row: the
    base tally is decided once, and a shuffle only when its tally differs
    from the base tally; `decide` is deterministic, so the verdict is the
    full rerun's.  Every row's tally compares by value: plurality's and
    Borda's dicts, ranked pairs' `MarginMatrix`, and instant runoff's
    `RunoffTally` by its alternatives, merge and added ballots, as each
    round's counts are sums over the merge.  A custom callable, and every
    rule on ratings, reruns in full.
    """
    if isinstance(profile, OrdinalProfile):
        reassign = profile._shuffled
        if isinstance(rule, str):
            tally, _, decide, _, _ = ORDINAL_TALLIES[resolve_rule(rule, "ordinal").id]
            base = tally(profile)
            baseline = decide(base)
            return all(
                (moved := tally(reassign(order))) == base or decide(moved) == baseline
                for order in anonymity_orders(profile, seed)
            )
        fn = rule
    elif isinstance(profile, RatingProfile):
        fn = (lambda rp: aggregate_ratings(rp, rule)) if isinstance(rule, str) else rule
        voters = list(profile.evaluators)

        def reassign(order):
            rows = {voters[i]: dict(profile.ratings[voters[j]]) for i, j in enumerate(order)}
            return RatingProfile(profile.alternatives, profile.evaluators, rows)
    else:
        raise TypeError(f"cannot audit anonymity on {type(profile).__name__}")
    baseline = fn(profile)
    return all(fn(reassign(order)) == baseline for order in anonymity_orders(profile, seed))


def alternating_clone_spec(profile: OrdinalProfile, spec: CloneSpec) -> CloneSpec:
    """Rotate the clone order one step per voter, so two copies split a bloc's first places."""
    clones = spec.clone_ids()
    rotations = [clones[j:] + clones[:j] for j in range(len(clones))]
    orders = {i: rotations[i % len(clones)] for i in range(_capped_voters(profile))}
    return CloneSpec(spec.target, spec.copies, orders)
