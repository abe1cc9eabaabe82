"""The ordinal auditors against the rebuild path they were written on.

Each anonymity shuffle permutes the checked profile's distinct rankings,
each with its summed weight, and hands them over as both ballots and merge,
checking no ranking again: every order but the identity when there are at
most `ANONYMITY_PERMUTATIONS`, else that many seeded ones.  The reference
builds the shuffle the plain way: the same permutation of `merged` handed to
the `OrdinalProfile` constructor, which merges and checks every ranking
again.  The shuffled profiles must equal those field for field: `==`
(alternatives and `ballots`), `merged` in its order, and every registry
rule's full result.  So a rule that reads `ballots`, `unit_rankings()` or
the order of `merged` sees the same profile either way, and
`anonymity_check` keeps its power.

Each deterministic ordinal rule is `decide(tally(profile))` of its
`ORDINAL_TALLIES` row, and adding and taking out one unit ballot's tally
must decide as the rule does on the rebuilt profile: the contract every row
keeps.  The manipulation search builds no profile and expands no voter, and
must find the witness the reference finds by expanding the profile into one
ranking per voter and rerunning the rule on every rebuilt misreported
profile.  Its two prunes, skipping the misreports that share the places a
decision read and skipping each block of misreports that share a prefix on
which a row's `hopeless` bound holds, must not change that witness, also on
even voter counts, where one ballot can tie a pair.  A `hopeless` block must
have no completion that elects a wanted alternative, checked by deciding
every completion, and Borda's and instant runoff's bounds are exact, so
their other blocks must have one.  At the root the bound must fire wherever
the `settled` tests it replaced did, kept here as references, and an
independent one for instant runoff.  Every instant-runoff witness on every
small profile must be brute force's.

A shuffle built once the base's position rows are built takes them in its
order; those rows must equal rows built from scratch, in value, dtype and
read-only flag.  A cloned profile, built without checking its rankings
again, must equal the one the constructor builds from the same counted
ballots.

`reverify_ordinal_witness` checks the claimed truthful ranking against the
voter's ballot, splits that weighted ballot around them and builds the
misreported profile with the `OrdinalProfile` constructor.  On
claims true or false, it must give the unit-expansion reference's verdict,
and an invalid misreport (short, with a duplicate or with an unknown id)
must raise the same exception type with the same message.

The profiles are unit and weighted ones over 1 to 6 alternatives, built by
the constructor or parsed from text, with rankings repeated across ballots.
Both oracles also run at the shapes of the bench's audit_sweep.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, permutations, starmap
from math import factorial
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from socialchoice.audits import (
    ANONYMITY_PERMUTATIONS,
    CloneSpec,
    ManipulationWitness,
    alternating_clone_spec,
    anonymity_check,
    anonymity_order_count,
    anonymity_orders,
    cloned_profile,
    manipulation_search_ordinal,
    reverify_ordinal_witness,
)
from socialchoice.ordinal import ORDINAL_RULES, ORDINAL_TALLIES, ordinal_rule, random_dictator
from socialchoice.profiles import (
    OrdinalProfile,
    RankingBallot,
    parse_profile,
    profile_from_rankings,
)
from socialchoice.rules import rule_ids


def fuzz(max_examples: int):
    return settings(
        derandomize=True,
        deadline=None,
        max_examples=max_examples,
        suppress_health_check=[HealthCheck.too_slow],
    )


IDS = ("A", "B", "C", "D", "E", "F")
WEIGHTED_M6 = parse_profile((Path(__file__).parent / "golden" / "weighted_m6.vote").read_text())


def reference_replace_unit_ballot(
    profile: OrdinalProfile, voter: int, ranking: tuple[str, ...]
) -> OrdinalProfile:
    units = list(profile.unit_rankings())
    units[voter] = ranking
    return profile_from_rankings(units, profile.alternatives)


def reference_reassign(profile: OrdinalProfile, order) -> OrdinalProfile:
    return OrdinalProfile(profile.alternatives, tuple(profile.merged[i] for i in order))


def reference_search(rule_id: str, profile: OrdinalProfile, voter: int):
    rule = ordinal_rule(rule_id)
    truthful = profile.unit_rankings()[voter]
    honest_winner = rule(profile).winner
    honest_rank = truthful.index(honest_winner)
    if honest_rank == 0:
        return None
    for misreport in permutations(sorted(profile.alternatives)):
        if misreport == truthful:
            continue
        new_winner = rule(reference_replace_unit_ballot(profile, voter, misreport)).winner
        if truthful.index(new_winner) < honest_rank:
            return ManipulationWitness(voter, truthful, misreport, honest_winner, new_winner)
    return None


def reference_reverify(rule_id: str, profile: OrdinalProfile, witness) -> bool:
    rule = ordinal_rule(rule_id)
    if tuple(witness.truthful) != profile.unit_rankings()[witness.voter]:
        return False
    if rule(profile).winner != witness.honest_outcome:
        return False
    shifted = reference_replace_unit_ballot(profile, witness.voter, tuple(witness.misreport))
    if rule(shifted).winner != witness.manipulated_outcome:
        return False
    truthful = tuple(witness.truthful)
    return truthful.index(witness.manipulated_outcome) < truthful.index(witness.honest_outcome)


def reference_orders(n: int, seed: int) -> list:
    """Every order of n entries but the identity when that is at most the cap, else seeded ones.

    Each seeded order sorts the indices by n keys drawn from the seeded
    generator, one per index, in index order.
    """
    if factorial(n) <= ANONYMITY_PERMUTATIONS:
        return list(permutations(range(n)))[1:]
    rng = Random(seed)
    orders = []
    for _ in range(ANONYMITY_PERMUTATIONS):
        keys = [rng.random() for _ in range(n)]
        orders.append(sorted(range(n), key=keys.__getitem__))
    return orders


def reference_anonymity(fn, profile: OrdinalProfile, seed: int) -> bool:
    baseline = fn(profile)
    return all(
        fn(reference_reassign(profile, order)) == baseline
        for order in reference_orders(len(profile.merged), seed)
    )


def full_results(profile: OrdinalProfile) -> list:
    """Every registry rule's result on `profile`, with the fields `==` skips."""
    out = []
    for rid in rule_ids("ordinal"):
        result = ORDINAL_RULES[rid](profile)
        out.append((rid, result, result.elimination_order, result.locked_pairs))
    for seed in (0, 1):
        out.append(("random_dictator", seed, random_dictator(profile, seed)))
    return out


def assert_same_profile(derived: OrdinalProfile, rebuilt: OrdinalProfile) -> None:
    assert derived == rebuilt
    assert derived.alternatives == rebuilt.alternatives
    assert derived.ballots == rebuilt.ballots
    assert derived.merged == rebuilt.merged
    assert derived.unit_rankings() == rebuilt.unit_rankings()
    assert derived.num_voters == rebuilt.num_voters
    assert full_results(derived) == full_results(rebuilt)


def profile_text(profile: OrdinalProfile) -> str:
    """The profile as ballot-file text: one line per ballot, in order."""
    lines = ["alternatives: " + ", ".join(profile.alternatives)]
    lines += [f"{b.weight}: " + " > ".join(b.ranking) for b in profile.ballots]
    return "\n".join(lines) + "\n"


@st.composite
def profiles(
    draw, min_m: int = 1, min_ballots: int = 1, max_ballots: int = 6
) -> OrdinalProfile:
    """Unit or weighted ballots drawn from a few random rankings, so rankings repeat.

    There are at least `min_ballots` ballots and as many rankings to draw from.
    """
    m = draw(st.integers(min_m, len(IDS)))
    alternatives = tuple(draw(st.permutations(IDS[:m])))
    # Hypothesis picks the sizes; a seeded Random picks rankings and weights,
    # which Hypothesis would shrink towards one repeated ranking.
    rng = Random(draw(st.integers(0, 2**32)))
    pool = [
        tuple(rng.sample(alternatives, m)) for _ in range(draw(st.integers(min_ballots, 4)))
    ]
    top_weight = draw(st.sampled_from((1, 4)))
    ballots = [
        RankingBallot(rng.choice(pool), rng.randint(1, top_weight))
        for _ in range(draw(st.integers(min_ballots, max_ballots)))
    ]
    profile = OrdinalProfile(alternatives, tuple(ballots))
    if draw(st.booleans()):
        profile = parse_profile(profile_text(profile))
    return profile


@st.composite
def misreports(draw, alternatives: tuple[str, ...]) -> tuple[str, ...]:
    """A valid ranking, or one that is short, repeats an id or names an unknown one."""
    ranking = list(draw(st.permutations(alternatives)))
    kind = draw(st.sampled_from(("valid", "valid", "short", "duplicate", "unknown")))
    at = draw(st.integers(0, len(ranking) - 1))
    if kind == "short":
        del ranking[at]
    elif kind == "duplicate":
        ranking.insert(at, draw(st.sampled_from(alternatives)))
        if draw(st.booleans()):
            del ranking[-1]
    elif kind == "unknown":
        ranking[at] = draw(st.sampled_from(("Z", "a", "A ", "")))
    return tuple(ranking)


def outcome(make):
    """The profile `make()` builds, or the type and message of its exception."""
    try:
        return make()
    except Exception as exc:  # noqa: BLE001 - the exception is the result compared
        return type(exc), str(exc)


@fuzz(300)
@given(st.data())
def test_reverified_claims_match_reference(data):
    profile = data.draw(profiles())
    rid = data.draw(st.sampled_from(rule_ids("ordinal")))
    voter = data.draw(st.integers(0, profile.num_voters - 1))
    # Mostly the voter's own ranking, so that the rest of the claim is checked.
    unit = profile.unit_rankings()[voter]
    other = tuple(data.draw(st.permutations(profile.alternatives)))
    truthful = data.draw(st.sampled_from((unit, unit, other)))
    misreport = data.draw(misreports(profile.alternatives))
    # Mostly the true honest winner, so that the misreported profile is built.
    honest = ORDINAL_RULES[rid](profile).winner
    claimed_honest = data.draw(st.sampled_from((honest, honest, *profile.alternatives)))
    claimed_new = data.draw(st.sampled_from(profile.alternatives))
    claim = ManipulationWitness(voter, truthful, misreport, claimed_honest, claimed_new)
    assert outcome(lambda: reverify_ordinal_witness(rid, profile, claim)) == outcome(
        lambda: reference_reverify(rid, profile, claim)
    )


def assert_shuffles_equal_rebuilt(profile: OrdinalProfile, seed: int) -> None:
    # A rule that records what it is given sees every shuffled profile.
    seen = []

    def record(shuffled):
        seen.append(shuffled)
        return 0

    assert anonymity_check(record, profile, seed)
    assert seen[0] is profile
    orders = reference_orders(len(profile.merged), seed)
    assert list(map(list, anonymity_orders(profile, seed))) == list(map(list, orders))
    assert len(seen) == len(orders) + 1
    for shuffled, order in zip(seen[1:], orders):
        assert_same_profile(shuffled, reference_reassign(profile, order))


@fuzz(200)
@given(profiles(), st.integers(0, 2**31 - 1))
def test_shuffled_profiles_equal_rebuilt(profile, seed):
    assert_shuffles_equal_rebuilt(profile, seed)


# Rules that read who voted how, or the order rankings first occur in.
MUTANTS = (
    lambda p: p.merged[0].ranking[0],
    lambda p: p.ballots[0].ranking[0],
    lambda p: p.unit_rankings()[0][0],
    lambda p: p.ballots[0].weight,
    lambda p: tuple(ranking for ranking, _ in p.merged),
    # The position rows and weights, which a shuffle takes from the base.
    lambda p: p._position_tally[0][0].tolist(),
    lambda p: p._position_tally[1].tolist(),
)


@fuzz(150)
@given(profiles(), st.integers(0, 2**31 - 1))
def test_anonymity_verdicts_match_reference(profile, seed):
    for rid in rule_ids("ordinal"):
        rule = ORDINAL_RULES[rid]
        assert anonymity_check(rid, profile, seed) == reference_anonymity(rule, profile, seed)
    for mutant in MUTANTS:
        assert anonymity_check(mutant, profile, seed) == reference_anonymity(mutant, profile, seed)


SMALL = profile_from_rankings(
    [("A", "B", "C"), ("B", "C", "A"), ("A", "B", "C"), ("C", "A", "B")], IDS[:3]
)


# Plurality's and Borda's tallies are dicts, ranked pairs' a MarginMatrix and
# instant runoff's a RunoffTally that compares by its merge's value: each is
# equal on every shuffle of an anonymous profile, so only the base is decided.
@pytest.mark.parametrize("rid", ["plurality", "borda", "ranked_pairs", "instant_runoff"])
@pytest.mark.parametrize("profile", [WEIGHTED_M6, SMALL], ids=["weighted_m6", "small"])
def test_anonymity_decides_only_tallies_that_move(monkeypatch, rid, profile):
    calls = spy_decides(monkeypatch, rid)
    assert anonymity_check(rid, profile, 7)
    assert len(calls) == 1


@pytest.mark.parametrize("profile", [WEIGHTED_M6, SMALL], ids=["weighted_m6", "small"])
def test_runoff_tallies_compare_by_value(profile):
    tally, add, decide, _, _ = ORDINAL_TALLIES["instant_runoff"]
    decided_tally = tally(profile)
    decide(decided_tally)
    # Deciding fills the tally's per-active-set first places, which `==` skips.
    assert decided_tally.firsts
    assert tally(profile) == decided_tally
    reversed_order = range(len(profile.merged) - 1, -1, -1)
    assert tally(reference_reassign(profile, reversed_order)) == decided_tally
    for ranking, _ in profile.merged:
        for sign in (1, -1):
            assert add(decided_tally, ranking, sign) != decided_tally
            assert add(decided_tally, ranking, sign) == add(tally(profile), ranking, sign)


@fuzz(100)
@given(st.integers(1, 24), st.integers(0, 2**31 - 1))
def test_drawn_orders_permute_every_entry(k, seed):
    # k distinct rankings, seeded orders from k = 4 on.
    profile = profile_from_rankings(list(permutations(IDS[:4]))[:k], IDS[:4])
    orders = anonymity_orders(profile, seed)
    assert len(orders) == (factorial(k) - 1 if k < 4 else ANONYMITY_PERMUTATIONS)
    assert anonymity_order_count(profile) == len(orders)
    for order in orders:
        assert sorted(order) == list(range(k))


def test_a_tally_that_reads_the_merge_order_is_not_anonymous(monkeypatch):
    # The row's tally is the top choice of the first distinct ranking, which
    # a shuffle moves: the moved tally is decided, and its winner differs.
    row = ORDINAL_TALLIES["plurality"]
    first_top = row._replace(tally=lambda p: {p.merged[0].ranking[0]: 1})
    monkeypatch.setitem(ORDINAL_TALLIES, "plurality", first_top)
    assert not anonymity_check("plurality", SMALL, 0)
    assert not reference_anonymity(lambda p: first_top.decide(first_top.tally(p)), SMALL, 0)


def test_shuffles_keep_the_merge_they_are_given():
    # Each shuffle hands its permuted tuple as both ballots and merge, and
    # `_trusted` keeps that very tuple: no ranking is wrapped again.
    seen = []
    assert anonymity_check(seen.append, WEIGHTED_M6, 7)
    assert len(seen) == 1 + ANONYMITY_PERMUTATIONS
    for shuffled in seen[1:]:
        assert shuffled.merged is shuffled.ballots
    merged = tuple(reversed(WEIGHTED_M6.merged))
    trusted = OrdinalProfile._trusted(WEIGHTED_M6.alternatives, merged, merged)
    assert trusted.merged is merged
    assert_same_profile(trusted, reference_reassign(WEIGHTED_M6, range(len(merged) - 1, -1, -1)))


def assert_same_rows(derived: OrdinalProfile, rebuilt: OrdinalProfile) -> None:
    """The position rows and weights hold the same values in the same dtype, read-only."""
    for got, want in zip(derived._position_tally, rebuilt._position_tally, strict=True):
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
        assert not got.flags.writeable


def assert_shuffled_rows_equal_rebuilt(profile: OrdinalProfile, seed: int) -> None:
    # Once the base's rows are built, each shuffle takes them in its order.
    profile._position_tally
    for order in anonymity_orders(profile, seed):
        shuffled = profile._shuffled(order)
        assert "_position_tally" in vars(shuffled)
        assert_same_rows(shuffled, reference_reassign(profile, order))


@fuzz(100)
@given(profiles(), st.integers(0, 2**31 - 1))
def test_shuffled_rows_equal_rows_built_from_scratch(profile, seed):
    assert_shuffled_rows_equal_rebuilt(profile, seed)


def test_shuffled_rows_keep_exact_weights():
    # Weights past int64 are Python ints in an object array.
    profile = OrdinalProfile(IDS[:3], tuple(
        RankingBallot(ranking, 2**62 + i) for i, ranking in enumerate(permutations(IDS[:3]))
    ))
    assert profile._position_tally[1].dtype == object
    assert_shuffled_rows_equal_rebuilt(profile, 0)


def test_tuple_orders_index_rows_not_axes():
    # Three distinct rankings take the exhaustive orders, tuples from
    # `itertools.permutations`, and at m = 14 (k m^2 = 588) ranked pairs'
    # margins read the rows: a tuple index would be read one index per axis.
    alternatives = tuple(f"a{i:02}" for i in range(14))
    rankings = [alternatives, alternatives[::-1], alternatives[7:] + alternatives[:7]]
    profile = profile_from_rankings(rankings, alternatives)
    assert not profile._tallies_on_merge
    assert all(isinstance(order, tuple) for order in anonymity_orders(profile, 0))
    assert anonymity_check("ranked_pairs", profile, 0)
    assert_shuffled_rows_equal_rebuilt(profile, 0)


def test_a_shuffle_before_the_rows_are_built_builds_its_own():
    merged_order = range(len(WEIGHTED_M6.merged) - 1, -1, -1)
    profile = parse_profile(profile_text(WEIGHTED_M6))
    shuffled = profile._shuffled(merged_order)
    assert "_position_tally" not in vars(shuffled)
    assert_same_rows(shuffled, reference_reassign(profile, merged_order))


def reference_cloned_profile(profile: OrdinalProfile, spec: CloneSpec) -> OrdinalProfile:
    """Each voter's ranking spliced with their clone order, counted, built by the constructor."""
    default = tuple(sorted(spec.clone_ids()))
    orders = spec.orders or {}

    def splice(ranking, block):
        i = ranking.index(spec.target)
        return ranking[:i] + block + ranking[i + 1:]

    units = [
        splice(ranking, orders.get(voter, default))
        for voter, ranking in enumerate(profile.unit_rankings())
    ]
    ballots = tuple(starmap(RankingBallot, Counter(units).items()))
    return OrdinalProfile(splice(profile.alternatives, default), ballots)


@fuzz(100)
@given(profiles(), st.data())
def test_cloned_profiles_equal_constructor_built(profile, data):
    spec = CloneSpec(data.draw(st.sampled_from(profile.alternatives)), data.draw(st.integers(1, 3)))
    for split in (spec, alternating_clone_spec(profile, spec)):
        cloned = cloned_profile(profile, split)
        assert_same_profile(cloned, reference_cloned_profile(profile, split))


def decided(result) -> tuple:
    """A rule's result with the fields `==` skips."""
    return result, result.scores, result.elimination_order, result.locked_pairs


def test_tally_rows_cover_the_ordinal_rules():
    assert tuple(ORDINAL_TALLIES) == rule_ids("ordinal")
    assert {rid for rid, row in ORDINAL_TALLIES.items() if row.hopeless} == set(BOUNDED)


@fuzz(300)
@given(st.data())
def test_tally_rows_decide_as_their_rules(data):
    profile = data.draw(profiles())
    voter = data.draw(st.integers(0, profile.num_voters - 1))
    unit = profile.unit_rankings()[voter]
    misreport = tuple(data.draw(st.permutations(profile.alternatives)))
    rebuilt = reference_replace_unit_ballot(profile, voter, misreport)
    cut = data.draw(st.integers(0, len(misreport)))
    wanted = frozenset(data.draw(st.sets(st.sampled_from(profile.alternatives))))
    for rid, (tally, add, decide, reads, hopeless) in ORDINAL_TALLIES.items():
        rule = ORDINAL_RULES[rid]
        assert decided(decide(tally(profile))) == decided(rule(profile))
        base = add(tally(profile), unit, -1)
        result = decide(add(base, misreport, +1))
        assert decided(result) == decided(rule(rebuilt))
        # A ranking that shares the places the decision read decides the same.
        depth = reads(result, misreport)
        sharing = misreport[:depth] + tuple(data.draw(st.permutations(misreport[depth:])))
        assert decided(decide(add(base, sharing, +1))) == decided(result)
        # A block the bound gives up on elects no wanted alternative.
        if hopeless is not None and hopeless(base, misreport[:cut], wanted):
            assert result.winner not in wanted


def spy_decides(monkeypatch, rid: str) -> list:
    """The tallies that rule `rid`'s row decides from now on, in order."""
    row = ORDINAL_TALLIES[rid]
    calls = []

    def spy(tally):
        calls.append(tally)
        return row.decide(tally)

    monkeypatch.setitem(ORDINAL_TALLIES, rid, row._replace(decide=spy))
    return calls


def count_decides(monkeypatch, rid: str, profile: OrdinalProfile, voter: int):
    """The search's witness and how many misreports it decided.

    The first tally decided is the honest election's, which is not counted.
    """
    calls = spy_decides(monkeypatch, rid)
    return manipulation_search_ordinal(rid, profile, voter), len(calls) - 1


def test_plurality_search_decides_once_per_top_choice(monkeypatch):
    # A keeps ten first places against at most one for any other under every
    # misreport, so no witness exists and every misreport is tried;
    # plurality's tally reads only the top choice.
    profile = profile_from_rankings(
        [("B", "C", "D", "E", "F", "A")] + [("A", "B", "C", "D", "E", "F")] * 10, IDS
    )
    witness, decides = count_decides(monkeypatch, "plurality", profile, 0)
    assert witness is None
    assert 0 < decides <= len(IDS)


@pytest.mark.parametrize("rid", ["instant_runoff", "borda", "ranked_pairs"])
def test_weighted_m6_search_skips_what_it_never_reads(monkeypatch, rid):
    # Voter 5 has no witness under these rules, out of 719 misreports.  The
    # bound gives up on the whole search at the root, before any misreport
    # is decided.
    witness, decides = count_decides(monkeypatch, rid, WEIGHTED_M6, 5)
    assert witness is None
    assert decides == 0
    assert reference_search(rid, WEIGHTED_M6, 5) is None


def assert_decides_at_most_two_misreports(monkeypatch, rid: str, m: int, profiles: int) -> None:
    # An exact bound is tried on every block of two or more misreports: a
    # search without a witness stops at the root, and one with a witness
    # reaches a block of two that holds it.
    rng = Random(f"{rid}-decides:{m}")
    calls = spy_decides(monkeypatch, rid)
    witnesses = 0
    for _ in range(profiles):
        profile = even_profile(rng, m, weighted=True)
        for voter in range(profile.num_voters):
            calls.clear()
            witness = manipulation_search_ordinal(rid, profile, voter)
            # The first decide is the honest election's.
            assert len(calls) - 1 <= (2 if witness else 0)
            witnesses += witness is not None
    assert witnesses > 0


@pytest.mark.parametrize("m", range(3, 7))
def test_borda_search_decides_at_most_two_misreports(monkeypatch, m):
    assert_decides_at_most_two_misreports(monkeypatch, "borda", m, profiles=40)


@pytest.mark.parametrize("m", range(3, 7))
def test_irv_search_decides_at_most_two_misreports(monkeypatch, m):
    # Fewer of these searches find an instant-runoff witness, 11 of 834 at
    # m = 3, so more profiles are searched.
    assert_decides_at_most_two_misreports(monkeypatch, "instant_runoff", m, profiles=100)


def test_irv_witnesses_match_brute_force_on_every_small_profile():
    """Every voter of every profile of unit ballots with m = 3, n <= 6 and m = 4, n <= 3.

    That is 13,176 searches, 733 of which find a witness.  The brute force
    reruns instant runoff on the constructor-built profile of every
    misreport, with one run per multiset of rankings, as the rule is
    anonymous.  Budget: about 2 s (2-vCPU VM, Python 3.11).
    """
    searches = witnesses = 0
    for m, most in ((3, 6), (4, 3)):
        alternatives = IDS[:m]
        winners = {}

        def winner(rankings):
            key = tuple(sorted(rankings))
            if key not in winners:
                profile = profile_from_rankings(key, alternatives)
                winners[key] = ORDINAL_RULES["instant_runoff"](profile).winner
            return winners[key]

        for n in range(1, most + 1):
            for rankings in combinations_with_replacement(permutations(alternatives), n):
                profile = profile_from_rankings(rankings, alternatives)
                honest = winner(rankings)
                for voter, truthful in enumerate(rankings):
                    others = rankings[:voter] + rankings[voter + 1:]
                    expected = None
                    for misreport in permutations(sorted(alternatives)):
                        new = winner((*others, misreport))
                        if misreport != truthful and truthful.index(new) < truthful.index(honest):
                            expected = ManipulationWitness(voter, truthful, misreport, honest, new)
                            break
                    found = manipulation_search_ordinal("instant_runoff", profile, voter)
                    assert found == expected, (rankings, voter)
                    searches += 1
                    witnesses += found is not None
    assert (searches, witnesses) == (13_176, 733)


PRUNE_SWEEP_PROFILES = {3: 300, 4: 150, 5: 40, 6: 12}


def reference_margins_settled(matrix) -> bool:
    """Does some alternative beat every other by at least 2?

    One ballot moves each margin by at most 1, so that alternative stays a
    strict Condorcet winner, and ranked pairs elects it.
    """
    return any(all(margin >= 2 for j, margin in enumerate(row) if j != i)
               for i, row in enumerate(matrix.entries))


def reference_scores_settled(scores: dict) -> bool:
    """Does the Borda leader stay first whatever one more ballot adds?

    A ballot closes a gap by at most m - 1, and a gap it closes exactly is a
    tie that goes to the smaller id.
    """
    leader = max(sorted(scores), key=scores.__getitem__)
    most = len(scores) - 1
    return all(
        scores[leader] - scores[y] > most or (scores[leader] - scores[y] == most and leader < y)
        for y in scores if y != leader
    )


def reference_runoff_settled(tally) -> bool:
    """Does the base's first-place leader hold more than half of n_base + 1?

    With one more ballot it holds a strict majority of the first places in
    every round, as its count only grows, so instant runoff never
    eliminates it.
    """
    counts = Counter()
    for ranking, weight in tally.profile.merged:
        counts[ranking[0]] += weight
    for ranking, sign in tally.pending:
        counts[ranking[0]] += sign
    return 2 * max(counts.values()) > sum(counts.values()) + 1


REFERENCE_SETTLED = {
    "borda": reference_scores_settled,
    "instant_runoff": reference_runoff_settled,
    "ranked_pairs": reference_margins_settled,
}
BOUNDED = tuple(REFERENCE_SETTLED)
# The rows whose bound is exact: a block it keeps holds a misreport that
# elects a wanted alternative.
EXACT = ("borda", "instant_runoff")


@fuzz(200)
@given(st.data())
def test_hopeless_blocks_elect_no_wanted_alternative(data):
    # Every misreport is decided from the base tally, and each prefix of one
    # drawn order bounds its block of them; Borda's and instant runoff's
    # bounds are exact, so a block they keep has a misreport that elects a
    # wanted alternative.
    profile = data.draw(profiles())
    voter = data.draw(st.integers(0, profile.num_voters - 1))
    unit = profile.unit_rankings()[voter]
    order = tuple(data.draw(st.permutations(profile.alternatives)))
    wanted = frozenset(data.draw(st.sets(st.sampled_from(profile.alternatives), min_size=1)))
    for rid in BOUNDED:
        tally, add, decide, _, hopeless = ORDINAL_TALLIES[rid]
        base = add(tally(profile), unit, -1)
        winners = {
            ranking: decide(add(base, ranking, +1)).winner
            for ranking in permutations(profile.alternatives)
        }
        for cut in range(len(order) + 1):
            prefix = order[:cut]
            block = {w for ranking, w in winners.items() if ranking[:cut] == prefix}
            if hopeless(base, prefix, wanted):
                assert not block & wanted, (rid, prefix)
            elif rid in EXACT:
                assert block & wanted, (rid, prefix)


@pytest.mark.parametrize("rid", BOUNDED)
@pytest.mark.parametrize("m", range(2, 7))
def test_root_bound_fires_where_settled_did(rid, m):
    # Against every alternative but the honest winner, the search's widest
    # `wanted`, with each voter's ballot taken out of seeded profiles, odd and
    # even, unit and weighted.
    rng = Random(f"root-bound:{rid}:{m}")
    tally, add, _, _, hopeless = ORDINAL_TALLIES[rid]
    fired = 0
    for _ in range(60):
        profile = even_profile(rng, m, weighted=rng.random() < 0.5)
        if rng.random() < 0.5:
            extra = RankingBallot(tuple(rng.sample(profile.alternatives, m)))
            profile = OrdinalProfile(profile.alternatives, (*profile.ballots, extra))
        honest = ORDINAL_RULES[rid](profile).winner
        wanted = frozenset(profile.alternatives) - {honest}
        for ranking, _ in profile.merged:
            base = add(tally(profile), ranking, -1)
            if REFERENCE_SETTLED[rid](base):
                fired += 1
                assert hopeless(base, (), wanted)
    assert fired > 0


# Voter 0's ballot taken out, the base tally sits at the edge of the
# `settled` references, which the root bound covers: (rule, rankings,
# settled, the witness).
SETTLED_EDGES = [
    # Borda base A 4, B 2, C 0: B trails by exactly m - 1 and loses the tie
    # to A, the smaller id, so no ballot changes the winner.
    ("borda", [("C", "A", "B"), ("A", "B", "C"), ("A", "B", "C")], True, None),
    # Borda base C 6, A 4, B 2: A trails by exactly m - 1 and wins the tie
    # A > B > C makes.
    ("borda", [("A", "C", "B"), ("A", "B", "C"), ("C", "B", "A"), ("C", "A", "B"),
               ("C", "A", "B")], False, (("A", "B", "C"), "C", "A")),
    # Ranked pairs base C > A > B twice: C beats each by 2, and one ballot
    # leaves it the strict Condorcet winner.
    ("ranked_pairs", [("B", "A", "C"), ("C", "A", "B"), ("C", "A", "B")], True, None),
    # Even n: base C > A > B once, so C beats each by 1, and B > C > A ties
    # C with B, which then wins as the smaller unbeaten id.
    ("ranked_pairs", [("B", "A", "C"), ("C", "A", "B")], False, (("B", "C", "A"), "A", "B")),
    # Instant runoff base A first on both ballots: with one more, A holds 2
    # of 3 first places in every round.
    ("instant_runoff", [("B", "A", "C"), ("A", "B", "C"), ("A", "B", "C")], True, None),
    # Base B first on its one ballot: A > B > C ties A with B at 1 of 2 once
    # C is out, and the tie eliminates B, the larger id.
    ("instant_runoff", [("C", "A", "B"), ("B", "A", "C")], False, (("A", "B", "C"), "B", "A")),
]


@pytest.mark.parametrize("rid, rankings, settled, witness", SETTLED_EDGES)
def test_settled_at_its_edge(monkeypatch, rid, rankings, settled, witness):
    profile = profile_from_rankings(rankings, IDS[:3])
    row = ORDINAL_TALLIES[rid]
    base = row.add(row.tally(profile), rankings[0], -1)
    assert REFERENCE_SETTLED[rid](base) is settled
    honest = ORDINAL_RULES[rid](profile).winner
    wanted = frozenset(rankings[0][:rankings[0].index(honest)])
    assert row.hopeless(base, (), wanted) is settled
    found, decides = count_decides(monkeypatch, rid, profile, 0)
    assert (decides == 0) is settled
    expected = None if witness is None else ManipulationWitness(0, rankings[0], *witness)
    assert found == expected == reference_search(rid, profile, 0)


def even_profile(rng: Random, m: int, weighted: bool) -> OrdinalProfile:
    """Ballots drawn from a few rankings, unit or weighted, with an even voter count."""
    alternatives = IDS[:m]
    pool = [tuple(rng.sample(alternatives, m)) for _ in range(rng.randint(2, 4))]
    ballots = [
        RankingBallot(rng.choice(pool), rng.randint(1, 3) if weighted else 1)
        for _ in range(rng.randint(2, 6))
    ]
    if sum(b.weight for b in ballots) % 2:
        ballots.append(RankingBallot(rng.choice(pool)))
    return OrdinalProfile(alternatives, tuple(ballots))


# Even voter counts, where one ballot can tie a pair, with unit and weighted
# ballots, so that both prunes meet their edges.  Seeded, so the same
# profiles run every time.
@pytest.mark.parametrize("m", range(3, 7))
@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
def test_pruned_search_matches_reference_at_even_n(m, weighted):
    rng = Random(f"even-n:{m}:{weighted}")
    witnesses = 0
    for _ in range(PRUNE_SWEEP_PROFILES[m]):
        profile = even_profile(rng, m, weighted)
        units = profile.unit_rankings()
        for rid in rule_ids("ordinal"):
            # A voter whose top choice loses, so that the search runs.
            winner = ORDINAL_RULES[rid](profile).winner
            losers = [i for i, ranking in enumerate(units) if ranking[0] != winner]
            if not losers:
                continue
            voter = rng.choice(losers)
            witness = manipulation_search_ordinal(rid, profile, voter)
            assert witness == reference_search(rid, profile, voter)
            witnesses += witness is not None
    assert witnesses > 0


@fuzz(150)
@given(st.data())
def test_manipulation_search_matches_reference(data):
    # At least three alternatives and two ballots, so that some searches find
    # a witness; at most five ballots keep the m = 6 searches short.
    profile = data.draw(profiles(min_m=3, min_ballots=2, max_ballots=5))
    rid = data.draw(st.sampled_from(rule_ids("ordinal")))
    for voter in range(profile.num_voters):
        witness = manipulation_search_ordinal(rid, profile, voter)
        assert witness == reference_search(rid, profile, voter)
        if witness is not None:
            assert reverify_ordinal_witness(rid, profile, witness)
        # A claimed witness for an arbitrary misreport, true or false: both
        # re-verifications must give the same verdict.
        truthful = profile.unit_rankings()[voter]
        misreport = data.draw(st.permutations(profile.alternatives))
        winner = ORDINAL_RULES[rid](profile).winner
        claim = ManipulationWitness(voter, truthful, tuple(misreport), winner, truthful[0])
        assert reverify_ordinal_witness(rid, profile, claim) == reference_reverify(
            rid, profile, claim
        )


# The bench's audit_sweep shape: m = 3..6 and 29 to 101 unit voters, searched
# for a voter whose top choice loses, so that every misreport is tried or the
# search stops at a witness, and shuffled as the anonymity check shuffles
# them.  Seeded, so the same profiles run every time.
BENCH_SHAPES = [(m, n) for m in range(3, 7) for n in (29, 53, 77, 101)]


@pytest.mark.parametrize("m, n", BENCH_SHAPES)
def test_manipulation_search_matches_reference_at_bench_shape(m, n):
    rng = Random(f"bench-shape:{m}:{n}")
    alternatives = IDS[:m]
    rankings = [tuple(rng.sample(alternatives, m)) for _ in range(n)]
    profile = profile_from_rankings(rankings, alternatives)
    for rid in rule_ids("ordinal"):
        winner = ORDINAL_RULES[rid](profile).winner
        losers = [i for i, ranking in enumerate(rankings) if ranking[0] != winner]
        voter = rng.choice(losers)
        witness = manipulation_search_ordinal(rid, profile, voter)
        assert witness == reference_search(rid, profile, voter)
        if witness is not None:
            assert reverify_ordinal_witness(rid, profile, witness)
    assert_shuffles_equal_rebuilt(profile, rng.randrange(2**31))
