"""Auditor tests: clone independence, manipulation search, anonymity.

Sweep sizes here are trimmed; the acceptance suite runs the full 1000-profile
versions with its own seed.
"""

from itertools import permutations, product, starmap
from pathlib import Path
from random import Random

import pytest

from audit_helpers import random_clone_spec, random_strict_profile
from socialchoice.audits import (
    MAX_AUDIT_VOTERS,
    MAX_CLONE_COPIES,
    MAX_MANIPULATION_ALTERNATIVES,
    MAX_MANIPULATION_RATERS,
    CloneSpec,
    ManipulationWitness,
    # Aliased: this module's own alternating_clone_spec() builds a fixed spec
    # for the restaurant profile.
    alternating_clone_spec as alternating_split,
    anonymity_check,
    clone_test,
    cloned_profile,
    manipulation_search_cardinal,
    manipulation_search_ordinal,
    reverify_cardinal_witness,
    reverify_ordinal_witness,
)
from socialchoice.cardinal import RatingProfile
from socialchoice.ordinal import first_place_counts, ordinal_rule, random_dictator
from socialchoice.profiles import (
    OrdinalProfile,
    RankingBallot,
    margin_matrix,
    parse_profile,
    profile_from_rankings,
)

DATA = Path(__file__).resolve().parent.parent / "data"

FIG_RANKINGS = (
    [("A", "B", "C")] * 4
    + [("A", "C", "B")] * 4
    + [("B", "C", "A")] * 9
    + [("C", "A", "B")] * 4
    + [("C", "B", "A")] * 2
)


@pytest.fixture
def three_way():
    return profile_from_rankings(FIG_RANKINGS, ("A", "B", "C"))


def restaurant_profile():
    rankings = [("C", "I")] * 52 + [("I", "C")] * 48
    return profile_from_rankings(rankings, ("C", "I"))


def alternating_clone_spec(n_voters=100):
    orders = {i: (("C1", "C2") if i % 2 == 0 else ("C2", "C1")) for i in range(n_voters)}
    return CloneSpec("C", 2, orders)


class TestCloneSpec:
    def test_clone_ids_are_suffixed(self):
        assert CloneSpec("C", 3).clone_ids() == ("C1", "C2", "C3")

    def test_single_copy_keeps_original_id(self):
        assert CloneSpec("C", 1).clone_ids() == ("C",)

    def test_zero_copies_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            CloneSpec("C", 0)

    def test_copies_above_the_cap_rejected(self):
        assert CloneSpec("C", MAX_CLONE_COPIES).copies == MAX_CLONE_COPIES
        with pytest.raises(ValueError, match=rf"^copies must be at most {MAX_CLONE_COPIES}$"):
            CloneSpec("C", MAX_CLONE_COPIES + 1)

    def test_negative_ballot_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CloneSpec("C", 2, {-1: ("C1", "C2")})


class TestClonedProfile:
    def test_block_replaces_target_in_every_ballot(self):
        profile = profile_from_rankings([("B", "C", "A")], ("A", "B", "C"))
        expanded = cloned_profile(profile, CloneSpec("C", 2))
        assert expanded.unit_rankings() == (("B", "C1", "C2", "A"),)
        assert expanded.alternatives == ("A", "B", "C1", "C2")

    def test_per_ballot_orders_override_default(self):
        profile = profile_from_rankings([("B", "C", "A"), ("C", "A", "B")], ("A", "B", "C"))
        expanded = cloned_profile(profile, CloneSpec("C", 2, {1: ("C2", "C1")}))
        assert expanded.unit_rankings() == (
            ("B", "C1", "C2", "A"),
            ("C2", "C1", "A", "B"),
        )

    def test_counted_ballots_merge_as_one_ballot_per_voter(self):
        # Reference: splice every voter's ranking with their own clone order.
        rng = Random(5)
        for trial in range(40):
            m, n = rng.randint(2, 5), rng.randint(1, 30)
            rankings = [tuple(rng.sample("ABCDE"[:m], m)) for _ in range(rng.randint(1, 6))]
            ballots = tuple(RankingBallot(r, rng.randint(1, 8)) for r in rankings)
            profile = OrdinalProfile(tuple("ABCDE"[:m]), ballots)
            spec = CloneSpec("A", rng.randint(1, 3))
            if trial % 3 == 1:
                spec = alternating_split(profile, spec)
            elif trial % 3 == 2:
                spec = random_clone_spec(rng, profile, spec.copies)
            orders = spec.orders or {}
            default = tuple(sorted(spec.clone_ids()))
            units = []
            for voter, ranking in enumerate(profile.unit_rankings()):
                i = ranking.index(spec.target)
                units.append(ranking[:i] + orders.get(voter, default) + ranking[i + 1:])
            counted = cloned_profile(profile, spec)
            want = profile_from_rankings(units, counted.alternatives)
            assert counted.merged == want.merged
            assert counted.ballots == counted.merged

    def test_single_copy_is_identity(self, three_way):
        expanded = cloned_profile(three_way, CloneSpec("B", 1))
        assert expanded.alternatives == three_way.alternatives
        assert expanded.unit_rankings() == three_way.unit_rankings()

    def test_unknown_target_rejected(self, three_way):
        with pytest.raises(ValueError, match="not an alternative"):
            cloned_profile(three_way, CloneSpec("Z", 2))

    def test_clone_id_collision_rejected(self):
        profile = profile_from_rankings([("C", "C1")], ("C", "C1"))
        with pytest.raises(ValueError, match="collide"):
            cloned_profile(profile, CloneSpec("C", 2))

    def test_order_must_be_permutation_of_clones(self, three_way):
        with pytest.raises(ValueError, match="permutation"):
            cloned_profile(three_way, CloneSpec("C", 2, {0: ("C1", "C1")}))

    def test_order_index_out_of_range_rejected(self):
        profile = profile_from_rankings([("A", "B")], ("A", "B"))
        with pytest.raises(ValueError, match="out of range"):
            cloned_profile(profile, CloneSpec("A", 2, {5: ("A1", "A2")}))


class TestCloneTest:
    def test_plurality_flips_to_nonclone_on_restaurant_profile(self):
        result = clone_test("plurality", restaurant_profile(), alternating_clone_spec())
        assert result.verdict == "violated"
        assert result.base_winner == "C"
        assert result.cloned_winner == "I"

    def test_restaurant_split_gives_48_firsts_to_nonclone(self):
        expanded = cloned_profile(restaurant_profile(), alternating_clone_spec())
        assert first_place_counts(expanded) == {"C1": 26, "C2": 26, "I": 48}

    def test_ranked_pairs_keeps_a_clone_winning(self):
        result = clone_test("ranked_pairs", restaurant_profile(), alternating_clone_spec())
        assert result.independent
        assert result.cloned_winner in {"C1", "C2"}

    def test_restaurant_margin_structure(self):
        # Both clones beat I by the original +4; the clones tie head-to-head.
        expanded = cloned_profile(restaurant_profile(), alternating_clone_spec())
        mm = margin_matrix(expanded)
        assert mm.margin("C1", "I") == 4
        assert mm.margin("C2", "I") == 4
        assert mm.margin("C1", "C2") == 0

    def test_single_voter_profiles_are_clone_proof(self):
        profile = profile_from_rankings([("A", "B", "C")], ("A", "B", "C"))
        for target in ("A", "B", "C"):
            for order in permutations((f"{target}1", f"{target}2")):
                spec = CloneSpec(target, 2, {0: order})
                for rule in ("plurality", "borda", "instant_runoff", "ranked_pairs"):
                    assert clone_test(rule, profile, spec).independent

    def test_single_copy_always_independent(self, three_way):
        for rule in ("plurality", "borda", "instant_runoff", "ranked_pairs"):
            assert clone_test(rule, three_way, CloneSpec("B", 1)).independent


class TestManipulationSearchOrdinal:
    def test_borda_textbook_witness(self):
        profile = profile_from_rankings(
            [("A", "B", "C"), ("B", "A", "C"), ("B", "A", "C")]
        )
        witness = manipulation_search_ordinal("borda", profile, 0)
        assert witness == ManipulationWitness(
            voter=0,
            truthful=("A", "B", "C"),
            misreport=("A", "C", "B"),
            honest_outcome="B",
            manipulated_outcome="A",
        )
        assert reverify_ordinal_witness("borda", profile, witness)

    def test_witness_is_lexicographically_first_improvement(self):
        profile = profile_from_rankings(
            [("A", "B", "C"), ("B", "A", "C"), ("B", "A", "C")]
        )
        witness = manipulation_search_ordinal("borda", profile, 0)
        truthful = profile.unit_rankings()[0]
        honest_rank = truthful.index(ordinal_rule("borda")(profile).winner)
        improving = []
        for misreport in permutations(sorted(profile.alternatives)):
            units = list(profile.unit_rankings())
            units[0] = misreport
            shifted = profile_from_rankings(units, profile.alternatives)
            if truthful.index(ordinal_rule("borda")(shifted).winner) < honest_rank:
                improving.append(misreport)
        assert witness.misreport == min(improving)

    def test_unanimous_profile_has_no_witness(self):
        profile = profile_from_rankings([("A", "B", "C")] * 5)
        for rule in ("plurality", "borda", "instant_runoff", "ranked_pairs"):
            for voter in range(5):
                assert manipulation_search_ordinal(rule, profile, voter) is None

    def test_plurality_on_two_alternatives_is_strategyproof(self):
        # Exhaustive over all 3-voter profiles and all voters.
        ballots = (("A", "B"), ("B", "A"))
        for combo in product(ballots, repeat=3):
            profile = profile_from_rankings(list(combo), ("A", "B"))
            for voter in range(3):
                assert manipulation_search_ordinal("plurality", profile, voter) is None

    @pytest.mark.parametrize("rule", ["plurality", "borda", "instant_runoff", "ranked_pairs"])
    def test_alternative_cap_enforced(self, rule):
        # Voter 0's top choice wins, so the search at the cap returns at once.
        cap = MAX_MANIPULATION_ALTERNATIVES[rule]
        for m in (cap, cap + 1):
            alternatives = tuple(f"a{i:03}" for i in range(m))
            profile = profile_from_rankings([alternatives], alternatives)
            if m == cap:
                assert manipulation_search_ordinal(rule, profile, 0) is None
            else:
                with pytest.raises(ValueError, match=f"exceed {rule}'s exhaustive-search cap"):
                    manipulation_search_ordinal(rule, profile, 0)

    def test_voter_index_out_of_range(self, three_way):
        with pytest.raises(ValueError, match="out of range"):
            manipulation_search_ordinal("borda", three_way, 23)

    def test_voter_indexes_expanded_ballots(self, three_way):
        # Voter 8 is one of the nine B > C > A voters.
        witness = manipulation_search_ordinal("borda", three_way, 8)
        if witness is not None:
            assert witness.truthful == ("B", "C", "A")

    def test_tampered_witness_fails_reverification(self):
        profile = profile_from_rankings(
            [("A", "B", "C"), ("B", "A", "C"), ("B", "A", "C")]
        )
        fake = ManipulationWitness(0, ("A", "B", "C"), ("C", "A", "B"), "B", "A")
        assert not reverify_ordinal_witness("borda", profile, fake)

    @pytest.mark.parametrize("rule", ["plurality", "borda", "instant_runoff", "ranked_pairs"])
    def test_witness_with_another_truthful_ranking_fails_reverification(self, rule):
        # The flip to C happens and improves on the claimed truthful ranking,
        # but voter 0 ranks A > B > C, so C is their last choice.
        profile = profile_from_rankings([("A", "B", "C"), ("B", "A", "C"), ("C", "B", "A")])
        honest = ordinal_rule(rule)(profile).winner
        claim = ManipulationWitness(0, ("C", "B", "A"), ("C", "A", "B"), honest, "C")
        assert not reverify_ordinal_witness(rule, profile, claim)


class TestWitnessFromTheTieBreak:
    """Each first witness wins only through the lexicographic tie-break.

    Voter 0 misreports, and the misreported election ties at its deciding
    step.  Broken the other way, that tie elects an alternative the voter
    likes no better than the honest winner, and no later misreport helps,
    so the search would find no witness.
    """

    @staticmethod
    def witness(rule, rankings, misreport, honest, manipulated):
        profile = profile_from_rankings(rankings, ("A", "B", "C"))
        witness = manipulation_search_ordinal(rule, profile, 0)
        assert witness == ManipulationWitness(0, rankings[0], misreport, honest, manipulated)
        assert reverify_ordinal_witness(rule, profile, witness)

    def test_plurality_first_place_tie(self):
        # Honest firsts A 1, B 1, C 2.  Topping B gives B 2, C 2: B wins the tie.
        rankings = [("A", "B", "C"), ("B", "A", "C"), ("C", "A", "B"), ("C", "A", "B")]
        self.witness("plurality", rankings, ("B", "A", "C"), "C", "B")

    def test_borda_score_tie(self):
        # Honest scores A 2, B 3, C 1.  A > C > B scores all three 2: A wins the tie.
        rankings = [("A", "B", "C"), ("B", "C", "A")]
        self.witness("borda", rankings, ("A", "C", "B"), "B", "A")

    def test_instant_runoff_last_round_tie(self):
        # Topping B knocks A out with no first places; the last round is B 2,
        # C 2, and the lexicographically largest, C, goes out.
        rankings = [("A", "B", "C"), ("B", "C", "A"), ("C", "A", "B"), ("C", "A", "B")]
        self.witness("instant_runoff", rankings, ("B", "A", "C"), "C", "B")

    def test_ranked_pairs_equal_margin_cycle(self):
        # Honestly C beats both by 1.  A > B > C makes the cycle A > B > C > A,
        # every margin 1: (A, B) and (B, C) lock first, and C > A is skipped.
        rankings = [("A", "C", "B"), ("B", "C", "A"), ("C", "A", "B")]
        self.witness("ranked_pairs", rankings, ("A", "B", "C"), "C", "A")


class TestManipulationSearchCardinal:
    def test_mean_is_manipulable_on_3_6_6(self):
        witness = manipulation_search_cardinal("mean", (3, 6, 6), 0)
        assert witness == ManipulationWitness(0, 3.0, 0.0, 5.0, 4.0)
        assert reverify_cardinal_witness("mean", (3, 6, 6), witness)

    def test_median_is_robust_on_3_6_6(self):
        assert manipulation_search_cardinal("median", (3, 6, 6), 0) is None

    def test_first_improving_grid_point_is_returned(self):
        # Honest mean of (4, 0, 10) is 14/3; reports 1..3 improve, 0 only ties.
        witness = manipulation_search_cardinal("mean", (4, 0, 10), 0)
        assert witness.misreport == 1.0

    def test_single_rater_cannot_gain(self):
        for rule in ("mean", "median"):
            assert manipulation_search_cardinal(rule, (3.5,), 0) is None

    def test_raters_at_the_cap_are_searched(self):
        # Every rater gives 1, so the honest mean is the voter's own rating and
        # the search tries every grid rating.
        assert manipulation_search_cardinal("mean", (1,) * MAX_MANIPULATION_RATERS, 0) is None

    def test_raters_past_the_cap_are_refused(self):
        cap = MAX_MANIPULATION_RATERS
        with pytest.raises(
            ValueError, match=f"^{cap + 1:,} raters exceed the grid search's cap of {cap:,}$"
        ):
            manipulation_search_cardinal("mean", (1,) * (cap + 1), 0)

    def test_voter_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            manipulation_search_cardinal("mean", (3, 6, 6), 3)

    def test_tampered_witness_fails_reverification(self):
        fake = ManipulationWitness(0, 3.0, 10.0, 5.0, 4.0)
        assert not reverify_cardinal_witness("mean", (3, 6, 6), fake)


class TestAnonymity:
    def test_all_ordinal_rules_anonymous_on_three_way(self, three_way):
        for rule in ("plurality", "borda", "instant_runoff", "ranked_pairs"):
            assert anonymity_check(rule, three_way, seed=1)

    def test_cardinal_rules_anonymous(self):
        rp = RatingProfile(
            ("x",),
            ("e1", "e2", "e3", "e4"),
            {"e1": {"x": 3.0}, "e2": {"x": 6.0}, "e3": {"x": 6.0}, "e4": {"x": 9.0}},
        )
        assert anonymity_check("mean", rp, seed=2)
        assert anonymity_check("median", rp, seed=2)

    def test_random_dictator_lottery_is_anonymous(self, three_way):
        assert anonymity_check(lambda p: random_dictator(p, 7)[0], three_way, seed=3)

    def test_first_voter_counts_twice_is_not_anonymous(self):
        def biased_borda(profile):
            units = profile.unit_rankings()
            doubled = (units[0],) + units
            return ordinal_rule("borda")(profile_from_rankings(doubled, profile.alternatives))

        profile = profile_from_rankings([("A", "B"), ("B", "A")], ("A", "B"))
        assert not anonymity_check(biased_borda, profile, seed=4)

    @pytest.mark.parametrize(
        "rule",
        [
            lambda p: p.merged[0].ranking[0],
            lambda p: p.ballots[0].ranking[0],
            lambda p: p.unit_rankings()[0][0],
        ],
        ids=["top_of_first_merged", "top_of_first_ballot", "top_of_first_voter"],
    )
    def test_rule_reading_the_voter_order_is_not_anonymous(self, rule):
        profile = profile_from_rankings([("A", "B", "C"), ("C", "B", "A")] * 2, ("A", "B", "C"))
        assert not anonymity_check(rule, profile, seed=4)

    def test_each_order_of_few_rankings_is_tried_once(self):
        # Two distinct rankings have 2! orders: the identity, run as the
        # baseline, and one swap, the 2! - 1 shuffled runs.
        profile = parse_profile((DATA / "restaurant.vote").read_text())
        seen = []

        def record(shuffled):
            seen.append(shuffled.merged)
            return 0

        assert anonymity_check(record, profile, seed=0)
        assert seen == [profile.merged, profile.merged[::-1]]

    def test_unsupported_profile_type_rejected(self):
        with pytest.raises(TypeError):
            anonymity_check("mean", 42, seed=0)


@pytest.fixture
def no_expansion(monkeypatch):
    """Fail the test if any voter is expanded into a ballot."""
    def expand(profile):
        pytest.fail("a profile was expanded into one ballot per voter")

    monkeypatch.setattr(OrdinalProfile, "unit_rankings", expand)


def past_the_cap(weight=MAX_AUDIT_VOTERS):
    heavy = RankingBallot(("A", "B", "C"), weight)
    return OrdinalProfile(("A", "B", "C"), (heavy, RankingBallot(("B", "C", "A"))))


class TestAuditVoterCap:
    def test_the_guard_sees_cloning_read_its_voters(self, monkeypatch):
        # Cloning reads each voter through unit_rankings(), the method that
        # no_expansion replaces, so the guard covers its one expansion.
        calls = []
        expand = OrdinalProfile.unit_rankings
        monkeypatch.setattr(OrdinalProfile, "unit_rankings", lambda p: calls.append(p) or expand(p))
        profile = past_the_cap(1)
        cloned_profile(profile, CloneSpec("A"))
        assert calls == [profile]

    def test_cloning_is_refused_before_any_voter_is_expanded(self, no_expansion):
        with pytest.raises(ValueError, match="more than 100,000 voters, the cap"):
            cloned_profile(past_the_cap(), CloneSpec("A"))

    # The last voter ranks B > C > A, and no misreport of theirs beats A.
    @pytest.mark.parametrize("audit, expected", [
        (lambda profile: anonymity_check("borda", profile, 0), True),
        (lambda profile: manipulation_search_ordinal("borda", profile, MAX_AUDIT_VOTERS), None),
    ], ids=["anonymity_check", "manipulation_search_ordinal"])
    def test_past_the_cap_reading_the_merge_gives_the_answer(self, no_expansion, audit, expected):
        assert audit(past_the_cap()) == expected

    # A and B tie at 3N + 1 Borda points and the tie goes to A; the last
    # voter, C > B > A, makes B win by ranking it first.
    @pytest.mark.parametrize("n", [10**20, 10**400], ids=["1e20", "1e400"])
    def test_witness_in_a_huge_profile_is_found_and_reverified(self, no_expansion, n):
        ballots = ((("A", "B", "C"), n), (("B", "A", "C"), n), (("C", "A", "B"), 1),
                   (("C", "B", "A"), 1))
        profile = OrdinalProfile(("A", "B", "C"), tuple(starmap(RankingBallot, ballots)))
        witness = manipulation_search_ordinal("borda", profile, 2 * n + 1)
        assert witness == ManipulationWitness(
            2 * n + 1, ("C", "B", "A"), ("B", "C", "A"), "A", "B"
        )
        assert reverify_ordinal_witness("borda", profile, witness)

    def test_voter_past_a_huge_count_is_out_of_range(self, no_expansion):
        profile = past_the_cap(10**5000)
        with pytest.raises(ValueError, match=r"^voter index -1 out of range for the profile's"):
            manipulation_search_ordinal("borda", profile, -1)
        with pytest.raises(ValueError, match=r"^voter index 3 out of range"):
            reverify_ordinal_witness(
                "borda", past_the_cap(1), ManipulationWitness(3, ("A",), ("A",), "A", "A")
            )


class TestEveryVoterExpansionIsCapped:
    @pytest.mark.parametrize("expand", [
        lambda profile: random_clone_spec(Random(0), profile),
        lambda profile: alternating_split(profile, CloneSpec("A")),
        lambda profile: clone_test("plurality", profile, CloneSpec("A")),
    ], ids=["random_clone_spec", "alternating_clone_spec", "clone_test"])
    def test_refused_before_any_order_or_ballot_is_built(self, no_expansion, expand):
        with pytest.raises(ValueError, match="more than 100,000 voters, the cap"):
            expand(past_the_cap())

    def test_cap_itself_passes(self):
        profile = OrdinalProfile(("A", "B"), (RankingBallot(("A", "B"), MAX_AUDIT_VOTERS),))
        assert len(random_clone_spec(Random(0), profile).orders) == MAX_AUDIT_VOTERS
        assert len(alternating_split(profile, CloneSpec("B")).orders) == MAX_AUDIT_VOTERS

    # Voter 1 sits inside the heavy ballot, which the re-check splits around
    # them; under the claimed misreport A still wins, at any count.
    @pytest.mark.parametrize("weight", [MAX_AUDIT_VOTERS, 10**400], ids=["cap", "401_digits"])
    def test_reverify_reads_the_merge_past_the_cap(self, no_expansion, weight):
        claim = ManipulationWitness(1, ("A", "B", "C"), ("C", "B", "A"), "A", "B")
        assert reverify_ordinal_witness("borda", past_the_cap(weight), claim) is False
        assert reverify_ordinal_witness("plurality", past_the_cap(weight), claim) is False

    def test_clone_test_runs_the_base_election_then_refuses(self):
        # Plurality is exact on a 401-digit count, so the cap fires at cloning.
        with pytest.raises(ValueError, match="more than 100,000 voters, the cap"):
            clone_test("plurality", past_the_cap(10**400), CloneSpec("A"))


class TestRandomGenerators:
    def test_random_strict_profile_shape(self):
        rng = Random(0)
        profile = random_strict_profile(rng, 4, 7)
        assert profile.alternatives == ("A", "B", "C", "D")
        assert profile.num_voters == 7
        for ranking in profile.unit_rankings():
            assert sorted(ranking) == ["A", "B", "C", "D"]

    def test_random_clone_spec_covers_every_voter(self):
        rng = Random(1)
        profile = random_strict_profile(rng, 3, 5)
        spec = random_clone_spec(rng, profile)
        assert spec.target in profile.alternatives
        assert set(spec.orders) == set(range(5))
        for order in spec.orders.values():
            assert sorted(order) == sorted(spec.clone_ids())


class TestAlternatingCloneSpec:
    @pytest.mark.parametrize("copies", [1, 2, 3, 11])
    def test_rotates_the_clone_order_one_step_per_voter(self, copies):
        profile = profile_from_rankings(FIG_RANKINGS, ("A", "B", "C"))
        spec = alternating_split(profile, CloneSpec("C", copies))
        clones = spec.clone_ids()
        assert (spec.target, spec.copies) == ("C", copies)
        assert spec.orders == {
            i: tuple(clones[(i + j) % copies] for j in range(copies)) for i in range(23)
        }

    def test_two_copies_split_a_bloc_evenly(self):
        profile = profile_from_rankings([("A", "B", "C")] * 4, ("A", "B", "C"))
        expanded = cloned_profile(profile, alternating_split(profile, CloneSpec("A")))
        assert first_place_counts(expanded) == {"A1": 2, "A2": 2, "B": 0, "C": 0}


@pytest.fixture(scope="module")
def clone_sweep_counts():
    # 300 random tournaments (no pairwise ties), random per-voter clone orders.
    rng = Random(8)
    counts = {"ranked_pairs": 0, "plurality": 0, "borda": 0}
    examined = 0
    while examined < 300:
        m = rng.choice((3, 4))
        n = rng.choice((3, 5, 7, 9))
        profile = random_strict_profile(rng, m, n)
        mm = margin_matrix(profile)
        pairs = [
            (a, b) for a in profile.alternatives for b in profile.alternatives if a < b
        ]
        if any(mm.margin(a, b) == 0 for a, b in pairs):
            continue
        examined += 1
        spec = random_clone_spec(rng, profile)
        for rule in counts:
            if not clone_test(rule, profile, spec).independent:
                counts[rule] += 1
    return counts


class TestCloneSweep:
    def test_ranked_pairs_never_violates(self, clone_sweep_counts):
        assert clone_sweep_counts["ranked_pairs"] == 0

    def test_plurality_and_borda_both_violate(self, clone_sweep_counts):
        assert clone_sweep_counts["plurality"] >= 1
        assert clone_sweep_counts["borda"] >= 1


class TestCardinalSearchRatings:
    @pytest.mark.parametrize(
        "ratings, rater",
        [([float("nan"), 1, 2], 0), ([1, float("inf"), 2], 1), ([50, 3, 2], 0), ([2, 3, -3], 2)],
    )
    def test_unsearchable_rating_is_refused_naming_the_rater(self, ratings, rater):
        with pytest.raises(ValueError, match=rf"^rater {rater}: expected a finite rating"):
            manipulation_search_cardinal("mean", ratings, 0)

    def test_bounds_are_searchable(self):
        assert manipulation_search_cardinal("mean", [0, 10, 5], 2) is None
