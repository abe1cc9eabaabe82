"""Tests for judgment aggregation: majorities, consistency, and repair."""

import itertools
import json
import random
import time

import pytest

from socialchoice.judgment import (
    MAX_CONSTRAINT_DEPTH,
    Agenda,
    ConstraintSyntaxError,
    JudgmentProfile,
    check_consistency,
    closest_consistent,
    judgment_profile_from_json,
    majority_judgments,
)

SAFE_HELPFUL_GIVE = Agenda(("safe", "helpful", "give"), "give <-> (safe & helpful)")


def brute_force(agenda):
    """Every judgment set that satisfies `agenda`, one assignment at a time, in product order."""
    every = itertools.product((False, True), repeat=len(agenda.atoms))
    return [js for js in (dict(zip(agenda.atoms, bits)) for bits in every) if agenda.satisfies(js)]


def shg_profile():
    # Three individually consistent evaluators whose atom-wise majority is not.
    return JudgmentProfile(
        SAFE_HELPFUL_GIVE,
        (
            ("E1", {"safe": True, "helpful": False, "give": False}),
            ("E2", {"safe": False, "helpful": True, "give": False}),
            ("E3", {"safe": True, "helpful": True, "give": True}),
        ),
    )


class TestConstraintParsing:
    @pytest.mark.parametrize(
        "formula,assignment,expected",
        [
            ("a", {"a": True}, True),
            ("!a", {"a": True}, False),
            ("a & b", {"a": True, "b": False}, False),
            ("a | b", {"a": True, "b": False}, True),
            ("a <-> b", {"a": False, "b": False}, True),
            # precedence: ! binds tighter than &, & tighter than |, | tighter than <->
            ("!a & b", {"a": False, "b": True}, True),
            ("a | b & c", {"a": True, "b": False, "c": False}, True),
            ("a <-> b | c", {"a": True, "b": False, "c": True}, True),
            ("(a <-> b) | c", {"a": True, "b": False, "c": True}, True),
            ("a & (b | c)", {"a": True, "b": False, "c": True}, True),
        ],
    )
    def test_evaluation(self, formula, assignment, expected):
        agenda = Agenda(tuple(sorted(assignment)), formula)
        assert agenda.satisfies(assignment) is expected

    def test_left_associative_iff(self):
        # (a <-> b) <-> c, not a <-> (b <-> c): check an assignment where they agree... both
        # are actually associative for <->; use a three-way chain to pin shape via parse success.
        agenda = Agenda(("a", "b", "c"), "a <-> b <-> c")
        assert agenda.satisfies({"a": True, "b": True, "c": True})
        assert not agenda.satisfies({"a": True, "b": False, "c": True})

    def test_syntax_errors(self):
        for bad in ("a &", "& a", "(a", "a)", "a <- b", "a ^ b", ""):
            with pytest.raises((ConstraintSyntaxError, ValueError)):
                Agenda(("a", "b"), bad)

    @pytest.mark.parametrize(
        "shape",
        [
            lambda n: "(" * n + "a" + ")" * n,
            lambda n: "!" * n + "a",
            lambda n: " & ".join(["a"] * (n + 1)),
            lambda n: "a <-> " * n + "a",
            lambda n: "(!" * (n // 2) + "!" * (n % 2) + "a" + ")" * (n // 2),
        ],
        ids=["parentheses", "negations", "and-chain", "iff-chain", "mixed"],
    )
    def test_nesting_cap(self, shape):
        # n levels parse and evaluate; one more is refused before any recursion runs deep.
        n = MAX_CONSTRAINT_DEPTH
        agenda = Agenda(("a",), shape(n))
        assert any(agenda.satisfies({"a": v}) for v in (False, True))
        with pytest.raises(ConstraintSyntaxError, match=f"nests deeper than {n} levels"):
            Agenda(("a",), shape(n + 1))

    def test_undeclared_atom_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            Agenda(("a",), "a & b")

    def test_unsatisfiable_rejected(self):
        with pytest.raises(ValueError, match="unsatisfiable"):
            Agenda(("a",), "a & !a")

    def test_atom_cap(self):
        atoms = tuple(f"p{i}" for i in range(21))
        with pytest.raises(ValueError, match="atoms"):
            Agenda(atoms, "p0")

    @pytest.mark.parametrize("atom", ["x y", "", "a-b", "a&b", " a", 7])
    def test_atom_must_be_one_constraint_token(self, atom):
        message = f"agenda atom {atom!r} is not a run of letters, digits and '_'"
        with pytest.raises(ValueError) as info:
            Agenda(("a", atom), "a")
        assert str(info.value) == message


class TestMajorityJudgments:
    def test_paradox_profile_majority(self):
        assert majority_judgments(shg_profile()) == {
            "safe": True,
            "helpful": True,
            "give": False,
        }

    def test_unanimous(self):
        js = {"safe": True, "helpful": True, "give": True}
        profile = JudgmentProfile(
            SAFE_HELPFUL_GIVE, tuple((f"E{i}", js) for i in range(3))
        )
        assert majority_judgments(profile) == js

    def test_single_atom(self):
        agenda = Agenda(("p",), "p | !p")
        profile = JudgmentProfile(
            agenda, (("a", {"p": True}), ("b", {"p": True}), ("c", {"p": False}))
        )
        assert majority_judgments(profile) == {"p": True}

    def test_even_count_rejected(self):
        agenda = Agenda(("p",), "p | !p")
        profile = JudgmentProfile(agenda, (("a", {"p": True}), ("b", {"p": False})))
        with pytest.raises(ValueError, match="odd"):
            majority_judgments(profile)

    def test_anonymity(self):
        rng = random.Random(2)
        agenda = Agenda(("x", "y", "z"), "z <-> (x | y)")
        consistent = brute_force(agenda)
        for _ in range(10):
            sets = [rng.choice(consistent) for _ in range(5)]
            profile = JudgmentProfile(
                agenda, tuple((f"e{i}", js) for i, js in enumerate(sets))
            )
            rng.shuffle(sets)
            shuffled = JudgmentProfile(
                agenda, tuple((f"e{i}", js) for i, js in enumerate(sets))
            )
            assert majority_judgments(profile) == majority_judgments(shuffled)

    def test_individual_inconsistency_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            JudgmentProfile(
                SAFE_HELPFUL_GIVE,
                (("E1", {"safe": True, "helpful": True, "give": False}),),
            )


class TestConsistency:
    def test_paradox_majority_is_inconsistent(self):
        majority = majority_judgments(shg_profile())
        assert check_consistency(majority, SAFE_HELPFUL_GIVE) is False

    def test_all_true_is_consistent(self):
        js = {"safe": True, "helpful": True, "give": True}
        assert check_consistency(js, SAFE_HELPFUL_GIVE) is True

    def test_partial_premises_consistent(self):
        js = {"safe": False, "helpful": True, "give": False}
        assert check_consistency(js, SAFE_HELPFUL_GIVE) is True

    def test_atom_mismatch_rejected(self):
        with pytest.raises(ValueError, match="atoms"):
            check_consistency({"safe": True}, SAFE_HELPFUL_GIVE)


class TestClosestConsistent:
    def test_paradox_repair_keeps_premises(self):
        majority = {"safe": True, "helpful": True, "give": False}
        repaired = closest_consistent(majority, SAFE_HELPFUL_GIVE)
        assert repaired == {"safe": True, "helpful": True, "give": True}

    def test_consistent_input_is_fixed_point(self):
        for js in brute_force(SAFE_HELPFUL_GIVE):
            assert closest_consistent(js, SAFE_HELPFUL_GIVE) == js

    def test_single_atom_forced_flip(self):
        agenda = Agenda(("p",), "p")
        assert closest_consistent({"p": False}, agenda) == {"p": True}

    def test_repair_minimality_exhaustive(self):
        # Against brute force: output satisfies the constraint and no
        # satisfying assignment is strictly closer.
        formulas = [
            ("z <-> (x & y)", ("x", "y", "z")),
            ("z <-> (x | y)", ("x", "y", "z")),
            ("(x | y) & (w <-> !x)", ("w", "x", "y")),
            ("x & (y | z) & (w | !z)", ("w", "x", "y", "z")),
        ]
        for constraint, atoms in formulas:
            agenda = Agenda(atoms, constraint)
            consistent = brute_force(agenda)
            for bits in itertools.product((False, True), repeat=len(atoms)):
                js = dict(zip(atoms, bits))
                repaired = closest_consistent(js, agenda)
                assert agenda.satisfies(repaired)
                dist = sum(repaired[a] != js[a] for a in atoms)
                best = min(sum(c[a] != js[a] for a in atoms) for c in consistent)
                assert dist == best

    def test_tie_breaks_prefer_late_flips_then_lexicographic(self):
        # Constraint satisfied only by single-true assignments: from all-false,
        # every repair flips exactly one atom; the latest atom must win.
        agenda = Agenda(("a", "b", "c"), "(a | b | c) & !(a & b) & !(a & c) & !(b & c)")
        js = {"a": False, "b": False, "c": False}
        assert closest_consistent(js, agenda) == {"a": False, "b": False, "c": True}


class TestProfileJson:
    def test_round_trip_shape(self):
        text = """
        {
          "agenda": {"atoms": ["safe", "helpful", "give"],
                     "constraint": "give <-> (safe & helpful)"},
          "judgments": {
            "E1": {"safe": true, "helpful": false, "give": false},
            "E2": {"safe": false, "helpful": true, "give": false},
            "E3": {"safe": true, "helpful": true, "give": true}
          }
        }
        """
        profile = judgment_profile_from_json(text)
        assert profile == shg_profile()

    def test_each_evaluator_is_checked_once(self, monkeypatch):
        # The profile checks every evaluator's set, and the loader no longer
        # checks it first at its own node.
        calls = []
        satisfies = Agenda.satisfies
        monkeypatch.setattr(
            Agenda, "satisfies", lambda agenda, js: calls.append(js) or satisfies(agenda, js)
        )
        judgments = {f"E{i}": {"safe": i % 2 == 0, "helpful": True, "give": i % 2 == 0}
                     for i in range(101)}
        agenda = {"atoms": ["safe", "helpful", "give"], "constraint": "give <-> (safe & helpful)"}
        profile = judgment_profile_from_json(json.dumps({"agenda": agenda, "judgments": judgments}))
        assert profile.num_evaluators == 101
        assert calls == list(judgments.values())

    def test_missing_key(self):
        with pytest.raises(ValueError, match="judgments"):
            judgment_profile_from_json('{"agenda": {"atoms": ["a"], "constraint": "a"}}')

    def test_agenda_missing_key(self):
        with pytest.raises(ValueError, match="constraint"):
            judgment_profile_from_json('{"agenda": {"atoms": ["a"]}, "judgments": {}}')


class TestWorstCases:
    """Inputs at the edges of what an agenda admits, each under a time bound."""

    def test_4001_evaluators_over_a_34_kb_constraint(self):
        # Each evaluator's check reads one bit of the agenda's truth table.
        # Walking the 24,000-node formula once per evaluator instead took
        # 12-23 s (2-vCPU VM, Python 3.11.7); this takes about 0.5 s.
        atoms = tuple("abcdefghijklmnopqrst")
        block = "&".join("(" + "&".join(f"({x}|!{y})" for y in atoms) + ")" for x in atoms)
        constraint = "|".join([f"({block})"] * 12)
        assert 33_000 < len(constraint) < 35_000
        judgments = {f"E{i}": dict.fromkeys(atoms, i % 2 == 0) for i in range(4001)}
        text = json.dumps({"agenda": {"atoms": atoms, "constraint": constraint},
                           "judgments": judgments})
        start = time.perf_counter()
        profile = judgment_profile_from_json(text)
        majority = majority_judgments(profile)
        assert time.perf_counter() - start < 2.0
        assert profile.num_evaluators == 4001
        assert majority == dict.fromkeys(atoms, True)
        assert check_consistency(majority, profile.agenda)

    def test_refusing_a_1_mb_chain_stays_fast(self):
        # Past the nesting cap the parser reads on for syntax errors only and
        # builds no more tables: about 0.5 s (2-vCPU VM, Python 3.11.7).  One
        # table operation per connective took 2.2-2.4 s.
        atoms = tuple(f"x{i}" for i in range(20))
        constraint = " & ".join(atoms[i % 20] for i in range(190_000))
        assert len(constraint) > 1_000_000
        start = time.perf_counter()
        with pytest.raises(ConstraintSyntaxError) as info:
            Agenda(atoms, constraint)
        assert time.perf_counter() - start < 1.5
        assert str(info.value) == f"constraint nests deeper than {MAX_CONSTRAINT_DEPTH} levels"
