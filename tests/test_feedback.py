"""Tests for the feedback grammar, constraint compilation, and rating interpretation."""

import random

import pytest

from socialchoice.feedback import (
    Approve,
    Disapprove,
    FeedbackInconsistencyError,
    FeedbackParseError,
    IntervalRating,
    Pairwise,
    PartialPreference,
    PointRating,
    Ranking,
    compile_constraints,
    format_statement,
    interpret_rating,
    parse_feedback,
)

CONTEXT = ("A", "B", "C", "D")


class TestParsing:
    def test_interval_statement(self):
        stmts = parse_feedback("I rate A between 7 and 9", CONTEXT)
        assert stmts == (IntervalRating("A", 7.0, 9.0),)

    def test_approval_statements(self):
        assert parse_feedback("approve A", CONTEXT) == (Approve("A"),)
        assert parse_feedback("disapprove B", CONTEXT) == (Disapprove("B"),)

    def test_pairwise(self):
        assert parse_feedback("A > B", CONTEXT) == (Pairwise("A", "B"),)
        assert parse_feedback("A>B", CONTEXT) == (Pairwise("A", "B"),)

    def test_rank_chain(self):
        assert parse_feedback("rank A > B > C", CONTEXT) == (Ranking(("A", "B", "C")),)

    def test_point_rating(self):
        assert parse_feedback("rate B = 4.5", CONTEXT) == (PointRating("B", 4.5),)

    def test_keywords_case_insensitive_ids_not(self):
        assert parse_feedback("APPROVE A", CONTEXT) == (Approve("A"),)
        assert parse_feedback("i RATE A BETWEEN 1 AND 2", CONTEXT) == (
            IntervalRating("A", 1.0, 2.0),
        )
        with pytest.raises(FeedbackParseError, match="unknown"):
            parse_feedback("approve a", CONTEXT)

    def test_comments_blanks_and_order(self):
        text = "# header\n\napprove A\n  rank B > C  \n"
        assert parse_feedback(text, CONTEXT) == (Approve("A"), Ranking(("B", "C")))

    def test_errors_carry_line_numbers(self):
        with pytest.raises(FeedbackParseError, match="line 3"):
            parse_feedback("approve A\n# ok\nscore B at 9\n", CONTEXT)

    def test_unknown_alternative(self):
        with pytest.raises(FeedbackParseError, match="line 1.*Z"):
            parse_feedback("A > Z", CONTEXT)

    def test_off_scale_value(self):
        with pytest.raises(FeedbackParseError, match="scale"):
            parse_feedback("rate A = 11", CONTEXT)
        with pytest.raises(FeedbackParseError, match="scale"):
            parse_feedback("rate A = -1", CONTEXT)

    def test_backwards_interval(self):
        with pytest.raises(FeedbackParseError, match="empty interval"):
            parse_feedback("I rate A between 9 and 7", CONTEXT)

    def test_short_or_duplicated_rankings(self):
        with pytest.raises(FeedbackParseError, match="at least two"):
            parse_feedback("rank A", CONTEXT)
        with pytest.raises(FeedbackParseError, match="duplicate"):
            parse_feedback("rank A > B > A", CONTEXT)

    def test_self_comparison(self):
        with pytest.raises(FeedbackParseError, match="itself"):
            parse_feedback("A > A", CONTEXT)

    def test_format_parse_round_trip(self):
        statements = (
            Approve("A"),
            Disapprove("B"),
            Pairwise("A", "C"),
            Ranking(("C", "A", "D")),
            PointRating("B", 4.5),
            PointRating("C", 7.0),
            IntervalRating("A", 7.0, 9.0),
            IntervalRating("D", 0.5, 9.25),
        )
        for stmt in statements:
            assert parse_feedback(format_statement(stmt), CONTEXT) == (stmt,)


class TestCompile:
    def test_transitive_closure(self):
        pp = compile_constraints((Pairwise("A", "B"), Pairwise("B", "C")))
        assert pp.strict_order == frozenset({("A", "B"), ("B", "C"), ("A", "C")})

    def test_interval_and_approval_intersect(self):
        pp = compile_constraints((IntervalRating("A", 7, 9), Approve("A")))
        assert pp.bounds == {"A": (8.0, 9.0)}

    def test_cycle_detected(self):
        with pytest.raises(FeedbackInconsistencyError, match="cycle"):
            compile_constraints((Pairwise("A", "B"), Pairwise("B", "A")))
        with pytest.raises(FeedbackInconsistencyError, match="cycle"):
            compile_constraints(
                (Pairwise("A", "B"), Pairwise("B", "C"), Pairwise("C", "A"))
            )

    def test_empty_intersection_reported_before_a_cycle(self):
        # Bounds intersect while the statements are read; the order is closed
        # and checked for cycles only when the partial preference is built.
        with pytest.raises(FeedbackInconsistencyError, match="empty intersection"):
            compile_constraints(
                (Pairwise("A", "B"), Pairwise("B", "A"), PointRating("C", 1), PointRating("C", 2))
            )

    def test_empty_intersection_names_statements(self):
        with pytest.raises(FeedbackInconsistencyError, match="approve A.*disapprove A"):
            compile_constraints((Approve("A"), Disapprove("A")))

    def test_bounds_conflicting_with_order(self):
        with pytest.raises(FeedbackInconsistencyError, match="order"):
            compile_constraints(
                (Pairwise("A", "B"), PointRating("A", 3), PointRating("B", 5))
            )

    def test_idempotent_under_duplication(self):
        statements = (
            Approve("A"),
            Ranking(("A", "B", "C")),
            IntervalRating("B", 2, 6),
        )
        assert compile_constraints(statements) == compile_constraints(statements * 3)

    def test_rankings_and_pairwise_mix(self):
        pp = compile_constraints((Ranking(("A", "B")), Pairwise("B", "D")))
        assert ("A", "D") in pp.strict_order

    def test_approve_and_disapprove_defaults(self):
        pp = compile_constraints((Approve("A"), Disapprove("B")))
        assert pp.bounds == {"A": (8.0, 10.0), "B": (0.0, 2.0)}


class TestInterpretRating:
    def test_bounds_midpoint(self):
        pp = compile_constraints((IntervalRating("A", 7, 9),))
        assert interpret_rating(pp, "A", CONTEXT) == 8.0

    def test_order_dominance_scores(self):
        pp = compile_constraints((Ranking(("A", "B", "C")),))
        assert interpret_rating(pp, "A", CONTEXT) == 10.0
        assert interpret_rating(pp, "B", CONTEXT) == 5.0
        assert interpret_rating(pp, "C", CONTEXT) == 0.0

    def test_unconstrained_defaults_to_midpoint(self):
        pp = compile_constraints((Ranking(("A", "B", "C")),))
        assert interpret_rating(pp, "D", CONTEXT) == 5.0

    def test_bounds_take_precedence_over_order(self):
        pp = compile_constraints((Ranking(("A", "B")), PointRating("A", 9)))
        assert interpret_rating(pp, "A", CONTEXT) == 9.0

    def test_out_of_context_query_rejected(self):
        pp = compile_constraints(())
        with pytest.raises(ValueError, match="context"):
            interpret_rating(pp, "Z", CONTEXT)

    def test_monotone_with_order(self):
        rng = random.Random(21)
        for _ in range(25):
            alts = tuple(sorted(rng.sample("ABCDEFG", rng.randint(2, 6))))
            chains = []
            for _ in range(rng.randint(1, 3)):
                size = rng.randint(2, len(alts))
                chains.append(Ranking(tuple(rng.sample(alts, size))))
            try:
                pp = compile_constraints(tuple(chains))
            except FeedbackInconsistencyError:
                continue
            ratings = {a: interpret_rating(pp, a, alts) for a in alts}
            for a, b in pp.strict_order:
                assert ratings[a] > ratings[b]
            for value in ratings.values():
                assert 0.0 <= value <= 10.0


class TestPartialPreferenceValidation:
    def test_must_be_transitively_closed(self):
        pp = PartialPreference(frozenset({("A", "B"), ("B", "C")}), {})
        assert pp.strict_order == frozenset({("A", "B"), ("B", "C"), ("A", "C")})

    def test_rejects_cycles(self):
        with pytest.raises(FeedbackInconsistencyError, match="cycle"):
            PartialPreference(frozenset({("A", "B"), ("B", "A")}), {})
