"""Tests for ballot parsing, margin matrices, and cycle detection."""

import itertools
import random
import sys

import pytest

from socialchoice.profiles import (
    BallotParseError,
    OrdinalProfile,
    RankingBallot,
    detect_cycles,
    margin_matrix,
    parse_profile,
    profile_from_rankings,
)

# Three-way example used throughout: 23 voters over {A, B, C}.
THREE_WAY = """\
# 23 voters, three responses
alternatives: A, B, C
4: A > B > C
4: A > C > B
9: B > C > A
4: C > A > B
2: C > B > A
"""

# Perfectly symmetric rotation: every pairwise margin is +1.
ROTATION = ["A > B > C", "C > A > B", "B > C > A"]


def rotation_profile():
    return profile_from_rankings(
        [tuple(r.split(" > ")) for r in ROTATION], alternatives=("A", "B", "C")
    )


class TestParsing:
    def test_three_way_counts(self):
        profile = parse_profile(THREE_WAY)
        assert profile.alternatives == ("A", "B", "C")
        assert profile.num_voters == 23
        assert profile.ballots[0] == RankingBallot(("A", "B", "C"), 4)

    def test_whitespace_and_comments_ignored(self):
        text = "#c\n\n  alternatives:  A ,B\n # another\n  2 :  B>A  \n"
        profile = parse_profile(text)
        assert profile.alternatives == ("A", "B")
        assert profile.ballots == (RankingBallot(("B", "A"), 2),)

    def test_missing_header(self):
        with pytest.raises(BallotParseError, match="line 1"):
            parse_profile("1: A > B\n")

    def test_incomplete_ranking_rejected(self):
        with pytest.raises(BallotParseError, match="missing"):
            parse_profile("alternatives: A, B, C\n1: A > B\n")

    def test_duplicate_in_ranking_rejected(self):
        with pytest.raises(BallotParseError, match="twice"):
            parse_profile("alternatives: A, B\n1: A > A\n")

    def test_unknown_alternative_rejected(self):
        with pytest.raises(BallotParseError, match="line 2.*unknown"):
            parse_profile("alternatives: A, B\n3: A > Z\n")

    def test_zero_count_rejected(self):
        with pytest.raises(BallotParseError, match="positive"):
            parse_profile("alternatives: A, B\n0: A > B\n")

    def test_non_integer_count_rejected(self):
        with pytest.raises(BallotParseError, match="line 2"):
            parse_profile("alternatives: A, B\nx: A > B\n")

    def test_empty_file_rejected(self):
        with pytest.raises(BallotParseError, match="header"):
            parse_profile("# nothing here\n")

    def test_header_without_ballots_rejected(self):
        with pytest.raises(BallotParseError, match="ballot"):
            parse_profile("alternatives: A, B\n")

    def test_id_with_angle_bracket_rejected(self):
        with pytest.raises(BallotParseError):
            OrdinalProfile(("A>B", "C"), (RankingBallot(("A>B", "C")),))

    def test_error_names_first_bad_line_after_repeated_valid_lines(self):
        text = "alternatives: A, B\n1: A > B\n2: A > B\n1: B>A\n1: A > A\n1: A > A\n"
        with pytest.raises(BallotParseError, match=r"^line 5: alternative 'A' appears twice"):
            parse_profile(text)

    def test_repeated_ranking_text_shares_one_ranking(self):
        profile = parse_profile("alternatives: A, B\n1: B > A\n2: B > A\n1: B>A\n")
        first, second, third = (b.ranking for b in profile.ballots)
        assert first is second
        assert first == third == ("B", "A")


class TestRepeatedLines:
    """Which line an error names when a file repeats lines byte for byte."""

    @staticmethod
    def message(text):
        with pytest.raises(BallotParseError) as exc:
            parse_profile(text)
        return str(exc.value)

    def test_repeated_header_fails_at_its_second_occurrence(self):
        text = "alternatives: A, B\n1: A > B\n# again\nalternatives: A, B\n1: B > A\n"
        assert self.message(text) == (
            "line 4: ballot count must be a positive integer, got 'alternatives'"
        )

    def test_repeated_header_before_a_bad_line_fails_first(self):
        text = "alternatives: A, B\n1: A > B\nalternatives: A, B\n1: A > Z\n"
        assert self.message(text) == (
            "line 3: ballot count must be a positive integer, got 'alternatives'"
        )

    def test_bad_line_before_a_repeated_header_fails_first(self):
        text = "alternatives: A, B\n1: A > B\n1: A > Z\nalternatives: A, B\n"
        assert self.message(text) == "line 3: unknown alternative 'Z'"

    def test_repeated_bad_line_names_its_first_occurrence(self):
        text = "alternatives: A, B\n2: B > A\n" + "1: A > A\n2: B > A\n" * 300
        assert self.message(text) == "line 3: alternative 'A' appears twice in ranking"

    def test_repeated_bad_count_names_its_first_occurrence(self):
        text = "alternatives: A, B\n1: A > B\n" + "0: B > A\n" * 50
        assert self.message(text) == "line 3: ballot count must be positive"

    def test_bad_line_after_many_good_repeats(self):
        text = "alternatives: A, B, C\n" + "3: A > B > C\n" * 1000 + "1: C > B\n" + "1: C > B\n"
        assert self.message(text) == (
            "line 1002: ranking is missing alternative(s) ['A']; rankings must be complete"
        )

    def test_crlf_line_endings(self):
        profile = parse_profile("alternatives: A, B\r\n2: A > B\r\n\r\n1: B > A\r\n2: A > B\r\n")
        assert profile.alternatives == ("A", "B")
        assert profile.ballots == (
            RankingBallot(("A", "B"), 2), RankingBallot(("B", "A"), 1), RankingBallot(("A", "B"), 2)
        )
        assert profile.merged == (RankingBallot(("A", "B"), 4), RankingBallot(("B", "A"), 1))
        assert self.message("alternatives: A, B\r\n1: A > B\r\n1: A\r\n") == (
            "line 3: ranking is missing alternative(s) ['B']; rankings must be complete"
        )

    def test_differently_spaced_ranking_merges_into_one_entry(self):
        text = "alternatives: A, B, C\n1: A > B > C\n2: A>B>C\n1: C > B > A\n3:  A >B>  C \n"
        profile = parse_profile(text)
        assert profile.merged == (
            RankingBallot(("A", "B", "C"), 6), RankingBallot(("C", "B", "A"), 1)
        )
        assert [b.weight for b in profile.ballots] == [1, 2, 1, 3]
        assert profile.num_voters == 7
        assert profile.unit_rankings().count(("A", "B", "C")) == 6


class TestProfileValidation:
    def test_duplicate_alternatives_rejected(self):
        with pytest.raises(BallotParseError, match="duplicate"):
            OrdinalProfile(("A", "A"), (RankingBallot(("A", "A")),))

    def test_ballot_must_cover_all_alternatives(self):
        with pytest.raises(BallotParseError, match="omits"):
            OrdinalProfile(("A", "B"), (RankingBallot(("A",)),))

    def test_first_offending_ballot_is_reported(self):
        ballots = (
            RankingBallot(("A", "B", "C")),
            RankingBallot(("A", "B")),
            RankingBallot(("A", "B", "Z")),
            RankingBallot(("A", "B")),
        )
        with pytest.raises(BallotParseError, match=r"^ballot \('A', 'B'\) omits .*\['C'\]"):
            OrdinalProfile(("A", "B", "C"), ballots)
        with pytest.raises(BallotParseError, match=r"unknown alternative\(s\) \['Z'\]"):
            OrdinalProfile(("A", "B", "C"), ballots[2:3] + ballots[:2])

    def test_parsed_profile_is_not_checked_again(self, monkeypatch):
        def check_again(profile):
            raise AssertionError("a parsed profile went through the checking constructor")

        monkeypatch.setattr(OrdinalProfile, "__post_init__", check_again)
        profile = parse_profile(THREE_WAY + "4: A > B > C\n")
        assert profile.merged[0] == RankingBallot(("A", "B", "C"), 8)
        assert profile.num_voters == 27

    def test_unit_rankings_expand_weights(self):
        profile = parse_profile("alternatives: A, B\n2: A > B\n1: B > A\n")
        assert profile.unit_rankings() == (("A", "B"), ("A", "B"), ("B", "A"))


class TestMarginMatrix:
    def test_three_way_margins(self):
        # Frozen tallies: A beats B 12-11, B beats C 13-10, C beats A 15-8.
        matrix = margin_matrix(parse_profile(THREE_WAY))
        assert matrix.margin("A", "B") == 1
        assert matrix.margin("B", "C") == 3
        assert matrix.margin("C", "A") == 7

    def test_antisymmetry_and_parity(self):
        rng = random.Random(7)
        for _ in range(40):
            m = rng.randint(1, 5)
            alts = tuple(f"x{i}" for i in range(m))
            n = rng.randint(1, 9)
            rankings = [tuple(rng.sample(alts, m)) for _ in range(n)]
            matrix = margin_matrix(profile_from_rankings(rankings, alts))
            for i in range(m):
                assert matrix.entries[i][i] == 0
                for j in range(m):
                    assert matrix.entries[i][j] == -matrix.entries[j][i]
                    if i != j:
                        assert (matrix.entries[i][j] - n) % 2 == 0


def brute_force_cycles(matrix):
    """All elementary majority cycles by trying every rotation-canonical tuple."""
    alts = matrix.alternatives
    found = set()
    for size in range(3, len(alts) + 1):
        for combo in itertools.combinations(sorted(alts), size):
            first = combo[0]
            for rest in itertools.permutations(combo[1:]):
                cyc = (first,) + rest
                edges = list(zip(cyc, cyc[1:] + (first,)))
                if all(matrix.margin(a, b) > 0 for a, b in edges):
                    found.add(cyc)
    return sorted(found, key=lambda c: (len(c), c))


class TestCycles:
    def test_three_way_has_cycle_and_no_condorcet_winner(self):
        report = detect_cycles(margin_matrix(parse_profile(THREE_WAY)))
        assert not report.has_condorcet_winner
        assert report.condorcet_winner is None
        assert report.cycles == (("A", "B", "C"),)

    def test_rotation_profile_cycles(self):
        report = detect_cycles(margin_matrix(rotation_profile()))
        assert report.cycles == (("A", "B", "C"),)

    def test_condorcet_winner_found(self):
        profile = parse_profile("alternatives: A, B, C\n2: B > A > C\n1: A > C > B\n")
        report = detect_cycles(margin_matrix(profile))
        assert report.has_condorcet_winner
        assert report.condorcet_winner == "B"
        assert report.cycles == ()

    def test_single_alternative(self):
        profile = parse_profile("alternatives: A\n3: A\n")
        report = detect_cycles(margin_matrix(profile))
        assert report.condorcet_winner == "A"
        assert report.cycles == ()

    def test_cycles_canonical_start_and_order(self):
        report = detect_cycles(margin_matrix(rotation_profile()))
        for cyc in report.cycles:
            assert cyc[0] == min(cyc)

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(31)
        for _ in range(30):
            m = rng.randint(3, 5)
            alts = tuple(sorted(rng.sample("ABCDEFGH", m)))
            n = rng.choice([3, 5, 7])
            rankings = [tuple(rng.sample(alts, m)) for _ in range(n)]
            matrix = margin_matrix(profile_from_rankings(rankings, alts))
            report = detect_cycles(matrix)
            assert list(report.cycles) == brute_force_cycles(matrix)

    def test_witness_mode_beyond_cap(self):
        # 9 alternatives in one big rotation: enumeration would be huge, a
        # witness cycle must still come back.
        alts = tuple(f"a{i}" for i in range(9))
        rankings = [alts[i:] + alts[:i] for i in range(9)]
        matrix = margin_matrix(profile_from_rankings(rankings, alts))
        report = detect_cycles(matrix)
        assert not report.has_condorcet_winner
        assert len(report.cycles) == 1
        cyc = report.cycles[0]
        for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
            assert matrix.margin(a, b) > 0


class TestParserHeaderAndLineErrors:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("alternatives:\n1: A\n", "line 1: empty alternative list"),
            ("# ids\nalternatives: A, B>C\n1: A > B>C\n",
             "line 2: alternative id 'B>C' contains forbidden character '>'"),
            ("alternatives: A, B C\n", "line 1: alternative id 'B C' contains whitespace"),
            ("alternatives: A, B, A\n1: A > B\n", "line 1: duplicate alternative id in header"),
            ("alternatives: A, B\n\nA > B\n", "line 3: expected 'COUNT: X > Y > ...'"),
            # Counts that int() cannot read, single-spaced and not.
            ("alternatives: A, B\n\u00b2: A > B\n",
             "line 2: ballot count must be a positive integer, got '\u00b2'"),
            ("alternatives: A, B\n\u00b2:A>B\n",
             "line 2: ballot count must be a positive integer, got '\u00b2'"),
            pytest.param("alternatives: A, B\n" + "9" * 5000 + ": A > B\n",
                         "line 2: ballot count has more than 4300 digits", id="5000-digits"),
            pytest.param("alternatives: A, B\n1: B > A\n" + "0" * 4300 + "1:A>B\n",
                         "line 3: ballot count has more than 4300 digits", id="4301-digits"),
        ],
    )
    def test_message_names_the_line(self, text, message):
        with pytest.raises(BallotParseError) as exc:
            parse_profile(text)
        assert str(exc.value) == message

    def test_counts_read_every_decimal_digit_int_reads(self):
        # Arabic-Indic three, and a count at the integer-string limit.
        text = "alternatives: A, B\n\u0663: A > B\n" + "0" * 4299 + "2: B > A\n"
        assert parse_profile(text).merged == (
            RankingBallot(("A", "B"), 3), RankingBallot(("B", "A"), 2)
        )

    def test_count_past_a_lifted_digit_limit_parses(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            profile = parse_profile("alternatives: A, B\n" + "9" * 5000 + ": A > B\n")
        finally:
            sys.set_int_max_str_digits(limit)
        assert profile.num_voters == 10**5000 - 1


BALLOT_FAULTS = [
    (("A", "B", "C"), 0, "ballot weight must be a positive integer, got 0"),
    (("A", "B", "C"), True, "ballot weight must be a positive integer, got True"),
    (("A", "B", "C"), 1.5, "ballot weight must be a positive integer, got 1.5"),
    (("A", "A", "C"), 1, "duplicate alternative in ranking ('A', 'A', 'C')"),
    (("A", "B", "Z"), 1, "ballot ('A', 'B', 'Z') ranks unknown alternative(s) ['Z']"),
    (("A", "B"), 1, "ballot ('A', 'B') omits alternative(s) ['C']; rankings must be complete"),
]


class TestBallotFaults:
    """The profile is the one place ballots are checked; a PromptCase jury goes through it."""

    @pytest.mark.parametrize("ranking, weight, message", BALLOT_FAULTS)
    def test_profile_reports_the_fault(self, ranking, weight, message):
        ballots = (RankingBallot(("C", "B", "A"), 2), RankingBallot(ranking, weight))
        with pytest.raises(BallotParseError) as exc:
            OrdinalProfile(("A", "B", "C"), ballots)
        assert str(exc.value) == message

    @pytest.mark.parametrize("ranking, weight, message", BALLOT_FAULTS)
    def test_prompt_case_reports_the_fault(self, ranking, weight, message):
        from socialchoice.pipeline import PromptCase
        from socialchoice.simulation import ResponseRecord

        responses = [ResponseRecord(a, a, (1.0,)) for a in "ABC"]
        ballots = (RankingBallot(ranking, weight), RankingBallot(("C", "B", "A"), 2))
        with pytest.raises(BallotParseError) as exc:
            PromptCase("p", responses, ballots)
        assert str(exc.value) == message

    def test_ballot_record_checks_nothing(self):
        assert RankingBallot(("A", "A"), 0) == (("A", "A"), 0)
