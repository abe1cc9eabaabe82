"""The `.vote` parser against the line-by-line parser it replaced.

`parse_profile` reads each distinct line once and builds the merged profile
as it goes.  `reference_parse` below is the parser it replaced: it reads the
file one line at a time, stops at the first bad line, and hands every ballot
to the public `OrdinalProfile` constructor, which merges them.  On every
text the two must give equal alternatives, merged rankings and file-order
ballots, or raise the same exception type with the same message.

The texts are valid weighted files (repeated lines, the same ranking in
differently spaced text, comments and blank lines, LF, CRLF or CR line
ends), then the same files with lines and bytes mutated: a repeated or moved
header, zero, non-digit and huge counts, unknown, duplicate and missing ids,
empty tokens, lost separators and edited bytes.

The reference's one departure from the old parser is its count check: like
`parse_profile`, it takes exactly the digits `int()` reads and locates a
count longer than Python's integer-string limit, where the old parser let
`int()` raise its own unlocated message.
"""

from __future__ import annotations

import sys
from typing import NoReturn

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from socialchoice.profiles import (
    BallotParseError,
    OrdinalProfile,
    RankingBallot,
    parse_profile,
    validate_alternative_id,
)

FUZZ = settings(
    derandomize=True,
    deadline=None,
    max_examples=400,
    suppress_health_check=[HealthCheck.too_slow],
)


def _reference_ranking_error(
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


def reference_parse(text: str) -> OrdinalProfile:
    """Parse a `.vote` file one line at a time; the profile merges the ballots."""
    alternatives: tuple[str, ...] | None = None
    ballots: list[RankingBallot] = []
    distinct: dict[str, tuple[str, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if alternatives is None:
            if not line.startswith("alternatives:"):
                raise BallotParseError(
                    "expected header 'alternatives: ...' before any ballot line", lineno
                )
            tokens = [t.strip() for t in line[len("alternatives:"):].split(",")]
            if tokens == [""]:
                raise BallotParseError("empty alternative list", lineno)
            try:
                alts = tuple(validate_alternative_id(t) for t in tokens)
            except BallotParseError as exc:
                raise BallotParseError(str(exc), lineno) from None
            if len(set(alts)) != len(alts):
                raise BallotParseError("duplicate alternative id in header", lineno)
            alternatives = alts
            alt_set = set(alts)
            header_ids = {a: a for a in alts}
            continue
        count_part, sep, ranking_part = line.partition(":")
        if not sep:
            raise BallotParseError("expected 'COUNT: X > Y > ...'", lineno)
        count_token = count_part.strip()
        if not count_token.isdecimal():
            raise BallotParseError(
                f"ballot count must be a positive integer, got {count_token!r}", lineno
            )
        limit = sys.get_int_max_str_digits()
        if limit and len(count_token) > limit:
            raise BallotParseError(f"ballot count has more than {limit} digits", lineno)
        count = int(count_token)
        if count < 1:
            raise BallotParseError("ballot count must be positive", lineno)
        ranking = distinct.get(ranking_part)
        if ranking is None:
            tokens = tuple(map(str.strip, ranking_part.split(">")))
            if len(tokens) != len(alternatives) or set(tokens) != alt_set:
                _reference_ranking_error(tokens, alternatives, lineno)
            ranking = distinct[ranking_part] = tuple(map(header_ids.__getitem__, tokens))
        ballots.append(RankingBallot(ranking, count))
    if alternatives is None:
        raise BallotParseError("no 'alternatives:' header found")
    if not ballots:
        raise BallotParseError("no ballot lines found")
    return OrdinalProfile(alternatives, tuple(ballots))


def outcome(parse, text: str):
    try:
        profile = parse(text)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return profile.alternatives, profile.merged, profile.ballots


IDS = ("A", "B", "C", "D", "E", "x1", "long_id")
SEPARATORS = (" > ", ">", " >", "> ", "  >\t")
COUNTS = ("1", "1", "2", "3", "10", "007", "123456789012345678901234567890")
BAD_COUNTS = ("0", "00", "x", "-1", "1.5", "", " ", "²", "٣", "9" * 5000)
ENDINGS = ("\n", "\r\n", "\r")
# Characters that edited bytes are drawn from: the format's own punctuation,
# whitespace and line breaks, ids, digits and two non-ASCII characters.
ALPHABET = ":>,# \t\r\n\x0cABZx10é "


@st.composite
def valid_files(draw) -> list[str]:
    """The lines of a valid weighted file with repeats, comments and blank lines."""
    m = draw(st.integers(1, 5))
    alts = draw(st.permutations(IDS))[:m]
    comma = draw(st.sampled_from((", ", ",", " , ")))
    header = draw(st.sampled_from(("alternatives: {}", "alternatives:{}", "  alternatives: {} ")))
    pool = draw(st.lists(st.permutations(alts), min_size=1, max_size=4))

    def ballot():
        sep = draw(st.sampled_from(SEPARATORS))
        pad = draw(st.sampled_from(("", " ", "  ")))
        return f"{pad}{draw(st.sampled_from(COUNTS))}:{pad} {sep.join(draw(st.sampled_from(pool)))}"

    body = [ballot()]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 7))
        if kind == 0:
            body.append(draw(st.sampled_from(("# a comment", "#", "  # indented"))))
        elif kind == 1:
            body.append(draw(st.sampled_from(("", "  ", "\t"))))
        else:
            body.append(ballot())
    # Byte-identical repeats of lines already drawn, anywhere after the header.
    for _ in range(draw(st.integers(0, 8))):
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(body)))
    lead = draw(st.lists(st.sampled_from(("# lead", "", "   ")), max_size=2))
    return [*lead, header.format(comma.join(alts)), *body]


def _ballot_indices(lines: list[str]) -> list[int]:
    return [i for i, line in enumerate(lines) if ":" in line and not line.strip().startswith(("#", "alt"))]


@st.composite
def mutated_files(draw) -> list[str]:
    """A valid file with one to three line mutations."""
    lines = draw(valid_files())
    header_at = next(i for i, line in enumerate(lines) if "alternatives:" in line)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.integers(0, 6))
        ballots = _ballot_indices(lines)
        if kind == 0:  # a copy of the header, anywhere
            lines.insert(draw(st.integers(0, len(lines))), lines[header_at])
        elif kind == 1:  # the header moved
            header = lines.pop(header_at)
            lines.insert(draw(st.integers(0, len(lines))), header)
        elif kind == 2 and ballots:  # a bad count
            at = draw(st.sampled_from(ballots))
            lines[at] = draw(st.sampled_from(BAD_COUNTS)) + ":" + lines[at].partition(":")[2]
        elif kind == 3 and ballots:  # a bad ranking
            at = draw(st.sampled_from(ballots))
            count, _, ranking = lines[at].partition(":")
            tokens = ranking.split(">")
            edit = draw(st.integers(0, 4))
            if edit == 0:
                tokens[draw(st.integers(0, len(tokens) - 1))] = " Z "
            elif edit == 1:
                tokens.append(draw(st.sampled_from(tokens)))
            elif edit == 2:
                del tokens[draw(st.integers(0, len(tokens) - 1))]
            elif edit == 3:
                tokens.insert(draw(st.integers(0, len(tokens))), " ")
            else:
                count = count + ">"
            lines[at] = count + ":" + ">".join(tokens)
        elif kind == 4 and ballots:  # the colon lost
            at = draw(st.sampled_from(ballots))
            lines[at] = lines[at].replace(":", " ", 1)
        elif kind == 5 and lines:  # one line repeated many times
            at = draw(st.integers(0, len(lines) - 1))
            lines[at:at + 1] = [lines[at]] * draw(st.integers(2, 60))
        else:  # the header dropped
            lines = [line for line in lines if "alternatives:" not in line] or [""]
        header_at = next((i for i, line in enumerate(lines) if "alternatives:" in line), 0)
    return lines


@st.composite
def edited_bytes(draw) -> str:
    """A valid file's text with characters replaced, inserted or deleted."""
    text = draw(texts(valid_files()))
    chars = list(text)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(chars)))
        new = draw(st.text(ALPHABET, max_size=2))
        chars[at:at + draw(st.integers(0, 1))] = new
    return "".join(chars)


def texts(files):
    """Join each file's lines with one line ending, with or without a final one."""
    return st.tuples(files, st.sampled_from(ENDINGS), st.booleans()).map(
        lambda t: t[1].join(t[0]) + (t[1] if t[2] else "")
    )


def assert_same(text: str) -> None:
    assert outcome(parse_profile, text) == outcome(reference_parse, text)


@FUZZ
@given(texts(valid_files()))
def test_valid_files_parse_alike(text):
    profile = parse_profile(text)
    assert (profile.alternatives, profile.merged, profile.ballots) == outcome(reference_parse, text)


@FUZZ
@given(texts(mutated_files()))
def test_mutated_lines_fail_alike(text):
    assert_same(text)


@FUZZ
@given(edited_bytes())
def test_edited_bytes_fail_alike(text):
    assert_same(text)


def test_repeated_header_after_bad_line_is_not_reported():
    text = "alternatives: A, B\n" + "1: A > B\n" * 5 + "1: B > Z\n" + "alternatives: A, B\n"
    assert outcome(parse_profile, text) == outcome(reference_parse, text) == (
        BallotParseError, "line 7: unknown alternative 'Z'"
    )
