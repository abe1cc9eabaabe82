"""A small formal grammar for heterogeneous feedback, compiled to preference constraints.

Statements (one per line, '#' comments, keywords case-insensitive, ids not):

    approve ID
    disapprove ID
    ID > ID
    rank ID > ID (> ID)*
    rate ID = NUM
    I rate ID between NUM and NUM

This is the deterministic stand-in for a learned interpreter of free-form
feedback: anything outside the grammar is rejected, never guessed.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .rules import RATING_MAX, RATING_MIN


class FeedbackParseError(ValueError):
    """A feedback line violated the grammar or referenced an unknown alternative."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FeedbackInconsistencyError(ValueError):
    """Statements jointly admit no rating assignment."""


def _check_scale(value: float) -> float:
    if not RATING_MIN <= value <= RATING_MAX:
        raise FeedbackParseError(f"rating {value} outside the [0, 10] scale")
    return float(value)


@dataclass(frozen=True)
class Approve:
    alt: str


@dataclass(frozen=True)
class Disapprove:
    alt: str


@dataclass(frozen=True)
class Pairwise:
    better: str
    worse: str

    def __post_init__(self):
        if self.better == self.worse:
            raise FeedbackParseError(f"cannot compare {self.better!r} with itself")


@dataclass(frozen=True)
class Ranking:
    alts: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "alts", tuple(self.alts))
        if len(self.alts) < 2:
            raise FeedbackParseError("a ranking needs at least two alternatives")
        if len(set(self.alts)) != len(self.alts):
            raise FeedbackParseError(f"duplicate alternative in ranking {self.alts}")


@dataclass(frozen=True)
class IntervalRating:
    alt: str
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", _check_scale(self.lo))
        object.__setattr__(self, "hi", _check_scale(self.hi))
        if self.lo > self.hi:
            raise FeedbackParseError(f"empty interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class PointRating:
    alt: str
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _check_scale(self.value))


FeedbackStatement = Approve | Disapprove | Pairwise | Ranking | IntervalRating | PointRating

_NUM = r"-?\d+(?:\.\d+)?"
_APPROVAL_RE = re.compile(r"^(approve|disapprove)\s+(\S+)$", re.IGNORECASE)
_RANK_RE = re.compile(r"^rank\s+(.+)$", re.IGNORECASE)
_RATE_RE = re.compile(rf"^rate\s+(\S+)\s*=\s*({_NUM})$", re.IGNORECASE)
_INTERVAL_RE = re.compile(
    rf"^i\s+rate\s+(\S+)\s+between\s+({_NUM})\s+and\s+({_NUM})$", re.IGNORECASE
)
_PAIRWISE_RE = re.compile(r"^(\S+)\s*>\s*(\S+)$")


def _parse_line(line: str) -> FeedbackStatement:
    if match := _APPROVAL_RE.match(line):
        keyword, alt = match.groups()
        return Approve(alt) if keyword.lower() == "approve" else Disapprove(alt)
    if match := _INTERVAL_RE.match(line):
        alt, lo, hi = match.groups()
        return IntervalRating(alt, float(lo), float(hi))
    if match := _RATE_RE.match(line):
        alt, value = match.groups()
        return PointRating(alt, float(value))
    if match := _RANK_RE.match(line):
        alts = tuple(t.strip() for t in match.group(1).split(">"))
        if any(not t or " " in t for t in alts):
            raise FeedbackParseError(f"malformed ranking {match.group(1)!r}")
        return Ranking(alts)
    if match := _PAIRWISE_RE.match(line):
        return Pairwise(*match.groups())
    raise FeedbackParseError(f"cannot parse feedback statement {line!r}")


def _statement_alts(stmt: FeedbackStatement) -> tuple[str, ...]:
    if isinstance(stmt, Pairwise):
        return (stmt.better, stmt.worse)
    return stmt.alts if isinstance(stmt, Ranking) else (stmt.alt,)


def parse_feedback(text: str, context: tuple[str, ...]) -> tuple[FeedbackStatement, ...]:
    """Parse one statement per line, checking ids against the context."""
    known = set(context)
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            stmt = _parse_line(line)
        except FeedbackParseError as exc:
            raise FeedbackParseError(str(exc), lineno) from None
        unknown = [a for a in _statement_alts(stmt) if a not in known]
        if unknown:
            raise FeedbackParseError(f"unknown alternative(s) {unknown}", lineno)
        statements.append(stmt)
    return tuple(statements)


def _format_num(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def format_statement(stmt: FeedbackStatement) -> str:
    """Render a statement back into its grammar line."""
    match stmt:
        case Approve(alt):
            return f"approve {alt}"
        case Disapprove(alt):
            return f"disapprove {alt}"
        case Pairwise(better, worse):
            return f"{better} > {worse}"
        case Ranking(alts):
            return "rank " + " > ".join(alts)
        case PointRating(alt, value):
            return f"rate {alt} = {_format_num(value)}"
        case IntervalRating(alt, lo, hi):
            return f"I rate {alt} between {_format_num(lo)} and {_format_num(hi)}"
    raise AssertionError(f"unknown statement {stmt!r}")


# The closed order and the report grow with the square of the ids the order
# statements name, and the closure's time faster.  One `rank` line through
# `parse-feedback`, per process: 1,000 ids take 1.7-2.6 s and 104 MB peak RSS,
# 1,500 ids 3.9-5.7 s and 209 MB, 2,000 ids 6.7-8.7 s and 357 MB (2-vCPU VM
# shared with other load, Python 3.11.7).
MAX_ORDER_IDS = 1_000
APPROVE_BOUNDS = (8.0, 10.0)
DISAPPROVE_BOUNDS = (0.0, 2.0)


@dataclass(frozen=True)
class PartialPreference:
    """Compiled feedback: a strict order, closed transitively here, plus rating intervals.

    `order` holds the closed pairs sorted, `strict_order` as a set.  A cycle or bounds
    against it are refused naming the smallest ids involved, and more than
    MAX_ORDER_IDS ids before it is closed.
    """

    strict_order: frozenset[tuple[str, str]]
    bounds: dict[str, tuple[float, float]]

    def __post_init__(self):
        ids = sorted({x for pair in self.strict_order for x in pair})
        if len(ids) > MAX_ORDER_IDS:
            raise ValueError(
                f"order statements name {len(ids):,} ids, over the cap of {MAX_ORDER_IDS:,}"
            )
        rows = _transitive_closure(ids, self.strict_order)
        for i, row in enumerate(rows):
            if row >> i & 1:
                # The smallest other id on the cycle: it beats ids[i] and is beaten by it.
                j = next((j for j, r in enumerate(rows) if j != i and row >> j & r >> i & 1), i)
                raise FeedbackInconsistencyError(
                    f"order statements create a cycle involving {ids[i]!r} and {ids[j]!r}"
                )
        # bin(row) reversed has bit j at place j, so the pairs come out sorted.
        order = tuple((a, b) for a, row in zip(ids, rows)
                      for b, bit in zip(ids, bin(row)[:1:-1]) if bit == "1")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "strict_order", frozenset(order))
        object.__setattr__(
            self, "bounds", {a: (float(lo), float(hi)) for a, (lo, hi) in self.bounds.items()}
        )
        for alt, (lo, hi) in self.bounds.items():
            if not (RATING_MIN <= lo <= hi <= RATING_MAX):
                raise ValueError(f"invalid bounds [{lo}, {hi}] for {alt!r}")
        for a, b in order:
            if a in self.bounds and b in self.bounds and self.bounds[a][1] <= self.bounds[b][0]:
                raise FeedbackInconsistencyError(
                    f"bounds force {a!r} <= {b!r} but the order requires {a!r} > {b!r}"
                )

    @cached_property
    def _degrees(self) -> tuple[Counter[str], Counter[str]]:
        """How many ids each alternative beats, and is beaten by, counted over the order."""
        return Counter(a for a, _ in self.order), Counter(b for _, b in self.order)


def _transitive_closure(ids: list[str], pairs) -> list[int]:
    # One bitset per sorted id, bit j set when ids[i] beats ids[j] in the
    # closure, by Warshall's (1962) loop.
    index = {x: i for i, x in enumerate(ids)}
    rows = [0] * len(ids)
    for a, b in pairs:
        rows[index[a]] |= 1 << index[b]
    for mid in range(len(ids)):
        bit, through = 1 << mid, rows[mid]
        rows = [row | through if row & bit else row for row in rows]
    return rows


def compile_constraints(statements: tuple[FeedbackStatement, ...]) -> PartialPreference:
    """Fuse statements into one partial preference.

    Bound statements intersect per alternative, and an empty intersection raises
    with the statements that clash.  Then `PartialPreference` closes the order
    statements' pairs and refuses a cycle or bounds against the order.
    """
    pairs: set[tuple[str, str]] = set()
    for stmt in statements:
        if isinstance(stmt, Pairwise):
            pairs.add((stmt.better, stmt.worse))
        elif isinstance(stmt, Ranking):
            pairs.update(zip(stmt.alts, stmt.alts[1:]))

    bounds: dict[str, tuple[float, float]] = {}
    sources: dict[str, list[FeedbackStatement]] = {}
    for stmt in statements:
        if isinstance(stmt, Approve):
            interval = APPROVE_BOUNDS
        elif isinstance(stmt, Disapprove):
            interval = DISAPPROVE_BOUNDS
        elif isinstance(stmt, IntervalRating):
            interval = (stmt.lo, stmt.hi)
        elif isinstance(stmt, PointRating):
            interval = (stmt.value, stmt.value)
        else:
            continue
        alt = stmt.alt
        sources.setdefault(alt, []).append(stmt)
        if alt in bounds:
            lo = max(bounds[alt][0], interval[0])
            hi = min(bounds[alt][1], interval[1])
        else:
            lo, hi = interval
        if lo > hi:
            clashing = "; ".join(format_statement(s) for s in sources[alt])
            raise FeedbackInconsistencyError(
                f"ratings for {alt!r} have empty intersection across: {clashing}"
            )
        bounds[alt] = (lo, hi)
    return PartialPreference(frozenset(pairs), bounds)


def interpret_rating(pp: PartialPreference, y: str, context: tuple[str, ...]) -> float:
    """Map one alternative to a numeric rating on [0, 10].

    Bounded alternatives get their interval midpoint.  Alternatives appearing
    only in the order get 10 * d_below / (d_below + d_above), where d_below
    counts alternatives they beat and d_above those beating them in the
    closure.  Unconstrained alternatives default to the scale midpoint.
    """
    if y not in context:
        raise ValueError(f"alternative {y!r} not in context {list(context)}")
    if y in pp.bounds:
        lo, hi = pp.bounds[y]
        return (lo + hi) / 2
    below, above = pp._degrees
    d_below, d_above = below[y], above[y]
    if d_below + d_above == 0:
        return (RATING_MIN + RATING_MAX) / 2
    return RATING_MAX * d_below / (d_below + d_above)
