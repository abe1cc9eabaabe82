"""Majority judgment aggregation over a propositional agenda with a consistency constraint."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .jsonin import LocatedError, load

# A judgment set assigns every agenda atom a truth value.
JudgmentSet = dict[str, bool]

# An agenda's truth table has one bit per assignment, 2**20 bits at this cap,
# and every connective of the constraint costs one operation on it: a 99 KB
# constraint builds its table in 0.3-0.5 s (2-vCPU VM, Python 3.11.7).
MAX_AGENDA_ATOMS = 20
# A constraint nests at most this many levels: parentheses and '!'s open
# around any token, and connectives above any atom in the parsed formula (a
# chain 'a & b & c' is two levels).  Only '(' and '!' make the parser recurse,
# and the cap keeps that far from Python's recursion limit.  A chain costs no
# stack, yet its height stays capped as a stated limit of the input: lifting
# the cap for chains would change which constraints are refused.
MAX_CONSTRAINT_DEPTH = 100


class ConstraintError(LocatedError):
    """The constraint is not well-formed, names an undeclared atom or cannot hold."""

    keys = ("constraint",)


class ConstraintSyntaxError(ConstraintError):
    """The constraint formula text is not well-formed."""


# ---------------------------------------------------------------------------
# Constraint formulas.  Grammar (precedence ! > & > | > <->, all binary
# connectives left-associative):
#
#   iff   := or ('<->' or)*
#   or    := and ('|' and)*
#   and   := unary ('&' unary)*
#   unary := '!' unary | atom | '(' iff ')'
#
# The parser evaluates as it reads: a formula reads as its truth table, bit b
# set when assignment b satisfies it, and `true` has every assignment's bit set.

# A token is '<->', one of '!&|()' or an atom: a run of letters, digits
# (str.isalnum) and '_'.  Any other character but whitespace is group 1.
_ATOM = re.compile(r"\w+")
_TOKEN = re.compile(rf"<->|[!&|()]|{_ATOM.pattern}|(\S)")
# The binary connectives, loosest first, and their operations on truth tables.
_BINARY = (
    ("<->", lambda left, right, true: true ^ left ^ right),
    ("|", lambda left, right, true: left | right),
    ("&", lambda left, right, true: left & right),
)


def _too_deep() -> ConstraintSyntaxError:
    return ConstraintSyntaxError(f"constraint nests deeper than {MAX_CONSTRAINT_DEPTH} levels")


class _Parser:
    """Reads a constraint into (truth table, height); an undeclared atom's table is empty."""

    def __init__(self, text: str, masks: dict[str, int], true: int):
        # A first scan refuses an unexpected character before any other syntax
        # error; the parse then reads the tokens as it goes.
        for match in _TOKEN.finditer(text):
            if match[1]:
                raise ConstraintSyntaxError(f"unexpected character {match[1]!r} in constraint")
        self.tokens = (match[0] for match in _TOKEN.finditer(text))
        self.ahead = next(self.tokens, None)  # the next token; None at the end
        self.open = 0  # parentheses and '!'s open around the current token
        self.masks = masks
        self.true = true
        self.atoms: set[str] = set()

    def take(self) -> str:
        token = self.ahead
        if token is None:
            raise ConstraintSyntaxError("constraint ended unexpectedly")
        self.ahead = next(self.tokens, None)
        return token

    def parse(self) -> tuple[int, set[str]]:
        table, height = self.chain()
        if self.ahead is not None:
            raise ConstraintSyntaxError(f"unexpected token {self.ahead!r}")
        if height > MAX_CONSTRAINT_DEPTH:
            raise _too_deep()
        return table, self.atoms

    def chain(self, level: int = 0) -> tuple[int, int]:
        # The connective at `level` joining operands of the tighter levels.
        if level == len(_BINARY):
            return self.unary()
        symbol, op = _BINARY[level]
        read = self.chain(level + 1)
        while self.ahead == symbol:
            self.take()
            read = self.apply(op, read, self.chain(level + 1))
        return read

    def unary(self) -> tuple[int, int]:
        token = self.take()
        if token == "!":
            return self.apply(lambda table, true: true ^ table, self.nested(self.unary))
        if token == "(":
            read = self.nested(self.chain)
            if self.take() != ")":
                raise ConstraintSyntaxError("expected ')'")
            return read
        if token in {"&", "|", "<->", ")"}:
            raise ConstraintSyntaxError(f"unexpected token {token!r}")
        self.atoms.add(token)
        return self.masks.get(token, 0), 0

    def nested(self, parse) -> tuple[int, int]:
        self.open += 1
        if self.open > MAX_CONSTRAINT_DEPTH:
            raise _too_deep()
        read = parse()
        self.open -= 1
        return read

    def apply(self, op, *reads: tuple[int, int]) -> tuple[int, int]:
        # One connective above its operands' reads.  Past the cap the whole
        # parse is refused: read on for syntax errors only.
        height = max(height for _, height in reads) + 1
        if height > MAX_CONSTRAINT_DEPTH:
            return 0, height
        return op(*(table for table, _ in reads), self.true), height


@dataclass(frozen=True)
class Agenda:
    """An ordered set of atomic propositions plus a consistency constraint.

    The constraint is an infix formula over the atoms; every individual and
    collective judgment set is measured against it.  Construction fails if no
    truth assignment satisfies the constraint.
    """

    atoms: tuple[str, ...]
    constraint: str

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise LocatedError("an agenda needs at least one atom", "atoms")
        if len(self.atoms) > MAX_AGENDA_ATOMS:
            raise LocatedError(f"agenda exceeds {MAX_AGENDA_ATOMS} atoms", "atoms")
        for atom in self.atoms:
            # Only an atom the scanner reads as one token can occur in a constraint.
            if not (isinstance(atom, str) and _ATOM.fullmatch(atom)):
                raise LocatedError(
                    f"agenda atom {atom!r} is not a run of letters, digits and '_'", "atoms"
                )
        if len(set(self.atoms)) != len(self.atoms):
            raise LocatedError("duplicate agenda atoms", "atoms")
        # Bit b of the truth table is assignment b of product((False, True), repeat=k).
        masks, size = {}, 1
        for atom in reversed(self.atoms):
            masks = {a: m | m << size for a, m in masks.items()}
            masks[atom], size = ((1 << size) - 1) << size, 2 * size
        table, atoms = _Parser(self.constraint, masks, (1 << size) - 1).parse()
        unknown = atoms - set(self.atoms)
        if unknown:
            raise ConstraintError(f"constraint mentions undeclared atom(s) {sorted(unknown)}")
        object.__setattr__(self, "_masks", [masks[a] for a in self.atoms])
        object.__setattr__(self, "_table", table)
        if not self._table:
            raise ConstraintError("constraint is unsatisfiable")
        # A check reads one byte of this copy; shifting the int copies the table.
        object.__setattr__(self, "_table_bytes", table.to_bytes((size + 7) // 8, "little"))

    def satisfies(self, js: JudgmentSet) -> bool:
        self._check_total(js)
        # The first atom is the highest bit of an assignment's index.
        index = sum(1 << i for i, atom in enumerate(reversed(self.atoms)) if js[atom])
        return bool(self._table_bytes[index >> 3] >> (index & 7) & 1)

    def _check_total(self, js: JudgmentSet):
        if set(js) != set(self.atoms):
            raise ValueError(
                f"judgment set over {sorted(js)} does not match agenda atoms {list(self.atoms)}"
            )


@dataclass(frozen=True)
class JudgmentProfile:
    """Named evaluators' judgment sets; every individual must satisfy the constraint."""

    agenda: Agenda
    judgments: tuple[tuple[str, JudgmentSet], ...]

    def __post_init__(self):
        judgments = tuple((name, dict(js)) for name, js in self.judgments)
        object.__setattr__(self, "judgments", judgments)
        if not self.judgments:
            raise LocatedError("a judgment profile needs at least one evaluator", "judgments")
        names = [name for name, _ in self.judgments]
        if len(set(names)) != len(names):
            raise LocatedError("duplicate evaluator ids", "judgments")
        for name, js in self.judgments:
            try:
                consistent = self.agenda.satisfies(js)
            except ValueError as exc:  # a set over other atoms than the agenda's
                raise LocatedError(str(exc), "judgments", name) from None
            if not consistent:
                message = f"evaluator {name!r} holds an inconsistent judgment set"
                raise LocatedError(message, "judgments", name)

    @property
    def num_evaluators(self) -> int:
        return len(self.judgments)


def judgment_profile_from_json(text: str) -> JudgmentProfile:
    """Load {"agenda": {...}, "judgments": {evaluatorId: {atom: bool}}}."""
    root = load(text)
    agenda, judgments = root.fields("agenda", "judgments")
    atoms, constraint = agenda.fields("atoms", "constraint")
    agenda = agenda.build(Agenda, atoms.strings(), constraint.string())
    sets = {name: {a: v.boolean() for a, v in js.items()} for name, js in judgments.items()}
    return root.build(JudgmentProfile, agenda, tuple(sets.items()))


def majority_judgments(jp: JudgmentProfile) -> JudgmentSet:
    """Atom-by-atom strict majority.  Requires an odd number of evaluators."""
    n = jp.num_evaluators
    if n % 2 == 0:
        raise ValueError(f"majority voting needs an odd evaluator count, got {n}")
    return {atom: sum(js[atom] for _, js in jp.judgments) * 2 > n for atom in jp.agenda.atoms}


def check_consistency(js: JudgmentSet, agenda: Agenda) -> bool:
    """Does the judgment set satisfy the agenda's constraint?"""
    return agenda.satisfies(js)


def closest_consistent(js: JudgmentSet, agenda: Agenda) -> JudgmentSet:
    """The constraint-satisfying judgment set nearest to `js` in Hamming distance.

    Distance ties prefer flipping atoms later in agenda order: with the agenda
    ordered premises-then-conclusion this reproduces premise-based repair.
    """
    agenda._check_total(js)
    # Per atom, the assignments f that give it the other value than `js` does, and
    # the rest k: complements within the table (`true ^ x`), so ints stay non-negative.
    true = (1 << (1 << len(agenda.atoms))) - 1
    flips = [(true ^ m, m) if js[a] else (m, true ^ m) for a, m in zip(agenda.atoms, agenda._masks)]
    layers = [agenda._table]  # satisfying assignments by flips among the atoms so far
    for f, k in flips:
        layers = [(kept & k) | (flipped & f) for kept, flipped in zip(layers + [0], [0] + layers)]
    best = next(layer for layer in layers if layer)
    for _, k in flips:  # atom 0 first, keep the atom's value while a candidate does
        best = best & k or best
    return {a: bool(best & mask) for a, mask in zip(agenda.atoms, agenda._masks)}
