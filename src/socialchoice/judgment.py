"""Majority judgment aggregation over a propositional agenda with a consistency constraint."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .jsonin import Node, load

# A judgment set assigns every agenda atom a truth value.
JudgmentSet = dict[str, bool]

# An agenda's truth table has one bit per assignment, 2**20 bits at this cap,
# and every constraint node costs one operation on it: a 99 KB constraint
# builds its table in about 0.3 s (2-vCPU VM, Python 3.11.7).
MAX_AGENDA_ATOMS = 20
# A constraint nests at most this many levels: parentheses and '!'s open
# around any token, and connectives above any atom in the parsed formula (a
# chain 'a & b & c' is two levels).  Parsing and evaluation recurse once per
# level, so the cap keeps them far from Python's recursion limit.
MAX_CONSTRAINT_DEPTH = 100


class ConstraintError(ValueError):
    """The constraint is not well-formed, names an undeclared atom or cannot hold."""


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
# An AST node is a nested tuple: ("atom", name), ("not", x), ("and", l, r),
# ("or", l, r), ("iff", l, r).

_Node = tuple
# A token is '<->', one of '!&|()' or an atom: a run of letters, digits
# (str.isalnum) and '_'.  Any other character but whitespace is group 1.
_ATOM = re.compile(r"\w+")
_TOKEN = re.compile(rf"<->|[!&|()]|{_ATOM.pattern}|(\S)")
# The binary connectives and their nodes, loosest first.
_BINARY = (("<->", "iff"), ("|", "or"), ("&", "and"))


def _too_deep() -> ConstraintSyntaxError:
    return ConstraintSyntaxError(f"constraint nests deeper than {MAX_CONSTRAINT_DEPTH} levels")


def _height(node: _Node) -> int:
    # Connectives on the longest path from the root to an atom; iterative, so
    # a long left-deep chain cannot exhaust the stack.
    height, stack = 0, [(node, 0)]
    while stack:
        node, depth = stack.pop()
        height = max(height, depth)
        if node[0] != "atom":
            stack.extend((child, depth + 1) for child in node[1:])
    return height


class _Parser:
    def __init__(self, text: str):
        self.tokens = []
        for match in _TOKEN.finditer(text):
            if match[1]:
                raise ConstraintSyntaxError(f"unexpected character {match[1]!r} in constraint")
            self.tokens.append(match[0])
        self.pos = 0
        self.open = 0  # parentheses and '!'s open around the current token
        self.atoms: set[str] = set()

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ConstraintSyntaxError("constraint ended unexpectedly")
        self.pos += 1
        return token

    def parse(self) -> tuple[_Node, set[str]]:
        node = self.chain()
        if self.peek() is not None:
            raise ConstraintSyntaxError(f"unexpected token {self.peek()!r}")
        if _height(node) > MAX_CONSTRAINT_DEPTH:
            raise _too_deep()
        return node, self.atoms

    def chain(self, level: int = 0) -> _Node:
        # The connective at `level` joining operands of the tighter levels.
        if level == len(_BINARY):
            return self.unary()
        symbol, kind = _BINARY[level]
        node = self.chain(level + 1)
        while self.peek() == symbol:
            self.take()
            node = (kind, node, self.chain(level + 1))
        return node

    def unary(self) -> _Node:
        token = self.take()
        if token == "!":
            return ("not", self.nested(self.unary))
        if token == "(":
            node = self.nested(self.chain)
            if self.take() != ")":
                raise ConstraintSyntaxError("expected ')'")
            return node
        if token in {"&", "|", "<->", ")"}:
            raise ConstraintSyntaxError(f"unexpected token {token!r}")
        self.atoms.add(token)
        return ("atom", token)

    def nested(self, parse) -> _Node:
        # '(' and '!' are the only ways the parser recurses deeper.
        self.open += 1
        if self.open > MAX_CONSTRAINT_DEPTH:
            raise _too_deep()
        node = parse()
        self.open -= 1
        return node


def _evaluate(node: _Node, values, true):
    # One assignment with bools and true=True, or all with bitmasks and `true` all set.
    match node:
        case ("atom", name):
            return values[name]
        case ("not", x):
            return true ^ _evaluate(x, values, true)
        case ("and", left, right):
            return _evaluate(left, values, true) & _evaluate(right, values, true)
        case ("or", left, right):
            return _evaluate(left, values, true) | _evaluate(right, values, true)
        case ("iff", left, right):
            return true ^ _evaluate(left, values, true) ^ _evaluate(right, values, true)
    raise AssertionError(f"unreachable node {node!r}")


def _check_atoms(atoms: tuple[str, ...]) -> None:
    if not atoms:
        raise ValueError("an agenda needs at least one atom")
    if len(atoms) > MAX_AGENDA_ATOMS:
        raise ValueError(f"agenda exceeds {MAX_AGENDA_ATOMS} atoms")
    for atom in atoms:
        # Only an atom the scanner reads as one token can occur in a constraint.
        if not (isinstance(atom, str) and _ATOM.fullmatch(atom)):
            raise ValueError(f"agenda atom {atom!r} is not a run of letters, digits and '_'")
    if len(set(atoms)) != len(atoms):
        raise ValueError("duplicate agenda atoms")


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
        _check_atoms(self.atoms)
        node, atoms = _Parser(self.constraint).parse()
        unknown = atoms - set(self.atoms)
        if unknown:
            raise ConstraintError(f"constraint mentions undeclared atom(s) {sorted(unknown)}")
        object.__setattr__(self, "_node", node)
        # Bit b of the truth table is assignment b of product((False, True), repeat=k).
        masks, size = {}, 1
        for atom in reversed(self.atoms):
            masks = {a: m | m << size for a, m in masks.items()}
            masks[atom], size = ((1 << size) - 1) << size, 2 * size
        object.__setattr__(self, "_masks", [masks[a] for a in self.atoms])
        object.__setattr__(self, "_table", _evaluate(node, masks, (1 << size) - 1))
        if not self._table:
            raise ConstraintError("constraint is unsatisfiable")

    def satisfies(self, js: JudgmentSet) -> bool:
        self._check_total(js)
        return _evaluate(self._node, js, True)

    def _check_total(self, js: JudgmentSet):
        if set(js) != set(self.atoms):
            raise ValueError(
                f"judgment set over {sorted(js)} does not match agenda atoms {list(self.atoms)}"
            )


def _agenda_from_node(node: Node) -> Agenda:
    atoms, constraint = node.fields("atoms", "constraint")
    ids = atoms.strings()
    text = constraint.string()
    # The agenda's checks in its order, each at its node.
    atoms.build(_check_atoms, ids)
    return constraint.build(Agenda, ids, text, errors=ConstraintError)


@dataclass(frozen=True)
class JudgmentProfile:
    """Named evaluators' judgment sets; every individual must satisfy the constraint."""

    agenda: Agenda
    judgments: tuple[tuple[str, JudgmentSet], ...]

    def __post_init__(self):
        judgments = tuple((name, dict(js)) for name, js in self.judgments)
        object.__setattr__(self, "judgments", judgments)
        if not self.judgments:
            raise ValueError("a judgment profile needs at least one evaluator")
        names = [name for name, _ in self.judgments]
        if len(set(names)) != len(names):
            raise ValueError("duplicate evaluator ids")
        for name, js in self.judgments:
            if not self.agenda.satisfies(js):
                raise ValueError(f"evaluator {name!r} holds an inconsistent judgment set")

    @property
    def num_evaluators(self) -> int:
        return len(self.judgments)


def judgment_profile_from_json(text: str) -> JudgmentProfile:
    """Load {"agenda": {...}, "judgments": {evaluatorId: {atom: bool}}}."""
    agenda, judgments = load(text).fields("agenda", "judgments")
    agenda = _agenda_from_node(agenda)
    sets = tuple((name, {a: v.boolean() for a, v in js.items()}) for name, js in judgments.items())
    return JudgmentProfile(agenda, sets)


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
    # Per atom, the assignments that give it the other value than `js` does.
    flips = [~mask if js[a] else mask for a, mask in zip(agenda.atoms, agenda._masks)]
    layers = [agenda._table]  # satisfying assignments by flips among the atoms so far
    for f in flips:
        layers = [(kept & ~f) | (flipped & f) for kept, flipped in zip(layers + [0], [0] + layers)]
    best = next(layer for layer in layers if layer)
    for f in flips:  # atom 0 first, keep the atom's value while a candidate does
        best = best & ~f or best
    return {a: bool(best & mask) for a, mask in zip(agenda.atoms, agenda._masks)}
