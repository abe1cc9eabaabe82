"""The agenda-constraint parser against the recursive-descent parser it replaced.

`reference` below is the parser the agenda used before its grammar moved to
one precedence table: a character scanner, one method per precedence level,
a second walk over the tree for its atoms and an iterative height check.
The agenda now evaluates its constraint as it parses and keeps no tree, so
the reference tree is evaluated to a truth table by `reference_evaluate`, the
per-assignment evaluator the agenda once used, one assignment at a time.  On
every text `Agenda` must build the same truth table over the same atom set,
or raise the same exception type with the same message.

The texts are random formulas over a few atoms, with varied spacing
(Unicode spaces too), redundant parentheses, `!` chains and long chains of
mixed connectives; fixed shapes at the nesting cap and one level past it;
and the same formulas with bytes replaced, inserted or deleted.

The agenda's truth table is also checked over a brute-force enumeration of
every assignment of up to five atoms: the refusal of an unsatisfiable
constraint, `satisfies` on each assignment, and the repair
`closest_consistent` picks.
"""

from __future__ import annotations

import ast
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from socialchoice.judgment import (
    MAX_CONSTRAINT_DEPTH,
    Agenda,
    ConstraintError,
    ConstraintSyntaxError,
    closest_consistent,
)

FUZZ = settings(
    derandomize=True,
    deadline=None,
    max_examples=400,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif text.startswith("<->", i):
            tokens.append("<->")
            i += 3
        elif ch in "!&|()":
            tokens.append(ch)
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ConstraintSyntaxError(f"unexpected character {ch!r} in constraint")
    return tokens


def _too_deep() -> ConstraintSyntaxError:
    return ConstraintSyntaxError(f"constraint nests deeper than {MAX_CONSTRAINT_DEPTH} levels")


def reference_height(node: tuple) -> int:
    height, stack = 0, [(node, 0)]
    while stack:
        node, depth = stack.pop()
        height = max(height, depth)
        if node[0] != "atom":
            stack.extend((child, depth + 1) for child in node[1:])
    return height


class ReferenceParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ConstraintSyntaxError("constraint ended unexpectedly")
        self.pos += 1
        return token

    def parse(self) -> tuple:
        node = self.iff()
        if self.peek() is not None:
            raise ConstraintSyntaxError(f"unexpected token {self.peek()!r}")
        if reference_height(node) > MAX_CONSTRAINT_DEPTH:
            raise _too_deep()
        return node

    def iff(self) -> tuple:
        node = self.or_()
        while self.peek() == "<->":
            self.take()
            node = ("iff", node, self.or_())
        return node

    def or_(self) -> tuple:
        node = self.and_()
        while self.peek() == "|":
            self.take()
            node = ("or", node, self.and_())
        return node

    def and_(self) -> tuple:
        node = self.unary()
        while self.peek() == "&":
            self.take()
            node = ("and", node, self.unary())
        return node

    def unary(self) -> tuple:
        token = self.take()
        if token == "!":
            return ("not", self.nested(self.unary))
        if token == "(":
            node = self.nested(self.iff)
            if self.take() != ")":
                raise ConstraintSyntaxError("expected ')'")
            return node
        if token in {"&", "|", "<->", ")"}:
            raise ConstraintSyntaxError(f"unexpected token {token!r}")
        return ("atom", token)

    def nested(self, parse) -> tuple:
        self.open += 1
        if self.open > MAX_CONSTRAINT_DEPTH:
            raise _too_deep()
        node = parse()
        self.open -= 1
        return node


def reference_atoms(node: tuple) -> set[str]:
    if node[0] == "atom":
        return {node[1]}
    return set().union(*(reference_atoms(child) for child in node[1:]))


def reference(text: str):
    try:
        node = ReferenceParser(reference_tokenize(text)).parse()
    except ConstraintSyntaxError as exc:
        return type(exc), str(exc)
    return node, frozenset(reference_atoms(node))


def reference_evaluate(node: tuple, assignment: dict[str, bool]) -> bool:
    match node:
        case ("atom", name):
            return assignment[name]
        case ("not", x):
            return not reference_evaluate(x, assignment)
        case ("and", left, right):
            return reference_evaluate(left, assignment) and reference_evaluate(right, assignment)
        case ("or", left, right):
            return reference_evaluate(left, assignment) or reference_evaluate(right, assignment)
        case ("iff", left, right):
            return reference_evaluate(left, assignment) == reference_evaluate(right, assignment)
    raise AssertionError(f"unreachable node {node!r}")


def reference_table(text: str):
    """`reference(text)` with its tree evaluated to a truth table over its sorted atoms.

    Bit b of the table is assignment b of product((False, True), repeat=k).
    """
    read = reference(text)
    if read[0] is ConstraintSyntaxError:
        return read
    node, atoms = read
    order = sorted(atoms)
    every = itertools.product((False, True), repeat=len(order))
    hits = (b for b, bits in enumerate(every) if reference_evaluate(node, dict(zip(order, bits))))
    return sum(1 << b for b in hits), atoms


class _Probe(Agenda):
    """An agenda that keeps its truth table when no assignment satisfies it too."""

    def __post_init__(self):
        try:
            super().__post_init__()
        except ConstraintError as exc:
            if str(exc) != UNSATISFIABLE:
                raise


UNDECLARED = "constraint mentions undeclared atom(s) "
UNSATISFIABLE = "constraint is unsatisfiable"


def production(text: str):
    """The truth table and atom set `Agenda` reads from `text`, or its exception."""
    try:
        _Probe(("z",), text)  # no drawn text holds a 'z', so every atom is undeclared
    except ConstraintSyntaxError as exc:
        return type(exc), str(exc)
    except ConstraintError as exc:
        atoms = frozenset(ast.literal_eval(str(exc).removeprefix(UNDECLARED)))
    return _Probe(tuple(sorted(atoms)), text)._table, atoms


ATOMS = ("a", "b", "c", "give", "x_1")
# isspace() characters, ASCII and not, that the scanner must skip.
SPACES = ("", "", " ", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c")
CONNECTIVES = ("&", "|", "<->")
# Characters that edited bytes are drawn from: the grammar's own symbols,
# parts of '<->', whitespace, atom characters (ASCII, accented, a superscript
# digit, a Roman numeral) and characters no token starts with.
ALPHABET = "!&|()<->ab_1 \t\u00a0\x1c\u00e9\u00b2\u216b^#,"


@st.composite
def spaced(draw, text: str) -> str:
    return draw(st.sampled_from(SPACES)) + text + draw(st.sampled_from(SPACES))


@st.composite
def chains(draw, operands) -> str:
    """Two or more operands joined by connectives, one connective or mixed."""
    parts = draw(st.lists(operands, min_size=2, max_size=8))
    mixed = draw(st.booleans())
    fixed = draw(st.sampled_from(CONNECTIVES))
    text = parts[0]
    for part in parts[1:]:
        connective = draw(st.sampled_from(CONNECTIVES)) if mixed else fixed
        text += draw(spaced(connective)) + part
    return text


@st.composite
def negated(draw, operand) -> str:
    bangs = "".join(draw(spaced("!")) for _ in range(draw(st.integers(1, 4))))
    return bangs + draw(operand)


@st.composite
def parenthesized(draw, operand) -> str:
    # One pair of parentheses or several around the same formula.
    text = draw(operand)
    for _ in range(draw(st.integers(1, 3))):
        text = "(" + draw(spaced(text)) + ")"
    return text


formulas = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(chains(inner), negated(inner), parenthesized(inner)),
    max_leaves=30,
)


@st.composite
def long_chains(draw) -> str:
    """A chain of atoms up to past the nesting cap, joined by one or mixed connectives."""
    n = draw(st.integers(MAX_CONSTRAINT_DEPTH - 5, MAX_CONSTRAINT_DEPTH + 10))
    mixed = draw(st.booleans())
    fixed = draw(st.sampled_from(CONNECTIVES))
    text = draw(st.sampled_from(ATOMS))
    for _ in range(n):
        connective = draw(st.sampled_from(CONNECTIVES)) if mixed else fixed
        text += f" {connective} " + draw(st.sampled_from(ATOMS))
    return text


@st.composite
def edited_bytes(draw) -> str:
    """A formula's text with characters replaced, inserted or deleted."""
    chars = list(draw(formulas))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(chars)))
        new = draw(st.text(ALPHABET, max_size=2))
        chars[at:at + draw(st.integers(0, 1))] = new
    return "".join(chars)


def assert_same(text: str) -> None:
    assert production(text) == reference_table(text)


@FUZZ
@given(formulas)
def test_formulas_parse_alike(text):
    expected = reference_table(text)
    assert expected[0] is not ConstraintSyntaxError  # every drawn formula is well-formed
    assert production(text) == expected


@settings(FUZZ, max_examples=100)  # each draws over a hundred connectives
@given(long_chains())
def test_long_chains_parse_alike(text):
    assert_same(text)


@FUZZ
@given(edited_bytes())
def test_edited_bytes_parse_alike(text):
    assert_same(text)


@pytest.mark.parametrize(
    "shape",
    [
        lambda n: "(" * n + "a" + ")" * n,
        lambda n: "!" * n + "a",
        lambda n: " & ".join(["a"] * (n + 1)),
        lambda n: " | ".join(["a"] * (n + 1)),
        lambda n: "a <-> " * n + "a",
        lambda n: "(!" * (n // 2) + "!" * (n % 2) + "a" + ")" * (n // 2),
    ],
    ids=["parentheses", "negations", "and-chain", "or-chain", "iff-chain", "mixed"],
)
@pytest.mark.parametrize("levels", [MAX_CONSTRAINT_DEPTH, MAX_CONSTRAINT_DEPTH + 1])
def test_shapes_at_the_nesting_cap(shape, levels):
    text = shape(levels)
    expected = reference_table(text)
    too_deep = (ConstraintSyntaxError, str(_too_deep()))
    assert (expected == too_deep) is (levels > MAX_CONSTRAINT_DEPTH)
    assert production(text) == expected


def reference_repair(js: dict[str, bool], atoms: tuple[str, ...], consistent: list[dict]) -> dict:
    """The nearest consistent set: fewest flips, then flips latest in `atoms`, then values."""

    def key(candidate):
        flips = tuple(candidate[a] != js[a] for a in atoms)
        return (sum(flips), flips, tuple(candidate[a] for a in atoms))

    return min(consistent, key=key)


# A drawn formula as it is, or wrapped so that it always fails or always holds.
WRAPPINGS = ("{}", "({}) & !({})", "({}) <-> !({})", "({}) | !({})")


@FUZZ
@given(formulas, st.sampled_from(WRAPPINGS), st.permutations(ATOMS), st.integers(0, len(ATOMS)))
def test_truth_table_matches_brute_force(formula, wrapping, order, extra):
    text = wrapping.format(formula, formula)
    node, mentioned = reference(text)
    # The agenda declares the atoms the text mentions and `extra` more, in a drawn order.
    unused = [a for a in order if a not in mentioned][:extra]
    atoms = tuple(a for a in order if a in mentioned or a in unused)
    every = [dict(zip(atoms, bits)) for bits in itertools.product((False, True), repeat=len(atoms))]
    consistent = [js for js in every if reference_evaluate(node, js)]
    if not consistent:
        with pytest.raises(ConstraintError) as info:
            Agenda(atoms, text)
        assert str(info.value) == UNSATISFIABLE
        return
    agenda = Agenda(atoms, text)
    for js in every:
        assert agenda.satisfies(js) is reference_evaluate(node, js)
        assert closest_consistent(js, agenda) == reference_repair(js, atoms, consistent)
