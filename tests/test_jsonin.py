"""The located JSON reader, and the rule that every JSON input goes through it."""

import ast
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socialchoice import pipeline
from socialchoice.cardinal import RatingProfile, rating_profile_from_json
from socialchoice.jsonin import Node, load
from socialchoice.judgment import (
    Agenda,
    ConstraintError,
    ConstraintSyntaxError,
    JudgmentProfile,
    judgment_profile_from_json,
)
from socialchoice.pipeline import dataset_from_json
from socialchoice.profiles import BallotParseError, RankingBallot
from socialchoice.simulation import ComponentDist, ResponseRecord

SRC = Path(__file__).resolve().parent.parent / "src" / "socialchoice"


def test_only_the_reader_parses_json():
    # A loader that parses JSON itself would need its own checks again.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "jsonin.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            json_read = (
                isinstance(node, ast.Attribute)
                and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            )
            if json_read or (isinstance(node, ast.ImportFrom) and node.module == "json"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


DOC = '{"cases": [{"jury": [{"ranking": ["A", 1]}]}], "n": 2, "ok": true}'


def test_paths_run_from_the_root():
    ranking = load(DOC).get("cases").members()[0].get("jury").members()[0].get("ranking")
    items = ranking.members()
    assert [item.path for item in items] == ["cases[0].jury[0].ranking[0]",
                                             "cases[0].jury[0].ranking[1]"]
    assert items[0].string() == "A"
    with pytest.raises(ValueError) as caught:
        items[1].string()
    assert str(caught.value) == "cases[0].jury[0].ranking[1]: expected a string, got 1"


@pytest.mark.parametrize(
    "value, read, message",
    [
        (5, Node.members, "expected a list, got int"),
        ("ab", Node.strings, "expected a list, got str"),
        ({"a": 1}, Node.numbers, "expected a list, got dict"),
        ([1], Node.string, "expected a string, got list"),
        ({"a": 1}, Node.number, "expected a finite number, got dict"),
        (None, Node.items, "expected an object, got NoneType"),
        ("6", Node.number, 'expected a finite number, got "6"'),
        (True, Node.number, "expected a finite number, got true"),
        (math.nan, Node.number, "expected a finite number, got NaN"),
        (-math.inf, Node.number, "expected a finite number, got -Infinity"),
        (1.5, Node.integer, "expected an integer, got 1.5"),
        (False, Node.integer, "expected an integer, got false"),
        (1, Node.boolean, "expected true or false, got 1"),
    ],
)
def test_got_names_the_type_or_shows_the_value(value, read, message):
    with pytest.raises(ValueError) as caught:
        read(Node(value, "x"))
    assert str(caught.value) == f"x: {message}"


def test_root_messages_carry_no_path():
    with pytest.raises(ValueError, match="^expected an object, got list$"):
        load("[]").get("a")
    with pytest.raises(ValueError, match='^missing "cases"$'):
        load("{}").get("cases")


def test_typed_reads_return_the_values():
    root = load(DOC)
    assert root.get("n").integer() == 2
    assert root.get("n").number() == 2.0 and isinstance(root.get("n").number(), float)
    assert root.get("ok").boolean() is True
    assert root.get("absent", 7).integer() == 7
    assert "n" in root and "absent" not in root
    assert [(key, node.path) for key, node in root.items()] == [
        ("cases", "cases"), ("n", "n"), ("ok", "ok")]


def test_fields_want_exactly_the_keys():
    n, ok = load('{"ok": false, "n": 1}').fields("n", "ok")
    assert (n.value, ok.value) == (1, False)
    with pytest.raises(ValueError) as caught:
        load('{"agenda": {"atoms": []}}').get("agenda").fields("atoms", "constraint")
    assert str(caught.value) == 'agenda: expected an object with keys "atoms" and "constraint"'


def test_only_refuses_a_key_outside_the_allowed_ones():
    node = load('{"a": {"x": 1}}').get("a")
    assert node.only("x", "y") is node  # an absent allowed key is fine
    with pytest.raises(ValueError) as caught:
        node.only("y", "z")
    assert str(caught.value) == 'a: unknown key "x"; expected one of "y", "z"'
    with pytest.raises(ValueError, match='^expected an object, got list$'):
        load("[]").only("x")


def test_over_deep_nesting_is_a_value_error():
    with pytest.raises(ValueError, match="^JSON input nests too deeply$"):
        load("[" * 200_000)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"a": 1, "a": 2}', 'duplicate key "a"'),
        ('{"judgments": {"E1": {}, "E2": {}, "E1": {"x": 1}}}', 'judgments: duplicate key "E1"'),
        ('[0, {"b": {"c": 1, "d": 2, "c": 1}}]', '[1].b: duplicate key "c"'),
        # The first repeating object in document order is the one named.
        ('{"p": {"t": 1, "t": 2}, "q": {"u": 1, "u": 2}}', 'p: duplicate key "t"'),
        # An inner repeat lost to its parent's own repeat: the parent is named.
        ('{"a": {"x": 1, "x": 2}, "a": 3}', 'duplicate key "a"'),
    ],
)
def test_a_repeated_key_is_refused_at_its_object(text, message):
    with pytest.raises(ValueError) as caught:
        load(text)
    assert str(caught.value) == message


@pytest.mark.parametrize("value", [0, -1.5, 10**300, 1.7e308])
def test_finite_numbers_read_as_floats(value):
    assert Node(value, "x").number() == float(value)


@pytest.mark.parametrize("value", [10**400, math.inf, math.nan])
def test_numbers_past_the_float_range_are_refused(value):
    with pytest.raises(ValueError, match="^x: expected a finite number, got "):
        Node(value, "x").number()


# JSON tokens of every kind a list member can be: strings, exact integers
# (one past the float range, one that float() would round down to the
# largest float), floats, the literals, the non-standard NaN and Infinity
# tokens json.loads accepts, and nested lists and objects.
STRING_TOKENS = st.text(max_size=4).map(json.dumps)
NUMBER_TOKENS = st.one_of(
    st.integers().map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.sampled_from(["1" + "0" * 400, "-1" + "0" * 400, str(int(sys.float_info.max) + 1),
                     "1e400", "NaN", "Infinity", "-Infinity"]),
)
OTHER_TOKENS = st.sampled_from(["true", "false", "null", "[]", '["a"]', "[1.5]", "{}", '{"a": 1}'])
LISTS = st.one_of(
    st.lists(STRING_TOKENS, max_size=6),
    st.lists(NUMBER_TOKENS, max_size=6),
    st.lists(st.one_of(STRING_TOKENS, NUMBER_TOKENS, OTHER_TOKENS), max_size=6),
)


def outcome(read, node):
    # The value read, or the type and message of the located error it raised.
    try:
        return repr(read(node))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@given(LISTS)
# An integer that float() rounds down to the largest float, among finite
# numbers, must be refused as its own read refuses it.
@example(["1.5", str(int(sys.float_info.max) + 1)])
def test_list_reads_match_the_member_reads(tokens):
    node = load('{"a": [{"xs": [' + ", ".join(tokens) + "]}]}").get("a").members()[0].get("xs")
    for whole, each in ((Node.strings, Node.string), (Node.numbers, Node.number)):
        # repr tells 1 from 1.0, so an integer must come back as a float.
        per_member = outcome(lambda n: tuple(each(m) for m in n.members()), node)
        assert outcome(whole, node) == per_member


# The dataset's records, each with the type it builds and the defaults of its
# optional keys.  The built types raise their own ValueErrors (an empty
# response id, a beta shape that is not positive) and LocatedErrors (no
# features), which must be located as `build` locates them.
RECORDS = {
    "response": (pipeline._response, pipeline._RESPONSE_READS, {"text": None}),
    "ballot": (RankingBallot, pipeline._BALLOT_READS, {"weight": 1}),
    "component": (ComponentDist, pipeline._COMPONENT_READS, {}),
}


def tokens_list(tokens):
    return st.lists(tokens, max_size=3).map(lambda ts: "[" + ", ".join(ts) + "]")


# A good value for each read, so that good members come before bad ones,
# and a value of any kind, including bools, NaN, the infinities, integers
# past the float range, nulls, lists and objects.
GOOD = {
    Node.string: st.one_of(st.sampled_from(['"beta"', '"uniform"']), STRING_TOKENS),
    Node.integer: st.integers(-2, 5).map(str),
    Node.number: st.floats(-1, 5, allow_nan=False).map(json.dumps),
    Node.strings: tokens_list(STRING_TOKENS),
    Node.numbers: tokens_list(st.floats(allow_nan=False, allow_infinity=False).map(json.dumps)),
}
ANY_VALUE = st.one_of(STRING_TOKENS, NUMBER_TOKENS, OTHER_TOKENS,
                      tokens_list(STRING_TOKENS), tokens_list(NUMBER_TOKENS))
# Bools and nulls pass for numbers and strings in a check that is too loose.
BAD_VALUE = st.one_of(st.sampled_from(["true", "false", "null"]), ANY_VALUE)


@st.composite
def record_lists(draw):
    name = draw(st.sampled_from(sorted(RECORDS)))
    reads = RECORDS[name][1]
    members = []
    for _ in range(draw(st.integers(0, 4))):
        # A good member with up to two faults: a key absent or of any kind,
        # an unknown key, or no object at all.
        fields = {key: draw(GOOD[read]) for key, read in reads.items()}
        for fault in draw(st.lists(st.sampled_from([*reads, "extra", "no object"]), max_size=2)):
            if fault == "no object":
                fields = None
            elif fields is not None:
                fields[fault] = draw(st.one_of(st.none(), BAD_VALUE))
        if fields is None:
            members.append(draw(ANY_VALUE))
        else:
            members.append("{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()
                                           if value is not None) + "}")
    return name, "[" + ", ".join(members) + "]"


def each_member(node, make, reads, defaults):
    # The reads a loader made before the records read: each member on its own,
    # key by key, then built at its node.
    out = []
    for member in node.members():
        member.only(*reads)
        values = [defaults[key] if key in defaults and key not in member else read(member.get(key))
                  for key, read in reads.items()]
        out.append(member.build(make, *values))
    return tuple(out)


@settings(max_examples=400)
@given(record_lists())
@example(("ballot", '[{"ranking": ["A"], "weight": 1}, {"ranking": ["A"], "weight": true}]'))
@example(("response", '[{"id": "A", "features": [1]}, {"id": "B", "features": [1e400]}]'))
@example(("response", '[{"id": "A", "features": [1]}, {"id": "", "features": [1]}]'))
@example(("component", '[{"kind": "beta", "a": 1, "b": 1}, {"kind": "beta", "a": 0, "b": NaN}]'))
@example(("component", '{"kind": "beta"}'))
def test_records_match_the_member_reads(case):
    name, text = case
    make, reads, defaults = RECORDS[name]
    node = load('{"a": [{"xs": ' + text + "}]}").get("a").members()[0].get("xs")
    want = outcome(lambda n: each_member(n, make, reads, defaults), node)
    assert outcome(lambda n: n.records(make, reads, defaults), node) == want


# A built object's own checks, each made once by the object itself.  Built
# directly, a check raises its bare message; built by its loader, the same
# message is located at the member the check reads.  The duplicate-evaluator
# and evaluator-coverage checks are left out: no loader can reach them, as the
# reader refuses a repeated key.
SHG = ["safe", "helpful", "give"]
SHG_RULE = "give <-> (safe & helpful)"
SHG_AGENDA = Agenda(SHG, SHG_RULE)
NESTED = "(" * 101 + "give" + ")" * 101


def ratings(alternatives, rows):
    return lambda: rating_profile_from_json(
        json.dumps({"alternatives": alternatives, "ratings": rows}))


def judgments(sets, atoms=SHG, constraint=SHG_RULE):
    agenda = {"atoms": atoms, "constraint": constraint}
    return lambda: judgment_profile_from_json(json.dumps({"agenda": agenda, "judgments": sets}))


def dataset_with_no_features():
    data = json.loads((SRC.parent.parent / "data" / "cases.json").read_text())
    data["cases"][0]["responses"][0]["features"] = []
    return dataset_from_json(json.dumps(data))


E1 = {"safe": True, "helpful": False, "give": False}
MOVED_CHECKS = {
    "no-alternative": (
        lambda: RatingProfile((), ("e1",), {"e1": {}}), ValueError,
        "a rating profile needs at least one alternative",
        ratings([], {"e1": {}}), "alternatives"),
    "duplicate-alternatives": (
        lambda: RatingProfile(("x", "x"), ("e1",), {"e1": {"x": 3.0}}), ValueError,
        "duplicate alternative ids", ratings(["x", "x"], {"e1": {"x": 3}}), "alternatives"),
    "alternative-id": (
        lambda: RatingProfile(("x y",), ("e1",), {"e1": {"x y": 3.0}}), BallotParseError,
        "alternative id 'x y' contains whitespace",
        ratings(["x y"], {"e1": {"x y": 3}}), "alternatives"),
    "no-rater": (
        lambda: RatingProfile(("x",), (), {}), ValueError,
        "a rating profile needs at least one evaluator", ratings(["x"], {}), "ratings"),
    "row": (
        lambda: RatingProfile(("x", "y"), ("e1",), {"e1": {"x": 3.0}}), ValueError,
        "evaluator 'e1' must rate exactly the declared alternatives",
        ratings(["x", "y"], {"e1": {"x": 3}}), "ratings.e1"),
    "rating": (
        lambda: RatingProfile(("x",), ("e1", "e2"), {"e1": {"x": 3.0}, "e2": {"x": 11.0}}),
        ValueError, "rating 11.0 for ('e2', 'x') outside [0, 10]",
        ratings(["x"], {"e1": {"x": 3}, "e2": {"x": 11}}), "ratings.e2.x"),
    "no-atom": (
        lambda: Agenda((), "give"), ValueError, "an agenda needs at least one atom",
        judgments({"E1": E1}, atoms=[]), "agenda.atoms"),
    "atom-cap": (
        lambda: Agenda([f"p{i}" for i in range(21)], "p0"), ValueError,
        "agenda exceeds 20 atoms",
        judgments({"E1": E1}, atoms=[f"p{i}" for i in range(21)]), "agenda.atoms"),
    "atom-token": (
        lambda: Agenda([*SHG, "x y"], SHG_RULE), ValueError,
        "agenda atom 'x y' is not a run of letters, digits and '_'",
        judgments({"E1": E1}, atoms=[*SHG, "x y"]), "agenda.atoms"),
    "duplicate-atoms": (
        lambda: Agenda(["safe", "safe", "give"], SHG_RULE), ValueError,
        "duplicate agenda atoms",
        judgments({"E1": E1}, atoms=["safe", "safe", "give"]), "agenda.atoms"),
    "undeclared-atom": (
        lambda: Agenda(SHG, "give <-> (safe & kind)"), ConstraintError,
        "constraint mentions undeclared atom(s) ['kind']",
        judgments({"E1": E1}, constraint="give <-> (safe & kind)"), "agenda.constraint"),
    "unsatisfiable": (
        lambda: Agenda(SHG, "give & !give"), ConstraintError, "constraint is unsatisfiable",
        judgments({"E1": E1}, constraint="give & !give"), "agenda.constraint"),
    "nesting": (
        lambda: Agenda(SHG, NESTED), ConstraintSyntaxError,
        "constraint nests deeper than 100 levels",
        judgments({"E1": E1}, constraint=NESTED), "agenda.constraint"),
    "no-judge": (
        lambda: JudgmentProfile(SHG_AGENDA, ()), ValueError,
        "a judgment profile needs at least one evaluator", judgments({}), "judgments"),
    "other-atoms": (
        lambda: JudgmentProfile(SHG_AGENDA, (("E2", {"safe": False, "helpful": True}),)),
        ValueError,
        "judgment set over ['helpful', 'safe'] does not match agenda atoms "
        "['safe', 'helpful', 'give']",
        judgments({"E2": {"safe": False, "helpful": True}}), "judgments.E2"),
    "inconsistent": (
        lambda: JudgmentProfile(SHG_AGENDA, (("E1", {**E1, "give": True}),)), ValueError,
        "evaluator 'E1' holds an inconsistent judgment set",
        judgments({"E1": {**E1, "give": True}}), "judgments.E1"),
    # Built directly, a featureless response was accepted before its check
    # moved into the record.
    "no-feature": (
        lambda: ResponseRecord("A", "a", ()), ValueError,
        "a response needs at least one feature",
        dataset_with_no_features, "cases[0].responses[0].features"),
}


@pytest.mark.parametrize("build, error, message, read, where", MOVED_CHECKS.values(),
                         ids=MOVED_CHECKS)
def test_a_check_is_bare_when_built_and_located_when_read(build, error, message, read, where):
    with pytest.raises(error) as built:
        build()
    assert str(built.value) == message
    with pytest.raises(ValueError) as loaded:
        read()
    assert str(loaded.value) == f"{where}: {message}"
