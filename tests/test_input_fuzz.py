"""Fuzz every input loader through the command line, in process.

Malformed input must exit 1 with one `error: ` line on stderr; it must never
exit 2, the internal-error code.  Every mutation starts from a fixture:

(a) The JSON documents (the simulate configs and dataset, the ratings and
    the judgments): drop a key or an item, swap a value for one of another
    JSON kind, put NaN or Infinity in, nest a value, truncate the text or
    replace a character.  Run simulate, rate, judge and audit anonymity.
(b) A value of the dataset, ratings or judgments swapped for one of another
    kind is reported at its own path.
(c) The ballot files and the feedback statements with bytes replaced,
    inserted or deleted, run through aggregate, committee, audit cycle and
    parse-feedback.
(d) Valid ballot files with counts too large for a float, or whose sums
    print with more digits than Python allows, under every profile command.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from socialchoice.cli import main

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "data"

FUZZ = settings(
    derandomize=True,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)

CONFIGS = [f"pipeline_{v}.json" for v in ("rankings", "collective", "features", "inference")]
# Each JSON document: its fixture, and the command lines that read it given
# the file it was written to.
DOCUMENTS = {
    "config": (DATA / "pipeline_collective.json", lambda p: [["simulate", "--config", p]]),
    "dataset": (
        DATA / "cases.json",
        lambda p: [["simulate", "--config", str(Path(p).parent / c)] for c in CONFIGS],
    ),
    "ratings": (
        HERE / "golden" / "ratings_rich.json",
        lambda p: [
            ["rate", "--rule", "mean", "--ratings", p],
            ["audit", "anonymity", "--rule", "median", "--ratings", p],
        ],
    ),
    "judgments": (DATA / "judgments.json", lambda p: [["judge", "--profile", p]]),
}

# Sample values of each JSON kind.
KINDS = {
    "null": [None],
    "boolean": [True, False],
    "number": [0, 7, -1.5, 1e300],
    "string": ["", "A", "x y"],
    "list": [[], ["A"], [1, 2]],
    "object": [{}, {"A": 1}],
}


def kind(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "list", dict: "object"}[type(value)]


def paths(value, prefix=()):
    """The key path of every value in a JSON document, the root first."""
    yield prefix
    children = ()
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    for key, child in children:
        yield from paths(child, prefix + (key,))


def located(path) -> str:
    """A key path as the loaders print it: `cases[0].jury[1].weight`."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def replaced(doc, path, value):
    """A copy of `doc` with the value at `path` replaced by `value`."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def dropped(doc, path):
    """A copy of `doc` without the key or item at the non-empty `path`."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return doc


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


def assert_handled(code, err):
    assert code in (0, 1), err
    if code == 1:
        assert re.fullmatch(r"error: [^\n]*\n", err), err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # The simulate configs, each naming "cases.json" beside it.
    work = tmp_path_factory.mktemp("fuzz")
    for name in CONFIGS:
        (work / name).write_text((DATA / name).read_text())
    return work


def write_document(workdir, name, text):
    # The mutated document where its command lines read it; the dataset the
    # configs read is the fixture unless the dataset itself is mutated.
    (workdir / "cases.json").write_text((DATA / "cases.json").read_text())
    path = workdir / ("cases.json" if name == "dataset" else f"{name}.json")
    path.write_text(text, encoding="utf-8")
    return str(path)


@st.composite
def mutated_json(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    text = DOCUMENTS[name][0].read_text()
    doc = json.loads(text)
    op = draw(st.sampled_from(["drop", "swap", "nonfinite", "nest", "truncate", "replace"]))
    if op == "truncate":
        return name, text[: draw(st.integers(0, len(text) - 1))]
    if op == "replace":
        at = draw(st.integers(0, len(text) - 1))
        return name, text[:at] + draw(st.characters(codec="utf-8")) + text[at + 1:]
    path = draw(st.sampled_from(list(paths(doc))[op == "drop":]))
    if op == "drop":
        return name, json.dumps(dropped(doc, path))
    old = value_at(doc, path)
    new = {
        "swap": lambda: draw(st.sampled_from(
            [v for k, vs in KINDS.items() if k != kind(old) for v in vs])),
        "nonfinite": lambda: draw(st.sampled_from([float("nan"), float("inf"), float("-inf")])),
        "nest": lambda: draw(st.sampled_from([[old], {"A": old}, [[old]]])),
    }[op]()
    return name, json.dumps(replaced(doc, path, new))


@FUZZ
@given(mutated_json())
def test_mutated_json_is_handled(workdir, mutation):
    name, text = mutation
    path = write_document(workdir, name, text)
    for argv in DOCUMENTS[name][1](path):
        assert_handled(*run(argv))


@st.composite
def swapped_json(draw):
    name = draw(st.sampled_from(["dataset", "ratings", "judgments"]))
    doc = json.loads(DOCUMENTS[name][0].read_text())
    path = draw(st.sampled_from(list(paths(doc))))
    old = value_at(doc, path)
    new = draw(st.sampled_from([v for k, vs in KINDS.items() if k != kind(old) for v in vs]))
    return name, path, json.dumps(replaced(doc, path, new))


@FUZZ
@given(swapped_json())
def test_swapped_kind_is_reported_at_its_path(workdir, swap):
    name, path, text = swap
    argv = DOCUMENTS[name][1](write_document(workdir, name, text))[0]
    code, err = run(argv)
    assert code == 1, err
    where = located(path)
    assert err.startswith(f"error: {where}: " if where else "error: expected "), (where, err)
    assert_handled(code, err)


VOTE_COMMANDS = [
    ["aggregate", "--rule", "borda"],
    ["aggregate", "--rule", "ranked-pairs"],
    ["aggregate", "--rule", "irv"],
    ["aggregate", "--rule", "random-dictator"],
    ["committee", "--rule", "greedy-cc", "--k", "2"],
    ["committee", "--rule", "k-borda", "--k", "1"],
    ["audit", "cycle"],
]
# (fixture, the command line that reads it, less the file name at its end)
TEXT_INPUTS = [
    *[(vote, [*command, "--profile"])
      for vote in sorted(DATA.glob("*.vote")) for command in VOTE_COMMANDS],
    (DATA / "feedback.txt", ["parse-feedback", "--context", "A,B,C", "--statements"]),
]


@st.composite
def mutated_bytes(draw):
    fixture, command = draw(st.sampled_from(TEXT_INPUTS))
    data = bytearray(fixture.read_bytes())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data) - 1))
        new = bytes(draw(st.lists(st.integers(0, 255), min_size=0, max_size=2)))
        data[at:at + draw(st.integers(0, 1))] = new
    return fixture, command, bytes(data)


@FUZZ
@given(mutated_bytes())
def test_mutated_text_inputs_are_handled(workdir, mutation):
    fixture, command, data = mutation
    path = workdir / fixture.name
    path.write_bytes(data)
    assert_handled(*run([*command, path]))


# A count of 401 digits, beyond the largest float, and three counts at the
# integer-to-text digit limit, whose sums in the tallies print with more.
DIGIT_LIMIT = sys.get_int_max_str_digits()
HUGE_VOTES = {
    "401_digits": "alternatives: A, B, C\n1" + "0" * 400 + ": A > B > C\n1: B > C > A\n",
    "limit_nines": "alternatives: A, B\n" + ("9" * (DIGIT_LIMIT or 4300) + ": A > B\n") * 3
    + "1: B > A\n",
}
PROFILE_COMMANDS = [
    ["aggregate", "--rule", "plurality"],
    *VOTE_COMMANDS,
    ["audit", "clones", "--rule", "borda", "--target", "A"],
    ["audit", "manipulation", "--rule", "borda", "--voter", "0"],
    ["audit", "anonymity", "--rule", "borda"],
]

EXACT_AUDITS = {"anonymity": ("anonymous", True), "manipulation": ("witness", None)}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", PROFILE_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", sorted(HUGE_VOTES))
def test_huge_counts_are_handled(workdir, name, command, fmt):
    path = workdir / f"{name}.vote"
    path.write_text(HUGE_VOTES[name])
    code, err = run([*command, "--profile", path, "--format", fmt])
    assert_handled(code, err)
    if command[1] == "clones":
        # Cloning expands each voter, and refuses past the voter cap.
        assert code == 1 and "100,000 voters" in err, err
    elif command[1] in EXACT_AUDITS:
        # These read the merge and answer exactly: every rule is anonymous,
        # and voter 0's top choice wins, so no misreport helps them.
        assert code == 0, err
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main([*command, "--profile", str(path)])
        field, expected = EXACT_AUDITS[command[1]]
        assert json.loads(out.getvalue())["payload"][field] == expected
    elif name == "limit_nines" and DIGIT_LIMIT and "random-dictator" not in command:
        # A count, score or margin is too long to print: the error names the limit.
        assert code == 1 and f"{DIGIT_LIMIT} digits" in err, err
    else:
        assert code == 0, err


def test_voter_out_of_range_names_the_index_not_the_count(workdir):
    # The count has more digits than Python prints; the message never shows it.
    path = workdir / "limit_nines.vote"
    path.write_text(HUGE_VOTES["limit_nines"])
    argv = ["audit", "manipulation", "--rule", "borda", "--profile", path, "--voter", "-1"]
    assert run(argv) == (1, "error: voter index -1 out of range for the profile's voters\n")
