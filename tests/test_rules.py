"""The rule registry: ids, kinds, spellings and the one lookup."""

from pathlib import Path

import pytest

from socialchoice import cardinal, ordinal
from socialchoice.cardinal import CARDINAL_RULES, cardinal_rule
from socialchoice.ordinal import ORDINAL_RULES, ordinal_rule, ranked_pairs_locks
from socialchoice.profiles import parse_profile
from socialchoice.rules import RULES, resolve_rule, rule_ids

KINDS = ("ordinal", "lottery", "committee", "cardinal")

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.mark.parametrize("rid", list(RULES))
def test_every_id_resolves_to_exactly_one_kind(rid):
    kind = RULES[rid][0]
    assert kind in KINDS
    assert resolve_rule(rid) == (rid, kind, resolve_rule(rid, kind).fn)
    for other in KINDS:
        if other != kind:
            with pytest.raises(ValueError, match=f"\\(kind: {kind}\\)"):
                resolve_rule(rid, other)


def test_each_id_names_its_function():
    assert ORDINAL_RULES == {rid: getattr(ordinal, rid) for rid in rule_ids("ordinal")}
    assert CARDINAL_RULES == {rid: getattr(cardinal, rid) for rid in rule_ids("cardinal")}
    assert resolve_rule("random_dictator").fn is ordinal.random_dictator
    for rid in rule_ids("committee"):
        assert resolve_rule(rid).fn is getattr(cardinal, rid)


@pytest.mark.parametrize(
    "name, rid",
    [
        ("ranked-pairs", "ranked_pairs"),
        (" Borda ", "borda"),
        ("IRV", "instant_runoff"),
        ("instant-runoff", "instant_runoff"),
        ("Random-Dictator", "random_dictator"),
        ("greedy-cc", "greedy_cc"),
        ("MEDIAN", "median"),
    ],
)
def test_spellings_normalize_once(name, rid):
    assert resolve_rule(name).id == rid


def test_kind_lookups_are_the_registry():
    assert ordinal_rule("Ranked-Pairs") is ORDINAL_RULES["ranked_pairs"]
    assert cardinal_rule("mean") is CARDINAL_RULES["mean"]
    with pytest.raises(ValueError, match=r"unknown cardinal rule 'borda' \(kind: ordinal\)"):
        cardinal_rule("borda")


@pytest.mark.parametrize("name", ["schulze", "", 5, None, "irv-2"])
def test_unknown_names_share_one_error(name):
    with pytest.raises(ValueError, match=r"^unknown ordinal rule or committee rule .*; known rules: "):
        resolve_rule(name, "ordinal", "committee")
    with pytest.raises(ValueError, match=r"^unknown rule .*; known rules: borda, greedy_cc, "):
        resolve_rule(name)


def test_ranked_pairs_carries_its_lock_order():
    profile = parse_profile((DATA / "fig1.vote").read_text())
    result = ordinal_rule("ranked_pairs")(profile)
    assert result.locked_pairs == ranked_pairs_locks(profile) == (("C", "A", 7), ("B", "C", 3))
    assert result.elimination_order is None


def test_instant_runoff_carries_its_elimination_order():
    profile = parse_profile((DATA / "fig1.vote").read_text())
    result = ordinal_rule("irv")(profile)
    assert result.elimination_order == tuple(reversed(result.ranking))
    assert result.locked_pairs is None
