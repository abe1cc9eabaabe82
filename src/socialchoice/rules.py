"""The rule registry: every aggregation rule's id, kind and extra spellings.

Each id is its function's name, which `resolve_rule` reads from `ordinal` for
the ordinal (profile -> SocialRanking) and lottery ((profile, seed) -> (Lottery,
winner)) rules and from `cardinal` for the committee ((profile, k) -> Committee)
and cardinal (ratings -> rating) rules.  A new rule takes its function and one
row here; a deterministic ordinal rule also takes one `ordinal.ORDINAL_TALLIES` row.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

# The scale of every rating, prediction and feedback bound; kept here, which
# every command loads, so that reading it loads no rule module.
RATING_MIN = 0.0
RATING_MAX = 10.0

# id: (kind, spellings accepted besides the id)
RULES: dict[str, tuple[str, tuple[str, ...]]] = {
    "plurality": ("ordinal", ()),
    "borda": ("ordinal", ()),
    "instant_runoff": ("ordinal", ("irv",)),
    "ranked_pairs": ("ordinal", ()),
    "random_dictator": ("lottery", ()),
    "k_borda": ("committee", ()),
    "greedy_cc": ("committee", ()),
    "mean": ("cardinal", ()),
    "median": ("cardinal", ()),
}
_SPELLINGS = {name: rid for rid, (_, aliases) in RULES.items() for name in (rid, *aliases)}


class Rule(NamedTuple):
    id: str
    kind: str
    fn: Callable


def rule_ids(kind: str) -> tuple[str, ...]:
    return tuple(rid for rid, (k, _) in RULES.items() if k == kind)


def resolve_rule(name: str, *kinds: str) -> Rule:
    """The rule `name` spells, of one of `kinds` (of any kind when none are given).

    A name is stripped, lowercased and read with '-' as '_'.  Unknown names
    and names of another kind raise one ValueError format.  The function is
    read from its module when called, so a wrapper installed there sees
    every call.
    """
    rid = _SPELLINGS.get(name.strip().lower().replace("-", "_") if isinstance(name, str) else None)
    kind = RULES[rid][0] if rid is not None else None
    if kind is None or (kinds and kind not in kinds):
        wanted = " or ".join(f"{k} rule" for k in kinds) or "rule"
        actual = f" (kind: {kind})" if kind is not None else ""
        known = ", ".join(sorted(r for r, (k, _) in RULES.items() if not kinds or k in kinds))
        raise ValueError(f"unknown {wanted} {name!r}{actual}; known rules: {known}")
    # The rule modules import this one, so the kind's module is imported here.
    if kind in ("ordinal", "lottery"):
        from . import ordinal as module
    else:
        from . import cardinal as module
    return Rule(rid, kind, getattr(module, rid))
