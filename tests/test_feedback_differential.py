"""`PartialPreference`'s closure and cycle check against boolean Warshall.

`reference_closure` is Warshall's (1962) algorithm on a boolean matrix over
the sorted ids: after pivot k, entry (i, j) is set when j is reachable from
i through pivots up to k.  An order has a cycle exactly when some diagonal
entry ends up set.  On every pair set over at most 8 ids, self-pairs
included, `PartialPreference` must hold the reference's closed order, or
raise `FeedbackInconsistencyError` exactly when the reference has a cycle,
naming the smallest id on a cycle and the smallest other id on it.
"""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from socialchoice.feedback import FeedbackInconsistencyError, PartialPreference

IDS = tuple("abcdefgh")


def reference_closure(pairs):
    ids = sorted({x for pair in pairs for x in pair})
    index = {x: i for i, x in enumerate(ids)}
    n = len(ids)
    reach = [[False] * n for _ in range(n)]
    for a, b in pairs:
        reach[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    closed = {(ids[i], ids[j]) for i in range(n) for j in range(n) if reach[i][j]}
    return ids, closed


pair_sets = st.sets(st.tuples(st.sampled_from(IDS), st.sampled_from(IDS)), max_size=20)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pair_sets)
def test_closure_and_cycles_match_warshall(pairs):
    ids, closed = reference_closure(pairs)
    on_cycle = [a for a in ids if (a, a) in closed]
    try:
        pp = PartialPreference(frozenset(pairs), {})
    except FeedbackInconsistencyError as exc:
        assert on_cycle, f"refused an acyclic order: {exc}"
        named = re.fullmatch(r"order statements create a cycle involving '(\w)' and '(\w)'", str(exc))
        a, b = named.groups()
        assert a == on_cycle[0]
        partners = [c for c in on_cycle if c != a and (a, c) in closed and (c, a) in closed]
        assert b == (partners[0] if partners else a)
        return
    assert not on_cycle, f"accepted an order with a cycle through {on_cycle}"
    assert pp.strict_order == frozenset(closed)
