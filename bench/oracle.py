"""Reference tallies that check the program's reports from outside.

They work on the ballots as the benchmark generated them (alternative
indices, best first) and share no code with the socialchoice package: numpy
tallies for margins, Borda scores and first places, and small direct
implementations of the rules' documented definitions.  Ties are broken by
alternative id, as the package documents.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np


def canonical(value: float) -> float:
    """A float as the reports print it: 9 significant digits."""
    return float(format(value, ".9g"))


def parse_vote(text: str) -> tuple[list[str], list[tuple[int, ...]]]:
    """Read a `.vote` file into ids and one index ranking per unit voter."""
    ids: list[str] | None = None
    rankings: list[tuple[int, ...]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ids is None:
            ids = [t.strip() for t in line.split(":", 1)[1].split(",")]
            continue
        count, ranking = line.split(":", 1)
        order = tuple(ids.index(t.strip()) for t in ranking.split(">"))
        rankings.extend([order] * int(count))
    return ids, rankings


def jury_targets(responses: list[str], jury: list[tuple[tuple[str, ...], int]]) -> dict:
    """Rank-target scores of the Borda ranking of a weighted jury."""
    m = len(responses)
    scores = dict.fromkeys(responses, 0)
    for ranking, weight in jury:
        for position, rid in enumerate(ranking):
            scores[rid] += weight * (m - 1 - position)
    ranking = sorted(responses, key=lambda r: (-scores[r], r))
    return {rid: 10.0 * (m - 1 - pos) / (m - 1) for pos, rid in enumerate(ranking)}


class Election:
    """A strict-ranking election with its reference tallies."""

    def __init__(self, ids, rankings):
        self.ids = list(ids)
        self.rank = np.asarray(rankings, dtype=np.int64)
        n, m = self.rank.shape
        self.n, self.m = n, m
        self.pos = np.empty_like(self.rank)
        self.pos[np.arange(n)[:, None], self.rank] = np.arange(m)
        wins = (self.pos[:, :, None] < self.pos[:, None, :]).sum(axis=0)
        self.margins = wins - wins.T
        self.borda = (m - 1 - self.pos).sum(axis=0)
        self.firsts = np.bincount(self.rank[:, 0], minlength=m)

    def _by_score(self, scores) -> list[str]:
        order = sorted(range(self.m), key=lambda i: (-scores[i], self.ids[i]))
        return [self.ids[i] for i in order]

    def score_map(self, scores) -> dict[str, float]:
        return {self.ids[i]: float(scores[i]) for i in range(self.m)}

    def margin_map(self) -> dict[str, dict[str, int]]:
        return {
            self.ids[i]: {self.ids[j]: int(self.margins[i, j]) for j in range(self.m) if j != i}
            for i in range(self.m)
        }

    def plurality_ranking(self) -> list[str]:
        return self._by_score(self.firsts)

    def borda_ranking(self) -> list[str]:
        return self._by_score(self.borda)

    def instant_runoff(self) -> tuple[list[str], dict[str, float]]:
        """Eliminate the fewest first places (largest id on ties) until none remain."""
        active = np.ones(self.m, dtype=bool)
        eliminated: list[str] = []
        scores: dict[str, float] = {}
        rows = np.arange(self.n)
        while active.any():
            first = self.rank[rows, active[self.rank].argmax(axis=1)]
            counts = np.bincount(first, minlength=self.m)
            live = np.flatnonzero(active)
            fewest = counts[live].min()
            out = max((i for i in live if counts[i] == fewest), key=lambda i: self.ids[i])
            eliminated.append(self.ids[out])
            scores[self.ids[out]] = float(counts[out])
            active[out] = False
        return eliminated[::-1], scores

    def ranked_pairs(self) -> tuple[list[str], list[list]]:
        """Tideman's lock order and the lexicographic topological ranking."""
        ids, m = self.ids, self.m
        pairs = sorted(
            (
                (int(self.margins[i, j]), i, j)
                for i in range(m)
                for j in range(m)
                if self.margins[i, j] > 0
            ),
            key=lambda p: (-p[0], ids[p[1]], ids[p[2]]),
        )
        reach = np.eye(m, dtype=bool)
        locked = []
        indegree = [0] * m
        for margin, winner, loser in pairs:
            if reach[loser, winner]:
                continue
            locked.append([ids[winner], ids[loser], margin])
            indegree[loser] += 1
            reach[reach[:, winner]] |= reach[loser]
        ranking: list[str] = []
        remaining = set(range(m))
        while remaining:
            nxt = min((i for i in remaining if indegree[i] == 0), key=lambda i: ids[i])
            ranking.append(ids[nxt])
            remaining.remove(nxt)
            for w, l, _ in locked:
                if w == ids[nxt]:
                    indegree[ids.index(l)] -= 1
        return ranking, locked

    def greedy_cc(self, k: int) -> tuple[list[str], float]:
        """Greedy Chamberlin-Courant with Borda satisfaction, smallest id on ties."""
        satisfaction = self.m - 1 - self.pos
        current = np.zeros(self.n, dtype=np.int64)
        chosen: list[int] = []
        for _ in range(k):
            gains = np.maximum(satisfaction - current[:, None], 0).sum(axis=0)
            best = min(
                (i for i in range(self.m) if i not in chosen),
                key=lambda i: (-gains[i], self.ids[i]),
            )
            chosen.append(best)
            current = np.maximum(current, satisfaction[:, best])
        return [self.ids[i] for i in chosen], float(current.sum())

    def condorcet_winner(self) -> str | None:
        for i in range(self.m):
            if all(self.margins[i, j] > 0 for j in range(self.m) if j != i):
                return self.ids[i]
        return None

    def is_majority_cycle(self, cycle) -> bool:
        """Strict majority edges all round, written from its smallest id."""
        index = [self.ids.index(a) for a in cycle]
        closed = index + index[:1]
        return (
            len(set(cycle)) == len(cycle) >= 3
            and min(cycle) == cycle[0]
            and all(self.margins[a, b] > 0 for a, b in zip(closed, closed[1:]))
        )

    def has_majority_cycle(self) -> bool:
        closure = self.margins > 0
        for k in range(self.m):
            closure |= closure[:, k : k + 1] & closure[k : k + 1, :]
        return bool(closure.diagonal().any())

    def all_majority_cycles(self) -> list[list[str]]:
        """Every elementary cycle by brute force; for small m only."""
        order = sorted(self.ids)
        cycles = []
        for size in range(3, self.m + 1):
            for combo in combinations(order, size):
                for rest in permutations(combo[1:]):
                    cycle = (combo[0], *rest)
                    if self.is_majority_cycle(cycle):
                        cycles.append(list(cycle))
        return sorted(cycles, key=lambda c: (len(c), c))
