"""Cardinal rating aggregation and multi-winner committee selection."""

from __future__ import annotations

import statistics
from collections.abc import Callable
from dataclasses import dataclass

from .jsonin import LocatedError, load
from .ordinal import borda, reported_score
from .profiles import BallotParseError, OrdinalProfile, validate_alternative_id
from .rules import RATING_MAX, RATING_MIN, resolve_rule, rule_ids


@dataclass(frozen=True)
class RatingProfile:
    """Complete cardinal ratings: every evaluator rates every alternative on [0, 10]."""

    alternatives: tuple[str, ...]
    evaluators: tuple[str, ...]
    ratings: dict[str, dict[str, float]]

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        object.__setattr__(self, "evaluators", tuple(self.evaluators))
        object.__setattr__(
            self, "ratings", {e: dict(row) for e, row in self.ratings.items()}
        )
        if not self.alternatives:
            raise LocatedError("a rating profile needs at least one alternative", "alternatives")
        if len(set(self.alternatives)) != len(self.alternatives):
            raise LocatedError("duplicate alternative ids", "alternatives")
        try:
            for alt in self.alternatives:
                validate_alternative_id(alt)
        except BallotParseError as exc:
            raise _AlternativeIdError(str(exc)) from None
        if not self.evaluators:
            raise LocatedError("a rating profile needs at least one evaluator", "ratings")
        if len(set(self.evaluators)) != len(self.evaluators):
            raise LocatedError("duplicate evaluator ids", "ratings")
        if set(self.ratings) != set(self.evaluators):
            raise LocatedError("ratings must cover exactly the declared evaluators", "ratings")
        for evaluator, row in self.ratings.items():
            if set(row) != set(self.alternatives):
                message = f"evaluator {evaluator!r} must rate exactly the declared alternatives"
                raise LocatedError(message, "ratings", evaluator)
            for alt, value in row.items():
                if not RATING_MIN <= value <= RATING_MAX:
                    message = f"rating {value} for ({evaluator!r}, {alt!r}) outside [0, 10]"
                    raise LocatedError(message, "ratings", evaluator, alt)

    def column(self, alt: str) -> list[float]:
        """All evaluators' ratings of one alternative, in evaluator order."""
        return [self.ratings[e][alt] for e in self.evaluators]


class _AlternativeIdError(BallotParseError, LocatedError):
    """The ballot error a bad alternative id raises anywhere, located at the profile's ids."""

    keys = ("alternatives",)


def rating_profile_from_json(text: str) -> RatingProfile:
    """Load the {"alternatives": [...], "ratings": {evaluator: {alt: num}}} schema."""
    root = load(text)
    alternatives, ratings = root.fields("alternatives", "ratings")
    alts = alternatives.strings()
    rows = {e: {alt: value.number() for alt, value in row.items()} for e, row in ratings.items()}
    return root.build(RatingProfile, alts, tuple(rows), rows)


def mean(values: list[float]) -> float:
    """The arithmetic mean of the ratings."""
    return statistics.fmean(values)


def median(values: list[float]) -> float:
    """The median of the ratings; the midpoint of the middle two for an even count."""
    return float(statistics.median(values))


# Each registry id of kind "cardinal" names its function in this module.
CARDINAL_RULES: dict[str, Callable[[list[float]], float]] = {
    rid: globals()[rid] for rid in rule_ids("cardinal")
}


def cardinal_rule(name: str) -> Callable[[list[float]], float]:
    """Look up a cardinal rule by any spelling of its id."""
    return resolve_rule(name, "cardinal").fn


def aggregate_ratings(rp: RatingProfile, rule_id: str) -> dict[str, float]:
    """Aggregate each alternative's ratings into one social rating."""
    rule = cardinal_rule(rule_id)
    return {alt: rule(rp.column(alt)) for alt in rp.alternatives}


@dataclass(frozen=True)
class Committee:
    """k distinct alternatives, in the order the rule selected them."""

    winners: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "winners", tuple(self.winners))
        if not self.winners:
            raise ValueError("a committee needs at least one winner")
        if len(set(self.winners)) != len(self.winners):
            raise ValueError("committee winners must be distinct")


def _check_committee_size(profile: OrdinalProfile, k: int):
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"committee size must be a positive integer, got {k!r}")
    if k > profile.num_alternatives:
        raise ValueError(
            f"committee size {k} exceeds the {profile.num_alternatives} alternatives"
        )


def k_borda(profile: OrdinalProfile, k: int) -> Committee:
    """The k alternatives with the highest Borda scores, best first."""
    _check_committee_size(profile, k)
    return Committee(borda(profile).ranking[:k])


def _cc_score_on_merge(profile: OrdinalProfile, committee: tuple[str, ...]) -> int:
    last = profile.num_alternatives - 1
    return sum(
        weight * (last - min(map(ranking.index, committee))) for ranking, weight in profile.merged
    )


def _cc_score_on_arrays(profile: OrdinalProfile, committee: tuple[str, ...]) -> int:
    positions, weights = profile._position_tally
    index = {a: i for i, a in enumerate(profile.alternatives)}
    best = positions[:, [index[alt] for alt in committee]].min(axis=1)
    return int(weights @ (profile.num_alternatives - 1 - best))


def cc_score(profile: OrdinalProfile, committee: tuple[str, ...]) -> int | float:
    """Chamberlin-Courant objective: each voter counts their best committee member."""
    # Cold, the merge is never slower; arrays that a tally already built are faster.
    kernel = _cc_score_on_arrays if "_position_tally" in vars(profile) else _cc_score_on_merge
    return reported_score(kernel(profile, committee))


def _greedy_cc_on_merge(profile: OrdinalProfile, k: int) -> tuple[str, ...]:
    alts = profile.alternatives
    last = len(alts) - 1
    # Each distinct ranking's satisfaction: its best chosen member's Borda
    # points, and 0 before round one.
    current = [0] * len(profile.merged)
    chosen: list[str] = []
    for _ in range(k):
        gains = dict.fromkeys(alts, 0)
        for (ranking, weight), floor in zip(profile.merged, current):
            # Points fall down a ranking, so only the places above floor gain.
            for points, alt in zip(range(last, floor, -1), ranking):
                gains[alt] += weight * (points - floor)
        best = min((a for a in alts if a not in chosen), key=lambda a: (-gains[a], a))
        chosen.append(best)
        current = [
            max(floor, last - ranking.index(best))
            for (ranking, _), floor in zip(profile.merged, current)
        ]
    return tuple(chosen)


def _greedy_cc_on_arrays(profile: OrdinalProfile, k: int) -> tuple[str, ...]:
    import numpy as np

    alts = profile.alternatives
    positions, weights = profile._position_tally
    satisfaction = len(alts) - 1 - positions
    # Satisfactions are non-negative, so a zero baseline makes round one's
    # marginal gain equal the plain Borda satisfaction sum.
    current = np.zeros((len(weights), 1), dtype=satisfaction.dtype)
    chosen: list[int] = []
    for _ in range(k):
        gains = (weights @ np.maximum(satisfaction - current, 0)).tolist()
        best = min(
            (i for i in range(len(alts)) if i not in chosen), key=lambda i: (-gains[i], alts[i])
        )
        chosen.append(best)
        current = np.maximum(current, satisfaction[:, best, None])
    return tuple(alts[i] for i in chosen)


def greedy_cc(profile: OrdinalProfile, k: int) -> Committee:
    """Greedy Chamberlin-Courant with Borda satisfaction.

    Each round adds the alternative with the largest marginal gain in the sum
    over voters of their best (highest Borda satisfaction) committee member,
    breaking gain ties lexicographically.  Costs O(k d m) for d distinct
    rankings, with exact integer gains: in pure Python on a small profile, on
    numpy arrays on a large one.
    """
    _check_committee_size(profile, k)
    kernel = _greedy_cc_on_merge if profile._tallies_on_merge else _greedy_cc_on_arrays
    return Committee(kernel(profile, k))
