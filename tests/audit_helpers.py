"""Random profiles and clone specs for the auditor tests and the acceptance sweeps."""

from random import Random

from socialchoice.audits import CloneSpec, _capped_voters
from socialchoice.profiles import OrdinalProfile, profile_from_rankings


def random_strict_profile(rng: Random, m: int, n: int) -> OrdinalProfile:
    """n independent uniform strict rankings over the first m letters."""
    alternatives = tuple(chr(ord("A") + i) for i in range(m))
    rankings = [tuple(rng.sample(alternatives, m)) for _ in range(n)]
    return profile_from_rankings(rankings, alternatives)


def random_clone_spec(rng: Random, profile: OrdinalProfile, copies: int = 2) -> CloneSpec:
    """Clone a random alternative with independently shuffled per-voter orders."""
    target = rng.choice(profile.alternatives)
    clones = CloneSpec(target, copies).clone_ids()
    orders = {i: tuple(rng.sample(clones, len(clones))) for i in range(_capped_voters(profile))}
    return CloneSpec(target, copies, orders)
