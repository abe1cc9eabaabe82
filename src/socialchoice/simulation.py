"""Synthetic evaluator populations with a learnable bilinear preference model.

The ground-truth world rates a response y for an evaluator with features f as
clamp(f' M* g(y) + noise, 0, 10); the learnable model recovers an estimate of
M* by ridge regression on the vectorized outer-product design.

Ratings are computed a block at a time: every evaluator row of an N x d
matrix F against every response row of an r x q matrix G.  The per-pair
functions (`true_rating`, `predict_rating`) are one-row uses of the blocks.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cardinal import RATING_MAX, RATING_MIN
from .seeding import derive_seed

# An evaluator is a point in [0, 1]^d.
EvaluatorFeatures = tuple[float, ...]

WEIGHT_SUM_TOL = 1e-9


def clamp_ratings(values) -> np.ndarray:
    """Clamp ratings elementwise into [RATING_MIN, RATING_MAX].

    Same results as min(RATING_MAX, max(RATING_MIN, v)) on Python floats:
    -0.0 and NaN become RATING_MIN.
    """
    above = np.where(values > RATING_MIN, values, RATING_MIN)
    return np.where(above < RATING_MAX, above, RATING_MAX)


def clamp_rating(value: float) -> float:
    return float(clamp_ratings(float(value)))


@dataclass(frozen=True)
class ResponseRecord:
    """A candidate response: id, display text, and a q-dimensional feature vector."""

    id: str
    text: str
    features: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(float(v) for v in self.features))
        if not self.id:
            raise ValueError("response id must be non-empty")
        if not all(math.isfinite(v) for v in self.features):
            raise ValueError(f"non-finite feature in response {self.id!r}")


@dataclass(frozen=True)
class ComponentDist:
    """One feature dimension's distribution: uniform(a, b) on [0,1] or beta(a, b)."""

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind == "uniform":
            if not 0.0 <= self.a <= self.b <= 1.0:
                raise ValueError(f"uniform bounds [{self.a}, {self.b}] must sit inside [0, 1]")
        elif self.kind == "beta":
            if self.a <= 0 or self.b <= 0:
                raise ValueError("beta shape parameters must be positive")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    def sample(self, rng: random.Random) -> float:
        if self.kind == "uniform":
            return rng.uniform(self.a, self.b)
        return rng.betavariate(self.a, self.b)


@dataclass(frozen=True)
class GroupSpec:
    """A stakeholder subpopulation: sampling weight plus per-dimension distributions."""

    weight: float
    components: tuple[ComponentDist, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.weight <= 0:
            raise ValueError("group weight must be positive")


@dataclass(frozen=True)
class PopulationSpec:
    """A stratified population: groups whose weights sum to one.

    `noise_sigma` is checked but never used: rating noise comes from
    `GroundTruthWorld.noise_sigma`, and the dataset loader refuses a nonzero one.
    """

    d: int
    groups: tuple[GroupSpec, ...]
    noise_sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        if self.d < 1:
            raise ValueError("feature dimension must be at least 1")
        if not self.groups:
            raise ValueError("a population needs at least one group")
        for group in self.groups:
            if len(group.components) != self.d:
                raise ValueError(
                    f"group has {len(group.components)} component distributions, expected {self.d}"
                )
        total = sum(g.weight for g in self.groups)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"group weights sum to {total}, expected 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")


def group_quotas(weights: list[float], n: int) -> list[int]:
    """Largest-remainder quotas: floor(weight*n) plus the biggest fractional parts."""
    raw = [w * n for w in weights]
    base = [int(math.floor(r)) for r in raw]
    shortfall = n - sum(base)
    by_remainder = sorted(range(len(weights)), key=lambda i: (base[i] - raw[i], i))
    for i in by_remainder[:shortfall]:
        base[i] += 1
    return base


def sample_population(spec: PopulationSpec, n: int, seed: int) -> tuple[EvaluatorFeatures, ...]:
    """Draw n evaluators, stratified by group quotas, deterministically in seed."""
    if n < 1:
        raise ValueError("population sample size must be at least 1")
    quotas = group_quotas([g.weight for g in spec.groups], n)
    evaluators: list[EvaluatorFeatures] = []
    for gi, (group, quota) in enumerate(zip(spec.groups, quotas)):
        rng = random.Random(derive_seed(seed, "population-group", gi))
        for _ in range(quota):
            evaluators.append(tuple(dist.sample(rng) for dist in group.components))
    return tuple(evaluators)


def _as_matrix(entries) -> np.ndarray:
    matrix = np.asarray(entries, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix entries must be finite")
    return matrix


@dataclass(frozen=True)
class GroundTruthWorld:
    """The synthetic ground truth: rating(f, y) = clamp(f' M_star g(y) + noise)."""

    M_star: tuple[tuple[float, ...], ...]
    noise_sigma: float = 0.0

    def __post_init__(self):
        matrix = _as_matrix(self.M_star)
        object.__setattr__(self, "M_star", tuple(tuple(row) for row in matrix.tolist()))
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")

    @property
    def d(self) -> int:
        return len(self.M_star)

    @property
    def q(self) -> int:
        return len(self.M_star[0])


def evaluator_matrix(sample: Sequence[EvaluatorFeatures], d: int) -> np.ndarray:
    """The N x d matrix of evaluator feature rows."""
    for f in sample:
        if len(f) != d:
            raise ValueError(f"evaluator has {len(f)} features, world expects {d}")
    return np.array(sample, dtype=float).reshape(len(sample), d)


def response_matrix(responses: Sequence[ResponseRecord], q: int) -> np.ndarray:
    """The r x q matrix of response feature rows."""
    for y in responses:
        if len(y.features) != q:
            raise ValueError(f"response {y.id!r} has {len(y.features)} features, world expects {q}")
    return np.array([y.features for y in responses], dtype=float).reshape(len(responses), q)


def bilinear(F: np.ndarray, M: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The N x r block of f' M g for every row f of F and row g of G.

    Each entry is computed as the one-row product (f @ M) @ g, through
    stacked matmuls, so it is bit-identical to the per-pair product; a single
    F @ M @ G.T gemm sums in another order and differs in the last bits.
    """
    FM = (F[:, None, :] @ M)[:, 0]
    return np.matmul(FM[:, None, None, :], G[None, :, :, None])[..., 0, 0]


# SplitMix64 (Steele, Lea & Flood 2014): output c of the generator seeded
# with key is the finalizer applied to key + (c + 1) * gamma, mod 2**64.
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MUL2 = np.uint64(0x94D049BB133111EB)


def _uniforms(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """One uniform in [0, 1) per broadcast (key, counter) pair of uint64 arrays.

    Each is SplitMix64's output number `counter` for the seed `key`, cut to
    its top 53 bits.  The arithmetic wraps mod 2**64, which numpy does
    silently on arrays (on 0-d scalars it warns), so both inputs must be arrays.
    """
    z = keys + (counters + np.uint64(1)) * _SPLITMIX_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_MUL1
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_MUL2
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def true_ratings(
    world: GroundTruthWorld,
    F: np.ndarray,
    responses: Sequence[ResponseRecord],
    seed: int,
    first_index: int = 0,
) -> np.ndarray:
    """Ground-truth ratings of every response by every evaluator row of F.

    Row i is evaluator `first_index + i`.  Response y's noise comes from a
    counter-based stream keyed by `derive_seed(seed, "noise", y.id)`:
    evaluator e draws the SplitMix64 uniforms u1, u2 at counters 2e and
    2e + 1 and adds sigma * sqrt(-2 log1p(-u1)) * cos(2 pi u2) (Box-Muller).
    So a rating depends only on (seed, response id, evaluator index), never
    on the block size, `first_index` or what else was rated.
    """
    values = bilinear(F, np.asarray(world.M_star), response_matrix(responses, world.q))
    if world.noise_sigma > 0:
        keys = np.array([derive_seed(seed, "noise", y.id) for y in responses], dtype=np.uint64)
        counters = 2 * np.arange(first_index, first_index + len(F), dtype=np.uint64)[:, None]
        u1 = _uniforms(keys, counters)
        u2 = _uniforms(keys, counters + np.uint64(1))
        values += world.noise_sigma * np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    return clamp_ratings(values)


def true_rating(
    world: GroundTruthWorld,
    f: EvaluatorFeatures,
    y: ResponseRecord,
    seed: int,
    evaluator_index: int,
) -> float:
    """Ground-truth rating of one response by one evaluator (see `true_ratings`)."""
    F = evaluator_matrix([f], world.d)
    return float(true_ratings(world, F, [y], seed, evaluator_index)[0, 0])


@dataclass(frozen=True)
class IndividualPreferenceModel:
    """A fitted bilinear rating model: prediction = clamp(f' M_hat g(y))."""

    M_hat: tuple[tuple[float, ...], ...]
    ridge_lambda: float

    def __post_init__(self):
        matrix = _as_matrix(self.M_hat)
        object.__setattr__(self, "M_hat", tuple(tuple(row) for row in matrix.tolist()))

    @property
    def d(self) -> int:
        return len(self.M_hat)

    @property
    def q(self) -> int:
        return len(self.M_hat[0])


def kron_rows(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Design rows kron(f, g), one per pair of rows f of F and g of G.

    F (..., d) and G (..., q) broadcast against each other: equal-length
    stacks pair up row by row, and F[:, None] against G[None] gives every
    evaluator against every response, evaluator-major.
    """
    X = F[..., :, None] * G[..., None, :]
    return X.reshape(-1, X.shape[-2] * X.shape[-1])


def fit_individual_model(
    samples: list[tuple[EvaluatorFeatures, ResponseRecord, float]],
    ridge_lambda: float,
) -> IndividualPreferenceModel:
    """Ridge-fit M_hat on (f, y, rating) triples.

    Each sample contributes one row kron(f, g(y)) to the design (see
    `fit_design`).
    """
    if not samples:
        raise ValueError("need at least one sample")
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be non-negative")
    d = len(samples[0][0])
    q = len(samples[0][1].features)
    if any(len(f) != d or len(y.features) != q for f, y, _ in samples):
        raise ValueError("inconsistent sample dimensions")
    F = np.array([f for f, _, _ in samples], dtype=float).reshape(len(samples), d)
    G = np.array([y.features for _, y, _ in samples], dtype=float).reshape(len(samples), q)
    r = np.array([float(rating) for _, _, rating in samples])
    return fit_design(kron_rows(F, G), r, d, q, ridge_lambda)


def fit_design(
    X: np.ndarray, r: np.ndarray, d: int, q: int, ridge_lambda: float
) -> IndividualPreferenceModel:
    """Ridge-fit M_hat on the design X and ratings r (see `ridge_solve`)."""
    w = ridge_solve(X, r, ridge_lambda)
    return IndividualPreferenceModel(
        tuple(tuple(row) for row in w.reshape(d, q).tolist()), float(ridge_lambda)
    )


def ridge_solve(X: np.ndarray, y: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """Solve the ridge normal equations (X'X + lambda I) w = X'y for w.

    At lambda = 0 the least-squares solution is returned, and a
    rank-deficient design is reported instead of silently pseudo-inverted.
    """
    columns = X.shape[1]
    if ridge_lambda == 0:
        rank = np.linalg.matrix_rank(X)
        if rank < columns:
            raise ValueError(
                f"design is rank deficient at lambda=0 (rank {rank} < {columns}); "
                "add samples or use a positive ridge_lambda"
            )
        return np.linalg.lstsq(X, y, rcond=None)[0]
    return np.linalg.solve(X.T @ X + ridge_lambda * np.eye(columns), X.T @ y)


def predicted_ratings(
    psi: IndividualPreferenceModel, F: np.ndarray, responses: Sequence[ResponseRecord]
) -> np.ndarray:
    """Model ratings clamp(f' M_hat g(y)) of every response by every row of F."""
    return clamp_ratings(bilinear(F, np.asarray(psi.M_hat), response_matrix(responses, psi.q)))


def predict_rating(psi: IndividualPreferenceModel, f: EvaluatorFeatures, y: ResponseRecord) -> float:
    """Model rating of one response by one evaluator: clamp(f' M_hat g(y), 0, 10)."""
    return float(predicted_ratings(psi, evaluator_matrix([f], psi.d), [y])[0, 0])

