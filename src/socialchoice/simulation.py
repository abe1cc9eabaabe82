"""Synthetic evaluator populations with a learnable bilinear preference model.

The ground-truth world rates a response y for an evaluator with features f as
clamp(f' M* g(y) + noise, 0, 10); the learnable model recovers an estimate of
M* by ridge regression of the ratings on the design rows kron(f, g(y)).  When
every evaluator rates every response, as in the pipeline, that design's Gram
matrix is (F'F) kron (G'G) and its right-hand side F'RG, so a positive ridge
is solved from those blocks without forming the design (`pipeline._train_psi`);
`fit_design` solves on a formed design.

Ratings are computed a block at a time: every evaluator row of an N x d
matrix F against every response row of an r x q matrix G.  The per-pair
functions (`true_rating`, `predict_rating`) are one-row uses of the blocks.

All randomness is counter-based: a SplitMix64 output (`_uniforms`) for a
derived key and a stated counter, never `random.Random` or `numpy.random`.
Rating noise is Box-Muller over it, one key per response column
(`rating_block`); a population is drawn whole, every group and dimension in
one batch, with Marsaglia-Tsang gammas for its beta components
(`sample_population`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .jsonin import LocatedError
from .rules import RATING_MAX, RATING_MIN
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


@dataclass(frozen=True)
class ResponseRecord:
    """A candidate response: id, display text, and a q-dimensional feature vector."""

    id: str
    text: str
    features: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(float(v) for v in self.features))
        if not self.features:
            raise LocatedError("a response needs at least one feature", "features")
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
            # NaN fails `> 0`; a NaN or infinite shape would keep the gamma
            # draws from ever accepting one.
            if not (self.a > 0 and self.b > 0):
                raise ValueError("beta shape parameters must be positive")
            if math.isinf(self.a) or math.isinf(self.b):
                raise ValueError("beta shape parameters must be finite")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")


@dataclass(frozen=True)
class GroupSpec:
    """A stakeholder subpopulation: sampling weight plus per-dimension distributions."""

    weight: float
    components: tuple[ComponentDist, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.weight > 0:
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
        if not self.noise_sigma >= 0:
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
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be non-negative")

    @property
    def d(self) -> int:
        return len(self.M_star)

    @property
    def q(self) -> int:
        return len(self.M_star[0])


def evaluator_matrix(sample: np.ndarray | Sequence[EvaluatorFeatures], d: int) -> np.ndarray:
    """The N x d float64 matrix of evaluator rows, N >= 1: a float64 array is returned as is."""
    if len(sample) == 0:
        raise ValueError("need a non-empty evaluator sample")
    F = np.asarray(sample, dtype=float)
    if F.ndim != 2 or F.shape[1] != d:
        raise ValueError(f"evaluator has {F.shape[-1]} features, world expects {d}")
    return F


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
    silently on arrays (on 0-d scalars it warns), so both inputs must be
    arrays.  It runs in place in two arrays of the broadcast shape: the
    state, and the result, which holds each shifted state until the last step.
    """
    z = keys + (counters + np.uint64(1)) * _SPLITMIX_GAMMA
    out = np.empty(z.shape)
    shifted = out.view(np.uint64)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= _SPLITMIX_MUL1
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= _SPLITMIX_MUL2
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    z >>= np.uint64(11)
    return np.multiply(z, 2.0**-53, out=out)


# Uniforms per (evaluator, dimension) of a population draw, and the stride of
# a gamma's rejection attempts: attempt t reads its counters plus t * 2**48,
# so the counters of different draws never meet below 2**45 evaluator-dimension
# pairs and 2**16 attempts.
_DRAW_SLOTS = 8
_ATTEMPT_STRIDE = np.uint64(2**48)


def _gammas(keys: np.ndarray, counters: np.ndarray, shapes: np.ndarray) -> np.ndarray:
    """One gamma(shape, 1) draw per entry, by Marsaglia & Tsang (2000).

    With s = shape (shape + 1 below 1), dd = s - 1/3 and c = 1 / (3 sqrt(dd)),
    attempt t reads the uniforms u1, u2, u3 at `counters` + 0, 1, 2 plus
    t * 2**48 of `keys`: x = sqrt(-2 log1p(-u1)) cos(2 pi u2) as in
    `rating_block`, v = (1 + c x)^3, and the attempt is accepted when v > 0
    and log1p(-u3) < x^2 / 2 + dd - dd v + dd log v, giving dd v.  Each
    round redraws only the entries it rejected.  A shape below 1 then scales
    the draw by (1 - u4)^(1 / shape), with u4 at `counters` + 3.
    """
    boosted = shapes < 1
    dd = np.where(boosted, shapes + 1.0, shapes) - 1.0 / 3.0
    c = 1.0 / (3.0 * np.sqrt(dd))
    out = np.empty_like(shapes)
    pending = np.arange(len(shapes))
    attempt = np.uint64(0)
    while pending.size:
        at = counters[pending] + attempt * _ATTEMPT_STRIDE
        key = keys[pending]
        u1, u2, u3 = (_uniforms(key, at + np.uint64(slot)) for slot in range(3))
        x = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
        dp = dd[pending]
        v = 1.0 + c[pending] * x
        v = v * v * v
        positive = v > 0
        log_v = np.log(np.where(positive, v, 1.0))
        accept = positive & (np.log1p(-u3) < 0.5 * x * x + dp - dp * v + dp * log_v)
        out[pending[accept]] = (dp * v)[accept]
        pending = pending[~accept]
        attempt += np.uint64(1)
    boost = (1.0 - _uniforms(keys, counters + np.uint64(3))) ** (1.0 / shapes)
    return np.where(boosted, out * boost, out)


def sample_population(spec: PopulationSpec, n: int, seed: int) -> np.ndarray:
    """A read-only n x d float64 array of n evaluators, stratified by group quotas.

    Rows come group by group.  Evaluator e of group g (counted within the
    group) reads dimension j from the SplitMix64 stream keyed by
    `derive_seed(seed, "population-group", g)`, at the 8 counters from
    8 * (d * e + j) (see `_uniforms`).  uniform(a, b) is a + (b - a) * u,
    from the first.  beta(a, b) is X / (X + Y) of the gammas X ~ gamma(a)
    and Y ~ gamma(b) of `_gammas`, X from the first four counters and Y
    from the last four, and 0.0 when X underflows to 0, as
    `random.betavariate` gives.  So a value depends only on (seed, g, e, j):
    a group's first k rows are the same for every n whose quota reaches k.
    """
    if n < 1:
        raise ValueError("population sample size must be at least 1")
    quotas = group_quotas([g.weight for g in spec.groups], n)
    group = np.repeat(np.arange(len(quotas)), quotas)
    within = np.arange(n) - np.repeat(np.cumsum(quotas) - quotas, quotas)
    counters = (_DRAW_SLOTS * (spec.d * within[:, None] + np.arange(spec.d))).astype(np.uint64)
    group_keys = [derive_seed(seed, "population-group", gi) for gi in range(len(quotas))]
    keys = np.broadcast_to(np.array(group_keys, dtype=np.uint64)[group, None], counters.shape)
    dists = [g.components for g in spec.groups]
    beta = np.array([[c.kind == "beta" for c in row] for row in dists])[group]
    a = np.array([[c.a for c in row] for row in dists], dtype=float)[group]
    b = np.array([[c.b for c in row] for row in dists], dtype=float)[group]
    values = a + (b - a) * _uniforms(keys, counters)
    if beta.any():
        base = counters[beta]
        gammas = _gammas(
            np.concatenate([keys[beta]] * 2),
            np.concatenate([base, base + np.uint64(_DRAW_SLOTS // 2)]),
            np.concatenate([a[beta], b[beta]]),
        )
        x, y = gammas[: len(base)], gammas[len(base) :]
        drawn = x > 0
        values[beta] = np.where(drawn, x / np.where(drawn, x + y, 1.0), 0.0)
    values.flags.writeable = False
    return values


def noise_keys(seed: int, responses: Sequence[ResponseRecord]) -> np.ndarray:
    """The uint64 noise key `derive_seed(seed, "noise", y.id)` of each response y."""
    return np.array([derive_seed(seed, "noise", y.id) for y in responses], dtype=np.uint64)


def rating_block(
    world: GroundTruthWorld,
    F: np.ndarray,
    G: np.ndarray,
    keys: np.ndarray | None,
    first_index: int = 0,
) -> np.ndarray:
    """Ground-truth ratings of every response row of G by every evaluator row of F.

    Row i is evaluator `first_index + i`, and column j's noise comes from a
    counter-based stream keyed by `keys[j]` (None when the world has no
    noise): evaluator e draws the SplitMix64 uniforms u1, u2 at counters 2e
    and 2e + 1 and adds sigma * sqrt(-2 log1p(-u1)) * cos(2 pi u2)
    (Box-Muller), made in place in two arrays of the block's shape.  So a
    rating depends only on (key, evaluator index), never on the block size,
    `first_index` or what else was rated.
    """
    values = bilinear(F, np.asarray(world.M_star), G)
    if world.noise_sigma > 0:
        counters = 2 * np.arange(first_index, first_index + len(F), dtype=np.uint64)[:, None]
        radius = _uniforms(keys, counters)
        np.negative(radius, out=radius)
        np.log1p(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        radius *= world.noise_sigma
        angle = _uniforms(keys, counters + np.uint64(1))
        angle *= 2.0 * np.pi
        radius *= np.cos(angle, out=angle)
        values += radius
    return clamp_ratings(values)


def true_ratings(
    world: GroundTruthWorld,
    F: np.ndarray,
    responses: Sequence[ResponseRecord],
    seed: int,
    first_index: int = 0,
) -> np.ndarray:
    """Ground-truth ratings of every response by every evaluator row of F.

    Row i is evaluator `first_index + i`, and response y's noise is keyed by
    `derive_seed(seed, "noise", y.id)` (see `rating_block`): a rating
    depends only on (seed, response id, evaluator index).
    """
    keys = noise_keys(seed, responses) if world.noise_sigma > 0 else None
    return rating_block(world, F, response_matrix(responses, world.q), keys, first_index)


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


def kron_rows(F: np.ndarray, G: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Design rows kron(f, g), one per pair of rows f of F and g of G.

    F (..., d) and G (..., q) broadcast against each other: equal-length
    stacks pair up row by row, and F[:, None] against G[None] gives every
    evaluator against every response, evaluator-major.  Given `out`, a
    C-contiguous float64 array of the rows' shape, they are written there.
    """
    d, q = F.shape[-1], G.shape[-1]
    shape = np.broadcast_shapes(F.shape[:-1], G.shape[:-1]) + (d, q)
    view = None if out is None else out.reshape(shape)
    return np.multiply(F[..., :, None], G[..., None, :], out=view).reshape(-1, d * q)


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
    The rank is lstsq's, with matrix_rank's cutoff sigma_max * max(M, N) * eps.
    """
    columns = X.shape[1]
    if ridge_lambda == 0:
        w, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        if rank < columns:
            raise ValueError(
                f"design is rank deficient at lambda=0 (rank {rank} < {columns}); "
                "add samples or use a positive ridge_lambda"
            )
        return w
    return np.linalg.solve(X.T @ X + ridge_lambda * np.eye(columns), X.T @ y)


def predicted_ratings(
    psi: IndividualPreferenceModel, F: np.ndarray, responses: Sequence[ResponseRecord]
) -> np.ndarray:
    """Model ratings clamp(f' M_hat g(y)) of every response by every row of F."""
    return clamp_ratings(bilinear(F, np.asarray(psi.M_hat), response_matrix(responses, psi.q)))


def predict_rating(psi: IndividualPreferenceModel, f: EvaluatorFeatures, y: ResponseRecord) -> float:
    """Model rating of one response by one evaluator: clamp(f' M_hat g(y), 0, 10)."""
    return float(predicted_ratings(psi, evaluator_matrix([f], psi.d), [y])[0, 0])

