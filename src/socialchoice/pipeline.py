"""Reward-model pipelines over collective feedback.

Four variants, each ending in a desk-scale reward model or a chosen response:

  "rankings":   jury ballots per prompt, aggregated by an ordinal rule F into
                a collective ranking, turned into per-response target scores,
                and fitted as a linear reward model on response features.
  "features":   a learned individual preference model evaluated at a sampled
                evaluator population, aggregated pointwise by a cardinal W.
  "collective": simulated evaluators vote (through induced rankings) per
                prompt; winners become supervised (prompt, response) pairs.
  "inference":  fresh evaluator samples vote, through the individual model,
                over the candidates at decision time; no reward model is fit.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from random import Random

import numpy as np

from .cardinal import Committee, cardinal_rule
from .jsonin import Node, load
from .ordinal import ordinal_rule
from .profiles import OrdinalProfile, RankingBallot
from .rules import resolve_rule, rule_ids
from .seeding import derive_seed
from .simulation import (
    ComponentDist,
    EvaluatorFeatures,
    GroundTruthWorld,
    GroupSpec,
    IndividualPreferenceModel,
    PopulationSpec,
    ResponseRecord,
    clamp_ratings,
    evaluator_matrix,
    fit_design,
    kron_rows,
    noise_keys,
    predicted_ratings,
    rating_block,
    response_matrix,
    ridge_solve,
    sample_population,
)

# Largest training design run_pipeline accepts, in float64 entries: N
# evaluators times the responses over all cases times the row width d*q.
# Only ridge_lambda = 0 forms it, one array of 8 bytes per entry beside an
# 8-byte rating per row, which its lstsq copies; lambda > 0 holds the (d*q)^2
# Gram and runs of RATING_BLOCK_ENTRIES ratings, so the population sample
# sets its peak.  Peak RSS of one "features" `simulate` process at the cap,
# at lambda = 1e-6 and 0: d = q = 1, 333,333 x 12 rows, 158 and 176 MB; d =
# 5, q = 3, 22,222 x 12 rows, 43 and 103 MB; d = q = 20, 1,000 x 10 rows,
# 42 MB (rank deficient at lambda = 0) (2-vCPU VM, Python 3.11.7, numpy 2.4.6).
MAX_DESIGN_ENTRIES = 4_000_000

# Float64 entries in one run of evaluator rows of the training ratings: a
# 2 MiB block, and building it holds at most four more arrays of its size.
RATING_BLOCK_ENTRIES = 2**18


@dataclass(frozen=True)
class PromptCase:
    """One prompt with its candidate responses and, optionally, jury ballots."""

    prompt: str
    responses: tuple[ResponseRecord, ...]
    jury: tuple[RankingBallot, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "responses", tuple(self.responses))
        if len(self.responses) < 2:
            raise ValueError("a prompt case needs at least two responses")
        ids = [y.id for y in self.responses]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate response ids in case {self.prompt!r}")
        dims = {len(y.features) for y in self.responses}
        if len(dims) != 1:
            raise ValueError("responses within a case must share a feature dimension")
        if self.jury is not None:
            object.__setattr__(self, "jury", tuple(self.jury))
            # Profile validation checks the ballots; jury_profile() returns this profile.
            object.__setattr__(self, "_jury", OrdinalProfile(self.response_ids(), self.jury))

    def response_ids(self) -> tuple[str, ...]:
        return tuple(y.id for y in self.responses)

    def response(self, rid: str) -> ResponseRecord:
        for y in self.responses:
            if y.id == rid:
                return y
        raise KeyError(f"no response {rid!r} in case {self.prompt!r}")

    def jury_profile(self) -> OrdinalProfile:
        if self.jury is None:
            raise ValueError(f"case {self.prompt!r} has no jury ballots")
        return self._jury


@dataclass(frozen=True)
class FittedRewardModel:
    """Linear reward on response features: clamp(weights . g(y) + intercept)."""

    weights: tuple[float, ...]
    intercept: float

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not all(math.isfinite(w) for w in self.weights) or not math.isfinite(self.intercept):
            raise ValueError("fitted reward model has non-finite parameters")


@dataclass(frozen=True, eq=False)
class ComposedRewardModel:
    """Reward = W over an individual model's predictions at a fixed N x d evaluator sample."""

    psi: IndividualPreferenceModel
    sample: np.ndarray
    rule_id: str

    def __post_init__(self):
        object.__setattr__(self, "sample", evaluator_matrix(self.sample, self.psi.d))
        cardinal_rule(self.rule_id)


RewardModel = FittedRewardModel | ComposedRewardModel


def rank_target_scores(ranking: Sequence[str]) -> dict[str, float]:
    """Map collective-rank positions linearly onto [0, 10], winner first."""
    m = len(ranking)
    if m < 2:
        raise ValueError("need at least two ranked responses")
    return {rid: 10.0 * (m - 1 - pos) / (m - 1) for pos, rid in enumerate(ranking)}


def variant1_targets(case: PromptCase, rule_f: str) -> dict[str, float]:
    """Aggregate a case's jury with F and read off per-response target scores."""
    ranking = ordinal_rule(rule_f)(case.jury_profile()).ranking
    return rank_target_scores(ranking)


def _fit_targets(
    cases: Sequence[PromptCase], targets: Sequence[dict[str, float]], ridge_lambda: float
) -> FittedRewardModel:
    # targets[i] maps each response id of cases[i] to its target score.
    if not cases:
        raise ValueError("need at least one prompt case")
    X = np.asarray([y.features for case in cases for y in case.responses], dtype=float)
    r = np.asarray([scores[y.id] for case, scores in zip(cases, targets) for y in case.responses])
    # Center so the intercept absorbs the means and stays unpenalized.
    x_mean, r_mean = X.mean(axis=0), r.mean()
    w = ridge_solve(X - x_mean, r - r_mean, ridge_lambda)
    return FittedRewardModel(tuple(w.tolist()), float(r_mean - w @ x_mean))


def rlchf_from_features(
    psi: IndividualPreferenceModel, sample: np.ndarray, rule_w: str
) -> ComposedRewardModel:
    """Variant 2: aggregate the individual model over a fixed evaluator sample."""
    return ComposedRewardModel(psi, sample, rule_w)


def evaluate_reward(model: RewardModel, prompt: str, y: ResponseRecord) -> float:
    """Numeric reward for one (prompt, response) pair.

    Models here carry no prompt-specific parameters; the prompt argument keeps
    the reward interface honest for callers that iterate over cases.
    """
    del prompt
    return _rewards(model, [y])[0]


def _rewards(model: RewardModel, responses: Sequence[ResponseRecord]) -> list[float]:
    # Each response's reward.  A composed model predicts the whole N x r
    # block at once; its entries equal the one-response predictions bit for
    # bit (see `bilinear`).
    if isinstance(model, FittedRewardModel):
        for y in responses:
            if len(y.features) != len(model.weights):
                raise ValueError(
                    f"response {y.id!r} has {len(y.features)} features, "
                    f"model expects {len(model.weights)}"
                )
        raw = [float(np.dot(model.weights, y.features)) + model.intercept for y in responses]
        return clamp_ratings(np.array(raw)).tolist()
    ratings = predicted_ratings(model.psi, model.sample, responses)
    aggregate = cardinal_rule(model.rule_id)
    return [float(aggregate(column)) for column in ratings.T.tolist()]


def select_response(
    model: RewardModel, case: PromptCase, temperature: float, seed: int
) -> ResponseRecord:
    """Pick a response by reward: argmax at T=0, softmax sample at T>0."""
    # NaN fails the comparison; an infinite temperature draws uniformly.
    if not temperature >= 0:
        raise ValueError("temperature must be non-negative")
    scored = _scored(model, case)
    if temperature == 0:
        return case.response(scored["chosen"])
    rewards = scored["rewards"]
    ids = sorted(rewards)
    top = max(rewards.values())
    expo = [math.exp((rewards[rid] - top) / temperature) for rid in ids]
    total = sum(expo)
    ticket = Random(seed).random() * total
    cumulative = 0.0
    for rid, mass in zip(ids, expo):
        cumulative += mass
        if ticket < cumulative:
            return case.response(rid)
    return case.response(ids[-1])


def _scored(model: RewardModel, case: PromptCase) -> dict:
    # Each response's reward and the argmax choice, ties to the smallest id.
    rewards = dict(zip(case.response_ids(), _rewards(model, case.responses)))
    top = max(rewards.values())
    return {"rewards": rewards, "chosen": min(rid for rid, r in rewards.items() if r == top)}


def induced_ranking(
    psi: IndividualPreferenceModel, f: EvaluatorFeatures, responses: Sequence[ResponseRecord]
) -> tuple[str, ...]:
    """One evaluator's strict ranking of the responses, ties broken by id."""
    ratings = predicted_ratings(psi, evaluator_matrix([f], psi.d), responses)
    ids = [y.id for y in responses]
    return tuple(ids[j] for j in _induced_orders(ratings, ids)[0])


def _induced_orders(ratings: np.ndarray, ids: Sequence[str]) -> list[list[int]]:
    # Each row of an N x r rating block as column indices: highest rating
    # first, equal ratings in id order.
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return np.lexsort((np.broadcast_to(id_rank, ratings.shape), -ratings)).tolist()


def simulate_collective_decision(
    case: PromptCase,
    psi: IndividualPreferenceModel,
    sample: np.ndarray,
    rule: str,
    k: int | None = None,
) -> ResponseRecord | Committee:
    """Let simulated evaluators vote over the case's responses.

    Each sampled evaluator contributes the ranking induced by their predicted
    ratings, and equal rankings are counted into one weighted ballot, in
    first-occurrence order: the merge the N unit ballots would give.  `rule`
    names an ordinal rule for a single winner, or a committee rule (with
    committee size k) for a committee.
    """
    chosen = resolve_rule(rule, "ordinal", "committee")
    ids = case.response_ids()
    ratings = predicted_ratings(psi, evaluator_matrix(sample, psi.d), case.responses)
    # Equal orders name equal rankings, so the orders are counted and only the
    # distinct ones (at most r!) named.  Each is a permutation of the ids by
    # construction, so the rankings are handed over checked, as both ballots
    # and merge.
    counted = Counter(map(tuple, _induced_orders(ratings, ids)))
    merged = tuple(RankingBallot(tuple(ids[j] for j in row), n) for row, n in counted.items())
    profile = OrdinalProfile._trusted(ids, merged, merged)
    if chosen.kind == "committee":
        return chosen.fn(profile, k)
    return case.response(chosen.fn(profile).winner)


def sft_jsonl_lines(pairs: Sequence[tuple[str, str]]) -> tuple[str, ...]:
    """Serialize (prompt, chosen id) pairs as one JSON record per line."""
    return tuple(
        json.dumps({"prompt": prompt, "chosen": chosen}, sort_keys=True)
        for prompt, chosen in pairs
    )


def inference_time_choice(
    case: PromptCase,
    spec: PopulationSpec,
    n_evaluators: int,
    psi: IndividualPreferenceModel,
    rule: str,
    seed: int,
    k: int | None = None,
) -> ResponseRecord | Committee:
    """Let a fresh evaluator sample vote over the case's responses, fitting no reward model.

    With no live LLM, the case's responses stand in for freshly generated
    candidates.  The evaluators are drawn from `derive_seed(seed, "population")`.
    """
    if n_evaluators < 1:
        raise ValueError("need at least one simulated evaluator")
    sample = sample_population(spec, n_evaluators, derive_seed(seed, "population"))
    return simulate_collective_decision(case, psi, sample, rule, k)


# ---------------------------------------------------------------------------
# Dataset and config plumbing shared with the command line.


@dataclass(frozen=True)
class SimulationDataset:
    """Prompt cases plus the synthetic population and world that rate them."""

    cases: tuple[PromptCase, ...]
    population: PopulationSpec
    world: GroundTruthWorld

    def __post_init__(self):
        _check_cases(self.cases)


def _check_cases(cases: tuple[PromptCase, ...]) -> None:
    if not cases:
        raise ValueError("a dataset needs at least one case")


# Each record's keys and reads, in the order of its type's arguments.
_COMPONENT_READS = {"kind": Node.string, "a": Node.number, "b": Node.number}
_RESPONSE_READS = {"id": Node.string, "text": Node.string, "features": Node.numbers}
_BALLOT_READS = {"ranking": Node.strings, "weight": Node.integer}


def _population_from_json(node: Node) -> PopulationSpec:
    groups = tuple(
        group.build(
            GroupSpec,
            group.only("weight", "components").get("weight").number(),
            group.get("components").records(ComponentDist, _COMPONENT_READS, {}),
        )
        for group in node.only("d", "noise_sigma", "groups").get("groups").members()
    )
    noise = node.get("noise_sigma", 0.0)
    if noise.number() != 0:
        raise ValueError(
            f"{noise.path}: expected 0, got {noise.value}; set rating noise with world.noise_sigma"
        )
    return node.build(PopulationSpec, node.get("d").integer(), groups)


def _response(rid: str, text: str | None, features: tuple[float, ...]) -> ResponseRecord:
    # A response with no "text" shows its id.
    return ResponseRecord(rid, rid if text is None else text, features)


def _case_from_json(node: Node) -> PromptCase:
    node.only("prompt", "responses", "jury")
    responses = node.get("responses").records(_response, _RESPONSE_READS, {"text": None})
    jury = None
    if "jury" in node:
        jury = node.get("jury").records(RankingBallot, _BALLOT_READS, {"weight": 1})
    return node.build(PromptCase, node.get("prompt").string(), responses, jury)


def dataset_from_json(text: str) -> SimulationDataset:
    """Load {"cases": [...], "population": {...}, "world": {...}}.

    A key that no reader takes is refused at its object.  A check that a
    built object makes on itself (a jury ballot naming an unknown response,
    group weights that do not sum to 1) is located at the node the object
    was read from, as in `cases[0]: ...`.  Feature counts are checked for
    every variant: cases against cases[0], then `world.M_star` against both.
    """
    root = load(text).only("cases", "population", "world")
    cases = root.get("cases")
    prompt_cases = tuple(_case_from_json(case) for case in cases.members())
    widths = [len(case.responses[0].features) for case in prompt_cases]
    for ci, q in enumerate(widths):
        if q != widths[0]:
            raise ValueError(
                f"cases[{ci}]: responses have {q} features, cases[0] responses have {widths[0]}"
            )
    population = _population_from_json(root.get("population"))
    world = root.get("world").only("M_star", "noise_sigma")
    matrix = world.get("M_star")
    M_star = tuple(row.numbers() for row in matrix.members())
    # Checked before the rows, which are checked against cases[0].
    cases.build(_check_cases, prompt_cases)
    for i, row in enumerate(M_star):
        if len(row) != widths[0]:
            raise ValueError(f"{matrix.path}[{i}]: {len(row)} entries for {widths[0]} response features")
    if len(M_star) != population.d:
        raise ValueError(f"{matrix.path}: {len(M_star)} rows, population.d is {population.d}")
    noise_sigma = world.get("noise_sigma", 0.0).number()
    world_model = world.build(GroundTruthWorld, M_star, noise_sigma)
    return cases.build(SimulationDataset, prompt_cases, population, world_model)


# variant: (config rule key, the rule kinds it takes, samples N evaluators and trains psi)
VARIANTS: dict[str, tuple[str, tuple[str, ...], bool]] = {
    "rankings": ("F", ("ordinal",), False),
    "features": ("W", ("cardinal",), True),
    "collective": ("C", ("ordinal", "committee"), True),
    "inference": ("C", ("ordinal", "committee"), True),
}


def _variant(name) -> tuple[str, tuple[str, ...], bool]:
    # A list or object is unhashable, so it is refused before the lookup.
    if not isinstance(name, str) or name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; expected one of {tuple(VARIANTS)}")
    return VARIANTS[name]


@dataclass(frozen=True)
class PipelineConfig:
    """A parsed simulate configuration; `rule` is read from the variant's rule key."""

    variant: str
    rule: str | None = None
    k: int | None = None
    n_evaluators: int | None = None
    ridge_lambda: float = 1e-6
    seed: int | None = None
    dataset: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "ridge_lambda", Node(self.ridge_lambda, '"ridge_lambda"').number())
        key, kinds, population = _variant(self.variant)
        if self.rule is None:
            raise ValueError(f"variant {self.variant!r} needs rule {key}")
        try:
            object.__setattr__(self, "rule", resolve_rule(self.rule, *kinds).id)
        except ValueError as exc:
            raise ValueError(f'"{key}": {exc}') from None
        if population and not self.n_evaluators:
            raise ValueError(f"variant {self.variant!r} needs a population size N")
        if self.n_evaluators is not None and not _is_positive_int(self.n_evaluators):
            raise ValueError(f'"N" must be a positive integer, got {self.n_evaluators!r}')
        committees = rule_ids("committee")
        if self.rule in committees and self.k is None:
            raise ValueError(f'committee rule {key} {self.rule!r} needs a committee size "k"')
        if self.k is not None:
            if self.rule not in committees:
                raise ValueError(
                    f'"k" applies only to the committee rules {", ".join(committees)}; '
                    f"rule {key} is {self.rule!r}"
                )
            if not _is_positive_int(self.k):
                raise ValueError(f'"k" must be a positive integer, got {self.k!r}')
        if self.seed is not None and (not isinstance(self.seed, int) or isinstance(self.seed, bool)):
            raise ValueError(f'"seed" must be an integer, got {self.seed!r}')
        if self.dataset is not None and not isinstance(self.dataset, str):
            raise ValueError(f'"dataset" must be a file name, got {self.dataset!r}')
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be non-negative")

    @property
    def emits_sft(self) -> bool:
        """Whether run_pipeline returns SFT lines: collective choices by a single-winner rule."""
        return self.variant == "collective" and self.rule not in rule_ids("committee")


def _is_positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def config_from_json(text: str) -> PipelineConfig:
    root = load(text)
    data = root.value
    if not isinstance(data, dict) or "variant" not in data:
        raise ValueError('pipeline config must be an object with a "variant"')
    key = _variant(data["variant"])[0]
    for other in sorted(data.keys() & {row[0] for row in VARIANTS.values()} - {key}):
        raise ValueError(f'"{other}": variant {data["variant"]!r} reads its rule from "{key}"')
    root.only("variant", key, "k", "N", "ridge_lambda", "seed", "dataset")
    return PipelineConfig(
        variant=data["variant"],
        rule=data.get(key),
        k=data.get("k"),
        n_evaluators=data.get("N"),
        ridge_lambda=data.get("ridge_lambda", 1e-6),
        seed=data.get("seed"),
        dataset=data.get("dataset"),
    )


def _train_psi(
    dataset: SimulationDataset, sample: np.ndarray, ridge_lambda: float, seed: int
) -> IndividualPreferenceModel:
    # Ridge-fit psi on the ground-truth ratings of every case's responses by
    # every evaluator.  For lambda > 0 from the normal equations' Gram blocks;
    # lambda = 0 forms the case-major design for `fit_design`'s lstsq and
    # rank check, since the Gram squares the condition number a rank test reads.
    world = dataset.world
    F = evaluator_matrix(sample, world.d)
    G = np.concatenate([response_matrix(case.responses, world.q) for case in dataset.cases])
    if ridge_lambda == 0:
        return _fit_case_major(dataset, F, G, seed)
    gram, rhs = _normal_equations(dataset, F, G, seed)
    w = np.linalg.solve(gram + ridge_lambda * np.eye(len(gram)), rhs.ravel())
    return IndividualPreferenceModel(w.reshape(rhs.shape), float(ridge_lambda))


def _rating_blocks(dataset: SimulationDataset, F: np.ndarray, G: np.ndarray, seed: int):
    # Yields (rows, the ground-truth ratings of F[rows] against G), where G
    # stacks every case's response rows, for runs of RATING_BLOCK_ENTRIES.
    # Column (case ci, response y) is keyed by derive_seed(derive_seed(seed,
    # "case-ratings", ci), "noise", y.id): each case's columns are its
    # `true_ratings` bit for bit, so case order never matters.
    world = dataset.world
    keys = None
    if world.noise_sigma > 0:
        keys = np.concatenate([
            noise_keys(derive_seed(seed, "case-ratings", ci), case.responses)
            for ci, case in enumerate(dataset.cases)
        ])
    step = max(1, RATING_BLOCK_ENTRIES // len(G))
    for start in range(0, len(F), step):
        rows = slice(start, start + step)
        yield rows, rating_block(world, F[rows], G, keys, start)


def _normal_equations(
    dataset: SimulationDataset, F: np.ndarray, G: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    # X'X and X'r of the design with one row kron(f, g) per evaluator and
    # response, which is never formed: X'X = (F'F) kron (G'G), and X'r is the
    # d x q matrix F'RG (read row-major) of the N x r rating block R.
    rhs = np.zeros((F.shape[1], G.shape[1]))
    for rows, ratings in _rating_blocks(dataset, F, G, seed):
        rhs += F[rows].T @ (ratings @ G)
    return np.kron(F.T @ F, G.T @ G), rhs


def _fit_case_major(
    dataset: SimulationDataset, F: np.ndarray, G: np.ndarray, seed: int
) -> IndividualPreferenceModel:
    # The lambda = 0 fit on the formed design: case by case, one row
    # kron(f, g(y)) per evaluator and response, evaluator-major.
    n, d, q = len(F), F.shape[1], G.shape[1]
    X, r = np.empty((n * len(G), d * q)), np.empty(n * len(G))
    bounds = np.cumsum([0] + [len(case.responses) for case in dataset.cases]).tolist()
    cases = list(zip(bounds, bounds[1:]))
    for rows, ratings in _rating_blocks(dataset, F, G, seed):
        for lo, hi in cases:
            r[n * lo : n * hi].reshape(n, hi - lo)[rows] = ratings[:, lo:hi]
    for lo, hi in cases:
        kron_rows(F[:, None], G[None, lo:hi], out=X[n * lo : n * hi])
    return fit_design(X, r, d, q, 0.0)


def _check_design_size(n_evaluators: int, dataset: SimulationDataset) -> None:
    # Refuse a run whose training design would pass MAX_DESIGN_ENTRIES, before
    # any population is sampled or array allocated.
    responses = sum(len(case.responses) for case in dataset.cases)
    width = dataset.world.d * dataset.world.q
    entries = n_evaluators * responses * width
    if entries > MAX_DESIGN_ENTRIES:
        raise ValueError(
            f'"N": {n_evaluators} evaluators x {responses} responses x {width} entries per row '
            f"is {entries:,} design entries, over the cap of {MAX_DESIGN_ENTRIES:,}; "
            "lower N or use fewer cases"
        )


def _check_committee_size(k: int | None, dataset: SimulationDataset) -> None:
    # A committee rule fails on a case with fewer responses than k; refuse the
    # run before any population is sampled.
    for ci, case in enumerate(dataset.cases):
        if k is not None and k > len(case.responses):
            raise ValueError(
                f'"k": committee size {k} exceeds the {len(case.responses)} responses '
                f"of cases[{ci}]"
            )


def run_pipeline(config: PipelineConfig, dataset: SimulationDataset, seed: int):
    """Execute one variant; returns (report payload, SFT lines or None).

    The config's own seed, when present, takes precedence over the caller's.
    """
    master = config.seed if config.seed is not None else seed
    key = VARIANTS[config.variant][0]
    payload = {"variant": config.variant, "seed": master, f"rule_{key}": config.rule}
    if config.variant == "rankings":
        targets = [variant1_targets(case, config.rule) for case in dataset.cases]
        model = _fit_targets(dataset.cases, targets, config.ridge_lambda)
        payload["model"] = {"weights": list(model.weights), "intercept": model.intercept}
        payload["cases"] = [
            {"prompt": case.prompt, "targets": scores, **_scored(model, case)}
            for case, scores in zip(dataset.cases, targets)
        ]
        return payload, None

    _check_design_size(config.n_evaluators, dataset)
    _check_committee_size(config.k, dataset)
    sample = sample_population(
        dataset.population, config.n_evaluators, derive_seed(master, "population")
    )
    psi = _train_psi(dataset, sample, config.ridge_lambda, master)
    payload["n_evaluators"] = config.n_evaluators
    if config.variant == "features":
        model = rlchf_from_features(psi, sample, config.rule)
        payload["cases"] = [{"prompt": c.prompt, **_scored(model, c)} for c in dataset.cases]
    else:
        payload["cases"] = []
        for ci, case in enumerate(dataset.cases):
            if config.variant == "collective":
                chosen = simulate_collective_decision(case, psi, sample, config.rule, config.k)
            else:
                chosen = inference_time_choice(
                    case,
                    dataset.population,
                    config.n_evaluators,
                    psi,
                    config.rule,
                    derive_seed(master, "inference-case", ci),
                    config.k,
                )
            if isinstance(chosen, Committee):
                payload["cases"].append({"prompt": case.prompt, "committee": chosen.winners})
            else:
                payload["cases"].append({"prompt": case.prompt, "chosen": chosen.id})
        if config.emits_sft:
            return payload, sft_jsonl_lines([(c["prompt"], c["chosen"]) for c in payload["cases"]])
    return payload, None
