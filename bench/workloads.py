"""The four benchmark workloads.

A workload generates its inputs from the benchmark seed, hands out its ops
one cycle at a time, runs one op (the only timed part) and checks outputs
outside the timed part:

- `report(out)` returns the text whose bytes must repeat for the same input,
  raising `CheckFailed` on a failed run;
- `check(key, arg, out)` checks one op right after it ran;
- `verify(key, text)` checks the first report of each distinct op after the
  timed loop, against the reference tallies in `oracle.py`.  Running those
  afterwards keeps the benchmark's own numpy import out of set-up time.

Every input is made here from `random.Random` streams keyed by the seed; the
program receives only the generated files and objects.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import random
import statistics
import subprocess
import sys
from itertools import permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
ORDINAL_RULES = ("plurality", "borda", "instant_runoff", "ranked_pairs")


class CheckFailed(Exception):
    """An op's output disagrees with what the benchmark expects."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_equal(actual, wanted, what: str) -> None:
    expect(actual == wanted, f"{what}: got {actual!r}, expected {wanted!r}")


class Workload:
    name = ""
    # Tail percentile reported as latency_tail_ms: the highest of 50/75/90/95/99
    # that the workload's op count in one run leaves ten samples beyond.
    tail_pct = 75.0
    # Whether ops run in child processes (peak RSS is then the largest child's).
    subprocess_ops = False

    def cycle(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def run(self, arg):
        raise NotImplementedError

    def report(self, out) -> str | None:
        return None

    def check(self, key: str, arg, out) -> None:
        pass

    def verify(self, key: str, text: str) -> None:
        pass


class CliWorkload(Workload):
    """Ops are `socialchoice` command lines; the report is the stdout text."""

    in_process = True

    def __init__(self):
        self.cli = importlib.import_module("socialchoice.cli")

    def run(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "socialchoice.cli", *argv],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def report(self, out) -> str:
        code, stdout, stderr = out
        expect(code == 0, f"exit code {code}: {stderr.strip()[-300:]}")
        return stdout


def _payload(text: str) -> dict:
    return json.loads(text)["payload"]


def _response_ids(case: dict) -> list[str]:
    return [r["id"] for r in case["responses"]]


def verify_simulate(payload: dict, config: dict, dataset: dict, seed: int, out_path=None) -> None:
    """Checks shared by every `simulate` report, fixture or generated."""
    from oracle import canonical, jury_targets

    variant = config["variant"]
    expect_equal(payload["variant"], variant, "variant")
    expect_equal(payload["seed"], seed, "seed")
    cases = dataset["cases"]
    expect_equal([c["prompt"] for c in payload["cases"]], [c["prompt"] for c in cases], "prompts")
    if variant != "rankings":
        expect_equal(payload["n_evaluators"], config["N"], "n_evaluators")
    for entry, case in zip(payload["cases"], cases):
        ids = _response_ids(case)
        if "committee" in entry:
            committee = entry["committee"]
            expect_equal(len(committee), config["k"], "committee size")
            expect(len(set(committee)) == len(committee), f"repeated committee member {committee}")
            expect(set(committee) <= set(ids), f"committee {committee} outside {ids}")
            continue
        expect(entry["chosen"] in ids, f"chosen {entry['chosen']!r} not among {ids}")
        if "rewards" in entry:
            rewards = entry["rewards"]
            expect_equal(sorted(rewards), sorted(ids), "reward keys")
            expect(all(0.0 <= r <= 10.0 for r in rewards.values()), f"reward off scale {rewards}")
            expect_equal(rewards[entry["chosen"]], max(rewards.values()), "reward of the chosen response")
        if variant == "rankings":
            jury = [(tuple(b["ranking"]), b.get("weight", 1)) for b in case["jury"]]
            wanted = {rid: canonical(v) for rid, v in jury_targets(ids, jury).items()}
            expect_equal(entry["targets"], wanted, f"Borda jury targets of {case['prompt']!r}")
    if variant == "collective" and "sft" in payload:
        wanted = [
            json.dumps({"chosen": c["chosen"], "prompt": c["prompt"]}, sort_keys=True)
            for c in payload["cases"]
        ]
        expect_equal(payload["sft"], wanted, "sft lines")
        if out_path is not None:
            text = Path(out_path).read_text(encoding="utf-8")
            expect_equal(text, "\n".join(wanted) + "\n", "--out file")


class CliSmall(CliWorkload):
    """Sequential `python -m socialchoice.cli` processes on the data/ fixtures."""

    name = "cli_small"
    tail_pct = 75.0
    subprocess_ops = True

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        super().__init__()
        self.in_process = in_process
        rng = random.Random(f"cli_small:{seed}")
        self.dictator_seed = rng.randrange(1000)
        self.sim_seed = rng.randrange(1000)
        self.sft_path = workdir / "sft.jsonl"
        fig1 = "data/fig1.vote"
        sim = ["--seed", str(self.sim_seed)]
        # The twelve README commands, the three other simulate configs, one IRV
        # run on fig1 and one CSV report.
        self.ops = [
            ("aggregate-borda", ["aggregate", "--rule", "borda", "--profile", fig1]),
            ("aggregate-ranked-pairs", ["aggregate", "--rule", "ranked-pairs", "--profile", fig1]),
            (
                "aggregate-random-dictator",
                ["aggregate", "--rule", "random-dictator", "--profile", fig1,
                 "--seed", str(self.dictator_seed)],
            ),
            ("rate-median", ["rate", "--rule", "median", "--ratings", "data/ratings.json"]),
            ("committee-greedy-cc", ["committee", "--rule", "greedy-cc", "--profile", fig1, "--k", "2"]),
            ("judge", ["judge", "--profile", "data/judgments.json"]),
            (
                "parse-feedback",
                ["parse-feedback", "--statements", "data/feedback.txt", "--context", "A,B,C"],
            ),
            (
                "simulate-collective",
                ["simulate", "--config", "data/pipeline_collective.json",
                 "--out", str(self.sft_path), *sim],
            ),
            (
                "audit-clones",
                ["audit", "clones", "--rule", "plurality", "--profile", "data/restaurant.vote",
                 "--target", "C", "--copies", "2"],
            ),
            ("audit-manipulation", ["audit", "manipulation", "--w", "mean", "--ratings", "3,6,6", "--voter", "0"]),
            ("audit-anonymity", ["audit", "anonymity", "--rule", "borda", "--profile", fig1]),
            ("audit-cycle", ["audit", "cycle", "--profile", "data/condorcet.vote"]),
            ("simulate-features", ["simulate", "--config", "data/pipeline_features.json", *sim]),
            ("simulate-inference", ["simulate", "--config", "data/pipeline_inference.json", *sim]),
            ("simulate-rankings", ["simulate", "--config", "data/pipeline_rankings.json", *sim]),
            ("aggregate-irv", ["aggregate", "--rule", "irv", "--profile", fig1]),
            ("audit-cycle-fig1-csv", ["audit", "cycle", "--profile", fig1, "--format", "csv"]),
        ]

    def cycle(self):
        return self.ops

    def verify(self, key: str, text: str) -> None:
        from oracle import Election, canonical, parse_vote

        fig1 = Election(*parse_vote((DATA / "fig1.vote").read_text(encoding="utf-8")))
        if key == "audit-cycle-fig1-csv":
            rows = dict(csv.reader(io.StringIO(text)))
            margins = {k[len("payload.margins."):]: int(v) for k, v in rows.items()
                       if k.startswith("payload.margins.")}
            # The paper's 23-voter profile: A>B by 1, B>C by 3, C>A by 7.
            expect_equal((margins["A.B"], margins["B.C"], margins["C.A"]), (1, 3, 7), "fig1 margins")
            wanted = {f"{a}.{b}": m for a, row in fig1.margin_map().items() for b, m in row.items()}
            expect_equal(margins, wanted, "fig1 margin table")
            cycle = [json.loads(rows[f"payload.cycles[0][{i}]"]) for i in range(3)]
            expect_equal(cycle, ["A", "B", "C"], "fig1 majority cycle")
            expect_equal(rows["payload.has_condorcet_winner"], "false", "fig1 Condorcet winner")
            return
        payload = _payload(text)
        if key == "aggregate-borda":
            expect_equal(payload["winner"], "C", "fig1 Borda winner")
            expect_equal(payload["ranking"], fig1.borda_ranking(), "fig1 Borda ranking")
            expect_equal(payload["scores"], fig1.score_map(fig1.borda), "fig1 Borda scores")
        elif key == "aggregate-ranked-pairs":
            expect_equal(payload["winner"], "B", "fig1 ranked-pairs winner")
            ranking, locked = fig1.ranked_pairs()
            expect_equal(payload["ranking"], ranking, "fig1 ranked-pairs ranking")
            expect_equal(payload["locked_pairs"], locked, "fig1 locked pairs")
        elif key == "aggregate-irv":
            expect_equal(payload["winner"], "A", "fig1 IRV winner")
            ranking, scores = fig1.instant_runoff()
            expect_equal(payload["ranking"], ranking, "fig1 IRV ranking")
            expect_equal(payload["scores"], scores, "fig1 IRV scores")
        elif key == "aggregate-random-dictator":
            shares = {a: canonical(c / fig1.n) for a, c in fig1.score_map(fig1.firsts).items()}
            expect_equal(payload["lottery"], shares, "first-place lottery")
            expect(payload["winner"] in fig1.ids, f"lottery winner {payload['winner']!r}")
        elif key == "rate-median":
            data = json.loads((DATA / "ratings.json").read_text(encoding="utf-8"))
            wanted = {
                alt: float(statistics.median(row[alt] for row in data["ratings"].values()))
                for alt in data["alternatives"]
            }
            expect_equal(payload["aggregates"], wanted, "median ratings")
        elif key == "committee-greedy-cc":
            winners, score = fig1.greedy_cc(2)
            expect_equal(payload["winners"], winners, "fig1 greedy-CC committee")
            expect_equal(payload["cc_score"], score, "fig1 CC score")
        elif key == "judge":
            data = json.loads((DATA / "judgments.json").read_text(encoding="utf-8"))
            judges = list(data["judgments"].values())
            majority = {a: 2 * sum(j[a] for j in judges) > len(judges) for a in data["agenda"]["atoms"]}
            expect_equal(payload["majority"], majority, "atom-wise majority")
            expect_equal(payload["consistent"], False, "majority consistency")
            repair = payload["repair"]
            expect(repair["give"] == (repair["safe"] and repair["helpful"]), f"repair {repair} inconsistent")
            flips = sum(repair[a] != majority[a] for a in majority)
            expect_equal((payload["distance"], flips), (1, 1), "repair distance")
        elif key == "parse-feedback":
            lines = [line.strip() for line in (DATA / "feedback.txt").read_text(encoding="utf-8").splitlines()
                     if line.strip() and not line.startswith("#")]
            expect_equal(payload["statements"], lines, "statements")
            expect({("A", "B"), ("B", "C"), ("A", "C")} <= {tuple(p) for p in payload["order"]},
                   f"order {payload['order']} misses rank A > B > C")
            expect_equal(payload["bounds"]["B"], [4.0, 6.0], "bounds of B")
            expect_equal(payload["ratings"]["C"], 2.0, "rating of C")
            for alt, (low, high) in payload["bounds"].items():
                expect(low <= payload["ratings"][alt] <= high, f"rating of {alt} outside its bounds")
        elif key.startswith("simulate-"):
            variant = key.split("-", 1)[1]
            config = json.loads((DATA / f"pipeline_{variant}.json").read_text(encoding="utf-8"))
            dataset = json.loads((DATA / config["dataset"]).read_text(encoding="utf-8"))
            out_path = self.sft_path if variant == "collective" else None
            verify_simulate(payload, config, dataset, self.sim_seed, out_path)
        elif key == "audit-clones":
            # Cloning the 52% plurality winner hands the election to the 48% rival.
            got = (payload["verdict"], payload["base_winner"], payload["cloned_winner"], payload["clones"])
            expect_equal(got, ("violated", "C", "I", ["C1", "C2"]), "restaurant clone audit")
        elif key == "audit-manipulation":
            witness = payload["witness"]
            got = (witness["honest_outcome"], witness["manipulated_outcome"], payload["reverified"])
            expect_equal(got, (5.0, 4.0, True), "mean manipulation witness")
        elif key == "audit-anonymity":
            expect_equal(payload["anonymous"], True, "Borda anonymity")
        elif key == "audit-cycle":
            condorcet = Election(*parse_vote((DATA / "condorcet.vote").read_text(encoding="utf-8")))
            expect_equal(payload["margins"], condorcet.margin_map(), "rotation margins")
            expect_equal(payload["condorcet_winner"], None, "rotation Condorcet winner")
            expect_equal(payload["cycles"], [["A", "B", "C"]], "rotation cycles")
        else:
            raise CheckFailed(f"no check for op {key!r}")


def _write_vote(path: Path, ids: list[str], rankings) -> None:
    lines = ["alternatives: " + ", ".join(ids)]
    lines.extend("1: " + " > ".join(ids[i] for i in r) for r in rankings)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


COMMITTEE_K = 3
# `audit cycle` runs on files (a) and (b) only.  Above 8 alternatives the
# program searches for one witness cycle depth-first from the smallest id,
# which walks every simple path when few paths lead back to that id: on
# file (c), m=50, seed 31 ran past 170 s in one op.  At m=10 the walk is
# bounded by 9! paths.
MAX_CYCLE_AUDIT_M = 10
ELECTION_COMMANDS = (
    ("plurality", ["aggregate", "--rule", "plurality"]),
    ("borda", ["aggregate", "--rule", "borda"]),
    ("irv", ["aggregate", "--rule", "irv"]),
    ("ranked-pairs", ["aggregate", "--rule", "ranked-pairs"]),
    ("k-borda", ["committee", "--rule", "k-borda", "--k", str(COMMITTEE_K)]),
    ("greedy-cc", ["committee", "--rule", "greedy-cc", "--k", str(COMMITTEE_K)]),
    ("cycle", ["audit", "cycle"]),
)


class ElectionsLarge(CliWorkload):
    """In-process `cli.main` on three generated ballot files of unit ballots.

    (a) m=10, n=10,000 uniform rankings, almost all distinct;
    (b) m=4, n=10,000 drawn from the 24 rankings with seeded weights;
    (c) m=50, n=1,000 uniform, where the ranked-pairs lock loop dominates
        (no `audit cycle` here, see MAX_CYCLE_AUDIT_M).
    n is a tenth of the sizes quoted in the roadmap, so several whole cycles
    fit in one run.
    """

    name = "elections_large"
    tail_pct = 75.0
    SIZES = {"a": (10, 10_000, False), "b": (4, 10_000, True), "c": (50, 1_000, False)}

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = random.Random(f"elections_large:{seed}")
        self.ballots = {}
        self.ops = []
        for label, (m, n, shared) in self.SIZES.items():
            ids = [f"{label}{i:02d}" for i in range(m)]
            if shared:
                pool = list(permutations(range(m)))
                weights = [rng.random() for _ in pool]
                rankings = rng.choices(pool, weights, k=n)
            else:
                rankings = [tuple(rng.sample(range(m), m)) for _ in range(n)]
            path = workdir / f"{label}.vote"
            _write_vote(path, ids, rankings)
            self.ballots[label] = (ids, rankings)
            for command, argv in ELECTION_COMMANDS:
                if command == "cycle" and m > MAX_CYCLE_AUDIT_M:
                    continue
                self.ops.append((f"{label}:{command}", [*argv, "--profile", str(path)]))
        self._elections = {}

    def cycle(self):
        return self.ops

    def verify(self, key: str, text: str) -> None:
        from oracle import Election

        label, command = key.split(":")
        if label not in self._elections:
            self._elections[label] = Election(*self.ballots[label])
        e = self._elections[label]
        payload = _payload(text)
        if command == "plurality":
            expect_equal(payload["scores"], e.score_map(e.firsts), "first-place counts")
            expect_equal(payload["ranking"], e.plurality_ranking(), "plurality ranking")
        elif command == "borda":
            expect_equal(payload["scores"], e.score_map(e.borda), "Borda scores")
            expect_equal(payload["ranking"], e.borda_ranking(), "Borda ranking")
        elif command == "irv":
            ranking, scores = e.instant_runoff()
            expect_equal(payload["ranking"], ranking, "IRV ranking")
            expect_equal(payload["scores"], scores, "IRV elimination counts")
        elif command == "ranked-pairs":
            ranking, locked = e.ranked_pairs()
            expect_equal(payload["locked_pairs"], locked, "locked pairs")
            expect_equal(payload["ranking"], ranking, "ranked-pairs ranking")
        elif command == "k-borda":
            winners = e.borda_ranking()[:COMMITTEE_K]
            expect_equal(payload["winners"], winners, "k-Borda committee")
        elif command == "greedy-cc":
            winners, score = e.greedy_cc(COMMITTEE_K)
            expect_equal(payload["winners"], winners, "greedy-CC committee")
            expect_equal(payload["cc_score"], score, "CC score")
        elif command == "cycle":
            expect_equal(payload["margins"], e.margin_map(), "margins")
            expect_equal(payload["condorcet_winner"], e.condorcet_winner(), "Condorcet winner")
            cycles = payload["cycles"]
            if e.m <= 6:
                expect_equal(cycles, e.all_majority_cycles(), "majority cycles")
            else:
                expect_equal(len(cycles), int(e.has_majority_cycle()), "witness cycle count")
                expect(all(e.is_majority_cycle(c) for c in cycles), f"not a majority cycle: {cycles}")
        if command in ("k-borda", "greedy-cc"):
            expect_equal(len(payload["winners"]), COMMITTEE_K, "committee size")


PIPELINE_CASES = 8
PIPELINE_N = 200


def make_dataset(rng: random.Random, n_cases: int) -> dict:
    """Cases of 4 responses with q=3 features and a weighted jury, a d=5
    population in 3 beta-distributed groups, and a noisy bilinear world."""
    cases = []
    for c in range(n_cases):
        ids = [f"r{j}" for j in range(4)]
        responses = [
            {"id": rid, "text": f"response {rid} to prompt {c}",
             "features": [round(rng.random(), 6) for _ in range(3)]}
            for rid in ids
        ]
        jury = [{"ranking": rng.sample(ids, 4), "weight": rng.randint(1, 3)} for _ in range(9)]
        cases.append({"prompt": f"prompt {c}", "responses": responses, "jury": jury})
    raw = [rng.uniform(1.0, 3.0) for _ in range(3)]
    groups = [
        {
            "weight": w / sum(raw),
            "components": [
                {"kind": "beta", "a": round(rng.uniform(0.5, 4.0), 3), "b": round(rng.uniform(0.5, 4.0), 3)}
                for _ in range(5)
            ],
        }
        for w in raw
    ]
    world = {
        "M_star": [[round(rng.uniform(0.0, 1.5), 4) for _ in range(3)] for _ in range(5)],
        "noise_sigma": 0.5,
    }
    return {"cases": cases, "population": {"d": 5, "groups": groups}, "world": world}


class PipelineSim(CliWorkload):
    """In-process `cli.main(["simulate", ...])` on a generated dataset.

    Five configs at N=200 over 8 cases x 4 responses; the roadmap's 50 cases
    would leave too few ops in one run for a latency tail.  The rankings
    variant never samples a population and is the control.
    """

    name = "pipeline_sim"
    tail_pct = 75.0

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = random.Random(f"pipeline_sim:{seed}")
        self.seed = rng.randrange(1000)
        self.dataset = make_dataset(rng, PIPELINE_CASES)
        (workdir / "dataset.json").write_text(json.dumps(self.dataset, indent=1), encoding="utf-8")
        self.sft_path = workdir / "sft.jsonl"
        base = {"N": PIPELINE_N, "ridge_lambda": 1e-6, "dataset": "dataset.json"}
        self.configs = {
            "rankings-borda": {"variant": "rankings", "F": "borda", "ridge_lambda": 1e-6,
                               "dataset": "dataset.json"},
            "collective-ranked_pairs": {"variant": "collective", "C": "ranked_pairs", **base},
            "collective-greedy_cc": {"variant": "collective", "C": "greedy_cc", "k": 2, **base},
            "features-median": {"variant": "features", "W": "median", **base},
            "inference-instant_runoff": {"variant": "inference", "C": "instant_runoff", **base},
        }
        self.ops = []
        for key, config in self.configs.items():
            path = workdir / f"{key}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            argv = ["simulate", "--config", str(path), "--seed", str(self.seed)]
            if key == "collective-ranked_pairs":
                argv += ["--out", str(self.sft_path)]
            self.ops.append((key, argv))

    def cycle(self):
        return self.ops

    def verify(self, key: str, text: str) -> None:
        out_path = self.sft_path if key == "collective-ranked_pairs" else None
        verify_simulate(_payload(text), self.configs[key], self.dataset, self.seed, out_path)
        expect_equal(len(_payload(text)["cases"]), PIPELINE_CASES, "case count")


# Odd profile sizes spanning [5, 101].  Every cycle audits one profile per
# (m, n) pair, so each run covers the same sizes whatever the seed; the seed
# draws the rankings, clone orders, voters and ratings.
N_GRID = (5, 29, 53, 77, 101)


class AuditSweep(Workload):
    """Auditor calls on a seeded stream of small random strict profiles.

    One cycle holds one profile for each m in 3..6 and n in N_GRID.  For
    each profile and ordinal rule, one op runs three auditor calls: an
    anonymity check, a clone test with random per-voter clone orders and a
    manipulation search for one voter.  One more op per profile runs the
    cardinal manipulation searches for mean and median on 3-7 ratings.
    That is 100 ops per cycle.  A single call is not the op: calls differ
    a thousandfold in cost, and per-call percentiles jumped between
    clusters of cheap and dear calls from seed to seed.

    The searched voter is drawn among those whose top choice does not win
    under the rule (by the reference tallies).  A search for a voter whose
    top choice wins returns at once; drawing such voters at random would
    make a cycle's work swing with the seed by about a sixth.
    """

    name = "audit_sweep"
    tail_pct = 95.0

    def __init__(self, seed: int, workdir: Path):
        del workdir
        self.audits = importlib.import_module("socialchoice.audits")
        self.profiles = importlib.import_module("socialchoice.profiles")
        self.rng = random.Random(f"audit_sweep:{seed}")

    def cycle(self):
        from oracle import Election

        rng = self.rng
        ops = []
        for m in range(3, 7):
            for n in N_GRID:
                alts = tuple("ABCDEF"[:m])
                rankings = [tuple(rng.sample(alts, m)) for _ in range(n)]
                profile = self.profiles.profile_from_rankings(rankings, alts)
                reference = Election(alts, [tuple(map(alts.index, r)) for r in rankings])
                winners = {
                    "plurality": reference.plurality_ranking()[0],
                    "borda": reference.borda_ranking()[0],
                    "instant_runoff": reference.instant_runoff()[0][0],
                    "ranked_pairs": reference.ranked_pairs()[0][0],
                }
                target = rng.choice(alts)
                clones = (f"{target}1", f"{target}2")
                orders = {i: tuple(rng.sample(clones, 2)) for i in range(n)}
                spec = self.audits.CloneSpec(target, 2, orders)
                for rule in ORDINAL_RULES:
                    losers = [i for i, r in enumerate(rankings) if r[0] != winners[rule]]
                    voter = rng.choice(losers or range(n))
                    ops.append((f"{rule}:m{m}", [
                        ("anonymity", rule, profile, rng.randrange(2**31)),
                        ("clones", rule, profile, spec),
                        ("manipulation", rule, profile, (voter, rankings[voter])),
                    ]))
                calls = []
                for rule in ("mean", "median"):
                    ratings = [round(rng.uniform(0.0, 10.0), 2) for _ in range(rng.randint(3, 7))]
                    calls.append(("cardinal", rule, ratings, rng.randrange(len(ratings))))
                ops.append(("cardinal", calls))
        return ops

    def run(self, calls):
        audits = self.audits
        outs = []
        for kind, rule, subject, extra in calls:
            if kind == "anonymity":
                outs.append(audits.anonymity_check(rule, subject, extra))
            elif kind == "clones":
                outs.append(audits.clone_test(rule, subject, extra))
            elif kind == "manipulation":
                outs.append(audits.manipulation_search_ordinal(rule, subject, extra[0]))
            else:
                outs.append(audits.manipulation_search_cardinal(rule, subject, extra))
        return outs

    def check(self, key: str, calls, outs) -> None:
        audits = self.audits
        for (kind, rule, subject, extra), out in zip(calls, outs, strict=True):
            if kind == "anonymity":
                expect(out is True, f"{rule} is not anonymous")
            elif kind == "clones":
                alts = subject.alternatives
                clones = extra.clone_ids()
                expect(out.base_winner in alts, f"{rule}: base winner {out.base_winner!r}")
                expect(out.cloned_winner in set(alts) - {extra.target} | set(clones),
                       f"{rule}: cloned winner {out.cloned_winner!r}")
                # Any clone winning counts as the target winning.
                cloned = extra.target if out.cloned_winner in clones else out.cloned_winner
                wanted = "independent" if out.base_winner == cloned else "violated"
                expect_equal(out.verdict, wanted, f"{rule} clone verdict")
            elif kind == "manipulation":
                if out is not None:
                    voter, truthful = extra
                    expect_equal((out.voter, tuple(out.truthful)), (voter, truthful),
                                 f"{rule} witness voter")
                    expect_equal(sorted(out.misreport), sorted(subject.alternatives),
                                 f"{rule} misreport")
                    expect(audits.reverify_ordinal_witness(rule, subject, out),
                           f"{rule} witness fails re-verification")
            elif out is not None:
                expect(audits.reverify_cardinal_witness(rule, subject, out),
                       f"{rule} witness fails re-verification")


WORKLOADS = {w.name: w for w in (CliSmall, ElectionsLarge, PipelineSim, AuditSweep)}
