"""Byte-exact command reports, frozen before the code under them changes.

Each file under `golden/expected/` is the stdout of one command line:

- `<config>.seed<seed>.json`: `socialchoice simulate --config <config>
  --seed <seed>`, as produced by the per-(evaluator, response)
  implementation before the batched rating kernels.  `data/pipeline_*.json`
  runs on the noise-free one-case `data/cases.json`; the
  `golden/noisy_*.json` configs run on a three-case dataset with rating
  noise, ratings clamped at both ends and two responses with equal features
  (their predicted ratings tie and break by id).  The two
  `noisy_features_*` reports were regenerated when the rating noise moved
  to counter-based SplitMix64 streams, since their rewards read the noisy
  fit directly; every other `simulate` report kept its bytes.  The same
  two, `noisy_features_median.seed3.json` and
  `noisy_features_mean.seed3.json`, were regenerated again when the
  population draws moved to counter-based SplitMix64 streams (beta
  components by Marsaglia-Tsang gammas), since their rewards aggregate
  over the drawn evaluators; every other report kept its bytes, because
  `data/cases.json` draws only degenerate uniform(a, a) components and the
  other noisy reports record only the chosen responses.
- `rate_<rule>.<input>.<format>`, `judge.<input>.<format>` and
  `anonymity_median.<input>.<format>`: `rate`, `judge` and
  `audit anonymity --rule median` on `data/ratings.json`,
  `data/judgments.json` and `golden/ratings_rich.json` (four alternatives,
  six evaluators, fractional ratings), as JSON and as CSV, frozen before the
  JSON loaders moved onto one reader.
- `aggregate_<rule>`, `committee_<rule>_k<k>`, `parse_feedback`,
  `clones_<rule>`, `manipulation_<rule>`, `cycle` and `anonymity_<rule>`,
  each `.<input>.<format>`: every ordinal and lottery rule, both committee
  rules at k=1..3, the feedback compiler and the ordinal audits on the
  `data/*.vote` files and on `golden/weighted_m6.vote` and
  `golden/weighted_m10.vote` (weighted ballots that repeat rankings in
  differently spaced text; m=10 is above the cycle-enumeration cap), as
  JSON and as CSV, frozen before the CLI's imports were made lazy.
- `aggregate_<rule>`, `committee_<rule>_k<k>` and `cycle` on
  `golden/repeats_m4.vote` and `golden/repeats_m12.vote` (a few rankings
  over hundreds of lines, most lines repeated byte for byte, some in
  differently spaced text, with comments between them), as JSON and as CSV,
  frozen before the parser read each distinct line once.
- `manipulation_<rule>.pruned_m6.<format>`: the ordinal manipulation
  search for voter 10 of `golden/pruned_m6.vote`, where Borda and ranked
  pairs find their witness only after blocks of misreports in which no
  alternative the voter prefers can win, frozen before the search walked
  prefixes and skipped such blocks; and the same search for voter 10 of
  `golden/unpruned_m6.vote`, where ranked pairs has no witness and no
  block can be skipped, so that every misreport is decided.
- `parse_feedback.feedback_orders.<format>`: `parse-feedback` on
  `golden/feedback_orders.txt` with context `A,B,C,D,E,F,G`, where a
  pairwise statement and a ranking chain into one order, some ids are
  bounded and some rated only by their degree in the closed order, and
  `manipulation_<rule>.ratings<r>.<format>`: the cardinal manipulation
  search of `mean` on ratings 3,6,6 for voter 0 and of `median` on
  0,4,6,10 for voter 2, both frozen before the order was closed on one
  bitset per id.

To regenerate after a deliberate output change, run the case's command line
from the repository root with `PYTHONPATH=src python -m socialchoice.cli`
and redirect stdout to `tests/golden/expected/<name>`, for example:

    PYTHONPATH=src python -m socialchoice.cli simulate \
        --config <config> --seed <seed> > tests/golden/expected/<name>.seed<seed>.json
"""

from pathlib import Path

import pytest

from socialchoice.cli import main

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "data"
GOLDEN = HERE / "golden"

SIMULATE = [
    *[(DATA / f"pipeline_{v}.json", s) for v in ("collective", "features", "inference", "rankings")
      for s in (0, 7)],
    *[(GOLDEN / f"noisy_{v}.json", 3) for v in (
        "collective", "committee", "features_median", "features_mean", "inference")],
]

RATINGS = (DATA / "ratings.json", GOLDEN / "ratings_rich.json")
FIG1, M6, M10 = DATA / "fig1.vote", GOLDEN / "weighted_m6.vote", GOLDEN / "weighted_m10.vote"
PRUNED_M6, UNPRUNED_M6 = GOLDEN / "pruned_m6.vote", GOLDEN / "unpruned_m6.vote"
REPEATS = (GOLDEN / "repeats_m4.vote", GOLDEN / "repeats_m12.vote")
VOTES = (*sorted(DATA.glob("*.vote")), M6, M10, *REPEATS)
ORDINAL = ("plurality", "borda", "instant_runoff", "ranked_pairs")
FORMATS = ("json", "csv")
# (profile, target, copies, split) per clone audit.
CLONES = [
    (DATA / "restaurant.vote", "C", 2, "alternating"),
    (FIG1, "B", 3, "lexicographic"),
    (M6, "A", 2, "alternating"),
]

# (expected file name, argv) per frozen command line.
CASES = [
    *[(f"{config.stem}.seed{seed}.json",
       ["simulate", "--config", str(config), "--seed", str(seed)]) for config, seed in SIMULATE],
    *[(f"rate_{rule}.{path.stem}.{fmt}",
       ["rate", "--rule", rule, "--ratings", str(path), "--format", fmt])
      for rule in ("mean", "median") for path in RATINGS for fmt in FORMATS],
    *[(f"anonymity_median.{path.stem}.{fmt}",
       ["audit", "anonymity", "--rule", "median", "--ratings", str(path), "--format", fmt])
      for path in RATINGS for fmt in FORMATS],
    *[(f"judge.judgments.{fmt}",
       ["judge", "--profile", str(DATA / "judgments.json"), "--format", fmt])
      for fmt in FORMATS],
    *[(f"aggregate_{rule}.{path.stem}.{fmt}",
       ["aggregate", "--rule", rule, "--profile", str(path), "--format", fmt])
      for rule in (*ORDINAL, "random_dictator") for path in VOTES for fmt in FORMATS],
    *[(f"committee_{rule}_k{k}.{path.stem}.{fmt}",
       ["committee", "--rule", rule, "--profile", str(path), "--k", str(k), "--format", fmt])
      for rule in ("k_borda", "greedy_cc") for path in (FIG1, M6, M10, *REPEATS) for k in (1, 2, 3)
      for fmt in FORMATS],
    *[(f"parse_feedback.{path.stem}.{fmt}",
       ["parse-feedback", "--statements", str(path), "--context", context, "--format", fmt])
      for path, context in ((DATA / "feedback.txt", "A,B,C"),
                            (GOLDEN / "feedback_orders.txt", "A,B,C,D,E,F,G"))
      for fmt in FORMATS],
    *[(f"clones_{rule}.{path.stem}.{fmt}",
       ["audit", "clones", "--rule", rule, "--profile", str(path), "--target", target,
        "--copies", str(copies), "--split", split, "--format", fmt])
      for rule in ORDINAL for path, target, copies, split in CLONES for fmt in FORMATS],
    *[(f"manipulation_{rule}.{path.stem}.{fmt}",
       ["audit", "manipulation", "--rule", rule, "--profile", str(path), "--voter", str(voter),
        "--format", fmt])
      for rule in ORDINAL
      for path, voter in ((FIG1, 0), (M6, 5), (PRUNED_M6, 10), (UNPRUNED_M6, 10))
      for fmt in FORMATS],
    *[(f"manipulation_{rule}.ratings{ratings.replace(',', '-')}.{fmt}",
       ["audit", "manipulation", "--w", rule, "--ratings", ratings, "--voter", str(voter),
        "--format", fmt])
      for rule, ratings, voter in (("mean", "3,6,6", 0), ("median", "0,4,6,10", 2))
      for fmt in FORMATS],
    *[(f"cycle.{path.stem}.{fmt}", ["audit", "cycle", "--profile", str(path), "--format", fmt])
      for path in VOTES for fmt in FORMATS],
    *[(f"anonymity_{rule}.{path.stem}.{fmt}",
       ["audit", "anonymity", "--rule", rule, "--profile", str(path), "--format", fmt])
      for rule in ORDINAL for path in (FIG1, M6, M10) for fmt in FORMATS],
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_report_bytes(capsys, name, argv):
    assert main(argv) == 0
    expected = (GOLDEN / "expected" / name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
