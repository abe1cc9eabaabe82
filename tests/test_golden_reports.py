"""Byte-exact command reports, frozen before the code under them changes.

Each file under `golden/expected/` is the stdout of one command line:

- `<config>.seed<seed>.json`: `socialchoice simulate --config <config>
  --seed <seed>`, as produced by the per-(evaluator, response)
  implementation before the batched rating kernels.  `data/pipeline_*.json`
  runs on the noise-free one-case `data/cases.json`; the
  `golden/noisy_*.json` configs run on a three-case dataset with rating
  noise, ratings clamped at both ends and two responses with equal features
  (their predicted ratings tie and break by id).
- `rate_<rule>.<input>.<format>`, `judge.<input>.<format>` and
  `anonymity_median.<input>.<format>`: `rate`, `judge` and
  `audit anonymity --rule median` on `data/ratings.json`,
  `data/judgments.json` and `golden/ratings_rich.json` (four alternatives,
  six evaluators, fractional ratings), as JSON and as CSV, frozen before the
  JSON loaders moved onto one reader.

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

# (expected file name, argv) per frozen command line.
CASES = [
    *[(f"{config.stem}.seed{seed}.json",
       ["simulate", "--config", str(config), "--seed", str(seed)]) for config, seed in SIMULATE],
    *[(f"rate_{rule}.{path.stem}.{fmt}",
       ["rate", "--rule", rule, "--ratings", str(path), "--format", fmt])
      for rule in ("mean", "median") for path in RATINGS for fmt in ("json", "csv")],
    *[(f"anonymity_median.{path.stem}.{fmt}",
       ["audit", "anonymity", "--rule", "median", "--ratings", str(path), "--format", fmt])
      for path in RATINGS for fmt in ("json", "csv")],
    *[(f"judge.judgments.{fmt}",
       ["judge", "--profile", str(DATA / "judgments.json"), "--format", fmt])
      for fmt in ("json", "csv")],
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_report_bytes(capsys, name, argv):
    assert main(argv) == 0
    expected = (GOLDEN / "expected" / name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
