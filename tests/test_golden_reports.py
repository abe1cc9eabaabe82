"""Byte-exact `simulate` reports, frozen before the batched rating kernels.

Each file under `golden/expected/` is the stdout of
`socialchoice simulate --config <config> --seed <seed>` as produced by the
per-(evaluator, response) implementation.  The batched kernels must print
the same bytes.  `data/pipeline_*.json` runs on the noise-free one-case
`data/cases.json`; the `golden/noisy_*.json` configs run on a three-case
dataset with rating noise, ratings clamped at both ends and two responses
with equal features (their predicted ratings tie and break by id).

To regenerate after a deliberate output change, run from the repository root:

    PYTHONPATH=src python -m socialchoice.cli simulate \
        --config <config> --seed <seed> > tests/golden/expected/<name>.seed<seed>.json
"""

from pathlib import Path

import pytest

from socialchoice.cli import main

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "data"
GOLDEN = HERE / "golden"

CASES = [
    *[(DATA / f"pipeline_{v}.json", s) for v in ("collective", "features", "inference", "rankings")
      for s in (0, 7)],
    *[(GOLDEN / f"noisy_{v}.json", 3) for v in (
        "collective", "committee", "features_median", "features_mean", "inference")],
]


@pytest.mark.parametrize("config, seed", CASES, ids=lambda v: getattr(v, "stem", str(v)))
def test_simulate_report_bytes(capsys, config, seed):
    assert main(["simulate", "--config", str(config), "--seed", str(seed)]) == 0
    expected = (GOLDEN / "expected" / f"{config.stem}.seed{seed}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
