"""Time the kernels at the sizes of the roadmap's one-off figures.

    python3 bench/crosscheck.py [--seed N] [--repeats K]

Not part of the benchmark's runs: it exists to compare the roadmap's single
noisy readings with this machine's (median of K timings each):

- margin_matrix, ranked_pairs and greedy_cc (k=3) on m=10, n=100,000 unit
  ballots drawn uniformly;
- run_pipeline, collective variant, 50 cases at N=200;
- one `python -m socialchoice.cli aggregate --rule borda` process on fig1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def timed(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    from socialchoice.cardinal import greedy_cc
    from socialchoice.ordinal import ranked_pairs
    from socialchoice.pipeline import config_from_json, dataset_from_json, run_pipeline
    from socialchoice.profiles import margin_matrix, profile_from_rankings
    from workloads import make_dataset

    rng = random.Random(f"crosscheck:{args.seed}")
    ids = [f"a{i}" for i in range(10)]
    profile = profile_from_rankings([rng.sample(ids, 10) for _ in range(100_000)], ids)
    dataset = dataset_from_json(json.dumps(make_dataset(rng, 50)))
    config = config_from_json(json.dumps({"variant": "collective", "C": "ranked_pairs", "N": 200}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cli = [sys.executable, "-m", "socialchoice.cli", "aggregate", "--rule", "borda",
           "--profile", "data/fig1.vote"]

    seconds = {
        "margin_matrix_m10_n1e5_s": timed(lambda: margin_matrix(profile), args.repeats),
        "ranked_pairs_m10_n1e5_s": timed(lambda: ranked_pairs(profile), args.repeats),
        "greedy_cc_k3_m10_n1e5_s": timed(lambda: greedy_cc(profile, 3), args.repeats),
        "run_pipeline_collective_50x200_s": timed(
            lambda: run_pipeline(config, dataset, args.seed), args.repeats
        ),
        "cli_aggregate_borda_fig1_s": timed(
            lambda: subprocess.run(cli, cwd=ROOT, env=env, check=True, capture_output=True),
            args.repeats,
        ),
    }
    print(json.dumps({"seed": args.seed, "repeats": args.repeats, "median_s": seconds}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
