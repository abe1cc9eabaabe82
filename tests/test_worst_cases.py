"""One row per command at the largest input its caps allow, under a time bound
and a peak-RSS bound.

Each row runs the command in a grandchild process: a wrapper child starts it
and reads `resource.getrusage(RUSAGE_CHILDREN)`, so the resident-set peak is
the command's alone, not the test process's or another test's child's.  The
bounds are generous; a row that needs more than a few seconds exposes a
missing bound in the program.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from socialchoice.audits import MAX_MANIPULATION_ALTERNATIVES
from socialchoice.feedback import MAX_ORDER_IDS
from socialchoice.pipeline import MAX_DESIGN_ENTRIES
from socialchoice.profiles import parse_profile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# argv: the command's stdout file, then the command line.  Prints the exit
# code, the wall seconds and the command's peak RSS in MB as JSON.
WRAPPER = (
    "import json, resource, subprocess, sys, time\n"
    "start = time.perf_counter()\n"
    "with open(sys.argv[1], 'wb') as out:\n"
    "    code = subprocess.run(sys.argv[2:], stdout=out).returncode\n"
    "wall = time.perf_counter() - start\n"
    "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
    "unit = 1 if sys.platform == 'darwin' else 1024\n"  # bytes on macOS, KiB on Linux
    "print(json.dumps({'code': code, 'wall_s': wall, 'peak_mb': peak * unit / 2**20}))\n"
)


def rank_at_the_id_cap(tmp_path):
    """One `rank` line over MAX_ORDER_IDS ids: every ordered pair is in the closure."""
    ids = [f"a{i}" for i in range(MAX_ORDER_IDS)]
    statements = tmp_path / "rank.txt"
    statements.write_text("rank " + " > ".join(ids) + "\n", encoding="utf-8")
    argv = ["parse-feedback", "--statements", str(statements), "--context", ",".join(ids)]

    def check(report):
        order = report["payload"]["order"]
        assert len(order) == MAX_ORDER_IDS * (MAX_ORDER_IDS - 1) // 2 == 499_500
        assert order == sorted([a, b] for i, a in enumerate(ids) for b in ids[i + 1:])

    return argv, check


def latin_square(m: int) -> str:
    """m voters, voter i ranking the ids a000 < a001 < ... from the i-th on, cyclically."""
    ids = [f"a{i:03}" for i in range(m)]
    lines = ["alternatives: " + ", ".join(ids)]
    lines += ["1: " + " > ".join(ids[i:] + ids[:i]) for i in range(m)]
    return "\n".join(lines) + "\n"


def manipulation_at_cap(rule, text, voter, witness):
    """`audit manipulation` on the slowest profile found at the rule's alternative cap."""

    def build(tmp_path):
        content = text()
        assert len(parse_profile(content).alternatives) == MAX_MANIPULATION_ALTERNATIVES[rule]
        profile = tmp_path / "profile.vote"
        profile.write_text(content, encoding="utf-8")
        argv = ["audit", "manipulation", "--rule", rule, "--profile", str(profile),
                "--voter", str(voter)]

        def check(report):
            payload = report["payload"]
            assert (payload["witness"] is not None) is witness
            assert payload.get("reverified", True) is True

        return argv, check

    return build


def simulate_at_the_design_cap(width, responses, ridge_lambda):
    """A `features` simulate whose design holds MAX_DESIGN_ENTRIES entries.

    d = q = `width`, two cases sharing `responses` responses, a noisy world
    and a two-group beta population: N = MAX_DESIGN_ENTRIES / (responses *
    width^2) evaluators.
    """

    def build(tmp_path):
        n = MAX_DESIGN_ENTRIES // (responses * width * width)
        rng = random.Random(width)
        per_case = (responses // 2, responses - responses // 2)
        cases = [
            {"prompt": f"p{c}", "responses": [
                {"id": f"r{j}", "features": [round(rng.random(), 4) for _ in range(width)]}
                for j in range(size)
            ]}
            for c, size in enumerate(per_case)
        ]
        groups = [
            {"weight": weight, "components": [
                {"kind": "beta", "a": round(rng.uniform(0.5, 4.0), 3),
                 "b": round(rng.uniform(0.5, 4.0), 3)}
                for _ in range(width)
            ]}
            for weight in (0.25, 0.75)
        ]
        world = {"M_star": [[round(rng.uniform(0.0, 1.5), 4) for _ in range(width)]
                            for _ in range(width)],
                 "noise_sigma": 0.5}
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps({"cases": cases, "population": {"d": width, "groups": groups},
                                       "world": world}), encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"variant": "features", "W": "mean", "N": n,
                                      "ridge_lambda": ridge_lambda, "dataset": str(dataset)}),
                          encoding="utf-8")

        def check(report):
            payload = report["payload"]
            assert payload["n_evaluators"] == n
            assert [sorted(case["rewards"]) for case in payload["cases"]] == [
                sorted(y["id"] for y in case["responses"]) for case in cases
            ]

        return ["simulate", "--config", str(config), "--seed", "3"], check

    return build


def read_test_file(name):
    return lambda: (ROOT / "tests" / name).read_text(encoding="utf-8")


# id: (input builder, wall-time bound in s, peak-RSS bound in MB).
ROWS = {
    "parse-feedback-at-MAX_ORDER_IDS": (rank_at_the_id_cap, 10.0, 256),
    # The slowest searches found at each rule's MAX_MANIPULATION_ALTERNATIVES,
    # which took at most 0.7 s and 25 MB per process when measured.
    "manipulation-plurality-at-its-cap": (
        manipulation_at_cap("plurality", lambda: latin_square(256), 255, False), 5.0, 128
    ),
    "manipulation-borda-at-its-cap": (
        manipulation_at_cap("borda", lambda: latin_square(80), 4, True), 5.0, 128
    ),
    "manipulation-instant-runoff-at-its-cap": (
        manipulation_at_cap("instant_runoff", read_test_file("worst_cases/runoff_m32.vote"), 0,
                            True), 5.0, 128,
    ),
    "manipulation-ranked-pairs-at-its-cap": (
        manipulation_at_cap("ranked_pairs", read_test_file("golden/unpruned_m6.vote"), 10, False),
        5.0, 128,
    ),
    # At d = q = 1 the ratings are as large as the design.  Measured per
    # process (0.9-1.3 s each): 158 MB at lambda = 1e-6 and 176 MB at lambda
    # = 0 with the ratings rated in runs of RATING_BLOCK_ENTRIES; 171-173 MB
    # at either lambda forming the design for both; 201-202 MB rating all N
    # evaluators in one block, which the 190 MB bound refuses.
    "simulate-d1-at-MAX_DESIGN_ENTRIES": (simulate_at_the_design_cap(1, 12, 1e-6), 10.0, 190),
    "simulate-d1-lambda0-at-MAX_DESIGN_ENTRIES": (
        simulate_at_the_design_cap(1, 12, 0.0), 10.0, 190
    ),
    # 42 MB, against 71-72 MB forming the 1,000 x 10 x 400-entry design.
    "simulate-d20-at-MAX_DESIGN_ENTRIES": (simulate_at_the_design_cap(20, 10, 1e-6), 10.0, 128),
}


@pytest.mark.parametrize("build, max_wall_s, max_peak_mb", ROWS.values(), ids=ROWS)
def test_command_at_its_cap(tmp_path, build, max_wall_s, max_peak_mb):
    argv, check = build(tmp_path)
    out = tmp_path / "stdout"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", WRAPPER, str(out), sys.executable, "-m", "socialchoice.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    usage = json.loads(proc.stdout)
    assert usage["code"] == 0, proc.stderr
    check(json.loads(out.read_text(encoding="utf-8")))
    assert usage["wall_s"] < max_wall_s, usage
    assert usage["peak_mb"] < max_peak_mb, usage
