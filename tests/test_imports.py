"""Start-up: a command that needs no arrays never loads numpy, and the package's
public names resolve lazily to the objects their submodules define.

Each command line runs in a fresh interpreter, since numpy, once any test in
this process has loaded it, stays in `sys.modules`.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import socialchoice

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Runs `main(argv)`, then reports on stderr whether a module was imported.
PROBE = (
    "import sys\n"
    "from socialchoice.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('{0} loaded:', '{0}' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)

NUMPY_FREE = {
    "aggregate-borda": ["aggregate", "--rule", "borda", "--profile", "data/fig1.vote"],
    "aggregate-irv": ["aggregate", "--rule", "irv", "--profile", "data/fig1.vote"],
    "aggregate-random-dictator": [
        "aggregate", "--rule", "random-dictator", "--profile", "data/fig1.vote", "--seed", "3",
    ],
    "rate": ["rate", "--rule", "median", "--ratings", "data/ratings.json"],
    "judge": ["judge", "--profile", "data/judgments.json"],
    "parse-feedback": [
        "parse-feedback", "--statements", "data/feedback.txt", "--context", "A,B,C",
    ],
    "audit-clones": [
        "audit", "clones", "--rule", "plurality", "--profile", "data/restaurant.vote",
        "--target", "C", "--copies", "2",
    ],
    "audit-manipulation-cardinal": [
        "audit", "manipulation", "--w", "mean", "--ratings", "3,6,6", "--voter", "0",
    ],
    "audit-anonymity-borda": ["audit", "anonymity", "--rule", "borda", "--profile", "data/fig1.vote"],
    # Each voter's top choice loses (plurality elects B, Borda C and instant
    # runoff A), so every search runs.
    "audit-manipulation-plurality": [
        "audit", "manipulation", "--rule", "plurality", "--profile", "data/fig1.vote", "--voter", "0",
    ],
    "audit-manipulation-borda": [
        "audit", "manipulation", "--rule", "borda", "--profile", "data/fig1.vote", "--voter", "0",
    ],
    "audit-manipulation-irv": [
        "audit", "manipulation", "--rule", "irv", "--profile", "data/fig1.vote", "--voter", "8",
    ],
    # fig1's tallies (k * m**2 = 45) run in pure Python on the merge.
    "aggregate-ranked-pairs": ["aggregate", "--rule", "ranked-pairs", "--profile", "data/fig1.vote"],
    "committee-greedy-cc": [
        "committee", "--rule", "greedy-cc", "--profile", "data/fig1.vote", "--k", "2",
    ],
    "committee-k-borda": ["committee", "--rule", "k-borda", "--profile", "data/fig1.vote", "--k", "2"],
    # weighted_m10's k * m**2 = 800 is past the bound, but Borda tallies the
    # merge and the CC score reads arrays only once a tally has built them.
    "committee-k-borda-m10": [
        "committee", "--rule", "k-borda", "--profile", "tests/golden/weighted_m10.vote", "--k", "2",
    ],
    "audit-cycle": ["audit", "cycle", "--profile", "data/fig1.vote"],
    "audit-cycle-csv": ["audit", "cycle", "--profile", "data/fig1.vote", "--format", "csv"],
    "audit-anonymity-ranked-pairs": [
        "audit", "anonymity", "--rule", "ranked-pairs", "--profile", "data/fig1.vote",
    ],
    "audit-manipulation-ranked-pairs": [
        "audit", "manipulation", "--rule", "ranked-pairs", "--profile", "data/fig1.vote",
        "--voter", "0",
    ],
    "audit-clones-ranked-pairs": [
        "audit", "clones", "--rule", "ranked-pairs", "--profile", "data/fig1.vote",
        "--target", "C", "--copies", "2",
    ],
}

# Every name the package exports.
EXPORTS = {
    "audits": (
        "CloneSpec", "CloneTestResult", "ManipulationWitness", "anonymity_check", "clone_test",
        "cloned_profile", "manipulation_search_cardinal", "manipulation_search_ordinal",
    ),
    "cardinal": (
        "CARDINAL_RULES", "Committee", "RatingProfile", "aggregate_ratings", "cardinal_rule",
        "cc_score", "greedy_cc", "k_borda", "rating_profile_from_json",
    ),
    "feedback": (
        "FeedbackInconsistencyError", "FeedbackParseError", "PartialPreference",
        "compile_constraints", "format_statement", "interpret_rating", "parse_feedback",
    ),
    "judgment": (
        "Agenda", "JudgmentProfile", "check_consistency", "closest_consistent",
        "judgment_profile_from_json", "majority_judgments",
    ),
    "ordinal": (
        "ORDINAL_RULES", "Lottery", "SocialRanking", "borda", "instant_runoff", "ordinal_rule",
        "plurality", "random_dictator", "ranked_pairs", "ranked_pairs_locks",
    ),
    "pipeline": (
        "PromptCase", "evaluate_reward", "inference_time_choice", "rlchf_from_features",
        "select_response", "simulate_collective_decision",
    ),
    "profiles": (
        "BallotParseError", "CycleReport", "MarginMatrix", "OrdinalProfile", "RankingBallot",
        "detect_cycles", "margin_matrix", "parse_profile", "profile_from_rankings",
    ),
    "simulation": (
        "GroundTruthWorld", "IndividualPreferenceModel", "PopulationSpec", "ResponseRecord",
        "fit_individual_model", "predict_rating", "sample_population", "true_rating",
    ),
}


def run_fresh(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize("argv", NUMPY_FREE.values(), ids=NUMPY_FREE)
def test_command_runs_without_numpy(argv):
    proc = run_fresh("-c", PROBE.format("numpy"), *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "numpy loaded: False\n"


def test_probe_sees_numpy_when_a_command_needs_it():
    # simulate builds its design arrays with numpy: shows the probe can see it.
    argv = ["simulate", "--config", "data/pipeline_rankings.json"]
    proc = run_fresh("-c", PROBE.format("numpy"), *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "numpy loaded: True\n"


def test_a_tally_past_the_small_bound_loads_numpy():
    # weighted_m10 has k = 8 distinct rankings of m = 10 alternatives:
    # k * m**2 = 800 is past profiles.SMALL_TALLY_STEPS, so the margins are
    # tallied on arrays.
    argv = ["aggregate", "--rule", "ranked-pairs", "--profile", "tests/golden/weighted_m10.vote"]
    proc = run_fresh("-c", PROBE.format("numpy"), *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "numpy loaded: True\n"


def test_an_ordinal_rule_never_loads_the_cardinal_module():
    argv = ["aggregate", "--rule", "borda", "--profile", "data/fig1.vote"]
    proc = run_fresh("-c", PROBE.format("socialchoice.cardinal"), *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "socialchoice.cardinal loaded: False\n"


@pytest.mark.parametrize("module", ["socialchoice.audits", "socialchoice.cardinal"])
def test_a_cycle_audit_loads_no_other_audit_kinds_modules(module):
    # Each audit kind imports only what it runs; the cycle audit needs the
    # profile and its margins, not the auditors or the cardinal rules.
    argv = ["audit", "cycle", "--profile", "data/fig1.vote"]
    proc = run_fresh("-c", PROBE.format(module), *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{module} loaded: False\n"


@pytest.mark.parametrize("module", ["socialchoice.cardinal", "statistics"])
def test_parse_feedback_loads_no_cardinal_rule(module):
    # The rating scale it checks bounds against lives in `rules`, which every
    # command loads, not with the cardinal rules and their `statistics`.
    argv = ["parse-feedback", "--statements", "data/feedback.txt", "--context", "A,B,C"]
    proc = run_fresh("-c", PROBE.format(module), *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{module} loaded: False\n"


def test_noisy_simulation_never_loads_numpy_random():
    # Rating noise is drawn without numpy.random, whose import alone adds
    # about 6 MB to the resident set of a fresh interpreter.
    argv = ["simulate", "--config", "tests/golden/noisy_features_median.json", "--seed", "3"]
    proc = run_fresh("-c", PROBE.format("numpy.random"), *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "numpy.random loaded: False\n"
    golden = ROOT / "tests" / "golden" / "expected" / "noisy_features_median.seed3.json"
    assert proc.stdout == golden.read_text(encoding="utf-8")


def test_importing_the_package_and_its_names_loads_no_numpy():
    proc = run_fresh(
        "-c",
        "import sys\n"
        "from socialchoice import borda, parse_profile, ranked_pairs\n"
        "print('numpy' in sys.modules)\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in EXPORTS.items() for name in names]
)
def test_export_resolves_to_the_submodules_object(module, name):
    expected = getattr(importlib.import_module(f"socialchoice.{module}"), name)
    assert socialchoice.__getattr__(name) is expected
    assert getattr(socialchoice, name) is expected


def test_star_import_gives_every_export():
    namespace = {}
    exec("from socialchoice import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == {
        name for names in EXPORTS.values() for name in names
    }


def test_unknown_name_raises_attribute_error_and_submodules_still_import():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_rule'"):
        socialchoice.no_such_rule
    from socialchoice import cardinal

    assert cardinal is importlib.import_module("socialchoice.cardinal")
