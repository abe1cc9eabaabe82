"""End-to-end command-line tests, driven through main() with captured stdout."""

import copy
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from socialchoice import audits, cardinal, cli, ordinal
from socialchoice.audits import MAX_AUDIT_VOTERS
from socialchoice.cli import main
from socialchoice.judgment import MAX_CONSTRAINT_DEPTH
from socialchoice.profiles import parse_profile
from socialchoice.rules import RULES, resolve_rule

DATA = Path(__file__).resolve().parent.parent / "data"
SRC = DATA.parent / "src"
GOLDEN = DATA.parent / "tests" / "golden"
WORKLOADS = DATA.parent / "bench" / "workloads.py"
COMMANDS = ("aggregate", "rate", "committee", "judge", "parse-feedback", "simulate", "audit")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestRuleAliases:
    def test_hyphens_map_to_registry_names(self):
        assert resolve_rule("ranked-pairs").id == "ranked_pairs"
        assert resolve_rule("instant-runoff").id == "instant_runoff"
        assert resolve_rule("irv").id == "instant_runoff"
        assert resolve_rule("K-Borda").id == "k_borda"

    @pytest.mark.parametrize("module, rid", [(ordinal, "borda"), (cardinal, "median")])
    def test_lookup_reads_the_rule_module(self, monkeypatch, module, rid):
        # A wrapper installed in the rule's module alone sees every lookup.
        def wrapper(*args):
            raise AssertionError("not called")

        monkeypatch.setattr(module, rid, wrapper)
        assert resolve_rule(rid).fn is wrapper


class TestAggregate:
    def test_borda_on_three_way_profile(self, capsys):
        report = run_json(
            capsys, "aggregate", "--rule", "borda", "--profile", str(DATA / "fig1.vote")
        )
        assert report["payload"]["ranking"] == ["C", "B", "A"]
        assert report["payload"]["scores"] == {"A": 20.0, "B": 24.0, "C": 25.0}

    def test_ranked_pairs_reports_locked_pairs(self, capsys):
        report = run_json(
            capsys,
            "aggregate", "--rule", "ranked-pairs", "--profile", str(DATA / "fig1.vote"),
        )
        assert report["payload"]["ranking"] == ["B", "C", "A"]
        assert report["payload"]["locked_pairs"] == [["C", "A", 7], ["B", "C", 3]]

    def test_irv_on_single_voter(self, capsys):
        report = run_json(
            capsys, "aggregate", "--rule", "irv", "--profile", str(DATA / "single.vote")
        )
        assert report["payload"]["ranking"] == ["A", "B", "C"]

    def test_random_dictator_lottery(self, capsys):
        args = (
            "aggregate", "--rule", "random-dictator",
            "--profile", str(DATA / "fig1.vote"), "--seed", "3",
        )
        report = run_json(capsys, *args)
        lottery = report["payload"]["lottery"]
        assert lottery["A"] == pytest.approx(8 / 23, abs=1e-8)
        assert lottery["B"] == pytest.approx(9 / 23, abs=1e-8)
        assert lottery["C"] == pytest.approx(6 / 23, abs=1e-8)

    def test_alias_and_canonical_name_agree(self, capsys):
        by_alias = run_json(
            capsys, "aggregate", "--rule", "irv", "--profile", str(DATA / "fig1.vote")
        )
        by_name = run_json(
            capsys,
            "aggregate", "--rule", "instant_runoff", "--profile", str(DATA / "fig1.vote"),
        )
        assert by_alias == by_name

    def test_repeated_runs_byte_identical(self, capsys):
        args = ("aggregate", "--rule", "borda", "--profile", str(DATA / "fig1.vote"))
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestCountsBeyondFloatPrecision:
    # Both counts round to the float 1e20, but B has one more first place and
    # one more Borda point: the ranking must read the exact tallies.
    @pytest.mark.parametrize("argv", [
        ["aggregate", "--rule", "plurality"],
        ["aggregate", "--rule", "borda"],
        ["committee", "--rule", "k-borda", "--k", "1"],
    ])
    def test_one_more_voter_above_2_to_the_53_wins(self, capsys, tmp_path, argv):
        vote = tmp_path / "big.vote"
        vote.write_text(
            "alternatives: A, B\n"
            "100000000000000000000: A > B\n"
            "100000000000000000001: B > A\n"
        )
        payload = run_json(capsys, *argv, "--profile", str(vote))["payload"]
        if argv[0] == "aggregate":
            assert payload["winner"] == "B"
            assert payload["ranking"] == ["B", "A"]
            assert payload["tie_groups"] == [["B"], ["A"]]
        else:
            assert payload["winners"] == ["B"]

    # A 401-digit count, beyond the largest float: every tally stays exact,
    # and a score is reported as the exact int once it passes 2**53.
    BIG = 10**400

    @pytest.mark.parametrize("argv, expected", [
        (["aggregate", "--rule", "plurality"],
         {"winner": "A", "scores": {"A": BIG, "B": 1.0, "C": 0.0}}),
        (["aggregate", "--rule", "borda"],
         {"winner": "A", "scores": {"A": 2 * BIG, "B": BIG + 2, "C": 1.0}}),
        (["aggregate", "--rule", "irv"],
         {"winner": "A", "scores": {"A": BIG + 1, "B": 1.0, "C": 0.0},
          "elimination_order": ["C", "B", "A"]}),
        (["aggregate", "--rule", "random-dictator"],
         {"winner": "A", "lottery": {"A": 1.0, "B": 0.0, "C": 0.0}}),
        (["aggregate", "--rule", "ranked-pairs"],
         {"winner": "A",
          "locked_pairs": [["B", "C", BIG + 1], ["A", "B", BIG - 1], ["A", "C", BIG - 1]]}),
        (["committee", "--rule", "k-borda", "--k", "1"],
         {"winners": ["A"], "cc_score": 2 * BIG}),
        (["committee", "--rule", "greedy-cc", "--k", "2"],
         {"winners": ["A", "B"], "cc_score": 2 * BIG + 2}),
    ])
    def test_counts_beyond_the_largest_float_stay_exact(self, capsys, tmp_path, argv, expected):
        vote = tmp_path / "huge.vote"
        vote.write_text(f"alternatives: A, B, C\n{self.BIG}: A > B > C\n1: B > C > A\n")
        payload = run_json(capsys, *argv, "--profile", str(vote))["payload"]
        assert {key: payload[key] for key in expected} == expected

    # Three counts at the 4300-digit integer-to-text limit: the tallies print
    # with more digits, so the report cannot be written.
    NINES = "alternatives: A, B\n" + ("9" * 4300 + ": A > B\n") * 3 + "1: B > A\n"

    @pytest.mark.parametrize("argv", [
        ["aggregate", "--rule", "borda"],
        ["audit", "cycle", "--format", "csv"],
        ["committee", "--rule", "greedy-cc", "--k", "1"],
    ])
    def test_number_past_the_digit_limit_names_the_variable(self, capsys, tmp_path, argv):
        vote = tmp_path / "nines.vote"
        vote.write_text(self.NINES)
        code, out, err = run_cli(capsys, *argv, "--profile", str(vote))
        assert (code, out) == (1, "")
        assert err == (
            "error: a number in the report has more than 4300 digits, Python's limit for "
            "integer-to-text conversion; rerun with the environment variable "
            "PYTHONINTMAXSTRDIGITS set higher, or to 0 for no limit\n"
        )


class TestRateAndCommittee:
    def test_rate_median(self, capsys):
        report = run_json(
            capsys, "rate", "--rule", "median", "--ratings", str(DATA / "ratings.json")
        )
        assert report["payload"]["aggregates"] == {"x": 6.0}

    def test_rate_mean(self, capsys):
        report = run_json(
            capsys, "rate", "--rule", "mean", "--ratings", str(DATA / "ratings.json")
        )
        assert report["payload"]["aggregates"] == {"x": 5.0}

    def test_committee_k_borda(self, capsys):
        report = run_json(
            capsys,
            "committee", "--rule", "k-borda",
            "--profile", str(DATA / "fig1.vote"), "--k", "2",
        )
        assert report["payload"]["winners"] == ["C", "B"]
        assert report["payload"]["cc_score"] > 0


class TestJudge:
    def test_paradox_profile(self, capsys):
        report = run_json(capsys, "judge", "--profile", str(DATA / "judgments.json"))
        payload = report["payload"]
        assert payload["majority"] == {"safe": True, "helpful": True, "give": False}
        assert payload["consistent"] is False
        assert payload["repair"] == {"safe": True, "helpful": True, "give": True}
        assert payload["distance"] == 1

    # 20 atoms have 2**20 assignments.  Deciding them one at a time took
    # 4-8 s for each of these; the agenda's truth table takes 0.1 s.
    ATOMS = [f"x{i}" for i in range(20)]

    def judge_timed(self, capsys, tmp_path, constraint, judgments):
        path = tmp_path / "judgments.json"
        agenda = {"atoms": self.ATOMS, "constraint": constraint}
        path.write_text(json.dumps({"agenda": agenda, "judgments": judgments}))
        start = time.perf_counter()
        result = run_cli(capsys, "judge", "--profile", str(path))
        return result, time.perf_counter() - start

    def test_unsatisfiable_20_atom_agenda_exits_1_quickly(self, capsys, tmp_path):
        some = " | ".join(self.ATOMS)
        none = {"E1": dict.fromkeys(self.ATOMS, False)}
        result, seconds = self.judge_timed(capsys, tmp_path, f"({some}) & !({some})", none)
        assert result == (1, "", "error: agenda.constraint: constraint is unsatisfiable\n")
        assert seconds < 2

    def test_20_atom_repair_runs_quickly(self, capsys, tmp_path):
        none = dict.fromkeys(self.ATOMS, False)
        judgments = {
            "E1": {**none, "x0": True},
            "E2": {**none, "x1": True},
            "E3": {**none, "x0": True, "x1": True, "x19": True},
        }
        (code, out, err), seconds = self.judge_timed(
            capsys, tmp_path, "x19 <-> (x0 & x1)", judgments
        )
        assert code == 0, err
        payload = json.loads(out)["payload"]
        majority = {**none, "x0": True, "x1": True}
        assert (payload["majority"], payload["consistent"]) == (majority, False)
        assert payload["repair"] == {**majority, "x19": True}
        assert payload["distance"] == 1
        assert seconds < 2


class TestParseFeedback:
    def test_compiles_to_ratings(self, capsys):
        report = run_json(
            capsys,
            "parse-feedback",
            "--statements", str(DATA / "feedback.txt"),
            "--context", "A,B,C",
        )
        payload = report["payload"]
        assert payload["ratings"] == {"A": 9.0, "B": 5.0, "C": 2.0}
        assert payload["order"] == [["A", "B"], ["A", "C"], ["B", "C"]]

    @pytest.mark.parametrize("n", [200, 400, 1000])
    def test_long_ranking_compiles_quickly(self, capsys, tmp_path, n):
        # Checking the closure pair against pair took over 25 s at 200 ids,
        # and scanning the whole closed order twice per id to rate it took
        # 9.6-12 s at 400.  At 1,000 ids canonicalising the report's 499,500
        # order pairs one string at a time took about 5 s.
        ids = [f"a{i}" for i in range(n)]
        path = tmp_path / "rank.txt"
        path.write_text("rank " + " > ".join(ids) + "\n")
        start = time.perf_counter()
        report = run_json(
            capsys, "parse-feedback", "--statements", str(path), "--context", ",".join(ids)
        )
        seconds = time.perf_counter() - start
        payload = report["payload"]
        assert len(payload["order"]) == n * (n - 1) // 2
        ratings = [payload["ratings"][a] for a in ids]
        assert ratings == sorted(ratings, reverse=True) and len(set(ratings)) == n
        assert seconds < 10

    @staticmethod
    def disjoint_pairs_argv(tmp_path, n):
        # Disjoint pairs keep the closure small, so the cap's edge is cheap to run.
        ids = [f"a{i}" for i in range(n)]
        lines = [f"{ids[i]} > {ids[i + 1]}" for i in range(0, n - 1, 2)]
        if n % 2:
            lines.append(f"{ids[-2]} > {ids[-1]}")
        path = tmp_path / "pairs.txt"
        path.write_text("\n".join(lines) + "\n")
        return ["parse-feedback", "--statements", str(path), "--context", ",".join(ids)]

    def test_order_ids_at_the_cap_compile(self, capsys, tmp_path):
        from socialchoice.feedback import MAX_ORDER_IDS

        payload = run_json(capsys, *self.disjoint_pairs_argv(tmp_path, MAX_ORDER_IDS))["payload"]
        assert len(payload["order"]) == MAX_ORDER_IDS // 2

    def test_order_ids_past_the_cap_exit_1_before_the_closure(self, capsys, tmp_path, monkeypatch):
        import socialchoice.feedback as feedback

        def refuse(*args):
            raise AssertionError("order closed past the cap")

        monkeypatch.setattr(feedback, "_transitive_closure", refuse)
        argv = self.disjoint_pairs_argv(tmp_path, feedback.MAX_ORDER_IDS + 1)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: order statements name 1,001 ids, over the cap of 1,000\n"

    @pytest.mark.parametrize(
        "statements, message",
        [
            ("A > B\nB > C\nC > D\nD > A\n",
             "order statements create a cycle involving 'A' and 'B'"),
            ("rank A > B > C > D\nrate A = 1\nrate B = 2\nrate C = 3\nrate D = 4\n",
             "bounds force 'A' <= 'B' but the order requires 'A' > 'B'"),
        ],
        ids=["cycle", "bounds"],
    )
    def test_inconsistency_message_does_not_follow_the_hash_seed(
        self, tmp_path, statements, message
    ):
        # Set iteration order changes with PYTHONHASHSEED; the message names
        # the smallest ids on the conflict under every seed.
        path = tmp_path / "feedback.txt"
        path.write_text(statements)
        argv = ["parse-feedback", "--statements", str(path), "--context", "A,B,C,D"]
        for seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
            proc = subprocess.run(
                [sys.executable, "-m", "socialchoice.cli", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")

    def test_unknown_id_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "parse-feedback",
            "--statements", str(DATA / "feedback.txt"),
            "--context", "A,B",
        )
        assert code == 1
        assert "C" in err


class TestSimulate:
    def test_rankings_variant_targets(self, capsys):
        report = run_json(
            capsys, "simulate", "--config", str(DATA / "pipeline_rankings.json")
        )
        case = report["payload"]["cases"][0]
        assert case["targets"] == {"A": 0.0, "B": 5.0, "C": 10.0}
        assert case["chosen"] == "C"

    def test_collective_variant_writes_dataset(self, capsys, tmp_path):
        out = tmp_path / "sft.jsonl"
        args = (
            "simulate", "--config", str(DATA / "pipeline_collective.json"),
            "--out", str(out),
        )
        code, first, err = run_cli(capsys, *args)
        assert code == 0, err
        record = json.loads(out.read_text().strip())
        assert record == {
            "prompt": "What should the three of us cook tonight?",
            "chosen": "B",
        }
        first_bytes = out.read_bytes()
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert out.read_bytes() == first_bytes

    def test_inference_variant(self, capsys):
        report = run_json(
            capsys, "simulate", "--config", str(DATA / "pipeline_inference.json")
        )
        assert report["payload"]["cases"][0]["chosen"] == "A"

    def test_features_variant(self, capsys):
        report = run_json(
            capsys, "simulate", "--config", str(DATA / "pipeline_features.json")
        )
        case = report["payload"]["cases"][0]
        assert case["chosen"] == "C"
        assert case["rewards"]["C"] == pytest.approx(144 / 23, abs=1e-4)


class TestSimulateConfigErrors:
    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"C": "ranked_pairs", "N": "23"}, '"N"'),
            ({"C": "ranked_pairs", "N": 1e9}, '"N"'),
            ({"C": "ranked_pairs", "N": True}, '"N"'),
            ({"C": "ranked_pairs", "N": 23, "k": 2}, '"k"'),
            ({"C": "greedy_cc", "N": 23, "k": "2"}, '"k"'),
            ({"C": "ranked_pairs", "N": 23, "ridge_lambda": None}, '"ridge_lambda"'),
            ({"C": "ranked_pairs", "N": 23, "seed": "x"}, '"seed"'),
            ({"C": "ranked_pairs", "N": 23, "seed": 1.5}, '"seed"'),
            ({"C": "ranked_pairs", "N": 23, "dataset": 5}, '"dataset"'),
        ],
    )
    def test_bad_field_exits_1_naming_it(self, capsys, tmp_path, fields, named):
        config = {"variant": "collective", "dataset": str(DATA / "cases.json"), **fields}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and named in err

    # Every config fault, one at a time, and its whole message.  The dataset
    # is missing, so a check made only after reading it would show here.
    KNOWN = "('rankings', 'features', 'collective', 'inference')"
    ORDINAL = "borda, instant_runoff, plurality, ranked_pairs"
    ORDINAL_OR_COMMITTEE = "borda, greedy_cc, instant_runoff, k_borda, plurality, ranked_pairs"
    K_TAIL = '"k" applies only to the committee rules k_borda, greedy_cc; '

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"variant": "offline"}, f"unknown variant 'offline'; expected one of {KNOWN}"),
            ({"variant": []}, f"unknown variant []; expected one of {KNOWN}"),
            ({"variant": {}}, f"unknown variant {{}}; expected one of {KNOWN}"),
            ({"variant": 7}, f"unknown variant 7; expected one of {KNOWN}"),
            ({"variant": "rankings"}, "variant 'rankings' needs rule F"),
            ({"variant": "features", "N": 9}, "variant 'features' needs rule W"),
            ({"variant": "collective", "N": 9}, "variant 'collective' needs rule C"),
            ({"variant": "inference", "N": 9}, "variant 'inference' needs rule C"),
            ({"variant": "rankings", "F": "k_borda"},
             f"\"F\": unknown ordinal rule 'k_borda' (kind: committee); known rules: {ORDINAL}"),
            ({"variant": "features", "W": "borda", "N": 9},
             "\"W\": unknown cardinal rule 'borda' (kind: ordinal); known rules: mean, median"),
            ({"variant": "collective", "C": "mean", "N": 9},
             "\"C\": unknown ordinal rule or committee rule 'mean' (kind: cardinal); "
             f"known rules: {ORDINAL_OR_COMMITTEE}"),
            ({"variant": "inference", "C": "random_dictator", "N": 9},
             "\"C\": unknown ordinal rule or committee rule 'random_dictator' (kind: lottery); "
             f"known rules: {ORDINAL_OR_COMMITTEE}"),
            ({"variant": "features", "W": "mean"}, "variant 'features' needs a population size N"),
            ({"variant": "collective", "C": "borda", "N": "23"},
             "\"N\" must be a positive integer, got '23'"),
            ({"variant": "collective", "C": "borda", "N": 1e9},
             '"N" must be a positive integer, got 1000000000.0'),
            ({"variant": "collective", "C": "borda", "N": True},
             '"N" must be a positive integer, got True'),
            ({"variant": "collective", "C": "borda", "N": 0},
             "variant 'collective' needs a population size N"),
            ({"variant": "collective", "C": "greedy_cc", "N": 9},
             "committee rule C 'greedy_cc' needs a committee size \"k\""),
            ({"variant": "inference", "C": "k_borda", "N": 9},
             "committee rule C 'k_borda' needs a committee size \"k\""),
            ({"variant": "rankings", "F": "borda", "k": 2}, K_TAIL + "rule F is 'borda'"),
            ({"variant": "features", "W": "mean", "N": 9, "k": 2}, K_TAIL + "rule W is 'mean'"),
            ({"variant": "collective", "C": "ranked_pairs", "N": 9, "k": 2},
             K_TAIL + "rule C is 'ranked_pairs'"),
            ({"variant": "inference", "C": "instant_runoff", "N": 9, "k": 2},
             K_TAIL + "rule C is 'instant_runoff'"),
            ({"variant": "collective", "C": "greedy_cc", "N": 9, "k": "2"},
             "\"k\" must be a positive integer, got '2'"),
            ({"variant": "collective", "C": "greedy_cc", "N": 9, "k": 0},
             '"k" must be a positive integer, got 0'),
            ({"variant": "collective", "C": "borda", "N": 9, "seed": "x"},
             "\"seed\" must be an integer, got 'x'"),
            ({"variant": "collective", "C": "borda", "N": 9, "seed": 1.5},
             '"seed" must be an integer, got 1.5'),
            ({"variant": "collective", "C": "borda", "N": 9, "dataset": 5},
             '"dataset" must be a file name, got 5'),
            ({"variant": "collective", "C": "borda", "N": 9, "ridge_lambda": None},
             '"ridge_lambda": expected a finite number, got null'),
            ({"variant": "collective", "C": "borda", "N": 9, "ridge_lambda": -1},
             "ridge_lambda must be non-negative"),
            ([], 'pipeline config must be an object with a "variant"'),
            ("collective", 'pipeline config must be an object with a "variant"'),
            ({}, 'pipeline config must be an object with a "variant"'),
            # Another variant's rule key, valid or not.
            ({"variant": "rankings", "F": "borda", "W": "borda"},
             '"W": variant \'rankings\' reads its rule from "F"'),
            ({"variant": "features", "W": "mean", "N": 9, "C": "mean"},
             '"C": variant \'features\' reads its rule from "W"'),
            ({"variant": "collective", "C": "borda", "N": 9, "F": "mean"},
             '"F": variant \'collective\' reads its rule from "C"'),
            ({"variant": "inference", "C": "borda", "N": 9, "W": "borda"},
             '"W": variant \'inference\' reads its rule from "C"'),
            ({"variant": "rankings", "F": "borda", "W": "mean"},
             '"W": variant \'rankings\' reads its rule from "F"'),
            ({"variant": "rankings", "F": "borda", "C": "greedy_cc", "k": 2},
             '"C": variant \'rankings\' reads its rule from "F"'),
            ({"variant": "rankings", "F": "borda", "W": "mean", "C": "borda"},
             '"C": variant \'rankings\' reads its rule from "F"'),
        ],
    )
    def test_each_fault_exits_1_with_its_exact_message(self, capsys, tmp_path, config, message):
        if isinstance(config, dict):
            config = {"dataset": "no-such-file.json", **config}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_k_with_a_committee_rule_is_accepted(self, capsys, tmp_path):
        config = {
            "variant": "collective", "C": "greedy_cc", "N": 23, "k": 2,
            "dataset": str(DATA / "cases.json"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        report = run_json(capsys, "simulate", "--config", str(path))
        assert len(report["payload"]["cases"][0]["committee"]) == 2


class TestAudit:
    def test_clone_flip_on_restaurant_profile(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit", "clones", "--rule", "plurality",
            "--profile", str(DATA / "restaurant.vote"),
            "--target", "C", "--copies", "2",
        )
        assert code == 0  # a violation is a finding, not a failure
        payload = json.loads(out)["payload"]
        assert payload["verdict"] == "violated"
        assert payload["base_winner"] == "C"
        assert payload["cloned_winner"] == "I"

    def test_ranked_pairs_clone_independent(self, capsys):
        report = run_json(
            capsys,
            "audit", "clones", "--rule", "ranked-pairs",
            "--profile", str(DATA / "restaurant.vote"),
            "--target", "C", "--copies", "2",
        )
        assert report["payload"]["verdict"] == "independent"
        assert report["payload"]["cloned_winner"] in ["C1", "C2"]

    def test_clone_copies_above_the_cap_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys,
            "audit", "clones", "--rule", "plurality",
            "--profile", str(DATA / "fig1.vote"),
            "--target", "C", "--copies", "101",
        )
        assert code == 1
        assert out == ""
        assert err == "error: copies must be at most 100\n"

    def test_cardinal_manipulation_median_robust(self, capsys):
        report = run_json(
            capsys,
            "audit", "manipulation", "--w", "median", "--ratings", "3,6,6", "--voter", "0",
        )
        assert report["payload"]["witness"] is None

    def test_cardinal_manipulation_mean_witness(self, capsys):
        report = run_json(
            capsys,
            "audit", "manipulation", "--w", "mean", "--ratings", "3,6,6", "--voter", "0",
        )
        witness = report["payload"]["witness"]
        assert witness["misreport"] == 0.0
        assert witness["honest_outcome"] == 5.0
        assert witness["manipulated_outcome"] == 4.0
        assert report["payload"]["reverified"] is True

    def test_ordinal_manipulation_via_profile(self, capsys, tmp_path):
        vote = tmp_path / "m.vote"
        vote.write_text("alternatives: A, B, C\n1: A > B > C\n2: B > A > C\n")
        report = run_json(
            capsys,
            "audit", "manipulation", "--rule", "borda",
            "--profile", str(vote), "--voter", "0",
        )
        witness = report["payload"]["witness"]
        assert witness["misreport"] == ["A", "C", "B"]
        assert report["payload"]["reverified"] is True

    def test_manipulation_requires_exactly_one_mode(self, capsys):
        code, _, err = run_cli(capsys, "audit", "manipulation", "--voter", "0")
        assert code == 1
        assert "exactly one" in err

    def test_anonymity_ordinal_and_cardinal(self, capsys):
        ordinal = run_json(
            capsys,
            "audit", "anonymity", "--rule", "ranked-pairs",
            "--profile", str(DATA / "fig1.vote"),
        )
        assert ordinal["payload"]["anonymous"] is True
        cardinal = run_json(
            capsys,
            "audit", "anonymity", "--rule", "mean",
            "--ratings", str(DATA / "ratings.json"),
        )
        assert cardinal["payload"]["anonymous"] is True

    # k interchangeable entries give k! - 1 shuffled orders when that is
    # under 20: 3 evaluators, and 2 distinct rankings.  The orders are drawn
    # once, by the check, and the report counts them without drawing again.
    @pytest.mark.parametrize("argv, tried", [
        (["--rule", "median", "--ratings", str(DATA / "ratings.json")], 5),
        (["--rule", "borda", "--profile", str(DATA / "restaurant.vote")], 1),
        (["--rule", "borda", "--profile", str(DATA / "fig1.vote")], 20),
        (["--rule", "median", "--ratings", str(GOLDEN / "ratings_rich.json")], 20),
    ])
    def test_anonymity_reports_the_orders_it_tried(self, capsys, monkeypatch, argv, tried):
        draw_orders, drawn = audits.anonymity_orders, []

        def spy(profile, seed):
            drawn.append(draw_orders(profile, seed))
            return drawn[-1]

        monkeypatch.setattr(audits, "anonymity_orders", spy)
        report = run_json(capsys, "audit", "anonymity", *argv)
        assert report["payload"]["permutations"] == tried
        assert [len(orders) for orders in drawn] == [tried]

    def test_seed_after_the_kind_is_reported(self, capsys):
        report = run_json(
            capsys,
            "audit", "anonymity", "--seed", "7", "--rule", "borda",
            "--profile", str(DATA / "fig1.vote"),
        )
        assert report["seed"] == 7

    # Before the kind these flags were read and then overwritten by the
    # kind's defaults: the report said seed 0, or came out as JSON.
    @pytest.mark.parametrize(
        "flags, kind",
        [
            (["--seed", "7"], ["anonymity", "--rule", "borda"]),
            (["--format", "csv"], ["cycle"]),
        ],
    )
    def test_common_flags_before_the_kind_are_usage_errors(self, capsys, flags, kind):
        argv = ["audit", *flags, *kind, "--profile", str(DATA / "fig1.vote")]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {flags[0]} goes after the audit kind: audit <kind> {flags[0]} …\n"

    def test_cycle_report(self, capsys):
        report = run_json(
            capsys, "audit", "cycle", "--profile", str(DATA / "condorcet.vote")
        )
        payload = report["payload"]
        assert payload["has_condorcet_winner"] is False
        assert payload["condorcet_winner"] is None
        assert payload["cycles"] == [["A", "B", "C"]]

    def test_condorcet_winner_reported_when_present(self, capsys, tmp_path):
        vote = tmp_path / "c.vote"
        vote.write_text("alternatives: A, B\n2: A > B\n1: B > A\n")
        report = run_json(capsys, "audit", "cycle", "--profile", str(vote))
        assert report["payload"]["has_condorcet_winner"] is True
        assert report["payload"]["condorcet_winner"] == "A"


CAP_MESSAGE = (
    "error: the profile has more than 100,000 voters, the cap for auditors that "
    "read each voter\n"
)


class TestAuditVoterCap:
    # Only cloning reads each voter, so only it is capped.
    @pytest.mark.parametrize("argv", [
        ["clones", "--rule", "borda", "--target", "A"],
        ["clones", "--rule", "borda", "--target", "A", "--split", "lexicographic"],
    ], ids=["clones", "clones_lexicographic"])
    def test_cap_passes_and_one_voter_more_exits_1(self, capsys, tmp_path, argv):
        for extra, code in ((0, 0), (1, 1)):
            vote = tmp_path / "cap.vote"
            vote.write_text(f"alternatives: A, B, C\n{MAX_AUDIT_VOTERS - 1 + extra}: A > B > C\n"
                            "1: B > C > A\n")
            got, out, err = run_cli(capsys, "audit", *argv, "--profile", str(vote))
            assert got == code, err
        assert (out, err) == ("", CAP_MESSAGE)

    # The last voter ranks B > C > A, so the manipulation search tries every
    # misreport, and none beats A.
    @pytest.mark.parametrize("argv, field, expected", [
        (["anonymity", "--rule", "borda"], "anonymous", True),
        (["manipulation", "--rule", "borda", "--voter", str(MAX_AUDIT_VOTERS)], "witness", None),
    ], ids=["anonymity", "manipulation"])
    def test_past_the_cap_the_merge_readers_answer(self, capsys, tmp_path, argv, field, expected):
        vote = tmp_path / "cap.vote"
        vote.write_text(f"alternatives: A, B, C\n{MAX_AUDIT_VOTERS}: A > B > C\n1: B > C > A\n")
        report = run_json(capsys, "audit", *argv, "--profile", str(vote))
        assert report["payload"][field] == expected

    # A and B tie at 3N + 1 Borda points and the tie goes to A; the last
    # voter, C > B > A, makes B win by ranking it first.
    @pytest.mark.parametrize("n", [10**20, 10**400], ids=["1e20", "1e400"])
    def test_witness_in_a_huge_profile(self, capsys, tmp_path, n):
        vote = tmp_path / "huge.vote"
        vote.write_text(f"alternatives: A, B, C\n{n}: A > B > C\n{n}: B > A > C\n"
                        "1: C > A > B\n1: C > B > A\n")
        report = run_json(capsys, "audit", "manipulation", "--rule", "borda",
                          "--profile", str(vote), "--voter", str(2 * n + 1))
        assert report["payload"]["witness"] == {
            "voter": 2 * n + 1,
            "truthful": ["C", "B", "A"],
            "misreport": ["B", "C", "A"],
            "honest_outcome": "A",
            "manipulated_outcome": "B",
        }
        assert report["payload"]["reverified"] is True


class TestAuditsOnACountTooLargeForAFloat:
    # Every rule tallies a 401-digit count exactly; cloning refuses it at the
    # cap, and the auditors that read the merge answer.
    HUGE = f"alternatives: A, B, C\n1{'0' * 400}: A > B > C\n1: B > C > A\n"

    @pytest.mark.parametrize("argv", [
        ["clones", "--rule", "plurality", "--target", "A"],
        ["clones", "--rule", "plurality", "--target", "A", "--split", "lexicographic"],
    ], ids=["clones", "clones_lexicographic"])
    def test_cloning_exits_1_at_the_cap(self, capsys, tmp_path, argv):
        vote = tmp_path / "huge.vote"
        vote.write_text(self.HUGE)
        assert run_cli(capsys, "audit", *argv, "--profile", str(vote)) == (1, "", CAP_MESSAGE)

    @pytest.mark.parametrize("argv, field, expected", [
        (["anonymity", "--rule", "plurality"], "anonymous", True),
        (["manipulation", "--rule", "plurality", "--voter", "0"], "witness", None),
    ], ids=["anonymity", "manipulation"])
    def test_the_merge_readers_answer(self, capsys, tmp_path, argv, field, expected):
        vote = tmp_path / "huge.vote"
        vote.write_text(self.HUGE)
        report = run_json(capsys, "audit", *argv, "--profile", str(vote))
        assert report["payload"][field] == expected


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "aggregate", "--rule", "borda", "--profile", "/does/not/exist.vote"
        )
        assert code == 1
        assert "error" in err

    def test_unknown_rule_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "aggregate", "--rule", "schulze", "--profile", str(DATA / "fig1.vote")
        )
        assert code == 1
        assert "schulze" in err

    def test_missing_required_flag_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "aggregate", "--rule", "borda")
        assert code == 1
        assert "--profile" in err

    def test_non_finite_payload_keeps_its_own_message(self, capsys, monkeypatch):
        # main makes the report outside the digit-limit handler, so this
        # fault is not reported as a number past the digit limit.
        monkeypatch.setattr(cli, "cmd_rate", lambda args: ({}, {"value": float("nan")}))
        code, out, err = run_cli(capsys, "rate", "--rule", "mean", "--ratings", "unread.json")
        assert (code, out, err) == (1, "", "error: report payloads must be finite\n")

    def test_ballot_syntax_error_names_the_line(self, capsys, tmp_path):
        vote = tmp_path / "bad.vote"
        vote.write_text("alternatives: A, B\n2: A > Z\n")
        code, _, err = run_cli(
            capsys, "aggregate", "--rule", "borda", "--profile", str(vote)
        )
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize(
        "ballot, message",
        [
            ("\u00b2: A > B", "line 2: ballot count must be a positive integer, got '\u00b2'"),
            ("9" * 5000 + ": A > B", "line 2: ballot count has more than 4300 digits"),
            ("9" * 5000 + ":A>B", "line 2: ballot count has more than 4300 digits"),
        ],
        ids=["superscript", "5000-digits", "5000-digits-unspaced"],
    )
    def test_bad_ballot_count_names_the_line(self, capsys, tmp_path, ballot, message):
        vote = tmp_path / "bad.vote"
        vote.write_text(f"alternatives: A, B\n{ballot}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "aggregate", "--rule", "borda", "--profile", str(vote))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command, flag, text, where", [
        (["aggregate", "--rule", "borda"], "--profile",
         b"alternatives: A, B\n1: A > B\n1: B \xff A\n", "line 3: invalid UTF-8 byte at offset 33"),
        (["rate", "--rule", "mean"], "--ratings",
         b'{"alternatives": ["x"],\n "ratings": {"\xc3": {"x": 1}}}',
         "line 2: invalid UTF-8 byte at offset 38"),
        # The dataset a simulate config names is read the same way.
        (["simulate"], "--config", b'{"cases": [], "note": "caf\xe9"}',
         "line 1: invalid UTF-8 byte at offset 26"),
    ], ids=["ballots", "ratings", "dataset"])
    def test_undecodable_input_names_the_file_and_line(
        self, capsys, tmp_path, command, flag, text, where
    ):
        path = tmp_path / "input"
        path.write_bytes(text)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"variant": "rankings", "F": "borda", "dataset": "input"}))
        read = config if command == ["simulate"] else path
        assert run_cli(capsys, *command, flag, str(read)) == (1, "", f"error: {path}: {where}\n")

    def test_stray_key_error_is_an_internal_error(self, capsys, monkeypatch):
        # No input fault raises KeyError, so one that escapes a command is a bug.
        def broken(args):
            raise KeyError("x")

        monkeypatch.setattr(cli, "cmd_aggregate", broken)
        code, out, err = run_cli(
            capsys, "aggregate", "--rule", "borda", "--profile", str(DATA / "fig1.vote")
        )
        assert code == 2
        assert out == ""
        assert err == "internal error: KeyError: 'x'\n"

    @pytest.mark.parametrize("document", ["config", "dataset", "ratings", "judgments"])
    def test_over_deep_json_is_input_error(self, capsys, tmp_path, document):
        # Nesting past the JSON parser's recursion limit, fed to each loader.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"variant": "rankings", "F": "borda", "dataset": str(deep)}))
        argv = {
            "config": ["simulate", "--config", str(deep)],
            "dataset": ["simulate", "--config", str(config)],
            "ratings": ["rate", "--rule", "mean", "--ratings", str(deep)],
            "judgments": ["judge", "--profile", str(deep)],
        }[document]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: JSON input nests too deeply\n"

    @pytest.mark.parametrize("argv, message", [
        (["parse-feedback", "--statements", str(DATA / "feedback.txt"), "--context", " , "],
         "--context needs at least one response id"),
        (["audit", "manipulation", "--w", "mean", "--voter", "0"],
         "--w needs --ratings, e.g. --ratings 3,6,6"),
        (["audit", "anonymity", "--rule", "mean", "--profile", str(DATA / "fig1.vote")],
         "rule 'mean' needs --ratings"),
        (["audit", "manipulation", "--rule", "borda", "--voter", "0"],
         "rule 'borda' needs --profile"),
        # The input a rule does not read is refused, even one naming no file.
        (["audit", "manipulation", "--w", "mean", "--ratings", "3,6,6",
          "--profile", "/nonexistent", "--voter", "0"],
         "argument --profile: not allowed with argument --ratings"),
        (["audit", "manipulation", "--rule", "borda", "--profile", str(DATA / "fig1.vote"),
          "--ratings", "3,6,6", "--voter", "0"],
         "argument --ratings: not allowed with argument --profile"),
        (["audit", "anonymity", "--rule", "borda", "--profile", str(DATA / "fig1.vote"),
          "--ratings", "/nonexistent"],
         "argument --ratings: not allowed with argument --profile"),
        # A first word that names no command gets the parser of every command.
        (["bogus"],
         "argument command: invalid choice: 'bogus' (choose from 'aggregate', 'rate', "
         "'committee', 'judge', 'parse-feedback', 'simulate', 'audit')"),
        ([], "the following arguments are required: command"),
        (["audit"], "the following arguments are required: kind"),
        (["aggregate", "--rule", "borda"], "the following arguments are required: --profile"),
    ], ids=[
        "empty_context", "w_without_ratings", "cardinal_anonymity_without_ratings",
        "ordinal_manipulation_without_profile", "cardinal_manipulation_with_profile",
        "ordinal_manipulation_with_ratings", "ordinal_anonymity_with_ratings",
        "unknown_command", "no_command", "audit_without_kind", "missing_required_flag",
    ])
    def test_cli_refusal_exits_1_with_its_message(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def cli_small_ops():
    # The bench's cli_small command lines, which run every command and every
    # audit kind; the output path they name is only parsed here.
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.CliSmall(1, Path("workdir")).cycle()


class TestNamedParser:
    # main builds only the subparser its first word names.
    @pytest.mark.parametrize("key, argv", cli_small_ops())
    def test_named_build_parses_as_the_whole_parser(self, key, argv):
        named = cli.build_parser(argv[0]).parse_args(argv)
        assert vars(named) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["--help"], *([name, "--help"] for name in COMMANDS), ["audit", "cycle", "--help"],
    ])
    def test_help_is_the_whole_parsers(self, capsys, argv):
        with pytest.raises(SystemExit) as whole:
            cli.build_parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as named:
            main(argv)
        assert (named.value.code, capsys.readouterr()) == (whole.value.code, expected)
        assert whole.value.code == 0 and expected.out.startswith("usage: socialchoice")

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().out

    def test_rule_help_names_every_spelling(self, capsys, monkeypatch):
        # Wide enough that argparse wraps no help line.
        monkeypatch.setenv("COLUMNS", "200")
        commands = {"aggregate": ("ordinal", "lottery"), "rate": ("cardinal",),
                    "committee": ("committee",)}
        for command, kinds in commands.items():
            with pytest.raises(SystemExit):
                main([command, "--help"])
            out = capsys.readouterr().out
            spellings = [
                name.replace("_", "-")
                for rid, (kind, aliases) in RULES.items() if kind in kinds
                for name in (rid, *aliases)
            ]
            lines = [line.split() for line in out.splitlines()]
            assert ["--rule", "RULE", "|".join(spellings)] in lines


class TestDuplicateKeys:
    # A repeated key would otherwise let its last value win and drop a voter.
    def test_repeated_judge_exits_1_naming_it(self, capsys, tmp_path):
        text = (DATA / "judgments.json").read_text().replace(
            '"E3": {"safe": true, "helpful": true, "give": true}',
            '"E3": {"safe": true, "helpful": true, "give": true},\n'
            '    "E1": {"safe": true, "helpful": true, "give": true}',
        )
        path = tmp_path / "judgments.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "judge", "--profile", str(path))
        assert (code, out, err) == (1, "", 'error: judgments: duplicate key "E1"\n')

    def test_repeated_rater_exits_1_naming_it(self, capsys, tmp_path):
        path = tmp_path / "ratings.json"
        path.write_text('{"alternatives": ["x"], "ratings": {"e1": {"x": 3}, "e1": {"x": 9}}}')
        code, out, err = run_cli(capsys, "rate", "--rule", "mean", "--ratings", str(path))
        assert (code, out, err) == (1, "", 'error: ratings: duplicate key "e1"\n')


class TestFormats:
    def test_csv_and_json_numbers_agree(self, capsys):
        args = ("rate", "--rule", "mean", "--ratings", str(DATA / "ratings.json"))
        as_json = run_json(capsys, *args)
        code, out, _ = run_cli(capsys, *args, "--format", "csv")
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert json.loads(rows["payload.aggregates.x"]) == as_json["payload"]["aggregates"]["x"]

    def test_csv_has_key_value_header(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "rate", "--rule", "mean", "--ratings", str(DATA / "ratings.json"),
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "key,value"


class TestRuleRegistry:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["aggregate", "--rule", "mean", "--profile", "fig1.vote"], "'mean'"),
            (["aggregate", "--rule", "k-borda", "--profile", "fig1.vote"], "'k-borda'"),
            (["rate", "--rule", "borda", "--ratings", "ratings.json"], "'borda'"),
            (["rate", "--rule", "random-dictator", "--ratings", "ratings.json"], "'random-dictator'"),
            (["committee", "--rule", "borda", "--profile", "fig1.vote", "--k", "2"], "'borda'"),
            (["audit", "clones", "--rule", "median", "--profile", "fig1.vote", "--target", "A"],
             "'median'"),
            (["audit", "manipulation", "--rule", "greedy-cc", "--profile", "fig1.vote",
              "--voter", "0"], "'greedy-cc'"),
            (["audit", "manipulation", "--w", "borda", "--ratings", "3,6,6", "--voter", "0"],
             "'borda'"),
            (["audit", "anonymity", "--rule", "k_borda", "--profile", "fig1.vote"], "'k_borda'"),
        ],
    )
    def test_wrong_kind_rule_exits_1_naming_it(self, capsys, argv, name):
        argv = [str(DATA / a) if a.endswith((".vote", ".json")) else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: unknown ") and name in err and "(kind: " in err

    def test_ranked_pairs_locks_match_the_library(self, capsys):
        from socialchoice.ordinal import ranked_pairs_locks

        path = DATA / "fig1.vote"
        report = run_json(capsys, "aggregate", "--rule", "ranked-pairs", "--profile", str(path))
        locks = ranked_pairs_locks(parse_profile(path.read_text()))
        assert report["payload"]["locked_pairs"] == [list(lock) for lock in locks]


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dataset": str(DATA / "cases.json"), "N": 9, **fields}))
    return str(path)


class TestSimulateConfigRules:
    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"variant": "collective", "C": "mean"}, '"C"'),
            ({"variant": "collective", "C": "random_dictator"}, '"C"'),
            ({"variant": "collective", "C": 5}, '"C"'),
            ({"variant": "features", "W": "borda"}, '"W"'),
            ({"variant": "rankings", "F": "k_borda"}, '"F"'),
            ({"variant": "rankings", "F": "schulze"}, '"F"'),
            ({"variant": "collective", "C": "greedy-cc"}, '"k"'),
            ({"variant": "inference", "C": "k_borda"}, '"k"'),
        ],
    )
    def test_bad_rule_exits_1_before_the_dataset_is_read(self, capsys, tmp_path, fields, named):
        # A missing dataset would be the first error if the rule were checked late.
        config = write_config(tmp_path, **fields, dataset="no-such-file.json")
        code, out, err = run_cli(capsys, "simulate", "--config", config)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and named in err and "no-such-file" not in err

    def test_unknown_key_exits_1(self, capsys, tmp_path):
        # A misspelled "seed" used to run with seed 0.
        config = write_config(tmp_path, variant="collective", C="borda", Seed=5)
        code, out, err = run_cli(capsys, "simulate", "--config", config)
        assert (code, out) == (1, "")
        assert err == (
            'error: unknown key "Seed"; expected one of '
            '"variant", "C", "k", "N", "ridge_lambda", "seed", "dataset"\n'
        )

    @pytest.mark.parametrize(
        "fields, canonical",
        [
            ({"variant": "collective", "C": "ranked-pairs"}, {"C": "ranked_pairs"}),
            ({"variant": "inference", "C": "irv"}, {"C": "instant_runoff"}),
            ({"variant": "collective", "C": "Greedy-CC", "k": 2}, {"C": "greedy_cc", "k": 2}),
            ({"variant": "features", "W": " Median "}, {"W": "median"}),
            ({"variant": "rankings", "F": "Ranked-Pairs"}, {"F": "ranked_pairs"}),
        ],
    )
    def test_config_spellings_match_the_canonical_id(self, capsys, tmp_path, fields, canonical):
        spelled = run_json(capsys, "simulate", "--config", write_config(tmp_path, **fields))
        plain = run_json(
            capsys, "simulate", "--config", write_config(tmp_path, **{**fields, **canonical})
        )
        assert spelled["payload"] == plain["payload"]
        flag = next(iter(canonical))
        assert spelled["payload"][f"rule_{flag}"] == canonical[flag]


def mutated_dataset(tmp_path, mutate, variant="rankings"):
    data = json.loads((DATA / "cases.json").read_text())
    mutate(data)
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(data))
    config = json.loads((DATA / f"pipeline_{variant}.json").read_text())
    (tmp_path / "config.json").write_text(json.dumps({**config, "dataset": "cases.json"}))
    return str(tmp_path / "config.json")


def second_case(breaks):
    # A copy of cases[0] as cases[1], broken by `breaks`: the records of a
    # good case are read before the broken one's.
    def mutate(data):
        data["cases"].append(copy.deepcopy(data["cases"][0]))
        breaks(data["cases"][1])
    return mutate


class TestDatasetErrors:
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (second_case(lambda c: c["jury"][2].update(weight=True)),
             "cases[1].jury[2].weight: expected an integer, got true"),
            (second_case(lambda c: c["responses"][2]["features"].__setitem__(1, float("inf"))),
             "cases[1].responses[2].features[1]: expected a finite number, got Infinity"),
            (second_case(lambda c: c["responses"][1].update(text=None)),
             "cases[1].responses[1].text: expected a string, got null"),
            (second_case(lambda c: c["responses"][2].update(id="A")),
             "cases[1]: duplicate response ids in case 'What should the three of us cook tonight?'"),
            (second_case(lambda c: c["jury"][1].update(weight=0)),
             "cases[1]: ballot weight must be a positive integer, got 0"),
            (second_case(lambda c: c["jury"][3]["ranking"].pop()),
             "cases[1]: ballot ('C', 'A') omits alternative(s) ['B']; rankings must be complete"),
            (lambda d: d["population"]["groups"][1]["components"][2].update(kind="beta", a=0.0),
             "population.groups[1].components[2]: beta shape parameters must be positive"),
            (lambda d: d["cases"][0]["responses"][1].pop("features"),
             'cases[0].responses[1]: missing "features"'),
            (lambda d: d["cases"][0]["responses"][0].pop("id"),
             'cases[0].responses[0]: missing "id"'),
            (lambda d: d["cases"][0].pop("prompt"), 'cases[0]: missing "prompt"'),
            (lambda d: d["cases"][0]["jury"][2].pop("ranking"),
             'cases[0].jury[2]: missing "ranking"'),
            (lambda d: d["population"]["groups"][0]["components"][3].pop("kind"),
             'population.groups[0].components[3]: missing "kind"'),
            (lambda d: d["population"].pop("d"), 'population: missing "d"'),
            (lambda d: d["world"].pop("M_star"), 'world: missing "M_star"'),
            (lambda d: d.update(cases=[5]), "cases[0]: expected an object, got int"),
            (lambda d: d["cases"][0].update(responses="x"),
             "cases[0].responses: expected a list, got str"),
            (lambda d: d["cases"][0]["responses"][2].update(features=5),
             "cases[0].responses[2].features: expected a list, got int"),
            (lambda d: d["cases"][0].update(jury=5), "cases[0].jury: expected a list, got int"),
            (lambda d: d["population"].update(groups=5),
             "population.groups: expected a list, got int"),
            (lambda d: d.update(world=[]), "world: expected an object, got list"),
            (lambda d: d["cases"][0]["jury"][0].update(ranking=[["A"], "B", "C"]),
             "cases[0].jury[0].ranking[0]: expected a string, got list"),
            (lambda d: d["cases"][0]["jury"][0].update(ranking=[1, "X", "C"]),
             "cases[0].jury[0].ranking[0]: expected a string, got 1"),
            (lambda d: d["cases"][0]["responses"][0].update(id=["A"]),
             "cases[0].responses[0].id: expected a string, got list"),
            (lambda d: d["cases"][0].update(prompt=7), "cases[0].prompt: expected a string, got 7"),
            (lambda d: d["cases"][0]["responses"][0].update(text=["A"]),
             "cases[0].responses[0].text: expected a string, got list"),
            (lambda d: d.update(Cases=[]),
             'unknown key "Cases"; expected one of "cases", "population", "world"'),
            (lambda d: d["cases"][0].update(jurry=d["cases"][0].pop("jury")),
             'cases[0]: unknown key "jurry"; expected one of "prompt", "responses", "jury"'),
            (lambda d: d["cases"][0]["responses"][1].update(feature=[]),
             'cases[0].responses[1]: unknown key "feature"; '
             'expected one of "id", "text", "features"'),
            (lambda d: d["cases"][0]["jury"][2].update(weigth=2),
             'cases[0].jury[2]: unknown key "weigth"; expected one of "ranking", "weight"'),
            (lambda d: d["population"].update(N=5),
             'population: unknown key "N"; expected one of "d", "noise_sigma", "groups"'),
            (lambda d: d["population"]["groups"][0].update(name="g"),
             'population.groups[0]: unknown key "name"; expected one of "weight", "components"'),
            (lambda d: d["population"]["groups"][0]["components"][1].update(c=1),
             'population.groups[0].components[1]: unknown key "c"; '
             'expected one of "kind", "a", "b"'),
            (lambda d: d["world"].update(noise_sigm=3.0),
             'world: unknown key "noise_sigm"; expected one of "M_star", "noise_sigma"'),
            (lambda d: d["cases"].append({
                **d["cases"][0],
                "responses": [{**r, "features": r["features"][:2]}
                              for r in d["cases"][0]["responses"]],
            }), "cases[1]: responses have 2 features, cases[0] responses have 3"),
            (lambda d: d["world"].update(M_star=d["world"]["M_star"][:4]),
             "world.M_star: 4 rows, population.d is 5"),
            (lambda d: d["world"].update(M_star=[row[:2] for row in d["world"]["M_star"]]),
             "world.M_star[0]: 2 entries for 3 response features"),
            (lambda d: d["world"]["M_star"][1].pop(),
             "world.M_star[1]: 2 entries for 3 response features"),
            # With no case there is no feature count to check M_star's rows against.
            (lambda d: d.update(cases=[]) or d["world"]["M_star"][1].pop(),
             "cases: a dataset needs at least one case"),
            (lambda d: [r.update(features=[]) for r in d["cases"][0]["responses"]]
             + [row.clear() for row in d["world"]["M_star"]],
             "cases[0].responses[0].features: a response needs at least one feature"),
        ],
    )
    @pytest.mark.parametrize("variant", ["rankings", "features", "collective", "inference"])
    def test_malformed_dataset_exits_1_with_its_location(
        self, capsys, tmp_path, mutate, message, variant
    ):
        config = mutated_dataset(tmp_path, mutate, variant)
        code, out, err = run_cli(capsys, "simulate", "--config", config)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


class TestRatingsErrors:
    @pytest.mark.parametrize(
        "ratings, message",
        [
            ({"alternatives": ["A"], "ratings": 5}, "ratings: expected an object, got int"),
            ({"alternatives": ["A"], "ratings": {"e1": 5}},
             "ratings.e1: expected an object, got int"),
            ({"alternatives": 5, "ratings": {"e1": {"A": 1}}},
             "alternatives: expected a list, got int"),
            ({"alternatives": ["A"], "ratings": {"e1": {"A": None}}},
             "ratings.e1.A: expected a finite number, got null"),
            ({"alternatives": [["x"]], "ratings": {"e1": {"x": 1}}},
             "alternatives[0]: expected a string, got list"),
            ({"alternatives": ["A"], "ratings": {"e1": {"A": True}}},
             "ratings.e1.A: expected a finite number, got true"),
            ({"alternatives": ["A"], "ratings": {"e1": {"A": "6"}}},
             'ratings.e1.A: expected a finite number, got "6"'),
            ({"alternatives": ["x"], "ratings": {"e1": {"x": 3}, "e2": {"x": 11}}},
             "ratings.e2.x: rating 11.0 for ('e2', 'x') outside [0, 10]"),
            ({"alternatives": ["x", "y"], "ratings": {"e1": {"x": 3}}},
             "ratings.e1: evaluator 'e1' must rate exactly the declared alternatives"),
            ({"alternatives": ["x", "x"], "ratings": {"e1": {"x": 3}}},
             "alternatives: duplicate alternative ids"),
            ({"alternatives": [], "ratings": {"e1": {}}},
             "alternatives: a rating profile needs at least one alternative"),
            ({"alternatives": ["x y"], "ratings": {"e1": {"x y": 3}}},
             "alternatives: alternative id 'x y' contains whitespace"),
            ({"alternatives": ["x"], "ratings": {}},
             "ratings: a rating profile needs at least one evaluator"),
        ],
    )
    @pytest.mark.parametrize("command", [["rate"], ["audit", "anonymity"]])
    def test_malformed_ratings_exit_1_naming_the_field(
        self, capsys, tmp_path, command, ratings, message
    ):
        path = tmp_path / "ratings.json"
        path.write_text(json.dumps(ratings))
        code, out, err = run_cli(capsys, *command, "--rule", "mean", "--ratings", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


class TestDatasetIntegers:
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["cases"][0]["jury"][0].update(weight=1.5),
             "cases[0].jury[0].weight: expected an integer, got 1.5"),
            (lambda d: d["cases"][0]["jury"][1].update(weight=True),
             "cases[0].jury[1].weight: expected an integer, got true"),
            (lambda d: d["cases"][0]["jury"][2].update(weight="2"),
             'cases[0].jury[2].weight: expected an integer, got "2"'),
            (lambda d: d["population"].update(d=5.7), "population.d: expected an integer, got 5.7"),
            (lambda d: d["population"].update(d=5.0), "population.d: expected an integer, got 5.0"),
            (lambda d: d["population"].update(d=True), "population.d: expected an integer, got true"),
        ],
    )
    def test_non_integer_exits_1_with_its_location(self, capsys, tmp_path, mutate, message):
        code, out, err = run_cli(capsys, "simulate", "--config", mutated_dataset(tmp_path, mutate))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


class TestSimulationSizeCap:
    @pytest.mark.parametrize("variant, rule", [
        ("collective", {"C": "borda"}),
        ("features", {"W": "mean"}),
        ("inference", {"C": "borda"}),
    ])
    def test_huge_n_exits_1_before_sampling(self, capsys, tmp_path, monkeypatch, variant, rule):
        import socialchoice.pipeline as pipeline

        def refuse(*args):
            raise AssertionError("population sampled past the cap")

        monkeypatch.setattr(pipeline, "sample_population", refuse)
        config = write_config(tmp_path, variant=variant, N=10**15, **rule)
        code, out, err = run_cli(capsys, "simulate", "--config", config)
        assert code == 1
        assert out == ""
        assert err.startswith('error: "N": 1000000000000000 evaluators x 3 responses')
        assert f"over the cap of {pipeline.MAX_DESIGN_ENTRIES:,}" in err

    def test_cap_counts_every_response_of_every_case(self):
        from socialchoice.pipeline import MAX_DESIGN_ENTRIES, _check_design_size, dataset_from_json

        data = json.loads((DATA / "cases.json").read_text())
        data["cases"] = data["cases"] * 4
        dataset = dataset_from_json(json.dumps(data))
        # 12 responses, each design row kron(f, g(y)) of d * q = 5 * 3 entries.
        _check_design_size(MAX_DESIGN_ENTRIES // (12 * 15), dataset)
        with pytest.raises(ValueError, match='"N": .* x 12 responses x 15 entries per row'):
            _check_design_size(MAX_DESIGN_ENTRIES // (12 * 15) + 1, dataset)

    def test_cap_counts_the_row_width(self, capsys, tmp_path, monkeypatch):
        # d = q = 20 and 10 responses: at N = 1,000 the design holds the cap's
        # 4,000,000 entries, and one evaluator more is refused before sampling.
        import socialchoice.pipeline as pipeline

        data = json.loads((DATA / "cases.json").read_text())
        responses = [{"id": f"r{j}", "text": "t", "features": [0.5] * 20} for j in range(10)]
        data["cases"] = [{"prompt": "p", "responses": responses}]
        uniform = {"kind": "uniform", "a": 0.0, "b": 1.0}
        data["population"] = {"d": 20, "groups": [{"weight": 1.0, "components": [uniform] * 20}]}
        data["world"]["M_star"] = [[0.1] * 20] * 20
        dataset_path = tmp_path / "wide.json"
        dataset_path.write_text(json.dumps(data))
        n = pipeline.MAX_DESIGN_ENTRIES // (10 * 400)
        pipeline._check_design_size(n, pipeline.dataset_from_json(dataset_path.read_text()))

        def refuse(*args):
            raise AssertionError("population sampled past the cap")

        monkeypatch.setattr(pipeline, "sample_population", refuse)
        config = write_config(tmp_path, variant="features", W="mean", N=n + 1,
                              dataset=str(dataset_path))
        code, out, err = run_cli(capsys, "simulate", "--config", config)
        assert (code, out) == (1, "")
        assert err == (
            'error: "N": 1001 evaluators x 10 responses x 400 entries per row is 4,004,000 '
            "design entries, over the cap of 4,000,000; lower N or use fewer cases\n"
        )

    @pytest.mark.parametrize("variant", ["collective", "inference"])
    def test_committee_larger_than_a_case_exits_1_before_sampling(
        self, capsys, tmp_path, monkeypatch, variant
    ):
        import socialchoice.pipeline as pipeline

        def refuse(*args):
            raise AssertionError("population sampled for an impossible committee")

        monkeypatch.setattr(pipeline, "sample_population", refuse)
        config = write_config(tmp_path, variant=variant, C="k_borda", k=99)
        code, out, err = run_cli(capsys, "simulate", "--config", config)
        assert (code, out) == (1, "")
        assert err == 'error: "k": committee size 99 exceeds the 3 responses of cases[0]\n'

    def test_committee_of_every_response_runs(self, capsys, tmp_path):
        config = write_config(tmp_path, variant="collective", C="greedy_cc", k=3)
        report = run_json(capsys, "simulate", "--config", config)
        assert sorted(report["payload"]["cases"][0]["committee"]) == ["A", "B", "C"]


class TestSimulateOut:
    # Only collective choices by a single-winner rule are SFT lines.
    @pytest.mark.parametrize("fields", [
        {"variant": "rankings", "F": "borda"},
        {"variant": "features", "W": "mean"},
        {"variant": "inference", "C": "borda"},
        {"variant": "collective", "C": "greedy_cc", "k": 2},
    ])
    def test_out_without_sft_lines_exits_1_before_the_dataset_is_read(
        self, capsys, tmp_path, fields
    ):
        config = write_config(tmp_path, **fields, dataset="no-such-file.json")
        sft = tmp_path / "sft.jsonl"
        code, out, err = run_cli(capsys, "simulate", "--config", config, "--out", str(sft))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --out: variant {fields['variant']!r} with rule ")
        assert "emits no SFT lines" in err and "no-such-file" not in err
        assert not sft.exists()

    # An empty path is not the absence of --out.
    @pytest.mark.parametrize("config", ["pipeline_collective.json", "pipeline_features.json"])
    def test_empty_out_exits_1_and_writes_nothing(self, capsys, tmp_path, monkeypatch, config):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "simulate", "--config", str(DATA / config), "--out", "")
        assert (code, out, err) == (1, "", "error: --out needs a file path\n")
        assert list(tmp_path.iterdir()) == []


def mutated_judgments(tmp_path, mutate):
    data = json.loads((DATA / "judgments.json").read_text())
    mutate(data)
    path = tmp_path / "judgments.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestJudgmentErrors:
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(judgments=list(d["judgments"].values())),
             "judgments: expected an object, got list"),
            (lambda d: d["judgments"].update(E2=[False, True, False]),
             "judgments.E2: expected an object, got list"),
            (lambda d: d["agenda"].update(atoms=5), "agenda.atoms: expected a list, got int"),
            (lambda d: d["agenda"]["atoms"].__setitem__(1, 7),
             "agenda.atoms[1]: expected a string, got 7"),
            (lambda d: d["agenda"].update(constraint=5),
             "agenda.constraint: expected a string, got 5"),
            (lambda d: d["judgments"]["E1"].update(safe="false"),
             'judgments.E1.safe: expected true or false, got "false"'),
            (lambda d: d["judgments"]["E3"].update(give=1),
             "judgments.E3.give: expected true or false, got 1"),
            (lambda d: d["agenda"].update(constraint="give & !give"),
             "agenda.constraint: constraint is unsatisfiable"),
            (lambda d: d["agenda"].update(constraint="give <-> (safe & kind)"),
             "agenda.constraint: constraint mentions undeclared atom(s) ['kind']"),
            (lambda d: d["agenda"].update(atoms=["safe", "safe", "give"]),
             "agenda.atoms: duplicate agenda atoms"),
            (lambda d: d["agenda"].update(atoms=[]),
             "agenda.atoms: an agenda needs at least one atom"),
            (lambda d: d["agenda"].update(atoms=[f"p{i}" for i in range(21)]),
             "agenda.atoms: agenda exceeds 20 atoms"),
            (lambda d: d["agenda"]["atoms"].append("x y"),
             "agenda.atoms: agenda atom 'x y' is not a run of letters, digits and '_'"),
            (lambda d: d["agenda"]["atoms"].append(""),
             "agenda.atoms: agenda atom '' is not a run of letters, digits and '_'"),
            (lambda d: d["agenda"]["atoms"].__setitem__(0, "safe-ish"),
             "agenda.atoms: agenda atom 'safe-ish' is not a run of letters, digits and '_'"),
            (lambda d: d.update(judgments={}),
             "judgments: a judgment profile needs at least one evaluator"),
            (lambda d: d["judgments"]["E2"].pop("give"),
             "judgments.E2: judgment set over ['helpful', 'safe'] does not match agenda atoms "
             "['safe', 'helpful', 'give']"),
            (lambda d: d["judgments"]["E1"].update(give=True),
             "judgments.E1: evaluator 'E1' holds an inconsistent judgment set"),
        ],
    )
    def test_malformed_judgments_exit_1_with_their_location(
        self, capsys, tmp_path, mutate, message
    ):
        code, out, err = run_cli(capsys, "judge", "--profile", mutated_judgments(tmp_path, mutate))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


class TestConstraintDepth:
    # Each shape used to exhaust Python's recursion limit (exit 2).
    @pytest.mark.parametrize(
        "constraint",
        [
            "(" * 5000 + "give" + ")" * 5000,
            "!" * 5000 + "give",
            " & ".join(["give"] * 5000),
        ],
        ids=["parentheses", "negations", "and-chain"],
    )
    def test_deep_constraint_exits_1_located(self, capsys, tmp_path, constraint):
        path = mutated_judgments(tmp_path, lambda d: d["agenda"].update(constraint=constraint))
        code, out, err = run_cli(capsys, "judge", "--profile", path)
        assert code == 1
        assert out == ""
        assert err == (
            f"error: agenda.constraint: constraint nests deeper than {MAX_CONSTRAINT_DEPTH} levels\n"
        )


class TestCardinalManipulationRatings:
    @pytest.mark.parametrize(
        "ratings, message",
        [
            ("nan,1,2", "rater 0: expected a finite rating in [0, 10], got nan"),
            ("1,inf,2", "rater 1: expected a finite rating in [0, 10], got inf"),
            ("50,-3,2", "rater 0: expected a finite rating in [0, 10], got 50.0"),
            ("2,3,-3", "rater 2: expected a finite rating in [0, 10], got -3.0"),
            ("1,,2", "--ratings item 1 is empty: '1,,2'"),
            ("1,2, ", "--ratings item 2 is empty: '1,2, '"),
            ("3,abc,6", "--ratings item 1: expected a number, got 'abc'"),
            ("3,6,6x", "--ratings item 2: expected a number, got '6x'"),
        ],
    )
    def test_unsearchable_ratings_exit_1(self, capsys, ratings, message):
        code, out, err = run_cli(
            capsys, "audit", "manipulation", "--w", "mean", "--ratings", ratings, "--voter", "0"
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_eight_raters_are_searched(self, capsys):
        # The median of 1..8 is 4.5 under every report of voter 0.
        report = run_json(
            capsys, "audit", "manipulation", "--w", "median", "--ratings", "1,2,3,4,5,6,7,8",
            "--voter", "0",
        )
        assert report["payload"]["witness"] is None


class TestDatasetNumbers:
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["world"].update(noise_sigma="0.5"),
             'world.noise_sigma: expected a finite number, got "0.5"'),
            (lambda d: d["population"].update(noise_sigma="0.5"),
             'population.noise_sigma: expected a finite number, got "0.5"'),
            # Only world.noise_sigma adds rating noise.
            (lambda d: d["population"].update(noise_sigma=3.0),
             "population.noise_sigma: expected 0, got 3.0; "
             "set rating noise with world.noise_sigma"),
            (lambda d: d["population"]["groups"][1]["components"][0].update(a=True),
             "population.groups[1].components[0].a: expected a finite number, got true"),
            (lambda d: d["population"]["groups"][0].update(weight=None),
             "population.groups[0].weight: expected a finite number, got null"),
            (lambda d: d["world"].update(noise_sigma=float("nan")),
             "world.noise_sigma: expected a finite number, got NaN"),
            (lambda d: d["world"]["M_star"][0].__setitem__(0, float("inf")),
             "world.M_star[0][0]: expected a finite number, got Infinity"),
            (lambda d: d["cases"][0]["responses"][1]["features"].__setitem__(2, "1"),
             'cases[0].responses[1].features[2]: expected a finite number, got "1"'),
        ],
    )
    def test_non_number_exits_1_with_its_location(self, capsys, tmp_path, mutate, message):
        code, out, err = run_cli(capsys, "simulate", "--config", mutated_dataset(tmp_path, mutate))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "value, shown",
        [("0.5", '"0.5"'), (True, "true"), (float("nan"), "NaN"), (float("inf"), "Infinity")],
    )
    def test_ridge_lambda_must_be_a_finite_number(self, capsys, tmp_path, value, shown):
        config = write_config(tmp_path, variant="rankings", F="borda", ridge_lambda=value)
        code, out, err = run_cli(capsys, "simulate", "--config", config)
        assert code == 1
        assert out == ""
        assert err == f'error: "ridge_lambda": expected a finite number, got {shown}\n'


class TestJuryBallotFaults:
    # Jury weights that are not JSON integers stop in the loader
    # (TestDatasetIntegers); these pass it and stop at the profile check.
    @pytest.mark.parametrize(
        "ballot, message",
        [
            ({"ranking": ["A", "B", "C"], "weight": 0},
             "ballot weight must be a positive integer, got 0"),
            ({"ranking": ["A", "A", "C"]}, "duplicate alternative in ranking ('A', 'A', 'C')"),
            ({"ranking": ["A", "B", "Z"]},
             "ballot ('A', 'B', 'Z') ranks unknown alternative(s) ['Z']"),
            ({"ranking": ["A", "B"]},
             "ballot ('A', 'B') omits alternative(s) ['C']; rankings must be complete"),
        ],
    )
    def test_bad_ballot_exits_1_with_the_profile_message(self, capsys, tmp_path, ballot, message):
        config = mutated_dataset(tmp_path, lambda d: d["cases"][0]["jury"].insert(1, ballot))
        code, out, err = run_cli(capsys, "simulate", "--config", config)
        assert code == 1
        assert out == ""
        # The profile's own check, located at the case it was read from.
        assert err == f"error: cases[0]: {message}\n"


class TestBuiltObjectFaults:
    # Checks an object makes on itself, after the typed reads, are located at
    # the node it was read from.
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["cases"][0]["responses"][0].update(id=""),
             "cases[0].responses[0]: response id must be non-empty"),
            (lambda d: d["cases"][0].update(responses=d["cases"][0]["responses"][:1]),
             "cases[0]: a prompt case needs at least two responses"),
            (lambda d: d["population"]["groups"][1]["components"][2].update(kind="normal"),
             "population.groups[1].components[2]: unknown distribution kind 'normal'"),
            (lambda d: d["population"]["groups"][1].update(weight=-0.5),
             "population.groups[1]: group weight must be positive"),
            (lambda d: d["population"].update(d=4),
             "population: group has 5 component distributions, expected 4"),
            (lambda d: d["world"].update(noise_sigma=-1),
             "world: noise_sigma must be non-negative"),
            (lambda d: d.update(cases=[]), "cases: a dataset needs at least one case"),
        ],
    )
    def test_fault_exits_1_located_at_its_object(self, capsys, tmp_path, mutate, message):
        code, out, err = run_cli(capsys, "simulate", "--config", mutated_dataset(tmp_path, mutate))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_group_weights_that_do_not_sum_to_1(self, capsys, tmp_path):
        def mutate(d):
            d["population"]["groups"][0]["weight"] += 0.25

        config = mutated_dataset(tmp_path, mutate)
        groups = json.loads((tmp_path / "cases.json").read_text())["population"]["groups"]
        total = sum(group["weight"] for group in groups)
        code, out, err = run_cli(capsys, "simulate", "--config", config)
        assert code == 1
        assert out == ""
        assert err == f"error: population: group weights sum to {total}, expected 1\n"
