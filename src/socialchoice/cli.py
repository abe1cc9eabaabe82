"""Command-line surface: aggregate, rate, committee, judge, parse-feedback,
simulate, audit.

Every command prints one canonical report (JSON by default, CSV on request)
to stdout, so identical inputs and seeds give byte-identical output.  Exit
codes: 0 success (a "violated" audit verdict is still a success), 1 input
error, 2 internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .audits import (
    ANONYMITY_PERMUTATIONS,
    CloneSpec,
    anonymity_check,
    clone_test,
    manipulation_search_cardinal,
    manipulation_search_ordinal,
    reverify_cardinal_witness,
    reverify_ordinal_witness,
)
from .cardinal import (
    CARDINAL_RULES,
    aggregate_ratings,
    cc_score,
    greedy_cc,
    k_borda,
    rating_profile_from_json,
)
from .judgment import (
    check_consistency,
    closest_consistent,
    judgment_profile_from_json,
    majority_judgments,
)
from .feedback import compile_constraints, format_statement, interpret_rating, parse_feedback
from .ordinal import ORDINAL_RULES, _ranked_pairs, ordinal_rule, random_dictator
from .pipeline import config_from_json, dataset_from_json, run_pipeline
from .profiles import detect_cycles, margin_matrix, parse_profile
from .reports import RunReport, make_report, report_csv, report_json


class UsageError(Exception):
    """Bad command line or inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the report contract reserves 2
    # for internal errors, so route usage problems through UsageError instead.
    def error(self, message):
        raise UsageError(message)


_RULE_ALIASES = {"irv": "instant_runoff"}
MULTIWINNER_IDS = ("k_borda", "greedy_cc")


def normalize_rule(name: str) -> str:
    rule = name.strip().lower().replace("-", "_")
    return _RULE_ALIASES.get(rule, rule)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _ordinal_payload(rule: str, profile, seed: int) -> dict:
    if rule == "random_dictator":
        lottery, winner = random_dictator(profile, seed)
        probs = lottery.probabilities
        ranking = sorted(probs, key=lambda alt: (-probs[alt], alt))
        return {
            "rule": rule,
            "winner": winner,
            "ranking": ranking,
            "lottery": dict(probs),
        }
    if rule == "ranked_pairs":
        result, locked = _ranked_pairs(profile)
    else:
        result = ordinal_rule(rule)(profile)
    payload = {
        "rule": rule,
        "winner": result.winner,
        "ranking": list(result.ranking),
        "tie_groups": [list(g) for g in result.tie_groups],
    }
    if result.scores is not None:
        payload["scores"] = dict(result.scores)
    if rule == "instant_runoff":
        payload["elimination_order"] = list(reversed(result.ranking))
    if rule == "ranked_pairs":
        payload["locked_pairs"] = [list(lock) for lock in locked]
    return payload


def cmd_aggregate(args) -> RunReport:
    text = _read(args.profile)
    profile = parse_profile(text)
    rule = normalize_rule(args.rule)
    if rule not in ORDINAL_RULES and rule != "random_dictator":
        raise UsageError(f"unknown ordinal rule {args.rule!r}")
    payload = _ordinal_payload(rule, profile, args.seed)
    return make_report("aggregate", {"profile": text}, args.seed, payload)


def cmd_rate(args) -> RunReport:
    text = _read(args.ratings)
    rule = normalize_rule(args.rule)
    if rule not in CARDINAL_RULES:
        raise UsageError(f"unknown cardinal rule {args.rule!r}")
    profile = rating_profile_from_json(text)
    payload = {"rule": rule, "aggregates": aggregate_ratings(profile, rule)}
    return make_report("rate", {"ratings": text}, args.seed, payload)


def cmd_committee(args) -> RunReport:
    text = _read(args.profile)
    profile = parse_profile(text)
    rule = normalize_rule(args.rule)
    if rule not in MULTIWINNER_IDS:
        raise UsageError(f"unknown committee rule {args.rule!r}")
    chooser = k_borda if rule == "k_borda" else greedy_cc
    committee = chooser(profile, args.k)
    payload = {
        "rule": rule,
        "k": args.k,
        "winners": list(committee.winners),
        "cc_score": cc_score(profile, committee.winners),
    }
    return make_report("committee", {"profile": text}, args.seed, payload)


def cmd_judge(args) -> RunReport:
    text = _read(args.profile)
    jp = judgment_profile_from_json(text)
    majority = majority_judgments(jp)
    consistent = check_consistency(majority, jp.agenda)
    payload = {
        "atoms": list(jp.agenda.atoms),
        "constraint": jp.agenda.constraint,
        "majority": dict(majority),
        "consistent": consistent,
    }
    if not consistent:
        repair = closest_consistent(majority, jp.agenda)
        payload["repair"] = dict(repair)
        payload["distance"] = sum(
            1 for atom in jp.agenda.atoms if repair[atom] != majority[atom]
        )
    return make_report("judge", {"profile": text}, args.seed, payload)


def cmd_parse_feedback(args) -> RunReport:
    text = _read(args.statements)
    context = tuple(x.strip() for x in args.context.split(",") if x.strip())
    if not context:
        raise UsageError("--context needs at least one response id")
    statements = parse_feedback(text, context)
    pp = compile_constraints(statements)
    payload = {
        "statements": [format_statement(s) for s in statements],
        "order": sorted([list(pair) for pair in pp.strict_order]),
        "bounds": {alt: list(b) for alt, b in pp.bounds.items()},
        "ratings": {alt: interpret_rating(pp, alt, context) for alt in context},
    }
    return make_report("parse-feedback", {"statements": text}, args.seed, payload)


def cmd_simulate(args) -> RunReport:
    config_text = _read(args.config)
    config = config_from_json(config_text)
    if config.dataset is None:
        raise UsageError("pipeline config must name a dataset file")
    dataset_path = Path(config.dataset)
    if not dataset_path.is_absolute():
        dataset_path = Path(args.config).parent / dataset_path
    dataset_text = dataset_path.read_text(encoding="utf-8")
    dataset = dataset_from_json(dataset_text)
    payload, sft_lines = run_pipeline(config, dataset, args.seed)
    if sft_lines is not None:
        payload["sft"] = list(sft_lines)
        if args.out:
            Path(args.out).write_text("\n".join(sft_lines) + "\n", encoding="utf-8")
    inputs = {"config": config_text, "dataset": dataset_text}
    return make_report("simulate", inputs, args.seed, payload)


def _alternating_orders(spec: CloneSpec, n_voters: int) -> CloneSpec:
    # Rotate the lexicographic clone order one step per voter, so two copies
    # split a bloc's first-place votes evenly.
    clones = spec.clone_ids()
    orders = {
        i: tuple(clones[(i + j) % len(clones)] for j in range(len(clones)))
        for i in range(n_voters)
    }
    return CloneSpec(spec.target, spec.copies, orders)


def cmd_audit(args) -> RunReport:
    if args.kind == "clones":
        text = _read(args.profile)
        profile = parse_profile(text)
        rule = normalize_rule(args.rule)
        spec = CloneSpec(args.target, args.copies)
        if args.split == "alternating":
            spec = _alternating_orders(spec, profile.num_voters)
        result = clone_test(rule, profile, spec)
        payload = {
            "audit": "clones",
            "rule": rule,
            "target": args.target,
            "copies": args.copies,
            "split": args.split,
            "verdict": result.verdict,
            "base_winner": result.base_winner,
            "cloned_winner": result.cloned_winner,
            "clones": list(result.clones),
        }
        return make_report("audit", {"profile": text}, args.seed, payload)

    if args.kind == "manipulation":
        if (args.rule is None) == (args.w is None):
            raise UsageError("pick exactly one of --rule (ordinal) or --w (cardinal)")
        if args.rule is not None:
            text = _read(args.profile)
            profile = parse_profile(text)
            rule = normalize_rule(args.rule)
            witness = manipulation_search_ordinal(rule, profile, args.voter)
            payload = {"audit": "manipulation", "kind": "ordinal", "rule": rule}
            if witness is None:
                payload["witness"] = None
            else:
                payload["witness"] = {
                    "voter": witness.voter,
                    "truthful": list(witness.truthful),
                    "misreport": list(witness.misreport),
                    "honest_outcome": witness.honest_outcome,
                    "manipulated_outcome": witness.manipulated_outcome,
                }
                payload["reverified"] = reverify_ordinal_witness(rule, profile, witness)
            return make_report("audit", {"profile": text}, args.seed, payload)
        if args.ratings is None:
            raise UsageError("--w needs --ratings, e.g. --ratings 3,6,6")
        rule = normalize_rule(args.w)
        ratings = [float(v) for v in args.ratings.split(",") if v.strip()]
        witness = manipulation_search_cardinal(rule, ratings, args.voter)
        payload = {"audit": "manipulation", "kind": "cardinal", "rule": rule}
        if witness is None:
            payload["witness"] = None
        else:
            payload["witness"] = {
                "voter": witness.voter,
                "truthful": witness.truthful,
                "misreport": witness.misreport,
                "honest_outcome": witness.honest_outcome,
                "manipulated_outcome": witness.manipulated_outcome,
            }
            payload["reverified"] = reverify_cardinal_witness(rule, ratings, witness)
        return make_report("audit", {"ratings": args.ratings}, args.seed, payload)

    if args.kind == "anonymity":
        rule = normalize_rule(args.rule)
        if rule in CARDINAL_RULES:
            if args.ratings is None:
                raise UsageError(f"rule {rule!r} needs --ratings (a ratings JSON file)")
            text = _read(args.ratings)
            profile = rating_profile_from_json(text)
            inputs = {"ratings": text}
        else:
            if args.profile is None:
                raise UsageError(f"rule {rule!r} needs --profile (a ballot file)")
            text = _read(args.profile)
            profile = parse_profile(text)
            inputs = {"profile": text}
        anonymous = anonymity_check(rule, profile, args.seed)
        payload = {
            "audit": "anonymity",
            "rule": rule,
            "anonymous": anonymous,
            "permutations": ANONYMITY_PERMUTATIONS,
        }
        return make_report("audit", inputs, args.seed, payload)

    # cycle
    text = _read(args.profile)
    profile = parse_profile(text)
    matrix = margin_matrix(profile)
    report = detect_cycles(matrix)
    margins = {
        a: {b: matrix.margin(a, b) for b in profile.alternatives if b != a}
        for a in profile.alternatives
    }
    payload = {
        "audit": "cycle",
        "has_condorcet_winner": report.has_condorcet_winner,
        "condorcet_winner": report.condorcet_winner,
        "cycles": [list(c) for c in report.cycles],
        "margins": margins,
    }
    return make_report("audit", {"profile": text}, args.seed, payload)


def build_parser() -> _Parser:
    parser = _Parser(prog="socialchoice", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master random seed (default 0)")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aggregate", parents=[common], help="run an ordinal voting rule")
    p.add_argument("--rule", required=True, help="plurality|borda|irv|ranked-pairs|random-dictator")
    p.add_argument("--profile", required=True, help="ballot file")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("rate", parents=[common], help="aggregate cardinal ratings")
    p.add_argument("--rule", required=True, help="mean|median")
    p.add_argument("--ratings", required=True, help="rating profile JSON file")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("committee", parents=[common], help="select a committee")
    p.add_argument("--rule", required=True, help="k-borda|greedy-cc")
    p.add_argument("--profile", required=True, help="ballot file")
    p.add_argument("--k", required=True, type=int, help="committee size")
    p.set_defaults(func=cmd_committee)

    p = sub.add_parser("judge", parents=[common], help="aggregate yes/no judgments")
    p.add_argument("--profile", required=True, help="judgment profile JSON file")
    p.set_defaults(func=cmd_judge)

    p = sub.add_parser(
        "parse-feedback", parents=[common], help="compile feedback statements to ratings"
    )
    p.add_argument("--statements", required=True, help="feedback statement file")
    p.add_argument("--context", required=True, help="comma-separated response ids")
    p.set_defaults(func=cmd_parse_feedback)

    p = sub.add_parser("simulate", parents=[common], help="run a reward-model pipeline")
    p.add_argument("--config", required=True, help="pipeline config JSON file")
    p.add_argument("--out", help="write the supervised dataset (JSONL) here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", parents=[common], help="check social-choice properties")
    audit_sub = p.add_subparsers(dest="kind", required=True)

    clones = audit_sub.add_parser("clones", parents=[common])
    clones.add_argument("--rule", required=True)
    clones.add_argument("--profile", required=True)
    clones.add_argument("--target", required=True)
    clones.add_argument("--copies", type=int, default=2)
    clones.add_argument(
        "--split",
        choices=("alternating", "lexicographic"),
        default="alternating",
        help="per-voter clone orders: rotate per voter, or the same order for all",
    )
    clones.set_defaults(func=cmd_audit, kind="clones")

    manip = audit_sub.add_parser("manipulation", parents=[common])
    manip.add_argument("--rule", help="ordinal rule id (with --profile)")
    manip.add_argument("--profile", help="ballot file (ordinal search)")
    manip.add_argument("--w", help="cardinal rule id (with --ratings)")
    manip.add_argument("--ratings", help="comma-separated ratings (cardinal search)")
    manip.add_argument("--voter", required=True, type=int)
    manip.set_defaults(func=cmd_audit, kind="manipulation")

    anon = audit_sub.add_parser("anonymity", parents=[common])
    anon.add_argument("--rule", required=True, help="any ordinal or cardinal rule id")
    anon.add_argument("--profile", help="ballot file (ordinal rules)")
    anon.add_argument("--ratings", help="rating profile JSON file (cardinal rules)")
    anon.set_defaults(func=cmd_audit, kind="anonymity")

    cycle = audit_sub.add_parser("cycle", parents=[common])
    cycle.add_argument("--profile", required=True)
    cycle.set_defaults(func=cmd_audit, kind="cycle")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    text = report_json(report) if args.format == "json" else report_csv(report)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
