"""Command-line surface: aggregate, rate, committee, judge, parse-feedback,
simulate, audit.

Every command prints one canonical report (JSON by default, CSV on request)
to stdout, so identical inputs and seeds give byte-identical output.  Exit
codes: 0 success (a "violated" audit verdict is still a success), 1 input
error, 2 internal error.

Each command, and each audit kind, imports the modules it runs when it runs.
numpy loads only for `simulate` and for a margin or greedy CC tally past
`profiles.SMALL_TALLY_STEPS`; a smaller one runs in pure Python.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .reports import make_report, report_csv, report_json
from .rules import RULES, resolve_rule


class _Parser(argparse.ArgumentParser):
    # argparse would exit 2, which the report contract keeps for internal errors.
    def error(self, message):
        raise ValueError(message)


class _AfterKind(argparse.Action):
    def __call__(self, parser, namespace, values, flag=None):
        raise ValueError(f"{flag} goes after the audit kind: audit <kind> {flag} …")


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # a whole-file read: `start` is the file offset
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: invalid UTF-8 byte at offset {exc.start}") from None


def cmd_aggregate(args) -> tuple[dict, dict]:
    from .profiles import parse_profile

    text = _read(args.profile)
    profile = parse_profile(text)
    rule = resolve_rule(args.rule, "ordinal", "lottery")
    if rule.kind == "lottery":
        lottery, winner = rule.fn(profile, args.seed)
        probs = lottery.probabilities
        ranking = sorted(probs, key=lambda alt: (-probs[alt], alt))
        payload = {
            "rule": rule.id,
            "winner": winner,
            "ranking": ranking,
            "lottery": probs,
        }
    else:
        # Every field the rule filled in (scores, elimination order, lock
        # order) goes into the report.
        result = rule.fn(profile)
        fields = {name: value for name, value in vars(result).items() if value is not None}
        payload = {"rule": rule.id, "winner": result.winner, **fields}
    return {"profile": text}, payload


def cmd_rate(args) -> tuple[dict, dict]:
    from .cardinal import aggregate_ratings, rating_profile_from_json

    text = _read(args.ratings)
    rule = resolve_rule(args.rule, "cardinal").id
    profile = rating_profile_from_json(text)
    payload = {"rule": rule, "aggregates": aggregate_ratings(profile, rule)}
    return {"ratings": text}, payload


def cmd_committee(args) -> tuple[dict, dict]:
    from .cardinal import cc_score
    from .profiles import parse_profile

    text = _read(args.profile)
    profile = parse_profile(text)
    rule = resolve_rule(args.rule, "committee")
    committee = rule.fn(profile, args.k)
    payload = {
        "rule": rule.id,
        "k": args.k,
        "winners": list(committee.winners),
        "cc_score": cc_score(profile, committee.winners),
    }
    return {"profile": text}, payload


def cmd_judge(args) -> tuple[dict, dict]:
    from .judgment import (
        check_consistency,
        closest_consistent,
        judgment_profile_from_json,
        majority_judgments,
    )

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
    return {"profile": text}, payload


def cmd_parse_feedback(args) -> tuple[dict, dict]:
    from .feedback import compile_constraints, format_statement, interpret_rating, parse_feedback

    text = _read(args.statements)
    context = tuple(x.strip() for x in args.context.split(",") if x.strip())
    if not context:
        raise ValueError("--context needs at least one response id")
    statements = parse_feedback(text, context)
    pp = compile_constraints(statements)
    payload = {
        "statements": [format_statement(s) for s in statements],
        "order": pp.order,
        "bounds": {alt: list(b) for alt, b in pp.bounds.items()},
        "ratings": {alt: interpret_rating(pp, alt, context) for alt in context},
    }
    return {"statements": text}, payload


def cmd_simulate(args) -> tuple[dict, dict]:
    from .pipeline import config_from_json, dataset_from_json, run_pipeline

    if args.out == "":
        raise ValueError("--out needs a file path")
    config_text = _read(args.config)
    config = config_from_json(config_text)
    if args.out and not config.emits_sft:
        raise ValueError(
            f"--out: variant {config.variant!r} with rule {config.rule!r} emits no SFT lines; "
            "only variant 'collective' with a single-winner rule C does"
        )
    if config.dataset is None:
        raise ValueError("pipeline config must name a dataset file")
    dataset_path = Path(config.dataset)
    if not dataset_path.is_absolute():
        dataset_path = Path(args.config).parent / dataset_path
    dataset_text = _read(dataset_path)
    dataset = dataset_from_json(dataset_text)
    payload, sft_lines = run_pipeline(config, dataset, args.seed)
    if sft_lines is not None:
        payload["sft"] = list(sft_lines)
        if args.out:
            Path(args.out).write_text("\n".join(sft_lines) + "\n", encoding="utf-8")
    return {"config": config_text, "dataset": dataset_text}, payload


def cmd_audit_clones(args) -> tuple[dict, dict]:
    from .audits import CloneSpec, alternating_clone_spec, clone_test
    from .profiles import parse_profile

    text = _read(args.profile)
    profile = parse_profile(text)
    rule = resolve_rule(args.rule, "ordinal").id
    spec = CloneSpec(args.target, args.copies)
    if args.split == "alternating":
        spec = alternating_clone_spec(profile, spec)
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
    return {"profile": text}, payload


def cmd_audit_manipulation(args) -> tuple[dict, dict]:
    if (args.rule is None) == (args.w is None):
        raise ValueError("pick exactly one of --rule (ordinal) or --w (cardinal)")
    if args.rule is not None:
        from .audits import manipulation_search_ordinal as search
        from .audits import reverify_ordinal_witness as reverify
        from .profiles import parse_profile

        rule = resolve_rule(args.rule, "ordinal")
        if args.profile is None:
            raise ValueError(f"rule {rule.id!r} needs --profile")
        text = _read(args.profile)
        subject, inputs = parse_profile(text), {"profile": text}
    else:
        from .audits import manipulation_search_cardinal as search
        from .audits import reverify_cardinal_witness as reverify

        if args.ratings is None:
            raise ValueError("--w needs --ratings, e.g. --ratings 3,6,6")
        items = [v.strip() for v in args.ratings.split(",")]
        if "" in items:
            raise ValueError(f"--ratings item {items.index('')} is empty: {args.ratings!r}")
        subject = []
        for i, item in enumerate(items):
            try:
                subject.append(float(item))
            except ValueError:
                raise ValueError(f"--ratings item {i}: expected a number, got {item!r}") from None
        inputs = {"ratings": args.ratings}
        rule = resolve_rule(args.w, "cardinal")
    witness = search(rule.id, subject, args.voter)
    payload = {"audit": "manipulation", "kind": rule.kind, "rule": rule.id, "witness": None}
    if witness is not None:
        payload["witness"] = vars(witness)
        payload["reverified"] = reverify(rule.id, subject, witness)
    return inputs, payload


def cmd_audit_anonymity(args) -> tuple[dict, dict]:
    from .audits import anonymity_check, anonymity_order_count

    rule = resolve_rule(args.rule, "ordinal", "cardinal")
    if rule.kind == "cardinal":
        from .cardinal import rating_profile_from_json as load

        flag = "ratings"
    else:
        from .profiles import parse_profile as load

        flag = "profile"
    if getattr(args, flag) is None:
        raise ValueError(f"rule {rule.id!r} needs --{flag}")
    text = _read(getattr(args, flag))
    profile = load(text)
    payload = {
        "audit": "anonymity",
        "rule": rule.id,
        "anonymous": anonymity_check(rule.id, profile, args.seed),
        "permutations": anonymity_order_count(profile),
    }
    return {flag: text}, payload


def cmd_audit_cycle(args) -> tuple[dict, dict]:
    from .profiles import detect_cycles, margin_matrix, parse_profile

    text = _read(args.profile)
    profile = parse_profile(text)
    matrix = margin_matrix(profile)
    report = detect_cycles(matrix)
    margins = {
        a: {b: margin for b, margin in zip(matrix.alternatives, row) if b != a}
        for a, row in zip(matrix.alternatives, matrix.entries)
    }
    payload = {
        "audit": "cycle",
        "has_condorcet_winner": report.has_condorcet_winner,
        "condorcet_winner": report.condorcet_winner,
        "cycles": [list(c) for c in report.cycles],
        "margins": margins,
    }
    return {"profile": text}, payload


def _rule_help(*kinds: str) -> str:
    names = (n for rid, (kind, aliases) in RULES.items() if kind in kinds for n in (rid, *aliases))
    return "|".join(names).replace("_", "-")


def _add_aggregate(sub, common) -> None:
    p = sub.add_parser("aggregate", parents=[common], help="run an ordinal voting rule")
    p.add_argument("--rule", required=True, help=_rule_help("ordinal", "lottery"))
    p.add_argument("--profile", required=True, help="ballot file")
    p.set_defaults(func=cmd_aggregate)


def _add_rate(sub, common) -> None:
    p = sub.add_parser("rate", parents=[common], help="aggregate cardinal ratings")
    p.add_argument("--rule", required=True, help=_rule_help("cardinal"))
    p.add_argument("--ratings", required=True, help="rating profile JSON file")
    p.set_defaults(func=cmd_rate)


def _add_committee(sub, common) -> None:
    p = sub.add_parser("committee", parents=[common], help="select a committee")
    p.add_argument("--rule", required=True, help=_rule_help("committee"))
    p.add_argument("--profile", required=True, help="ballot file")
    p.add_argument("--k", required=True, type=int, help="committee size")
    p.set_defaults(func=cmd_committee)


def _add_judge(sub, common) -> None:
    p = sub.add_parser("judge", parents=[common], help="aggregate yes/no judgments")
    p.add_argument("--profile", required=True, help="judgment profile JSON file")
    p.set_defaults(func=cmd_judge)


def _add_parse_feedback(sub, common) -> None:
    p = sub.add_parser(
        "parse-feedback", parents=[common], help="compile feedback statements to ratings"
    )
    p.add_argument("--statements", required=True, help="feedback statement file")
    p.add_argument("--context", required=True, help="comma-separated response ids")
    p.set_defaults(func=cmd_parse_feedback)


def _add_simulate(sub, common) -> None:
    p = sub.add_parser("simulate", parents=[common], help="run a reward-model pipeline")
    p.add_argument("--config", required=True, help="pipeline config JSON file")
    p.add_argument("--out", help="write the supervised dataset (JSONL) here")
    p.set_defaults(func=cmd_simulate)


def _add_audit(sub, common) -> None:
    p = sub.add_parser("audit", help="check social-choice properties")
    # The kind's parser reads --seed and --format; given before the kind they
    # are refused here, not left for argparse to take as the kind.
    for flag in ("--seed", "--format"):
        p.add_argument(flag, action=_AfterKind, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
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
    clones.set_defaults(func=cmd_audit_clones)

    manip = audit_sub.add_parser("manipulation", parents=[common])
    manip.add_argument("--rule", help="ordinal rule id (with --profile)")
    manip.add_argument("--w", help="cardinal rule id (with --ratings)")
    # A rule reads one of the two inputs; the other is refused, not ignored.
    inputs = manip.add_mutually_exclusive_group()
    inputs.add_argument("--profile", help="ballot file (ordinal search)")
    inputs.add_argument("--ratings", help="comma-separated ratings (cardinal search)")
    manip.add_argument("--voter", required=True, type=int)
    manip.set_defaults(func=cmd_audit_manipulation)

    anon = audit_sub.add_parser("anonymity", parents=[common])
    anon.add_argument("--rule", required=True, help="any ordinal or cardinal rule id")
    inputs = anon.add_mutually_exclusive_group()
    inputs.add_argument("--profile", help="ballot file (ordinal rules)")
    inputs.add_argument("--ratings", help="rating profile JSON file (cardinal rules)")
    anon.set_defaults(func=cmd_audit_anonymity)

    cycle = audit_sub.add_parser("cycle", parents=[common])
    cycle.add_argument("--profile", required=True)
    cycle.set_defaults(func=cmd_audit_cycle)


# Each command's name and the function that adds its subparser, in the order
# `--help` and the invalid-choice message list them.
_SUBPARSERS = {
    "aggregate": _add_aggregate,
    "rate": _add_rate,
    "committee": _add_committee,
    "judge": _add_judge,
    "parse-feedback": _add_parse_feedback,
    "simulate": _add_simulate,
    "audit": _add_audit,
}


def build_parser(command: str | None = None) -> _Parser:
    """The command-line parser, with only `command`'s subparser, or with all when None."""
    parser = _Parser(prog="socialchoice", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master random seed (default 0)")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBPARSERS if command is None else (command,):
        _SUBPARSERS[name](sub, common)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A command's parse reads only its own subparser.  Any other first word
    # (none, a flag, a typo) needs them all: for --help and for the
    # invalid-choice message, which lists every command.
    parser = build_parser(argv[0] if argv and argv[0] in _SUBPARSERS else None)
    try:
        args = parser.parse_args(argv)
        inputs, payload = args.func(args)
        report = make_report(args.command, inputs, args.seed, payload)
        del payload  # the report is a canonical copy: free the original before the text
        try:
            text = report_json(report) if args.format == "json" else report_csv(report)
        except ValueError:
            # The payload is canonical by now (finite floats, string keys), so
            # the one fault left is an exact number past the digit limit.
            raise ValueError(
                f"a number in the report has more than {sys.get_int_max_str_digits()} digits, "
                "Python's limit for integer-to-text conversion; rerun with the environment "
                "variable PYTHONINTMAXSTRDIGITS set higher, or to 0 for no limit"
            ) from None
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
