"""Span tracing of the socialchoice package, installed from outside it.

`Tracer.install()` replaces each traced public function with a wrapper in
every `socialchoice` namespace that bound it (the `from .x import y` copies
in `cli`, `pipeline`, `audits` and the package `__init__` are separate
bindings) and in the `ORDINAL_RULES` / `CARDINAL_RULES` registries, through
which rule dispatch goes.  The package itself is not modified on disk.

Each call becomes a span: name, start, end, parent span and op id.  Spans are
kept in memory (up to `max_spans`; later ones are counted, not stored) and
written out by `dump()` at the end.  Self time is a span's duration minus the
part its child spans cover; it is accumulated as spans close, so it stays
exact when storage is capped.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array

# module -> public functions whose calls become spans, named "module.function".
TRACED = {
    "cli": ("main",),
    "reports": ("make_report", "report_json", "report_csv"),
    "profiles": ("parse_profile", "margin_matrix", "detect_cycles", "profile_from_rankings"),
    "ordinal": ("plurality", "borda", "instant_runoff", "ranked_pairs", "ranked_pairs_locks"),
    "cardinal": ("k_borda", "greedy_cc", "cc_score"),
    "audits": (
        "anonymity_check",
        "clone_test",
        "cloned_profile",
        "manipulation_search_ordinal",
        "manipulation_search_cardinal",
    ),
    "simulation": ("sample_population", "true_rating", "predict_rating", "fit_individual_model"),
    "seeding": ("derive_seed",),
    "pipeline": (
        "dataset_from_json",
        "run_pipeline",
        "simulate_collective_decision",
        "induced_ranking",
        "evaluate_reward",
        "select_response",
    ),
    "judgment": ("closest_consistent",),
    "feedback": ("parse_feedback",),
}

# Counts computed at the traced boundaries rather than timed.
COUNTERS = (
    "profiles.margin_pair_updates",
    "simulation.design_rows",
    "simulation.design_bytes_computed",
    "audits.rule_evals",
    "audits.misreports_tried",
    "audits.searches",
    "audits.witnesses",
)

MAX_SPANS = 200_000


class Tracer:
    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # Stored spans, one entry per column.
        self.span_id = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.spans_total = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.top_level_s = 0.0
        self.active = False
        self.op_id = -1
        # Open spans: [span id, name, start, time covered by children].
        self._stack: list[list] = []
        self._rule_names: set[str] = set()
        self._hook_table = self._hooks()

    def _intern(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return index

    def _wrap(self, name: str, fn):
        name_index = self._intern(name)
        stack = self._stack
        clock = time.perf_counter
        counters = self.counters
        hook = self._hook_table.get(name)
        is_rule = name in self._rule_names
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.spans_total
            tracer.spans_total += 1
            parent = stack[-1] if stack else None
            if is_rule and parent is not None and parent[1].startswith("audits."):
                counters["audits.rule_evals"] += 1
            evals_before = counters["audits.rule_evals"]
            frame = [span, name, clock(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                else:
                    tracer.top_level_s += duration
                if span < tracer.max_spans:
                    tracer.span_id.append(span)
                    tracer.name_id.append(name_index)
                    tracer.start.append(frame[2])
                    tracer.end.append(end)
                    tracer.parent.append(parent[0] if parent is not None else -1)
                    tracer.op.append(tracer.op_id)
                if hook is not None:
                    hook(args, kwargs, result, counters["audits.rule_evals"] - evals_before)

        return traced

    def _hooks(self):
        counters = self.counters

        def margin_matrix(args, kwargs, result, evals):
            profile = args[0] if args else kwargs["profile"]
            m = len(profile.alternatives)
            counters["profiles.margin_pair_updates"] += len(profile.ballots) * m * (m - 1) // 2

        def fit_individual_model(args, kwargs, result, evals):
            samples = args[0] if args else kwargs["samples"]
            if samples:
                d = len(samples[0][0])
                q = len(samples[0][1].features)
                counters["simulation.design_rows"] += len(samples)
                counters["simulation.design_bytes_computed"] += len(samples) * d * q * 8

        def search(extra_evals):
            # One rule evaluation scores the honest input and every further one
            # a misreport, except `extra_evals` made while building a witness.
            def hook(args, kwargs, result, evals):
                found = result is not None
                counters["audits.searches"] += 1
                counters["audits.witnesses"] += found
                counters["audits.misreports_tried"] += max(evals - 1 - extra_evals * found, 0)

            return hook

        return {
            "profiles.margin_matrix": margin_matrix,
            "simulation.fit_individual_model": fit_individual_model,
            "audits.manipulation_search_ordinal": search(0),
            # The cardinal search re-evaluates the honest ratings for its witness.
            "audits.manipulation_search_cardinal": search(1),
        }

    def install(self) -> None:
        """Wrap every traced function in all namespaces and rule registries."""
        modules = {name: importlib.import_module(f"socialchoice.{name}") for name in TRACED}
        ordinal_rules = modules["ordinal"].ORDINAL_RULES
        cardinal_rules = modules["cardinal"].CARDINAL_RULES
        self._rule_names = {f"ordinal.{fn.__name__}" for fn in ordinal_rules.values()}
        self._rule_names |= {f"cardinal.{key}" for key in cardinal_rules}
        # Keyed by id(); the wrappers hold their originals, so ids stay unique.
        wrappers: dict[int, object] = {}
        for module, functions in TRACED.items():
            for function in functions:
                original = getattr(modules[module], function)
                wrappers[id(original)] = self._wrap(f"{module}.{function}", original)
        # The cardinal rules are private functions reached only through their
        # registry; wrapping them lets auditor rule evaluations be counted.
        for key, original in cardinal_rules.items():
            wrappers.setdefault(id(original), self._wrap(f"cardinal.{key}", original))
        namespaces = [
            vars(module)
            for name, module in list(sys.modules.items())
            if name == "socialchoice" or name.startswith("socialchoice.")
        ]
        for namespace in namespaces + [ordinal_rules, cardinal_rules]:
            for key, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    namespace[key] = wrapper
        self.active = True

    def layer_metrics(self) -> dict[str, float]:
        """`<module>.<function>.calls` and `.self_ms` for every traced function."""
        metrics: dict[str, float] = {}
        for module, functions in TRACED.items():
            for function in functions:
                name = f"{module}.{function}"
                metrics[f"{name}.calls"] = self.calls.get(name, 0)
                metrics[f"{name}.self_ms"] = self.self_s.get(name, 0.0) * 1e3
        metrics.update(
            (name, value)
            for name, value in self.counters.items()
            if name not in ("audits.searches", "audits.witnesses")
        )
        searches = self.counters["audits.searches"]
        metrics["audits.witness_ratio"] = (
            self.counters["audits.witnesses"] / searches if searches else 0.0
        )
        return metrics

    def dump(self, path) -> int:
        """Write the stored spans as gzipped JSON lines; returns how many."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names, "spans_total": self.spans_total}) + "\n")
            for i in range(len(self.span_id)):
                out.write(
                    json.dumps(
                        {
                            "span": self.span_id[i],
                            "name": self.names[self.name_id[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": self.parent[i],
                            "op": self.op[i],
                        }
                    )
                    + "\n"
                )
        return len(self.span_id)
