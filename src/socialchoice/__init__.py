"""Social-choice aggregation toolkit for collective feedback.

Ordinal voting rules, cardinal and multi-winner aggregation, judgment
aggregation, a small feedback-statement language, simulated evaluator
populations, reward-model pipelines, and property auditors, all behind a
deterministic command line.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.  Each is imported on
# first use (PEP 562), so importing the package, or running a command that
# needs no arrays, never loads numpy.
_EXPORTS = {
    name: module
    for module, names in {
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
    }.items()
    for name in names
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        # Not an export: `from socialchoice import cardinal` then imports the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
