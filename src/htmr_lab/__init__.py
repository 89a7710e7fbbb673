"""htmr-lab: hierarchical triple-modular-redundancy modeling and simulation.

Bit-exact majority voting with a disagreement alarm, closed-form and
recursive error-probability models for nested voting hierarchies, a
seeded Monte-Carlo fault-injection simulator for the corresponding
ternary voter trees, and an experiment harness that sweeps, compares, and
serializes the two against each other.

The public names below resolve on first use (PEP 562), so importing one
module, such as ``htmr_lab.cli``, loads only what that module imports.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "faults": ("RandomSource", "SCENARIO_PATTERNS", "make_scenario"),
        "harness": (
            "ComparisonRow", "SweepConfig", "scenario_suite", "sweep_analytic",
            "sweep_monte_carlo",
        ),
        "network": (
            "EmpiricalEstimate", "FaultStatusCounter", "HtmrNetwork", "block_trials",
            "build_network", "run_trials", "simulate_bit", "tile_scenario",
        ),
        "reliability": (
            "MAX_ORDER", "operations_per_error", "pe_first", "pe_order", "pem_first",
            "pem_order", "reduction_rate", "scenario_error_probability",
            "subtree_error_probabilities", "tree_error_probability",
        ),
        "reports": (
            "CLAIMED_ORDER2_EXPANSION", "EXACT_ORDER2_EXPANSION", "ExpansionAudit",
            "ExpansionSample", "PropositionReport", "TABLE3_RATES", "Table3Row",
            "evaluate_power_series", "expansion_audit", "floor_to_sig_figs",
            "present_operations", "proposition_check", "table3_report",
        ),
        "voting": (
            "TmrRegister", "TripleInput", "VoteOutcome", "alarm_signal",
            "enumerate_truth_table", "flipflop_step", "majority_vote",
            "vote_with_alarm",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
