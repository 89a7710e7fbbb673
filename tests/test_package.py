"""The package namespace resolves on first use, and a command loads only its own code."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import htmr_lab

ROOT = Path(__file__).resolve().parents[1]

# every name the package namespace has always bound, by the module defining it
PUBLIC = {
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
        "tree_error_probability",
    ),
    "reports": (
        "CLAIMED_ORDER2_EXPANSION", "EXACT_ORDER2_EXPANSION", "ExpansionAudit",
        "ExpansionSample", "PropositionReport", "ReductionClaims", "TABLE3_RATES",
        "Table3Row", "evaluate_power_series", "expansion_audit", "floor_to_sig_figs",
        "present_operations", "proposition_check", "reduction_claims_check",
        "table3_report",
    ),
    "voting": (
        "TmrRegister", "TripleInput", "VoteOutcome", "alarm_signal",
        "enumerate_truth_table", "flipflop_step", "majority_vote", "vote_with_alarm",
    ),
}

# modules that some command needs and a CSV simulate does not
WATCHED = ("htmr_lab.reports", "htmr_lab.voting", "htmr_lab.fanout", "json", "decimal")

PROBE = f"""
import sys
import htmr_lab.cli
code = htmr_lab.cli.main(sys.argv[1:])
print(sorted(m for m in {WATCHED!r} if m in sys.modules), file=sys.stderr)
sys.exit(code)
"""

SIMULATE = ("simulate", "--pf", "0.1", "--order", "2", "--trials", "1000")


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in PUBLIC.items() for name in names
])
def test_public_name_resolves_to_its_defining_module(module, name):
    defined = getattr(importlib.import_module(f"htmr_lab.{module}"), name)
    assert getattr(htmr_lab, name) is defined
    assert name in htmr_lab.__all__
    assert name in dir(htmr_lab)


def test_namespace_lists_nothing_else():
    assert sorted(htmr_lab.__all__) == sorted(n for names in PUBLIC.values() for n in names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        htmr_lab.no_such_name


def test_from_import_still_returns_a_submodule():
    from htmr_lab import network

    assert network is importlib.import_module("htmr_lab.network")


@pytest.mark.parametrize("argv,loaded", [
    (SIMULATE, []),
    ((*SIMULATE, "--format", "json"), ["json"]),
    (("truth-table",), ["htmr_lab.voting"]),
    (("table3",), ["htmr_lab.reports"]),
    (("proposition", "--pf", "0.1"), ["htmr_lab.reports"]),
    (("audit", "--pf", "0.1"), ["htmr_lab.reports"]),
], ids=["simulate", "simulate-json", "truth-table", "table3", "proposition", "audit"])
def test_a_command_loads_only_its_own_code(argv, loaded):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stderr.splitlines()[-1]) == loaded
