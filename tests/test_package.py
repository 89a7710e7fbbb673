"""The package namespace resolves on first use, and a command loads only its own code:
numpy only where a trial is drawn or a log grid is built, and never ``dataclasses``."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import htmr_lab

ROOT = Path(__file__).resolve().parents[1]

# every name the package namespace binds, by the module defining it
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
        "enumerate_truth_table", "flipflop_step", "majority_vote", "vote_with_alarm",
    ),
}

# modules that some command needs and a CSV simulate does not
WATCHED = ("htmr_lab.reports", "htmr_lab.voting", "htmr_lab.fanout", "json", "decimal")

PROBE = f"""
import sys
import htmr_lab.cli
code = htmr_lab.cli.main(sys.argv[1:])
watched = sorted(m for m in {WATCHED!r} if m in sys.modules)
print((watched, "numpy" in sys.modules, "dataclasses" in sys.modules), file=sys.stderr)
sys.exit(code)
"""

SIMULATE = ("simulate", "--pf", "0.1", "--order", "2", "--trials", "1000")
LINEAR = ("analytic", "--pf-min", "0", "--pf-max", "1", "--pf-steps", "11")
LOG = ("analytic", "--pf-min", "1e-6", "--pf-max", "1e-2", "--pf-steps", "5", "--pf-scale", "log")


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


def probe(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_importing_the_cli_loads_no_numpy():
    # records are tuples: no dataclasses, and none of the inspect it imports
    loaded = "[m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')]"
    proc = probe(f"import sys, htmr_lab.cli; print(*{loaded})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]


@pytest.mark.parametrize("argv,loaded,numpy", [
    (SIMULATE, [], True),
    ((*SIMULATE, "--format", "json"), ["json"], True),
    (("truth-table",), ["htmr_lab.voting"], False),
    (("table3",), ["htmr_lab.reports"], False),
    (("proposition", "--pf", "0.1"), ["htmr_lab.reports"], False),
    (("audit", "--pf", "0.1"), ["htmr_lab.reports"], False),
    (LINEAR, [], False),
    ((*LINEAR, "--pfmb", "pf"), [], False),
    (LOG, [], True),
    (("scenarios", "--pf", "0.1"), [], False),
    (("scenarios", "--pf", "0.1", "--trials", "1000"), [], True),
], ids=[
    "simulate", "simulate-json", "truth-table", "table3", "proposition", "audit",
    "analytic", "analytic-pfmb", "analytic-log", "scenarios", "scenarios-trials",
])
def test_a_command_loads_only_its_own_code(argv, loaded, numpy):
    proc = probe(PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stderr.splitlines()[-1]) == (loaded, numpy, False)
