"""Tests for the benchmark's own exact evaluator and row check.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from htmr_lab.reliability import pe_order, pem_first, scenario_error_probability  # noqa: E402

import run  # noqa: E402
from exact import (  # noqa: E402
    ExpectedRow, estimate_ok, row_ok, scenario_leaves, tree_error, uniform_leaves,
)

GRID = [k / 20 for k in range(21)] + [1e-6, 1e-3, 0.33]


@pytest.mark.parametrize("order", range(6))
def test_matches_pe_order_without_voter_faults(order):
    for pf in GRID:
        assert tree_error(uniform_leaves(order, pf), 0.0) == pytest.approx(
            pe_order(order, pf), rel=1e-12, abs=1e-300)


def test_matches_pem_first_at_order_one():
    for pf in GRID:
        for q in (0.0, 1e-4, 0.1, 0.5, 1.0):
            assert tree_error(uniform_leaves(1, pf), q) == pytest.approx(
                pem_first(pf, q), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("pattern", ["NNF", "NFF", "FFF"])
def test_matches_scenario_probability_at_order_one(pattern):
    for pf in GRID:
        assert tree_error(scenario_leaves(pattern, 1, pf), 0.0) == pytest.approx(
            scenario_error_probability(pattern, pf), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("order, value, half_digit",
                         [(2, 0.006787, 5e-7), (3, 0.000802, 5e-7), (4, 8.20e-5, 5e-8)])
def test_voter_fault_values_at_pf_one_tenth(order, value, half_digit):
    assert abs(tree_error(uniform_leaves(order, 0.1), 0.1) - value) <= half_digit


def test_failed_voter_passes_its_first_child():
    # only the first leaf errs: a failed root copies it, a working one masks it
    assert tree_error([1.0, 0.0, 0.0], 1.0) == 1.0
    assert tree_error([0.0, 1.0, 1.0], 1.0) == 0.0
    assert tree_error([1.0, 0.0, 0.0], 0.0) == 0.0


def test_rejects_a_leaf_count_that_is_not_a_power_of_three():
    with pytest.raises(ValueError):
        tree_error([0.1] * 6, 0.0)


def test_estimate_check():
    assert estimate_ok(0.0, 0.0, 100) and not estimate_ok(1e-6, 0.0, 10**6)
    assert estimate_ok(1.0, 1.0, 100) and not estimate_ok(0.999999, 1.0, 10**6)
    sigma = math.sqrt(0.1 * 0.9 / 10**6)
    assert estimate_ok(0.1 + 4.9 * sigma, 0.1, 10**6)
    assert not estimate_ok(0.1 - 5.1 * sigma, 0.1, 10**6)


def test_row_check_ignores_pem_but_judges_pe_and_trials():
    row = ExpectedRow(0.1, 4, "", 2_000_000, 8.2e-5, 7.639009737159e-10)
    assert row_ok(row, 7.63900973716e-10, 7.45e-05, 2_000_000)
    assert not row_ok(row, 5.74097111715e-05, 7.45e-05, 2_000_000)
    assert not row_ok(row, 7.63900973716e-10, 7.45e-05, 1_000_000)


def test_check_document_counts_failed_rows():
    workload = run.WORKLOADS["deep_voterfault"]
    header = ("# htmr-lab v0.1.0 seed=7 semantics=voter-passthrough\n"
              "pf,order,pe,pem,re,rem,re_per_module,pe_hat,std_err,trials\n")
    good = header + "0.1,4,7.63900973716e-10,5.74e-05,,,,8.3e-05,6.4e-06,2000000\n"
    assert run.check_document(good, workload, 7)[:2] == (0, 2_000_000)
    assert run.check_document(good, workload, 8)[0] == 1
    assert run.check_document(header, workload, 7)[0] == 1
    far = good.replace("8.3e-05", "4e-05")
    assert run.check_document(far, workload, 7)[0] == 1
    assert run.check_document(good + good.splitlines()[-1] + "\n", workload, 7)[0] == 1


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
