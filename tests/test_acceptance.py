"""Acceptance suite: every shipping criterion at its stated tolerance.

One test per criterion, each printing a ``[acceptance] ... PASS/FAIL``
line (run with ``pytest tests/test_acceptance.py -v -s`` to watch them).
Statistical criteria run at fixed seeds, so passes are reproducible, and
use four binomial standard errors computed from the analytic probability.
"""

import csv
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from htmr_lab import cli
from htmr_lab.faults import RandomSource
from htmr_lab.harness import SweepConfig, scenario_suite, sweep_analytic, sweep_monte_carlo
from htmr_lab.network import build_network, run_trials
from htmr_lab.reliability import pe_first, pe_order, pem_first
from htmr_lab.reports import (
    CLAIMED_ORDER2_EXPANSION,
    EXACT_ORDER2_EXPANSION,
    evaluate_power_series,
    proposition_check,
    table3_report,
)
from htmr_lab.voting import TripleInput, vote_with_alarm

TABLE1 = {
    (0, 0, 0): (0, 0),
    (1, 0, 0): (0, 1),
    (0, 1, 0): (0, 1),
    (1, 1, 0): (1, 1),
    (0, 0, 1): (0, 1),
    (1, 0, 1): (1, 1),
    (0, 1, 1): (1, 1),
    (1, 1, 1): (1, 0),
}


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def four_se(p: float, n: int) -> float:
    return 4.0 * math.sqrt(p * (1.0 - p) / n)


def test_c01_truth_table_exactness():
    with criterion("C01 truth-table exactness"):
        start = time.perf_counter()
        for bits, expected in TABLE1.items():
            outcome = vote_with_alarm(TripleInput(*bits))
            assert (outcome.value, outcome.alarm) == expected, bits
        assert time.perf_counter() - start < 1.0


def test_c02_operations_per_error_table():
    expected = {
        0.001: ("1.0e+03", "3.3e+05", "3.7e+10"),
        0.01: ("100", "3.3e+03", "3.7e+06"),
        0.1: ("10", "35", "433"),
        0.3: ("3", "4", "8"),
        0.5: ("2", "2", "2"),
    }
    with criterion("C02 operations-per-error table"):
        start = time.perf_counter()
        rows = table3_report()
        assert {row.pf for row in rows} == set(expected)
        for row in rows:
            assert row.ops_presented == expected[row.pf], row.pf
        assert time.perf_counter() - start < 1.0


def test_c03_analytic_property_suite():
    with criterion("C03 analytic property suite"):
        assert abs(pe_first(0.0) - 0.0) <= 1e-12
        assert abs(pe_first(0.5) - 0.5) <= 1e-12
        assert abs(pe_first(1.0) - 1.0) <= 1e-12
        grid = np.linspace(0.0, 1.0, 1001)
        for p in grid:
            p = float(p)
            assert abs(pe_first(1.0 - p) - (1.0 - pe_first(p))) <= 1e-12
            if 0.0 < p < 0.5:
                assert pe_first(p) < p
            elif 0.5 < p < 1.0:
                assert pe_first(p) > p


def test_c04_simulation_protocol_21_points():
    with criterion("C04 21-point simulation protocol (order 1, FFF, 1e4 trials)"):
        start = time.perf_counter()
        cfg = SweepConfig(
            pf_min=0.0, pf_max=1.0, pf_steps=21, orders=(1,),
            trials=10_000, scenario="FFF", seed=20250811,
        )
        rows = sweep_monte_carlo(cfg)
        assert len(rows) == 21
        for row in rows:
            analytic = pe_first(row.pf)
            assert abs(row.pe_hat - analytic) <= four_se(analytic, row.trials), row.pf
        assert time.perf_counter() - start < 5.0


def test_c05_order_two_high_precision():
    with criterion("C05 order-2 structural check (1e6 trials)"):
        start = time.perf_counter()
        net = build_network(2, 0.1, voter_fault_rate=0.0)
        estimate, _ = run_trials(net, 1_000_000, RandomSource(1905), workers=1)
        expected = pe_order(2, 0.1)
        bound = four_se(expected, 1_000_000)
        assert bound == pytest.approx(1.9195e-4, abs=1e-7)
        assert abs(estimate.pe_hat - expected) <= bound
        assert time.perf_counter() - start < 60.0


def test_c06_scenario_suite():
    with criterion("C06 scenario suite (NNF exact masking, NFF coincidence)"):
        for order in (1, 2):
            for i, pf in enumerate((0.1, 0.5, 0.9)):
                suite = scenario_suite(
                    SweepConfig.single(pf, orders=(order,), trials=1_000_000, seed=60 + i)
                )
                row = suite["NNF"][0]
                assert row.pe_hat == 0.0, (order, pf)
        for i, pf in enumerate((0.1, 0.3)):
            suite = scenario_suite(
                SweepConfig.single(pf, orders=(1,), trials=1_000_000, seed=70 + i)
            )
            row = suite["NFF"][0]
            expected = pf * pf
            assert abs(row.pe_hat - expected) <= four_se(expected, row.trials), pf


def test_c07_voter_fault_model():
    with criterion("C07 voter-fault mixture (pf=0.1, pfmb=0.1, 1e6 trials)"):
        net = build_network(1, 0.1, voter_fault_rate=0.1)
        estimate, _ = run_trials(net, 1_000_000, RandomSource(777))
        expected = pem_first(0.1, 0.1)
        assert expected == pytest.approx(0.0352, abs=1e-12)
        assert abs(estimate.pe_hat - expected) <= four_se(expected, 1_000_000)


def test_c08_reduction_claims_at_tenth(tmp_path):
    with criterion("C08 reduction claims at pf=0.1 (>=40x bare, >=10x one level)"):
        # re is log10(pf / pe), so 10**re is the reduction against the bare module
        out = tmp_path / "analytic.csv"
        assert cli.main(["analytic", "--pf", "0.1", "--orders", "0,1,2", "--out", str(out)]) == 0
        rows = csv.DictReader(out.read_text().splitlines()[1:])
        re = {int(row["order"]): float(row["re"]) for row in rows}
        vs_bare, vs_one_level = 10.0 ** re[2], 10.0 ** (re[2] - re[1])
        assert vs_bare >= 40.0
        assert vs_one_level >= 10.0
        assert vs_bare == pytest.approx(43.3, abs=0.1)
        assert vs_one_level == pytest.approx(12.1, abs=0.1)


def test_c09_proposition_audit():
    with criterion("C09 strict decrease below one half, violation above"):
        for pf in np.linspace(0.002, 0.498, 125):
            report = proposition_check(float(pf), 5)
            assert report.verdict == "holds", pf
            values = [pe for _, pe in report.entries]
            assert all(b < a for a, b in zip(values, values[1:]))
        # regression: the claim fails above the repelling fixed point
        report = proposition_check(0.6, 2)
        assert report.verdict == "violated"
        values = dict(report.entries)
        assert values[1] == pytest.approx(0.648, abs=1e-12)
        assert values[2] == pytest.approx(0.7155, abs=1e-3)
        assert values[2] > values[1]


def test_c10_expansion_coefficients_audit():
    with criterion("C10 degree-9 expansion audit"):
        rng = RandomSource(101)
        points = rng.uniforms(10).tolist()
        assert all(0.0 < p < 1.0 for p in points)
        for p in points:
            composed = pe_first(pe_first(p))
            exact = evaluate_power_series(EXACT_ORDER2_EXPANSION, p)
            assert abs(composed - exact) <= 1e-12, p
        claimed_dev = max(
            abs(pe_first(pe_first(p)) - evaluate_power_series(CLAIMED_ORDER2_EXPANSION, p))
            for p in points
        )
        assert claimed_dev > 1e-6


def _cli_bytes(*argv: str) -> bytes:
    # the checkout's package, whether or not it is installed
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "htmr_lab", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, check=True,
    )
    return result.stdout


def test_c11_byte_identical_documents(tmp_path):
    with criterion("C11 determinism across reruns and worker counts"):
        simulate = (
            "simulate", "--order", "2", "--pf", "0.1",
            "--trials", "50000", "--seed", "42",
        )
        first = _cli_bytes(*simulate)
        again = _cli_bytes(*simulate)
        threaded = _cli_bytes(*simulate, "--workers", "3")
        assert first == again == threaded
        # a process that ends after run()'s gc.freeze() still flushes its file
        out = tmp_path / "simulate.csv"
        assert _cli_bytes(*simulate, "--out", str(out)) == b""
        assert out.read_bytes() == first
        sweep = (
            "simulate", "--pf-min", "0", "--pf-max", "1", "--pf-steps", "11",
            "--orders", "1,2", "--trials", "2000", "--seed", "9",
        )
        assert _cli_bytes(*sweep) == _cli_bytes(*sweep, "--workers", "4")
        scenarios = ("scenarios", "--pf", "0.3", "--trials", "5000", "--seed", "5")
        assert _cli_bytes(*scenarios) == _cli_bytes(*scenarios, "--workers", "2")


def test_c12_low_probability_note():
    # companion property from the acceptance notes: in the analytic
    # low-rate study the per-module reduction rates of the two hierarchy
    # depths differ by less than 1e-3 decades for pf <= 1e-3
    with criterion("C12 per-module reduction-rate agreement below 1e-3"):
        cfg = SweepConfig(
            pf_min=1e-8, pf_max=1e-3, pf_steps=26, pf_scale="log", orders=(1, 2)
        )
        rows = sweep_analytic(cfg)
        pairs = list(zip(rows[0::2], rows[1::2]))
        assert len(pairs) == 26
        for first, second in pairs:
            assert first.pf == second.pf and (first.order, second.order) == (1, 2)
            assert abs(second.re_per_module - first.re_per_module) < 1e-3, first.pf
