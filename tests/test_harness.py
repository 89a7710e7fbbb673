"""Sweeps, reference tables, and claim checks."""

import math

import numpy as np
import pytest

from htmr_lab import harness, network, reports
from htmr_lab.faults import SCENARIO_PATTERNS, RandomSource, make_scenario
from htmr_lab.harness import SweepConfig, scenario_suite, sweep_analytic, sweep_monte_carlo
from htmr_lab.reliability import (
    pe_first,
    pe_order,
    pem_first,
    pem_order,
    tree_error_probability,
)
from htmr_lab.reports import (
    TABLE3_RATES,
    floor_to_sig_figs,
    present_operations,
    proposition_check,
    table3_report,
)


class TestSweepConfig:
    def test_linear_grid_values(self):
        cfg = SweepConfig(pf_min=0.0, pf_max=1.0, pf_steps=21)
        values = cfg.pf_values()
        assert len(values) == 21
        assert values[0] == 0.0 and values[-1] == 1.0
        assert values[10] == pytest.approx(0.5)

    @staticmethod
    def assert_linspace(pf_min, pf_max, steps):
        grid = SweepConfig(pf_min=pf_min, pf_max=pf_max, pf_steps=steps).pf_values()
        expected = np.linspace(pf_min, pf_max, steps)
        assert [p.hex() for p in grid] == [float(p).hex() for p in expected]

    def test_a_linear_grid_is_np_linspace_to_the_bit(self):
        rng = np.random.default_rng(31)
        grids = 0
        while grids < 3_000:
            # endpoints spread over [0, 1] or over decades down to the subnormals
            ends = rng.random(2) if rng.random() < 0.5 else 10.0 ** rng.uniform(-323, 0, 2)
            if rng.random() < 0.1:
                ends[0] = 0.0
            lo, hi = sorted(map(float, ends))
            if lo < hi:
                self.assert_linspace(lo, hi, int(rng.integers(2, 400)))
                grids += 1

    @pytest.mark.parametrize("pf_min,pf_max", [
        (0.0, 1.0), (0.1, 0.3), (0.0, 5e-324), (1e-300, 1e-299), (0.999, 1.0),
    ])
    def test_a_two_point_grid_is_its_ends(self, pf_min, pf_max):
        self.assert_linspace(pf_min, pf_max, 2)
        assert SweepConfig(pf_min=pf_min, pf_max=pf_max, pf_steps=2).pf_values() == (
            pf_min, pf_max
        )

    @pytest.mark.parametrize("pf_min,pf_max,steps", [
        (0.0, 5e-324, 3), (0.0, 2e-322, 100), (5e-324, 1e-322, 50), (0.0, 1e-321, 1000),
    ])
    def test_a_subnormal_span_whose_step_rounds_to_zero_is_np_linspace(
        self, pf_min, pf_max, steps
    ):
        assert (pf_max - pf_min) / (steps - 1) == 0.0
        self.assert_linspace(pf_min, pf_max, steps)

    def test_log_grid_values(self):
        cfg = SweepConfig(pf_min=1e-6, pf_max=1e-2, pf_steps=5, pf_scale="log")
        values = cfg.pf_values()
        assert values[0] == pytest.approx(1e-6, rel=1e-12)
        assert values[2] == pytest.approx(1e-4, rel=1e-12)
        assert values[-1] == pytest.approx(1e-2, rel=1e-12)

    def test_single_point(self):
        assert SweepConfig.single(0.1).pf_values() == (0.1,)

    def test_pfmb_modes(self):
        assert SweepConfig.single(0.2, pfmb="pf").pfmb_at(0.2) == 0.2
        assert SweepConfig.single(0.2, pfmb=0.05).pfmb_at(0.2) == 0.05
        assert SweepConfig.single(0.2).pfmb_at(0.2) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(pf_min=0.5, pf_max=0.1, pf_steps=5)
        with pytest.raises(ValueError):
            SweepConfig(pf_min=0.0, pf_max=1.0, pf_steps=5, pf_scale="log")
        with pytest.raises(ValueError):
            SweepConfig(pf_min=0.0, pf_max=1.0, pf_steps=5, pf_scale="geometric")
        with pytest.raises(ValueError):
            SweepConfig(pf_min=0.0, pf_max=1.5, pf_steps=5)
        with pytest.raises(ValueError):
            SweepConfig.single(0.1, orders=())
        with pytest.raises(ValueError):
            SweepConfig.single(0.1, orders=(2, 1))
        with pytest.raises(ValueError):
            SweepConfig.single(0.1, orders=(1, 1))
        with pytest.raises(ValueError):
            SweepConfig.single(0.1, pfmb="maybe")
        with pytest.raises(ValueError):
            SweepConfig.single(0.1, scenario="XYZ")
        with pytest.raises(ValueError):
            SweepConfig.single(0.1, scenario="NNF", orders=(0, 1))
        with pytest.raises(ValueError):
            SweepConfig.single(0.1, scenario="NNFNNFNNF", orders=(1, 2))

    def test_a_pattern_takes_3_to_the_k_letters_up_to_the_lowest_order(self):
        assert SweepConfig.single(0.1, scenario="F", orders=(0, 1)).leaves_at(0.1) == (0.1,)
        cfg = SweepConfig.single(0.1, scenario="NFFNNFFFN", orders=(2, 3))
        assert len(cfg.leaves_at(0.1)) == 9

    @pytest.mark.parametrize("pattern,shortest", [
        ("NFFNFFNFF", "NFF"), ("NNFNNFNNF", "NNF"), ("FFF", "F"), ("NNN", "N"),
        ("NFFNNFFFN", "NFFNNFFFN"), ("F", "F"),
    ])
    def test_a_pattern_is_kept_in_its_shortest_form(self, pattern, shortest):
        cfg = SweepConfig.single(0.1, scenario=pattern, orders=(2,))
        assert cfg.scenario == shortest
        [row] = sweep_analytic(cfg)
        assert row.pe == tree_error_probability(make_scenario(pattern, 0.1), 2)

    def test_checked_values_are_kept(self):
        cfg = SweepConfig.single(0.1, orders=(True, 2), pfmb=-0.0)
        assert cfg.orders == (1, 2) and all(type(j) is int for j in cfg.orders)
        assert math.copysign(1.0, cfg.pfmb) == 1.0
        rows = sweep_analytic(SweepConfig.single(0.1, orders=(1.0, 2.0)))
        assert [type(row.order) for row in rows] == [int, int]
        for cfg in (SweepConfig.single(-0.0), SweepConfig(pf_min=-0.0, pf_max=1.0, pf_steps=3)):
            assert math.copysign(1.0, cfg.pf_min) == 1.0
            assert math.copysign(1.0, cfg.pf_values()[0]) == 1.0


class TestSweepAnalytic:
    def test_reference_point(self):
        rows = sweep_analytic(SweepConfig.single(0.1, orders=(0, 1, 2)))
        by_order = {r.order: r for r in rows}
        assert by_order[0].pe == 0.1
        assert by_order[1].pe == pytest.approx(0.028, abs=1e-12)
        assert by_order[2].pe == pytest.approx(2.308096e-3, abs=1e-12)

    def test_fixed_point_rate(self):
        rows = sweep_analytic(SweepConfig.single(0.5, orders=(0, 1, 2, 3)))
        assert all(r.pe == 0.5 for r in rows)

    def test_voter_rate_tracking_module_rate(self):
        rows = sweep_analytic(SweepConfig.single(0.1, orders=(1,), pfmb="pf"))
        assert rows[0].pem == pytest.approx(0.0352, abs=1e-12)
        assert rows[0].pe == pytest.approx(0.028, abs=1e-12)

    def test_fixed_voter_rate(self):
        rows = sweep_analytic(SweepConfig.single(0.1, orders=(1, 2), pfmb=0.1))
        by_order = {r.order: r for r in rows}
        assert by_order[1].pem == pytest.approx(pem_first(0.1, 0.1), abs=1e-15)
        assert by_order[2].pem == pytest.approx(pem_order(2, 0.1, 0.1), abs=1e-15)

    def test_per_module_rate_divides_by_module_count(self):
        rows = sweep_analytic(SweepConfig.single(0.1, orders=(1, 2)))
        for row in rows:
            assert row.re_per_module == pytest.approx(row.re / 3**row.order)

    def test_zero_rate_has_no_reduction_columns(self):
        rows = sweep_analytic(SweepConfig(pf_min=0.0, pf_max=0.2, pf_steps=3))
        zero_rows = [r for r in rows if r.pf == 0.0]
        assert zero_rows
        for row in zero_rows:
            assert row.re is None and row.rem is None and row.re_per_module is None

    def test_rows_sorted_by_rate_then_order(self):
        rows = sweep_analytic(SweepConfig(pf_min=0.1, pf_max=0.3, pf_steps=3))
        keys = [(r.pf, r.order) for r in rows]
        assert keys == sorted(keys)

    def test_analytic_rows_have_no_empirical_columns(self):
        for row in sweep_analytic(SweepConfig.single(0.2)):
            assert row.pe_hat is None and row.std_err is None and row.trials is None

    @staticmethod
    def low_rate_orders(**kw):
        """Order 1's and order 2's rows at each point of a low-rate log grid."""
        grid = dict(pf_min=1e-6, pf_max=1e-3, pf_steps=7, pf_scale="log", orders=(1, 2))
        rows = sweep_analytic(SweepConfig(**(grid | kw)))
        return list(zip(rows[0::2], rows[1::2]))

    def test_low_rate_reference_point(self):
        first, second = self.low_rate_orders(pf_min=1e-4, pf_steps=2)[0]
        assert first.pf == second.pf == pytest.approx(1e-4, rel=1e-12)
        assert first.re == pytest.approx(3.5229, abs=1e-4)
        assert second.re == pytest.approx(10.5687, abs=1e-4)
        assert abs(first.re_per_module - second.re_per_module) < 1e-4

    def test_per_module_gap_stays_small_down_to_millirate(self):
        for first, second in self.low_rate_orders():
            assert (first.order, second.order) == (1, 2)
            assert abs(second.re_per_module - first.re_per_module) < 1e-3

    def test_low_rate_grid_reaches_order_two_underflow(self):
        # the grid has no floor: below pf ~ 5.5e-82 order 2's pe underflows to 0
        first, second = self.low_rate_orders(pf_min=1e-90, pf_steps=2)[0]
        assert first.pe == pytest.approx(3e-180, rel=1e-12)
        assert second.pe == 0.0 and second.re == math.inf


class TestSweepMonteCarlo:
    def test_requires_trials(self):
        with pytest.raises(ValueError):
            sweep_monte_carlo(SweepConfig.single(0.1, trials=0))

    def test_empirical_columns_present_and_close(self):
        cfg = SweepConfig.single(0.1, orders=(0, 1), trials=20_000, seed=99)
        rows = sweep_monte_carlo(cfg)
        for row in rows:
            assert row.trials == 20_000
            assert row.std_err is not None
            expected = pe_order(row.order, row.pf)
            assert abs(row.pe_hat - expected) <= 4 * math.sqrt(
                expected * (1 - expected) / row.trials
            )

    def test_degenerate_endpoints_are_exact(self):
        cfg = SweepConfig(pf_min=0.0, pf_max=1.0, pf_steps=2, orders=(1,), trials=2_000)
        rows = sweep_monte_carlo(cfg)
        assert rows[0].pf == 0.0 and rows[0].pe_hat == 0.0
        assert rows[1].pf == 1.0 and rows[1].pe_hat == 1.0

    def test_reruns_are_identical(self):
        cfg = SweepConfig(pf_min=0.1, pf_max=0.5, pf_steps=3, orders=(1, 2), trials=5_000, seed=5)
        assert sweep_monte_carlo(cfg) == sweep_monte_carlo(cfg)

    def test_worker_count_is_invisible_in_results(self, monkeypatch, forks):
        # blocks of 8 KiB of rows make 140,000 trials three blocks or more
        # per unit; with workers for any work and three processors, every
        # worker count really runs on that many processes, in each of the
        # three units (one per grid point)
        monkeypatch.setattr(network, "BLOCK_BYTES", 1 << 13)
        monkeypatch.setattr(network, "BITS_PER_WORKER", 1)
        monkeypatch.setattr(network, "_processors", lambda: 3)
        runs = [
            sweep_monte_carlo(SweepConfig(pf_min=0.1, pf_max=0.3, pf_steps=3, orders=(0, 1, 2),
                                          pfmb="pf", trials=140_000, seed=11, workers=workers))
            for workers in (1, 2, 3)
        ]
        assert runs[0] == runs[1] == runs[2]
        assert len(forks) == 3 * (0 + 1 + 2)


def record_draws(monkeypatch):
    """Log every ``run_trials`` call's network and every drawn (rows, lanes) run."""
    calls, draws = [], []
    run_trials, bernoulli_lanes = harness.run_trials, RandomSource.bernoulli_lanes

    def counted_run_trials(net, *args, **kwargs):
        calls.append(net)
        return run_trials(net, *args, **kwargs)

    def counted_lanes(self, out, m, rate, cells):
        draws.append((out.shape[0], m))
        return bernoulli_lanes(self, out, m, rate, cells)

    monkeypatch.setattr(harness, "run_trials", counted_run_trials)
    monkeypatch.setattr(RandomSource, "bernoulli_lanes", counted_lanes)
    return calls, draws


class TestOneTreePerPoint:
    """A sweep runs the top order once per point and reads the lower orders off it."""

    @pytest.mark.parametrize("suite", [False, True])
    def test_lower_orders_draw_no_rows_of_their_own(self, monkeypatch, suite):
        grid = dict(pf_min=0.0, pf_max=1.0, pf_steps=21, trials=3_000, seed=4)
        sweep = scenario_suite if suite else sweep_monte_carlo
        lower = (1, 2) if suite else (0, 1, 2)
        calls, draws = record_draws(monkeypatch)
        sweep(SweepConfig(orders=(2,), **grid))
        top_calls, top_draws = list(calls), list(draws)
        calls.clear()
        draws.clear()
        sweep(SweepConfig(orders=lower, **grid))
        assert len(top_calls) == 21 * (3 if suite else 1)
        assert all(net.order == 2 for net in calls)
        assert calls == top_calls
        assert draws == top_draws

    @pytest.mark.parametrize("pfmb", [0.0, "pf"])
    def test_every_order_tracks_the_exact_tree(self, pfmb):
        # 21 points at 10**5 trials, orders 0-3. The rows of one order are
        # independent across points (one stream a point), so each order's
        # sum of z**2 is chi-square with one degree of freedom a row whose
        # model lies strictly between 0 and 1; the rows of one point share
        # their trials, so the orders are not pooled. 67.15 is the
        # chi-square(21) quantile at p = 1e-6, an upper bound for fewer rows
        n, orders = 10**5, (0, 1, 2, 3)
        cfg = SweepConfig(pf_min=0.0, pf_max=1.0, pf_steps=21, orders=orders, pfmb=pfmb,
                          trials=n, seed=19)
        chi2 = dict.fromkeys(orders, 0.0)
        for row in sweep_monte_carlo(cfg):
            exact = tree_error_probability((row.pf,), row.order, cfg.pfmb_at(row.pf))
            if exact in (0.0, 1.0):
                assert row.pe_hat == exact
                continue
            z = (row.pe_hat - exact) / math.sqrt(exact * (1.0 - exact) / n)
            assert abs(z) <= 5.0, (row.pf, row.order, z)
            chi2[row.order] += z * z
        assert all(total < 67.15 for total in chi2.values()), chi2


class TestOneWalkPerPoint:
    """Every order's exact ``pe`` and ``pem`` at a point come from one walk of the top order."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """Log the (leaves, order) of every ``subtree_error_probabilities`` call."""
        calls = []
        walk = harness.subtree_error_probabilities

        def counted(leaves, order, *args, **kwargs):
            calls.append((tuple(leaves), order))
            return walk(leaves, order, *args, **kwargs)

        monkeypatch.setattr(harness, "subtree_error_probabilities", counted)
        monkeypatch.setattr(reports, "subtree_error_probabilities", counted)
        return calls

    @pytest.mark.parametrize("trials", [0, 500])
    def test_a_sweep_walks_once_per_point(self, walks, trials):
        cfg = SweepConfig(pf_min=0.0, pf_max=1.0, pf_steps=7, orders=(0, 2, 3, 5),
                          pfmb="pf", trials=trials)
        rows = (sweep_monte_carlo if trials else sweep_analytic)(cfg)
        assert walks == [((pf,), 5) for pf in cfg.pf_values()]
        for row in rows:
            assert row.pem == pem_order(row.order, row.pf, row.pf)

    @pytest.mark.parametrize("trials", [0, 500])
    def test_the_suite_walks_once_per_pattern_and_point(self, walks, trials):
        cfg = SweepConfig(pf_min=0.1, pf_max=0.5, pf_steps=3, orders=(1, 3), trials=trials)
        scenario_suite(cfg)
        assert walks == [
            (cfg._replace(scenario=pattern).leaves_at(pf), 3)
            for pattern in SCENARIO_PATTERNS for pf in cfg.pf_values()
        ]

    def test_the_proposition_walks_once(self, walks):
        proposition_check(0.3, 16)
        assert walks == [((0.3,), 16)]

    def test_table3_walks_once_per_rate(self, walks):
        table3_report()
        assert walks == [((pf,), 2) for pf in TABLE3_RATES]


class TestScenarioSuite:
    def test_suite_covers_all_patterns(self):
        suite = scenario_suite(SweepConfig.single(0.2, orders=(1, 2)))
        assert sorted(suite) == ["FFF", "NFF", "NNF"]

    def test_analytic_scenario_composition(self):
        suite = scenario_suite(SweepConfig.single(0.2, orders=(1, 2)))
        nff = {r.order: r for r in suite["NFF"]}
        assert nff[1].pe == pytest.approx(0.04, abs=1e-15)
        assert nff[2].pe == pytest.approx(pe_first(0.04), abs=1e-15)
        fff = {r.order: r for r in suite["FFF"]}
        assert fff[1].pe == pytest.approx(pe_first(0.2), abs=1e-15)
        assert fff[2].pe == pytest.approx(pe_order(2, 0.2), abs=1e-15)
        assert all(r.pe == 0.0 for r in suite["NNF"])

    def test_worker_count_is_invisible_in_results(self, monkeypatch, forks):
        # nine units (three scenarios at three points), each forking one
        # worker fewer than the worker count
        monkeypatch.setattr(network, "BLOCK_BYTES", 1 << 13)
        monkeypatch.setattr(network, "BITS_PER_WORKER", 1)
        monkeypatch.setattr(network, "_processors", lambda: 3)
        runs = [
            scenario_suite(SweepConfig(pf_min=0.1, pf_max=0.3, pf_steps=3, orders=(1, 2),
                                       trials=140_000, seed=11, workers=workers))
            for workers in (1, 2, 3)
        ]
        assert runs[0] == runs[1] == runs[2]
        assert len(forks) == 9 * (0 + 1 + 2)

    def test_single_fault_scenario_never_errs(self):
        suite = scenario_suite(SweepConfig.single(0.5, orders=(1, 2), trials=50_000))
        for row in suite["NNF"]:
            assert row.pe_hat == 0.0

    def test_two_fault_scenario_tracks_square(self):
        suite = scenario_suite(SweepConfig.single(0.2, orders=(1,), trials=100_000, seed=2))
        row = suite["NFF"][0]
        assert abs(row.pe_hat - 0.04) <= 4 * math.sqrt(0.04 * 0.96 / row.trials)

    def test_order_two_empirical_tracks_composition(self):
        suite = scenario_suite(SweepConfig.single(0.3, orders=(2,), trials=100_000, seed=3))
        row = suite["NFF"][0]
        expected = pe_first(0.09)
        assert abs(row.pe_hat - expected) <= 4 * math.sqrt(expected * (1 - expected) / row.trials)

    def test_trials_zero_gives_analytic_only(self):
        suite = scenario_suite(SweepConfig.single(0.2, orders=(1,)))
        assert all(r.pe_hat is None for rows in suite.values() for r in rows)

    def test_rejects_single_scenario_config(self):
        with pytest.raises(ValueError):
            scenario_suite(SweepConfig.single(0.1, orders=(1,), scenario="NNF"))

    def test_sweep_rules_apply_to_every_scenario(self):
        # a three-letter pattern does not fit the lowest order, 0
        for orders in ((0,), (0, 1)):
            with pytest.raises(ValueError, match=r"an order-0 tree takes 3\*\*k scenario letters"):
                scenario_suite(SweepConfig.single(0.2, orders=orders))
        # voter faults apply to every scenario, and pem folds its own leaves
        suite = scenario_suite(SweepConfig(pf_min=0.1, pf_max=0.3, pf_steps=3,
                                           orders=(1, 2, 3), pfmb="pf"))
        assert list(suite) == ["NNF", "NFF", "FFF"]
        for pattern, rows in suite.items():
            assert len(rows) == 9
            for row in rows:
                leaves = make_scenario(pattern, row.pf)
                assert row.pem == pem_order(row.order, leaves, row.pf)
                # NNF never errs; the other patterns' voter faults move pem
                assert (row.pem != row.pe) == (pattern != "NNF")
                assert row.pe == tree_error_probability(leaves, row.order)


class TestFloorPresentation:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (1000.0, 1000.0),
            (333555.7, 330000.0),
            (3355.7, 3300.0),
            (3754330.5, 3.7e6),
            (37086543303.37, 3.7e10),
            (999.4, 990.0),
            (99.9, 99.0),
        ],
    )
    def test_floor_to_two_figures(self, value, expected):
        assert floor_to_sig_figs(value, 2) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            floor_to_sig_figs(0.0)

    @pytest.mark.parametrize(
        "ops,text",
        [(2.0, "2"), (35.714, "35"), (433.257, "433"), (1000.0, "1.0e+03"), (333555.7, "3.3e+05")],
    )
    def test_present_operations(self, ops, text):
        assert present_operations(ops) == text


class TestTable3:
    # frozen reference cells: (module, one level, two levels) per rate
    EXPECTED = {
        0.001: ("1.0e+03", "3.3e+05", "3.7e+10"),
        0.01: ("100", "3.3e+03", "3.7e+06"),
        0.1: ("10", "35", "433"),
        0.3: ("3", "4", "8"),
        0.5: ("2", "2", "2"),
    }

    def test_rates_covered_in_order(self):
        assert tuple(r.pf for r in table3_report()) == TABLE3_RATES

    def test_presented_cells_match_reference(self):
        for row in table3_report():
            assert row.ops_presented == self.EXPECTED[row.pf], row.pf

    def test_exact_columns_are_reciprocals(self):
        for row in table3_report():
            for j, ops in enumerate(row.ops_exact):
                assert ops == pytest.approx(1.0 / pe_order(j, row.pf), rel=1e-12)


class TestReductionClaims:
    """The paper's headline ratios, read off the analytic sweep's ``re`` column."""

    @staticmethod
    def ratios(pf):
        # 10**re is pf / pe; returns (vs bare, one level vs bare, vs one level)
        rows = sweep_analytic(SweepConfig.single(pf, orders=(1, 2)))
        assert [(row.pf, row.order) for row in rows] == [(pf, 1), (pf, 2)]
        one_level, two_level = (10.0 ** row.re for row in rows)
        return two_level, one_level, two_level / one_level

    def test_headline_ratios_at_reference_rate(self):
        vs_bare, one_level_ratio, vs_one_level = self.ratios(0.1)
        assert vs_bare == pytest.approx(43.3258, abs=1e-3)
        assert one_level_ratio == pytest.approx(3.5714, abs=1e-3)
        assert vs_one_level == pytest.approx(12.1312, abs=1e-3)
        assert vs_bare > 40.0
        assert vs_one_level > 10.0

    def test_claims_strengthen_at_lower_rates(self):
        vs_bare, _, vs_one_level = self.ratios(0.01)
        assert vs_bare > 3e4
        assert vs_bare > 40.0 and vs_one_level > 10.0
