"""Parameter sweeps and report generation over the models and the simulator.

Every sweep produces flat ``ComparisonRow`` records, one per (module error
rate, nesting order) pair, strictly ordered by rate and then order, so a
run with the same configuration and seed is reproducible row for row.
Empirical columns are always accompanied by the trial count and binomial
standard error, making statistical acceptance checkable from the output
alone.

Monte-Carlo sweeps derive one random stream per (grid point, order) --
and per scenario, for the scenario suite -- from the master seed, so
points are independent work units and may be evaluated in any order or in
parallel without changing the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .faults import SCENARIO_PATTERNS, RandomSource, check_probability, make_scenario
from .network import build_network, run_trials
from .reliability import (
    check_order,
    operations_per_error,
    pe_order,
    pem_order,
    reduction_rate,
    tree_error_probability,
)
# perfbench/tracer.py wraps these by name in this module, as it wraps
# build_network and run_trials; they stay bound here until the benchmark
# stops looking them up.
from .network import tile_scenario  # noqa: F401
from .reliability import pe_first, scenario_error_probability  # noqa: F401

__all__ = [
    "SweepConfig",
    "ComparisonRow",
    "sweep_analytic",
    "sweep_monte_carlo",
    "scenario_suite",
    "Table3Row",
    "table3_report",
    "TABLE3_RATES",
    "floor_to_sig_figs",
    "present_operations",
    "LowProbabilityRow",
    "low_probability_report",
    "ReductionClaims",
    "reduction_claims_check",
]


@dataclass(frozen=True)
class SweepConfig:
    """Grid, orders, voter-fault mode, trial budget, and seed of one sweep.

    ``pfmb`` is either the string "pf" (voter fault rate tracks the module
    rate point by point) or a fixed probability (0 disables voter faults).
    ``trials`` = 0 requests analytic columns only. ``scenario`` restricts
    the leaf population to an "NNF"-style pattern tiled across the tree;
    scenario sweeps require orders >= 1 and a zero voter fault rate.
    """

    pf_min: float
    pf_max: float
    pf_steps: int
    pf_scale: str = "lin"
    orders: tuple[int, ...] = (0, 1, 2)
    pfmb: Union[str, float] = 0.0
    trials: int = 0
    scenario: Optional[str] = None
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.pf_steps < 1:
            raise ValueError(f"pf_steps must be >= 1, got {self.pf_steps}")
        if self.pf_steps == 1:
            check_probability("pf", self.pf_min)
            if self.pf_min != self.pf_max:
                raise ValueError("a single-point grid needs pf_min == pf_max")
        else:
            check_probability("pf_min", self.pf_min)
            check_probability("pf_max", self.pf_max)
            if not self.pf_min < self.pf_max:
                raise ValueError("grid needs pf_min < pf_max")
        if self.pf_scale not in ("lin", "log"):
            raise ValueError(f"pf_scale must be 'lin' or 'log', got {self.pf_scale!r}")
        if self.pf_scale == "log" and self.pf_min <= 0.0:
            raise ValueError("logarithmic grids need pf_min > 0")
        if not self.orders:
            raise ValueError("at least one order is required")
        for j in self.orders:
            check_order("orders", j)
        if any(a >= b for a, b in zip(self.orders, self.orders[1:])):
            raise ValueError(
                f"orders must be strictly ascending, without repeats, got {self.orders}"
            )
        if isinstance(self.pfmb, str):
            if self.pfmb != "pf":
                raise ValueError(f"pfmb must be 'pf' or a probability, got {self.pfmb!r}")
        else:
            check_probability("pfmb", self.pfmb)
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if self.scenario is not None:
            if self.scenario not in SCENARIO_PATTERNS:
                raise ValueError(
                    f"scenario must be one of {SCENARIO_PATTERNS}, got {self.scenario!r}"
                )
            if 0 in self.orders:
                raise ValueError("scenario sweeps need orders >= 1 (order 0 has no voter)")
            if self.pfmb != 0.0:
                raise ValueError("scenario sweeps model fault-free voters (pfmb must be 0)")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def single(cls, pf: float, **kwargs) -> "SweepConfig":
        """One-point grid at ``pf``."""
        return cls(pf_min=pf, pf_max=pf, pf_steps=1, **kwargs)

    def pf_values(self) -> tuple[float, ...]:
        if self.pf_steps == 1:
            return (self.pf_min,)
        if self.pf_scale == "lin":
            grid = np.linspace(self.pf_min, self.pf_max, self.pf_steps)
        else:
            grid = np.logspace(
                math.log10(self.pf_min), math.log10(self.pf_max), self.pf_steps
            )
        return tuple(float(p) for p in grid)

    def pfmb_at(self, pf: float) -> float:
        return pf if self.pfmb == "pf" else float(self.pfmb)

    def leaves_at(self, pf: float) -> tuple[float, ...]:
        """Leaf error rates at ``pf``: every module at ``pf``, or the
        scenario's triple, tiled across the tree."""
        return (pf,) if self.scenario is None else make_scenario(self.scenario, pf)


@dataclass(frozen=True)
class ComparisonRow:
    """Analytic (and optionally empirical) results for one (pf, order) pair.

    ``re``/``rem``/``re_per_module`` are None at pf = 0, where the
    reduction ratio is undefined; ``re_per_module`` divides the reduction
    rate by the 3**order redundant modules the order costs. Empirical
    fields stay None in analytic-only sweeps.
    """

    pf: float
    order: int
    pe: float
    pem: float
    re: Optional[float]
    rem: Optional[float]
    re_per_module: Optional[float]
    pe_hat: Optional[float] = None
    std_err: Optional[float] = None
    trials: Optional[int] = None


def _analytic_row(cfg: SweepConfig, pf: float, order: int) -> ComparisonRow:
    pe = tree_error_probability(cfg.leaves_at(pf), order)
    # the paper's recursion is for uniform leaves; scenarios have pfmb = 0
    pem = pe if cfg.scenario is not None else pem_order(order, pf, cfg.pfmb_at(pf))
    if pf == 0.0:
        re = rem = re_per_module = None
    else:
        re = reduction_rate(pf, pe)
        rem = reduction_rate(pf, pem)
        re_per_module = re / (3 ** order)
    return ComparisonRow(
        pf=pf, order=order, pe=pe, pem=pem, re=re, rem=rem, re_per_module=re_per_module
    )


def sweep_analytic(cfg: SweepConfig) -> list[ComparisonRow]:
    """Closed-form error probabilities and reduction rates over the grid."""
    return [
        _analytic_row(cfg, pf, order)
        for pf in cfg.pf_values()
        for order in cfg.orders
    ]


def _empirical_row(
    cfg: SweepConfig, pf: float, order: int, stream: RandomSource
) -> ComparisonRow:
    row = _analytic_row(cfg, pf, order)
    net = build_network(order, cfg.leaves_at(pf), voter_fault_rate=cfg.pfmb_at(pf))
    estimate, _ = run_trials(net, cfg.trials, stream, workers=cfg.workers)
    return replace(
        row, pe_hat=estimate.pe_hat, std_err=estimate.std_err, trials=estimate.trials
    )


def _empirical_rows(cfg: SweepConfig, master: RandomSource) -> list[ComparisonRow]:
    return [
        _empirical_row(cfg, pf, order, master.derive(i, order))
        for i, pf in enumerate(cfg.pf_values())
        for order in cfg.orders
    ]


def sweep_monte_carlo(cfg: SweepConfig) -> list[ComparisonRow]:
    """Grid sweep carrying both analytic and empirical columns.

    The stream for grid point ``i`` and order ``j`` is
    ``RandomSource(seed).derive(i, j)``; for scenario sweeps see
    ``scenario_suite``.
    """
    if cfg.trials < 1:
        raise ValueError("an empirical sweep needs trials >= 1")
    return _empirical_rows(cfg, RandomSource(cfg.seed))


def scenario_suite(cfg: SweepConfig) -> dict[str, list[ComparisonRow]]:
    """All three faulty-module scenarios over the grid, keyed by pattern.

    Every scenario is tiled across each requested order (the same pattern
    on every bottom triple). With ``trials`` = 0 the rows are analytic
    only, otherwise the stream for scenario ``s``, point ``i``, order
    ``j`` is ``RandomSource(seed).derive(s, i, j)``.
    """
    if cfg.scenario is not None:
        raise ValueError("scenario_suite runs all scenarios; leave cfg.scenario unset")
    master = RandomSource(cfg.seed)
    suite: dict[str, list[ComparisonRow]] = {}
    for s, pattern in enumerate(SCENARIO_PATTERNS):
        # SweepConfig enforces the scenario rules (orders >= 1, pfmb = 0)
        sub = replace(cfg, scenario=pattern)
        if cfg.trials >= 1:
            suite[pattern] = _empirical_rows(sub, master.derive(s))
        else:
            suite[pattern] = sweep_analytic(sub)
    return suite


def floor_to_sig_figs(x: float, figures: int = 2) -> float:
    """Truncate ``x`` downward to the given number of significant figures."""
    if x <= 0 or not math.isfinite(x):
        raise ValueError(f"need a positive finite value, got {x!r}")
    if figures < 1:
        raise ValueError(f"figures must be >= 1, got {figures}")
    exponent = math.floor(math.log10(x))
    # guard log10 rounding at exact powers of ten
    if 10.0 ** (exponent + 1) <= x:
        exponent += 1
    elif 10.0 ** exponent > x:
        exponent -= 1
    scale = 10.0 ** (exponent - figures + 1)
    return math.floor(x / scale) * scale


def present_operations(ops: float) -> str:
    """Operations-per-error presentation: floor small counts to an integer,
    truncate large ones to two significant figures."""
    if ops < 1000.0:
        return str(int(math.floor(ops)))
    return f"{floor_to_sig_figs(ops, 2):.1e}"


TABLE3_RATES = (0.001, 0.01, 0.1, 0.3, 0.5)


@dataclass(frozen=True)
class Table3Row:
    pf: float
    ops_exact: tuple[float, float, float]
    ops_presented: tuple[str, str, str]


def table3_report() -> tuple[Table3Row, ...]:
    """Operations-per-error at the reference rates for orders 0, 1, 2."""
    rows = []
    for pf in TABLE3_RATES:
        ops = tuple(operations_per_error(pe_order(j, pf)) for j in (0, 1, 2))
        rows.append(
            Table3Row(
                pf=pf,
                ops_exact=ops,
                ops_presented=tuple(present_operations(v) for v in ops),
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class LowProbabilityRow:
    """Reduction rates and per-module reduction rates at one low rate point.

    ``per_module_gap`` is re2/9 - re1/3; at low rates the two per-module
    curves agree to leading order and the gap shrinks toward zero.
    """

    pf: float
    re_order1: float
    re_order2: float
    re1_per_module: float
    re2_per_module: float
    per_module_gap: float


def low_probability_report(cfg: SweepConfig) -> list[LowProbabilityRow]:
    """Analytic study of the very-low error-rate regime.

    Requires a logarithmic grid with pf_min >= 1e-8. Analytic only:
    empirical validation in this regime is off the table (order-2 error
    rates near 1e-11 would need on the order of 1e12 trials below
    pf = 1e-3), so a nonzero trial budget is rejected outright.
    """
    if cfg.pf_scale != "log":
        raise ValueError("low_probability_report needs a logarithmic grid")
    if cfg.pf_min < 1e-8:
        raise ValueError("grid minimum below 1e-8 is outside the supported regime")
    if cfg.trials > 0:
        raise ValueError(
            "empirical columns are infeasible below pf = 1e-3 (order-2 error rates "
            "~1e-11 need ~1e12 trials); this report is analytic only, set trials=0"
        )
    rows = []
    for pf in cfg.pf_values():
        re1 = reduction_rate(pf, pe_order(1, pf))
        re2 = reduction_rate(pf, pe_order(2, pf))
        rows.append(
            LowProbabilityRow(
                pf=pf,
                re_order1=re1,
                re_order2=re2,
                re1_per_module=re1 / 3.0,
                re2_per_module=re2 / 9.0,
                per_module_gap=re2 / 9.0 - re1 / 3.0,
            )
        )
    return rows


@dataclass(frozen=True)
class ReductionClaims:
    """Headline reduction ratios of the two-level hierarchy at pf = 0.1.

    ``vs_bare`` is pf / pe2 (claimed to exceed 40 at and below this rate),
    ``vs_one_level`` is (pf / pe2) / (pf / pe1) (claimed to exceed 10).
    """

    pf: float
    one_level_ratio: float
    vs_bare: float
    vs_one_level: float
    bare_claim_holds: bool
    one_level_claim_holds: bool


def reduction_claims_check(pf: float = 0.1) -> ReductionClaims:
    """Evaluate the two headline ratios at ``pf`` (default: 0.1, the edge
    of the low error-probability region)."""
    p = check_probability("pf", pf)
    pe1 = pe_order(1, p)
    pe2 = pe_order(2, p)
    one_level = p / pe1
    vs_bare = p / pe2
    vs_one_level = vs_bare / one_level
    return ReductionClaims(
        pf=p,
        one_level_ratio=one_level,
        vs_bare=vs_bare,
        vs_one_level=vs_one_level,
        bare_claim_holds=vs_bare > 40.0,
        one_level_claim_holds=vs_one_level > 10.0,
    )
