"""Parameter sweeps over the models and the simulator.

Every sweep produces flat ``ComparisonRow`` records, one per (module error
rate, nesting order) pair, strictly ordered by rate and then order, so a
run with the same configuration and seed is reproducible row for row.
Empirical columns are always accompanied by the trial count and binomial
standard error, making statistical acceptance checkable from the output
alone. The paper's comparison of the two hierarchy depths at very low
rates is an analytic sweep of orders 1 and 2 on a logarithmic grid: the
per-module gap at a point is order 2's ``re_per_module`` minus order 1's.

A Monte-Carlo sweep runs one unit per grid point -- and per scenario, for
the scenario suite -- on a stream derived from the master seed: the
network of the highest requested order. Every lower order's row is read
off the same trials, from the leftmost subtree of that order, so the rows
of one point share their trials (common random numbers). Points are
independent work units and may be evaluated in any order or in parallel
without changing the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Union

import numpy as np

from .faults import (
    SCENARIO_PATTERNS,
    RandomSource,
    check_integer,
    check_probability,
    make_scenario,
)
from .network import block_trials, build_network, run_trials
from .reliability import (
    check_leaves,
    check_order,
    pem_order,
    reduction_rate,
    tree_error_probability,
)
# perfbench/tracer.py wraps these by name in this module, as it wraps
# build_network and run_trials; they stay bound here until the benchmark
# stops looking them up.
from .network import tile_scenario  # noqa: F401
from .reliability import pe_first, pe_order, scenario_error_probability  # noqa: F401

__all__ = [
    "SweepConfig",
    "ComparisonRow",
    "sweep_analytic",
    "sweep_monte_carlo",
    "scenario_suite",
]


@dataclass(frozen=True)
class SweepConfig:
    """Grid, orders, voter-fault mode, trial budget, and seed of one sweep.

    ``pfmb`` is either the string "pf" (voter fault rate tracks the module
    rate point by point) or a fixed probability (0 disables voter faults).
    ``trials`` = 0 requests analytic columns only. ``scenario`` is an
    N/F leaf pattern (see ``make_scenario``) tiled across the tree: 3**k
    letters, k <= the lowest order, and a zero voter fault rate. The
    checked values are stored: ``orders`` as ints, rates as floats, -0.0
    as 0.0, and a pattern in its shortest form, the shortest prefix that
    tiles to it (``NNFNNFNNF`` as ``NNF``, ``FFF`` as ``F``), so one tree
    has one configuration.
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
        for name in ("pf_steps", "trials", "workers"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        if self.pf_steps < 1:
            raise ValueError(f"pf_steps must be >= 1, got {self.pf_steps}")
        if self.pf_steps == 1:
            pf = check_probability("pf", self.pf_min)
            if pf != self.pf_max:
                raise ValueError("a single-point grid needs pf_min == pf_max")
            object.__setattr__(self, "pf_min", pf)
            object.__setattr__(self, "pf_max", pf)
        else:
            object.__setattr__(self, "pf_min", check_probability("pf_min", self.pf_min))
            object.__setattr__(self, "pf_max", check_probability("pf_max", self.pf_max))
            if not self.pf_min < self.pf_max:
                raise ValueError("grid needs pf_min < pf_max")
        if self.pf_scale not in ("lin", "log"):
            raise ValueError(f"pf_scale must be 'lin' or 'log', got {self.pf_scale!r}")
        if self.pf_scale == "log" and self.pf_min <= 0.0:
            raise ValueError("logarithmic grids need pf_min > 0")
        if not self.orders:
            raise ValueError("at least one order is required")
        object.__setattr__(self, "orders", tuple(check_order("orders", j) for j in self.orders))
        if any(a >= b for a, b in zip(self.orders, self.orders[1:])):
            raise ValueError(
                f"orders must be strictly ascending, without repeats, got {self.orders}"
            )
        if isinstance(self.pfmb, str):
            if self.pfmb != "pf":
                raise ValueError(f"pfmb must be 'pf' or a probability, got {self.pfmb!r}")
        else:
            object.__setattr__(self, "pfmb", check_probability("pfmb", self.pfmb))
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if self.scenario is not None:
            # orders ascend, so a pattern that fits the lowest fits them all;
            # at rate 1 each letter keeps its own rate (at 0 all read N), so
            # the shortest rates are those of the shortest pattern's prefix
            leaves = make_scenario(self.scenario, 1.0)
            shortest = check_leaves("scenario letters", leaves, self.orders[0])
            object.__setattr__(self, "scenario", self.scenario[: len(shortest)])
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
        """Leaf error rates at ``pf``: every module at ``pf``, or one rate
        per letter of the scenario's pattern, tiled across the tree."""
        return (pf,) if self.scenario is None else make_scenario(self.scenario, pf)


class ComparisonRow(NamedTuple):
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


def _empirical_rows(cfg: SweepConfig, master: RandomSource) -> list[ComparisonRow]:
    # the leftmost order-k subtree of the top network has the leaves and the
    # voter fault rate of the order-k network: uniform leaves, or a
    # scenario's triple tiled under every bottom voter
    top = cfg.orders[-1]
    units = [
        (i, pf, build_network(top, cfg.leaves_at(pf), voter_fault_rate=cfg.pfmb_at(pf)))
        for i, pf in enumerate(cfg.pf_values())
    ]
    for *_, net in units:
        block_trials(net)  # refuses an order too large to simulate before any unit runs
    rows = []
    for i, pf, net in units:
        # the block width is passed by name: perfbench/tracer.py counts blocks from it
        estimate, _ = run_trials(
            net, cfg.trials, master.derive(i, top), workers=cfg.workers,
            block_size=block_trials(net),
        )
        for order in cfg.orders:
            sub = estimate.subtree(order)
            rows.append(_analytic_row(cfg, pf, order)._replace(
                pe_hat=sub.pe_hat, std_err=sub.std_err, trials=sub.trials,
            ))
    return rows


def sweep_monte_carlo(cfg: SweepConfig) -> list[ComparisonRow]:
    """Grid sweep carrying both analytic and empirical columns.

    Grid point ``i`` runs one network, of the highest requested order
    ``top``, on the stream ``RandomSource(seed).derive(i, top)``, and every
    requested order's row is read off those trials; for scenario sweeps
    see ``scenario_suite``.
    """
    if cfg.trials < 1:
        raise ValueError("an empirical sweep needs trials >= 1")
    return _empirical_rows(cfg, RandomSource(cfg.seed))


def scenario_suite(cfg: SweepConfig) -> dict[str, list[ComparisonRow]]:
    """All three faulty-module scenarios over the grid, keyed by pattern.

    Every scenario is tiled across each requested order (the same pattern
    on every bottom triple). With ``trials`` = 0 the rows are analytic
    only. Otherwise scenario ``s`` at point ``i`` runs one network, of the
    highest requested order ``top``, on the stream
    ``RandomSource(seed).derive(s, i, top)``, and every requested order's
    row is read off those trials, as in ``sweep_monte_carlo``.
    """
    if cfg.scenario is not None:
        raise ValueError("scenario_suite runs all scenarios; leave cfg.scenario unset")
    master = RandomSource(cfg.seed)
    suite: dict[str, list[ComparisonRow]] = {}
    for s, pattern in enumerate(SCENARIO_PATTERNS):
        # SweepConfig enforces the scenario rules (the pattern fits, pfmb = 0)
        sub = replace(cfg, scenario=pattern)
        if cfg.trials >= 1:
            suite[pattern] = _empirical_rows(sub, master.derive(s))
        else:
            suite[pattern] = sweep_analytic(sub)
    return suite
