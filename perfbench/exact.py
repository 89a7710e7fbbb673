"""Exact output error probability of a ternary voter tree, and the row check.

This module does not import ``htmr_lab``: the benchmark judges the
program's estimates against values it derives on its own.

A tree of order ``j`` has 3**j leaves. Leaf ``k`` errs with probability
``leaves[k]``; every voter fails with probability ``q`` and then passes
its first child through, otherwise it emits the majority of its three
children. Children of one voter are disjoint subtrees, so their errors are
independent and each voter's error probability is

    p_v = q * p_a + (1 - q) * (p_a p_b + p_a p_c + p_b p_c - 2 p_a p_b p_c)

with ``a`` the first child. Order 0 is the bare module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# A row's estimate fails when it lies more than Z_BOUND binomial standard
# deviations (taken at the exact p) from the exact value. At 5 sigma a
# correct program fails a given row with probability below 1e-6.
Z_BOUND = 5.0

# The analytic ``pe`` column prints 12 significant digits.
PE_REL_TOL = 1e-9


def voter_error(q: float, pa: float, pb: float, pc: float) -> float:
    """Error probability of one voter over independent children a, b, c."""
    majority = pa * pb + pa * pc + pb * pc - 2.0 * pa * pb * pc
    return q * pa + (1.0 - q) * majority


def tree_error(leaves, q: float) -> float:
    """Exact root error probability for leaf error probabilities in tree order.

    ``leaves`` lists 3**j probabilities left to right, so consecutive
    triples share a bottom voter.
    """
    level = [float(p) for p in leaves]
    if not level:
        raise ValueError("a tree needs at least one leaf")
    while len(level) > 1:
        if len(level) % 3:
            raise ValueError(f"leaf count {len(leaves)} is not a power of 3")
        level = [voter_error(q, *level[i:i + 3]) for i in range(0, len(level), 3)]
    return level[0]


def uniform_leaves(order: int, pf: float) -> list[float]:
    """Every leaf faulty at rate ``pf``."""
    return [pf] * 3 ** order


def scenario_leaves(pattern: str, order: int, pf: float) -> list[float]:
    """An "NFF"-style triple tiled over every bottom voter of an order >= 1 tree."""
    triple = [pf if c == "F" else 0.0 for c in pattern]
    return triple * 3 ** (order - 1)


@dataclass(frozen=True)
class ExpectedRow:
    """One output row the benchmark expects, keyed as the CLI prints it.

    ``exact`` is the tree's error probability with its voter faults; it is
    what ``pe_hat`` estimates. ``exact_no_voter`` is the same tree with
    fault-free voters; it is what the ``pe`` column must print.
    """

    pf: float
    order: int
    scenario: str
    trials: int
    exact: float
    exact_no_voter: float

    @property
    def key(self) -> tuple:
        return row_key(self.pf, self.order, self.scenario)


def row_key(pf: float, order: int, scenario: str) -> tuple:
    return (round(pf, 9), order, scenario)


def estimate_ok(pe_hat: float, exact: float, trials: int) -> bool:
    """``pe_hat`` agrees with ``exact``: equal at 0 or 1, else within Z_BOUND sigma."""
    if exact in (0.0, 1.0):
        return pe_hat == exact
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    return abs(pe_hat - exact) <= Z_BOUND * sigma


def row_ok(expected: ExpectedRow, pe: float, pe_hat: float, trials: int) -> bool:
    """All checks on one parsed row. ``pem`` is deliberately not judged."""
    return (
        trials == expected.trials
        and math.isclose(pe, expected.exact_no_voter, rel_tol=PE_REL_TOL, abs_tol=0.0)
        and estimate_ok(pe_hat, expected.exact, trials)
    )
