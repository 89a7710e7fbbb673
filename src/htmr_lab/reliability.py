"""Error-probability models for majority-voted redundant systems.

The central quantity is the two-of-three failure polynomial

    pe_first(p) = 3*p**2 - 2*p**3

the probability that at least two of three independent modules, each
erring with probability ``p`` on a given operation, err simultaneously so
the majority vote is wrong. Nesting voters hierarchically composes this
polynomial with itself (``pe_order``). ``tree_error_probability`` is the
one exact evaluator: it works a voter tree bottom-up from its leaf error
rates, with or without voter faults, and ``pe_order``, ``pem_first`` and
``scenario_error_probability`` are calls to it. ``pem_order`` is the
paper's own voter-fault recursion, a different model from order 2 on.
Reduction rates are expressed in decades (log base 10).

Probabilities are plain floats validated to lie in [0, 1]; out-of-range
arguments raise ``ValueError``. All functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .faults import check_integer, check_probability, make_scenario

__all__ = [
    "MAX_ORDER",
    "check_order",
    "check_leaves",
    "pe_first",
    "tree_error_probability",
    "pem_first",
    "pe_order",
    "pem_order",
    "reduction_rate",
    "operations_per_error",
    "scenario_error_probability",
    "PropositionReport",
    "proposition_check",
    "ExpansionSample",
    "ExpansionAudit",
    "expansion_audit",
    "evaluate_power_series",
    "CLAIMED_ORDER2_EXPANSION",
    "EXACT_ORDER2_EXPANSION",
]

# Bound on nesting depth; deeper requests are almost certainly mistakes
# and would silently underflow to 0.0 anyway.
MAX_ORDER = 16


def check_order(name: str, j: int) -> int:
    """Validate a nesting order (an integer in 0..MAX_ORDER); returns it as an int."""
    j = check_integer(name, j)
    if not 0 <= j <= MAX_ORDER:
        raise ValueError(f"{name} must lie in 0..{MAX_ORDER}, got {j}")
    return j


def check_leaves(leaves: Sequence[float], order: int) -> tuple[float, ...]:
    """Validate the leaf error rates of an order-``order`` tree.

    The tree takes 3**k rates, k <= ``order``, repeated across its 3**order
    leaves; a rate of 0 is a fault-free module. Check ``order`` first.
    Returns the shortest 3**i rates that tile to the same leaves, so two
    descriptions of one tree come back equal.
    """
    rates = tuple(check_probability("leaf error rate", p) for p in leaves)
    sizes = [3 ** k for k in range(order + 1)]
    if len(rates) not in sizes:
        raise ValueError(
            f"an order-{order} tree takes 3**k leaf error rates with "
            f"k <= {order}, got {len(rates)}"
        )
    return next(rates[:i] for i in sizes if rates[:i] * (len(rates) // i) == rates)


def pe_first(pf: float) -> float:
    """Output error probability of one voter over three modules at rate ``pf``.

    Just below ``pf`` = 1 the polynomial rounds above 1, so it is clamped.
    """
    p = check_probability("pf", pf)
    return min(3.0 * p * p - 2.0 * p * p * p, 1.0)


def _voter_error(q: float, pa: float, pb: float, pc: float) -> float:
    """Error probability of one voter over independent children a, b, c."""
    if pa == pb == pc:
        majority = pe_first(pa)
    else:
        majority = min(pa * pb + pa * pc + pb * pc - 2.0 * pa * pb * pc, 1.0)
    return q * pa + (1.0 - q) * majority


def tree_error_probability(
    leaves: Sequence[float], order: int, voter_fault_rate: float = 0.0
) -> float:
    """Exact output error probability of an order-``order`` voter tree.

    ``leaves`` holds 3**k leaf error rates, k <= ``order``, repeated across
    the 3**order leaves of the tree the way ``network.tile_scenario``
    repeats them. Every voter fails with probability ``voter_fault_rate``
    and then passes its first child through, otherwise it votes. The
    children of a voter are disjoint subtrees, so they err independently and
    a voter over children erring at p_a, p_b, p_c errs with

        p_v = q*p_a + (1 - q)*(p_a p_b + p_a p_c + p_b p_c - 2 p_a p_b p_c)

    (Lyons & Vanderkulk, IBM J. Res. Dev. 6(2), 1962). The tree is worked
    bottom-up in O(3**k + order) steps; a voter whose three children err
    equally takes its majority term from ``pe_first``.
    """
    order = check_order("order", order)
    q = check_probability("voter_fault_rate", voter_fault_rate)
    level = list(check_leaves(leaves, order))
    for _ in range(order):
        if len(level) == 1:
            # the leaves are tiled, so one value stands for its whole level
            level *= 3
        level = [_voter_error(q, *level[i:i + 3]) for i in range(0, len(level), 3)]
    return level[0]


def pem_first(pf: float, pfmb: float) -> float:
    """One voter over three modules at rate ``pf``, failing at rate ``pfmb``."""
    return tree_error_probability((pf,), 1, pfmb)


def pe_order(j: int, pf: float) -> float:
    """Error probability after ``j`` nested levels of fault-free voting;
    ``j`` = 0 is the bare module."""
    return tree_error_probability((pf,), j)


def pem_order(j: int, pf: float, pfmb: float) -> float:
    """The paper's voter-fault recursion for a ``j``-level hierarchy.

    pem_j = pem_{j-1} * pfmb + pe_j * (1 - pfmb), anchored at the bare
    module, pem_0 = ``pf``: a failed top voter exposes the level below, a
    working one sees subtrees whose voters are all fault-free. Level 1 is
    exact, and with ``pfmb`` = 0 this equals ``pe_order(j, pf)`` bit for
    bit. From order 2 on it is a different model from a tree whose voters
    all fail at ``pfmb``, which ``tree_error_probability`` evaluates and
    the simulator samples: at pf = pfmb = 0.1 order 2 gives 0.005597
    here against 0.006787 for that tree.
    """
    j = check_order("j", j)
    p = check_probability("pf", pf)
    q = check_probability("pfmb", pfmb)
    pe = pem = p
    for _ in range(j):
        pe = pe_first(pe)
        pem = pem * q + pe * (1.0 - q)
    return pem


def reduction_rate(pf: float, pe: float) -> float:
    """Error reduction in decades: log10(pf / pe).

    ``pe`` = 0 (perfect masking) maps to ``math.inf``. ``pf`` = 0 has no
    meaningful ratio and raises.
    """
    p = check_probability("pf", pf)
    e = check_probability("pe", pe)
    if p == 0.0:
        raise ValueError("reduction rate is undefined for pf = 0")
    if e == 0.0:
        return math.inf
    return math.log10(p / e)


def operations_per_error(pe: float) -> float:
    """Expected operations between output errors: 1 / pe.

    Raises for ``pe`` = 0, where no errors are expected at all.
    """
    e = check_probability("pe", pe)
    if e == 0.0:
        raise ValueError("no errors expected at pe = 0; operations per error diverges")
    return 1.0 / e


def scenario_error_probability(pattern: str, pf: float) -> float:
    """Output error probability of one voter over an "NNF"-style pattern
    of modules, every faulty one erring with probability ``pf``."""
    return tree_error_probability(make_scenario(pattern, pf), 1)


@dataclass(frozen=True)
class PropositionReport:
    """Audit of "each extra voting level strictly lowers the error rate".

    ``entries`` holds (level, error probability) for levels 1..j_max;
    ``comparisons`` holds (level, decreased?) for each adjacent pair. The
    verdict is "holds" only if every comparison strictly decreased; the
    claim provably fails for module error rates at or above one half, and
    the report simply records that rather than treating it as an error.
    """

    pf: float
    entries: tuple[tuple[int, float], ...]
    comparisons: tuple[tuple[int, bool], ...]
    verdict: str


def proposition_check(pf: float, j_max: int) -> PropositionReport:
    """Evaluate levels 1..j_max and test strict decrease between neighbours."""
    j_max = check_order("j_max", j_max)
    if j_max < 2:
        raise ValueError("proposition_check needs j_max >= 2 to compare levels")
    p = check_probability("pf", pf)
    entries = [(j, pe_order(j, p)) for j in range(1, j_max + 1)]
    comparisons = tuple(
        (entries[k][0], entries[k][1] < entries[k - 1][1])
        for k in range(1, len(entries))
    )
    verdict = "holds" if all(ok for _, ok in comparisons) else "violated"
    return PropositionReport(
        pf=p, entries=tuple(entries), comparisons=comparisons, verdict=verdict
    )


# Degree-9 expansions of the two-level composition pe_first(pe_first(p)),
# keyed by power. CLAIMED_ORDER2_EXPANSION is a coefficient set that
# circulates for this polynomial but is mis-transcribed from the quintic
# term up; EXACT_ORDER2_EXPANSION is the true expansion (re-derivable
# symbolically, and cross-checked against the composition in the tests).
CLAIMED_ORDER2_EXPANSION: Mapping[int, float] = {
    4: 27.0, 5: -18.0, 6: -42.0, 7: -72.0, 8: 48.0, 9: -16.0,
}
EXACT_ORDER2_EXPANSION: Mapping[int, float] = {
    4: 27.0, 5: -36.0, 6: -42.0, 7: 108.0, 8: -72.0, 9: 16.0,
}


def evaluate_power_series(coefficients: Mapping[int, float], p: float) -> float:
    """Evaluate sum(c_k * p**k) over the given power -> coefficient map."""
    return float(sum(c * p ** k for k, c in sorted(coefficients.items())))


@dataclass(frozen=True)
class ExpansionSample:
    p: float
    composed: float
    claimed: float
    abs_difference: float


@dataclass(frozen=True)
class ExpansionAudit:
    """Pointwise comparison of the claimed order-2 expansion vs the composition."""

    samples: tuple[ExpansionSample, ...]
    claimed_coefficients: Mapping[int, float]
    exact_coefficients: Mapping[int, float]
    max_abs_difference: float


def expansion_audit(pf_samples: Iterable[float]) -> ExpansionAudit:
    """Audit the claimed degree-9 expansion of the order-2 error polynomial.

    For each sample the exact order-2 value ``pe_order(2, p)`` (the
    authoritative form) is evaluated next to the claimed coefficient set,
    and the absolute deviation is reported together with the exact
    coefficients a correct expansion must have.
    """
    samples = []
    for p in pf_samples:
        p = check_probability("pf sample", p)
        composed = pe_order(2, p)
        claimed = evaluate_power_series(CLAIMED_ORDER2_EXPANSION, p)
        samples.append(
            ExpansionSample(
                p=p,
                composed=composed,
                claimed=claimed,
                abs_difference=abs(composed - claimed),
            )
        )
    if not samples:
        raise ValueError("expansion_audit needs at least one sample point")
    return ExpansionAudit(
        samples=tuple(samples),
        claimed_coefficients=dict(CLAIMED_ORDER2_EXPANSION),
        exact_coefficients=dict(EXACT_ORDER2_EXPANSION),
        max_abs_difference=max(s.abs_difference for s in samples),
    )
