"""Error-probability models for majority-voted redundant systems.

The central quantity is the two-of-three failure polynomial

    pe_first(p) = 3*p**2 - 2*p**3

the probability that at least two of three independent modules, each
erring with probability ``p`` on a given operation, err simultaneously so
the majority vote is wrong. Nesting voters hierarchically composes this
polynomial with itself (``pe_order``); the ``pem_*`` variants additionally
mix in the failure rate of the voter/flip-flop hardware. Reduction rates
are expressed in decades (log base 10).

Probabilities are plain floats validated to lie in [0, 1]; out-of-range
arguments raise ``ValueError``. All functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .faults import Scenario, check_probability, make_scenario, scenario_pattern

__all__ = [
    "MAX_ORDER",
    "check_order",
    "complement",
    "pe_first",
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
    if j != int(j):
        raise ValueError(f"{name} must be an integer, got {j!r}")
    j = int(j)
    if not 0 <= j <= MAX_ORDER:
        raise ValueError(f"{name} must lie in 0..{MAX_ORDER}, got {j}")
    return j


def complement(pf: float) -> float:
    """Probability of being fault-free: 1 - pf."""
    return 1.0 - check_probability("pf", pf)


def pe_first(pf: float) -> float:
    """Output error probability of one voter over three modules at rate ``pf``.

    Just below ``pf`` = 1 the polynomial rounds above 1, so it is clamped.
    """
    p = check_probability("pf", pf)
    return min(3.0 * p * p - 2.0 * p * p * p, 1.0)


def pem_first(pf: float, pfmb: float) -> float:
    """Like ``pe_first`` but with the voter itself erring at rate ``pfmb``.

    A failed voter exposes the raw single-module error rate, a healthy one
    the voted rate, so the result is the ``pfmb``-weighted mixture of the
    two. With ``pfmb`` = 0 this reduces to ``pe_first``.
    """
    p = check_probability("pf", pf)
    q = check_probability("pfmb", pfmb)
    return p * q + pe_first(p) * (1.0 - q)


def pe_order(j: int, pf: float) -> float:
    """Error probability after ``j`` nested levels of voting.

    ``j`` = 0 is the bare, unprotected module; each further level feeds
    the previous level's output triples into a fresh voter, composing the
    two-of-three polynomial once more.
    """
    j = check_order("j", j)
    p = check_probability("pf", pf)
    for _ in range(j):
        p = pe_first(p)
    return p


def pem_order(j: int, pf: float, pfmb: float) -> float:
    """Error probability of a ``j``-level hierarchy with faulty voters.

    Recursion: pem_j = pem_{j-1} * pfmb + pe_j * (1 - pfmb), anchored at
    the bare module, pem_0 = ``pf``; level 1 is ``pem_first``. With
    ``pfmb`` = 0 this equals ``pe_order(j, pf)`` bit for bit.
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


def scenario_error_probability(scenario: Union[Scenario, str], pf: float) -> float:
    """Closed-form output error probability of one voter under a scenario.

    ``scenario`` is a faulty/fault-free triple (or its "NNF"-style
    pattern); every faulty module errs with probability ``pf``. With at
    most one faulty module the voter masks everything (0); with two, both
    must err together (pf**2); with three, the full two-of-three
    polynomial applies.
    """
    p = check_probability("pf", pf)
    if isinstance(scenario, str):
        scenario = make_scenario(scenario, p)
    faulty = scenario_pattern(scenario).count("F")
    if faulty <= 1:
        return 0.0
    if faulty == 2:
        return p * p
    return pe_first(p)


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
    entries = []
    value = p
    for j in range(1, j_max + 1):
        value = pe_first(value)
        entries.append((j, value))
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

    For each sample the composition ``pe_first(pe_first(p))`` (the
    authoritative form) is evaluated next to the claimed coefficient set,
    and the absolute deviation is reported together with the exact
    coefficients a correct expansion must have.
    """
    samples = []
    for p in pf_samples:
        p = check_probability("pf sample", p)
        composed = pe_first(pe_first(p))
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
