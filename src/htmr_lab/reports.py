"""The paper's fixed reports: Table 3 and two audits.

Each evaluates the closed-form models in ``reliability`` at fixed rates and
draws nothing. They live apart from the sweeps, so that a simulation loads
none of them.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple

from .faults import check_probability
from .reliability import check_order, operations_per_error, pe_order, subtree_error_probabilities

__all__ = [
    "Table3Row",
    "table3_report",
    "TABLE3_RATES",
    "floor_to_sig_figs",
    "present_operations",
    "PropositionReport",
    "proposition_check",
    "ExpansionSample",
    "ExpansionAudit",
    "expansion_audit",
    "evaluate_power_series",
    "CLAIMED_ORDER2_EXPANSION",
    "EXACT_ORDER2_EXPANSION",
]


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


class Table3Row(NamedTuple):
    """Operations per error at one rate, for orders 0, 1, 2; a tuple, equal
    to the tuple of its fields."""

    pf: float
    ops_exact: tuple[float, float, float]
    ops_presented: tuple[str, str, str]


def table3_report() -> tuple[Table3Row, ...]:
    """Operations-per-error at the reference rates for orders 0, 1, 2."""
    rows = []
    for pf in TABLE3_RATES:
        ops = tuple(operations_per_error(pe) for pe in subtree_error_probabilities((pf,), 2))
        rows.append(
            Table3Row(
                pf=pf,
                ops_exact=ops,
                ops_presented=tuple(present_operations(v) for v in ops),
            )
        )
    return tuple(rows)


class PropositionReport(NamedTuple):
    """Audit of "each extra voting level strictly lowers the error rate".

    ``entries`` holds (level, error probability) for levels 1..j_max;
    ``comparisons`` holds (level, decreased?) for each adjacent pair. At
    0 < pf < 1 every level's exact value is positive, so where the earlier
    level's value has underflowed to 0 the comparison reads ``None``: the
    floats cannot tell whether the level decreased. At pf = 0 the zeros
    are exact, and equal zeros read ``False``. The verdict is "holds" if
    every decided comparison strictly decreased, "violated" if any did not,
    and "undetermined" if none is decided; the claim provably fails for
    module error rates at or above one half, and the report simply records
    that rather than treating it as an error. A report is a tuple, equal to
    the tuple of its fields.
    """

    pf: float
    entries: tuple[tuple[int, float], ...]
    comparisons: tuple[tuple[int, bool | None], ...]
    verdict: str


def proposition_check(pf: float, j_max: int) -> PropositionReport:
    """Evaluate levels 1..j_max and test strict decrease between neighbours."""
    j_max = check_order("j_max", j_max)
    if j_max < 2:
        raise ValueError("proposition_check needs j_max >= 2 to compare levels")
    p = check_probability("pf", pf)
    entries = list(enumerate(subtree_error_probabilities((p,), j_max)))[1:]
    comparisons = tuple(
        (j, None if earlier == 0.0 and p > 0.0 else pe < earlier)
        for (_, earlier), (j, pe) in zip(entries, entries[1:])
    )
    decided = [ok for _, ok in comparisons if ok is not None]
    verdict = "undetermined" if not decided else "holds" if all(decided) else "violated"
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


class ExpansionSample(NamedTuple):
    """One sample of ``expansion_audit``; a tuple, equal to the tuple of its fields."""

    p: float
    composed: float
    claimed: float
    abs_difference: float


class ExpansionAudit(NamedTuple):
    """Pointwise comparison of the claimed order-2 expansion vs the composition;
    a tuple, equal to the tuple of its fields."""

    samples: tuple[ExpansionSample, ...]
    max_abs_difference: float


def expansion_audit(pf_samples: Iterable[float]) -> ExpansionAudit:
    """Audit the claimed degree-9 expansion of the order-2 error polynomial.

    For each sample the exact order-2 value ``pe_order(2, p)`` (the
    authoritative form) is evaluated next to the claimed coefficient set,
    and the absolute deviation is reported; ``EXACT_ORDER2_EXPANSION``
    holds the coefficients a correct expansion must have.
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
        max_abs_difference=max(s.abs_difference for s in samples),
    )
