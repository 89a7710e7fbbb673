"""Closed-form error models: masking curves, reduction rates, and the
operations-per-error table.

Shows the two-of-three polynomial contracting error rates below one half
and amplifying them above it, how nesting a second voting level deepens
the reduction, and what that buys in operations between errors.
"""

from htmr_lab import (
    SweepConfig,
    pe_first,
    pe_order,
    pem_first,
    reduction_claims_check,
    sweep_analytic,
    table3_report,
)


def main() -> None:
    print("Error probability vs module error rate (pfmb = pf for pem)")
    print("=" * 66)
    print(f"{'pf':>6} {'pe1':>12} {'pem1':>12} {'pe2':>12} {'note'}")
    print("-" * 66)
    for pf in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9):
        pe1 = pe_first(pf)
        pem1 = pem_first(pf, pf)
        pe2 = pe_order(2, pf)
        note = ""
        if pf == 0.5:
            note = "fixed point: voting neither helps nor hurts"
        elif pf > 0.5:
            note = "above one half the voter amplifies errors"
        print(f"{pf:>6} {pe1:>12.6g} {pem1:>12.6g} {pe2:>12.6g} {note}")

    print("\nReduction rates in decades (log10 of the improvement ratio)")
    print("=" * 66)
    rows = sweep_analytic(
        SweepConfig(pf_min=0.001, pf_max=0.1, pf_steps=3, pf_scale="log", orders=(1, 2))
    )
    print(f"{'pf':>8} {'order':>5} {'re':>10} {'re/module':>10}")
    print("-" * 40)
    for row in rows:
        print(f"{row.pf:>8.4g} {row.order:>5} {row.re:>10.4f} {row.re_per_module:>10.4f}")

    claims = reduction_claims_check(0.1)
    print(f"\nAt pf = 0.1 the two-level hierarchy beats the bare module by "
          f"{claims.vs_bare:.1f}x")
    print(f"and the one-level network by {claims.vs_one_level:.1f}x "
          f"(claims hold: {claims.bare_claim_holds and claims.one_level_claim_holds})")

    print("\nOperations between output errors")
    print("=" * 48)
    print(f"{'pf':>7} {'module':>10} {'1 level':>10} {'2 levels':>10}")
    print("-" * 48)
    for row in table3_report():
        module, one, two = row.ops_presented
        print(f"{row.pf:>7} {module:>10} {one:>10} {two:>10}")


if __name__ == "__main__":
    main()
