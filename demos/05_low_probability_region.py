"""The very-low error-rate regime, where hierarchy pays off most.

Below module rates of about 1e-4 the two-level network reduces errors by
ten decades and more. The study is an analytic sweep of orders 1 and 2 on
a logarithmic grid, the same table as ``htmr-lab analytic --pf-scale log
--orders 1,2``. Per redundant module the two depths converge to the same
reduction rate.
"""

from htmr_lab import SweepConfig, sweep_analytic


def main() -> None:
    cfg = SweepConfig(pf_min=1e-8, pf_max=1e-3, pf_steps=11, pf_scale="log", orders=(1, 2))
    rows = sweep_analytic(cfg)

    print("Reduction rates in decades at very low module error rates")
    print("=" * 76)
    print(f"{'pf':>9} {'re1':>8} {'re2':>8} {'re1/3':>8} {'re2/9':>8} {'gap':>10}")
    print("-" * 76)
    # rows come ordered by rate, then order: order 1, then order 2, per point
    for one, two in zip(rows[0::2], rows[1::2]):
        print(
            f"{one.pf:>9.2e} {one.re:>8.3f} {two.re:>8.3f} "
            f"{one.re_per_module:>8.4f} {two.re_per_module:>8.4f} "
            f"{two.re_per_module - one.re_per_module:>10.2e}"
        )
    print("-" * 76)
    print("The per-module columns agree to a few millionths of a decade:")
    print("both depths buy almost exactly the same reduction per redundant")
    print("module in this regime, so deeper nesting scales without waste.")

    print("\nNo empirical column here: an order-2 error rate near 1e-11 would")
    print("need on the order of 1e12 simulated trials to observe even once.")


if __name__ == "__main__":
    main()
