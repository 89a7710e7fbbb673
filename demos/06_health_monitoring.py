"""Self-diagnosis from alarm counts: spotting the degraded corner of a tree.

Runs a two-level network in which one first-level triple hides a badly
degraded module, counts alarm assertions per voter, and flags every voter
whose alarm frequency exceeds an alert level -- without ever looking at
the data path.
"""

from htmr_lab import RandomSource, build_network, run_trials

# a voter alarming on more than this share of operations is flagged
ALERT_LEVEL = 0.05


def main() -> None:
    # leaf error rates: triple 0 healthy, triple 1 carries a 20% module,
    # triple 2 healthy
    leaves = (
        [0.0, 0.0, 0.0]
        + [0.0, 0.2, 0.0]
        + [0.0, 0.0, 0.0]
    )
    net = build_network(2, leaves)
    trials = 100_000
    estimate, counter = run_trials(net, trials, RandomSource(123))

    print(f"Two-level network, {trials} operations, one degraded module")
    print("=" * 60)
    print(f"output errors: {estimate.errors} (single faults are masked)")

    frequencies = [count / counter.trials for count in counter.alarm_counts]
    flagged = tuple(v for v, f in enumerate(frequencies) if f > ALERT_LEVEL)
    print(f"\n{'voter':>5} {'alarms':>8} {'frequency':>10} {'flagged':>8}")
    print("-" * 38)
    for v, count in enumerate(counter.alarm_counts):
        flag = "YES" if v in flagged else ""
        print(f"{v:>5} {count:>8} {frequencies[v]:>10.4f} {flag:>8}")
    print("-" * 38)
    print(f"aggregate alarm rate: {sum(frequencies) / len(frequencies):.4f}")
    print(f"flagged voters: {flagged}")
    print("\nVoter 2 guards the degraded triple: its alarm frequency tracks")
    print("the hidden module's 20% error rate, while the data path stays")
    print("clean. Watching these counters localizes wear before it bites.")


if __name__ == "__main__":
    main()
