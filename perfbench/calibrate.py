"""Time a fixed mix of work that does not involve ``htmr_lab``.

    python3 perfbench/calibrate.py ROWS COLS

prints the seconds the mix took, less the time the host took the
processors away (see ``steal_s``). The benchmark runs it in a fresh process
just before and just after each timed child, and scales that child's times
by it, so a slow spell of the host shows in both and cancels. It runs in a
process of its own because a child forked from a parent that has allocated
large arrays inherits the parent's peak RSS, which would then show in the
child's ``peak_rss_mb``.

The mix is what the program spends its time on: an interpreter loop, then
PCG64 fills of fresh ROWS x COLS arrays with a comparison and a row sum, on
one thread and then on two. ROWS x COLS is the workload's median uniform
block, so the mix has the workload's working-set size: a host that is
contended slows a memory-bound workload less than a compute-bound one.
"""

import os
import sys
import threading
import time

PY_LOOPS = 1_000_000
DRAWS_PER_PHASE = 1 << 23


def steal_s() -> float:
    """Seconds the host has run something else while this machine's processors
    were ready to run, averaged over the processors (the ``steal`` field of
    ``/proc/stat``); 0 where unknown."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        cpus = sum(1 for line in lines if line.startswith("cpu") and line[3:4].isdigit())
        return int(lines[0].split()[8]) / os.sysconf("SC_CLK_TCK") / max(cpus, 1)
    except (OSError, IndexError, ValueError):
        return 0.0


def fills(seed: int, shape: tuple[int, int]) -> None:
    import numpy as np

    gen = np.random.Generator(np.random.PCG64(seed))
    for _ in range(max(1, round(DRAWS_PER_PHASE / (shape[0] * shape[1])))):
        (gen.random(shape) < 0.5).sum(axis=1)


def main() -> None:
    shape = (int(sys.argv[1]), int(sys.argv[2]))
    import numpy  # noqa: F401  (imported before the clock starts)

    stolen = steal_s()
    start = time.perf_counter()
    total = 0
    for i in range(PY_LOOPS):
        total += i & 7
    fills(0, shape)
    threads = [threading.Thread(target=fills, args=(seed, shape)) for seed in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(time.perf_counter() - start - (steal_s() - stolen))


if __name__ == "__main__":
    main()
