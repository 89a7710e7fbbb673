"""Forked worker processes, each pinned to a processor, for ``network.run_trials``.

A large ``run_trials`` call splits its blocks over the caller and forked
workers (see ``fan_out``); the module is imported only by a call that
forks. They are processes, not threads, because the sampler's numpy calls
(``Generator.integers``, ``np.bitwise_count``) and the Python between them
hold the GIL: pinned threads drew no faster than one. They are pinned,
because on a 2-vCPU VM the kernel kept an unpinned second thread or
process on the caller's vCPU: two threads of numpy operations that release
the GIL ran at 0.88-0.95 times the speed of one unpinned and at 1.78-1.98
times pinned, and an unpinned worker process left the CLI wall time of
order 4 with voter faults as it was, where a pinned one cut it (see
``BENCH_20.json``). They are forked, not spawned, because numpy is already
imported when a worker forks, where a spawned worker would import it
again (about 0.17 s).

Each process returns exact integer sums of fixed blocks, so a result does
not depend on which process ran a share. A worker sends its share's sums
and exits 0, or exits 1 and sends nothing; the caller runs any share it
did not get itself, so an error a share's blocks raise reaches the caller
with its own type and traceback, and a worker that dies, or is interrupted
on its own, costs one re-run. A fork copies only the forking thread, so
``network`` forks only where no other Python thread is alive. On Python
3.12 and later, ``os.fork`` warns in a process that runs native threads,
such as an OpenBLAS pool, unless ``OPENBLAS_NUM_THREADS=1`` (``cli`` sets it).
"""

from __future__ import annotations

import os
import signal
from typing import NoReturn

import numpy as np

__all__ = ["fan_out"]


def _send_sums(work, k: int, procs: int, cpu: int, w: int) -> NoReturn:
    """Worker ``k``'s life after the fork: pinned to ``cpu``, run share ``k``, send, exit.

    The worker writes the share's int64 sums to the pipe's write end ``w``
    and exits 0, or, if anything raises, exits 1. It leaves by
    ``os._exit``, so no exit handler or buffer of the caller's runs twice.
    """
    code = 1
    try:
        os.sched_setaffinity(0, {cpu})
        sums = work(k, procs)
        with open(w, "wb") as pipe:
            pipe.write(sums)
        code = 0
    finally:
        os._exit(code)


def fan_out(work, procs: int) -> np.ndarray:
    """The sum of ``work(k, procs)`` over shares k = 0..``procs`` - 1.

    ``work`` returns a share's int64 sums. Shares 1.. run in forked worker
    processes: worker k is pinned to entry k mod n of the n sorted
    processors of the caller's affinity set, and the caller runs share 0
    pinned to the first of them; its own affinity is restored when the
    call ends. Every worker's pipe is drained before the worker is reaped.
    A worker that exits other than 0, or without sending all its sums (it
    raised, died, or was interrupted on its own), has its share run again
    by the caller, so an error that share raises is raised by the caller.
    If the caller's own share raises, or the call is interrupted, every
    worker left is killed and reaped first.
    """
    affinity = os.sched_getaffinity(0)
    cpus = sorted(affinity)
    live = []  # (share, pid, read end of its pipe) of every worker not yet reaped
    try:
        os.sched_setaffinity(0, cpus[:1])
        for k in range(1, procs):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _send_sums(work, k, procs, cpus[k % len(cpus)], w)
            os.close(w)
            live.append((k, pid, open(r, "rb")))
        total = work(0, procs)
        while live:
            k, pid, pipe = live[0]
            with pipe:
                body = pipe.read()
            _, status = os.waitpid(pid, 0)
            live.pop(0)
            if status == 0 and len(body) == total.nbytes:
                total += np.frombuffer(body, dtype=np.int64)
            else:
                total += work(k, procs)
        return total
    finally:
        for _, pid, pipe in live:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
        os.sched_setaffinity(0, affinity)
