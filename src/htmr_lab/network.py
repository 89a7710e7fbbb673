"""Structural simulation of hierarchical TMR networks.

A network of order ``j`` is a complete ternary tree: 3**j leaf modules at
the bottom, (3**j - 1) / 2 voters above them, every voter taking exactly
three children. Each level's voters take consecutive triples of the level
below, left to right, and voters are indexed breadth-first from the root
(root = 0). Order 0 is the bare module: one leaf, no voters, and the leaf
is the root.

A leaf is its error rate, and a rate of 0 is a fault-free module. A
network holds its leaves the way ``reliability.tree_error_probability``
takes them: 3**k rates, k <= j, repeated across the 3**j leaves, so one
rate describes a uniform tree and a triple describes a tiled scenario.

Every voter shares the same fault rate and follows ``reliability.voter``:
with that probability its data path fails and it passes its first child
through un-voted, otherwise it emits the majority of its children. The
disagreement alarm is a parallel tap, raised from the children either
way. ``run_trials`` returns the alarms as a ``FaultStatusCounter``: voter
``v``'s observed alarm frequency is ``counter.alarm_counts[v] /
counter.trials``.

An order-j tree is three order-(j - 1) trees under one voter, so each of
its trials holds one trial of every lower order k: the leftmost order-k
subtree, whose root is the first node of level k. ``run_trials`` counts
the errors of those roots too (``EmpiricalEstimate.subtree``).

Draw order: a trial's fault bits come in a fixed order. Leaves at a
nonzero rate come first (left to right), then, when the voter fault rate is
nonzero, one bit per voter, bottom level first, left to right within a
level. A leaf at rate 0 has no bit; with a zero voter fault rate voters
have none.

Only ``simulate_bit``, the scalar reference semantics, pushes a reference
bit through the tree, given one trial's fault bits. ``run_trials`` works on
error bits ("this node's output differs from the reference"), one tree
level per step. That is exact: inverting all three inputs of a voter
inverts its majority and its pass-through output and leaves its alarm
unchanged, so every node's error bit and every alarm are the same for
either reference bit.

Draw discipline, fixed so every run is bit-reproducible from its seed: a
block holds one row per fault bit, in draw order, and one lane per trial,
packed 64 trials to a ``uint64`` word (lane t is bit t % 64 of word
t // 64). Consecutive rows at equal rates form a run (the faulty leaves at
one rate, then the voters), and each run is drawn straight into its words
by one ``RandomSource.bernoulli_lanes`` call on the block's stream, run
after run, piece by piece, in two stages per piece: a sparse Poisson
residual on bool cells, packed, then bit-sliced words at the rate rounded
down to a multiple of 1/32 ORed in. The sum is exact (see
``bernoulli_lanes``). A network with no fault bits draws nothing and
derives no stream. Each process of a ``run_trials`` call draws every
block it runs into its workspace, one pair of flat buffers: packed rows
and ``SCRATCH_CELLS`` bool cells. A block is a C-contiguous view of the front
of the rows, so the sampler always fills the buffer itself. A thread keeps
its workspace from one call to the next, so a sweep's units reuse pages
already touched rather than faulting in fresh ones. A forked worker draws
into its copy-on-write copy of the caller's workspace, or a new one if the
caller has none yet, and the copy goes when the worker exits with its call.

Work sizing: a block's width is ``block_trials(net)``, about
``BLOCK_BYTES`` of packed rows, so every block of every network costs
about the same to draw and vote, and its buffers stay near half a MiB
whatever the order. A thread's workspace holds about ``BLOCK_BYTES`` of
rows plus ``SCRATCH_CELLS`` cells for every network of up to 65,536 block
rows (order 10 without voter faults, order 9 with); above that it grows to
the largest 64-trial block the thread has drawn, at most
``MAX_BLOCK_BYTES``. A network whose 64-trial block would need more than
``MAX_BLOCK_BYTES`` is refused before anything is drawn. A call forks
workers only for at least ``BITS_PER_WORKER`` fault bits (trials times
rows) a process.

Fan-out: a large call's blocks run on the caller and forked worker
processes, each pinned to its own processor (see ``fanout``), not on
threads: the sampler holds the GIL, and on a 2-vCPU VM the kernel kept an
unpinned second thread or process on the caller's vCPU. Every process runs
fixed blocks and returns integer sums, so the results never depend on how
many processes there are. A worker that sends no sums, because a block
raised or it died or was interrupted on its own, has its share run again
by the caller.

Lane layout: each row is padded to whole words, and the sampler clears
the padding lanes of every row, so they never err or alarm. Every level
votes on words, and the alarm and error counts are popcounts.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .faults import SCRATCH_CELLS, RandomSource, check_integer, check_probability
from .reliability import check_leaves, check_order, voter

__all__ = [
    "HtmrNetwork",
    "build_network",
    "tile_scenario",
    "simulate_bit",
    "run_trials",
    "EmpiricalEstimate",
    "FaultStatusCounter",
    "block_trials",
]

# Bytes of packed rows a block aims at. Blocks are the unit of parallelism:
# each process runs fixed blocks by index, each from its own derived stream, so
# results never depend on the worker count -- only on (stream key, network,
# trial count). Wide enough that per-block costs (a derived stream, a
# sampler call per run) are small beside the draws, narrow enough that a
# block's rows and the kernel's levels stay in cache.
BLOCK_BYTES = 1 << 19

# The most bytes one 64-trial block, a word per row, may need: order 15
# with voter faults (172 MB) is the highest order that fits.
MAX_BLOCK_BYTES = 1 << 28

# Fault bits (trials times block rows) a call must draw for each process it
# runs on; below that a worker's fork, pipe and reaping cost more than it
# saves (a fork for every unit of the 21-point protocol cost about 5 ms a
# call).
BITS_PER_WORKER = 1 << 26


@dataclass(frozen=True)
class HtmrNetwork:
    """Immutable description of a complete ternary voting tree.

    ``leaves`` holds 3**k leaf error rates, k <= ``order``, tiled across
    the tree's 3**order leaves (see ``tile_scenario``).
    """

    order: int
    leaves: tuple[float, ...]
    voter_fault_rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", check_order("order", self.order))
        object.__setattr__(self, "leaves", check_leaves(self.leaves, self.order))
        check_probability("voter_fault_rate", self.voter_fault_rate)

    @property
    def leaf_count(self) -> int:
        return 3 ** self.order

    @property
    def voter_count(self) -> int:
        return (3 ** self.order - 1) // 2


def build_network(
    order: int,
    leaves: Union[float, Sequence[float]],
    voter_fault_rate: float = 0.0,
) -> HtmrNetwork:
    """Construct and validate a network.

    ``leaves`` is one error rate for every leaf, or 3**k rates, k <=
    ``order``, tiled across the tree.
    """
    leaves = (leaves,) if np.ndim(leaves) == 0 else tuple(leaves)
    return HtmrNetwork(order=order, leaves=leaves, voter_fault_rate=voter_fault_rate)


def tile_scenario(leaves: Sequence[float], order: int) -> tuple[float, ...]:
    """Repeat 3**k leaf error rates across the 3**``order`` leaves of a tree.

    One rate fills every leaf; a triple repeats on every bottom voter's
    three modules (9 leaves at order 2), and so on.
    """
    order = check_order("order", order)
    leaves = check_leaves(leaves, order)
    return leaves * (3 ** order // len(leaves))


def simulate_bit(
    net: HtmrNetwork, reference_bit: int, hits: Sequence
) -> tuple[int, tuple[int, ...]]:
    """Push one reference bit through the tree, one level at a time.

    ``hits`` holds one trial's fault bits in draw order: a set bit inverts
    its leaf's output or makes its voter pass its first child through. Each
    level votes consecutive triples of the level below with ``voter``, its
    voters' fault bits taken left to right. Returns the root output and the
    per-voter alarm bits, root level first (breadth-first voter indices).
    This scalar walk is the reference semantics that the vectorized
    ``run_trials`` is held to.
    """
    from .voting import check_bit

    reference_bit = check_bit("reference_bit", reference_bit)
    leaves = tile_scenario(net.leaves, net.order)
    faulty_voters = net.voter_fault_rate > 0.0
    hits = [bool(h) for h in hits]
    draws = sum(leaf > 0.0 for leaf in leaves) + (net.voter_count if faulty_voters else 0)
    if len(hits) != draws:
        raise ValueError(f"this network takes {draws} fault bits per trial, got {len(hits)}")
    bits = iter(hits)
    level = [reference_bit ^ next(bits) if leaf > 0.0 else reference_bit for leaf in leaves]
    alarms: list[int] = []
    while len(level) > 1:
        voted = [
            voter(*level[i:i + 3], next(bits) if faulty_voters else 0)
            for i in range(0, len(level), 3)
        ]
        level = [out for out, _ in voted]
        alarms = [alarm for _, alarm in voted] + alarms
    return level[0], tuple(alarms)


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Monte-Carlo error-probability estimate with its binomial standard error.

    ``subtree_errors[k]``, where given, counts the errors of the root of
    the leftmost order-k subtree over the same trials, k = 0..order; the
    last entry is ``errors``.
    """

    trials: int
    errors: int
    subtree_errors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.errors <= self.trials:
            raise ValueError(
                f"errors must lie in 0..trials ({self.trials}), got {self.errors}"
            )

    def subtree(self, k: int) -> "EmpiricalEstimate":
        """The estimate of the leftmost order-``k`` subtree, from the same trials."""
        return EmpiricalEstimate(trials=self.trials, errors=self.subtree_errors[k])

    @property
    def pe_hat(self) -> float:
        return self.errors / self.trials

    @property
    def std_err(self) -> float:
        p = self.pe_hat
        return math.sqrt(p * (1.0 - p) / self.trials)


@dataclass(frozen=True)
class FaultStatusCounter:
    """Accumulated alarm assertions per voter over a number of trials."""

    alarm_counts: tuple[int, ...]
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        for v, count in enumerate(self.alarm_counts):
            if not 0 <= count <= self.trials:
                raise ValueError(
                    f"alarm count of voter {v} must lie in 0..{self.trials}, got {count}"
                )


def _simulate_block(net: HtmrNetwork, lanes: np.ndarray, drawn: np.ndarray):
    """Vectorized simulation of one block, one tree level per step.

    ``lanes`` holds one packed row per fault bit in draw order (leaves at a
    nonzero rate, then voters bottom-up when the voter fault rate is
    nonzero), a trial per lane, with zero padding lanes; ``drawn`` marks
    the leaves that have a row. Every level votes whole words with one
    ``voter`` call. Rows carry error bits, so a block is bit-identical to
    running ``simulate_bit`` on each of its trials. Returns the errors of
    the first node of every level, leaves first (the root of the leftmost
    order-k subtree at level k), and every voter's alarm count.
    """
    col = int(np.count_nonzero(drawn))
    if col == net.leaf_count:
        x = lanes[:col]
    else:
        x = np.zeros((net.leaf_count, lanes.shape[1]), dtype=np.uint64)
        x[drawn] = lanes[:col]
    errors = np.zeros(net.order + 1, dtype=np.int64)
    errors[0] = np.bitwise_count(x[0]).sum()
    alarm_counts = np.zeros(net.voter_count, dtype=np.int64)
    first = net.voter_count
    for k in range(1, net.order + 1):
        # the children of a level's voters are consecutive triples of rows
        a, b, c = x[0::3], x[1::3], x[2::3]
        w = len(a)
        first -= w
        f = None
        if net.voter_fault_rate > 0.0:
            f, col = lanes[col:col + w], col + w
        x, alarm = voter(a, b, c, f)
        alarm_counts[first:first + w] = np.bitwise_count(alarm).sum(axis=1, dtype=np.int64)
        errors[k] = np.bitwise_count(x[0]).sum()
    return errors, alarm_counts


def _processors() -> int:
    """Processes a call may run on: the processors of this process's affinity set.

    It is 1 without ``os.fork`` and ``os.sched_setaffinity``, or beside
    another live Python thread: a fork copies only the forking thread, so a
    lock another thread holds would stay locked in the worker.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _draw_runs(net: HtmrNetwork) -> list[tuple[int, int, float]]:
    """Runs of consecutive equal-rate fault bits, in draw order.

    Each run is ``(lo, hi, rate)``: rows ``lo``..``hi - 1`` of a block.
    """
    rates = [rate for rate in tile_scenario(net.leaves, net.order) if rate > 0.0]
    if net.voter_fault_rate > 0.0:
        rates += [net.voter_fault_rate] * net.voter_count
    runs = []
    lo = 0
    for rate, run in itertools.groupby(rates):
        hi = lo + len(list(run))
        runs.append((lo, hi, rate))
        lo = hi
    return runs


def _block_rows(net: HtmrNetwork) -> int:
    """Rows of one block: its fault bits, or its leaves where there are more.

    The kernel's bottom level holds a row per leaf, drawn or not.
    """
    faulty = sum(rate > 0.0 for rate in net.leaves) * (net.leaf_count // len(net.leaves))
    if net.voter_fault_rate > 0.0:
        faulty += net.voter_count
    return max(faulty, net.leaf_count)


def block_trials(net: HtmrNetwork) -> int:
    """Trials per block of ``net``: ``BLOCK_BYTES`` of packed block rows.

    The width is rounded down to whole 64-trial words, and it is never
    below one word. Raises ``ValueError``, naming the bytes, where one
    64-trial block would need more than ``MAX_BLOCK_BYTES``.
    """
    row_bytes = 8 * _block_rows(net)
    if row_bytes > MAX_BLOCK_BYTES:
        raise ValueError(
            f"one block of 64 trials at order {net.order} needs {row_bytes:,} bytes "
            f"({row_bytes / 2**20:.1f} MiB) of packed rows, more than the "
            f"{MAX_BLOCK_BYTES:,}-byte cap; simulate a lower order"
        )
    return 64 * max(1, BLOCK_BYTES // row_bytes)


# Each thread's ``rows`` and ``cells`` buffers (see ``_block_buffers``).
_workspace = threading.local()


def _block_buffers(runs: list[tuple[int, int, float]], m: int):
    """The calling thread's buffers for blocks of up to ``m`` trials.

    Returns views of the front of the thread's workspace: a flat ``uint64``
    buffer for the packed rows and a flat bool buffer for the Poisson stage
    of one sampler piece. A thread's first call reserves ``BLOCK_BYTES`` of
    rows and ``SCRATCH_CELLS`` cells, enough for any default block of up
    to 65,536 rows, and a block that needs more grows the buffer to its
    size; the workspace never shrinks, so every later call on the thread
    reuses the pages it has touched. Where a buffer cannot grow, the
    ``MemoryError`` names the bytes one block needs.
    """
    words = (runs[-1][1] if runs else 0) * -(-m // 64)
    cells = min(max((hi - lo for lo, hi, _ in runs), default=0) * m, SCRATCH_CELLS)
    rows = getattr(_workspace, "rows", None)
    scratch = getattr(_workspace, "cells", None)
    try:
        if rows is None or rows.size < words:
            rows = _workspace.rows = np.empty(max(words, BLOCK_BYTES // 8), dtype=np.uint64)
        if scratch is None:
            scratch = _workspace.cells = np.empty(SCRATCH_CELLS, dtype=bool)
    except MemoryError:
        need = 8 * words + cells
        raise MemoryError(
            f"one block of {m} trials needs {need:,} bytes ({need / 2**30:.1f} GiB) "
            "of fault bits, more than can be allocated; simulate a lower order "
            "or fewer trials"
        ) from None
    return rows[:words], scratch[:cells]


def _draw_block(
    runs: list[tuple[int, int, float]],
    m: int,
    rng: RandomSource,
    b: int,
    buffers: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Block ``b``'s fault bits for ``m`` trials, packed: a row per bit, a lane per trial.

    The rows fill the front of the ``_block_buffers`` pair ``buffers``.
    Each run of rows is drawn in place by ``RandomSource.bernoulli_lanes``
    from ``rng.derive(b)``, run after run; with no runs nothing is derived
    or drawn.
    """
    rows = runs[-1][1] if runs else 0
    words = -(-m // 64)
    # a C-contiguous view, so each run's rows are a view the sampler fills
    lanes, cells = buffers[0][:rows * words].reshape(rows, words), buffers[1]
    if runs:
        stream = rng.derive(b)
        for lo, hi, rate in runs:
            stream.bernoulli_lanes(lanes[lo:hi], m, rate, cells)
    return lanes


def run_trials(
    net: HtmrNetwork,
    n: int,
    rng: RandomSource,
    workers: int = 1,
    block_size: int | None = None,
) -> tuple[EmpiricalEstimate, FaultStatusCounter]:
    """Simulate ``n`` independent trials through the network.

    Trials are processed in fixed blocks of ``block_size`` trials,
    ``block_trials(net)`` unless a test overrides it; block ``b`` covers
    global trials [b * block_size, ...) and draws exclusively from
    ``rng.derive(b)``. Partitioning therefore depends only on the network
    and ``n``, never on ``workers``: any worker count yields the identical
    estimate and alarm counter. A network with no fault bits derives no
    block stream. Errors are trials whose root output differs from the
    reference bit, and ``estimate.subtree(k)`` counts the root of the
    leftmost order-k subtree on the same trials. ``n`` is an integer in
    1..2**63 - 1, the range of the int64 counters. A network too large for
    one 64-trial block (see ``block_trials``) is refused before anything is
    drawn.

    The call runs on P processes: the caller and P - 1 forked workers, each
    pinned to its own processor (see ``fanout.fan_out``), and process k runs
    blocks k, k + P, k + 2P, ... P is ``workers`` capped at the blocks, at
    the processors this process may use and at the multiples of
    ``BITS_PER_WORKER`` in the call's fault bits (``n`` times the block
    rows), so a small call runs on the caller alone. The caller also runs
    alone where it cannot fork safely (see ``_processors``). Each process
    keeps integer running sums of its blocks' errors and alarm counts,
    which are exact in any order, and the call adds them up at the end, so
    memory does not grow with ``n``. A worker that sends no sums, because a
    block raised or it died or was interrupted on its own, has its share
    run again by the caller; so if a block raises, the caller raises the
    error itself, with its own type, once no worker is left.

    Every process draws into its workspace (see ``_block_buffers``): the
    calling thread keeps its own for later calls, and a worker's copy goes
    when the worker exits. A workspace's stale bits never reach a result,
    because every block's rows are drawn in full before they are voted.
    """
    n = check_integer("trial count", n)
    if not 1 <= n < 1 << 63:
        raise ValueError(f"trial count must lie in 1..2**63 - 1, got {n}")
    default = block_trials(net)  # refuses a network too large for any block
    block_size = check_integer("block_size", default if block_size is None else block_size)
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    workers = check_integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    runs = _draw_runs(net)
    drawn = np.array(tile_scenario(net.leaves, net.order)) > 0.0
    blocks = (n - 1) // block_size + 1
    levels = net.order + 1

    def work(first, stride):
        # the error and alarm sums of blocks first, first + stride, ...;
        # every block's bits are drawn into this process's workspace
        sums = np.zeros(levels + net.voter_count, dtype=np.int64)
        errors, counts = sums[:levels], sums[levels:]
        buffers = _block_buffers(runs, min(block_size, n))
        for b in range(first, blocks, stride):
            m = min(block_size, n - b * block_size)
            block_errors, alarm_counts = _simulate_block(
                net, _draw_block(runs, m, rng, b, buffers), drawn
            )
            errors += block_errors
            counts += alarm_counts
        return sums

    paid = max(1, n * _block_rows(net) // BITS_PER_WORKER)
    procs = min(workers, blocks, _processors(), paid)
    if procs > 1:
        from .fanout import fan_out

        sums = fan_out(work, procs)
    else:
        sums = work(0, 1)

    subtree_errors = tuple(sums[:levels].tolist())
    estimate = EmpiricalEstimate(
        trials=n, errors=subtree_errors[-1], subtree_errors=subtree_errors
    )
    counter = FaultStatusCounter(alarm_counts=tuple(sums[levels:].tolist()), trials=n)
    return estimate, counter
