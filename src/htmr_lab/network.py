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

Every voter shares the same fault rate: with that probability its data
path fails and it passes its first child through un-voted, otherwise it
emits the majority of its children. The disagreement alarm is computed
from the children either way (the alarm logic is a parallel tap, not part
of the failed data path).

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
derives no stream. Each thread of a ``run_trials`` call draws every block
it claims into one pair of flat buffers, packed rows and at most
``SCRATCH_CELLS`` bool cells, allocated once per call; a block is a
C-contiguous view of the front of the rows, so the sampler always fills
the buffer itself.

Work sizing: a block's width is ``block_trials(net)``, about
``BLOCK_BYTES`` of packed rows, so every block of every network costs
about the same to draw and vote, and its buffers stay near half a MiB
whatever the order. A network whose 64-trial block would need more than
``MAX_BLOCK_BYTES`` is refused before anything is drawn. A call starts
helper threads only for at least ``BITS_PER_THREAD`` fault bits (trials
times rows) a thread.

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

from .faults import SCRATCH_CELLS, RandomSource, check_probability
from .reliability import check_leaves, check_order
from .voting import alarm_signal, check_bit, majority_vote

__all__ = [
    "HtmrNetwork",
    "build_network",
    "tile_scenario",
    "simulate_bit",
    "run_trials",
    "EmpiricalEstimate",
    "FaultStatusCounter",
    "HealthReport",
    "health_report",
    "block_trials",
]

# Bytes of packed rows a block aims at. Blocks are the unit of parallelism:
# threads claim them by index and each draws from its own derived stream, so
# results never depend on the worker count -- only on (stream key, network,
# trial count). Wide enough that per-block costs (a derived stream, a
# sampler call per run) are small beside the draws, narrow enough that a
# block's rows and the kernel's levels stay in cache.
BLOCK_BYTES = 1 << 19

# The most bytes one 64-trial block, a word per row, may need: order 15
# with voter faults (172 MB) is the highest order that fits.
MAX_BLOCK_BYTES = 1 << 28

# Fault bits (trials times block rows) a call must draw for each thread it
# runs on; below that a helper thread's start and its contention for the
# interpreter cost more than it saves.
BITS_PER_THREAD = 1 << 26


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
    level votes consecutive triples of the level below, then applies its
    voters' fault bits left to right. Returns the root output and the
    per-voter alarm bits, root level first (breadth-first voter indices).
    This scalar walk is the reference semantics that the vectorized
    ``run_trials`` is held to.
    """
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
        triples = [level[i:i + 3] for i in range(0, len(level), 3)]
        alarms = [alarm_signal(t) for t in triples] + alarms
        level = [majority_vote(t) for t in triples]
        if faulty_voters:
            level = [t[0] if next(bits) else v for t, v in zip(triples, level)]
    return level[0], tuple(alarms)


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Monte-Carlo error-probability estimate with its binomial standard error."""

    trials: int
    errors: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.errors <= self.trials:
            raise ValueError(
                f"errors must lie in 0..trials ({self.trials}), got {self.errors}"
            )

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


@dataclass(frozen=True)
class HealthReport:
    """Per-voter alarm frequencies with over-threshold flagging."""

    frequencies: tuple[float, ...]
    aggregate_rate: float
    flagged_voters: tuple[int, ...]
    alert_level: float


def health_report(counter: FaultStatusCounter, alert_level: float = 0.05) -> HealthReport:
    """Summarize a fault-status counter.

    ``aggregate_rate`` is the mean per-voter alarm frequency; voters whose
    individual frequency exceeds ``alert_level`` are flagged.
    """
    if counter.trials < 1:
        raise ValueError("health_report needs at least one observed trial")
    check_probability("alert_level", alert_level)
    freqs = tuple(c / counter.trials for c in counter.alarm_counts)
    aggregate = sum(freqs) / len(freqs) if freqs else 0.0
    flagged = tuple(v for v, f in enumerate(freqs) if f > alert_level)
    return HealthReport(
        frequencies=freqs,
        aggregate_rate=aggregate,
        flagged_voters=flagged,
        alert_level=alert_level,
    )


def _simulate_block(net: HtmrNetwork, lanes: np.ndarray, drawn: np.ndarray):
    """Vectorized simulation of one block, one tree level per step.

    ``lanes`` holds one packed row per fault bit in draw order (leaves at a
    nonzero rate, then voters bottom-up when the voter fault rate is
    nonzero), a trial per lane, with zero padding lanes; ``drawn`` marks
    the leaves that have a row. Every level votes whole words. Rows carry
    error bits, so a block is bit-identical to running ``simulate_bit`` on
    each of its trials.
    """
    col = int(np.count_nonzero(drawn))
    if col == net.leaf_count:
        x = lanes[:col]
    else:
        x = np.zeros((net.leaf_count, lanes.shape[1]), dtype=np.uint64)
        x[drawn] = lanes[:col]
    alarm_counts = np.zeros(net.voter_count, dtype=np.int64)
    first = net.voter_count
    while len(x) > 1:
        # the children of a level's voters are consecutive triples of rows
        a, b, c = x[0::3], x[1::3], x[2::3]
        w = len(a)
        first -= w
        alarm_counts[first:first + w] = np.bitwise_count((a ^ b) | (a ^ c)).sum(
            axis=1, dtype=np.int64
        )
        x = (a & b) | (c & (a | b))
        if net.voter_fault_rate > 0.0:
            # a failed voter passes its first child through
            x ^= (x ^ a) & lanes[col:col + w]
            col += w
    return int(np.bitwise_count(x[0]).sum()), alarm_counts


def _processors() -> int:
    """Processors this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def _block_buffers(runs: list[tuple[int, int, float]], m: int):
    """One thread's buffers for blocks of up to ``m`` trials.

    Returns a flat ``uint64`` buffer for the packed rows and a flat bool
    buffer for the Poisson stage of one sampler piece. Where they cannot be
    allocated, the ``MemoryError`` names the bytes one block needs.
    """
    words = (runs[-1][1] if runs else 0) * -(-m // 64)
    cells = min(max((hi - lo for lo, hi, _ in runs), default=0) * m, SCRATCH_CELLS)
    try:
        return np.empty(words, dtype=np.uint64), np.empty(cells, dtype=bool)
    except MemoryError:
        need = 8 * words + cells
        raise MemoryError(
            f"one block of {m} trials needs {need:,} bytes ({need / 2**30:.1f} GiB) "
            "of fault bits, more than can be allocated; simulate a lower order "
            "or fewer trials"
        ) from None


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
    reference bit. ``n`` lies in 1..2**63 - 1, the range of the int64
    alarm counters. A network too large for one 64-trial block (see
    ``block_trials``) is refused before anything is drawn.

    The calling thread and up to ``workers - 1`` helper threads claim
    blocks by index. There are never more threads in all than there are
    blocks, processors this process may use, or multiples of
    ``BITS_PER_THREAD`` in the call's fault bits (``n`` times the block
    rows), so a small call runs on the caller alone. Each thread keeps
    integer running sums of its blocks' errors and alarm counts, which are
    exact in any order, and the call adds them up at the end, so memory
    does not grow with ``n``. If a block raises, the threads stop
    claiming, every helper is joined and the call raises that error.
    """
    if not 1 <= n < 1 << 63:
        raise ValueError(f"trial count must lie in 1..2**63 - 1, got {n}")
    default = block_trials(net)  # refuses a network too large for any block
    block_size = default if block_size is None else block_size
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    runs = _draw_runs(net)
    drawn = np.array(tile_scenario(net.leaves, net.order)) > 0.0
    blocks = (n - 1) // block_size + 1
    claims = itertools.count()
    failures = []
    sums = []

    def work():
        # claim blocks by index until none are left or any thread has failed;
        # every block's bits are drawn into this thread's one pair of buffers
        errors, counts = 0, np.zeros(net.voter_count, dtype=np.int64)
        try:
            buffers = _block_buffers(runs, min(block_size, n))
            while not failures and (b := next(claims)) < blocks:
                m = min(block_size, n - b * block_size)
                block_errors, alarm_counts = _simulate_block(
                    net, _draw_block(runs, m, rng, b, buffers), drawn
                )
                errors += block_errors
                counts += alarm_counts
        except BaseException as exc:
            failures.append(exc)
        sums.append((errors, counts))

    paid = max(1, n * _block_rows(net) // BITS_PER_THREAD)
    threads = min(workers, blocks, _processors(), paid)
    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]

    errors = sum(errors for errors, _ in sums)
    alarm_counts = tuple(int(c) for c in sum(counts for _, counts in sums))
    estimate = EmpiricalEstimate(trials=n, errors=errors)
    counter = FaultStatusCounter(alarm_counts=alarm_counts, trials=n)
    return estimate, counter
