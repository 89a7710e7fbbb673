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

Only ``simulate_bit``, the scalar reference semantics, pushes a reference
bit through the tree. ``run_trials`` works on error bits ("this node's
output differs from the reference"), one tree level per step. That is
exact: inverting all three inputs of a voter inverts its majority and its
pass-through output and leaves its alarm unchanged, so every node's error
bit and every alarm are the same for either reference bit.

Draw discipline, fixed so every run is bit-reproducible from its seed:
within a trial, leaves at a nonzero rate draw first (left to right), then,
when the voter fault rate is nonzero, every voter draws once, bottom level
first, left to right within a level. A leaf at rate 0 never draws; with a
zero voter fault rate voters never draw.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .faults import RandomSource, check_probability, module_output
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
    "DEFAULT_BLOCK_SIZE",
]

# Trials per simulation block. Blocks are the unit of parallelism: threads
# claim them by index and each draws from its own derived stream, so results
# never depend on the worker count -- only on (stream key, network, trial
# count).
DEFAULT_BLOCK_SIZE = 1 << 16

# Trials per uniform draw within a block. A block's draws come from its one
# stream in row chunks; the stream fills in C order, so chunking consumes it
# exactly like one block-sized draw while bounding the float matrix.
_DRAW_ROWS = 1 << 14


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
    net: HtmrNetwork, reference_bit: int, rng: RandomSource
) -> tuple[int, tuple[int, ...]]:
    """Push one reference bit through the tree, one level at a time.

    Each level votes consecutive triples of the level below, then, when
    the voter fault rate is nonzero, draws its voters' faults left to
    right. Returns the root output and the per-voter alarm bits, root level
    first (breadth-first voter indices). This scalar walk is the reference
    semantics that the vectorized ``run_trials`` is held to.
    """
    reference_bit = check_bit("reference_bit", reference_bit)
    level = [
        module_output(leaf, reference_bit, rng)
        for leaf in tile_scenario(net.leaves, net.order)
    ]
    alarms: list[int] = []
    rate = net.voter_fault_rate
    while len(level) > 1:
        triples = [level[i:i + 3] for i in range(0, len(level), 3)]
        alarms = [alarm_signal(t) for t in triples] + alarms
        level = [majority_vote(t) for t in triples]
        if rate > 0.0:
            level = [t[0] if rng.uniform() < rate else v for t, v in zip(triples, level)]
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


def _simulate_block(net: HtmrNetwork, hit: np.ndarray):
    """Vectorized simulation of one block, one tree level per step.

    ``hit`` holds one row per draw in the documented draw order (leaves
    at a nonzero rate, then voters bottom-up when the voter fault rate is
    nonzero) and one column per trial; an entry is set when that draw fell
    below its rate. Rows carry error bits, so a block is bit-identical to
    running ``simulate_bit`` trial by trial against the block's stream.
    """
    drawn = np.array(tile_scenario(net.leaves, net.order)) > 0.0
    col = int(np.count_nonzero(drawn))
    x = np.zeros((net.leaf_count, hit.shape[1]), dtype=bool)
    x[drawn] = hit[:col]
    alarm_counts = np.zeros(net.voter_count, dtype=np.int64)
    first = net.voter_count
    while len(x) > 1:
        # the children of a level's voters are consecutive triples of rows
        a, b, c = x[0::3], x[1::3], x[2::3]
        w = len(a)
        first -= w
        alarm_counts[first:first + w] = np.count_nonzero((a ^ b) | (a ^ c), axis=1)
        x = (a & b) | (a & c) | (b & c)
        if net.voter_fault_rate > 0.0:
            x = np.where(hit[col:col + w], a, x)
            col += w
    return int(np.count_nonzero(x[0])), alarm_counts


def _processors() -> int:
    """Processors this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_trials(
    net: HtmrNetwork,
    n: int,
    rng: RandomSource,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> tuple[EmpiricalEstimate, FaultStatusCounter]:
    """Simulate ``n`` independent trials through the network.

    Trials are processed in fixed blocks of ``block_size``; block ``b``
    covers global trials [b * block_size, ...) and draws exclusively from
    ``rng.derive(b)``. Partitioning therefore depends only on ``n`` and
    ``block_size``, never on ``workers``: any worker count yields the
    identical estimate and alarm counter. Errors are trials whose root
    output differs from the reference bit. ``n`` lies in 1..2**63 - 1,
    the range of the int64 alarm counters.

    The calling thread and up to ``workers - 1`` helper threads, never more
    threads in all than there are blocks or processors this process may
    use, claim blocks by index. Each thread keeps integer running sums of
    its blocks' errors and alarm counts, which are exact in any order, and
    the call adds them up at the end, so memory does not grow with ``n``.
    If a block raises, the threads stop claiming, every helper is joined
    and the call raises that error.
    """
    if not 1 <= n < 1 << 63:
        raise ValueError(f"trial count must lie in 1..2**63 - 1, got {n}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    # per-trial draw rates in draw order
    voter_draws = net.voter_count if net.voter_fault_rate > 0.0 else 0
    rates = np.array(
        [rate for rate in tile_scenario(net.leaves, net.order) if rate > 0.0]
        + [net.voter_fault_rate] * voter_draws,
        dtype=float,
    )

    def one_block(b):
        m = min(block_size, n - b * block_size)
        stream = rng.derive(b)
        hit = np.empty((len(rates), m), dtype=bool)
        for start in range(0, m, _DRAW_ROWS):
            rows = min(_DRAW_ROWS, m - start)
            hit[:, start:start + rows] = (stream.uniforms((rows, len(rates))) < rates).T
        return _simulate_block(net, hit)

    blocks = (n - 1) // block_size + 1
    claims = itertools.count()
    failures = []
    sums = []

    def work():
        # claim blocks by index until none are left or any thread has failed
        errors, counts = 0, np.zeros(net.voter_count, dtype=np.int64)
        try:
            while not failures and (b := next(claims)) < blocks:
                block_errors, alarm_counts = one_block(b)
                errors += block_errors
                counts += alarm_counts
        except BaseException as exc:
            failures.append(exc)
        sums.append((errors, counts))

    threads = min(workers, blocks, _processors())
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
