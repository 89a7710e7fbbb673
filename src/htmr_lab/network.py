"""Structural simulation of hierarchical TMR networks.

A network of order ``j`` is a complete ternary tree: 3**j leaf modules at
the bottom, (3**j - 1) / 2 voters above them, every voter taking exactly
three children. Voters are indexed breadth-first from the root (root = 0);
leaf ``k`` sits at tree node ``voter_count + k``, so the children of voter
``v`` are nodes ``3v+1``, ``3v+2``, ``3v+3``. Order 0 is the bare module:
one leaf, no voters, and the leaf is the root.

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
within a trial, faulty leaves draw first (left to right), then, when the
voter fault rate is nonzero, every voter draws once, bottom level first,
left to right within a level. Fault-free leaves never draw; with a zero
voter fault rate voters never draw.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .faults import ModuleKind, RandomSource, Scenario, check_probability, module_output
from .reliability import check_order
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
    """Immutable description of a complete ternary voting tree."""

    order: int
    leaves: tuple[ModuleKind, ...]
    voter_fault_rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", check_order("order", self.order))
        expected = 3 ** self.order
        if len(self.leaves) != expected:
            raise ValueError(
                f"order {self.order} needs exactly {expected} leaves, "
                f"got {len(self.leaves)}"
            )
        for leaf in self.leaves:
            if not isinstance(leaf, ModuleKind):
                raise ValueError(f"leaves must be ModuleKind instances, got {leaf!r}")
        check_probability("voter_fault_rate", self.voter_fault_rate)

    @property
    def leaf_count(self) -> int:
        return 3 ** self.order

    @property
    def voter_count(self) -> int:
        return (3 ** self.order - 1) // 2

    def voter_levels(self) -> list[list[int]]:
        """Voter indices per tree level, root level first."""
        levels = []
        start = 0
        for depth in range(self.order):
            width = 3 ** depth
            levels.append(list(range(start, start + width)))
            start += width
        return levels

    def voters_bottom_up(self) -> list[int]:
        """Voter indices in draw/evaluation order: deepest level first."""
        order = []
        for level in reversed(self.voter_levels()):
            order.extend(level)
        return order

    def children_of(self, voter: int) -> tuple[int, int, int]:
        """Tree-node ids of a voter's three children (voters or leaves)."""
        if not 0 <= voter < self.voter_count:
            raise ValueError(f"voter index out of range: {voter}")
        base = 3 * voter
        return (base + 1, base + 2, base + 3)


LeafConfig = Union[float, ModuleKind, Sequence[ModuleKind]]


def build_network(
    order: int,
    leaf_config: LeafConfig,
    voter_fault_rate: float = 0.0,
) -> HtmrNetwork:
    """Construct and validate a network.

    ``leaf_config`` is either a uniform error rate (every leaf faulty at
    that rate), a single ``ModuleKind`` replicated across all leaves, or
    an explicit sequence of exactly 3**order kinds.
    """
    order = check_order("order", order)
    count = 3 ** order
    if isinstance(leaf_config, ModuleKind):
        leaves = (leaf_config,) * count
    elif isinstance(leaf_config, (int, float)) and not isinstance(leaf_config, bool):
        rate = check_probability("leaf error rate", leaf_config)
        leaves = (ModuleKind(faulty=True, rate=rate),) * count
    else:
        leaves = tuple(leaf_config)
    return HtmrNetwork(order=order, leaves=leaves, voter_fault_rate=voter_fault_rate)


def tile_scenario(scenario: Scenario, order: int) -> tuple[ModuleKind, ...]:
    """Replicate a 3-module scenario across every leaf triple of a tree.

    Order 1 is the scenario itself; order 2 applies the same pattern to
    each of the three first-level triples (9 leaves), and so on.
    """
    if len(scenario) != 3:
        raise ValueError("a scenario holds exactly three modules")
    if check_order("order", order) < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return tuple(scenario) * (3 ** (order - 1))


def simulate_bit(
    net: HtmrNetwork, reference_bit: int, rng: RandomSource
) -> tuple[int, tuple[int, ...]]:
    """Push one reference bit through the tree.

    Returns the root output and the per-voter alarm bits (indexed
    breadth-first). Draws are consumed in the module draw order documented
    above; this scalar walk is the reference semantics that the vectorized
    ``run_trials`` is held to.
    """
    reference_bit = check_bit("reference_bit", reference_bit)
    n_voters = net.voter_count
    values: list[int] = [0] * (n_voters + net.leaf_count)
    for k, kind in enumerate(net.leaves):
        values[n_voters + k] = module_output(kind, reference_bit, rng)
    alarms = [0] * n_voters
    rate = net.voter_fault_rate
    for v in net.voters_bottom_up():
        a, b, c = net.children_of(v)
        children = (values[a], values[b], values[c])
        alarms[v] = alarm_signal(children)
        voted = majority_vote(children)
        if rate > 0.0:
            failed = rng.uniform() < rate
            values[v] = children[0] if failed else voted
        else:
            values[v] = voted
    return values[0], tuple(alarms)


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

    ``hit`` holds one row per draw in the documented draw order (faulty
    leaves, then voters bottom-up when the voter fault rate is nonzero)
    and one column per trial; an entry is set when that draw fell below
    its rate. Rows carry error bits, so a block is bit-identical to running
    ``simulate_bit`` trial by trial against the block's stream.
    """
    faulty = [k for k, kind in enumerate(net.leaves) if kind.faulty]
    x = np.zeros((net.leaf_count, hit.shape[1]), dtype=bool)
    x[faulty] = hit[:len(faulty)]
    col = len(faulty)
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
        [kind.rate for kind in net.leaves if kind.faulty]
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
