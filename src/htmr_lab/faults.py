"""Stochastic faulty-module model and reproducible uniform random streams.

A faulty module is modeled as a fault-free module followed by a Bernoulli
bit-inversion stage: on each operation the output bit is inverted with the
module's error rate, independently of everything else. Stuck-at and
correlated/burst errors are out of scope.

Randomness comes from ``RandomSource``, a deterministic uniform-[0,1)
stream keyed by a master seed plus a derivation path, so any simulation is
bit-reproducible from its seed and independent sub-streams can be handed
to parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .voting import check_bit

__all__ = [
    "check_probability",
    "ModuleKind",
    "FAULT_FREE",
    "faulty_module",
    "Scenario",
    "SCENARIO_PATTERNS",
    "make_scenario",
    "scenario_pattern",
    "RandomSource",
    "ber_corrupt",
    "module_output",
]


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` is a probability; returns it as a float."""
    p = float(value)
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return p


@dataclass(frozen=True)
class ModuleKind:
    """A redundant module: fault-free, or erring at a fixed per-operation rate."""

    faulty: bool
    rate: float = 0.0

    def __post_init__(self) -> None:
        rate = check_probability("module error rate", self.rate)
        if not self.faulty and rate != 0.0:
            raise ValueError("a fault-free module cannot carry a nonzero error rate")
        object.__setattr__(self, "rate", rate)


FAULT_FREE = ModuleKind(faulty=False)


def faulty_module(rate: float) -> ModuleKind:
    """Module whose output bit inverts with probability ``rate`` per operation."""
    return ModuleKind(faulty=True, rate=rate)


Scenario = Tuple[ModuleKind, ModuleKind, ModuleKind]

SCENARIO_PATTERNS = ("NNF", "NFF", "FFF")


def make_scenario(pattern: str, rate: float) -> Scenario:
    """Build a module triple from an "NNF"-style pattern.

    'N' is a fault-free module, 'F' a faulty one erring at ``rate``.
    Positions correspond to the three voter inputs in order.
    """
    if len(pattern) != 3 or set(pattern) - {"N", "F"}:
        raise ValueError(f"scenario pattern must be three N/F letters, got {pattern!r}")
    return tuple(faulty_module(rate) if c == "F" else FAULT_FREE for c in pattern)


def scenario_pattern(scenario: Scenario) -> str:
    """Inverse of ``make_scenario``: the "NNF"-style pattern of a triple."""
    if len(scenario) != 3:
        raise ValueError("a scenario holds exactly three modules")
    return "".join("F" if kind.faulty else "N" for kind in scenario)


class RandomSource:
    """Deterministic uniform-[0,1) stream with reproducible sub-streams.

    Backed by numpy's PCG64, keyed by ``(seed, path)`` through
    ``SeedSequence(seed, spawn_key=path)``. The same key replays the same
    draws on any platform. ``derive`` returns an independent stream for an
    extended path; derivation depends only on the key, never on how much
    of this stream has already been consumed. Instances are single-owner:
    hand each worker its own derived stream instead of sharing one.
    """

    __slots__ = ("_seed", "_path", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self._seed = int(seed)
        self._path = tuple(int(i) for i in path)
        sequence = np.random.SeedSequence(self._seed, spawn_key=self._path)
        self._gen = np.random.Generator(np.random.PCG64(sequence))

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def path(self) -> tuple[int, ...]:
        return self._path

    def derive(self, *indices: int) -> "RandomSource":
        """Independent stream keyed by this stream's path plus ``indices``."""
        return RandomSource(self._seed, self._path + tuple(indices))

    def uniform(self) -> float:
        """Next uniform draw in [0, 1); advances the stream by one."""
        return float(self._gen.random())

    def uniforms(self, shape) -> np.ndarray:
        """Array of uniform draws, consumed from the stream in C order."""
        return self._gen.random(shape)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self._seed}, path={self._path})"


def ber_corrupt(bit: int, rate: float, rng: RandomSource) -> int:
    """Bernoulli bit-inversion stage: invert ``bit`` with probability ``rate``.

    Consumes exactly one draw from ``rng`` regardless of the outcome.
    """
    bit = check_bit("bit", bit)
    rate = check_probability("rate", rate)
    return bit ^ int(rng.uniform() < rate)


def module_output(kind: ModuleKind, reference_bit: int, rng: RandomSource) -> int:
    """Output of one module given the fault-free reference bit.

    Fault-free modules return the reference unchanged and consume no
    draws; faulty modules consume exactly one, so trial alignment is
    reproducible regardless of how many modules in a set are faulty.
    """
    if not kind.faulty:
        return check_bit("reference_bit", reference_bit)
    return ber_corrupt(reference_bit, kind.rate, rng)
