"""Stochastic module model and reproducible uniform random streams.

A module is its error rate: a fault-free module followed by a Bernoulli
bit-inversion stage that inverts the output bit on each operation with
that probability, independently of everything else. A rate of 0 is a
fault-free module, which draws nothing. Stuck-at and correlated/burst
errors are out of scope.

Randomness comes from ``RandomSource``, a deterministic uniform-[0,1)
stream keyed by a master seed plus a derivation path, so any simulation is
bit-reproducible from its seed and independent sub-streams can be handed
to parallel workers.
"""

from __future__ import annotations

import math

import numpy as np

from .voting import check_bit

__all__ = [
    "check_integer",
    "check_probability",
    "SCENARIO_PATTERNS",
    "make_scenario",
    "RandomSource",
    "ber_corrupt",
    "module_output",
]


def check_integer(name: str, value) -> int:
    """Validate that ``value`` is integral, such as 3 or 3.0; returns it as an int."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return number


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` is a probability; returns it as a float."""
    p = float(value)
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return p


SCENARIO_PATTERNS = ("NNF", "NFF", "FFF")


def make_scenario(pattern: str, rate: float) -> tuple[float, float, float]:
    """Error rates of a voter's three modules from an "NNF"-style pattern.

    'N' is a fault-free module (rate 0), 'F' a faulty one erring at
    ``rate``. Positions correspond to the three voter inputs in order.
    """
    if len(pattern) != 3 or set(pattern) - {"N", "F"}:
        raise ValueError(f"scenario pattern must be three N/F letters, got {pattern!r}")
    rate = check_probability("module error rate", rate)
    return tuple(rate if c == "F" else 0.0 for c in pattern)


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
        self._seed = check_integer("seed", seed)
        if self._seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self._path = tuple(check_integer("path index", i) for i in path)
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


def module_output(rate: float, reference_bit: int, rng: RandomSource) -> int:
    """Output of one module erring at ``rate``, given the reference bit.

    A module at rate 0 returns the reference unchanged and consumes no
    draw; any other module consumes exactly one, so trial alignment is
    reproducible from the rates alone.
    """
    if rate == 0.0:
        return check_bit("reference_bit", reference_bit)
    return ber_corrupt(reference_bit, rate, rng)
