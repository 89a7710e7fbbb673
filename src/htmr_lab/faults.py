"""Stochastic module model and reproducible uniform random streams.

A module is its error rate: a fault-free module followed by a Bernoulli
bit-inversion stage that inverts the output bit on each operation with
that probability, independently of everything else. A rate of 0 is a
fault-free module, which draws nothing. Stuck-at and correlated/burst
errors are out of scope.

Randomness comes from ``RandomSource``, a deterministic stream keyed by a
master seed plus a derivation path, so any simulation is bit-reproducible
from its seed and independent sub-streams can be handed to parallel
workers. Besides uniform draws it fills packed rows of 64-trial ``uint64``
words with independent fault bits at one rate (``bernoulli_lanes``): most
of a rate's bits are drawn a word at a time, and a small residual is drawn
by Poisson splitting, at a cost that grows with the number of faults rather
than with the number of bits.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

__all__ = [
    "check_integer",
    "check_probability",
    "SCENARIO_PATTERNS",
    "make_scenario",
    "RandomSource",
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


# ``RandomSource.bernoulli_lanes`` draws rates in steps of 2**-_DYADIC_BITS a
# word at a time, from at most _DYADIC_BITS raw words per output word, and
# draws rows in pieces of at most _WORDS words, which bounds its temporary
# words near 64 KiB and its bool scratch at SCRATCH_CELLS cells (512 KiB).
_DYADIC_BITS = 5
_WORDS = 1 << 13
SCRATCH_CELLS = 64 * _WORDS


class RandomSource:
    """Deterministic random stream with reproducible sub-streams.

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

    def uniforms(self, shape) -> np.ndarray:
        """Array of uniform draws, consumed from the stream in C order."""
        return self._gen.random(shape)

    def _bernoulli(self, out: np.ndarray, rate: float) -> None:
        """Fill the flat bool array ``out`` with independent Bernoulli(``rate``) bits.

        ``bernoulli_lanes``' residual stage, at 0 < ``rate`` < 1/16 on at
        most ``SCRATCH_CELLS`` bits, so it expects fewer than 34,000
        positions. Poisson splitting: ``out``'s n bits draw
        k ~ Poisson(-n ln(1 - rate)) and set k positions drawn uniformly
        from them, duplicates allowed. Each bit's hit count is then an
        independent Poisson(-ln(1 - rate)), so each bit is set with
        probability exactly ``rate``, independently of the others (Devroye,
        *Non-Uniform Random Variate Generation*, 1986, ch. X).
        """
        out.fill(False)
        k = self._gen.poisson(-out.size * math.log1p(-rate))
        out[self._gen.integers(0, out.size, k)] = True

    def bernoulli_lanes(self, out: np.ndarray, m: int, rate: float, cells: np.ndarray) -> None:
        """Fill the ``uint64`` rows ``out`` with ``m`` Bernoulli(``rate``) lanes each.

        ``out`` is C-contiguous. Lane t of a row is bit t % 64 of its word
        t // 64; the padding lanes at t >= ``m`` are cleared. The rows are
        drawn piece by piece: a piece is whole rows of at most ``_WORDS``
        words in all, or, where one row is longer, a word-aligned slice of
        ``_WORDS`` words (the last one shorter) of one row. With
        r = min(``rate``, 1 - ``rate``), a = floor(r * 2**K) for
        K = ``_DYADIC_BITS``, r_K = a / 2**K and s = (r - r_K) / (1 - r_K)
        (the subtraction is exact, so s < 1/16), each piece is drawn in two
        stages before the next one:

        1. ``_bernoulli`` fills the piece's lanes below ``m`` as bool cells
           at s, in C order, which are packed into the lanes in little bit
           order. ``cells`` is a flat bool scratch array of at least
           ``SCRATCH_CELLS`` cells, or of ``out.shape[0] * m`` where that is
           fewer. At s = 0 nothing is drawn and ``cells`` is not touched.
        2. Bernoulli(r_K) words are ORed in. Each word comes from at most K
           raw PCG64 words w, drawn a piece at a time: starting at the
           lowest set bit of a with x = w, every higher bit of a takes
           x = w | x when set and x = w & x when clear (after Knuth & Yao,
           1976). Bit k of x is set with probability a / 2**K and reads
           only bit k of every w.

        A lane is then set with probability r_K + (1 - r_K) s = r,
        independently of every other lane, and above 1/2 the rows are
        inverted. Below rate 1/32 (a = 0) the draw is ``_bernoulli`` at r
        alone, and at rate 1/2 it is one raw word per 64 lanes.
        """
        rate = check_probability("rate", rate)
        flip = rate > 0.5
        r = 1.0 - rate if flip else rate
        a = int(r * (1 << _DYADIC_BITS))
        r_k = a / (1 << _DYADIC_BITS)
        s = (r - r_k) / (1.0 - r_k)
        rows, words = out.shape
        low = (a & -a).bit_length() - 1
        raw = self._gen.bit_generator.random_raw
        # a piece is rows lo..hi - 1, words first..last - 1
        step, span = max(1, _WORDS // words), min(words, _WORDS)
        for lo, first in itertools.product(range(0, rows, step), range(0, words, span)):
            hi, last = min(lo + step, rows), min(first + span, words)
            part = out[lo:hi, first:last]
            if s > 0.0:
                lanes = min(m, 64 * last) - 64 * first
                bits = cells[:(hi - lo) * lanes]
                self._bernoulli(bits, s)
                # bytes past the packed cells hold only padding lanes, cleared below
                packed = np.packbits(bits.reshape(hi - lo, lanes), axis=1, bitorder="little")
                part.view(np.uint8)[:, :packed.shape[1]] = packed
                if sys.byteorder == "big":
                    part.byteswap(inplace=True)  # lane t is bit t % 64 of the word's value
            else:
                part.fill(0)
            if a:
                x = raw(part.size)
                for bit in range(low + 1, _DYADIC_BITS):
                    if a >> bit & 1:
                        x |= raw(x.size)
                    else:
                        x &= raw(x.size)
                part |= x.reshape(part.shape)
            if flip:
                np.invert(part, out=part)
            if m % 64 and last == words:
                part[:, -1] &= np.uint64((1 << m % 64) - 1)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self._seed}, path={self._path})"
