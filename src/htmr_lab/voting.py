"""Bit-exact majority voting, disagreement alarm, and TMR flip-flop semantics.

All signals are ints restricted to {0, 1}, checked by ``check_bit`` in
every bit-taking entry of the package. The voter returns the bit held by
at least two of its three inputs; the alarm flags any disagreement
among them, so it is 0 exactly when the three inputs are unanimous. Logic
is evaluated as boolean algebra on {0, 1} integers (ideal combinational
logic, no gate delays), and clocking is a discrete step: one
``flipflop_step`` call is one clock edge.
"""

from __future__ import annotations

import numbers
from collections import namedtuple
from itertools import product
from typing import NamedTuple, Sequence, Union

__all__ = [
    "TripleInput",
    "VoteOutcome",
    "TmrRegister",
    "check_bit",
    "majority_vote",
    "alarm_signal",
    "vote_with_alarm",
    "flipflop_step",
    "enumerate_truth_table",
]


def check_bit(name: str, value: int) -> int:
    """Validate a bit: the integer 0 or 1, a Python or numpy int but not a
    bool, float, string or None; returns it as an int."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integer or value not in (0, 1):
        raise ValueError(f"{name} must be the integer 0 or 1, got {value!r}")
    return int(value)


class TripleInput(namedtuple("TripleInput", ("y1", "y2", "y3"))):
    """Outputs of the three redundant modules feeding one voter.

    A triple is a tuple, equal to the tuple of its bits; ``_replace``
    checks as the constructor does.
    """

    __slots__ = ()

    def __new__(cls, y1: int, y2: int, y3: int):
        check_bit("y1", y1)
        check_bit("y2", y2)
        check_bit("y3", y3)
        return super().__new__(cls, y1, y2, y3)

    @classmethod
    def _make(cls, fields):
        # _replace builds its copy here: the changed values are checked too
        return cls(*fields)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.y1, self.y2, self.y3)


class VoteOutcome(NamedTuple):
    """Voted data bit plus the disagreement alarm for one operation.

    An outcome is a tuple, equal to ``(value, alarm)``.
    """

    value: int
    alarm: int


class TmrRegister(namedtuple("TmrRegister", ("stored", "loaded"))):
    """Register element of a TMR flip-flop.

    Powers up storing 0; ``loaded`` records whether a clock edge has
    occurred since reset. A register is a tuple, equal to the tuple of its
    fields; ``_replace`` checks as the constructor does.
    """

    __slots__ = ()

    def __new__(cls, stored: int = 0, loaded: bool = False):
        check_bit("stored", stored)
        return super().__new__(cls, stored, loaded)

    @classmethod
    def _make(cls, fields):
        # _replace builds its copy here: the changed values are checked too
        return cls(*fields)


Bits = Union[TripleInput, Sequence[int]]


def _as_bits(t: Bits) -> tuple[int, int, int]:
    if isinstance(t, TripleInput):
        return t.as_tuple()
    bits = tuple(t)
    if len(bits) != 3:
        raise ValueError(f"expected exactly three bits, got {len(bits)}")
    return TripleInput(*bits).as_tuple()


def majority_vote(t: Bits) -> int:
    """Two-of-three majority of the redundant outputs.

    Evaluated in sum-of-products form: the three two-hot minterms plus the
    all-ones minterm.
    """
    y1, y2, y3 = _as_bits(t)
    return (
        (y1 & y2 & (1 - y3))
        | (y1 & (1 - y2) & y3)
        | ((1 - y1) & y2 & y3)
        | (y1 & y2 & y3)
    )


def alarm_signal(t: Bits) -> int:
    """1 when the three redundant outputs are not unanimous, else 0.

    Cannot flag the all-three-wrong coincidence: unanimously wrong inputs
    look identical to unanimously right ones.
    """
    y1, y2, y3 = _as_bits(t)
    return (y1 | y2 | y3) & ((1 - y1) | (1 - y2) | (1 - y3))


def vote_with_alarm(t: Bits) -> VoteOutcome:
    """Voted value and alarm for one input triple."""
    return VoteOutcome(value=majority_vote(t), alarm=alarm_signal(t))


def flipflop_step(reg: TmrRegister, t: Bits) -> tuple[TmrRegister, VoteOutcome]:
    """One clock edge of a TMR flip-flop: vote, flag, register the vote."""
    outcome = vote_with_alarm(t)
    return reg._replace(stored=outcome.value, loaded=True), outcome


def enumerate_truth_table() -> list[tuple[TripleInput, VoteOutcome]]:
    """All 8 voter/alarm rows, inputs in ascending binary order."""
    rows = []
    for y1, y2, y3 in product((0, 1), repeat=3):
        triple = TripleInput(y1, y2, y3)
        rows.append((triple, vote_with_alarm(triple)))
    return rows
