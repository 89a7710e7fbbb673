"""Error-probability models for majority-voted redundant systems.

The central quantity is the two-of-three failure polynomial

    pe_first(p) = 3*p**2 - 2*p**3

the probability that at least two of three independent modules, each
erring with probability ``p`` on a given operation, err simultaneously so
the majority vote is wrong. Nesting voters hierarchically composes this
polynomial with itself (``pe_order``). ``subtree_error_probabilities`` is
the one exact evaluator: one bottom-up walk of a voter tree from its leaf
rates, with or without voter faults, gives the leftmost subtree of every
order. Every other model reads it, ``tree_error_probability`` as its root;
``pem_order``, the paper's voter-fault recursion, folds its levels: a
different model from order 2 on.
Reduction rates are expressed in decades (log base 10).

Probabilities are plain floats validated to lie in [0, 1]; out-of-range
arguments raise ``ValueError``. All functions here are pure.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence, Union

from .faults import check_integer, check_probability, make_scenario

__all__ = [
    "MAX_ORDER",
    "check_order",
    "check_leaves",
    "is_one_rate",
    "pe_first",
    "voter",
    "subtree_error_probabilities",
    "tree_error_probability",
    "pem_first",
    "pe_order",
    "pem_order",
    "reduction_rate",
    "operations_per_error",
    "scenario_error_probability",
]

# Bound on nesting depth; deeper requests are almost certainly mistakes
# and would silently underflow to 0.0 anyway.
MAX_ORDER = 16


def check_order(name: str, j: int) -> int:
    """Validate a nesting order (an integer in 0..MAX_ORDER); returns it as an int."""
    j = check_integer(name, j)
    if not 0 <= j <= MAX_ORDER:
        raise ValueError(f"{name} must lie in 0..{MAX_ORDER}, got {j}")
    return j


def check_leaves(name: str, leaves: Sequence[float], order: int) -> tuple[float, ...]:
    """Validate the leaf error rates of an order-``order`` tree.

    The tree takes 3**k rates, k <= ``order``, repeated across its 3**order
    leaves; a rate of 0 is a fault-free module. A count that fits no tree
    is reported under ``name``, what the caller holds ("leaf error rates",
    "scenario letters"). Check ``order`` first.
    Returns the shortest 3**i rates that tile to the same leaves, so two
    descriptions of one tree come back equal.
    """
    rates = tuple(check_probability("leaf error rate", p) for p in leaves)
    sizes = [3 ** k for k in range(order + 1)]
    if len(rates) not in sizes:
        raise ValueError(
            f"an order-{order} tree takes 3**k {name} with "
            f"k <= {order}, got {len(rates)}"
        )
    return next(rates[:i] for i in sizes if rates[:i] * (len(rates) // i) == rates)


def is_one_rate(leaves) -> bool:
    """Whether ``leaves`` is one rate, not a sequence of them: ``np.ndim(leaves) == 0``."""
    ndim = getattr(leaves, "ndim", None)
    if ndim is not None:
        return ndim == 0
    return isinstance(leaves, (str, bytes)) or not isinstance(leaves, Sequence)


def pe_first(pf: float) -> float:
    """Output error probability of one voter over three modules at rate ``pf``.

    Just below ``pf`` = 1 the polynomial rounds above 1, so it is clamped.
    """
    p = check_probability("pf", pf)
    return min(3.0 * p * p - 2.0 * p * p * p, 1.0)


def voter(a, b, c, f=None):
    """The voter's ``(out, alarm)``, on 0/1 ints or lane-wise on ``uint64`` words.

    ``out`` is the majority of a, b, c, or ``a`` where the fault bit f is
    set; ``alarm`` is ``(a ^ b) | (a ^ c)`` either way. ``f`` = None is a
    voter that cannot fail. Inverting a, b, c inverts ``out`` and keeps
    ``alarm``, so the rule votes error bits too.
    """
    d, ac = a ^ b, a ^ c
    alarm = d | ac
    d &= ac  # a is outvoted ...
    del ac  # one level's words fewer at the memory peak
    if f is not None:
        d ^= d & f  # ... unless the voter failed and passes a through
    d ^= a
    return d, alarm


def _voter_error(q: float, pa: float, pb: float, pc: float) -> float:
    """Error probability of one voter over independent children a, b, c."""
    if pa == pb == pc:
        # pe_first's polynomial, kept so pinned documents keep their last ulp
        return q * pa + (1.0 - q) * pe_first(pa)
    rates = (pa, pb, pc, q)
    total = sum(
        voter(*bits)[0] * math.prod(r if bit else 1.0 - r for r, bit in zip(rates, bits))
        for bits in itertools.product((0, 1), repeat=4)
    )
    return min(total, 1.0)


def subtree_error_probabilities(
    leaves: Sequence[float], order: int, voter_fault_rate: float = 0.0
) -> tuple[float, ...]:
    """Exact error of the leftmost order-k subtree, k = 0..``order``, in one walk.

    The exact counterpart of ``EmpiricalEstimate.subtree_errors``: entry k
    is the first node of level k of the tree that ``tree_error_probability``
    evaluates (entry 0 the leftmost leaf, the last entry the root), worked
    bottom-up once in O(3**k + ``order``) steps for 3**k leaves.
    """
    order = check_order("order", order)
    q = check_probability("voter_fault_rate", voter_fault_rate)
    level = list(check_leaves("leaf error rates", leaves, order))
    firsts = [level[0]]
    for _ in range(order):
        if len(level) == 1:
            # the leaves are tiled, so one value stands for its whole level
            level *= 3
        level = [_voter_error(q, *level[i:i + 3]) for i in range(0, len(level), 3)]
        firsts.append(level[0])
    return tuple(firsts)


def tree_error_probability(
    leaves: Sequence[float], order: int, voter_fault_rate: float = 0.0
) -> float:
    """Exact output error probability of an order-``order`` voter tree.

    ``leaves`` holds 3**k leaf error rates, k <= ``order``, repeated across
    the 3**order leaves of the tree the way ``network.tile_scenario``
    repeats them. Every voter fails with probability ``voter_fault_rate``
    and then passes its first child through, otherwise it votes (``voter``).
    The children of a voter are disjoint subtrees, so they err independently
    (Lyons & Vanderkulk, IBM J. Res. Dev. 6(2), 1962), and a voter over
    children erring at p_a, p_b, p_c errs with the sum of ``voter``'s output
    over its 16 input cases, each weighted by its four probabilities. A
    voter whose three children err equally at p takes q*p + (1 - q) *
    ``pe_first(p)`` instead. This is the root, the last entry of
    ``subtree_error_probabilities``.
    """
    return subtree_error_probabilities(leaves, order, voter_fault_rate)[-1]


def pem_first(pf: float, pfmb: float) -> float:
    """One voter over three modules at rate ``pf``, failing at rate ``pfmb``."""
    return tree_error_probability((pf,), 1, pfmb)


def pe_order(j: int, pf: float) -> float:
    """Error probability after ``j`` nested levels of fault-free voting;
    ``j`` = 0 is the bare module."""
    return tree_error_probability((pf,), j)


def pem_order(j: int, leaves: Union[float, Sequence[float]], pfmb: float) -> float:
    """The paper's voter-fault recursion for a ``j``-level hierarchy.

    pem_j = pem_{j-1} * pfmb + pe_j * (1 - pfmb), anchored at the leftmost
    leaf, pem_0 = ``leaves[0]``: a failed top voter exposes its leftmost
    subtree, a working one sees the fault-free tree, whose pe_1..pe_j come
    from one walk (``subtree_error_probabilities``). So one rate or any
    3**k rates (a leaf pattern) take voter faults. Level 1 is exact,
    and with ``pfmb`` = 0 this equals ``tree_error_probability(leaves, j)``
    bit for bit. From order 2 on it is a different model from a tree whose
    voters all fail at ``pfmb``, which the evaluator and the simulator
    share: at pf = pfmb = 0.1 order 2 gives 0.005597 here against 0.006787.
    """
    j = check_order("j", j)
    pes = subtree_error_probabilities((leaves,) if is_one_rate(leaves) else leaves, j)
    q = check_probability("pfmb", pfmb)
    pem = pes[0]
    for pe in pes[1:]:
        pem = pem * q + pe * (1.0 - q)
    return pem


def reduction_rate(pf: float, pe: float) -> float:
    """Error reduction in decades: log10(pf / pe).

    ``pe`` = 0 (perfect masking) maps to ``math.inf``. ``pf`` = 0 has no
    meaningful ratio and raises.
    """
    p = check_probability("pf", pf)
    e = check_probability("pe", pe)
    if p == 0.0:
        raise ValueError("reduction rate is undefined for pf = 0")
    if e == 0.0:
        return math.inf
    return math.log10(p / e)


def operations_per_error(pe: float) -> float:
    """Expected operations between output errors: 1 / pe.

    Raises for ``pe`` = 0, where no errors are expected at all.
    """
    e = check_probability("pe", pe)
    if e == 0.0:
        raise ValueError("no errors expected at pe = 0; operations per error diverges")
    return 1.0 / e


def scenario_error_probability(pattern: str, pf: float) -> float:
    """Output error probability of one voter over an "NNF"-style pattern
    of modules, every faulty one erring with probability ``pf``."""
    return tree_error_probability(make_scenario(pattern, pf), 1)
