"""Closed-form model tests: frozen oracle values, invariants, and audits.

Expected values were computed independently before implementation: hand
evaluation for the small closed forms, exhaustive enumeration over the
2**3 error patterns for the scenario formulas, and a symbolic expansion
(sympy) for the degree-9 order-2 polynomial.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from htmr_lab.faults import make_scenario
from htmr_lab.reliability import (
    MAX_ORDER,
    operations_per_error,
    pe_first,
    pe_order,
    pem_first,
    pem_order,
    reduction_rate,
    scenario_error_probability,
    subtree_error_probabilities,
    tree_error_probability,
    voter,
)
from htmr_lab.reports import (
    CLAIMED_ORDER2_EXPANSION,
    EXACT_ORDER2_EXPANSION,
    evaluate_power_series,
    expansion_audit,
    proposition_check,
)
from htmr_lab.voting import alarm_signal, majority_vote

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestPeFirst:
    def test_fixed_points(self):
        assert pe_first(0.0) == pytest.approx(0.0, abs=1e-12)
        assert pe_first(0.5) == pytest.approx(0.5, abs=1e-12)
        assert pe_first(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_values(self):
        assert pe_first(0.1) == pytest.approx(0.028, abs=1e-12)
        assert pe_first(0.001) == pytest.approx(2.998e-6, abs=1e-15)

    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                pe_first(bad)

    def test_near_one_never_rounds_above_one(self):
        # 3p^2 - 2p^3 rounds to 1 + 2**-52 here; nesting must not reject it
        p = 0.999999999
        for j in (1, 2, 3):
            assert pe_order(j, p) == 1.0
            assert pem_order(j, p, 0.05) <= 1.0
            assert reduction_rate(p, pe_order(j, p)) <= 0.0
        assert proposition_check(p, 3).verdict == "violated"

    @given(probabilities)
    def test_symmetry(self, p):
        assert pe_first(1.0 - p) == pytest.approx(1.0 - pe_first(p), abs=1e-12)

    @given(st.floats(min_value=1e-9, max_value=0.4999999))
    def test_contracts_below_half(self, p):
        assert pe_first(p) < p

    @given(st.floats(min_value=0.5000001, max_value=1.0 - 1e-9))
    def test_expands_above_half(self, p):
        assert pe_first(p) > p

    def test_strictly_increasing_on_grid(self):
        grid = np.linspace(0.0, 1.0, 1001)
        values = [pe_first(float(p)) for p in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestPemFirst:
    def test_reduces_to_pe_with_perfect_voter(self):
        for p in (0.0, 0.1, 0.4, 0.9):
            assert pem_first(p, 0.0) == pe_first(p)

    def test_broken_voter_exposes_module_rate(self):
        for p in (0.0, 0.1, 0.4, 0.9):
            assert pem_first(p, 1.0) == pytest.approx(p, abs=1e-15)

    def test_hand_evaluated_point(self):
        assert pem_first(0.1, 0.1) == pytest.approx(0.0352, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.5), probabilities)
    def test_interpolates_between_pe_and_pf(self, pf, pfmb):
        pem = pem_first(pf, pfmb)
        assert pe_first(pf) - 1e-12 <= pem <= pf + 1e-12


class TestPeOrder:
    def test_order_zero_is_identity(self):
        for p in (0.0, 0.014, 0.5, 0.93, 1.0):
            assert pe_order(0, p) == p

    def test_reference_values(self):
        assert pe_order(1, 0.1) == pytest.approx(0.028, abs=1e-12)
        assert pe_order(2, 0.1) == pytest.approx(2.308096e-3, abs=1e-12)
        assert pe_order(2, 0.001) == pytest.approx(2.6963958107928013e-11, rel=1e-12)
        assert pe_order(3, 0.1) == pytest.approx(1.5957329563022722e-5, rel=1e-12)

    def test_half_is_a_fixed_point_of_every_order(self):
        for j in range(MAX_ORDER + 1):
            assert pe_order(j, 0.5) == 0.5

    def test_recursion_identity(self):
        for j in range(1, 7):
            for p in np.linspace(0.0, 1.0, 11):
                p = float(p)
                assert pe_order(j, p) == pe_first(pe_order(j - 1, p))

    def test_depth_bounds(self):
        with pytest.raises(ValueError):
            pe_order(MAX_ORDER + 1, 0.1)
        with pytest.raises(ValueError):
            pe_order(-1, 0.1)


class TestPemOrder:
    def test_zero_voter_rate_collapses_to_pe(self):
        for j in (1, 2, 3):
            for p in (0.05, 0.1, 0.3):
                assert pem_order(j, p, 0.0) == pe_order(j, p)

    def test_first_level_matches_pem_first(self):
        assert pem_order(1, 0.1, 0.1) == pem_first(0.1, 0.1)

    def test_hand_evaluated_second_level(self):
        # 0.0352 * 0.1 + pe_first(0.028) * 0.9
        assert pem_order(2, 0.1, 0.1) == pytest.approx(5.5972864e-3, abs=1e-12)

    def test_order_zero_is_the_bare_module(self):
        for p in (0.0, 0.1, 0.5, 1.0):
            for q in (0.0, 0.1, 1.0):
                assert pem_order(0, p, q) == p

    @pytest.mark.parametrize("pattern,lowest", [
        ("NNF", 1), ("NFF", 1), ("FFF", 1), ("NFFNNFFFN", 2),
    ])
    def test_a_pattern_without_voter_faults_is_the_exact_tree(self, pattern, lowest):
        # so every scenarios document's pem equals its pe bit for bit
        for pf in (0.0, 0.1, 0.3, 0.5, 0.999999999, 1.0):
            leaves = make_scenario(pattern, pf)
            for j in range(lowest, 7):
                assert pem_order(j, leaves, 0.0) == tree_error_probability(leaves, j)

    def test_one_rate_is_one_tiled_leaf(self):
        for j in range(7):
            for p in (0.0, 0.1, 0.5, 1.0):
                for q in (0.0, 0.1, p, 1.0):
                    assert pem_order(j, (p,), q) == pem_order(j, p, q)
                    assert pem_order(j, np.array([p]), q) == pem_order(j, p, q)

    @pytest.mark.parametrize("leaves", [
        make_scenario("NNF", 0.3), make_scenario("NFF", 0.2), make_scenario("FNF", 0.7),
        (0.1, 0.2, 0.3), (0.9, 0.05, 0.0), (1e-6, 0.5, 1.0),
    ])
    def test_first_level_of_any_leaves_is_the_exact_tree(self, leaves):
        for q in (0.0, 1e-4, 0.1, 0.2, 0.5, 1.0):
            exact = tree_error_probability(leaves, 1, q)
            assert pem_order(1, leaves, q) == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_failed_voters_pass_the_leftmost_leaf(self):
        leaves = make_scenario("FNFNNFFFN", 0.3)
        for j in (2, 3, 6):
            assert pem_order(j, leaves, 1.0) == 0.3 == tree_error_probability(leaves, j, 1.0)
        assert pem_order(2, make_scenario("NFF", 0.3), 1.0) == 0.0

    def test_leaves_must_fit_the_order(self):
        with pytest.raises(ValueError, match=r"3\*\*k leaf error rates"):
            pem_order(1, make_scenario("NFFNNFFFN", 0.1), 0.1)


class TestReductionRate:
    def test_equal_rates_give_zero(self):
        assert reduction_rate(0.2, 0.2) == 0.0

    def test_reference_value(self):
        assert reduction_rate(0.1, 0.028) == pytest.approx(
            math.log10(0.1 / 0.028), abs=1e-15
        )
        assert reduction_rate(0.1, 0.028) == pytest.approx(0.5528, abs=1e-4)

    def test_perfect_masking_is_infinite(self):
        assert reduction_rate(0.1, 0.0) == math.inf

    def test_undefined_at_pf_zero(self):
        with pytest.raises(ValueError):
            reduction_rate(0.0, 0.1)


class TestOperationsPerError:
    def test_values(self):
        assert operations_per_error(0.5) == 2.0
        assert operations_per_error(0.028) == pytest.approx(35.714285714, rel=1e-9)
        assert operations_per_error(2.308096e-3) == pytest.approx(433.2575, abs=1e-3)

    def test_zero_rate_raises(self):
        with pytest.raises(ValueError):
            operations_per_error(0.0)


def scenario_pe_bruteforce(pattern: str, pf: float) -> float:
    """Independent oracle: enumerate all 2**3 error patterns of the three
    modules, weight by per-module error probability (0 for fault-free
    modules), and sum the mass where the voted output is wrong."""
    rates = [pf if c == "F" else 0.0 for c in pattern]
    total = 0.0
    for errs in product((0, 1), repeat=3):
        weight = 1.0
        for rate, e in zip(rates, errs):
            weight *= rate if e else (1.0 - rate)
        # reference bit 0: an erring module outputs 1
        if majority_vote(errs) != 0:
            total += weight
    return total


class TestScenarioErrorProbability:
    def test_single_fault_always_masked(self):
        for pf in (0.0, 0.3, 0.5, 1.0):
            assert scenario_error_probability("NNF", pf) == 0.0

    def test_two_faults_need_coincidence(self):
        assert scenario_error_probability("NFF", 0.1) == pytest.approx(0.01, abs=1e-15)

    def test_three_faults_reduce_to_first_order_polynomial(self):
        assert scenario_error_probability("FFF", 0.1) == pe_first(0.1)

    def test_matches_bruteforce_enumeration(self):
        for pattern in ("NNF", "NFF", "FFF"):
            for pf in np.linspace(0.0, 1.0, 21):
                pf = float(pf)
                assert scenario_error_probability(pattern, pf) == pytest.approx(
                    scenario_pe_bruteforce(pattern, pf), abs=1e-12
                ), (pattern, pf)

    def test_accepts_module_triples(self):
        # a rate triple goes to the evaluator itself
        scenario = make_scenario("NFF", 0.2)
        assert tree_error_probability(scenario, 1) == pytest.approx(0.04, abs=1e-15)

    def test_triples_keep_their_own_rates(self):
        # every module at 0.3 errs like pe_first(0.3), whatever other rate is near
        assert tree_error_probability(make_scenario("FFF", 0.3), 1) == pe_first(0.3)
        assert scenario_error_probability("FFF", 0.3) == pe_first(0.3)

    def test_rejects_bad_pattern(self):
        with pytest.raises(ValueError):
            scenario_error_probability("NFX", 0.1)


VOTER_CASES = list(product((0, 1), repeat=4))


def gate_voter(a, b, c, f):
    """The voter rule from ``voting``'s gate forms: majority or pass-through, and alarm."""
    return (a if f else majority_vote((a, b, c))), alarm_signal((a, b, c))


def word_lanes(word) -> list[int]:
    """The 64 lanes of a ``uint64`` word as ints, lane t = bit t."""
    return [int(word) >> t & 1 for t in range(64)]


class TestVoter:
    def test_all_sixteen_cases_on_ints(self):
        for a, b, c, f in VOTER_CASES:
            assert voter(a, b, c, f) == gate_voter(a, b, c, f), (a, b, c, f)

    def test_sixteen_cases_as_lanes_of_one_word(self):
        # case i is lane i of each input word; lanes 16..63 are all zero
        words = [
            np.array([sum(case[j] << i for i, case in enumerate(VOTER_CASES))], dtype=np.uint64)
            for j in range(4)
        ]
        out, alarm = (word_lanes(word[0]) for word in voter(*words))
        for i, case in enumerate(VOTER_CASES):
            assert (out[i], alarm[i]) == gate_voter(*case), case
        assert out[16:] == alarm[16:] == [0] * 48

    def test_random_words_lane_by_lane(self):
        words = np.random.default_rng(18).integers(0, 2**64, size=(4, 64), dtype=np.uint64)
        before = words.copy()
        out, alarm = voter(*words)
        np.testing.assert_array_equal(words, before)  # the inputs are left as they were
        for w in range(64):
            cases = zip(*(word_lanes(row[w]) for row in words))
            got = zip(word_lanes(out[w]), word_lanes(alarm[w]))
            for t, (case, lane) in enumerate(zip(cases, got)):
                assert lane == voter(*case), (w, t)

    def test_no_fault_operand_votes_like_a_clear_fault_bit(self):
        # a voter that cannot fail skips the fault step
        for a, b, c, f in VOTER_CASES:
            assert voter(a, b, c) == gate_voter(a, b, c, 0), (a, b, c)
        words = np.random.default_rng(19).integers(0, 2**64, size=(3, 64), dtype=np.uint64)
        for got, want in zip(voter(*words), voter(*words, np.zeros(64, dtype=np.uint64))):
            np.testing.assert_array_equal(got, want)

    def test_inverting_the_inputs_inverts_the_output_and_keeps_the_alarm(self):
        # so the block kernel may vote on error bits instead of data bits
        for a, b, c, f in VOTER_CASES:
            out, alarm = voter(a, b, c, f)
            assert voter(a ^ 1, b ^ 1, c ^ 1, f) == (out ^ 1, alarm), (a, b, c, f)


def tree_error_bruteforce(leaves, order: int, q: float) -> float:
    """Independent oracle: enumerate every leaf-error and voter-fault
    pattern of the tiled tree, push the error bits up with the voter truth
    table (a failed voter passes its first child), and sum the weight of
    the patterns whose root errs."""
    rates = list(leaves) * (3 ** order // len(leaves))
    voters = (3 ** order - 1) // 2
    total = 0.0
    for errs in product((0, 1), repeat=len(rates)):
        leaf_weight = math.prod(r if e else 1.0 - r for r, e in zip(rates, errs))
        for fails in product((0, 1), repeat=voters):
            weight = leaf_weight * math.prod(q if f else 1.0 - q for f in fails)
            level, fail = list(errs), iter(fails)
            while len(level) > 1:
                triples = [level[i:i + 3] for i in range(0, len(level), 3)]
                level = [t[0] if next(fail) else majority_vote(t) for t in triples]
            total += weight * level[0]
    return total


MIXED_LEAVES = (0.3, 0.0, 1.0, 0.7, 0.15, 0.0, 0.45, 1.0, 0.9)


def seeded_leaves(seed: int, k: int) -> tuple[float, ...]:
    """3**k seeded random leaf rates, two of them set to 0 and 1."""
    rng = np.random.default_rng(seed)
    rates = rng.random(3 ** k)
    rates[rng.choice(3 ** k, size=2, replace=False)] = 0.0, 1.0
    return tuple(rates.tolist())


class TestTreeErrorProbability:
    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0, 0.05, 0.5, 0.95])
    @pytest.mark.parametrize("order,leaves", [
        *(pytest.param(order, MIXED_LEAVES[:3 ** k], id=f"{order}-{k}")
          for order, k in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]),
        *(pytest.param(order, seeded_leaves(seed, k), id=f"{order}-{k}-seed{seed}")
          for order, k, seed in [(1, 1, 1), (1, 1, 2), (2, 1, 3), (2, 2, 4), (2, 2, 5)]),
    ])
    def test_matches_bruteforce_enumeration(self, order, leaves, q):
        assert tree_error_probability(leaves, order, q) == pytest.approx(
            tree_error_bruteforce(leaves, order, q), rel=1e-12, abs=1e-15
        )

    def test_short_leaves_tile_like_the_full_bottom_level(self):
        for q in (0.0, 0.3):
            triple = MIXED_LEAVES[:3]
            assert tree_error_probability(triple, 3, q) == tree_error_probability(
                triple * 9, 3, q
            )
            for p in (0.0, 0.1, 0.5, 0.999999999, 1.0):
                assert tree_error_probability([p] * 27, 3, q) == (
                    tree_error_probability([p], 3, q)
                )

    def test_failed_voter_passes_its_first_child(self):
        assert tree_error_probability([1.0, 0.0, 0.0], 1, 1.0) == 1.0
        assert tree_error_probability([0.0, 1.0, 1.0], 1, 1.0) == 0.0
        assert tree_error_probability([1.0, 0.0, 0.0], 1, 0.0) == 0.0

    def test_voter_faults_at_every_level_differ_from_pem_order(self):
        # pf = pfmb = 0.1: order 1 agrees with the paper's mixture, deeper
        # trees err more often than pem_order because their lower voters
        # fail too
        assert tree_error_probability([0.1], 1, 0.1) == pem_order(1, 0.1, 0.1)
        assert tree_error_probability([0.1], 2, 0.1) == pytest.approx(6.7869e-3, abs=1e-7)
        assert tree_error_probability([0.1], 3, 0.1) == pytest.approx(8.025e-4, abs=1e-7)
        assert pem_order(2, 0.1, 0.1) == pytest.approx(5.597e-3, abs=1e-6)

    @pytest.mark.parametrize("leaves,order", [
        ([], 1), ([0.1] * 2, 1), ([0.1] * 6, 2), ([0.1] * 9, 1), ([0.1] * 3, 0),
    ])
    def test_rejects_leaf_counts_that_do_not_tile(self, leaves, order):
        with pytest.raises(ValueError, match=r"3\*\*k leaf error rates"):
            tree_error_probability(leaves, order)

    def test_order_bounds(self):
        for bad in (-1, MAX_ORDER + 1, 1.5, math.nan, math.inf, "2"):
            with pytest.raises(ValueError, match="order must"):
                tree_error_probability([0.1], bad)


def seeded_patterns(seed: int, count: int) -> list[tuple[float, ...]]:
    """``count`` seeded random 3- and 9-letter N/F patterns at random rates."""
    rng = np.random.default_rng(seed)
    return [
        make_scenario("".join(rng.choice(["N", "F"], size=rng.choice([3, 9]))), rng.random())
        for _ in range(count)
    ]


class TestSubtreeErrorProbabilities:
    """One walk gives the exact tree of every leftmost subtree."""

    @pytest.mark.parametrize("seed", range(4))
    def test_entry_k_is_the_leftmost_order_k_tree(self, seed):
        rng = np.random.default_rng(100 + seed)
        cases = [seeded_leaves(seed, k) for k in (1, 2)] + seeded_patterns(seed, 8)
        for leaves in cases:
            lowest = round(math.log(len(leaves), 3))
            for q in (0.0, float(rng.random())):
                for order in (lowest, lowest + 1, 6):
                    walk = subtree_error_probabilities(leaves, order, q)
                    assert len(walk) == order + 1
                    for k, pe in enumerate(walk):
                        # the leftmost 3**k leaves, or the whole pattern
                        # where that is shorter
                        assert pe == tree_error_probability(leaves[:3 ** k], k, q), (k, q)

    @pytest.mark.parametrize("leaves", [
        (0.1,), (0.0,), (1.0,), MIXED_LEAVES[:3], MIXED_LEAVES, seeded_leaves(7, 2),
        make_scenario("NFF", 0.3), make_scenario("FNFNNFFFN", 0.2),
    ])
    def test_ends_are_the_leftmost_leaf_and_the_root(self, leaves):
        for q in (0.0, 0.1, 1.0):
            for order in (2, 3, MAX_ORDER):
                walk = subtree_error_probabilities(leaves, order, q)
                assert walk[0] == leaves[0]
                assert walk[-1] == tree_error_probability(leaves, order, q)

    def test_uniform_leaves_give_every_order(self):
        for p in (0.0, 0.1, 0.3, 0.5, 1.0):
            assert subtree_error_probabilities((p,), 6) == tuple(
                pe_order(k, p) for k in range(7)
            )
            assert subtree_error_probabilities((p,), 0) == (p,)

    def test_rejects_what_the_tree_rejects(self):
        with pytest.raises(ValueError, match=r"3\*\*k leaf error rates"):
            subtree_error_probabilities([0.1] * 9, 1)
        with pytest.raises(ValueError, match="order must"):
            subtree_error_probabilities([0.1], MAX_ORDER + 1)


class TestPropositionCheck:
    def test_holds_below_half(self):
        report = proposition_check(0.1, 3)
        assert report.verdict == "holds"
        values = dict(report.entries)
        assert values[1] == pytest.approx(0.028, abs=1e-12)
        assert values[2] == pytest.approx(2.308096e-3, abs=1e-12)
        assert values[3] == pytest.approx(1.5957329563022722e-5, rel=1e-12)
        assert all(ok for _, ok in report.comparisons)

    def test_documented_violation_above_half(self):
        report = proposition_check(0.6, 2)
        assert report.verdict == "violated"
        values = dict(report.entries)
        assert values[1] == pytest.approx(0.648, abs=1e-12)
        assert values[2] == pytest.approx(0.715516416, abs=1e-9)
        assert values[2] > values[1]

    def test_fixed_point_fails_strict_decrease(self):
        report = proposition_check(0.5, 4)
        assert report.verdict == "violated"
        assert all(pe == 0.5 for _, pe in report.entries)

    def test_restricted_domain_grid(self):
        for pf in np.linspace(0.001, 0.499, 50):
            assert proposition_check(float(pf), 6).verdict == "holds"

    def test_levels_past_an_underflow_are_undecided(self):
        # every level is positive at pf = 0.3, but levels 12-16 underflow to
        # 0; level 12 still decreased from level 11, and no later one can tell
        report = proposition_check(0.3, 16)
        values = dict(report.entries)
        assert values[11] > 0.0 and all(values[j] == 0.0 for j in range(12, 17))
        decided = dict(report.comparisons)
        assert all(decided[j] is True for j in range(2, 13))
        assert all(decided[j] is None for j in range(13, 17))
        assert report.verdict == "holds"

    def test_exact_zeros_at_pf_zero_do_not_decrease(self):
        report = proposition_check(0.0, 4)
        assert all(pe == 0.0 for _, pe in report.entries)
        assert all(ok is False for _, ok in report.comparisons)
        assert report.verdict == "violated"

    def test_no_decided_comparison_is_undetermined(self):
        # level 1 at pf = 1e-200 is 3e-400, which underflows to 0 already
        report = proposition_check(1e-200, 4)
        assert all(pe == 0.0 for _, pe in report.entries)
        assert all(ok is None for _, ok in report.comparisons)
        assert report.verdict == "undetermined"

    def test_needs_at_least_two_levels(self):
        with pytest.raises(ValueError):
            proposition_check(0.1, 1)


class TestExpansionAudit:
    def test_exact_coefficients_match_symbolic_expansion(self):
        # independent oracle: expand the composition symbolically
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        inner = 3 * x**2 - 2 * x**3
        expanded = sympy.Poly(sympy.expand(inner.subs(x, inner)), x)
        derived = {
            power: float(coeff)
            for power, coeff in zip(
                range(expanded.degree(), -1, -1), expanded.all_coeffs()
            )
            if coeff != 0
        }
        assert derived == dict(EXACT_ORDER2_EXPANSION)

    def test_exact_expansion_tracks_composition(self):
        rng = np.random.default_rng(20250811)
        for p in rng.uniform(0.0, 1.0, 25):
            p = float(p)
            assert evaluate_power_series(EXACT_ORDER2_EXPANSION, p) == pytest.approx(
                pe_first(pe_first(p)), abs=1e-12
            )

    def test_claimed_expansion_is_wrong(self):
        audit = expansion_audit([0.0, 0.1, 0.5])
        by_p = {s.p: s for s in audit.samples}
        assert by_p[0.0].abs_difference == 0.0
        assert by_p[0.5].composed == pytest.approx(0.5, abs=1e-12)
        assert by_p[0.5].claimed == pytest.approx(0.0625, abs=1e-12)
        assert by_p[0.5].abs_difference == pytest.approx(0.4375, abs=1e-12)
        assert by_p[0.1].composed == pytest.approx(2.308096e-3, abs=1e-12)
        assert by_p[0.1].claimed == pytest.approx(2.471264e-3, abs=1e-12)
        assert audit.max_abs_difference > 0.4

    def test_claimed_and_exact_differ_only_from_quintic_up(self):
        assert CLAIMED_ORDER2_EXPANSION[4] == EXACT_ORDER2_EXPANSION[4]
        for power in (5, 7, 8, 9):
            assert CLAIMED_ORDER2_EXPANSION[power] != EXACT_ORDER2_EXPANSION[power]

    def test_empty_sample_set_rejected(self):
        with pytest.raises(ValueError):
            expansion_audit([])
