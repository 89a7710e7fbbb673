"""Structural simulator: topology, draw order, masking, and determinism.

The vectorized ``run_trials`` is held bit-exactly to the scalar
``simulate_bit`` walk on the same fault bits. Both routes now call one
voter rule, ``reliability.voter``, so this chain checks the walk: the
levels, the triples, the draw order of the fault bits and the alarm
indices. The rule's logic is checked on its own against ``voting``'s gate
forms (``tests/test_reliability.py::TestVoter``).
"""

import math
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from htmr_lab import network
from htmr_lab.faults import SCRATCH_CELLS, RandomSource, make_scenario
from htmr_lab.harness import SweepConfig, sweep_monte_carlo
from htmr_lab.network import (
    EmpiricalEstimate,
    FaultStatusCounter,
    block_trials,
    build_network,
    run_trials,
    simulate_bit,
    tile_scenario,
)
from htmr_lab.reliability import (
    MAX_ORDER,
    pe_first,
    pe_order,
    pem_first,
    pem_order,
    tree_error_probability,
)


def unpacked(lanes, m):
    """A block's packed rows as bools: a row per fault bit, a column per trial."""
    return np.unpackbits(lanes.view(np.uint8), axis=1, bitorder="little")[:, :m]


class TestTopology:
    @pytest.mark.parametrize(
        "order,leaves,voters", [(0, 1, 0), (1, 3, 1), (2, 9, 4), (3, 27, 13)]
    )
    def test_counts(self, order, leaves, voters):
        net = build_network(order, 0.1)
        assert net.leaf_count == leaves
        assert net.voter_count == voters

    def test_every_voter_has_three_children(self):
        # a wrong node (a leaf, or a voter whose whole subtree is wrong)
        # raises only its parent's alarm: voter v votes nodes 3v+1..3v+3,
        # with leaf k at node voter_count + k, and these triples partition
        # every non-root node
        order = 3
        voters = build_network(order, 0.0).voter_count
        total = voters + 3 ** order
        parents = []
        for node in range(1, total):
            depth = int(math.log(2 * node + 1, 3) + 1e-9)
            span = 3 ** (order - depth)
            first = (node - (3 ** depth - 1) // 2) * span
            leaves = [0.0] * 3 ** order
            leaves[first:first + span] = [1.0] * span
            out, alarms = simulate_bit(build_network(order, leaves), 0, [1] * span)
            assert out == 0
            assert sum(alarms) == 1, node
            parents.append(alarms.index(1))
            assert parents[-1] == (node - 1) // 3
        assert sorted(parents) == sorted(list(range(voters)) * 3)

    def test_bottom_up_order_is_deepest_level_first(self):
        # order 2, every leaf and voter drawn: bits 0-8 are the leaves left
        # to right, bits 9-11 the bottom voters 1, 2, 3, and bit 12 the root
        net = build_network(2, 0.5, voter_fault_rate=0.5)

        def bits(*set_bits):
            hits = [0] * 13
            for k in set_bits:
                hits[k] = 1
            return hits

        for leaf in range(9):
            # a wrong leaf raises only its own voter's alarm
            alarms = [0] * 4
            alarms[1 + leaf // 3] = 1
            assert simulate_bit(net, 0, bits(leaf)) == (0, tuple(alarms)), leaf
        for voter in (1, 2, 3):
            # voter v's first leaf is wrong; only v's own fault bit passes
            # it up, where it raises the root's alarm
            first_leaf = 3 * (voter - 1)
            for bit in (9, 10, 11):
                alarms = [int(bit == 8 + voter), 0, 0, 0]
                alarms[voter] = 1
                out, got = simulate_bit(net, 0, bits(first_leaf, bit))
                assert (out, got) == (0, tuple(alarms)), (voter, bit)
        # the root's bit passes voter 1's wrong output through
        assert simulate_bit(net, 0, bits(0, 9, 12)) == (1, (1, 1, 0, 0))
        assert simulate_bit(net, 0, bits(3, 10, 12)) == (0, (1, 0, 1, 0))

    def test_leaf_length_mismatch_rejected(self):
        # 3**k rates with k <= order tile; any other count does not
        for count in (2, 4, 8, 27):
            with pytest.raises(ValueError, match="3\\*\\*k leaf error rates"):
                build_network(2, [0.0] * count)

    def test_leaves_stay_as_given(self):
        assert build_network(MAX_ORDER, 0.1).leaves == (0.1,)
        assert build_network(2, make_scenario("NNF", 0.3)).leaves == (0.0, 0.0, 0.3)

    def test_leaves_reduce_to_their_shortest_tiling(self):
        nine = (0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.1, 0.2, 0.4)
        assert build_network(2, nine).leaves == nine
        assert build_network(2, (0.1, 0.2, 0.3) * 3).leaves == (0.1, 0.2, 0.3)
        assert build_network(3, [0.0] * 27).leaves == (0.0,)
        assert tile_scenario((0.2,) * 9, 2) == (0.2,) * 9

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            build_network(-1, 0.1)
        with pytest.raises(ValueError):
            build_network(MAX_ORDER + 1, 0.1)

    def test_uniform_and_explicit_configs_agree(self):
        # one tree, two descriptions: equal networks with equal hashes
        uniform = build_network(1, 0.2, voter_fault_rate=0.1)
        explicit = build_network(1, [0.2] * 3, voter_fault_rate=0.1)
        assert uniform == explicit
        assert hash(uniform) == hash(explicit)
        tiled = build_network(2, make_scenario("NFF", 0.3))
        assert tiled == build_network(2, make_scenario("NFF", 0.3) * 3)
        assert hash(tiled) == hash(build_network(2, make_scenario("NFF", 0.3) * 3))
        assert uniform != build_network(1, [0.2, 0.2, 0.3], voter_fault_rate=0.1)

    def test_voter_rate_validated(self):
        with pytest.raises(ValueError):
            build_network(1, 0.1, voter_fault_rate=1.2)

    def test_tile_scenario(self):
        scenario = make_scenario("NNF", 0.3)
        assert tile_scenario(scenario, 1) == scenario
        tiled = tile_scenario(scenario, 2)
        assert len(tiled) == 9
        assert tiled[0:3] == scenario and tiled[3:6] == scenario and tiled[6:9] == scenario
        # any 3**k rates tile, one rate included
        assert tile_scenario((0.2,), 0) == (0.2,)
        assert tile_scenario((0.2,), 2) == (0.2,) * 9
        nine = tuple(k / 10 for k in range(9))
        assert tile_scenario(nine, 3) == nine * 3

    def test_tile_scenario_checks_order_before_tiling(self):
        scenario = make_scenario("NNF", 0.3)
        for order in (0, MAX_ORDER + 1):
            with pytest.raises(ValueError):
                tile_scenario(scenario, order)
        # one rate at MAX_ORDER + 1 would tile to 3**17 leaves
        with pytest.raises(ValueError, match=f"order must lie in 0..{MAX_ORDER}"):
            tile_scenario((0.1,), MAX_ORDER + 1)


class TestSimulateBit:
    def test_fault_free_network_is_transparent(self):
        net = build_network(2, 0.0)
        for ref in (0, 1):
            out, alarms = simulate_bit(net, ref, ())
            assert out == ref
            assert alarms == (0,) * 4

    def test_single_always_wrong_module_is_outvoted_and_flagged(self):
        net = build_network(1, make_scenario("NNF", 1.0))
        out, alarms = simulate_bit(net, 0, (1,))
        assert out == 0
        assert alarms == (1,)

    def test_alarms_are_indexed_breadth_first(self):
        # order 2: the root is voter 0 and the bottom voters 1, 2, 3 take
        # leaf triples 0, 1, 2; one always-wrong leaf in triple 1 raises
        # only the alarm of voter 2, which masks it from the root
        leaves = [0.0] * 9
        leaves[4] = 1.0
        net = build_network(2, leaves)
        for ref in (0, 1):
            out, alarms = simulate_bit(net, ref, (1,))
            assert out == ref
            assert alarms == (0, 0, 1, 0)

    def test_all_wrong_modules_win_silently(self):
        net = build_network(1, make_scenario("FFF", 1.0))
        out, alarms = simulate_bit(net, 0, (1, 1, 1))
        assert out == 1
        assert alarms == (0,)

    def test_draw_order_matches_documentation(self):
        # order 1, leaves (N, F, F), faulty voter: the bits are leaf 2,
        # leaf 3, then the voter; the rate-0 leaf 1 has none
        net = build_network(1, (0.0, 0.5, 0.5), voter_fault_rate=0.5)
        expected = {
            (0, 0, 0): (0, (0,)),
            (1, 0, 0): (0, (1,)),  # leaf 2 wrong, outvoted
            (0, 1, 0): (0, (1,)),  # leaf 3 wrong, outvoted
            (0, 0, 1): (0, (0,)),  # the voter passes leaf 1 through
            (1, 1, 0): (1, (1,)),  # two wrong leaves win the vote
            (1, 1, 1): (0, (1,)),  # ...unless the voter passes leaf 1
        }
        for hits, result in expected.items():
            assert simulate_bit(net, 0, hits) == result, hits

    def test_results_do_not_depend_on_the_reference_bit(self):
        # inverting every leaf inverts every voter's majority and
        # pass-through output and leaves its alarm unchanged, so the error
        # bit and the alarms agree for either reference on the same bits
        for order in (1, 2, 3):
            leaves = [
                0.0 if k % 4 == 1 else 0.2 + 0.1 * (k % 5)
                for k in range(3 ** order)
            ]
            net = build_network(order, leaves, voter_fault_rate=0.25)
            runs = network._draw_runs(net)
            buffers = network._block_buffers(runs, 60)
            lanes = network._draw_block(runs, 60, RandomSource(order), 0, buffers)
            hit = unpacked(lanes, 60)
            for trial in range(60):
                outcomes = []
                for ref in (0, 1):
                    out, alarms = simulate_bit(net, ref, hit[:, trial])
                    outcomes.append((out ^ ref, alarms))
                assert outcomes[0] == outcomes[1], (order, trial)

    def test_rejects_bad_reference(self):
        with pytest.raises(ValueError):
            simulate_bit(build_network(1, 0.1), 2, (0, 0, 0))

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_rejects_a_wrong_number_of_fault_bits(self, count):
        net = build_network(1, (0.0, 0.5, 0.5), voter_fault_rate=0.5)
        with pytest.raises(ValueError, match=f"takes 3 fault bits per trial, got {count}"):
            simulate_bit(net, 0, [0] * count)


class TestRunTrialsDeterminism:
    def test_scalar_and_vectorized_routes_are_bit_identical(self):
        # block 0's fault bits, drawn as run_trials draws them, fed to the
        # scalar walk column by column
        leaves = (0.0, 0.35, 0.8) * 3
        # order 3: fault-free leaves at scattered positions, including a
        # whole fault-free triple and a triple with a single faulty leaf
        sparse = [0.3] * 27
        for k in (0, 4, 5, 9, 10, 11, 17, 22, 26):
            sparse[k] = 0.0
        mixed = (0.4, 0.0, 0.6)
        # rate-0 leaves have no fault bit and rate-1 leaves one that is
        # always set, between fractional ones, under voter faults; tiled at
        # order 3
        extremes = (0.0, 1.0, 0.45, 1.0, 0.0, 0.0, 0.3, 1.0, 0.0)
        # block widths around one 64-trial word: the zero padding lanes must
        # never err or alarm, not even beside rate-1 leaves, whose every real
        # lane is set, runs above 1/2, whose rows are drawn inverted, or runs
        # whose raw dyadic words set every lane, padding included
        lane_edges = [
            (net, n)
            for n in (1, 7, 63, 64, 65)
            for net in (
                build_network(1, 1.0),
                build_network(2, extremes, voter_fault_rate=0.35),
                build_network(2, 0.7, voter_fault_rate=0.6),
                build_network(2, 0.3, voter_fault_rate=0.45),
            )
        ]
        for net, n in lane_edges + [
            (build_network(2, leaves, voter_fault_rate=0.2), 700),
            (build_network(0, 0.35, voter_fault_rate=0.2), 700),
            (build_network(3, sparse, voter_fault_rate=0.1), 700),
            (build_network(2, extremes, voter_fault_rate=0.35), 700),
            (build_network(3, extremes, voter_fault_rate=0.2), 700),
            (build_network(2, 0.0, voter_fault_rate=0.5), 700),
            # both runs above 1/2: their rows are drawn inverted
            (build_network(2, 0.7, voter_fault_rate=0.6), 700),
            (build_network(1, mixed, voter_fault_rate=0.3), 700),
            # rate 1/2: one raw word per 64 lanes and no Poisson draw
            (build_network(2, 0.5, voter_fault_rate=0.5), 12_000),
        ]:
            master = RandomSource(4242)
            estimate, counter = run_trials(net, n, master)
            # single block: block 0 carries all draws
            runs = network._draw_runs(net)
            lanes = network._draw_block(runs, n, master, 0, network._block_buffers(runs, n))
            hit = unpacked(lanes, n)
            errors = 0
            alarm_counts = [0] * net.voter_count
            for i in range(n):
                ref = i & 1
                out, alarms = simulate_bit(net, ref, hit[:, i])
                errors += int(out != ref)
                for v, alarm in enumerate(alarms):
                    alarm_counts[v] += alarm
            assert estimate.errors == errors
            assert counter.alarm_counts == tuple(alarm_counts)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reused_block_buffers_match_fresh_blocks(self, workers):
        # three full blocks and a short one, each process drawing into its one
        # buffer: stale bits of an earlier block, or a sampler filling a copy
        # of the buffer, would change the counts against blocks drawn into
        # freshly allocated buffers
        block_size = 256
        n = 3 * block_size + 5
        for net in (
            build_network(2, (0.0, 1.0, 0.45) * 3, voter_fault_rate=0.35),
            build_network(2, 0.7, voter_fault_rate=0.6),
        ):
            estimate, counter = run_trials(
                net, n, RandomSource(77), workers=workers, block_size=block_size
            )
            runs = network._draw_runs(net)
            errors = 0
            alarm_counts = [0] * net.voter_count
            for b in range(4):
                m = min(block_size, n - b * block_size)
                buffers = [np.zeros_like(buf) for buf in network._block_buffers(runs, m)]
                hit = unpacked(network._draw_block(runs, m, RandomSource(77), b, buffers), m)
                for i in range(m):
                    out, alarms = simulate_bit(net, 0, hit[:, i])
                    errors += out
                    alarm_counts = [c + a for c, a in zip(alarm_counts, alarms)]
            assert estimate.errors == errors
            assert counter.alarm_counts == tuple(alarm_counts)

    def test_same_seed_same_results(self):
        net = build_network(2, 0.1, voter_fault_rate=0.05)
        first = run_trials(net, 10_000, RandomSource(7))
        second = run_trials(net, 10_000, RandomSource(7))
        assert first == second

    def test_worker_count_never_changes_results(self, monkeypatch, forks):
        net = build_network(2, 0.1, voter_fault_rate=0.05)
        n = 2 * block_trials(net) + 5  # spans multiple blocks
        # a worker for any work and four processors, so every worker count
        # forks its workers
        monkeypatch.setattr(network, "BITS_PER_WORKER", 1)
        monkeypatch.setattr(network, "_processors", lambda: 4)
        baseline = run_trials(net, n, RandomSource(7), workers=1)
        for workers in (2, 3):
            assert run_trials(net, n, RandomSource(7), workers=workers) == baseline
        assert len(forks) == 1 + 2

    def test_block_size_partitions_reproducibly(self):
        # explicit small blocks exercise the multi-block path cheaply
        net = build_network(1, 0.3)
        a = run_trials(net, 5_000, RandomSource(3), block_size=512)
        b = run_trials(net, 5_000, RandomSource(3), block_size=512, workers=3)
        assert a == b

    def test_a_network_without_fault_bits_draws_nothing(self, monkeypatch):
        calls = []
        for name in ("derive", "uniforms", "_bernoulli", "bernoulli_lanes"):
            method = getattr(RandomSource, name)

            def counted(self, *args, _name=name, _method=method):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(RandomSource, name, counted)
        # four blocks: both networks have a row per leaf, so equal widths
        n = 3 * block_trials(build_network(2, 0.1)) + 1
        estimate, counter = run_trials(build_network(2, 0.0), n, RandomSource(0))
        assert calls == []
        assert estimate.errors == 0 and counter.alarm_counts == (0,) * 4
        run_trials(build_network(2, 0.1), n, RandomSource(0))
        assert calls.count("derive") == 4 and calls.count("bernoulli_lanes") == 4

    def test_needs_at_least_one_trial(self):
        with pytest.raises(ValueError):
            run_trials(build_network(1, 0.1), 0, RandomSource(0))

    @pytest.mark.parametrize("n", [0, -1, 2**63, 10**30])
    def test_trial_count_must_fit_the_int64_counters(self, n):
        with pytest.raises(ValueError, match=r"1\.\.2\*\*63 - 1"):
            run_trials(build_network(1, 0.1), n, RandomSource(0))

    def test_largest_trial_count_is_accepted(self, monkeypatch):
        # runs no trial: the first block to reach the kernel stops the call
        def stop(net, lanes, drawn):
            raise RuntimeError(f"block of {64 * lanes.shape[1]} trials")

        monkeypatch.setattr(network, "_simulate_block", stop)
        net = build_network(1, 0.1)
        with pytest.raises(RuntimeError, match=f"block of {block_trials(net)} trials"):
            run_trials(net, 2**63 - 1, RandomSource(0))

    def test_memory_does_not_grow_with_the_block_count(self):
        net = build_network(1, 0.1)
        peaks = []
        for blocks in (100, 2000, 100, 2000):  # the first pair warms caches up
            tracemalloc.start()
            run_trials(net, blocks, RandomSource(4), block_size=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        # one kept result per block would add about 150 bytes a block
        assert peaks[3] - peaks[2] < 50_000

    def test_one_block_peaks_near_its_fault_bit_matrix(self, empty_workspace):
        # one order-4 block with voter faults holds 121 packed fault-bit rows
        # and the sampler's bool scratch of one piece; the kernel's levels
        # take a third of the leaf rows and less, so the block needs little
        # beyond the two
        net = build_network(4, 0.1, voter_fault_rate=0.1)
        m = block_trials(net)
        run_trials(net, m, RandomSource(4))  # warms caches up
        empty_workspace()  # so the measured call allocates its block's buffers
        tracemalloc.start()
        run_trials(net, m, RandomSource(4))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 1.6 * (121 * m // 8 + SCRATCH_CELLS)

    @pytest.mark.parametrize(
        "net",
        [
            build_network(0, 0.3),
            build_network(4, 0.1, voter_fault_rate=0.1),
            build_network(4, 0.4999, voter_fault_rate=0.4999),
        ],
        ids=["order0_long_row", "order4_voter_faults", "order4_near_half"],
    )
    def test_cell_scratch_is_bounded_by_one_piece(self, monkeypatch, net):
        # an order-0 block's one row is longer than a piece, and an order-4
        # block's leaf run is many rows: neither asks for more than one
        # piece's cells. At 0.4999, a = 15 and the residual is its largest,
        # near 0.0586; with at most SCRATCH_CELLS cells below rate 1/16, one
        # residual draw expects fewer than 34,000 positions
        cells, rates = [], []
        bernoulli = RandomSource._bernoulli

        def counted(self, out, rate):
            cells.append(out.size)
            rates.append(rate)
            bernoulli(self, out, rate)

        monkeypatch.setattr(RandomSource, "_bernoulli", counted)
        m = block_trials(net)
        _, scratch = network._block_buffers(network._draw_runs(net), m)
        assert scratch.size <= SCRATCH_CELLS
        run_trials(net, m, RandomSource(4))
        assert cells and max(cells) <= SCRATCH_CELLS
        assert all(0.0 < rate < 1 / 16 for rate in rates)


def subtree_rows(net, k):
    """Block rows of the leftmost order-``k`` subtree of ``net``, in its draw order.

    Its leaves are leaves 0..3**k - 1 of ``net``, so their rows are the
    first of the leaf rows; at each level its voters are the first of that
    level's voters, so their fault rows are the first of the level's rows.
    """
    drawn = [rate > 0.0 for rate in tile_scenario(net.leaves, net.order)]
    rows = list(range(sum(drawn[:3 ** k])))
    if net.voter_fault_rate > 0.0:
        first = sum(drawn)
        for level in range(1, k + 1):
            rows += range(first, first + 3 ** (k - level))
            first += 3 ** (net.order - level)
    return rows


class TestSubtreeErrors:
    """One order-j call counts the errors of every lower order, on its trials."""

    @pytest.mark.parametrize("q", [0.0, 0.2])
    @pytest.mark.parametrize(
        "leaves", [(0.3,), make_scenario("NNF", 0.4), make_scenario("NFF", 0.4)]
    )
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_each_order_votes_its_leftmost_subtree(self, monkeypatch, order, leaves, q):
        # three full blocks and a short one; each block's rows are drawn as
        # run_trials draws them, and the leftmost order-k subtree's own rows
        # are pushed through the scalar walk of an order-k network. NNF never
        # errs under pass-through voters, so with it no order may count an
        # error; NFF errs from order 1 on
        net = build_network(order, leaves, voter_fault_rate=q)
        block_size = 256
        n = 3 * block_size + 5
        runs = network._draw_runs(net)
        expected = [0] * (order + 1)
        for b in range(4):
            m = min(block_size, n - b * block_size)
            lanes = network._draw_block(runs, m, RandomSource(21), b,
                                        network._block_buffers(runs, m))
            hit = unpacked(lanes, m)
            for k in range(order + 1):
                sub = build_network(k, tile_scenario(net.leaves, order)[:3 ** k], q)
                rows = hit[subtree_rows(net, k)]
                expected[k] += sum(simulate_bit(sub, 0, rows[:, i])[0] for i in range(m))
        monkeypatch.setattr(network, "BITS_PER_WORKER", 1)
        monkeypatch.setattr(network, "_processors", lambda: 2)
        for workers in (1, 2):
            estimate, _ = run_trials(net, n, RandomSource(21), workers=workers,
                                     block_size=block_size)
            assert estimate.subtree_errors == tuple(expected)
            assert estimate.errors == expected[order]
            assert [estimate.subtree(k) for k in range(order + 1)] == [
                EmpiricalEstimate(trials=n, errors=errors) for errors in expected
            ]


class TestWorkspace:
    """A thread keeps its block buffers from one call to the next."""

    def test_a_sweep_allocates_block_buffers_once(self, monkeypatch, empty_workspace):
        # 21 points at orders 0-2 are 21 order-2 units, each taking block
        # buffers; every unit's block fits the first buffers the calling
        # thread takes.
        # The sampler's numpy calls allocate too; only the network's count
        caller = threading.get_ident()
        empty = np.empty
        allocations = []

        def counted_empty(shape, dtype=float):
            in_network = sys._getframe(1).f_globals["__name__"] == network.__name__
            if in_network and threading.get_ident() == caller:
                allocations.append(np.dtype(dtype))
            return empty(shape, dtype)

        monkeypatch.setattr(network.np, "empty", counted_empty)
        cfg = SweepConfig(pf_min=0.0, pf_max=1.0, pf_steps=21, orders=(0, 1, 2), trials=3_000)
        rows = sweep_monte_carlo(cfg)
        assert len(rows) == 63
        assert sorted(map(str, allocations)) == ["bool", "uint64"]

    def test_a_dirty_workspace_changes_no_result(self, empty_workspace):
        # order 4 at pf = pfmb = 0.9 leaves rows of mostly set bits behind;
        # a smaller network drawn over them must count as it does on a
        # thread whose workspace is new
        deep = build_network(4, 0.9, voter_fault_rate=0.9)
        run_trials(deep, block_trials(deep), RandomSource(1))
        left = network._workspace.rows[:121 * block_trials(deep) // 64]
        assert np.bitwise_count(left).mean() > 48
        net = build_network(2, (0.0, 0.25, 0.45) * 3, voter_fault_rate=0.05)
        here = run_trials(net, 5_000, RandomSource(9))
        fresh = []
        thread = threading.Thread(target=lambda: fresh.append(run_trials(net, 5_000, RandomSource(9))))
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        assert here == fresh[0]

    def test_a_larger_block_grows_the_buffers(self, empty_workspace):
        # order 11 has 177,147 leaf rows, more than BLOCK_BYTES holds for
        # even a 64-trial block; the workspace grows to it and never shrinks
        run_trials(build_network(2, 0.1), 1_000, RandomSource(0))
        assert network._workspace.rows.size == network.BLOCK_BYTES // 8
        assert network._workspace.cells.size == SCRATCH_CELLS
        run_trials(build_network(11, 0.1), 64, RandomSource(0))
        assert network._workspace.rows.size == 3 ** 11
        run_trials(build_network(2, 0.1), 1_000, RandomSource(0))
        assert network._workspace.rows.size == 3 ** 11
        assert network._workspace.cells.size == SCRATCH_CELLS


class TestFanOut:
    """The caller and its forked workers run the blocks; processors cap them."""

    @pytest.fixture(autouse=True)
    def workers_for_any_work(self, monkeypatch):
        # these small calls would run on the caller alone (see TestThreadGate)
        monkeypatch.setattr(network, "BITS_PER_WORKER", 1)

    def record_processes(self, monkeypatch, tmp_path, processors):
        """Pretend to have ``processors``; return a reader of each block's process id.

        Every block appends its pid to a file, one short ``O_APPEND`` write,
        so the caller sees the blocks its workers ran.
        """
        monkeypatch.setattr(network, "_processors", lambda: processors)
        simulate_block = network._simulate_block
        log = tmp_path / "block-pids"
        log.touch()

        def logged_block(net, lanes, drawn):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return simulate_block(net, lanes, drawn)

        monkeypatch.setattr(network, "_simulate_block", logged_block)
        return lambda: [int(pid) for pid in log.read_text().split()]

    def test_threads_are_capped_at_the_processor_count(self, monkeypatch, tmp_path, forks):
        net = build_network(1, 0.3)
        baseline = run_trials(net, 8 * 256, RandomSource(3), block_size=256)
        block_pids = self.record_processes(monkeypatch, tmp_path, processors=2)
        result = run_trials(net, 8 * 256, RandomSource(3), workers=8, block_size=256)
        assert result == baseline
        assert len(forks) == 1
        assert len(block_pids()) == 8
        assert set(block_pids()) == {os.getpid(), forks[0]}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_processor_runs_every_block_on_the_caller(self, monkeypatch, tmp_path, forks):
        block_pids = self.record_processes(monkeypatch, tmp_path, processors=1)
        run_trials(build_network(1, 0.3), 4 * 256, RandomSource(3), workers=4, block_size=256)
        assert forks == []
        assert block_pids() == [os.getpid()] * 4

    def test_threads_are_capped_at_the_block_count(self, monkeypatch, tmp_path, forks):
        block_pids = self.record_processes(monkeypatch, tmp_path, processors=8)
        run_trials(build_network(1, 0.3), 2 * 256, RandomSource(3), workers=6, block_size=256)
        assert len(forks) == 1
        assert len(block_pids()) == 2

    def test_no_more_processes_than_the_affinity_set_holds(self, forks):
        # a huge worker count on as many blocks: the real processor cap holds
        processors = len(os.sched_getaffinity(0))
        run_trials(build_network(1, 0.3), 8 * 64, RandomSource(3), workers=10**8, block_size=64)
        assert len(forks) <= processors - 1

    def test_every_block_is_claimed_once_under_frequent_switches(self, monkeypatch, forks):
        # more workers than this box may have processors, switching as often
        # as the interpreter allows: a block lost or run twice changes counts
        net = build_network(2, 0.2, voter_fault_rate=0.1)
        baseline = run_trials(net, 300 * 64, RandomSource(5), block_size=64)
        monkeypatch.setattr(network, "_processors", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run_trials(net, 300 * 64, RandomSource(5), workers=4, block_size=64)
        finally:
            sys.setswitchinterval(interval)
        assert result == baseline
        assert len(forks) == 3

    def test_sums_larger_than_a_pipe_buffer_arrive_whole(self, monkeypatch, forks):
        # order 10 with voter faults sends 29,534 int64 sums, 236 KB, through
        # each pipe: more than the pipe holds before its reader drains it
        monkeypatch.setattr(network, "_processors", lambda: 3)
        net = build_network(10, 0.2, voter_fault_rate=0.1)
        baseline = run_trials(net, 3 * 64, RandomSource(8), block_size=64)
        assert run_trials(net, 3 * 64, RandomSource(8), workers=3, block_size=64) == baseline
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def fail_blocks(self, monkeypatch, tmp_path, parity, fail):
        """Make every block b with b % 2 == ``parity`` call ``fail()`` wherever it runs.

        With two processors, those are the blocks of share ``parity``.
        Returns a reader of the process id of every failing block, in order.
        """
        monkeypatch.setattr(network, "_processors", lambda: 2)
        draw_block = network._draw_block
        log = tmp_path / "failed-pids"
        log.touch()

        def failing_draw(runs, m, rng, b, buffers):
            if b % 2 == parity:
                with open(log, "a") as f:
                    f.write(f"{os.getpid()}\n")
                fail()
            return draw_block(runs, m, rng, b, buffers)

        monkeypatch.setattr(network, "_draw_block", failing_draw)
        return lambda: [int(pid) for pid in log.read_text().split()]

    @pytest.mark.parametrize("raiser", ["caller", "helper"])
    def test_a_failing_block_fails_the_call_cleanly(self, monkeypatch, tmp_path, raiser, forks):
        # the caller's share fails on the caller; the helper's fails in its
        # worker and again when the caller runs that share itself
        def fail():
            raise RuntimeError("block failed")

        failed = self.fail_blocks(monkeypatch, tmp_path, ["caller", "helper"].index(raiser), fail)
        with pytest.raises(RuntimeError, match="block failed"):
            run_trials(build_network(1, 0.3), 8 * 256, RandomSource(3), workers=2, block_size=256)
        assert len(forks) == 1
        if raiser == "caller":
            assert failed() == [os.getpid()]
        else:
            assert failed() == [forks[0], os.getpid()]

    def test_a_worker_error_keeps_its_type_and_message(self, monkeypatch, tmp_path, forks):
        # the worker's share fails in the worker and again on the caller,
        # which raises the error itself: a type that is not built in, one
        # that takes more than a message and numpy's MemoryError subclass
        # (so the CLI still exits 2) all arrive as they are
        class BlockError(Exception):
            pass

        def block_error():
            raise BlockError("odd block")

        def decode_error():
            b"\xff".decode("utf-8")

        def out_of_memory():
            np.empty(1 << 62, dtype=np.uint8)

        # the lambda calls the loop's current ``fail``
        failed = self.fail_blocks(monkeypatch, tmp_path, 1, lambda: fail())
        for fail, expected, message in [
            (block_error, BlockError, "^odd block$"),
            (decode_error, UnicodeDecodeError, "^'utf-8' codec can't decode byte 0xff"),
            (out_of_memory, MemoryError, "^Unable to allocate 4.00 EiB"),
        ]:
            with pytest.raises(expected, match=message):
                run_trials(build_network(1, 0.3), 2 * 64, RandomSource(3), workers=2,
                           block_size=64)
        assert len(forks) == 3
        assert failed() == [pid for worker in forks for pid in (worker, os.getpid())]

    def test_a_worker_that_ends_without_its_sums_costs_one_rerun(
        self, monkeypatch, tmp_path, forks
    ):
        # a worker whose block raises, or that exits early, is killed or is
        # interrupted on its own, sends nothing, and the caller runs both
        # blocks of each call itself
        net = build_network(1, 0.3)
        baseline = run_trials(net, 2 * 64, RandomSource(3), block_size=64)
        block_pids = self.record_processes(monkeypatch, tmp_path, processors=2)
        simulate_block = network._simulate_block
        caller = os.getpid()

        def block_error():
            raise RuntimeError("block failed")

        for death in (
            block_error,
            lambda: os._exit(3),
            lambda: os.kill(os.getpid(), signal.SIGKILL),
            lambda: signal.raise_signal(signal.SIGINT),
        ):
            def dying_block(net, lanes, drawn, death=death):
                if os.getpid() != caller:
                    death()
                return simulate_block(net, lanes, drawn)

            monkeypatch.setattr(network, "_simulate_block", dying_block)
            assert run_trials(net, 2 * 64, RandomSource(3), workers=2, block_size=64) == baseline
        assert len(forks) == 4
        assert block_pids() == [os.getpid()] * 8

    def test_an_interrupted_caller_kills_its_workers(self, monkeypatch, forks):
        # the worker would sleep far longer than the call takes: it is
        # killed, not waited for
        monkeypatch.setattr(network, "_processors", lambda: 2)
        caller = os.getpid()

        def interrupted_block(net, lanes, drawn):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(network, "_simulate_block", interrupted_block)
        affinity = os.sched_getaffinity(0)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_trials(build_network(1, 0.3), 2 * 64, RandomSource(3), workers=2, block_size=64)
        assert time.perf_counter() - start < 30
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.sched_getaffinity(0) == affinity

    def test_a_call_from_a_second_thread_forks_nothing(self, forks):
        # a fork copies only the forking thread, so beside another live
        # thread the caller runs every block itself
        net = build_network(2, 0.2, voter_fault_rate=0.1)
        baseline = run_trials(net, 8 * 64, RandomSource(4), block_size=64)
        results = []
        thread = threading.Thread(target=lambda: results.append(
            run_trials(net, 8 * 64, RandomSource(4), workers=2, block_size=64)))
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        assert results == [baseline]
        assert forks == []


class TestThreadGate:
    """Worker processes are forked only for calls with enough fault bits to pay."""

    def test_the_gate_runs_small_units_on_the_caller_alone(self, monkeypatch, forks):
        # a protocol21 unit (order 2 at 10**6 trials, 9 rows) forks no worker
        # and the deep_voterfault unit (order 4 with voter faults at 2 * 10**6
        # trials, 121 rows) forks one; the blocks themselves are stubbed out
        monkeypatch.setattr(network, "_processors", lambda: 2)
        monkeypatch.setattr(network, "_draw_block", lambda *args: None)
        monkeypatch.setattr(
            network, "_simulate_block",
            lambda net, lanes, drawn: (np.zeros(net.order + 1, dtype=np.int64),
                                       np.zeros(net.voter_count, dtype=np.int64)),
        )
        run_trials(build_network(2, 0.5), 10**6, RandomSource(0), workers=2)
        assert forks == []
        run_trials(build_network(4, 0.1, voter_fault_rate=0.1), 2 * 10**6, RandomSource(0),
                   workers=2)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestMasking:
    def test_single_faulty_leaf_never_errs_in_order_one(self):
        # perfect masking holds structurally, for any rate and placement
        for position in range(3):
            for rate in (0.3, 1.0):
                leaves = [0.0] * 3
                leaves[position] = rate
                net = build_network(1, leaves)
                estimate, _ = run_trials(net, 20_000, RandomSource(position))
                assert estimate.errors == 0

    def test_all_faulty_at_rate_one_always_errs_sans_alarm(self):
        net = build_network(1, 1.0)
        estimate, counter = run_trials(net, 10_000, RandomSource(0))
        assert estimate.errors == 10_000
        assert counter.alarm_counts == (0,)


def four_sigma(p: float, n: int) -> float:
    return 4.0 * math.sqrt(p * (1.0 - p) / n)


class TestMonteCarloAgreement:
    def test_order_one_tracks_polynomial_across_rates(self):
        n = 40_000
        for i, pf in enumerate((0.1, 0.3, 0.5, 0.7, 0.9)):
            net = build_network(1, pf)
            estimate, _ = run_trials(net, n, RandomSource(1000).derive(i))
            assert abs(estimate.pe_hat - pe_first(pf)) <= four_sigma(pe_first(pf), n)

    def test_order_two_tracks_composition(self):
        n = 60_000
        for i, pf in enumerate((0.2, 0.5)):
            net = build_network(2, pf)
            estimate, _ = run_trials(net, n, RandomSource(2000).derive(i))
            expected = pe_order(2, pf)
            assert abs(estimate.pe_hat - expected) <= four_sigma(expected, n)

    def test_faulty_voter_tracks_mixture(self):
        n = 60_000
        pf, pfmb = 0.2, 0.3
        net = build_network(1, pf, voter_fault_rate=pfmb)
        estimate, _ = run_trials(net, n, RandomSource(3000))
        expected = pem_first(pf, pfmb)
        assert abs(estimate.pe_hat - expected) <= four_sigma(expected, n)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_faulty_voters_track_the_exact_tree(self, order):
        # every voter fails at pfmb: the exact tree is the reference, not
        # the paper's pem recursion, which this estimate misses by ~14
        # sigma at order 2
        n, pf, pfmb = 10**6, 0.1, 0.1
        net = build_network(order, pf, voter_fault_rate=pfmb)
        estimate, _ = run_trials(net, n, RandomSource(3))
        exact = tree_error_probability([pf], order, pfmb)
        sigma = math.sqrt(exact * (1.0 - exact) / n)
        assert abs(estimate.pe_hat - exact) <= 5.0 * sigma
        if order >= 2:
            assert abs(estimate.pe_hat - pem_order(order, pf, pfmb)) > 5.0 * sigma

    def test_rates_above_one_half_track_the_exact_tree(self):
        # both runs draw the fault-free bits instead of the faults
        n, pf, q = 10**6, 0.7, 0.6
        estimate, _ = run_trials(build_network(2, pf, voter_fault_rate=q), n, RandomSource(41))
        exact = tree_error_probability([pf], 2, q)
        sigma = math.sqrt(exact * (1.0 - exact) / n)
        assert abs(estimate.pe_hat - exact) <= 5.0 * sigma

    def test_faulty_voters_over_tiled_leaves_track_the_exact_tree(self):
        # nine different leaf rates tiled three times at order 3: the
        # simulator and the evaluator read the very same leaves object
        n, q = 10**6, 0.1
        nine = (0.05, 0.3, 0.0, 0.2, 0.1, 0.45, 1.0, 0.0, 0.15)
        net = build_network(3, nine, voter_fault_rate=q)
        estimate, _ = run_trials(net, n, RandomSource(31))
        exact = tree_error_probability(net.leaves, net.order, q)
        sigma = math.sqrt(exact * (1.0 - exact) / n)
        assert abs(estimate.pe_hat - exact) <= 5.0 * sigma


class TestAlarmAccounting:
    def test_quiet_when_nothing_can_fault(self):
        net = build_network(2, 0.0)
        _, counter = run_trials(net, 5_000, RandomSource(0))
        assert counter.alarm_counts == (0, 0, 0, 0)

    def test_single_dissenter_alarm_frequency_tracks_its_rate(self):
        n = 40_000
        pf = 0.3
        net = build_network(1, make_scenario("NNF", pf))
        _, counter = run_trials(net, n, RandomSource(50))
        frequency = counter.alarm_counts[0] / n
        assert abs(frequency - pf) <= four_sigma(pf, n)


class TestEstimateTypes:
    def test_estimate_derived_fields(self):
        est = EmpiricalEstimate(trials=10_000, errors=280)
        assert est.pe_hat == 0.028
        assert est.std_err == pytest.approx(math.sqrt(0.028 * 0.972 / 10_000))

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            EmpiricalEstimate(trials=0, errors=0)
        with pytest.raises(ValueError):
            EmpiricalEstimate(trials=10, errors=11)

    def test_counter_validation(self):
        with pytest.raises(ValueError):
            FaultStatusCounter(alarm_counts=(5,), trials=4)
