"""Structural simulator: topology, draw order, masking, and determinism.

The vectorized ``run_trials`` is held bit-exactly to the scalar
``simulate_bit`` walk, which in turn leans on the exhaustively tested
voter truth table -- the two routes share no evaluation code beyond the
module model itself.
"""

import math
import sys
import threading
import time
import tracemalloc

import pytest

from htmr_lab import network
from htmr_lab.faults import FAULT_FREE, RandomSource, faulty_module, make_scenario
from htmr_lab.network import (
    _DRAW_ROWS,
    EmpiricalEstimate,
    FaultStatusCounter,
    build_network,
    health_report,
    run_trials,
    simulate_bit,
    tile_scenario,
)
from htmr_lab.reliability import MAX_ORDER, pe_first, pe_order, pem_first


class TestTopology:
    @pytest.mark.parametrize(
        "order,leaves,voters", [(0, 1, 0), (1, 3, 1), (2, 9, 4), (3, 27, 13)]
    )
    def test_counts(self, order, leaves, voters):
        net = build_network(order, 0.1)
        assert net.leaf_count == leaves
        assert net.voter_count == voters
        assert len(net.leaves) == leaves

    def test_every_voter_has_three_children(self):
        net = build_network(3, 0.1)
        total = net.voter_count + net.leaf_count
        seen = []
        for v in range(net.voter_count):
            children = net.children_of(v)
            assert len(children) == 3
            assert all(v < c < total for c in children)
            seen.extend(children)
        # children partition all non-root nodes
        assert sorted(seen) == list(range(1, total))

    def test_bottom_up_order_is_deepest_level_first(self):
        net = build_network(2, 0.1)
        assert net.voters_bottom_up() == [1, 2, 3, 0]
        assert net.voter_levels() == [[0], [1, 2, 3]]

    def test_leaf_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_network(2, [FAULT_FREE] * 3)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            build_network(-1, 0.1)
        with pytest.raises(ValueError):
            build_network(MAX_ORDER + 1, 0.1)

    def test_uniform_and_explicit_configs_agree(self):
        uniform = build_network(1, 0.2)
        explicit = build_network(1, [faulty_module(0.2)] * 3)
        assert uniform == explicit

    def test_voter_rate_validated(self):
        with pytest.raises(ValueError):
            build_network(1, 0.1, voter_fault_rate=1.2)

    def test_tile_scenario(self):
        scenario = make_scenario("NNF", 0.3)
        assert tile_scenario(scenario, 1) == scenario
        tiled = tile_scenario(scenario, 2)
        assert len(tiled) == 9
        assert tiled[0:3] == scenario and tiled[3:6] == scenario and tiled[6:9] == scenario

    def test_tile_scenario_checks_order_before_tiling(self):
        scenario = make_scenario("NNF", 0.3)
        for order in (0, MAX_ORDER + 1):
            with pytest.raises(ValueError):
                tile_scenario(scenario, order)


class TestSimulateBit:
    def test_fault_free_network_is_transparent(self):
        net = build_network(2, FAULT_FREE)
        rng = RandomSource(0)
        for ref in (0, 1):
            out, alarms = simulate_bit(net, ref, rng)
            assert out == ref
            assert alarms == (0,) * 4

    def test_single_always_wrong_module_is_outvoted_and_flagged(self):
        net = build_network(1, make_scenario("NNF", 1.0))
        out, alarms = simulate_bit(net, 0, RandomSource(1))
        assert out == 0
        assert alarms == (1,)

    def test_all_wrong_modules_win_silently(self):
        net = build_network(1, make_scenario("FFF", 1.0))
        out, alarms = simulate_bit(net, 0, RandomSource(1))
        assert out == 1
        assert alarms == (0,)

    def test_draw_order_matches_documentation(self):
        # order 1, leaves (N, F, F), faulty voter: draws are leaf2, leaf3,
        # then the voter -- replay the stream by hand and predict the output
        rate = 0.5
        net = build_network(
            1, (FAULT_FREE, faulty_module(rate), faulty_module(rate)),
            voter_fault_rate=rate,
        )
        for seed in range(40):
            replay = RandomSource(seed)
            u = [replay.uniform() for _ in range(3)]
            bits = (0, int(u[0] < rate), int(u[1] < rate))
            voted = 1 if sum(bits) >= 2 else 0
            expected = bits[0] if u[2] < rate else voted
            expected_alarm = 0 if len(set(bits)) == 1 else 1
            out, alarms = simulate_bit(net, 0, RandomSource(seed))
            assert (out, alarms[0]) == (expected, expected_alarm), seed

    def test_results_do_not_depend_on_the_reference_bit(self):
        # inverting every leaf inverts every voter's majority and
        # pass-through output and leaves its alarm unchanged, so the error
        # bit and the alarms agree for either reference on the same draws
        for order in (1, 2, 3):
            leaves = [
                FAULT_FREE if k % 4 == 1 else faulty_module(0.2 + 0.1 * (k % 5))
                for k in range(3 ** order)
            ]
            net = build_network(order, leaves, voter_fault_rate=0.25)
            for seed in range(60):
                outcomes = []
                for ref in (0, 1):
                    out, alarms = simulate_bit(net, ref, RandomSource(seed))
                    outcomes.append((out ^ ref, alarms))
                assert outcomes[0] == outcomes[1], (order, seed)

    def test_rejects_bad_reference(self):
        with pytest.raises(ValueError):
            simulate_bit(build_network(1, 0.1), 2, RandomSource(0))


class TestRunTrialsDeterminism:
    def test_scalar_and_vectorized_routes_are_bit_identical(self):
        leaves = (FAULT_FREE, faulty_module(0.35), faulty_module(0.8)) * 3
        # order 3: fault-free leaves at scattered positions, including a
        # whole fault-free triple and a triple with a single faulty leaf
        sparse = [faulty_module(0.3)] * 27
        for k in (0, 4, 5, 9, 10, 11, 17, 22, 26):
            sparse[k] = FAULT_FREE
        mixed = (faulty_module(0.4), FAULT_FREE, faulty_module(0.6))
        for net, n in (
            (build_network(2, leaves, voter_fault_rate=0.2), 700),
            (build_network(0, 0.35, voter_fault_rate=0.2), 700),
            (build_network(3, sparse, voter_fault_rate=0.1), 700),
            # one block whose draws cross a draw-chunk boundary
            (build_network(1, mixed, voter_fault_rate=0.3), _DRAW_ROWS + 300),
        ):
            master = RandomSource(4242)
            estimate, counter = run_trials(net, n, master)
            stream = master.derive(0)  # single block: block 0 carries all draws
            errors = 0
            alarm_counts = [0] * net.voter_count
            for i in range(n):
                ref = i & 1
                out, alarms = simulate_bit(net, ref, stream)
                errors += int(out != ref)
                for v, alarm in enumerate(alarms):
                    alarm_counts[v] += alarm
            assert estimate.errors == errors
            assert counter.alarm_counts == tuple(alarm_counts)

    def test_same_seed_same_results(self):
        net = build_network(2, 0.1, voter_fault_rate=0.05)
        first = run_trials(net, 10_000, RandomSource(7))
        second = run_trials(net, 10_000, RandomSource(7))
        assert first == second

    def test_worker_count_never_changes_results(self):
        net = build_network(2, 0.1, voter_fault_rate=0.05)
        n = 150_000  # spans multiple blocks
        baseline = run_trials(net, n, RandomSource(7), workers=1)
        for workers in (2, 4):
            assert run_trials(net, n, RandomSource(7), workers=workers) == baseline

    def test_block_size_partitions_reproducibly(self):
        # explicit small blocks exercise the multi-block path cheaply
        net = build_network(1, 0.3)
        a = run_trials(net, 5_000, RandomSource(3), block_size=512)
        b = run_trials(net, 5_000, RandomSource(3), block_size=512, workers=3)
        assert a == b

    def test_needs_at_least_one_trial(self):
        with pytest.raises(ValueError):
            run_trials(build_network(1, 0.1), 0, RandomSource(0))

    @pytest.mark.parametrize("n", [0, -1, 2**63, 10**30])
    def test_trial_count_must_fit_the_int64_counters(self, n):
        with pytest.raises(ValueError, match=r"1\.\.2\*\*63 - 1"):
            run_trials(build_network(1, 0.1), n, RandomSource(0))

    def test_largest_trial_count_is_accepted(self, monkeypatch):
        # runs no trial: the first block to reach the kernel stops the call
        def stop(net, hit):
            raise RuntimeError(f"block of {hit.shape[1]} trials")

        monkeypatch.setattr(network, "_simulate_block", stop)
        with pytest.raises(RuntimeError, match="block of 65536 trials"):
            run_trials(build_network(1, 0.1), 2**63 - 1, RandomSource(0))

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


class TestFanOut:
    """The calling thread and its helpers claim blocks; processors cap them."""

    def record_threads(self, monkeypatch, processors):
        """Pretend to have ``processors``; log each block's thread and each start."""
        monkeypatch.setattr(network, "_processors", lambda: processors)
        simulate_block = network._simulate_block
        block_threads = []

        def slow_block(net, hit):
            block_threads.append(threading.get_ident())
            time.sleep(0.02)  # long enough for every started thread to claim a block
            return simulate_block(net, hit)

        monkeypatch.setattr(network, "_simulate_block", slow_block)
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        return block_threads, started

    def test_threads_are_capped_at_the_processor_count(self, monkeypatch):
        net = build_network(1, 0.3)
        baseline = run_trials(net, 8 * 256, RandomSource(3), block_size=256)
        block_threads, started = self.record_threads(monkeypatch, processors=2)
        result = run_trials(net, 8 * 256, RandomSource(3), workers=8, block_size=256)
        assert result == baseline
        assert len(started) == 1
        assert len(block_threads) == 8
        assert set(block_threads) == {threading.get_ident(), started[0].ident}

    def test_one_processor_runs_every_block_on_the_caller(self, monkeypatch):
        block_threads, started = self.record_threads(monkeypatch, processors=1)
        run_trials(build_network(1, 0.3), 4 * 256, RandomSource(3), workers=4, block_size=256)
        assert started == []
        assert block_threads == [threading.get_ident()] * 4

    def test_threads_are_capped_at_the_block_count(self, monkeypatch):
        block_threads, started = self.record_threads(monkeypatch, processors=8)
        run_trials(build_network(1, 0.3), 2 * 256, RandomSource(3), workers=6, block_size=256)
        assert len(started) == 1
        assert len(block_threads) == 2

    def test_every_block_is_claimed_once_under_frequent_switches(self, monkeypatch):
        # more threads than this box may have processors, switching as often
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

    @pytest.mark.parametrize("raiser", ["caller", "helper"])
    def test_a_failing_block_fails_the_call_cleanly(self, monkeypatch, raiser):
        monkeypatch.setattr(network, "_processors", lambda: 2)
        simulate_block = network._simulate_block
        caller = threading.current_thread()
        raised = threading.Event()

        def failing_block(net, hit):
            if (threading.current_thread() is caller) == (raiser == "caller"):
                raised.set()
                raise RuntimeError("block failed")
            raised.wait(10)  # make sure the raising thread claims a block too
            return simulate_block(net, hit)

        monkeypatch.setattr(network, "_simulate_block", failing_block)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            run_trials(build_network(1, 0.3), 8 * 256, RandomSource(3), workers=2, block_size=256)
        assert threading.active_count() == before


class TestMasking:
    def test_single_faulty_leaf_never_errs_in_order_one(self):
        # perfect masking holds structurally, for any rate and placement
        for position in range(3):
            for rate in (0.3, 1.0):
                leaves = [FAULT_FREE] * 3
                leaves[position] = faulty_module(rate)
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


class TestAlarmAccounting:
    def test_quiet_when_nothing_can_fault(self):
        net = build_network(2, FAULT_FREE)
        _, counter = run_trials(net, 5_000, RandomSource(0))
        assert counter.alarm_counts == (0, 0, 0, 0)
        report = health_report(counter)
        assert report.frequencies == (0.0, 0.0, 0.0, 0.0)
        assert report.aggregate_rate == 0.0
        assert report.flagged_voters == ()

    def test_single_dissenter_alarm_frequency_tracks_its_rate(self):
        n = 40_000
        pf = 0.3
        net = build_network(1, make_scenario("NNF", pf))
        _, counter = run_trials(net, n, RandomSource(50))
        frequency = counter.alarm_counts[0] / n
        assert abs(frequency - pf) <= four_sigma(pf, n)

    def test_health_report_flags_noisy_voters(self):
        counter = FaultStatusCounter(alarm_counts=(400, 2), trials=1000)
        report = health_report(counter, alert_level=0.1)
        assert report.frequencies == (0.4, 0.002)
        assert report.aggregate_rate == pytest.approx(0.201)
        assert report.flagged_voters == (0,)

    def test_health_report_needs_observations(self):
        with pytest.raises(ValueError):
            health_report(FaultStatusCounter(alarm_counts=(), trials=0))


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
