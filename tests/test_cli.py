"""Command-line interface: flags, exit codes, and serialized formats."""

import argparse
import decimal
import errno
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from htmr_lab import __version__, cli, network
from htmr_lab.cli import _parse_trials, main
from htmr_lab.faults import make_scenario
from htmr_lab.harness import ComparisonRow, SweepConfig, sweep_monte_carlo
from htmr_lab.reliability import pem_order, tree_error_probability

ROOT = Path(__file__).resolve().parents[1]

HEADER_PREFIX = f"# htmr-lab v{__version__} seed="

SWEEP_HEADER = "pf,order,pe,pem,re,rem,re_per_module,pe_hat,std_err,trials"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(csv_text):
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("# htmr-lab v")
    return lines[1], lines[2:]


# the CSV header's echo keys and the flags that set them
ECHO_FLAGS = {
    "pf": "--pf", "pf_min": "--pf-min", "pf_max": "--pf-max", "pf_steps": "--pf-steps",
    "pf_scale": "--pf-scale", "orders": "--orders", "pfmb": "--pfmb",
    "trials": "--trials", "seed": "--seed", "scenario": "--scenario",
}


def echoed_argv(csv_text):
    """The command and flags a CSV document's header echoes, as an argv."""
    echo = dict(item.split("=", 1) for item in csv_text.splitlines()[0].split()[3:])
    if "trials" not in echo:
        del echo["seed"]  # a command that draws nothing takes no --seed
    argv = [echo["command"]]
    for key, flag in ECHO_FLAGS.items():
        if key in echo:
            argv += [flag, echo[key]]
    return argv


class TestTruthTable:
    def test_eight_rows_with_metadata(self, capsys):
        code, out, _ = run_cli(capsys, "truth-table")
        assert code == 0
        assert out.startswith(HEADER_PREFIX)
        assert "semantics=voter-passthrough" in out.splitlines()[0]
        header, rows = data_rows(out)
        assert header == "y1,y2,y3,value,alarm"
        assert len(rows) == 8
        assert "1,1,0,1,1" in rows
        assert "0,0,1,0,1" in rows
        assert "0,0,0,0,0" in rows

    def test_json_mirror(self, capsys):
        code, out, _ = run_cli(capsys, "truth-table", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["tool"] == "htmr-lab"
        assert doc["meta"]["semantics"] == "voter-passthrough"
        assert doc["columns"] == ["y1", "y2", "y3", "value", "alarm"]
        assert [1, 1, 0, 1, 1] in doc["rows"]
        assert len(doc["rows"]) == 8


class TestAnalytic:
    def test_single_point_rows(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--pf", "0.1", "--orders", "0,1,2")
        assert code == 0
        header, rows = data_rows(out)
        assert header == SWEEP_HEADER
        assert rows[0].startswith("0.1,0,0.1,")
        assert rows[1].startswith("0.1,1,0.028,")
        assert rows[2].startswith("0.1,2,0.002308096,")
        # analytic-only rows leave the empirical cells empty
        assert rows[0].endswith(",,,")

    def test_fixed_point_rate(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--pf", "0.5")
        _, rows = data_rows(out)
        assert all(row.split(",")[2] == "0.5" for row in rows)

    def test_out_of_range_rate_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "--pf", "1.5")
        assert code == 2
        assert "[0, 1]" in err

    def test_grid_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "--pf-min", "0.1", "--pf-max", "0.5",
            "--pf-steps", "3", "--orders", "1",
        )
        assert code == 0
        _, rows = data_rows(out)
        assert [row.split(",")[0] for row in rows] == ["0.1", "0.3", "0.5"]

    def test_grid_and_point_conflict(self, capsys):
        # --pf-steps and --pf-scale shape a grid, so a point cannot take them
        for argv in (
            ("analytic", "--pf", "0.1", "--pf-min", "0.1"),
            ("simulate", "--pf", "0.1", "--pf-steps", "3", "--orders", "1", "--trials", "10"),
            ("simulate", "--pf", "0.1", "--pf-scale", "log", "--orders", "1", "--trials", "10"),
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert "not both" in err, argv

    @pytest.mark.parametrize("argv", [
        ("analytic", "--pf", "0.999999999", "--orders", "1,2,3"),
        ("simulate", "--pf", "0.999999999", "--orders", "1,2,3", "--trials", "100"),
        ("proposition", "--pf", "0.999999999", "--j-max", "3"),
    ])
    def test_rate_just_below_one_succeeds(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err

    def test_zero_rate_emits_empty_reduction_cells(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--pf", "0", "--orders", "1")
        _, rows = data_rows(out)
        assert rows[0] == "0,1,0,0,,,,,,"


class TestSimulate:
    def test_byte_identical_reruns(self, capsys):
        args = ("simulate", "--order", "1", "--pf", "0.1", "--trials", "2000", "--seed", "42")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_worker_count_does_not_change_bytes(self, capsys):
        base = ("simulate", "--order", "2", "--pf", "0.2", "--trials", "70000", "--seed", "7")
        _, out1, _ = run_cli(capsys, *base, "--workers", "1")
        _, out4, _ = run_cli(capsys, *base, "--workers", "4")
        assert out1 == out4

    def test_multi_block_voter_faults_are_byte_identical_at_any_worker_count(
        self, capsys, monkeypatch, forks
    ):
        # order 3 with voter faults in three blocks of the network's width;
        # with workers for any work and three processors, every worker count
        # really forks that many processes less the caller
        net = network.build_network(3, 0.1, voter_fault_rate=0.1)
        trials = 2 * network.block_trials(net) + 1000
        monkeypatch.setattr(network, "BITS_PER_WORKER", 1)
        monkeypatch.setattr(network, "_processors", lambda: 3)
        documents = []
        for workers in (1, 2, 3):
            code, out, _ = run_cli(
                capsys, "simulate", "--order", "3", "--pf", "0.1", "--pfmb", "pf",
                "--trials", str(trials), "--seed", "3", "--workers", str(workers),
            )
            assert code == 0
            documents.append(out)
        assert len(forks) == 0 + 1 + 2
        assert documents[0] == documents[1] == documents[2]

    def run_failing_worker_share(self, capsys, monkeypatch, fail):
        """Simulate order 3 with voter faults on two processes, block 1 calling ``fail()``.

        Block 1 is the worker's share, so it fails in the worker and again
        when the caller runs that share itself. Returns the exit code and
        stderr.
        """
        draw_block = network._draw_block

        def failing_draw(runs, m, rng, b, buffers):
            if b == 1:
                fail()
            return draw_block(runs, m, rng, b, buffers)

        monkeypatch.setattr(network, "BITS_PER_WORKER", 1)
        monkeypatch.setattr(network, "_processors", lambda: 2)
        monkeypatch.setattr(network, "_draw_block", failing_draw)
        net = network.build_network(3, 0.1, voter_fault_rate=0.1)
        code, _, err = run_cli(
            capsys, "simulate", "--order", "3", "--pf", "0.1", "--pfmb", "pf",
            "--trials", str(2 * network.block_trials(net)), "--workers", "2",
        )
        return code, err

    def test_a_worker_out_of_memory_exits_2(self, capsys, monkeypatch, forks):
        # the caller raises the worker share's MemoryError itself
        def fail():
            raise MemoryError("one block of 64 trials needs 1 byte")

        code, err = self.run_failing_worker_share(capsys, monkeypatch, fail)
        assert code == 2
        assert "needs 1 byte" in err
        assert len(forks) == 1

    def test_a_worker_numpy_allocation_failure_exits_2(self, capsys, monkeypatch, forks):
        # numpy's MemoryError subclass keeps its type: exit 2, not an
        # internal error
        code, err = self.run_failing_worker_share(
            capsys, monkeypatch, lambda: np.empty(1 << 62, dtype=np.uint8)
        )
        assert code == 2
        assert err.startswith("htmr-lab: error: Unable to allocate 4.00 EiB")
        assert len(forks) == 1

    @pytest.mark.parametrize("orders,flags", [
        ("0,1,2", ()),
        ("0,1,2", ("--pfmb", "pf")),
        ("1,2", ("--scenario", "NFF")),
        ("0,1,3", ("--pfmb", "0.1")),
    ])
    def test_top_order_rows_are_the_rows_of_the_top_order_alone(self, capsys, orders, flags):
        # every grid point runs the top order's tree once; the lower orders
        # are read off its trials and leave its rows byte for byte as they are
        top = orders.split(",")[-1]
        base = ("simulate", "--pf-min", "0", "--pf-max", "1", "--pf-steps", "5",
                "--trials", "30000", "--seed", "6") + flags
        _, alone, _ = run_cli(capsys, *base, "--orders", top)
        _, together, _ = run_cli(capsys, *base, "--orders", orders)
        _, alone_rows = data_rows(alone)
        _, rows = data_rows(together)
        assert len(alone_rows) == 5
        assert [row for row in rows if row.split(",")[1] == top] == alone_rows
        assert " streams=derive(point,top,block)@6" in together.splitlines()[0]

    def test_zero_trials_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--pf", "0.1", "--trials", "0")
        assert code == 2
        assert "trials" in err

    def test_missing_trials_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--pf", "0.1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "scenarios"])
    def test_trials_accept_float_notation(self, capsys, command):
        base = (command, "--pf", "0.1", "--orders", "1,2", "--seed", "5")
        code1, out1, _ = run_cli(capsys, *base, "--trials", "1e3")
        code2, out2, _ = run_cli(capsys, *base, "--trials", "1000")
        assert code1 == code2 == 0
        assert out1 == out2
        assert " trials=1000 " in out1.splitlines()[0]

    @pytest.mark.parametrize("command", ["simulate", "scenarios"])
    @pytest.mark.parametrize("trials", ["1.5", "abc", "inf"])
    def test_non_integral_trials_are_usage_errors(self, capsys, command, trials):
        with pytest.raises(SystemExit) as exc:
            main([command, "--pf", "0.1", "--trials", trials])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [("analytic",), ("simulate", "--trials", "1000"), ("scenarios",)]
    )
    def test_repeated_orders_exit_2(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--pf", "0.1", "--orders", "1,1")
        assert code == 2
        assert out == ""
        assert "strictly ascending" in err

    def test_single_fault_scenario_masks_everything(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "NNF", "--pf", "0.5",
            "--trials", "20000", "--order", "1",
        )
        assert code == 0
        _, rows = data_rows(out)
        cells = rows[0].split(",")
        assert cells[SWEEP_HEADER.split(",").index("pe_hat")] == "0"

    def test_order_and_orders_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--pf", "0.1", "--trials", "10",
                "--order", "1", "--orders", "1,2",
            ])
        assert exc.value.code == 2
        assert "not allowed with argument --order" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "scenarios"])
    def test_trials_beyond_the_int64_counters_exit_2(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--pf", "0.1", "--trials", "1e30")
        assert code == 2
        assert out == ""
        assert "trial count must lie in 1..2**63 - 1" in err

    def test_a_block_that_cannot_be_allocated_exits_2_naming_its_bytes(self, capsys):
        # order 16 with voter faults draws 64,570,081 fault bits a trial, so
        # even one 64-trial block, a word per row, is over the cap; it is
        # refused before anything is drawn or allocated
        code, out, err = run_cli(
            capsys, "simulate", "--pf", "0.1", "--pfmb", "pf", "--orders", "0,16",
            "--trials", "64",
        )
        assert code == 2
        assert out == ""
        assert "one block of 64 trials at order 16 needs 516,560,648 bytes" in err
        assert f"{network.MAX_BLOCK_BYTES:,}-byte cap" in err
        assert "internal error" not in err

    def test_a_failed_allocation_under_the_cap_still_exits_2_naming_its_bytes(
        self, capsys, monkeypatch, empty_workspace
    ):
        # order 12 with voter faults draws 797,161 fault bits a trial, so its
        # blocks are 64 trials wide; a stand-in allocation fails above 1 MiB,
        # which the block's packed rows exceed, and an empty workspace must
        # grow to hold them
        empty = np.empty

        def bounded_empty(shape, dtype=float):
            if np.prod(shape) * np.dtype(dtype).itemsize > 1 << 20:
                raise MemoryError("cannot allocate")
            return empty(shape, dtype)

        monkeypatch.setattr(np, "empty", bounded_empty)
        code, out, err = run_cli(
            capsys, "simulate", "--pf", "0.1", "--pfmb", "pf", "--order", "12",
            "--trials", "65536",
        )
        assert code == 2
        assert out == ""
        needed = 797_161 * 8 + 64 * 8192  # packed rows and one piece's bool cells
        assert f"one block of 64 trials needs {needed:,} bytes" in err
        assert "internal error" not in err

    def test_empirical_cells_filled(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--order", "1", "--pf", "0.1",
            "--trials", "1000", "--seed", "1",
        )
        _, rows = data_rows(out)
        cells = rows[0].split(",")
        assert cells[-1] == "1000"
        assert cells[-2] != "" and cells[-3] != ""


class TestFlagParsing:
    @pytest.mark.parametrize("argv,reason", [
        (("simulate", "--trials", "10", "--pfmb", "x"),
         "argument --pfmb: expects 'pf' or a probability, got 'x'"),
        (("analytic", "--pfmb", "x"), "argument --pfmb: expects 'pf' or a probability"),
        (("analytic", "--orders", "1,x"),
         "argument --orders: expects comma-separated integers, got '1,x'"),
        (("simulate", "--trials", "10", "--orders", "1,x"), "argument --orders:"),
        (("scenarios", "--orders", ""), "argument --orders:"),
        # a pattern is checked by the library (TestScenarioPatterns); a
        # missing one is argparse's
        (("simulate", "--trials", "10", "--scenario"), "argument --scenario:"),
    ])
    def test_malformed_flags_are_usage_errors(self, capsys, argv, reason):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--pf", "0.1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # a reason, not argparse's "invalid _parse_pfmb value" fallback
        assert reason in err and "_parse" not in err

    @pytest.mark.parametrize("command", [
        ("analytic",), ("simulate", "--trials", "100"), ("scenarios",),
    ])
    def test_header_echoes_the_orders_that_ran(self, capsys, command):
        code, odd, _ = run_cli(capsys, *command, "--pf", "0.1", "--orders", " 1,02")
        _, canonical, _ = run_cli(capsys, *command, "--pf", "0.1", "--orders", "1,2")
        assert code == 0
        assert " orders=1,2 " in odd.splitlines()[0]
        assert odd == canonical

    @pytest.mark.parametrize("command", [
        ("simulate", "--trials", "10"), ("scenarios", "--trials", "10"), ("scenarios",),
    ], ids=["simulate", "scenarios", "scenarios-analytic"])
    def test_negative_seed_exits_2_naming_the_seed(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--pf", "0.1", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed must be >= 0, got -1" in err

    @pytest.mark.parametrize("command", [
        ("analytic",), ("simulate", "--trials", "10"), ("scenarios",),
    ])
    @pytest.mark.parametrize("pf", ["nan", "1.5", "-0.1"])
    def test_bad_point_rate_is_named_pf(self, capsys, command, pf):
        code, out, err = run_cli(capsys, *command, "--pf", pf)
        assert code == 2
        assert out == ""
        assert f"pf must lie in [0, 1], got {float(pf)!r}" in err
        assert "pf_min" not in err

    @pytest.mark.parametrize("text", [
        "1000", "1_000", " 7 ", "+5", "-5", "1e6", "1E6", "1.0", "10.5", "1e-3",
        "nan", "inf", "0x10", "1__0", "_1",
        pytest.param("", id="empty"), pytest.param("9" * 5000, id="5000-digits"),
    ])
    def test_trials_parse_as_a_decimal_reads_them(self, text):
        def by_decimal(text):
            # the Decimal-only parse that int's fast path must not change
            try:
                value = decimal.Decimal(text)
            except decimal.InvalidOperation:
                value = None
            if value is None or not value.is_finite() or value != value.to_integral_value():
                raise argparse.ArgumentTypeError(
                    f"expects a whole number of trials such as 1000 or 1e6, got {text!r}"
                )
            return int(value)

        try:
            expected = by_decimal(text)
        except argparse.ArgumentTypeError as exc:
            with pytest.raises(argparse.ArgumentTypeError) as got:
                _parse_trials(text)
            assert str(got.value) == str(exc)
        else:
            assert _parse_trials(text) == expected

    @pytest.mark.parametrize("command,orders", [
        (("analytic",), "0,1,2"), (("simulate", "--trials", "100"), "1"),
        (("scenarios",), "1,2"),
    ])
    def test_default_orders_echo(self, capsys, command, orders):
        code, out, _ = run_cli(capsys, *command, "--pf", "0.1", "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["orders"] == orders


class TestScenarios:
    def test_scenario_column_appended(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios", "--pf", "0.2")
        assert code == 0
        header, rows = data_rows(out)
        assert header == SWEEP_HEADER + ",scenario"
        patterns = {row.rsplit(",", 1)[1] for row in rows}
        assert patterns == {"NNF", "NFF", "FFF"}
        # analytic-only by default: 3 scenarios x orders 1,2
        assert len(rows) == 6

    def test_perfect_masking_column_serializes_as_inf(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios", "--pf", "0.2")
        _, rows = data_rows(out)
        nnf = [row for row in rows if row.endswith(",NNF")]
        for row in nnf:
            cells = row.split(",")
            assert cells[2] == "0"      # pe
            assert cells[4] == "inf"    # re

    @pytest.mark.parametrize("orders", ["0", "0,1"])
    def test_order_zero_exits_2(self, capsys, orders):
        code, out, err = run_cli(capsys, "scenarios", "--pf", "0.2", "--orders", orders)
        assert code == 2
        assert out == ""
        # the three-letter patterns do not fit the lowest order, 0
        assert "an order-0 tree takes 3**k scenario letters with k <= 0, got 3" in err

    def test_empirical_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "scenarios", "--pf", "0.2", "--trials", "5000", "--seed", "3"
        )
        assert code == 0
        _, rows = data_rows(out)
        assert all(row.split(",")[-2] == "5000" for row in rows)


class TestScenarioPatterns:
    """``simulate --scenario`` takes any N/F pattern of 3**k letters, k <=
    the lowest order: ``check_leaves``' rule, as for any leaf rates."""

    def test_a_nine_letter_pattern_tracks_the_exact_tree(self, capsys):
        pattern, trials = "NFFNNFFFN", 10**6
        leaves = make_scenario(pattern, 0.3)
        for pfmb, q in (("0", 0.0), ("pf", 0.3)):
            code, out, err = run_cli(
                capsys, "simulate", "--scenario", pattern, "--pf", "0.3", "--orders", "2,3",
                "--pfmb", pfmb, "--trials", str(trials), "--seed", "2",
            )
            assert code == 0, err
            columns, rows = data_rows(out)
            assert len(rows) == 2
            for row in rows:
                cells = dict(zip(columns.split(","), row.split(",")))
                order = int(cells["order"])
                exact = tree_error_probability(leaves, order, q)
                assert float(cells["pe"]) == pytest.approx(
                    tree_error_probability(leaves, order), rel=1e-11
                )
                # the paper's recursion: the exact tree at q = 0, and from
                # order 2 on a different model from the sampled tree
                assert float(cells["pem"]) == pytest.approx(
                    pem_order(order, leaves, q), rel=1e-11
                )
                z = (float(cells["pe_hat"]) - exact) / math.sqrt(exact * (1 - exact) / trials)
                assert abs(z) < 5, (pfmb, order, z)

    def test_voter_faults_under_a_pattern_are_exact_at_order_1(self, capsys):
        trials, leaves = 10**5, make_scenario("NFF", 0.2)
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "NFF", "--pf", "0.2", "--pfmb", "pf",
            "--orders", "1,2,3", "--trials", str(trials), "--seed", "3",
        )
        assert code == 0, err
        columns, rows = data_rows(out)
        for row in rows:
            cells = dict(zip(columns.split(","), row.split(",")))
            order = int(cells["order"])
            exact = tree_error_probability(leaves, order, 0.2)
            if order == 1:
                assert float(cells["pem"]) == pytest.approx(exact, rel=1e-12)
            z = (float(cells["pe_hat"]) - exact) / math.sqrt(exact * (1 - exact) / trials)
            assert abs(z) < 5, (order, z)

    def test_pattern_f_with_voter_faults_prints_the_uniform_rows(self, capsys):
        base = ("simulate", "--pf-min", "0.1", "--pf-max", "0.5", "--pf-steps", "3",
                "--orders", "1,2", "--pfmb", "pf", "--trials", "20000", "--seed", "6")
        code, uniform, _ = run_cli(capsys, *base)
        assert code == 0
        code, pattern, _ = run_cli(capsys, *base, "--scenario", "FFF")
        assert code == 0
        # one tree and one stream key: only the header's echo tells them apart
        head, _, body = pattern.partition("\n")
        assert head == uniform.partition("\n")[0] + " scenario=F"
        assert body == uniform.partition("\n")[2]

    @pytest.mark.parametrize("pattern", ["NNF", "NFF"])
    def test_a_longer_tiling_runs_the_same_tree(self, capsys, pattern):
        base = ("simulate", "--pf-min", "0.1", "--pf-max", "0.5", "--pf-steps", "3",
                "--orders", "2,3", "--trials", "20000", "--seed", "4", "--scenario")
        _, short, _ = run_cli(capsys, *base, pattern)
        code, tiled, _ = run_cli(capsys, *base, pattern * 3)
        assert code == 0
        # the header echoes the pattern in its shortest form, so one tree
        # prints one document
        assert tiled == short

    @pytest.mark.parametrize("pattern,echo", [
        ("NNFNNFNNF", "NNF"), ("FFF", "F"), ("NFFNNFFFN", "NFFNNFFFN"),
    ])
    def test_a_pattern_echoes_in_its_shortest_form(self, capsys, pattern, echo):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", pattern, "--pf", "0.3", "--orders", "2",
            "--trials", "100",
        )
        assert code == 0
        assert out.splitlines()[0].endswith(f" scenario={echo}")

    @pytest.mark.parametrize("pattern,orders,reason", [
        ("NNX", "1", "scenario pattern must be N/F letters, got 'NNX'"),
        ("NNN", "0,1", "an order-0 tree takes 3**k scenario letters with k <= 0, got 3"),
        ("", "1", "scenario pattern must be N/F letters, got ''"),
        ("NN", "1", "an order-1 tree takes 3**k scenario letters with k <= 1, got 2"),
        ("NNNF", "1,2", "an order-1 tree takes 3**k scenario letters with k <= 1, got 4"),
        ("NFFNNFFFN", "1", "an order-1 tree takes 3**k scenario letters with k <= 1, got 9"),
        ("NFFNNFFFN", "1,2", "an order-1 tree takes 3**k scenario letters with k <= 1, got 9"),
    ])
    def test_a_pattern_that_fits_no_tree_exits_2(self, capsys, pattern, orders, reason):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", pattern, "--pf", "0.1", "--orders", orders,
            "--trials", "10",
        )
        assert code == 2
        assert out == ""
        assert reason in err

    def test_an_all_fault_free_pattern_never_errs(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "NNN", "--pf", "0.5", "--trials", "1000",
        )
        assert code == 0
        _, rows = data_rows(out)
        assert rows == ["0.5,1,0,0,inf,inf,inf,0,0,1000"]


class TestTable3:
    def test_reference_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table3")
        assert code == 0
        header, rows = data_rows(out)
        assert header == "pf,module,order1,order2"
        assert "0.1,10,35,433" in rows
        assert "0.5,2,2,2" in rows
        assert "0.001,1.0e+03,3.3e+05,3.7e+10" in rows
        assert len(rows) == 5


class TestProposition:
    def test_violated_verdict_in_metadata(self, capsys):
        code, out, _ = run_cli(capsys, "proposition", "--pf", "0.6")
        assert code == 0
        assert "verdict=violated" in out.splitlines()[0]

    def test_holds_below_half(self, capsys):
        code, out, _ = run_cli(capsys, "proposition", "--pf", "0.1")
        assert "verdict=holds" in out.splitlines()[0]
        _, rows = data_rows(out)
        assert len(rows) == 5
        assert all(row.endswith(",yes") for row in rows[1:])

    @pytest.mark.parametrize(
        "pf, verdict, cells",
        [("0.3", "holds", ["yes"] * 11 + [""] * 4), ("0", "violated", ["no"] * 15),
         ("1e-200", "undetermined", [""] * 15)],
    )
    def test_levels_past_an_underflow_print_empty_cells(self, capsys, pf, verdict, cells):
        code, out, _ = run_cli(capsys, "proposition", "--pf", pf, "--j-max", "16")
        assert code == 0
        assert f"verdict={verdict}" in out.splitlines()[0]
        _, rows = data_rows(out)
        assert [row.split(",")[2] for row in rows] == [""] + cells


class TestAudit:
    def test_nonzero_max_deviation(self, capsys):
        code, out, _ = run_cli(capsys, "audit")
        assert code == 0
        first = out.splitlines()[0]
        assert "max_abs_difference=" in first
        value = float(first.split("max_abs_difference=")[1].split()[0])
        assert value > 0.0

    def test_single_point(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--pf", "0.5")
        _, rows = data_rows(out)
        assert rows == ["0.5,0.5,0.0625,0.4375"]


class TestOutputPlumbing:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "table3", "--out", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("# htmr-lab v")
        assert "0.1,10,35,433" in text

    def test_json_sweep_mirror(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--pf", "0.1", "--format", "json")
        doc = json.loads(out)
        assert doc["columns"][0:2] == ["pf", "order"]
        assert doc["rows"][0][0] == 0.1
        assert doc["meta"]["command"] == "analytic"

    def test_json_serializes_infinity_as_string(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios", "--pf", "0.2", "--format", "json")
        doc = json.loads(out)
        re_column = doc["columns"].index("re")
        nnf_rows = [row for row in doc["rows"] if row[-1] == "NNF"]
        assert nnf_rows and all(row[re_column] == "inf" for row in nnf_rows)

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.csv"
        code, out, err = run_cli(capsys, "table3", "--out", str(target))
        assert code == 2
        assert out == ""
        assert "internal error" not in err and str(target) in err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_probabilities_print_with_twelve_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--pf", "0.1", "--orders", "2")
        _, rows = data_rows(out)
        cells = rows[0].split(",")
        assert cells[4] == "1.63674613165"  # log10(0.1 / 0.002308096), 12 digits


class TestEcho:
    """A CSV header echoes the configuration that ran, so the document can
    be reproduced from it alone."""

    @pytest.mark.parametrize("argv", [
        ("simulate", "--pf", "0.1234567890123456", "--orders", "1,2", "--trials", "1e5",
         "--seed", "1"),
        ("analytic", "--pf-min", "0.1234567890123456", "--pf-max", "0.3", "--pf-steps", "3",
         "--orders", "1,2", "--pfmb", "0.01234567890123456"),
        ("scenarios", "--pf", "0.2000000000000001", "--trials", "1000", "--seed", "2"),
        ("simulate", "--scenario", "NFF", "--pf", "0.3", "--orders", "1,2", "--trials", "1000"),
        ("simulate", "--scenario", "NFFNFFNFF", "--pf", "0.3", "--orders", "2", "--trials", "1000"),
    ])
    def test_rerunning_the_echoed_flags_reproduces_the_document(self, capsys, argv):
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        code, again, err = run_cli(capsys, *echoed_argv(first))
        assert code == 0, err
        assert again == first

    def test_a_float_that_12_digits_cannot_hold_echoes_in_full(self, capsys):
        _, out, _ = run_cli(capsys, "analytic", "--pf", "0.1234567890123456", "--orders", "1")
        assert " pf=0.1234567890123456 " in out.splitlines()[0]
        _, out, _ = run_cli(capsys, "analytic", "--pf", "0.1", "--orders", "1")
        assert " pf=0.1 " in out.splitlines()[0]

    @pytest.mark.parametrize("command", [
        ("analytic", "--orders", "0,1"), ("simulate", "--orders", "0,1", "--trials", "1000"),
    ])
    @pytest.mark.parametrize("flags", [
        ("--pf", "{}"),
        ("--pf-min", "{}", "--pf-max", "0.5", "--pf-steps", "3"),
        ("--pf", "0.2", "--pfmb", "{}"),
    ])
    def test_negative_zero_runs_as_zero(self, capsys, command, flags):
        code, minus, _ = run_cli(capsys, *command, *(f.format("-0.0") for f in flags))
        _, plus, _ = run_cli(capsys, *command, *(f.format("0") for f in flags))
        assert code == 0
        assert minus == plus


def readme_cli_lines():
    """The ``htmr-lab`` commands of README's ``## CLI`` block, comments cut."""
    block = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("htmr-lab ")]


class TestReadme:
    def test_the_cli_block_lists_commands(self):
        assert len(readme_cli_lines()) >= 9

    @pytest.mark.parametrize("line", readme_cli_lines())
    def test_every_cli_example_runs(self, capsys, line):
        code, out, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, err
        assert out.startswith(HEADER_PREFIX)

    @pytest.mark.parametrize("line", readme_cli_lines())
    def test_every_cli_example_runs_as_json(self, capsys, line):
        argv = shlex.split(line)[1:]
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, err
        meta = json.loads(out)["meta"]  # after the tool and its version
        assert list(meta)[2:5] == ["seed", "semantics", "command"]
        assert meta["command"] == argv[0]


class Exited(BaseException):
    """Raised in place of ``os._exit`` in process, carrying its code."""

    def __init__(self, code):
        super().__init__(code)
        self.code = code


class TestRun:
    @pytest.fixture
    def events(self, monkeypatch):
        """Record ``main()``'s call and return and each ``os._exit`` call,
        with the exit replaced by raising ``Exited``, so pytest lives on."""
        events = []

        def recorded_exit(code):
            events.append(f"os._exit({code})")
            raise Exited(code)

        def recorded_main(argv=None):
            events.append("main")
            code = main(argv)
            events.append("main returned")
            return code

        monkeypatch.setattr(os, "_exit", recorded_exit)
        monkeypatch.setattr(cli, "main", recorded_main)
        return events

    @pytest.mark.parametrize("argv, code", [
        (["analytic", "--pf", "0.1", "--orders", "2"], 0),
        (["analytic", "--pf", "1.5"], 2),
        (["--version"], 0),  # argparse raises SystemExit
        (["simulate", "--pf", "0.1"], 2),  # argparse usage error: no --trials
    ])
    def test_exits_with_mains_code(self, monkeypatch, capsys, events, argv, code):
        """``run()`` ends by ``os._exit`` with ``main()``'s code, and
        argparse's own ``SystemExit`` leaves before it, by the normal exit."""
        monkeypatch.setattr(sys, "argv", ["htmr-lab", *argv])
        with pytest.raises((Exited, SystemExit)) as exc:
            cli.run()
        assert exc.value.code == code
        if argv[0] == "analytic":
            assert type(exc.value) is Exited
            assert events == ["main", "main returned", f"os._exit({code})"]
        else:
            assert type(exc.value) is SystemExit
            assert events == ["main"]

    def test_stdout_is_flushed_before_os_exit(self, monkeypatch, events):
        class Stdout:
            text = ""

            def write(self, text):
                self.text += text

            def flush(self):
                events.append(f"flush {len(self.text)}")

        stdout = Stdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "argv", ["htmr-lab", "truth-table"])
        with pytest.raises(Exited):
            cli.run()
        assert stdout.text.startswith(HEADER_PREFIX)
        assert events == [
            "main", f"flush {len(stdout.text)}", "main returned", "os._exit(0)",
        ]

    def test_a_broken_pipe_at_the_flush_exits_1(self, monkeypatch, capsys):
        class ClosedPipe:
            def write(self, text):
                return len(text)

            def flush(self):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["truth-table"]) == 1
        assert capsys.readouterr().err == ""


def test_sweep_rows_are_tuples_in_column_order():
    assert cli.SWEEP_COLUMNS == ComparisonRow._fields == tuple(SWEEP_HEADER.split(","))
    rows = sweep_monte_carlo(SweepConfig.single(0.1, orders=(1, 2), trials=1000, seed=3))
    assert [row.order for row in rows] == [1, 2]
    for row in rows:
        assert type(row) is ComparisonRow and isinstance(row, tuple)
        assert row == tuple(getattr(row, name) for name in cli.SWEEP_COLUMNS)
        assert row.trials == 1000


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc")
class TestBlasPool:
    """numpy, loaded after the CLI, starts without OpenBLAS's thread pool."""

    PROBE = (
        "import os, htmr_lab.cli, numpy; "
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    )

    def probe(self, **env):
        base = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
        base["PYTHONPATH"] = str(ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-c", self.PROBE], env=base | env,
            capture_output=True, text=True, check=True,
        )
        return result.stdout.split()

    def test_the_import_runs_one_thread(self):
        assert self.probe() == ["1", "1"]

    def test_a_value_already_set_is_kept(self):
        assert self.probe(OPENBLAS_NUM_THREADS="2")[1] == "2"
