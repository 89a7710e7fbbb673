"""One traced htmr-lab CLI invocation, for the benchmark's per-layer split.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/tracer.py --run-id ID -- <htmr-lab arguments>

The tracer changes no program file. It times ``import htmr_lab.cli``, then
replaces public callables with span-recording wrappers at the names their
callers look up, runs ``htmr_lab.cli.main`` with the document captured,
and prints two lines of JSON: first the exit code, the document, the
duration of ``main``, the layer metrics and every span; then ``post_s``,
the time spent after ``main`` returned up to the end of the first line,
which the caller subtracts from the process wall time.

Spans are kept in memory and written out once, when the run ends. A span
records its id, name, parent span, thread, run id, wall start and end,
process CPU and thread CPU. Worker threads have no open span of their own
when they start, so their spans take as parent the span open on the main
thread at that moment, which is the ``run_trials`` call that fanned out.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict

MIB = float(1 << 20)


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end",
                 "cpu0", "cpu1", "tcpu0", "tcpu1", "info")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self, run_id: str) -> list:
        return [self.id, self.name, self.parent, self.thread, run_id,
                self.start, self.end]


class Tracer:
    """Records spans around wrapped callables; safe to use from many threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``info(args, kwargs, result)`` may attach counts to the span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._main_stack
            span = Span()
            span.id = next(self._ids)
            span.name = name
            span.parent = outer[-1].id if outer else None
            span.thread = threading.get_ident()
            span.info = None
            stack.append(span)
            span.cpu0 = time.process_time()
            span.tcpu0 = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.tcpu1 = time.thread_time()
                span.cpu1 = time.process_time()
                stack.pop()
                self.spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        setattr(owner, attr, traced)


def _instrument(tracer: Tracer) -> None:
    """Wrap each layer's public callables where their callers look them up."""
    from htmr_lab import cli, faults, harness

    run_trials_sig = inspect.signature(harness.run_trials)

    def run_trials_info(args, kwargs, result):
        bound = run_trials_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        blocks = math.ceil(a["n"] / a["block_size"])
        return {"trials": a["n"], "voters": a["net"].voter_count,
                "blocks": blocks, "threads": min(a["workers"], blocks)}

    def uniforms_info(args, kwargs, result):
        return {"draws": int(result.size), "bytes": int(result.nbytes)}

    def units_info(args, kwargs, result):
        rows = result.values() if isinstance(result, dict) else [result]
        return {"units": sum(len(r) for r in rows)}

    def render_info(args, kwargs, result):
        return {"bytes": len(result.encode("utf-8"))}

    tracer.wrap(cli, "render_csv", "cli.render_csv", render_info)
    for attr in ("sweep_monte_carlo", "scenario_suite"):
        tracer.wrap(cli, attr, "harness." + attr, units_info)
    tracer.wrap(harness, "run_trials", "network.run_trials", run_trials_info)
    for attr in ("build_network", "tile_scenario"):
        tracer.wrap(harness, attr, "network." + attr)
    for attr in ("pe_first", "pe_order", "pem_order", "reduction_rate",
                 "scenario_error_probability"):
        tracer.wrap(harness, attr, "reliability." + attr)
    tracer.wrap(faults.RandomSource, "derive", "faults.derive")
    tracer.wrap(faults.RandomSource, "uniforms", "faults.uniforms", uniforms_info)
    tracer.wrap(cli, "main", "cli.main")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts and times from one run's spans.

    A harness span's direct children are calls made one after another on
    the main thread, so its self time is its duration minus theirs.
    """
    by_id = {s.id: s for s in spans}
    kids_s = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            kids_s[s.parent] += s.duration

    def under_run_trials(s: Span) -> bool:
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.name == "network.run_trials":
                return True
            parent = by_id.get(parent.parent)
        return False

    def named(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    uniforms = named("faults.uniforms")
    derives = named("faults.derive")
    runs = named("network.run_trials")
    harness_spans = named("harness.")
    reliability = named("reliability.")
    renders = named("cli.render_csv")

    draws = sum(s.info["draws"] for s in uniforms)
    draw_bytes = sum(s.info["bytes"] for s in uniforms)
    uniforms_s = sum(s.duration for s in uniforms)
    faults_in_runs = [s for s in uniforms + derives if under_run_trials(s)]
    faults_busy = sum(s.duration for s in faults_in_runs)
    faults_thread_cpu = sum(s.tcpu1 - s.tcpu0 for s in faults_in_runs)

    run_s = sum(s.duration for s in runs)
    net_cpu = sum(s.cpu1 - s.cpu0 for s in runs)
    capacity = sum(s.duration * s.info["threads"] for s in runs)
    voter_trials = sum(s.info["trials"] * s.info["voters"] for s in runs)
    self_cpu = net_cpu - faults_busy

    metrics = {
        "faults.draws": draws,
        "faults.derive_calls": len(derives),
        "faults.uniforms_s": uniforms_s,
        "faults.derive_s": sum(s.duration for s in derives),
        "faults.ns_per_draw": uniforms_s / draws * 1e9 if draws else 0.0,
        "faults.max_block_mb": max((s.info["bytes"] for s in uniforms), default=0) / MIB,
        "faults.draw_mb": draw_bytes / MIB,
        "network.calls": len(runs),
        "network.trials": sum(s.info["trials"] for s in runs),
        "network.blocks": sum(s.info["blocks"] for s in runs),
        "network.run_trials_s": run_s,
        "network.cpu_s": net_cpu,
        "network.self_cpu_s": self_cpu,
        "network.ns_per_voter_trial": self_cpu / voter_trials * 1e9 if voter_trials else 0.0,
        "network.cpu_util": net_cpu / capacity if capacity else 0.0,
        "network.idle_s": capacity - net_cpu,
        "harness.units": sum(s.info["units"] for s in harness_spans),
        "harness.self_s": sum(s.duration - kids_s[s.id] for s in harness_spans),
        "reliability.calls": len(reliability),
        "reliability.s": sum(s.duration for s in reliability),
        "cli.render_s": sum(s.duration for s in renders),
        "cli.doc_bytes": sum(s.info["bytes"] for s in renders),
        # faults busy time is wall time; the part of it the worker threads
        # did not spend on a processor is the error in the network/faults split
        "trace.split_gap_frac": (faults_busy - faults_thread_cpu) / net_cpu if net_cpu else 0.0,
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.perf_counter()
    import htmr_lab.cli as cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    _instrument(tracer)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(cli_args)
    post_start = time.perf_counter()

    metrics = layer_metrics(tracer.spans)
    metrics["cli.import_s"] = import_s
    main_span = next(s for s in tracer.spans if s.name == "cli.main")
    payload = {
        "code": code,
        "doc": captured.getvalue(),
        "main_s": main_span.duration,
        "metrics": metrics,
        "spans": [s.record(args.run_id) for s in tracer.spans],
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
    sys.stdout.write(json.dumps({"post_s": time.perf_counter() - post_start}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
