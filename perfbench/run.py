"""htmr-lab benchmark: CLI throughput, memory and a per-layer split.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the WORKLOADS below, or ``all`` to run each in turn. The
program is run from ``src/`` of the same checkout; nothing is installed.

With ``--trace 0`` the workload's CLI command runs as a fresh child
process again and again for S seconds, and the end-to-end metrics are
medians over those repeats. Each repeat's wall times lose the host's
steal, and all its times are scaled by ``perfbench/calibrate.py``, run just
before and just after it, so that the host's drifting speed cancels. With
``--trace 1`` untraced repeats alternate with traced ones
(``perfbench/tracer.py``), and the per-layer metrics are medians over the
traced repeats. Every output row of every repeat is
checked against an exact value computed here (``perfbench/exact.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable summary. A full record, with the environment, every
repeat and, when traced, every span, is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from exact import ExpectedRow, row_key, row_ok, scenario_leaves, tree_error, uniform_leaves
from calibrate import steal_s
from tracer import MIB

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
# Set-up is timed this many times per repeat, interleaved with the
# workload so both see the same machine.
SETUP_PER_REPEAT = 3
SETUP_ARGV = ("-c", "import htmr_lab.cli")
# Every child is killed once a workload has run this long, so a hung
# program still ends a one-workload run within 180 s. A calibration still
# gets CAL_TIMEOUT_S after that, so the repeat the kill ended is scaled.
DEADLINE_S = 160.0
CAL_TIMEOUT_S = 5.0
FLOOR_MIN_FILLS = 5
FLOOR_MIN_S = 0.2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("faults.draws", "count"),
    ("faults.derive_calls", "count"),
    ("faults.uniforms_s", "s"),
    ("faults.derive_s", "s"),
    ("faults.ns_per_draw", "ns"),
    ("faults.floor_ns_per_draw", "ns"),
    ("faults.max_block_mb", "MiB"),
    ("faults.draw_mb", "MiB"),
    ("network.calls", "count"),
    ("network.trials", "count"),
    ("network.blocks", "count"),
    ("network.run_trials_s", "s"),
    ("network.cpu_s", "s"),
    ("network.self_cpu_s", "s"),
    ("network.ns_per_voter_trial", "ns"),
    ("network.cpu_util", "frac"),
    ("network.idle_s", "s"),
    ("harness.units", "count"),
    ("harness.self_s", "s"),
    ("reliability.calls", "count"),
    ("reliability.s", "s"),
    ("cli.import_s", "s"),
    ("cli.render_s", "s"),
    ("cli.doc_bytes", "bytes"),
    ("trace.overhead_frac", "frac"),
    ("trace.split_gap_frac", "frac"),
)


@dataclass(frozen=True)
class Workload:
    """One fixed CLI command and the rows it must print.

    ``block_shape`` is its median uniform block, observed in traced runs;
    the draw floor and ``calibrate.py`` use it. The reference box's speed
    drifts by 20-50 % over minutes (see README), so each timed child is
    scaled by how long ``calibrate.py`` took just before and just after it,
    relative to ``cal_ref_s``, its median on that box.
    """

    name: str
    argv: tuple[str, ...]
    rows: tuple[ExpectedRow, ...]
    block_shape: tuple[int, int]
    cal_ref_s: float


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _protocol21() -> Workload:
    trials = 1_000_000
    rows = []
    for pf in _grid(0.0, 1.0, 21):
        for order in (0, 1, 2):
            exact = tree_error(uniform_leaves(order, pf), 0.0)
            rows.append(ExpectedRow(pf, order, "", trials, exact, exact))
    argv = ("simulate", "--pf-min", "0", "--pf-max", "1", "--pf-steps", "21",
            "--orders", "0,1,2", "--trials", str(trials), "--workers", "2")
    return Workload("protocol21", argv, tuple(rows), (1 << 16, 3), 0.32)


def _deep_voterfault() -> Workload:
    trials, pf, order = 2_000_000, 0.1, 4
    leaves = uniform_leaves(order, pf)
    row = ExpectedRow(pf, order, "", trials, tree_error(leaves, pf), tree_error(leaves, 0.0))
    argv = ("simulate", "--order", str(order), "--pf", str(pf), "--pfmb", "pf",
            "--trials", str(trials), "--workers", "2")
    return Workload("deep_voterfault", argv, (row,), (1 << 16, 121), 0.24)


def _scenario_suite() -> Workload:
    trials = 1_000_000
    rows = []
    for pattern in ("NNF", "NFF", "FFF"):
        for pf in _grid(0.0, 1.0, 6):
            for order in (1, 2, 3):
                exact = tree_error(scenario_leaves(pattern, order, pf), 0.0)
                rows.append(ExpectedRow(pf, order, pattern, trials, exact, exact))
    argv = ("scenarios", "--pf-min", "0", "--pf-max", "1", "--pf-steps", "6",
            "--orders", "1,2,3", "--trials", str(trials), "--workers", "1")
    return Workload("scenario_suite", argv, tuple(rows), (1 << 16, 6), 0.28)


WORKLOADS = {w.name: w for w in (_protocol21(), _deep_voterfault(), _scenario_suite())}


# ---------------------------------------------------------------- children

@dataclass
class Child:
    """One finished child process and what ``wait4`` reported for it alone."""

    code: int | None  # None when it was killed at the deadline
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    steal_s: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    """The environment of every child: this checkout's ``src`` and one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> Child:
    """Run ``argv`` to completion and read its own CPU time and peak RSS.

    The child is waited for without being reaped first (``WNOWAIT``), so
    the kill timer can never signal a reused pid; ``wait4`` then reaps it
    and returns its resource use, which ``RUSAGE_CHILDREN`` would mix with
    the earlier children's.
    """
    stolen = steal_s()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out: dict[str, bytes] = {}

    def drain(key, stream):
        out[key] = stream.read()

    readers = [threading.Thread(target=drain, args=(k, s))
               for k, s in (("stdout", proc.stdout), ("stderr", proc.stderr))]
    for reader in readers:
        reader.start()
    killed = threading.Event()

    def kill():
        killed.set()
        os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        for reader in readers:
            reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return Child(
        code=None if killed.is_set() else proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / MIB,
        steal_s=steal_s() - stolen,
        stdout=out.get("stdout", b""),
        stderr=out.get("stderr", b""),
    )


# ------------------------------------------------------------ correctness

def check_document(text: str, workload: Workload, seed: int) -> tuple[int, int, str]:
    """Failed rows, total trials and a reason for one CSV document.

    A malformed document (wrong header, unparsable or unexpected rows)
    fails every expected row. ``pem`` is not judged: it is a different
    model from the tree the simulator runs.
    """
    expected = {row.key: row for row in workload.rows}
    everything = len(expected)
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# htmr-lab v"):
        return everything, 0, "no CSV header"
    if f"seed={seed}" not in lines[0].split():
        return everything, 0, "header does not echo the seed"
    columns = lines[1].split(",")
    try:
        at = {name: columns.index(name) for name in ("pf", "order", "pe", "pe_hat", "trials")}
    except ValueError:
        return everything, 0, f"missing columns in {lines[1]!r}"
    scenario_at = columns.index("scenario") if "scenario" in columns else None
    seen = {}
    total_trials = 0
    try:
        for line in lines[2:]:
            cells = line.split(",")
            scenario = cells[scenario_at] if scenario_at is not None else ""
            key = row_key(float(cells[at["pf"]]), int(cells[at["order"]]), scenario)
            if key not in expected or key in seen:
                return everything, 0, f"unexpected row {line!r}"
            trials = int(cells[at["trials"]])
            total_trials += trials
            seen[key] = row_ok(expected[key], float(cells[at["pe"]]),
                               float(cells[at["pe_hat"]]), trials)
    except (ValueError, IndexError) as exc:
        return everything, 0, f"unparsable row: {exc}"
    bad = [key for key in expected if not seen.get(key, False)]
    reason = f"rows failing the exact check: {bad[:5]}" if bad else ""
    return len(bad), total_trials, reason


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    first_sha: str | None = None
    notes: list[str] = field(default_factory=list)

    def add(self, workload: Workload, seed: int, child: Child, doc: bytes) -> dict:
        """Judge one repeat; returns its record for the results file."""
        rows = len(workload.rows)
        self.attempted += rows
        sha = hashlib.sha256(doc).hexdigest()
        if child.code != 0:
            failed, trials, reason = rows, 0, (
                "killed at the deadline" if child.code is None else f"exit code {child.code}")
        else:
            failed, trials, reason = check_document(doc.decode("utf-8", "replace"), workload, seed)
            if self.first_sha is None:
                self.first_sha = sha
            elif sha != self.first_sha and not failed:
                failed, reason = rows, "document differs from the first repeat"
        self.failed += failed
        if reason:
            self.notes.append(reason)
        return {"code": child.code, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
                "peak_rss_mb": child.peak_rss_mb, "steal_s": child.steal_s, "trials": trials, "failed": failed,
                "sha256": sha, "reason": reason,
                "stderr": child.stderr.decode("utf-8", "replace")[-2000:]}


# -------------------------------------------------------------- measuring

def floor_ns_per_draw(shape) -> float:
    """Fastest raw PCG64 ``Generator.random`` fill of ``shape``, in ns per draw.

    Each fill allocates a fresh array, as ``RandomSource.uniforms`` does.
    Fills repeat for at least FLOOR_MIN_S seconds and FLOOR_MIN_FILLS times.
    """
    import numpy as np

    gen = np.random.Generator(np.random.PCG64(0))
    best = math.inf
    fills = 0
    stop = time.perf_counter() + FLOOR_MIN_S
    while fills < FLOOR_MIN_FILLS or time.perf_counter() < stop:
        start = time.perf_counter()
        u = gen.random(shape)
        best = min(best, time.perf_counter() - start)
        fills += 1
    return best / u.size * 1e9


def calibrate(shape: tuple[int, int], env: dict, deadline: "Deadline") -> float:
    """Seconds ``calibrate.py`` took for its fixed mix at ``shape``, in a fresh process."""
    child = run_child([sys.executable, str(BENCH / "calibrate.py"), *map(str, shape)],
                      env, max(deadline.left(), CAL_TIMEOUT_S))
    try:
        return float(child.stdout)
    except ValueError:
        raise RuntimeError("calibrate.py failed: "
                           + child.stderr.decode("utf-8", "replace")[-500:]) from None


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def check_import(env: dict, deadline: Deadline) -> None:
    """Fail unless ``htmr_lab.cli`` imports from this checkout's ``src``."""
    probe = run_child([sys.executable, "-c", "import sys, htmr_lab.cli as m; "
                       "sys.stdout.write(m.__file__)"], env, deadline.left())
    found = Path(probe.stdout.decode("utf-8", "replace"))
    if probe.code != 0 or SRC.resolve() not in found.resolve().parents:
        raise RuntimeError(f"htmr_lab.cli does not import from {SRC}: "
                           + (probe.stderr.decode("utf-8", "replace")[-500:] or str(found)))


def environment(seed: int) -> dict:
    import numpy as np

    commit = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit, "seed": seed, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "platform": platform.platform(),
    }


def _median(values) -> float:
    """Median, or 0.0 when nothing was measured (the result is then not correct)."""
    return statistics.median(values) if values else 0.0


def traced_repeat(workload: Workload, seed: int, cli_args: list[str], env: dict,
                  deadline: Deadline, tally: Tally, run_id: str) -> tuple[dict, dict | None]:
    """One run under ``tracer.py``; returns its record and, if it worked, its payload."""
    child = run_child([sys.executable, str(BENCH / "tracer.py"), "--run-id", run_id,
                       "--", *cli_args], env, deadline.left())
    payload = None
    doc = b""
    if child.code == 0:
        try:
            body, tail = child.stdout.splitlines()
            payload = json.loads(body) | json.loads(tail)
            doc = payload["doc"].encode("utf-8")
            child.code = payload["code"]
        except (ValueError, KeyError, TypeError):
            payload, child.code = None, 1
    record = tally.add(workload, seed, child, doc)
    if payload is None or child.code != 0:
        return record, None
    record.update(main_s=payload["main_s"], post_s=payload["post_s"],
                  wall_s=child.wall_s - payload["post_s"])
    return record, payload


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the result object and the full record."""
    deadline = Deadline(DEADLINE_S)
    env = child_env()
    load_before = os.getloadavg()
    stolen = steal_s()
    check_import(env, deadline)
    setup_argv = [sys.executable, *SETUP_ARGV]
    cli_args = [*workload.argv, "--seed", str(seed)]
    cli_argv = [sys.executable, "-m", "htmr_lab", *cli_args]
    tally = Tally()
    setups, plain, traced, layer_runs, spans = [], [], [], [], []
    start = time.perf_counter()
    cal = calibrate(workload.block_shape, env, deadline)
    while True:
        began = time.perf_counter()
        imports = [run_child(setup_argv, env, deadline.left()) for _ in range(SETUP_PER_REPEAT)]
        cal, before = calibrate(workload.block_shape, env, deadline), cal
        setups += [{"wall_s": c.wall_s, "steal_s": c.steal_s,
                    "scale": (before + cal) / (2 * workload.cal_ref_s)} for c in imports]
        child = run_child(cli_argv, env, deadline.left())
        cal, before = calibrate(workload.block_shape, env, deadline), cal
        plain.append(tally.add(workload, seed, child, child.stdout)
                     | {"scale": (before + cal) / (2 * workload.cal_ref_s)})
        if trace and child.code is not None:
            run_id = f"{workload.name}-s{seed}-r{len(traced)}"
            record, payload = traced_repeat(workload, seed, cli_args, env, deadline,
                                            tally, run_id)
            traced.append(record)
            if payload is not None:
                layer_runs.append(payload["metrics"] | {"_wall_s": record["wall_s"]})
                spans.extend(payload["spans"])
            cal = calibrate(workload.block_shape, env, deadline)
        # stop when one more repeat would end further past ``seconds`` than
        # stopping now falls short of it
        now = time.perf_counter()
        if child.code is None or now - start + (now - began) / 2 >= seconds:
            break
    measured_s = time.perf_counter() - start
    load_after = os.getloadavg()

    ok = [r for r in plain if r["code"] == 0] or plain
    raw_wall = _median([r["wall_s"] for r in ok])
    # wall times lose the host's steal and are scaled by the calibration;
    # CPU time holds no steal, so it is only scaled
    end_to_end = {
        "wall_s": _median([(r["wall_s"] - r["steal_s"]) / r["scale"] for r in ok]),
        "trials_per_s": _median([r["trials"] / (r["wall_s"] - r["steal_s"]) * r["scale"]
                                 for r in ok]),
        "setup_s": _median([(s["wall_s"] - s["steal_s"]) / s["scale"] for s in setups]),
        "cpu_s": _median([r["cpu_s"] / r["scale"] for r in ok]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
    }
    unscaled = {
        "wall_s": raw_wall,
        "trials_per_s": _median([r["trials"] / r["wall_s"] for r in ok]),
        "setup_s": _median([s["wall_s"] for s in setups]),
        "cpu_s": _median([r["cpu_s"] for r in ok]),
        "scale": _median([r["scale"] for r in plain]),
    }
    env_record = environment(seed) | {
        "loadavg_before": load_before, "loadavg_after": load_after,
        "steal_s": steal_s() - stolen,
        "faults.floor_ns_per_draw": floor_ns_per_draw(workload.block_shape),
        "floor_block_shape": list(workload.block_shape),
    }
    if trace:
        per_layer = {name: _median([run[name] for run in layer_runs])
                     for name, _ in PER_LAYER
                     if name not in ("trace.overhead_frac", "faults.floor_ns_per_draw")}
        per_layer["faults.floor_ns_per_draw"] = env_record["faults.floor_ns_per_draw"]
        per_layer["trace.overhead_frac"] = (
            _median([run["_wall_s"] for run in layer_runs]) / raw_wall - 1.0)
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": tally.failed == 0 and bool(layer_runs or not trace),
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    record = {
        "workload": workload.name, "argv": cli_args, "trace": int(trace),
        "seconds": seconds, "measured_s": measured_s, "environment": env_record,
        "end_to_end": end_to_end, "unscaled": unscaled,
        "rows_failed_frac": tally.failed / tally.attempted,
        "document_sha256": tally.first_sha, "notes": tally.notes,
        "setups": setups, "repeats": plain, "traced_repeats": traced,
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if trace:
        with open(RESULTS / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write("# id name parent thread run start end\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    return result, record


def summary(record: dict) -> str:
    result = record["result"]
    lines = [f"{record['workload']}: {len(record['repeats'])} untraced and "
             f"{len(record['traced_repeats'])} traced repeats in {record['measured_s']:.1f} s, "
             f"document sha256 {record['document_sha256']}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    lines.append(f"  {'rows_failed_frac':28s} {record['rows_failed_frac']:.6g} frac "
                 f"({result['failed']}/{result['attempted']} rows)")
    lines.append("  unscaled: " + json.dumps(record["unscaled"]))
    for note in record["notes"][:3]:
        lines.append(f"  failure: {note}")
    env = record["environment"]
    lines.append("  environment: " + json.dumps(env))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="htmr-lab benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "htmr_lab" / "cli.py").is_file():
        print(f"perfbench: no htmr_lab sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, record = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                          bool(args.trace))
            print(summary(record), flush=True)
            results[name] = result
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
