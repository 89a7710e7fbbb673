"""The benchmark tracer still runs against the package.

``perfbench/tracer.py`` wraps ``harness.run_trials`` (binding its
parameters by name), harness's reliability functions, and the CLI's
``sweep_monte_carlo`` and ``scenario_suite`` from outside. If
those names change, every traced benchmark repeat fails its rows; this
test catches that in the ordinary suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from htmr_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["simulate", "--pf", "0.1", "--order", "2", "--trials", "1000"],
    ["scenarios", "--pf", "0.2", "--orders", "1,2", "--trials", "1000"],
    # a pattern with voter faults; harness.pem_order stays wrapped by name,
    # though the sweep no longer calls it (pem is folded from one walk)
    ["simulate", "--scenario", "NFF", "--pf", "0.2", "--pfmb", "pf", "--orders", "1,2",
     "--trials", "1000"],
], ids=["simulate", "scenarios", "scenario_voter_faults"])
def test_traced_run_matches_plain_cli(capsys, argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--run-id", "t", "--", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout.splitlines()[0])
    assert payload["code"] == 0
    assert main(argv) == 0
    assert payload["doc"] == capsys.readouterr().out
