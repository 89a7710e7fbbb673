"""Every command's document stays byte-identical from one change to the next.

Each case renders one small document through ``cli.main`` and compares its
SHA-256 with the hash recorded here. A hash may change only together with a
``streams=`` or ``semantics=`` tag bump in the document header, recorded in
CHANGES.md with the numbers that moved. A refactor that keeps every
document leaves this file untouched.
"""

import hashlib

import pytest

from htmr_lab.cli import main

DOCUMENTS = {
    # the paper's 21-point protocol, at a smaller trial count
    "protocol21": (
        "simulate --pf-min 0 --pf-max 1 --pf-steps 21 --orders 0,1,2 --trials 1e5 "
        "--workers 2",
        "13130ebe6eb0d590cc5e4d3d8f5ed0ddb2ee1f1c874c3a09de0257b31e3f5a83",
    ),
    # rate-0 leaves under faulty voters: no error and no alarm can occur
    "fault_free_leaves_voter_faults": (
        "simulate --pf 0 --pfmb 0.1 --orders 0,1,2,3 --trials 5000",
        "792020b384358893309b3c51a677421441218b91b415b4ebcf4f21eb6b0ac546",
    ),
    "always_wrong_leaves_voter_faults": (
        "simulate --pf 1 --pfmb 0.1 --orders 0,1,2 --trials 5000",
        "22a36d287191e0be508b79f3222d2b283103119c25f15718fe50d4a4ce9d696c",
    ),
    "order3_voter_faults": (
        "simulate --pf 0.1 --order 3 --pfmb pf --trials 20000 --seed 7",
        "f2332d3d24ebf12893f131a1ac51abdb4c4cb815f7dfbfb6015c8cad7652190a",
    ),
    "scenario_nff_json": (
        "simulate --pf-min 0.1 --pf-max 0.3 --pf-steps 3 --orders 1,2 --scenario NFF "
        "--trials 20000 --seed 5 --format json",
        "faebefa5c5f3f177576b8fb3cdd0a8abf31b626f42d6fef17704521a614d7493",
    ),
    "scenarios_trials": (
        "scenarios --pf-min 0.05 --pf-max 0.45 --pf-steps 3 --orders 1,2,3 "
        "--trials 10000 --seed 11",
        "1bbb6c18cf84e81d769da6bd6943ad900c1d19ca3dde2476bc6e3589c278a738",
    ),
    "analytic_pfmb_pf": (
        "analytic --pf-min 0 --pf-max 1 --pf-steps 11 --orders 0,1,2,3,4 --pfmb pf",
        "b264e4c0c54a9b9e545de1502f97bdef63abedff059927c02eefb29f1f1acef7",
    ),
    "table3": ("table3", "6189cffd9ab6b8e65c720c5a6b87c9f9426b9024e57f2216f57f64e5e456a17c"),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_document_is_unchanged(name, capsys):
    argv, digest = DOCUMENTS[name]
    assert main(argv.split()) == 0
    document = capsys.readouterr().out
    assert hashlib.sha256(document.encode("utf-8")).hexdigest() == digest
