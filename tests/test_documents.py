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
        "60437cf0ac7ad65ab8a2c30b69102dd05ee1154ff17c416373dfdcb97ba9c211",
    ),
    # rate-0 leaves under faulty voters: no error and no alarm can occur
    "fault_free_leaves_voter_faults": (
        "simulate --pf 0 --pfmb 0.1 --orders 0,1,2,3 --trials 5000",
        "d8524c3e288355cdde3e7147e1344b9a1b51d6c4aec9825e3a5c3831b8d4b783",
    ),
    "always_wrong_leaves_voter_faults": (
        "simulate --pf 1 --pfmb 0.1 --orders 0,1,2 --trials 5000",
        "2e15caa88222761e40e73dbeb2c81b2223ea1a155eb829c2679a75ef7882a3a1",
    ),
    "order3_voter_faults": (
        "simulate --pf 0.1 --order 3 --pfmb pf --trials 20000 --seed 7",
        "f88f2f0c8d6f6519cb9171a3784f0f9d8a61671bb3d88ce834fd843d13addd6a",
    ),
    "scenario_nff_json": (
        "simulate --pf-min 0.1 --pf-max 0.3 --pf-steps 3 --orders 1,2 --scenario NFF "
        "--trials 20000 --seed 5 --format json",
        "610683aff8aee1c45fc953f34e06ac16491624fb44940f2bafd643c32a077e05",
    ),
    "scenarios_trials": (
        "scenarios --pf-min 0.05 --pf-max 0.45 --pf-steps 3 --orders 1,2,3 "
        "--trials 10000 --seed 11",
        "7b183b1ab66e0cca7b33222a9e0206e8bf5ef4eea007d22aa238bfac6ec7b904",
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
