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
        "480822545c44565a64f1481db74e058d3584d28c747720d7ca6b308b8c11b92f",
    ),
    # rate-0 leaves under faulty voters: no error and no alarm can occur
    "fault_free_leaves_voter_faults": (
        "simulate --pf 0 --pfmb 0.1 --orders 0,1,2,3 --trials 5000",
        "3168c5df9eaab069793c50e91fe77dd2ab1b5fde2693329ad27b73353e899eb6",
    ),
    "always_wrong_leaves_voter_faults": (
        "simulate --pf 1 --pfmb 0.1 --orders 0,1,2 --trials 5000",
        "03bd1ba0f672973ad2adaa771a3c8dce3a00f4ae124d31a0a013e6a94316a9d9",
    ),
    "order3_voter_faults": (
        "simulate --pf 0.1 --order 3 --pfmb pf --trials 20000 --seed 7",
        "5014e9b311665398b4ea177f434138d74be796928792a8f119c95ca6ad0a48b6",
    ),
    "scenario_nff_json": (
        "simulate --pf-min 0.1 --pf-max 0.3 --pf-steps 3 --orders 1,2 --scenario NFF "
        "--trials 20000 --seed 5 --format json",
        "b7bda937db3586aa4bfe7c5559cce5bbd7a341f6afdd1d8e1e0a775c37063603",
    ),
    "scenarios_trials": (
        "scenarios --pf-min 0.05 --pf-max 0.45 --pf-steps 3 --orders 1,2,3 "
        "--trials 10000 --seed 11",
        "bf2f1c7ef5d4b54fb221093e95abeb52ca73e9b189f0edc13d47e1576453de42",
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
