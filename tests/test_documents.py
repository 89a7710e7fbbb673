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
        "23d2930066387c62ec77d4805448d16792cfff629ebed32a9c3bab76abcb1e88",
    ),
    # rate-0 leaves under faulty voters: no error and no alarm can occur
    "fault_free_leaves_voter_faults": (
        "simulate --pf 0 --pfmb 0.1 --orders 0,1,2,3 --trials 5000",
        "9cb552e3d8f6b4d58137afffc585f81515a83619cdbce7a54cc3c2bff6fc33e0",
    ),
    "always_wrong_leaves_voter_faults": (
        "simulate --pf 1 --pfmb 0.1 --orders 0,1,2 --trials 5000",
        "c17a99180239ac4041b55447050ece52ede4c879acc060d005d2ecef9f274ad6",
    ),
    "order3_voter_faults": (
        "simulate --pf 0.1 --order 3 --pfmb pf --trials 20000 --seed 7",
        "63a775bf4d04fde3c5cab2b7ba6540fcba76d95abe1960a5f96674867a843f29",
    ),
    "scenario_nff_json": (
        "simulate --pf-min 0.1 --pf-max 0.3 --pf-steps 3 --orders 1,2 --scenario NFF "
        "--trials 20000 --seed 5 --format json",
        "a423ffe87f1c919b7b84044fe235384f70d9fd72235051cc8e693358ba935e73",
    ),
    "scenarios_trials": (
        "scenarios --pf-min 0.05 --pf-max 0.45 --pf-steps 3 --orders 1,2,3 "
        "--trials 10000 --seed 11",
        "958b8c49376175cf15cbe3531f122677e29188da9d088682e1b5b9da542c4f30",
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
