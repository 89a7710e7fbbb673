"""Every command's document stays byte-identical from one change to the next.

Each case renders one small document through ``cli.main`` and compares its
SHA-256 with the hash recorded here. A hash whose numbers move may change
only together with a ``streams=`` or ``semantics=`` tag bump in the
document header, recorded in CHANGES.md with the numbers that moved; a
hash whose numbers stay (a verdict or an empty cell) changes with a line
in CHANGES.md. A refactor that keeps every document leaves this file
untouched. The documents are also rendered one after another in one
process, in both orders, so that no state a call leaves behind, such as a
thread's block workspace, can change a later document.
"""

import hashlib

import pytest

from htmr_lab.cli import main

DOCUMENTS = {
    # the paper's 21-point protocol, at a smaller trial count
    "protocol21": (
        "simulate --pf-min 0 --pf-max 1 --pf-steps 21 --orders 0,1,2 --trials 1e5 "
        "--workers 2",
        "aab38a806b6e1b093b15276a3326d5e167542758c0ed05591a94773b734d2689",
    ),
    # rate-0 leaves under faulty voters: no error and no alarm can occur
    "fault_free_leaves_voter_faults": (
        "simulate --pf 0 --pfmb 0.1 --orders 0,1,2,3 --trials 5000",
        "9781d8aba96db172bcca56a39000461407d513c894b7e5f4ef1f879302cc95ba",
    ),
    "always_wrong_leaves_voter_faults": (
        "simulate --pf 1 --pfmb 0.1 --orders 0,1,2 --trials 5000",
        "f234be4fde1b66f8e06a20d17727c321badc68b1e2adf98d5e92fa2147256d22",
    ),
    # every rate below 1/32: the sampler draws only its Poisson residual
    "residual_only_low_rates": (
        "simulate --pf 0.01 --pfmb 0.02 --orders 0,1,2,3 --trials 20000 --seed 9",
        "97b8599e426a6dedfdd4d263957a2894c3cd9ea38f898bfa8df29eca086df9d9",
    ),
    "order3_voter_faults": (
        "simulate --pf 0.1 --order 3 --pfmb pf --trials 20000 --seed 7",
        "8bdf33894f1ff2fa190bf1274303b7cb3b325ba70a63de46f841bfc8ad0d00d2",
    ),
    "scenario_nff_json": (
        "simulate --pf-min 0.1 --pf-max 0.3 --pf-steps 3 --orders 1,2 --scenario NFF "
        "--trials 20000 --seed 5 --format json",
        "20db969356200a56077929a8775021ad12cb4729283afc39c30f5c1a06e2744b",
    ),
    "scenarios_trials": (
        "scenarios --pf-min 0.05 --pf-max 0.45 --pf-steps 3 --orders 1,2,3 "
        "--trials 10000 --seed 11",
        "ed6a09a7cbe73d51b434552ce6d8966762d33576650cc58b255af14b3906e504",
    ),
    "analytic_pfmb_pf": (
        "analytic --pf-min 0 --pf-max 1 --pf-steps 11 --orders 0,1,2,3,4 --pfmb pf",
        "b264e4c0c54a9b9e545de1502f97bdef63abedff059927c02eefb29f1f1acef7",
    ),
    # the low-rate study: orders 1 and 2 on a logarithmic grid down to 1e-8
    "analytic_low_rate_log": (
        "analytic --pf-min 1e-8 --pf-max 1e-3 --pf-steps 11 --pf-scale log --orders 1,2",
        "20ac1af4cfa310a984943931984b441f77bad8bce05f89b168fea617dedde832",
    ),
    "table3": ("table3","6189cffd9ab6b8e65c720c5a6b87c9f9426b9024e57f2216f57f64e5e456a17c"),
    # levels 1..16 at pf = 0.3, down to the underflow to 0; the comparisons
    # after the first zero are undecided
    "proposition_deep": (
        "proposition --pf 0.3 --j-max 16",
        "a9bc7a76e4b478a49d2d5399b69c459960cf23d086b4de1986edf6e00660ede8",
    ),
    "audit": ("audit", "893ae5b9b1bb449ff2fbf1c84c0d856350cbfad77dda211b2c147a94325b79ac"),
    "truth_table": (
        "truth-table",
        "ec16d62b4e3bf58b7ff789287b1006753b7295d787e3714c8f8ec3bb028f1248",
    ),
    # the one-point header form, and README's headline ratios
    "analytic_point": (
        "analytic --pf 0.1 --orders 0,1,2",
        "8072906d20880bc33c069d662b17e300b02a418ab26d9fffcfc1f28aaa13b470",
    ),
    "scenarios_analytic": (
        "scenarios --pf-min 0.1 --pf-max 0.3 --pf-steps 3 --orders 1,2",
        "0c1db13ebc1f0ca5e54ebf62c6c8ccd2d0b825a9d047beeddf7c664dbd9b14af",
    ),
    "audit_point_json": (
        "audit --pf 0.5 --format json",
        "5d0eb5c7d445e9912a187f7805aea5a1b8f5e7321788697d04e8462ff64ba58f",
    ),
    # a leaf pattern under faulty voters: pem anchors at the leftmost leaf
    "scenario_voter_faults": (
        "simulate --scenario NFF --pf-min 0.1 --pf-max 0.3 --pf-steps 3 --orders 1,2 "
        "--pfmb pf --trials 20000 --seed 13",
        "8bd1ad5795e269f68aab52812df5d7f5c929115294d3d4bdf672945cd2bea9c4",
    ),
    # requested orders that skip levels, and deep orders near underflow:
    # pe at order 5 and 16 reads 0 while pem does not
    "analytic_skipped_deep_orders": (
        "analytic --pf-min 1e-40 --pf-max 0.6 --pf-steps 9 --pf-scale log "
        "--orders 0,2,5,16 --pfmb 0.05",
        "e771b583e09e254e05c1b728d3def195d6f25eebcb270752cdc8987e0ae01e18",
    ),
    # a nine-letter pattern under faulty voters, at orders that skip level 3
    "pattern9_voter_faults": (
        "simulate --scenario NFFNNFFFN --pf-min 0.1 --pf-max 0.5 --pf-steps 3 "
        "--orders 2,4 --pfmb pf --trials 20000 --seed 17",
        "d42fea8f51ced0ee2781bd84beedddb2c9a01186271053dd685ce6faa8326f9a",
    ),
}


def render(name, capsys):
    """SHA-256 of the document ``name`` rendered through ``cli.main``."""
    assert main(DOCUMENTS[name][0].split()) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_document_is_unchanged(name, capsys):
    assert render(name, capsys) == DOCUMENTS[name][1]


@pytest.mark.parametrize("order", ["listed", "reversed"])
def test_documents_in_one_process_are_unchanged(order, capsys):
    names = list(DOCUMENTS) if order == "listed" else list(reversed(DOCUMENTS))
    assert {name: render(name, capsys) for name in names} == {
        name: DOCUMENTS[name][1] for name in names
    }
