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
    # every rate below 1/32: the sampler draws only its Poisson residual
    "residual_only_low_rates": (
        "simulate --pf 0.01 --pfmb 0.02 --orders 0,1,2,3 --trials 20000 --seed 9",
        "5fc6f6387266822ab242579c6668b2c51c304078a42fc6e7c781a21baca56542",
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
