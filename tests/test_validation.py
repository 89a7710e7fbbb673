"""One validator per input concept: every entry taking a bit, a probability
or a count rejects the same bad values, before it draws anything."""

import math

import numpy as np
import pytest

from htmr_lab.faults import SCRATCH_CELLS, RandomSource, check_probability, make_scenario
from htmr_lab.harness import SweepConfig
from htmr_lab.network import (
    EmpiricalEstimate,
    FaultStatusCounter,
    build_network,
    run_trials,
    simulate_bit,
)
from htmr_lab.reliability import (
    check_leaves,
    is_one_rate,
    operations_per_error,
    pe_first,
    pe_order,
    pem_first,
    pem_order,
    reduction_rate,
    scenario_error_probability,
    subtree_error_probabilities,
    tree_error_probability,
)
from htmr_lab.reports import expansion_audit, proposition_check
from htmr_lab.voting import (
    TmrRegister,
    TripleInput,
    alarm_signal,
    check_bit,
    flipflop_step,
    majority_vote,
    vote_with_alarm,
)

BIT_ENTRIES = {
    "check_bit": lambda v, rng: check_bit("bit", v),
    "TripleInput": lambda v, rng: TripleInput(1, v, 0),
    "TmrRegister": lambda v, rng: TmrRegister(stored=v),
    "majority_vote": lambda v, rng: majority_vote((v, 0, 1)),
    "alarm_signal": lambda v, rng: alarm_signal((1, v, 0)),
    "vote_with_alarm": lambda v, rng: vote_with_alarm((0, 1, v)),
    "flipflop_step": lambda v, rng: flipflop_step(TmrRegister(), (v, 1, 1)),
    "simulate_bit": lambda v, rng: simulate_bit(build_network(1, 0.5, 0.5), v, (0,) * 4),
}

PROBABILITY_ENTRIES = {
    "check_probability": lambda p, rng: check_probability("p", p),
    "make_scenario": lambda p, rng: make_scenario("NFF", p),
    "RandomSource.bernoulli_lanes": lambda p, rng: rng.bernoulli_lanes(
        np.empty((1, 1), dtype=np.uint64), 4, p, np.empty(SCRATCH_CELLS, dtype=bool)
    ),
    "pe_first": lambda p, rng: pe_first(p),
    "pem_first/pf": lambda p, rng: pem_first(p, 0.1),
    "pem_first/pfmb": lambda p, rng: pem_first(0.1, p),
    "pe_order": lambda p, rng: pe_order(2, p),
    "pem_order/pf": lambda p, rng: pem_order(2, p, 0.1),
    "pem_order/pfmb": lambda p, rng: pem_order(2, 0.1, p),
    "reduction_rate/pf": lambda p, rng: reduction_rate(p, 0.01),
    "reduction_rate/pe": lambda p, rng: reduction_rate(0.1, p),
    "operations_per_error": lambda p, rng: operations_per_error(p),
    "scenario_error_probability": lambda p, rng: scenario_error_probability("FFF", p),
    "tree_error_probability/leaves": lambda p, rng: tree_error_probability([0.1, p, 0.2], 2),
    "check_leaves": lambda p, rng: check_leaves("leaf error rates", [p], 0),
    "tree_error_probability/voter_fault_rate":
        lambda p, rng: tree_error_probability([0.1], 2, voter_fault_rate=p),
    "subtree_error_probabilities/leaves":
        lambda p, rng: subtree_error_probabilities([0.1, p, 0.2], 2),
    "subtree_error_probabilities/voter_fault_rate":
        lambda p, rng: subtree_error_probabilities([0.1], 2, voter_fault_rate=p),
    "proposition_check": lambda p, rng: proposition_check(p, 3),
    "expansion_audit": lambda p, rng: expansion_audit([0.1, p]),
    "build_network/leaves": lambda p, rng: build_network(1, p),
    "build_network/voters": lambda p, rng: build_network(1, 0.1, voter_fault_rate=p),
    "SweepConfig/pf": lambda p, rng: SweepConfig.single(p),
    "SweepConfig/pf_max": lambda p, rng: SweepConfig(pf_min=0.1, pf_max=p, pf_steps=3),
    "SweepConfig/pfmb": lambda p, rng: SweepConfig.single(0.1, pfmb=p),
}

INTEGER_ENTRIES = {
    "SweepConfig/pf_steps": lambda k, rng: SweepConfig(pf_min=0.0, pf_max=1.0, pf_steps=k),
    "SweepConfig/trials": lambda k, rng: SweepConfig.single(0.1, trials=k),
    "SweepConfig/workers": lambda k, rng: SweepConfig.single(0.1, workers=k),
    "SweepConfig/seed": lambda k, rng: SweepConfig.single(0.1, seed=k),
    "run_trials/n": lambda k, rng: run_trials(build_network(1, 0.1), k, rng),
    "run_trials/workers": lambda k, rng: run_trials(build_network(1, 0.1), 100, rng, workers=k),
    "run_trials/block_size":
        lambda k, rng: run_trials(build_network(1, 0.1), 100, rng, block_size=k),
}


# a good record of each checked type, one of its fields and a value that field refuses
RECORDS = {
    "HtmrNetwork/order": (build_network(1, 0.1), "order", 17),
    "HtmrNetwork/leaves": (build_network(1, 0.1), "leaves", (0.1, 0.2)),
    "HtmrNetwork/voter_fault_rate": (build_network(1, 0.1), "voter_fault_rate", "0.1"),
    "EmpiricalEstimate/trials": (EmpiricalEstimate(10, 3), "trials", 0),
    "EmpiricalEstimate/errors": (EmpiricalEstimate(10, 3), "errors", 11),
    "FaultStatusCounter/alarm_counts": (FaultStatusCounter((1, 2), 5), "alarm_counts", (1, 6)),
    "FaultStatusCounter/trials": (FaultStatusCounter((0, 0), 5), "trials", -1),
    "SweepConfig/pf_max": (SweepConfig.single(0.1), "pf_max", 0.2),
    "SweepConfig/orders": (SweepConfig.single(0.1), "orders", (2, 1)),
    "SweepConfig/pfmb": (SweepConfig.single(0.1), "pfmb", 1.5),
    "SweepConfig/scenario": (SweepConfig.single(0.1, orders=(1, 2)), "scenario", "NNFNNFNNF"),
    "SweepConfig/seed": (SweepConfig.single(0.1), "seed", -1),
    "TripleInput/y2": (TripleInput(1, 0, 1), "y2", 2),
    "TmrRegister/stored": (TmrRegister(), "stored", True),
}


def assert_untouched(rng):
    assert rng.uniforms(1)[0] == RandomSource(0).uniforms(1)[0]


@pytest.mark.parametrize("entry", sorted(BIT_ENTRIES))
@pytest.mark.parametrize("bad", [True, False, np.True_, 1.0, 2, -1, "1", None])
def test_every_bit_entry_rejects_non_bits(entry, bad):
    rng = RandomSource(0)
    with pytest.raises(ValueError, match="must be the integer 0 or 1"):
        BIT_ENTRIES[entry](bad, rng)
    assert_untouched(rng)


@pytest.mark.parametrize("entry", sorted(PROBABILITY_ENTRIES))
@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, math.inf, "0.5", b"0.5", True])
def test_every_probability_entry_rejects_non_probabilities(entry, bad):
    rng = RandomSource(0)
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        PROBABILITY_ENTRIES[entry](bad, rng)
    assert_untouched(rng)


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRIES))
@pytest.mark.parametrize("bad", [2.5, "3", math.nan, math.inf])
def test_every_count_entry_rejects_non_integers(entry, bad):
    rng = RandomSource(0)
    with pytest.raises(ValueError, match="must be an integer"):
        INTEGER_ENTRIES[entry](bad, rng)
    assert_untouched(rng)


@pytest.mark.parametrize("whole", [3, 3.0, np.int64(3)])
def test_integral_counts_are_stored_as_int(whole):
    cfg = SweepConfig(pf_min=0.0, pf_max=1.0, pf_steps=whole, trials=whole, workers=whole)
    assert all(type(v) is int for v in (cfg.pf_steps, cfg.trials, cfg.workers))
    estimate, _ = run_trials(build_network(1, 0.1), whole, RandomSource(0), whole, whole)
    assert estimate == run_trials(build_network(1, 0.1), 3, RandomSource(0))[0]


@pytest.mark.parametrize("leaves", [
    0.1, 0, 1, True, np.float64(0.1), np.float32(0.1), np.int64(1), np.array(0.1), "0.1",
    b"0.1", None, (), (0.1,), (0.1, 0.2, 0.3), [], [0.1], [0.1, 0.2, 0.3], [[0.1]],
    range(3), np.array([0.1]), np.array([0.1, 0.2, 0.3]), np.array([[0.1]]),
], ids=repr)
def test_one_rate_is_what_numpy_calls_zero_dimensional(leaves):
    assert is_one_rate(leaves) is (np.ndim(leaves) == 0)


@pytest.mark.parametrize("one", [1, np.int64(1), np.uint8(1)])
def test_numpy_integers_are_bits(one):
    assert check_bit("bit", one) == 1 and type(check_bit("bit", one)) is int
    assert TripleInput(one, 0, one).as_tuple() == (1, 0, 1)
    assert majority_vote(np.array([one, 0, one])) == 1
    out, _ = simulate_bit(build_network(1, 0.0), one, ())
    assert out == 1


@pytest.mark.parametrize("case", sorted(RECORDS))
def test_a_changed_record_is_checked_as_a_new_one(case):
    good, field, bad = RECORDS[case]
    fields = good._asdict() | {field: bad}
    with pytest.raises(ValueError) as built:
        type(good)(**fields)
    with pytest.raises(ValueError) as replaced:
        good._replace(**{field: bad})
    with pytest.raises(ValueError) as made:
        type(good)._make(fields.values())
    assert str(replaced.value) == str(made.value) == str(built.value)


def test_a_changed_record_stores_the_checked_values():
    cfg = SweepConfig.single(0.1, orders=(2, 3), scenario="FFF")
    assert cfg.scenario == "F"
    assert cfg._replace(scenario="NNFNNFNNF").scenario == "NNF"
    net = build_network(1, 0.1, -0.0)
    assert net == (1, (0.1,), 0.0) and math.copysign(1.0, net.voter_fault_rate) == 1.0
    changed = net._replace(leaves=[0.2] * 3, voter_fault_rate=np.float64(-0.0))
    assert changed == build_network(1, 0.2) and type(changed.voter_fault_rate) is float
    assert math.copysign(1.0, changed.voter_fault_rate) == 1.0
