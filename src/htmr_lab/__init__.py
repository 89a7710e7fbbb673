"""htmr-lab: hierarchical triple-modular-redundancy modeling and simulation.

Bit-exact majority voting with a disagreement alarm, closed-form and
recursive error-probability models for nested voting hierarchies, a
seeded Monte-Carlo fault-injection simulator for the corresponding
ternary voter trees, and an experiment harness that sweeps, compares, and
serializes the two against each other.
"""

__version__ = "0.1.0"

from .faults import (
    RandomSource,
    SCENARIO_PATTERNS,
    ber_corrupt,
    make_scenario,
    module_output,
)
from .harness import (
    ComparisonRow,
    ReductionClaims,
    SweepConfig,
    Table3Row,
    TABLE3_RATES,
    floor_to_sig_figs,
    low_probability_report,
    present_operations,
    reduction_claims_check,
    scenario_suite,
    sweep_analytic,
    sweep_monte_carlo,
    table3_report,
)
from .network import (
    DEFAULT_BLOCK_SIZE,
    EmpiricalEstimate,
    FaultStatusCounter,
    HealthReport,
    HtmrNetwork,
    build_network,
    health_report,
    run_trials,
    simulate_bit,
    tile_scenario,
)
from .reliability import (
    CLAIMED_ORDER2_EXPANSION,
    EXACT_ORDER2_EXPANSION,
    ExpansionAudit,
    ExpansionSample,
    MAX_ORDER,
    PropositionReport,
    evaluate_power_series,
    expansion_audit,
    operations_per_error,
    pe_first,
    pe_order,
    pem_first,
    pem_order,
    proposition_check,
    reduction_rate,
    scenario_error_probability,
    tree_error_probability,
)
from .voting import (
    TmrRegister,
    TripleInput,
    VoteOutcome,
    alarm_signal,
    enumerate_truth_table,
    flipflop_step,
    majority_vote,
    vote_with_alarm,
)
