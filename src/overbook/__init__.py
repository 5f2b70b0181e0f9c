"""k-choice online selection, exact oracles, and overbooking auctions.

The decision maker may accept up to k arriving awards but is scored on the
best ell of them. This package implements the threshold selectors for the
known-distribution and random-arrival settings, exact offline/online
oracles, adversarial instance generators, the two-phase overbooking auction,
and a seeded Monte Carlo harness that checks the closed-form guarantees.
"""

from .distributions import (
    DegenerateThresholdError,
    DistributionError,
    ProductInstance,
    RegularityViolationError,
    UndefinedVirtualValueError,
    ValueDistribution,
    hard_prophet_instance,
    max_quantile,
    max_quantile_inf,
    monopoly_price,
    single_sample_hard_instance,
    virtual_value,
)
from .harness import (
    ExperimentReport,
    ExperimentSpec,
    InvalidSpecError,
    emit_report,
    run_experiment,
    run_experiments,
)
from .mechanisms import (
    AuctionOutcome,
    MechanismConfig,
    deviation_test,
    myerson_virtual_surplus,
    revenue_threshold,
    run_two_phase,
    welfare_threshold,
)
from .oracle import (
    DpPolicyValue,
    StateSpaceTooLargeError,
    TopEllResult,
    exact_prophet_benchmark,
    optimal_online_dp,
    secretary_max_prob_dp,
    top_ell,
)
from .prophet import (
    SelectionOutcome,
    ThresholdRule,
    UseAtomsVariantError,
    alg_max,
    alg_max_atoms,
    alg_tau,
    default_tau,
    run_threshold,
)
from .secretary import (
    BetaVector,
    default_beta,
    interval_index,
    run_secretary,
    run_secretary_unbounded,
    secretary_phase_length,
)
from .seeding import derive_seed, trial_rng

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
