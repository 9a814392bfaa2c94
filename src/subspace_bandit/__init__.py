"""Two-phase continuum-armed bandit with low-rank subspace recovery.

Phase 1 estimates the k-dimensional relevant subspace of a d-dimensional
action space from noisy finite-difference measurements (matrix Dantzig
selector); Phase 2 runs UCB-1 on a grid laid out inside the recovered
subspace.  Regret is accounted per round and decomposed into exploration,
optimization, and subspace-mismatch parts.
"""

from .envs import (
    ConditioningReport,
    DomainError,
    Environment,
    LinearParamMatrix,
    MeanRewardSpec,
    make_environment,
    make_row_orthonormal,
    mean_spec,
    optimal_value,
    best_on_subspace,
    estimate_conditioning,
)
from .sampling import (
    MeasurementBundle,
    SamplingPlan,
    SamplingSets,
    apply_adjoint,
    collect_measurements,
    draw_sampling_sets,
)
from .recovery import (
    DantzigProblem,
    RecoveryResult,
    SolveInfo,
    compute_lambda,
    ds_error_bound,
    recover_subspace,
    solve_dantzig,
    subspace_error,
)
from .bandit import (
    ArmGrid,
    Phase2Result,
    build_arm_grid,
    choose_M,
    run_phase2,
)
from .pipeline import (
    BudgetError,
    Phase1Result,
    PracticalParams,
    RunRecord,
    StepSizeError,
    TheoryConstants,
    TheoryParams,
    choose_epsilon,
    decompose_regret,
    plan_parameters,
    r3_bound,
    run_cablp,
    run_phase1,
)
from .harness import (
    CellResult,
    ExperimentConfig,
    SweepSummary,
    fit_regret_exponent,
    load_config,
    run_experiment,
)

__all__ = [
    "ConditioningReport",
    "DomainError",
    "Environment",
    "LinearParamMatrix",
    "MeanRewardSpec",
    "make_environment",
    "make_row_orthonormal",
    "mean_spec",
    "optimal_value",
    "best_on_subspace",
    "estimate_conditioning",
    "MeasurementBundle",
    "SamplingPlan",
    "SamplingSets",
    "apply_adjoint",
    "collect_measurements",
    "draw_sampling_sets",
    "DantzigProblem",
    "RecoveryResult",
    "SolveInfo",
    "compute_lambda",
    "ds_error_bound",
    "recover_subspace",
    "solve_dantzig",
    "subspace_error",
    "ArmGrid",
    "Phase2Result",
    "build_arm_grid",
    "choose_M",
    "run_phase2",
    "BudgetError",
    "Phase1Result",
    "PracticalParams",
    "RunRecord",
    "StepSizeError",
    "TheoryConstants",
    "TheoryParams",
    "choose_epsilon",
    "decompose_regret",
    "plan_parameters",
    "r3_bound",
    "run_cablp",
    "run_phase1",
    "CellResult",
    "ExperimentConfig",
    "SweepSummary",
    "fit_regret_exponent",
    "load_config",
    "run_experiment",
]

__version__ = "0.1.0"
