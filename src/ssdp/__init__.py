"""Grid-based dynamic programming for discounted and average-cost inventory
control, with certified (s,S) policy extraction and Monte-Carlo cross-checks."""

__version__ = "0.1.0"

from .model import (
    ContinuousDemand,
    DemandDistribution,
    Grid,
    InventoryModel,
    Kernel,
    ModelError,
    PiecewiseLinear,
    PolicyTable,
    build_cost,
    build_kernel,
    discretize_demand,
)
from .dp import (
    ConvergenceError,
    SolveReport,
    TerminalValue,
    bellman_update,
    check_terminal_admissible,
    policy_evaluation,
    solve_finite,
    solve_infinite,
    track_action_convergence,
)
from .policy import (
    CertificationError,
    SsPolicy,
    average_sS,
    brute_force_sS_check,
    build_G,
    discounted_sS,
    extract_sS,
    finite_horizon_sS,
    is_K_convex,
    slope_condition,
    solve_zero_setup,
)
from .average import (
    RelativeValue,
    VanishingDiscountSweep,
    assumption_B_diagnostic,
    check_optimality_inequality,
    geometric_schedule,
    minimizer_set_diagnostic,
    sweep,
)
from .renewal import overshoot_bound_check, sample_renewal, wald_check
from .simulate import SimConfig, simulate_average
from .config import load_model, model_from_dict
