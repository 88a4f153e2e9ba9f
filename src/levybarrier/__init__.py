"""Monte Carlo solver for singular control of Levy processes.

The controlled process is a general finite-activity Levy process pushed up
by a nondecreasing control; reflecting it at the barrier b* that solves
rho(b) + C = 0, with rho the expected discounted integral of f'_+ along the
reflected process, minimizes the discounted running-plus-control cost.
This package simulates the paths, estimates rho and the value function,
solves for the barrier, and numerically verifies the structural identities
behind the optimality argument.
"""

from .cost_model import CostSpec, ProblemSpec, builtin_cost, mollify
from .errors import (
    AssumptionViolated,
    ConfigError,
    InvalidModel,
    LevyBarrierError,
    NoSignChange,
    NonConvexSpec,
    NonFiniteSample,
    NotSpectrallyNegative,
)
from .estimators import (
    EstimateWithError,
    estimate_record,
    estimate_rho,
    estimate_rho_curve,
    estimate_value,
)
from .barrier_solver import (
    BarrierResult,
    PerturbedBarrierResult,
    barrier_sweep,
    solve_barrier,
    solve_barrier_perturbed,
)
from .levy_model import (
    JumpSpec,
    LevyTriplet,
    driftless_compound_poisson,
    exp_moment_check,
)
from .oracles import (
    SpectrallyNegativeOracle,
    phi_root,
    pure_drift_value,
    quadratic_bstar_closed_form,
)
from .path_engine import (
    SimConfig,
    discounted_integral,
    discounted_stieltjes,
    horizon_for,
    simulate_batch,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
