"""Spike-adding analysis toolkit for the periodically forced FitzHugh-Nagumo system.

Closed-form folded-singularity geometry, stiff simulation with spike
detection, canard classification, saddle-manifold series expansions, and
parallel (omega, E) bifurcation sweeps.
"""

__version__ = "0.1.0"

from .burst import (
    BurstMetrics,
    CanardClass,
    burst_metrics,
    classify_canard,
    count_spikes,
    estimate_spike_count,
    l2_norm,
    simulate_standard,
    theta_sequence,
)
from .errors import (
    DomainError,
    FhnBurstError,
    IncompleteGrid,
    IntegrationError,
    MaxStepsExceeded,
    NewtonDiverged,
    NoFirstSpike,
    NoIntersection,
    NonFiniteState,
    NoPassage,
    NoSaddle,
    OutOfRange,
    OutOfValidity,
    SaddleNodeBoundary,
    StepSizeUnderflow,
    WorkerDied,
)
from .fastpath import active_backend
from .geometry import (
    FoldedEquilibrium,
    FoldThresholds,
    classify_manifold_point,
    classify_region,
    delayed_hopf_points,
    eigen_smalldelta_expansion,
    fold_thresholds,
    folded_equilibria,
    supercritical_manifold_point,
    threshold_intersection_delta,
)
from .integrator import IntegratorConfig, Trajectory, integrate
from .manifolds import (
    ManifoldExpansion,
    b_coefficients,
    eval_manifold,
    solve_expansion,
    theta_at_lower_bound,
)
from .model import (
    DerivedConstants,
    Forcing,
    ModelParams,
    StateUVTheta,
    StateXY,
    cubic_F,
    cubic_G,
    derived_constants,
    from_shifted,
    rhs_autonomous,
    rhs_desingularized,
    rhs_forced,
    rhs_slow_layer,
    to_shifted,
    unforced_equilibrium,
)
from .sweep import CellResult, SweepGrid, SweepSpec, run_sweep, write_grid_csv
from .contours import extract_boundaries, l2_levelsets, marching_squares
