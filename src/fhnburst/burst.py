"""Measurement pipeline on simulated trajectories.

Standardized simulation protocol (burn-in then measurement), spike counting
at the upper fold crossing, the period-normalized L2 norm, phase sequences
of lower-bound returns, canard jump classification at a folded equilibrium,
and the phase-distance spike-count estimator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel_py, fastpath
from .errors import FhnBurstError, NoFirstSpike, NoPassage
from .geometry import FoldedEquilibrium, folded_equilibria
from .integrator import IntegratorConfig, Trajectory
from .manifolds import solve_expansion, theta_at_lower_bound
from .model import Forcing, ModelParams, TWO_PI, unforced_equilibrium, wrap_angle

DEFAULT_F_BURST = 27.0          # intra-burst spike rate of the constantly forced model, Hz
CANARD_MARGIN = 0.05            # half-width trimmed off the repelling window
CLASSIFY_POINTS_PER_PERIOD = 20000
BURN_IN_PERIODS = 2             # the standard protocol's burn-in, in forcing periods
MEASURE_PERIODS = 2             # and its measurement window


@dataclass(frozen=True)
class BurstMetrics:
    """Per-run burst measurements; theta_seq is unwrapped forcing phase."""

    spike_count: int
    l2: float
    theta_seq: tuple[float, ...]
    est_count: int | None = None


@dataclass(frozen=True)
class CanardClass:
    """Outcome of the canard passage at one folded equilibrium."""

    site: str                    # "node" | "saddle"
    outcome: str                 # "jump_back" | "jump_across" | "fold_jump"


def simulate_standard(
    params: ModelParams,
    forcing: Forcing,
    config: IntegratorConfig | None = None,
    burn_in_periods: int = BURN_IN_PERIODS,
    measure_periods: int = MEASURE_PERIODS,
) -> Trajectory:
    """The standard protocol: start at the drive-free rest state, burn in,
    then return the measurement segment, whose `spikes` are its upper-fold
    crossings and whose `minima` are its local x-minima."""
    if burn_in_periods < 0 or measure_periods < 1:
        raise ValueError("burn_in_periods must be >= 0 and measure_periods >= 1")
    cfg = config or IntegratorConfig()
    T = forcing.period
    x0, y0 = unforced_equilibrium(params)
    t_meas = burn_in_periods * T
    if burn_in_periods > 0:
        burn = fastpath.integrate_forced(
            params, forcing, (x0, y0), (0.0, t_meas), cfg, detect_events=False,
        )
        x0, y0 = burn.states[-1]
    return fastpath.integrate_forced(
        params, forcing, (x0, y0), (t_meas, t_meas + measure_periods * T), cfg,
        detect_events=True,
    )


def count_spikes(trajectory: Trajectory, n_periods: int) -> int:
    """Upward crossings of the upper fold line x = 1, per period, floored."""
    return len(trajectory.spikes) // n_periods


def l2_norm(trajectory: Trajectory, T: float) -> float:
    """Period-normalized L2 norm of (x, y), integrated exactly on the dense
    output; the span must cover a whole number of periods.

    The integral of x^2 + y^2 is the forced kernel's `sq_integral`, summed
    step by step while it stored the knots.  A trajectory without it (built
    by hand) gets the same sum from `_kernel_py.sq_integral` over its knots.
    """
    t0, t1 = trajectory.t_span
    n_periods = (t1 - t0) / T
    n_int = round(n_periods)
    if n_int < 1 or abs(n_periods - n_int) > 1e-9 * max(1.0, n_periods):
        raise ValueError("trajectory span is not an integer number of periods")
    integral = trajectory.sq_integral
    if integral is None:
        integral = _kernel_py.sq_integral(trajectory.knots.tolist())
    return math.sqrt(integral / (t1 - t0))


LOWER_RETURN_DEPTH = -1.5   # x-minima below this count as lower-bound returns


def lower_return_times(trajectory: Trajectory) -> np.ndarray:
    """Times of local x-minima at the lower bound.

    Each burst return lands near x = -2.  The forced kernel locates every
    x-minimum (`Trajectory.minima`, by bisection on each step's Hermite
    derivative); minima above the depth cut (small oscillations near the
    fold) are not returns.  Trajectories not made by the kernel carry no
    minima and so have no returns.
    """
    t_min = trajectory.minima
    return t_min[trajectory.sample(t_min)[:, 0] <= LOWER_RETURN_DEPTH]


def theta_sequence(trajectory: Trajectory, omega: float) -> np.ndarray:
    """Unwrapped phase, at forcing frequency omega, of each local-minimum
    return to the lower bound."""
    return omega * lower_return_times(trajectory)


def _site_equilibrium(equilibria, site: str) -> FoldedEquilibrium:
    for eq in equilibria:
        if eq.side != "left":
            continue
        if site == "saddle" and eq.kind == "saddle":
            return eq
        if site == "node" and eq.kind in ("node", "focus"):
            return eq
    raise NoPassage(f"no left-fold {site} equilibrium for these parameters")


def classify_canard(
    params: ModelParams, forcing: Forcing, trajectory: Trajectory, site: str
) -> CanardClass:
    """Classify the jump that follows the first passage of the site's phase
    on a trajectory of the drive (params, forcing).

    Watches x(t) from the moment the forcing phase crosses the angle of the
    drive's own left-fold equilibrium of that site (`folded_equilibria`);
    NoPassage when the drive has none.  A first exit of the trimmed
    repelling window (-1 + CANARD_MARGIN, 1 - CANARD_MARGIN) decides the
    outcome: an upward exit that reaches x = 1 is a jump_across when the
    accumulated window dwell exceeds the fast-timescale yardstick 1/eps and
    a fold_jump otherwise; a downward exit after entering the window is a
    jump_back.
    """
    if site not in ("node", "saddle"):
        raise ValueError("site must be 'node' or 'saddle'")
    eq = _site_equilibrium(folded_equilibria(params, forcing), site)

    omega = forcing.omega
    T = forcing.period
    t0, t1 = trajectory.t_span
    k = math.ceil((omega * t0 - eq.theta) / TWO_PI - 1e-12)
    t_star = (eq.theta + TWO_PI * k) / omega
    if t_star > t1:
        raise NoPassage("trajectory never reaches the site phase inside the window")

    n = CLASSIFY_POINTS_PER_PERIOD
    t_stop = min(t_star + T, t1)
    ts = np.linspace(t_star, t_stop, n)
    xs = trajectory.sample(ts)[:, 0]
    outcome = _jump_outcome(xs, (t_stop - t_star) / (n - 1), 1.0 / params.eps)
    if outcome is None:
        raise NoPassage("no jump detected within one period of the site passage")
    return CanardClass(site=site, outcome=outcome)


def _jump_outcome(xs, dt: float, dwell_threshold: float) -> str | None:
    """The outcome that the first exit of x samples xs, dt apart, from the
    trimmed repelling window decides (see `classify_canard`); None without
    an exit.  The window dwell is dt summed over the samples inside the
    window in order: the partial sums of a running `dwell += dt`."""
    lo = -1.0 + CANARD_MARGIN
    hi = 1.0 - CANARD_MARGIN
    inside = (lo < xs) & (xs < hi)
    dwell = np.add.accumulate(np.where(inside, dt, 0.0))
    entered = np.logical_or.accumulate(inside)
    exits = np.flatnonzero((xs >= 1.0) | (entered & (xs <= lo)))
    if not exits.size:
        return None
    first = exits[0]
    if xs[first] < 1.0:
        return "jump_back"
    return "jump_across" if dwell[first] > dwell_threshold else "fold_jump"


def first_return_phase(trajectory: Trajectory, theta_seq, omega: float) -> float:
    """Unwrapped phase of the first lower-bound return after the first spike;
    theta_seq is the trajectory's `theta_sequence` at forcing frequency omega."""
    if not trajectory.spikes.size:
        raise NoFirstSpike("no spike in the measurement window")
    theta_spike = omega * trajectory.spikes[0]
    returns = [th for th in theta_seq if th > theta_spike]
    if not returns:
        raise NoFirstSpike("no lower-bound return after the first spike")
    return returns[0]


def estimate_from_phases(
    theta_stable_at_bound: float, theta_first_return: float, omega: float
) -> int:
    """Spike-count estimate from the remaining phase after the first spike.

    The phase gap is converted to milliseconds through omega, multiplied by
    the intra-burst rate DEFAULT_F_BURST, rounded up, plus one for the spike
    already spent.  A non-positive gap clamps to a single spike.
    """
    d_theta = wrap_angle(theta_stable_at_bound) - wrap_angle(theta_first_return)
    if d_theta <= 0.0:
        return 1
    return 1 + math.ceil(d_theta / (1000.0 * omega) * DEFAULT_F_BURST)


def estimate_spike_count(
    params: ModelParams, forcing: Forcing, trajectory: Trajectory, theta_seq
) -> int:
    """Spike-count estimate for a simulated trajectory and its
    `theta_sequence`."""
    theta_first = first_return_phase(trajectory, theta_seq, forcing.omega)
    expansion = solve_expansion("stable", params, forcing)
    theta_bound = theta_at_lower_bound(expansion)
    return estimate_from_phases(theta_bound, theta_first, forcing.omega)


def trajectory_metrics(
    params: ModelParams, forcing: Forcing, trajectory: Trajectory,
    n_periods: int = MEASURE_PERIODS, with_estimate: bool = True,
) -> BurstMetrics:
    """Every per-run measurement of a drive's measurement trajectory over
    n_periods periods.  Its estimate is `estimate_spike_count`'s answer, 0
    without a first spike, and None without with_estimate or when another
    `FhnBurstError` (a manifold solve that diverges, say) leaves none."""
    count = count_spikes(trajectory, n_periods)
    l2 = l2_norm(trajectory, forcing.period)
    seq = theta_sequence(trajectory, forcing.omega)
    est = None
    if with_estimate:
        try:
            est = estimate_spike_count(params, forcing, trajectory, seq)
        except NoFirstSpike:
            est = 0
        except FhnBurstError:
            pass
    return BurstMetrics(spike_count=count, l2=l2, theta_seq=tuple(seq), est_count=est)


def burst_metrics(
    params: ModelParams,
    forcing: Forcing,
    config: IntegratorConfig | None = None,
    with_estimate: bool = True,
) -> BurstMetrics:
    """Simulate once and compute every per-run measurement."""
    traj = simulate_standard(params, forcing, config)
    return trajectory_metrics(params, forcing, traj, with_estimate=with_estimate)
