"""Measurement pipeline on simulated trajectories.

Standardized simulation protocol (burn-in then measurement), spike counting
at the upper fold crossing, the period-normalized L2 norm, phase sequences
of lower-bound returns, canard jump classification at a folded equilibrium,
and the phase-distance spike-count estimator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import fastpath
from .errors import NoFirstSpike, NoPassage
from .geometry import FoldedEquilibrium
from .integrator import HERMITE_GRAM, IntegratorConfig, Trajectory
from .manifolds import solve_expansion, theta_at_lower_bound
from .model import Forcing, ModelParams, TWO_PI, unforced_equilibrium, wrap_angle

DEFAULT_F_BURST = 27.0          # intra-burst spike rate of the constantly forced model, Hz
CANARD_MARGIN = 0.05            # half-width trimmed off the repelling window
CLASSIFY_POINTS_PER_PERIOD = 20000


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
    burn_in_periods: int = 2,
    measure_periods: int = 2,
) -> Trajectory:
    """The standard protocol: start at the drive-free rest state, burn in,
    then return the measurement segment, whose `spikes` are its upper-fold
    crossings and whose `minima` are its local x-minima."""
    cfg = config or IntegratorConfig()
    T = forcing.period
    if cfg.max_step is None:
        cfg = replace(cfg, max_step=T / 64.0)
    x0, y0 = unforced_equilibrium(params)
    t_meas = burn_in_periods * T
    if burn_in_periods > 0:
        burn = fastpath.integrate_forced(
            params, forcing, (x0, y0), (0.0, t_meas), cfg,
            detect_events=False, store_knots=False,
        )
        x0, y0 = burn.states[-1]
    traj = fastpath.integrate_forced(
        params, forcing, (x0, y0), (t_meas, t_meas + measure_periods * T), cfg,
        detect_events=True, store_knots=True,
    )
    traj.meta["measure_periods"] = measure_periods
    traj.meta["burn_in_periods"] = burn_in_periods
    return traj


def count_spikes(trajectory: Trajectory, n_periods: int) -> int:
    """Upward crossings of the upper fold line x = 1, per period, floored."""
    return len(trajectory.spikes) // n_periods


def l2_norm(trajectory: Trajectory, T: float) -> float:
    """Period-normalized L2 norm of (x, y), integrated exactly on the dense
    output; the span must cover a whole number of periods.

    On each knot interval of width h both components are quintic Hermite
    polynomials with coefficients c = (x0, h f0, h^2 d0, x1, h f1, h^2 d1),
    so the interval's integral of x^2 + y^2 is h * c @ HERMITE_GRAM @ c,
    summed over both components.  Each c_i is one 1-D column over the
    interleaved (x, y) knot values, with hw repeating each h once per
    component, and the symmetric Gram form over all intervals is summed as
    21 dot products: sum over i <= j of
    (2 - [i == j]) * HERMITE_GRAM[i, j] * ((hw * c_i) @ c_j).
    So no array of n x 12 values is built: at a few thousand knots such
    temporaries (an (n, 2, 6) coefficient stack and its products with the
    Gram matrix) cost more in allocation and page faults than the
    arithmetic does.
    """
    t0, t1 = trajectory.t_span
    n_periods = (t1 - t0) / T
    n_int = round(n_periods)
    if n_int < 1 or abs(n_periods - n_int) > 1e-9 * max(1.0, n_periods):
        raise ValueError("trajectory span is not an integer number of periods")
    k = trajectory.states.shape[1]
    hw = np.repeat(np.diff(trajectory.times), k)
    x = trajectory.states.ravel()
    f = trajectory.derivs.ravel()
    d = trajectory.curvatures.ravel()
    c = (x[:-k], hw * f[:-k], hw * (hw * d[:-k]), x[k:], hw * f[k:], hw * (hw * d[k:]))
    total = 0.0
    for i in range(6):
        hc = hw * c[i]
        total += HERMITE_GRAM[i, i] * float(hc @ c[i])
        for j in range(i + 1, 6):
            total += 2.0 * HERMITE_GRAM[i, j] * float(hc @ c[j])
    return math.sqrt(total / (t1 - t0))


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


def _omega(trajectory: Trajectory) -> float:
    forcing: Forcing = trajectory.meta.get("forcing")
    if forcing is None:
        raise ValueError("trajectory carries no forcing metadata")
    return forcing.omega


def theta_sequence(trajectory: Trajectory) -> np.ndarray:
    """Unwrapped phase at each local-minimum return to the lower bound."""
    return _omega(trajectory) * lower_return_times(trajectory)


def wrap_sequence(theta_seq) -> np.ndarray:
    """The same sequence reduced into [0, 2*pi) for reporting."""
    return np.mod(np.asarray(theta_seq, dtype=float), TWO_PI)


def _site_equilibrium(equilibria, site: str) -> FoldedEquilibrium:
    for eq in equilibria:
        if eq.side != "left":
            continue
        if site == "saddle" and eq.kind == "saddle":
            return eq
        if site == "node" and eq.kind in ("node", "focus"):
            return eq
    raise NoPassage(f"no left-fold {site} equilibrium for these parameters")


def classify_canard(trajectory: Trajectory, equilibria, site: str) -> CanardClass:
    """Classify the jump that follows the first passage of the site's phase.

    Watches x(t) from the moment the forcing phase crosses the folded
    equilibrium's angle.  A first exit of the trimmed repelling window
    (-1 + CANARD_MARGIN, 1 - CANARD_MARGIN) decides the outcome: an upward
    exit that reaches x = 1 is a jump_across when the accumulated window
    dwell exceeds the fast-timescale yardstick 1/eps and a fold_jump
    otherwise; a downward exit after entering the window is a jump_back.
    """
    if site not in ("node", "saddle"):
        raise ValueError("site must be 'node' or 'saddle'")
    params: ModelParams = trajectory.meta.get("params")
    forcing: Forcing = trajectory.meta.get("forcing")
    if params is None or forcing is None:
        raise ValueError("trajectory carries no model metadata")
    eq = _site_equilibrium(equilibria, site)

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
    dt = (t_stop - t_star) / (n - 1)

    lo = -1.0 + CANARD_MARGIN
    hi = 1.0 - CANARD_MARGIN
    dwell_threshold = 1.0 / params.eps

    entered = False
    dwell = 0.0
    for xi in xs:
        if lo < xi < hi:
            entered = True
            dwell += dt
        if xi >= 1.0:
            outcome = "jump_across" if dwell > dwell_threshold else "fold_jump"
            return CanardClass(site=site, outcome=outcome)
        if entered and xi <= lo:
            return CanardClass(site=site, outcome="jump_back")
    raise NoPassage("no jump detected within one period of the site passage")


def first_return_phase(trajectory: Trajectory, theta_seq) -> float:
    """Unwrapped phase of the first lower-bound return after the first spike;
    theta_seq is the trajectory's `theta_sequence`."""
    omega = _omega(trajectory)
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
    theta_first = first_return_phase(trajectory, theta_seq)
    expansion = solve_expansion("stable", params, forcing)
    theta_bound = theta_at_lower_bound(expansion)
    return estimate_from_phases(theta_bound, theta_first, forcing.omega)


def burst_metrics(
    params: ModelParams,
    forcing: Forcing,
    config: IntegratorConfig | None = None,
    with_estimate: bool = True,
) -> BurstMetrics:
    """Simulate once and compute every per-run measurement."""
    traj = simulate_standard(params, forcing, config)
    n_periods = traj.meta["measure_periods"]
    count = count_spikes(traj, n_periods)
    l2 = l2_norm(traj, forcing.period)
    seq = theta_sequence(traj)
    est = None
    if with_estimate:
        try:
            est = estimate_spike_count(params, forcing, traj, seq)
        except NoFirstSpike:
            est = 0
    return BurstMetrics(spike_count=count, l2=l2, theta_seq=tuple(seq), est_count=est)
