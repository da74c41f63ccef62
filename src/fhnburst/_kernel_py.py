"""Pure-Python kernel for the planar forced system.

Reference twin of the C kernel in _kernel.c and the fallback when that
library is not built.  The scheme is a stiffly accurate 6-stage Rosenbrock
method of order 4(3) with an analytic Jacobian, and its dense output a
two-point quintic Hermite from the state and its first and second
derivatives at the knots.  Each language holds it in one file: the
constants below are the scalars _kernel.c declares, under the same names
and with the same values (a test reads the C file and checks each one),
and the C file copies this kernel operation for operation (same bisections
and order of every sum), so the two backends return bit-identical results.
Keep any edit here in lockstep with _kernel.c.

`integrate_forced` makes one of two runs, picked by detect_events: the
measurement run (true) keeps every knot, locates the events and sums the
integral; the burn-in run (false) keeps only the end state and the counters.
Its first step is 1e-4 * (t_end - t0); no step exceeds T/64, computed as
`Forcing.period / 64.0` is.  It returns (status, knots, spikes, minima,
stats, sq_integral):
- status: 0 ok, 1 step-size underflow, 2 max steps exceeded, 3 non-finite
  state;
- knots: an n x 7 array with rows (t, x, y, fx, fy, d2x, d2y), the state
  and its first and second time derivatives at each accepted step; in a
  burn-in run only the end state's row.  The last row is the end state; no
  row means the start state was already non-finite;
- spikes: the times of the upward crossings of x = 1, in time order (at
  most one per step, since the two half-steps cannot both cross upward);
- minima: the times of the local x-minima, one per step on which x' goes
  from negative to non-negative;
- stats: the step counters n_accept (accepted steps), n_reject (steps
  rejected by the error test), n_nonfinite_retry (attempts halved because a
  stage went non-finite) and h_min (the smallest accepted step, inf when
  none was accepted; the last step may be cut short to land on t_end);
- sq_integral: the integral of x^2 + y^2 over the knots' span (0.0 in a
  burn-in run), exact on the quintic Hermite interpolant (see
  `sq_integral`).  It travels beside the counters, which are the same for
  both runs.

Spikes and minima (measurement run only) are each located by
`geometry.bisect_root` on the step's quintic Hermite interpolant (of x - 1
for a spike, of x' for a minimum), the one bisection rule of the package:
halve while a double lies strictly inside the bracket and return the last
midpoint, so each event time lies within one double of the sign change.

`sample_knots` is the twin of the C library's dense output `fhn_sample`,
`format_table` the twin of its exact table formatter and `bound_phase` the
twin of its lower-bound phase `fhn_bound_phase`.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import bisect_root
from .model import TWO_PI

# stage tables (stiffly accurate Rosenbrock 4(3), 6 stages)
A21 = 1.544
A31, A32 = 0.9466785280815826, 0.2557011698983284
A41, A42, A43 = 3.314825187068521, 2.896124015972201, 0.9986419139977817
A51, A52, A53, A54 = (1.221224509226641, 6.019134481288629, 12.53708332932087,
                      -0.6878860361058950)
C21 = -5.6688
C31, C32 = -2.430093356833875, -0.2063599157091915
C41, C42, C43 = -0.1073529058151375, -9.594562251023355, -20.47028614809616
C51, C52, C53, C54 = (7.496443313967647, -10.24680431464352, -33.99990352819905,
                      11.70890893206160)
C61, C62, C63, C64, C65 = (8.083246795921522, -7.981132988064893, -31.52159432874371,
                           16.31930543123136, -6.058818238834054)
AL2, AL3, AL4 = 0.386, 0.21, 0.63
G1, G2, G3, G4 = 0.25, -0.1043, 0.1035, -0.03620000000000023
GAMMA = 0.25

# the doubled upper triangle of the Gram matrix G of the quintic Hermite
# basis on [0, 1]: G[i][j], the integral of _hermite_weights(s)[i] *
# _hermite_weights(s)[j] ds, is Qij / GRAM_DEN on the diagonal and
# Qij / (2 GRAM_DEN) off it (all exact in floating point).  With c = (x0,
# h f0, h^2 d0, x1, h f1, h^2 d1) on a knot interval of width h, the
# interval's integral of x^2 is h * c @ G @ c (Hairer & Wanner, Solving
# ODEs II, IV.7), which `_gram_form` sums in 21 products.
Q00, Q01, Q02, Q03, Q04, Q05 = 21720.0, 7464.0, 562.0, 12000.0, -3624.0, 362.0
Q11, Q12, Q13, Q14, Q15 = 832.0, 138.0, 3624.0, -1064.0, 104.0
Q22, Q23, Q24, Q25 = 6.0, 362.0, -104.0, 10.0
Q33, Q34, Q35 = 21720.0, -7464.0, 562.0
Q44, Q45 = 832.0, -138.0
Q55 = 6.0
GRAM_DEN = 55440.0

# step-size controller
SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 6.0
FAC_REJECT_MIN = 0.1
FAC_REJECT_MAX = 0.5

KNOT_WIDTH = 7   # knot table columns: t, x, y, fx, fy, d2x, d2y

STAT_NAMES = ("n_accept", "n_reject", "n_nonfinite_retry", "h_min")


def _hermite_weights(s):
    """Quintic two-point Hermite basis at normalized position s in [0, 1]."""
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    s5 = s4 * s
    return (
        1.0 - 10.0 * s3 + 15.0 * s4 - 6.0 * s5,
        s - 6.0 * s3 + 8.0 * s4 - 3.0 * s5,
        0.5 * s2 - 1.5 * s3 + 1.5 * s4 - 0.5 * s5,
        10.0 * s3 - 15.0 * s4 + 6.0 * s5,
        -4.0 * s3 + 7.0 * s4 - 3.0 * s5,
        0.5 * s3 - s4 + 0.5 * s5,
    )


def _hermite_weights_d1(s):
    """d/ds of the quintic Hermite basis."""
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    return (
        -30.0 * s2 + 60.0 * s3 - 30.0 * s4,
        1.0 - 18.0 * s2 + 32.0 * s3 - 15.0 * s4,
        s - 4.5 * s2 + 6.0 * s3 - 2.5 * s4,
        30.0 * s2 - 60.0 * s3 + 30.0 * s4,
        -12.0 * s2 + 28.0 * s3 - 15.0 * s4,
        1.5 * s2 - 4.0 * s3 + 2.5 * s4,
    )


def _hermite_x(s, h, x0, f0, d0, x1, f1, d1):
    """One component of a step's quintic Hermite interpolant at s in [0, 1],
    from the step width h and (v, v', v'') at both ends; `_hermite_dx` is its
    time derivative.  Floats or arrays that broadcast: the events and
    `sample_knots` share them, as the C kernel's events and fhn_sample share
    hermite_x and hermite_dx."""
    w0, w1, w2, w3, w4, w5 = _hermite_weights(s)
    return (
        w0 * x0 + h * w1 * f0 + h * h * w2 * d0
        + w3 * x1 + h * w4 * f1 + h * h * w5 * d1
    )


def _hermite_dx(s, h, x0, f0, d0, x1, f1, d1):
    w0, w1, w2, w3, w4, w5 = _hermite_weights_d1(s)
    return (
        w0 * x0 + h * w1 * f0 + h * h * w2 * d0
        + w3 * x1 + h * w4 * f1 + h * h * w5 * d1
    ) / h


def _gram_form(h, v0, f0, d0, v1, f1, d1):
    """GRAM_DEN times the integral over s in [0, 1] of the square of
    one component's quintic Hermite interpolant on a step of width h, from
    (v, v', v'') at both ends."""
    c1 = h * f0
    c2 = h * (h * d0)
    c4 = h * f1
    c5 = h * (h * d1)
    return (
        v0 * (Q00 * v0 + Q01 * c1 + Q02 * c2 + Q03 * v1 + Q04 * c4 + Q05 * c5)
        + c1 * (Q11 * c1 + Q12 * c2 + Q13 * v1 + Q14 * c4 + Q15 * c5)
        + c2 * (Q22 * c2 + Q23 * v1 + Q24 * c4 + Q25 * c5)
        + v1 * (Q33 * v1 + Q34 * c4 + Q35 * c5)
        + c4 * (Q44 * c4 + Q45 * c5)
        + c5 * (Q55 * c5)
    )


def sq_integral(knots):
    """Integral of x^2 + y^2 over the span of knot rows (t, x, y, fx, fy, d2x,
    d2y), exact on the quintic Hermite interpolant: each step adds h times
    the Gram forms of x and y to a Neumaier-compensated sum, which is divided
    by GRAM_DEN once at the end.  The C kernel sums the same terms in
    the same order while it stores the knots."""
    total = comp = 0.0
    for k0, k1 in zip(knots, knots[1:]):
        h = k1[0] - k0[0]
        term = h * (_gram_form(h, k0[1], k0[3], k0[5], k1[1], k1[3], k1[5])
                    + _gram_form(h, k0[2], k0[4], k0[6], k1[2], k1[4], k1[6]))
        s = total + term
        if abs(total) >= abs(term):
            comp += (total - s) + term
        else:
            comp += (term - s) + total
        total = s
    return (total + comp) / GRAM_DEN


def integrate_forced(
    a, b, eps, E, omega,
    t0, t_end, x0, y0,
    rtol, atol, max_steps, detect_events,
):
    span = t_end - t0
    hmax = (TWO_PI / omega) / 64.0
    h = min(1e-4 * span, hmax)

    t = t0
    x = x0
    y = y0

    def rhs(st, xx, yy):    # the field at (tt, xx, yy), given st = sin(omega * tt)
        return (
            xx - xx * xx * xx / 3.0 - yy - a + E * st,
            eps * (xx - b * yy),
        )

    fx, fy = rhs(math.sin(omega * t), x, y)
    if not (math.isfinite(fx) and math.isfinite(fy)):
        stats = dict(zip(STAT_NAMES, (0, 0, 0, math.inf)))
        return 3, np.empty((0, KNOT_WIDTH)), np.empty(0), np.empty(0), stats, 0.0
    ftx = E * omega * math.cos(omega * t)
    jxx = 1.0 - x * x
    d2x = ftx + jxx * fx - fy
    d2y = eps * fx - eps * b * fy

    knots = [(t, x, y, fx, fy, d2x, d2y)]
    spikes = []
    minima = []
    n_accept = n_reject = n_nonfinite_retry = 0
    h_min = math.inf

    n_steps = 0
    rejected = False
    t_snap = 2e-13 * span
    status = 0

    while t < t_end - 1e-13 * span:
        if n_steps >= max_steps:
            status = 2
            break
        if h > t_end - t:
            h = t_end - t
        h_floor = max(1e-13 * span, 8.0 * 2.220446049250313e-16 * abs(t))
        if h < h_floor and h < (t_end - t):
            status = 1
            break

        ig = 1.0 / (h * GAMMA)
        g11 = ig - jxx
        g22 = ig + eps * b
        det = g11 * g22 + eps  # g12 = 1, g21 = -eps
        i11 = g22 / det
        i12 = -1.0 / det
        i21 = eps / det
        i22 = g11 / det

        # stage 1 reuses the stored derivative at (t, x, y)
        r1 = fx + h * G1 * ftx
        r2 = fy
        k1x = i11 * r1 + i12 * r2
        k1y = i21 * r1 + i22 * r2

        tt = t + AL2 * h
        xi = x + A21 * k1x
        yi = y + A21 * k1y
        f2x, f2y = rhs(math.sin(omega * tt), xi, yi)
        ch = C21 / h
        r1 = f2x + ch * k1x + h * G2 * ftx
        r2 = f2y + ch * k1y
        k2x = i11 * r1 + i12 * r2
        k2y = i21 * r1 + i22 * r2

        tt = t + AL3 * h
        xi = x + A31 * k1x + A32 * k2x
        yi = y + A31 * k1y + A32 * k2y
        f3x, f3y = rhs(math.sin(omega * tt), xi, yi)
        c1 = C31 / h
        c2 = C32 / h
        r1 = f3x + c1 * k1x + c2 * k2x + h * G3 * ftx
        r2 = f3y + c1 * k1y + c2 * k2y
        k3x = i11 * r1 + i12 * r2
        k3y = i21 * r1 + i22 * r2

        tt = t + AL4 * h
        xi = x + A41 * k1x + A42 * k2x + A43 * k3x
        yi = y + A41 * k1y + A42 * k2y + A43 * k3y
        f4x, f4y = rhs(math.sin(omega * tt), xi, yi)
        c1 = C41 / h
        c2 = C42 / h
        c3 = C43 / h
        r1 = f4x + c1 * k1x + c2 * k2x + c3 * k3x + h * G4 * ftx
        r2 = f4y + c1 * k1y + c2 * k2y + c3 * k3y
        k4x = i11 * r1 + i12 * r2
        k4y = i21 * r1 + i22 * r2

        # stages 5 and 6 and the accepted point share t + h and its sine
        tt = t + h
        st_end = math.sin(omega * tt)
        xi = x + A51 * k1x + A52 * k2x + A53 * k3x + A54 * k4x
        yi = y + A51 * k1y + A52 * k2y + A53 * k3y + A54 * k4y
        f5x, f5y = rhs(st_end, xi, yi)
        c1 = C51 / h
        c2 = C52 / h
        c3 = C53 / h
        c4 = C54 / h
        r1 = f5x + c1 * k1x + c2 * k2x + c3 * k3x + c4 * k4x
        r2 = f5y + c1 * k1y + c2 * k2y + c3 * k3y + c4 * k4y
        k5x = i11 * r1 + i12 * r2
        k5y = i21 * r1 + i22 * r2

        xi = xi + k5x
        yi = yi + k5y
        f6x, f6y = rhs(st_end, xi, yi)
        c1 = C61 / h
        c2 = C62 / h
        c3 = C63 / h
        c4 = C64 / h
        c5 = C65 / h
        r1 = f6x + c1 * k1x + c2 * k2x + c3 * k3x + c4 * k4x + c5 * k5x
        r2 = f6y + c1 * k1y + c2 * k2y + c3 * k3y + c4 * k4y + c5 * k5y
        k6x = i11 * r1 + i12 * r2
        k6y = i21 * r1 + i22 * r2

        x_new = x + A51 * k1x + A52 * k2x + A53 * k3x + A54 * k4x + k5x + k6x
        y_new = y + A51 * k1y + A52 * k2y + A53 * k3y + A54 * k4y + k5y + k6y

        n_steps += 1
        if not (math.isfinite(x_new) and math.isfinite(y_new)
                and math.isfinite(k6x) and math.isfinite(k6y)):
            n_nonfinite_retry += 1
            h *= 0.5
            if h < h_floor:
                status = 3
                break
            rejected = True
            continue

        sx = atol + rtol * max(abs(x), abs(x_new))
        sy = atol + rtol * max(abs(y), abs(y_new))
        ex = k6x / sx
        ey = k6y / sy
        err = math.sqrt(0.5 * (ex * ex + ey * ey))
        if err < 1e-10:
            err = 1e-10

        if err > 1.0:
            fac = SAFETY * err**-0.25
            if fac < FAC_REJECT_MIN:
                fac = FAC_REJECT_MIN
            elif fac > FAC_REJECT_MAX:
                fac = FAC_REJECT_MAX
            h *= fac
            rejected = True
            n_reject += 1
            continue

        t_new = tt
        if t_end - tt < t_snap:
            t_new = t_end
            st_end = math.sin(omega * t_new)
        h_used = t_new - t
        fxn, fyn = rhs(st_end, x_new, y_new)
        if not (math.isfinite(fxn) and math.isfinite(fyn)):
            status = 3
            break
        ftxn = E * omega * math.cos(omega * t_new)
        jxxn = 1.0 - x_new * x_new
        d2xn = ftxn + jxxn * fxn - fyn
        d2yn = eps * fxn - eps * b * fyn
        n_accept += 1
        if h_used < h_min:
            h_min = h_used

        if detect_events:
            coef = (h_used, x, fx, d2x, x_new, fxn, d2xn)
            t_mid = t + 0.5 * h_used
            g_mid = _hermite_x(0.5, *coef) - 1.0
            for (lo, ga, hi, gb) in ((t, x - 1.0, t_mid, g_mid),
                                     (t_mid, g_mid, t_new, x_new - 1.0)):
                if ga < 0.0 <= gb:
                    spikes.append(bisect_root(
                        lambda tm: _hermite_x((tm - t) / h_used, *coef) - 1.0, lo, hi))
            if fx < 0.0 <= fxn:
                minima.append(bisect_root(
                    lambda tm: _hermite_dx((tm - t) / h_used, *coef), t, t_new))
            knots.append((t_new, x_new, y_new, fxn, fyn, d2xn, d2yn))

        t = t_new
        x = x_new
        y = y_new
        fx = fxn
        fy = fyn
        ftx = ftxn
        jxx = jxxn
        d2x = d2xn
        d2y = d2yn

        fac = SAFETY * err**-0.25
        if fac < FAC_MIN:
            fac = FAC_MIN
        elif fac > FAC_MAX:
            fac = FAC_MAX
        if rejected and fac > 1.0:
            fac = 1.0
        rejected = False
        h = h_used * fac
        if h > hmax:
            h = hmax

    if not detect_events:
        knots = [(t, x, y, fx, fy, d2x, d2y)]
    stats = dict(zip(STAT_NAMES, (n_accept, n_reject, n_nonfinite_retry, h_min)))
    return (status, np.asarray(knots), np.asarray(spikes, dtype=float),
            np.asarray(minima, dtype=float), stats, sq_integral(knots))


def sample_knots(knots, ts, deriv):
    """Dense output of a knot table as the kernel writes it, n >= 2 rows: an
    m x 2 array of the quintic Hermite interpolant's (x, y) (or, with deriv,
    their time derivatives) at the m sorted times ts, each inside [t_0,
    t_(n-1)], on the interval of the last knot at or before it (the last
    interval for t_(n-1)).  `_hermite_x` / `_hermite_dx` on arrays, both
    columns at once; like the C library, it overflows without a warning."""
    times = knots[:, 0]
    idx = np.searchsorted(times, ts, side="right") - 1
    idx = np.clip(idx, 0, len(times) - 2)
    ta = times[idx]
    h = times[idx + 1] - ta
    s = (ts - ta) / h
    k0 = knots[idx]
    k1 = knots[idx + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        return (_hermite_dx if deriv else _hermite_x)(
            s[:, None], h[:, None],
            k0[:, 1:3], k0[:, 3:5], k0[:, 5:7], k1[:, 1:3], k1[:, 3:5], k1[:, 5:7])


def format_table(table, spec, sep, end):
    """The bytes of an n x k float table: each row is its k values formatted
    with `spec`, joined by `sep` and followed by `end`, all in one `%` call
    whose text is encoded as ASCII.  fhn_format_table in _kernel.c writes
    the same bytes for "%.17g" and "%.2f" by exact integer arithmetic, on
    the values its range covers."""
    n, k = table.shape
    text = (sep.join([spec] * k) + end) * n % tuple(table.ravel().tolist())
    return text.encode("ascii")


def bound_phase(coeffs, bound, offsets):
    """The offset where u(th) = a1 th + ... + a5 th^5 first reaches the
    bound, or None when no offset of the grid lies at or below it.  The
    finite offsets run from the saddle (th = 0, where u = 0 lies above the
    bound) outward and are evaluated at once (Horner on an array); the
    first at or below the bound ends the first sign change, and that
    bracket, closed by the offset before it or by 0.0, goes to
    `bisect_root`."""
    a1, a2, a3, a4, a5 = coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        u = offsets * (a1 + offsets * (a2 + offsets * (a3 + offsets * (a4 + offsets * a5))))
        below = u - bound <= 0.0
    if not below.any():
        return None
    i = int(below.argmax())

    def g(th):   # the same Horner expression on one offset
        return th * (a1 + th * (a2 + th * (a3 + th * (a4 + th * a5)))) - bound

    hi = float(offsets[i - 1]) if i else 0.0
    return bisect_root(g, float(offsets[i]), hi)
