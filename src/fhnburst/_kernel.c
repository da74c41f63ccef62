/* C99 twin of _kernel_py.integrate_forced for the planar forced system.
 *
 * An operation-for-operation copy: every sum is written in the same order,
 * min/max become fmin/fmax and x**-0.25 becomes pow(x, -0.25), so with
 * -ffp-contract=off the two kernels give bit-identical results.  Keep any
 * algorithmic edit in lockstep with _kernel_py.py.
 *
 * No Python C-API: fastpath.py loads the shared library with ctypes and
 * refuses it unless fhn_abi_version() returns the version it expects, so a
 * library built from an older fhn_out layout is never used.  Bump
 * FHN_ABI_VERSION, and fastpath.KERNEL_ABI with it, whenever the arguments
 * or fhn_out change.  detect_events picks one of two runs.  A measurement
 * run (detect_events != 0) grows three buffers, which the caller copies out
 * and releases with fhn_free: the knot table, n_knots rows of (t, x, y, fx,
 * fy, d2x, d2y) whose last row is the end state (none when the start state
 * is non-finite), the spike times, the upward crossings of x = 1, and the
 * minima, the times of the local x-minima, both in time order and each
 * located by `bisect` until its bracket is at most 1e-12 wide or no double
 * lies strictly inside it; it also sums sq_integral, the integral of
 * x^2 + y^2 over the knots: each step adds h times the `gram_form` of x and
 * y to a Neumaier-compensated sum, divided by 55440 once at the end, as
 * _kernel_py.sq_integral does over the knot rows.  A burn-in run
 * (detect_events == 0) keeps only the end state's row and leaves
 * sq_integral 0.  Both fill the step counters n_accept, n_reject,
 * n_nonfinite_retry and h_min (see _kernel_py).  The first step is
 * 1e-4 * (t_end - t0); no step exceeds T/64 = (TWO_PI / omega) / 64.0.
 * fhn_integrate returns the status code (0 ok, 1 step-size underflow, 2 max
 * steps exceeded, 3 non-finite state) or -1 when a buffer could not grow.
 *
 * The second entry point, fhn_sample, is the dense output: the quintic
 * Hermite interpolant of a knot table at sorted times, through the same
 * hermite_x and hermite_dx that locate the events, so the library holds one
 * Hermite evaluator (see the comment above it).  Its twin is
 * _kernel_py.sample_knots.
 *
 * The third, fhn_format_table, writes a table of doubles as "%.17g" or
 * "%.2f" text into the caller's buffer, byte for byte what
 * _kernel_py.format_table writes, and returns its length, or -1 when a
 * value lies outside its exact range or the buffer is shorter than its
 * capacity rule asks (see the comment above it).
 *
 * The fourth, fhn_bound_phase, finds the phase offset where the folded
 * saddle's stable manifold, the quintic u = a1 th + ... + a5 th^5, first
 * reaches the lower bound, scanning a caller's grid of offsets from the
 * saddle outward and halving the bracket it finds (see the comment above
 * it).  Its twin is _kernel_py.bound_phase.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* stage tables (stiffly accurate Rosenbrock 4(3), 6 stages) */
static const double A21 = 1.544;
static const double A31 = 0.9466785280815826, A32 = 0.2557011698983284;
static const double A41 = 3.314825187068521, A42 = 2.896124015972201,
                    A43 = 0.9986419139977817;
static const double A51 = 1.221224509226641, A52 = 6.019134481288629,
                    A53 = 12.53708332932087, A54 = -0.6878860361058950;
static const double C21 = -5.6688;
static const double C31 = -2.430093356833875, C32 = -0.2063599157091915;
static const double C41 = -0.1073529058151375, C42 = -9.594562251023355,
                    C43 = -20.47028614809616;
static const double C51 = 7.496443313967647, C52 = -10.24680431464352,
                    C53 = -33.99990352819905, C54 = 11.70890893206160;
static const double C61 = 8.083246795921522, C62 = -7.981132988064893,
                    C63 = -31.52159432874371, C64 = 16.31930543123136,
                    C65 = -6.058818238834054;
static const double AL2 = 0.386, AL3 = 0.21, AL4 = 0.63;
static const double G1 = 0.25, G2 = -0.1043, G3 = 0.1035, G4 = -0.03620000000000023;
static const double GAMMA = 0.25;

/* upper triangle of integrator.HERMITE_GRAM_INT, off-diagonal entries doubled */
static const double Q00 = 21720.0, Q01 = 7464.0, Q02 = 562.0, Q03 = 12000.0,
                    Q04 = -3624.0, Q05 = 362.0;
static const double Q11 = 832.0, Q12 = 138.0, Q13 = 3624.0, Q14 = -1064.0,
                    Q15 = 104.0;
static const double Q22 = 6.0, Q23 = 362.0, Q24 = -104.0, Q25 = 10.0;
static const double Q33 = 21720.0, Q34 = -7464.0, Q35 = 562.0;
static const double Q44 = 832.0, Q45 = -138.0;
static const double Q55 = 6.0;
static const double GRAM_DEN = 55440.0;

#define FHN_ABI_VERSION 9
#define EVENT_TIME_TOL 1e-12
#define KNOT_WIDTH 7   /* t, x, y, fx, fy, d2x, d2y */
#define TWO_PI 6.283185307179586   /* model.TWO_PI; -std=c99 has no M_PI */

typedef struct {
    double *knots;        /* n_knots rows of KNOT_WIDTH */
    long n_knots, cap_knots;
    double *spikes;       /* n_spikes times */
    long n_spikes, cap_spikes;
    double *minima;       /* n_minima times */
    long n_minima, cap_minima;
    long n_accept, n_reject, n_nonfinite_retry;
    double h_min;
    double sq_integral;
} fhn_out;

typedef struct {
    double a, b, eps, E, omega;
} fhn_params;

/* the field at (tt, xx, yy), given st = sin(omega * tt) */
static void rhs(const fhn_params *p, double st, double xx, double yy,
                double *fx, double *fy)
{
    *fx = xx - xx * xx * xx / 3.0 - yy - p->a + p->E * st;
    *fy = p->eps * (xx - p->b * yy);
}

/* One component v on a step's quintic Hermite interpolant at s in [0, 1],
 * from the step width h and c = (v, v', v'') at both ends; hermite_dx is
 * its time derivative.  The events (v = x) and fhn_sample share them. */
static double hermite_x(double s, double h, const double *c)
{
    double s2 = s * s;
    double s3 = s2 * s;
    double s4 = s3 * s;
    double s5 = s4 * s;
    return (1.0 - 10.0 * s3 + 15.0 * s4 - 6.0 * s5) * c[0]
           + h * (s - 6.0 * s3 + 8.0 * s4 - 3.0 * s5) * c[1]
           + h * h * (0.5 * s2 - 1.5 * s3 + 1.5 * s4 - 0.5 * s5) * c[2]
           + (10.0 * s3 - 15.0 * s4 + 6.0 * s5) * c[3]
           + h * (-4.0 * s3 + 7.0 * s4 - 3.0 * s5) * c[4]
           + h * h * (0.5 * s3 - s4 + 0.5 * s5) * c[5];
}

static double hermite_dx(double s, double h, const double *c)
{
    double s2 = s * s;
    double s3 = s2 * s;
    double s4 = s3 * s;
    return ((-30.0 * s2 + 60.0 * s3 - 30.0 * s4) * c[0]
            + h * (1.0 - 18.0 * s2 + 32.0 * s3 - 15.0 * s4) * c[1]
            + h * h * (s - 4.5 * s2 + 6.0 * s3 - 2.5 * s4) * c[2]
            + (30.0 * s2 - 60.0 * s3 + 30.0 * s4) * c[3]
            + h * (-12.0 * s2 + 28.0 * s3 - 15.0 * s4) * c[4]
            + h * h * (1.5 * s2 - 4.0 * s3 + 2.5 * s4) * c[5]) / h;
}

/* GRAM_DEN times the integral over s in [0, 1] of the square of one
 * component's quintic Hermite interpolant on a step of width h, from
 * (v, v', v'') at both ends: the symmetric Gram form in 21 products. */
static double gram_form(double h, double v0, double f0, double d0, double v1,
                        double f1, double d1)
{
    double c1 = h * f0;
    double c2 = h * (h * d0);
    double c4 = h * f1;
    double c5 = h * (h * d1);
    return v0 * (Q00 * v0 + Q01 * c1 + Q02 * c2 + Q03 * v1 + Q04 * c4 + Q05 * c5)
           + c1 * (Q11 * c1 + Q12 * c2 + Q13 * v1 + Q14 * c4 + Q15 * c5)
           + c2 * (Q22 * c2 + Q23 * v1 + Q24 * c4 + Q25 * c5)
           + v1 * (Q33 * v1 + Q34 * c4 + Q35 * c5)
           + c4 * (Q44 * c4 + Q45 * c5)
           + c5 * (Q55 * c5);
}

/* Midpoint of a bracket [lo, hi] of the step from t with g(lo) < 0 <= g(hi),
 * halved until it is at most EVENT_TIME_TOL wide or no double lies strictly
 * inside it (from t = 8192 on, one ulp of t is wider than the tolerance);
 * g is x - 1 (deriv = 0) or x' (deriv = 1) on the step's interpolant. */
static double bisect(double lo, double hi, int deriv, double t, double h,
                     const double *c)
{
    while (hi - lo > EVENT_TIME_TOL) {
        double mid = 0.5 * (lo + hi);
        if (mid == lo || mid == hi)
            break;
        double s = (mid - t) / h;
        double g = deriv ? hermite_dx(s, h, c) : hermite_x(s, h, c) - 1.0;
        if (g < 0.0)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

/* Append one row of `width` doubles, doubling the buffer when full. */
static int push(double **buf, long *n, long *cap, int width, const double *row)
{
    if (*n == *cap) {
        long grown = *cap ? 2 * *cap : 256;
        double *p = realloc(*buf, (size_t)grown * width * sizeof(double));
        if (!p)
            return -1;
        *buf = p;
        *cap = grown;
    }
    memcpy(*buf + *n * width, row, width * sizeof(double));
    (*n)++;
    return 0;
}

static int push_knot(fhn_out *out, double t, double x, double y, double fx,
                     double fy, double d2x, double d2y)
{
    double row[KNOT_WIDTH] = {t, x, y, fx, fy, d2x, d2y};
    return push(&out->knots, &out->n_knots, &out->cap_knots, KNOT_WIDTH, row);
}

int fhn_abi_version(void)
{
    return FHN_ABI_VERSION;
}

void fhn_free(fhn_out *out)
{
    free(out->knots);
    free(out->spikes);
    free(out->minima);
    out->knots = out->spikes = out->minima = NULL;
    out->n_knots = out->cap_knots = out->n_spikes = out->cap_spikes = 0;
    out->n_minima = out->cap_minima = 0;
}

int fhn_integrate(double a, double b, double eps, double E, double omega,
                  double t0, double t_end, double x0, double y0,
                  double rtol, double atol, long max_steps, int detect_events,
                  fhn_out *out)
{
    const fhn_params p = {a, b, eps, E, omega};
    double span = t_end - t0;
    double hmax = (TWO_PI / omega) / 64.0;
    double h = fmin(1e-4 * span, hmax);

    double t = t0, x = x0, y = y0, fx, fy;
    memset(out, 0, sizeof *out);
    out->h_min = INFINITY;

    rhs(&p, sin(omega * t), x, y, &fx, &fy);
    if (!(isfinite(fx) && isfinite(fy)))
        return 3;
    double ftx = E * omega * cos(omega * t);
    double jxx = 1.0 - x * x;
    double d2x = ftx + jxx * fx - fy;
    double d2y = eps * fx - eps * b * fy;
    if (detect_events && push_knot(out, t, x, y, fx, fy, d2x, d2y))
        return -1;

    long n_steps = 0;
    int rejected = 0;
    double sq_sum = 0.0, sq_comp = 0.0;
    double t_snap = 2e-13 * span;
    int status = 0;

    while (t < t_end - 1e-13 * span) {
        if (n_steps >= max_steps) {
            status = 2;
            break;
        }
        if (h > t_end - t)
            h = t_end - t;
        double h_floor = fmax(1e-13 * span, 8.0 * 2.220446049250313e-16 * fabs(t));
        if (h < h_floor && h < (t_end - t)) {
            status = 1;
            break;
        }

        double ig = 1.0 / (h * GAMMA);
        double g11 = ig - jxx;
        double g22 = ig + eps * b;
        double det = g11 * g22 + eps; /* g12 = 1, g21 = -eps */
        double i11 = g22 / det;
        double i12 = -1.0 / det;
        double i21 = eps / det;
        double i22 = g11 / det;
        double tt, xi, yi, r1, r2, c1, c2, c3, c4, c5;
        double f2x, f2y, f3x, f3y, f4x, f4y, f5x, f5y, f6x, f6y;

        /* stage 1 reuses the stored derivative at (t, x, y) */
        r1 = fx + h * G1 * ftx;
        r2 = fy;
        double k1x = i11 * r1 + i12 * r2;
        double k1y = i21 * r1 + i22 * r2;

        tt = t + AL2 * h;
        xi = x + A21 * k1x;
        yi = y + A21 * k1y;
        rhs(&p, sin(omega * tt), xi, yi, &f2x, &f2y);
        c1 = C21 / h;
        r1 = f2x + c1 * k1x + h * G2 * ftx;
        r2 = f2y + c1 * k1y;
        double k2x = i11 * r1 + i12 * r2;
        double k2y = i21 * r1 + i22 * r2;

        tt = t + AL3 * h;
        xi = x + A31 * k1x + A32 * k2x;
        yi = y + A31 * k1y + A32 * k2y;
        rhs(&p, sin(omega * tt), xi, yi, &f3x, &f3y);
        c1 = C31 / h;
        c2 = C32 / h;
        r1 = f3x + c1 * k1x + c2 * k2x + h * G3 * ftx;
        r2 = f3y + c1 * k1y + c2 * k2y;
        double k3x = i11 * r1 + i12 * r2;
        double k3y = i21 * r1 + i22 * r2;

        tt = t + AL4 * h;
        xi = x + A41 * k1x + A42 * k2x + A43 * k3x;
        yi = y + A41 * k1y + A42 * k2y + A43 * k3y;
        rhs(&p, sin(omega * tt), xi, yi, &f4x, &f4y);
        c1 = C41 / h;
        c2 = C42 / h;
        c3 = C43 / h;
        r1 = f4x + c1 * k1x + c2 * k2x + c3 * k3x + h * G4 * ftx;
        r2 = f4y + c1 * k1y + c2 * k2y + c3 * k3y;
        double k4x = i11 * r1 + i12 * r2;
        double k4y = i21 * r1 + i22 * r2;

        /* stages 5 and 6 and the accepted point share t + h and its sine */
        tt = t + h;
        double st_end = sin(omega * tt);
        xi = x + A51 * k1x + A52 * k2x + A53 * k3x + A54 * k4x;
        yi = y + A51 * k1y + A52 * k2y + A53 * k3y + A54 * k4y;
        rhs(&p, st_end, xi, yi, &f5x, &f5y);
        c1 = C51 / h;
        c2 = C52 / h;
        c3 = C53 / h;
        c4 = C54 / h;
        r1 = f5x + c1 * k1x + c2 * k2x + c3 * k3x + c4 * k4x;
        r2 = f5y + c1 * k1y + c2 * k2y + c3 * k3y + c4 * k4y;
        double k5x = i11 * r1 + i12 * r2;
        double k5y = i21 * r1 + i22 * r2;

        xi = xi + k5x;
        yi = yi + k5y;
        rhs(&p, st_end, xi, yi, &f6x, &f6y);
        c1 = C61 / h;
        c2 = C62 / h;
        c3 = C63 / h;
        c4 = C64 / h;
        c5 = C65 / h;
        r1 = f6x + c1 * k1x + c2 * k2x + c3 * k3x + c4 * k4x + c5 * k5x;
        r2 = f6y + c1 * k1y + c2 * k2y + c3 * k3y + c4 * k4y + c5 * k5y;
        double k6x = i11 * r1 + i12 * r2;
        double k6y = i21 * r1 + i22 * r2;

        double x_new = x + A51 * k1x + A52 * k2x + A53 * k3x + A54 * k4x + k5x + k6x;
        double y_new = y + A51 * k1y + A52 * k2y + A53 * k3y + A54 * k4y + k5y + k6y;

        n_steps++;
        if (!(isfinite(x_new) && isfinite(y_new) && isfinite(k6x) && isfinite(k6y))) {
            out->n_nonfinite_retry++;
            h *= 0.5;
            if (h < h_floor) {
                status = 3;
                break;
            }
            rejected = 1;
            continue;
        }

        double sx = atol + rtol * fmax(fabs(x), fabs(x_new));
        double sy = atol + rtol * fmax(fabs(y), fabs(y_new));
        double ex = k6x / sx;
        double ey = k6y / sy;
        double err = sqrt(0.5 * (ex * ex + ey * ey));
        if (err < 1e-10)
            err = 1e-10;

        double fac;
        if (err > 1.0) {
            fac = 0.9 * pow(err, -0.25);
            if (fac < 0.1)
                fac = 0.1;
            else if (fac > 0.5)
                fac = 0.5;
            h *= fac;
            rejected = 1;
            out->n_reject++;
            continue;
        }

        double t_new = tt;
        if (t_end - tt < t_snap) {
            t_new = t_end;
            st_end = sin(omega * t_new);
        }
        double h_used = t_new - t;
        double fxn, fyn;
        rhs(&p, st_end, x_new, y_new, &fxn, &fyn);
        if (!(isfinite(fxn) && isfinite(fyn))) {
            status = 3;
            break;
        }
        double ftxn = E * omega * cos(omega * t_new);
        double jxxn = 1.0 - x_new * x_new;
        double d2xn = ftxn + jxxn * fxn - fyn;
        double d2yn = eps * fxn - eps * b * fyn;
        out->n_accept++;
        if (h_used < out->h_min)
            out->h_min = h_used;

        if (detect_events) {
            const double c[6] = {x, fx, d2x, x_new, fxn, d2xn};
            double t_mid = t + 0.5 * h_used;
            double g_mid = hermite_x(0.5, h_used, c) - 1.0;
            double los[2] = {t, t_mid};
            double gas[2] = {x - 1.0, g_mid};
            double his[2] = {t_mid, t_new};
            double gbs[2] = {g_mid, x_new - 1.0};
            for (int half = 0; half < 2; half++) {
                if (!(gas[half] < 0.0 && 0.0 <= gbs[half]))
                    continue;
                double t_spike = bisect(los[half], his[half], 0, t, h_used, c);
                if (push(&out->spikes, &out->n_spikes, &out->cap_spikes, 1, &t_spike))
                    return -1;
            }
            if (fx < 0.0 && 0.0 <= fxn) {
                double t_min = bisect(t, t_new, 1, t, h_used, c);
                if (push(&out->minima, &out->n_minima, &out->cap_minima, 1, &t_min))
                    return -1;
            }

            double term = h_used * (gram_form(h_used, x, fx, d2x, x_new, fxn, d2xn)
                                    + gram_form(h_used, y, fy, d2y, y_new, fyn, d2yn));
            double s = sq_sum + term;
            if (fabs(sq_sum) >= fabs(term))
                sq_comp += (sq_sum - s) + term;
            else
                sq_comp += (term - s) + sq_sum;
            sq_sum = s;

            if (push_knot(out, t_new, x_new, y_new, fxn, fyn, d2xn, d2yn))
                return -1;
        }

        t = t_new;
        x = x_new;
        y = y_new;
        fx = fxn;
        fy = fyn;
        ftx = ftxn;
        jxx = jxxn;
        d2x = d2xn;
        d2y = d2yn;

        fac = 0.9 * pow(err, -0.25);
        if (fac < 0.2)
            fac = 0.2;
        else if (fac > 6.0)
            fac = 6.0;
        if (rejected && fac > 1.0)
            fac = 1.0;
        rejected = 0;
        h = h_used * fac;
        if (h > hmax)
            h = hmax;
    }

    out->sq_integral = (sq_sum + sq_comp) / GRAM_DEN;
    if (!detect_events && push_knot(out, t, x, y, fx, fy, d2x, d2y))
        return -1;
    return status;
}

/* ---------------------------------------------------------------------------
 * Dense output, the twin of _kernel_py.sample_knots: the n knot rows `knots`
 * (as the kernel writes them) have strictly increasing t, n >= 2.  For each
 * of the m times ts, sorted and inside [t_0, t_(n-1)], out gets a row
 * (x, y): the state on the interval of the last knot at or before the time
 * (the last interval for t_(n-1)), or with deriv its time derivative.  One
 * index walks the sorted times, as numpy's searchsorted(side="right") - 1
 * clipped to n - 2 finds each.
 */
void fhn_sample(const double *knots, long n, const double *ts, long m, int deriv,
                double *out)
{
    long j = 0;
    for (long i = 0; i < m; i++) {
        double t = ts[i];
        while (j < n - 2 && knots[(j + 1) * KNOT_WIDTH] <= t)
            j++;
        const double *k0 = knots + j * KNOT_WIDTH;
        const double *k1 = k0 + KNOT_WIDTH;
        double h = k1[0] - k0[0];
        double s = (t - k0[0]) / h;
        for (int q = 0; q < 2; q++) {
            const double c[6] = {k0[1 + q], k0[3 + q], k0[5 + q],
                                 k1[1 + q], k1[3 + q], k1[5 + q]};
            out[2 * i + q] = deriv ? hermite_dx(s, h, c) : hermite_x(s, h, c);
        }
    }
}

/* ---------------------------------------------------------------------------
 * Exact table formatter: the bytes of Python's
 * (sep.join([spec] * k) + end) * n % tuple(values) for spec "%.17g" or "%.2f"
 * (_kernel_py.format_table), without snprintf, so no locale reaches them.
 *
 * Each double is m 2^e with an integer m < 2^53.  Its decimal digits are
 * m 5^q 2^(e + q) = |v| 10^q rounded half to even, in unsigned 128-bit
 * integers, then laid out by the C99 %g/%f rules.  The exact path covers
 * +-0, nan, +-inf and, as real numbers, 10^-16 <= |v| < 10^16 for %.17g
 * (the double 1e-16 lies just below 10^-16) and |v| < 10^15 for %.2f.
 * For %.17g, q = 16 - X with X = floor(log10 |v|) in [-16, 15]; the first
 * estimate of X is X or X + 1, never lower, so q <= 32 also after its
 * correction, and m 5^q < 2^53 5^32 < 2^128.  For %.2f, q = 2 and
 * m 25 < 2^58.  The digits are written two at a time from DIGIT_PAIRS into
 * a local array and copied out in fixed FMT_BLOCK-byte blocks; the output
 * then advances by the run's real length, so a block may write up to
 * FMT_SLACK bytes past a value's FMT_MAX_LEN, which the next value or
 * separator overwrites or which lie past the returned length.
 *
 * Capacity: before each row, the space left in buf must hold a worst-case
 * row and the slack, k (FMT_MAX_LEN + strlen(sep)) + strlen(end) +
 * FMT_SLACK bytes, or fhn_format_table returns -1.  So a cap of
 * n (k (FMT_MAX_LEN + strlen(sep)) + strlen(end)) + FMT_SLACK always
 * suffices (fastpath.format_capacity), and a cap shorter than the text
 * always gets -1.  For any other value or spec, or a cap too short by
 * that rule, fhn_format_table returns -1 and writes nothing the caller may
 * use; without __SIZEOF_INT128__ it returns -1 for every table.
 */
#define FMT_17G_LO 1e-16
#define FMT_17G_HI 1e16
#define FMT_2F_HI 1e15
#define FMT_MAX_LEN 23   /* the longest value text, "-1.2345678901234567e-16" */
#define FMT_BLOCK 16     /* the width of a digit-run copy */
/* the farthest write past FMT_MAX_LEN: "-" 16 integer digits "." and a
 * block of fraction digits reach 1 + 16 + 1 + FMT_BLOCK = 34 bytes */
#define FMT_SLACK 11

#ifdef __SIZEOF_INT128__
__extension__ typedef unsigned __int128 u128;

static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL,
    1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL,
    6103515625ULL, 30517578125ULL, 152587890625ULL, 762939453125ULL,
    3814697265625ULL, 19073486328125ULL, 95367431640625ULL,
    476837158203125ULL, 2384185791015625ULL, 11920928955078125ULL,
    59604644775390625ULL, 298023223876953125ULL, 1490116119384765625ULL,
    7450580596923828125ULL,
};
static const uint64_t TEN16 = 10000000000000000ULL;
static const uint32_t TEN8 = 100000000U;

/* "00" "01" ... "99": the two digits of i at DIGIT_PAIRS + 2 i */
static const char DIGIT_PAIRS[201] =
    "00010203040506070809"
    "10111213141516171819"
    "20212223242526272829"
    "30313233343536373839"
    "40414243444546474849"
    "50515253545556575859"
    "60616263646566676869"
    "70717273747576777879"
    "80818283848586878889"
    "90919293949596979899";

/* floor(n log10(2)) for |n| <= 1000 */
static int floor_log10_pow2(int n)
{
    return n >= 0 ? (n * 78913) >> 18 : -((-n * 78913 + 262143) >> 18);
}

/* p 2^-s rounded half to even, for 1 <= s <= 127; *fl gets it rounded down */
static u128 shift_round(u128 p, int s, u128 *fl)
{
    u128 q = p >> s;
    u128 rem = p - (q << s);
    u128 half = (u128)1 << (s - 1);
    *fl = q;
    return q + (rem > half || (rem == half && (q & 1)));
}

/* write the 8 decimal digits of d < 10^8 (leading zeros), as four pairs */
static void put_8digits(char *dst, uint32_t d)
{
    uint32_t hi = d / 10000, lo = d % 10000;
    memcpy(dst, DIGIT_PAIRS + 2 * (hi / 100), 2);
    memcpy(dst + 2, DIGIT_PAIRS + 2 * (hi % 100), 2);
    memcpy(dst + 4, DIGIT_PAIRS + 2 * (lo / 100), 2);
    memcpy(dst + 6, DIGIT_PAIRS + 2 * (lo % 100), 2);
}

/* %.17g of the finite non-zero |v| = m 2^e, 10^-16 <= |v| < 10^16 */
static char *put_17g(char *dst, uint64_t m, int e)
{
    int x = floor_log10_pow2(e + 53);   /* X or X + 1, as 2^(e+52) <= |v| < 2^(e+53) */
    uint64_t d;
    for (;;) {
        int q = 16 - x;
        u128 p = (u128)m * POW5[q < 27 ? q : 27];
        if (q > 27)
            p *= POW5[q - 27];
        u128 fl, r;
        if (e + q >= 0)
            fl = r = p << (e + q);
        else
            r = shift_round(p, -(e + q), &fl);
        if (fl < TEN16) {   /* |v| < 10^x: the estimate was one too high */
            x--;
            continue;
        }
        d = (uint64_t)r;
        if (d == 10 * TEN16) {   /* rounded up to the next power of ten */
            d = TEN16;
            x++;
        }
        break;
    }
    /* the 17 digits as 1 + 8 + 8; the rest of the array feeds the blocks */
    char digits[2 * FMT_BLOCK] = {0};
    uint64_t rest = d % TEN16;
    digits[0] = (char)('0' + d / TEN16);
    put_8digits(digits + 1, (uint32_t)(rest / TEN8));
    put_8digits(digits + 9, (uint32_t)(rest % TEN8));
    int nd = 17;
    while (digits[nd - 1] == '0')
        nd--;
    if (x < -4) {   /* d.ddde-XX */
        dst[0] = digits[0];
        dst[1] = '.';
        memcpy(dst + 2, digits + 1, FMT_BLOCK);
        dst += nd > 1 ? nd + 1 : 1;
        memcpy(dst, "e-", 2);
        memcpy(dst + 2, DIGIT_PAIRS + 2 * -x, 2);
        return dst + 4;
    }
    if (x < 0) {   /* 0.000ddd */
        memcpy(dst, "0.000", 5);
        dst += 1 - x;
        memcpy(dst, digits, 17);   /* all 17 digits */
        return dst + nd;
    }
    memcpy(dst, digits, FMT_BLOCK);   /* ddd.ddd, the integer part in full */
    dst += x + 1;
    *dst = '.';
    memcpy(dst + 1, digits + x + 1, FMT_BLOCK);
    return nd > x + 1 ? dst + nd - x : dst;
}

/* %.2f of the finite |v| = m 2^e < 10^15 < 2^50, so s = -(e + 2) >= 3 */
static char *put_2f(char *dst, uint64_t m, int e)
{
    int s = -(e + 2);
    /* |v| 100 = m 25 2^-s rounded half to even, in 64 bits as m 25 < 2^58;
     * it is 0 for s > 59, where m 25 < 2^(s - 1) */
    uint64_t p = m * 25, d = 0;
    if (s < 60) {
        uint64_t q = p >> s, rem = p & ((1ULL << s) - 1), half = 1ULL << (s - 1);
        d = q + (rem > half || (rem == half && (q & 1)));
    }
    uint64_t whole = d / 100;   /* < 10^15: at most 16 digits with leading zeros */
    char digits[2 * FMT_BLOCK] = {0};
    int first = 8;
    if (whole < TEN8) {
        put_8digits(digits + 8, (uint32_t)whole);
    } else {
        put_8digits(digits, (uint32_t)(whole / TEN8));
        put_8digits(digits + 8, (uint32_t)(whole % TEN8));
        first = 0;
    }
    while (first < 15 && digits[first] == '0')
        first++;
    memcpy(dst, digits + first, FMT_BLOCK);
    dst += 16 - first;
    *dst = '.';
    memcpy(dst + 1, DIGIT_PAIRS + 2 * (d % 100), 2);
    return dst + 3;
}

/* the value's text at dst, or NULL when the exact path does not cover it */
static char *put_value(char *dst, double v, int fixed2)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    int exp_bits = (int)(bits >> 52 & 0x7ff);
    uint64_t m = bits & 0xfffffffffffffULL;
    if (exp_bits == 0x7ff) {
        if (m != 0) {
            memcpy(dst, "nan", 3);
            return dst + 3;
        }
        if (bits >> 63)
            *dst++ = '-';
        memcpy(dst, "inf", 3);
        return dst + 3;
    }
    double a = fabs(v);
    int covered = fixed2 ? a < FMT_2F_HI : a == 0.0 || (a > FMT_17G_LO && a < FMT_17G_HI);
    if (!covered)
        return NULL;
    int e = exp_bits ? exp_bits - 1075 : -1074;
    if (exp_bits)
        m |= 1ULL << 52;
    if (bits >> 63)
        *dst++ = '-';
    if (fixed2)
        return put_2f(dst, m, e);
    if (m == 0) {
        *dst++ = '0';
        return dst;
    }
    return put_17g(dst, m, e);
}

/* the len bytes of s at dst; one byte is a single store */
static char *put_text(char *dst, const char *s, long len)
{
    if (len == 1) {
        *dst = *s;
        return dst + 1;
    }
    memcpy(dst, s, (size_t)len);
    return dst + len;
}
#endif

long fhn_format_table(const double *values, long n, long k, const char *spec,
                      const char *sep, const char *end, char *buf, long cap)
{
#ifdef __SIZEOF_INT128__
    int fixed2;
    if (strcmp(spec, "%.17g") == 0)
        fixed2 = 0;
    else if (strcmp(spec, "%.2f") == 0)
        fixed2 = 1;
    else
        return -1;
    long len_sep = (long)strlen(sep), len_end = (long)strlen(end);
    long row_cap = k * (FMT_MAX_LEN + len_sep) + len_end + FMT_SLACK;
    char *dst = buf;
    for (long i = 0; i < n; i++) {
        if (cap - (dst - buf) < row_cap)
            return -1;
        const double *row = values + i * k;
        for (long j = 0; j < k; j++) {
            if (j > 0)
                dst = put_text(dst, sep, len_sep);
            dst = put_value(dst, row[j], fixed2);
            if (!dst)
                return -1;
        }
        dst = put_text(dst, end, len_end);
    }
    return (long)(dst - buf);
#else
    (void)values; (void)n; (void)k; (void)spec; (void)sep; (void)end;
    (void)buf; (void)cap;
    return -1;
#endif
}

/* ---------------------------------------------------------------------------
 * Lower-bound phase, the twin of _kernel_py.bound_phase: the n finite
 * offsets run from the saddle (offset 0, where u = 0 lies above the bound)
 * outward.  g(th) = th (a1 + th (a2 + th (a3 + th (a4 + th a5)))) - bound,
 * the Horner expression of manifolds._eval_offset, is evaluated at each
 * offset in turn until the first with g <= 0 (numpy's argmax of
 * g <= 0; a NaN compares false, so it never ends the scan).  That offset
 * and the one before it, or 0.0 for the first, bracket the root, which is
 * halved as geometry.bisect_root halves it: *th gets the last midpoint,
 * once no double lies strictly inside the bracket.  Returns 0, or 1 with
 * *th untouched when no offset lies at or below the bound.
 */
static double bound_gap(double a1, double a2, double a3, double a4, double a5,
                        double bound, double t)
{
    return t * (a1 + t * (a2 + t * (a3 + t * (a4 + t * a5)))) - bound;
}

int fhn_bound_phase(double a1, double a2, double a3, double a4, double a5,
                    double bound, const double *offsets, long n, double *th)
{
    long i = 0;
    while (i < n && !(bound_gap(a1, a2, a3, a4, a5, bound, offsets[i]) <= 0.0))
        i++;
    if (i == n)
        return 1;
    double lo = offsets[i], hi = i ? offsets[i - 1] : 0.0;
    for (;;) {
        double mid = 0.5 * (lo + hi);
        if (mid == lo || mid == hi) {
            *th = mid;
            return 0;
        }
        if (bound_gap(a1, a2, a3, a4, a5, bound, mid) > 0.0)
            hi = mid;
        else
            lo = mid;
    }
}
