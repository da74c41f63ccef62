"""Backend selection for the hot forced-system integration kernel and the
exact table formatter.

At import time the C library (`_kernel.c`, built by setup.py into the shared
library `fhnburst._kernel` and loaded with ctypes) is preferred; the
pure-Python twins in `_kernel_py` are used when the library was not built.
The C kernel is an operation-for-operation copy of the twin compiled without
floating-point contraction, so both backends return bit-identical results:
a status, the knot table, the spike times, the times of the x-minima, the
step counters and the integral of x^2 + y^2 over the knots (see
`_kernel_py`).  `format_table` writes the bytes of the twin's `%` call; the
C formatter writes them when it covers every value of the table, and the
twin writes the whole table when it does not.  A library whose
`fhn_abi_version()` is not `KERNEL_ABI` (built from an older `_kernel.c`)
is refused like one that does not load.
"""
from __future__ import annotations

import ctypes
import importlib.util
import math

import numpy as np

from . import _kernel_py
from .errors import MaxStepsExceeded, NonFiniteState, StepSizeUnderflow
from .integrator import IntegratorConfig, Trajectory
from .model import Forcing, ModelParams

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
KERNEL_ABI = 4          # FHN_ABI_VERSION of the _kernel.c this module mirrors
FORMAT_WIDTH = 23       # FMT_MAX_LEN in _kernel.c: its longest value text


class _Out(ctypes.Structure):
    """Mirror of `fhn_out` in _kernel.c."""

    _fields_ = [
        ("knots", _DOUBLE_P), ("n_knots", ctypes.c_long), ("cap_knots", ctypes.c_long),
        ("spikes", _DOUBLE_P), ("n_spikes", ctypes.c_long), ("cap_spikes", ctypes.c_long),
        ("minima", _DOUBLE_P), ("n_minima", ctypes.c_long), ("cap_minima", ctypes.c_long),
        ("n_accept", ctypes.c_long), ("n_reject", ctypes.c_long),
        ("n_nonfinite_retry", ctypes.c_long), ("h_min", ctypes.c_double),
        ("sq_integral", ctypes.c_double),
    ]


def _copy(ptr, shape: tuple[int, ...]) -> np.ndarray:
    """Copy a C array of doubles with the given shape into numpy memory."""
    if shape[0] == 0:
        return np.empty(shape)
    return np.ctypeslib.as_array(ptr, shape).copy()


def _open_library(path: str) -> ctypes.CDLL:
    """The shared library at `path` with its entry points declared.  Raises
    ImportError when it was built for another ABI version."""
    lib = ctypes.CDLL(path)
    lib.fhn_abi_version.restype = ctypes.c_int
    lib.fhn_abi_version.argtypes = []
    version = lib.fhn_abi_version()
    if version != KERNEL_ABI:
        raise ImportError(
            f"{path} has kernel ABI {version}, expected {KERNEL_ABI}: rebuild it "
            "with `python setup.py build_ext --inplace`"
        )
    lib.fhn_integrate.restype = ctypes.c_int
    lib.fhn_integrate.argtypes = (
        [ctypes.c_double] * 13
        + [ctypes.c_long, ctypes.c_int, ctypes.c_int, ctypes.POINTER(_Out)]
    )
    lib.fhn_free.restype = None
    lib.fhn_free.argtypes = [ctypes.POINTER(_Out)]
    lib.fhn_format_table.restype = ctypes.c_long
    lib.fhn_format_table.argtypes = (
        [_DOUBLE_P, ctypes.c_long, ctypes.c_long] + [ctypes.c_char_p] * 4 + [ctypes.c_long]
    )
    return lib


def load_kernel(path: str):
    """The C kernel in the shared library at `path`, as a drop-in for
    `_kernel_py.integrate_forced` (same arguments, same result).  Raises
    ImportError when the library was built for another ABI version."""
    lib = _open_library(path)

    def integrate_forced(*args):
        out = _Out()
        try:
            status = lib.fhn_integrate(*args, ctypes.byref(out))
            if status < 0:
                raise MemoryError("forced kernel could not grow its buffers")
            knots = _copy(out.knots, (out.n_knots, _kernel_py.KNOT_WIDTH))
            spikes = _copy(out.spikes, (out.n_spikes,))
            minima = _copy(out.minima, (out.n_minima,))
            stats = {name: getattr(out, name) for name in _kernel_py.STAT_NAMES}
        finally:
            lib.fhn_free(ctypes.byref(out))
        return status, knots, spikes, minima, stats, out.sq_integral

    return integrate_forced


def load_formatter(path: str):
    """The C table formatter in the shared library at `path`: it takes the
    arguments of `_kernel_py.format_table` and returns the same text, or None
    when a value of the table lies outside its exact range.  Raises
    ImportError when the library was built for another ABI version."""
    lib = _open_library(path)

    def format_table(table, spec: str, sep: str, end: str) -> str | None:
        values = np.ascontiguousarray(table, dtype=float)
        n, k = values.shape
        spec_b, sep_b, end_b = spec.encode(), sep.encode(), end.encode()
        cap = n * (k * (FORMAT_WIDTH + len(sep_b)) + len(end_b))
        buf = ctypes.create_string_buffer(cap)
        size = lib.fhn_format_table(values.ctypes.data_as(_DOUBLE_P), n, k,
                                    spec_b, sep_b, end_b, buf, cap)
        return ctypes.string_at(buf, size).decode() if size >= 0 else None

    return format_table


def _find_library():
    spec = importlib.util.find_spec("fhnburst._kernel")
    try:
        return (load_kernel(spec.origin), load_formatter(spec.origin)) if spec else None
    except (OSError, AttributeError, ImportError):  # unloadable or stale library
        return None


_BACKEND, _FORMATTER = _find_library() or (_kernel_py.integrate_forced, None)


def active_backend() -> str:
    """'compiled' when the C kernel is in use, else 'pure'."""
    return "pure" if _BACKEND is _kernel_py.integrate_forced else "compiled"


def format_table(table, spec: str, sep: str, end: str) -> str:
    """`_kernel_py.format_table(table, spec, sep, end)`: the text of an n x k
    float table, each row its values formatted with `spec` ("%.17g" and
    "%.2f" have an exact C path), joined by `sep` and followed by `end`.
    The C formatter writes it when it covers every value, else the twin
    writes the whole table."""
    text = _FORMATTER(table, spec, sep, end) if _FORMATTER else None
    return _kernel_py.format_table(table, spec, sep, end) if text is None else text


def trajectory_from_knots(knots, spikes=(), minima=(), meta=None, sq_integral=None):
    """A Trajectory over column views of an n x 7 kernel knot table (rows t,
    x, y, fx, fy, d2x, d2y): the table is the only copy of the knot data."""
    return Trajectory(knots[:, 0], knots[:, 1:3], knots[:, 3:5], knots[:, 5:7],
                      spikes, minima, meta=meta, sq_integral=sq_integral)


def integrate_forced(
    params: ModelParams,
    forcing: Forcing,
    y0: tuple[float, float],
    t_span: tuple[float, float],
    config: IntegratorConfig | None = None,
    detect_events: bool = True,
    store_knots: bool = True,
) -> Trajectory:
    """Integrate the planar forced system on the active backend.

    The trajectory's `spikes` and `minima` are the kernel's upward crossings
    of x = 1 and local x-minima (empty without detect_events),
    `sq_integral` is its integral of x^2 + y^2 over the knots, and
    `meta["stats"]` holds its step counters.
    """
    cfg = config or IntegratorConfig()
    t0, t_end = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t_end) and t_end > t0):
        raise ValueError("t_span must be finite and increasing")

    status, knots, spikes, minima, stats, sq_integral = _BACKEND(
        params.a, params.b, params.eps, forcing.E, forcing.omega,
        t0, t_end, float(y0[0]), float(y0[1]),
        cfg.rel_tol, cfg.abs_tol,
        cfg.max_step if cfg.max_step is not None else -1.0,
        cfg.first_step if cfg.first_step is not None else -1.0,
        cfg.max_steps, detect_events, store_knots,
    )
    traj = None
    n = len(knots)
    if n >= 2 or (n == 1 and status == 0):
        traj = trajectory_from_knots(
            knots, spikes, minima,
            meta={"params": params, "forcing": forcing, "backend": active_backend(),
                  "stats": stats},
            sq_integral=sq_integral,
        )
    t_fin = float(knots[-1, 0]) if n else t0  # the end state is the last row

    if status == 1:
        raise StepSizeUnderflow(f"step size underflow at t={t_fin!r}", traj)
    if status == 2:
        raise MaxStepsExceeded(f"exceeded {cfg.max_steps} steps at t={t_fin!r}", traj)
    if status == 3:
        raise NonFiniteState(f"state became non-finite near t={t_fin!r}", traj)
    return traj
