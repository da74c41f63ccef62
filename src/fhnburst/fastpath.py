"""Backend selection for the C library and its pure-Python twins.

At import time the C library (`_kernel.c`, built by setup.py into the shared
library `fhnburst._kernel` and loaded with ctypes) is opened once.  The one
handle `_IMPL` is that `Library` or, when the library was not built, the
module `_kernel_py` of its pure-Python twins; the functions below dispatch
through it, so no call mixes the two, and a test that wants the other
backend replaces the whole handle (`monkeypatch.setattr(fastpath, "_IMPL",
_kernel_py)`).  The C code copies the twins operation for operation and is
compiled without floating-point contraction, so both backends return
bit-identical results.  Each entry point's contract is its twin's in
`_kernel_py` (`integrate_forced`, `sample_knots`, `format_table` and
`bound_phase`), which the matching function of `_kernel.c` also states.
A library whose `fhn_abi_version()` is not `KERNEL_ABI` (built from an
older `_kernel.c`) is refused like one that does not load.
"""
from __future__ import annotations

import ctypes
import importlib.util
import math
import threading

import numpy as np

from . import _kernel_py
from .errors import MaxStepsExceeded, NonFiniteState, StepSizeUnderflow
from ._kernel_py import KNOT_WIDTH
from .integrator import IntegratorConfig, Trajectory
from .model import Forcing, ModelParams

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
KERNEL_ABI = 10         # FHN_ABI_VERSION of the _kernel.c this module mirrors
FORMAT_WIDTH = 23       # FMT_MAX_LEN in _kernel.c: its longest value text
FORMAT_SLACK = 11       # FMT_SLACK in _kernel.c: how far its block copies reach past it
FORMAT_KEEP = 1 << 20   # the largest format buffer a thread keeps for its next table


def format_capacity(n: int, k: int, sep: bytes, end: bytes) -> int:
    """The buffer size that always suffices for `fhn_format_table` on an
    n x k table: before each row it asks for a worst-case row, k times
    FORMAT_WIDTH + len(sep) bytes and end, plus FORMAT_SLACK bytes, and
    returns -1 without them."""
    return n * (k * (FORMAT_WIDTH + len(sep)) + len(end)) + FORMAT_SLACK


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


# (name, restype, argtypes) of each entry point of the C library; a test
# checks every argument count against _kernel.c
ENTRY_POINTS = (
    ("fhn_abi_version", ctypes.c_int, []),
    ("fhn_free", None, [ctypes.POINTER(_Out)]),
    ("fhn_integrate", ctypes.c_int,
     [ctypes.c_double] * 11 + [ctypes.c_long, ctypes.c_int, ctypes.POINTER(_Out)]),
    ("fhn_sample", None, [ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_long,
                          ctypes.c_int, ctypes.c_void_p]),
    ("fhn_format_table", ctypes.c_long,
     [ctypes.c_void_p, ctypes.c_long, ctypes.c_long] + [ctypes.c_char_p] * 3
     + [ctypes.c_void_p, ctypes.c_long]),
    ("fhn_bound_phase", ctypes.c_int,
     [ctypes.c_double] * 6 + [ctypes.c_void_p, ctypes.c_long, ctypes.POINTER(ctypes.c_double)]),
)


class Library:
    """The C library at `path`, opened once: its ABI version checked and its
    entry points (`ENTRY_POINTS`) declared on the one handle `cdll`.  Its
    methods are drop-ins for the twins `_kernel_py.integrate_forced`,
    `_kernel_py.sample_knots` and `_kernel_py.bound_phase` (same arguments,
    same results) and, but for
    returning None where its exact range ends and returning a view that
    the next call overwrites, `_kernel_py.format_table`.
    Raises ImportError when the library was built for another ABI version."""

    def __init__(self, path: str):
        self.cdll = lib = ctypes.CDLL(path)
        version = lib.fhn_abi_version()   # ctypes' default restype is int
        if version != KERNEL_ABI:
            raise ImportError(
                f"{path} has kernel ABI {version}, expected {KERNEL_ABI}: rebuild it "
                "with `python setup.py build_ext --inplace`"
            )
        for name, restype, argtypes in ENTRY_POINTS:
            func = getattr(lib, name)
            func.restype, func.argtypes = restype, argtypes
        self._format_buffers = threading.local()
        self._grid = (None, None, 0)   # the last grid of bound_phase, its C copy's address

    def integrate_forced(self, *args):
        """The forced kernel `fhn_integrate`."""
        out = _Out()
        try:
            status = self.cdll.fhn_integrate(*args, ctypes.byref(out))
            if status < 0:
                raise MemoryError("forced kernel could not grow its buffers")
            knots = _copy(out.knots, (out.n_knots, KNOT_WIDTH))
            spikes = _copy(out.spikes, (out.n_spikes,))
            minima = _copy(out.minima, (out.n_minima,))
            stats = {name: getattr(out, name) for name in _kernel_py.STAT_NAMES}
        finally:
            self.cdll.fhn_free(ctypes.byref(out))
        return status, knots, spikes, minima, stats, out.sq_integral

    def sample_knots(self, knots, ts, deriv):
        """The dense output `fhn_sample`; the times ts must be sorted."""
        knots = np.ascontiguousarray(knots, dtype=float)
        # fhn_sample reads rows of KNOT_WIDTH and the knot after each time's interval start
        if knots.ndim != 2 or knots.shape[1] != KNOT_WIDTH or len(knots) < 2:
            raise ValueError(f"dense output needs an n x {KNOT_WIDTH} knot table, n >= 2")
        ts = np.ascontiguousarray(ts, dtype=float)
        out = np.empty((ts.size, 2))
        self.cdll.fhn_sample(knots.ctypes.data, len(knots), ts.ctypes.data, ts.size,
                             bool(deriv), out.ctypes.data)
        return out

    def bound_phase(self, coeffs, bound: float, offsets) -> float | None:
        """The lower-bound phase `fhn_bound_phase` on the grid offsets.  A
        grid's address is taken on its first call and kept with it until
        another grid comes, since reading it costs 2 µs of a 5 µs call: the
        one grid of `manifolds` is looked up once."""
        grid, data, address = self._grid
        if grid is not offsets:
            data = np.ascontiguousarray(offsets, dtype=float)
            address = data.ctypes.data
            self._grid = offsets, data, address   # one tuple, so threads see a whole entry
        th = ctypes.c_double()
        status = self.cdll.fhn_bound_phase(*coeffs, bound, address, data.size, ctypes.byref(th))
        return None if status else th.value

    def format_table(self, table, spec: str, sep: str, end: str) -> memoryview | None:
        """The exact table formatter `fhn_format_table`, or None when a value
        of the table lies outside its exact range.  It writes into an
        uninitialised buffer of `format_capacity` bytes and returns a view of
        the bytes written, so the table is never copied.  Each thread keeps
        its buffer (up to FORMAT_KEEP bytes) for its next call, which then
        overwrites the view, so a caller that holds two tables copies the
        first.  A kept buffer takes no page faults, where a new one per
        table cost a long run of `simulate` calls 40-110 faults per call
        and about 6% of its calls per second.
        Threads never share one, since ctypes releases the GIL for the call."""
        values = np.ascontiguousarray(table, dtype=float)
        n, k = values.shape
        spec_b, sep_b, end_b = spec.encode(), sep.encode(), end.encode()
        cap = format_capacity(n, k, sep_b, end_b)
        buf = getattr(self._format_buffers, "buf", None)
        if buf is None or buf.size < cap:
            buf = np.empty(cap, np.uint8)
            if cap <= FORMAT_KEEP:
                self._format_buffers.buf = buf
        size = self.cdll.fhn_format_table(values.ctypes.data, n, k, spec_b, sep_b, end_b,
                                          buf.ctypes.data, buf.size)
        return memoryview(buf)[:size] if size >= 0 else None


def _find_library() -> Library | None:
    spec = importlib.util.find_spec("fhnburst._kernel")
    try:
        return Library(spec.origin) if spec else None
    except (OSError, AttributeError, ImportError):  # unloadable or stale library
        return None


_IMPL = _find_library() or _kernel_py


def active_backend() -> str:
    """'compiled' when the C kernel is in use, else 'pure'."""
    return "pure" if _IMPL is _kernel_py else "compiled"


def sample_knots(knots, ts, deriv: bool) -> np.ndarray:
    """`_kernel_py.sample_knots(knots, ts, deriv)` on the active backend: the
    states (or with deriv their time derivatives) of an n x KNOT_WIDTH knot
    table's dense output at the sorted times ts, as an m x 2 array."""
    return _IMPL.sample_knots(knots, ts, deriv)


def format_table(table, spec: str, sep: str, end: str) -> bytes | memoryview:
    """`_kernel_py.format_table(table, spec, sep, end)`: the ASCII bytes of
    an n x k float table, each row its values formatted with `spec` ("%.17g"
    and "%.2f" have an exact C path), joined by `sep` and followed by `end`.
    The C formatter writes them when it covers every value, and they come
    as a view of this thread's format buffer, valid until the thread's next
    call (see `Library.format_table`); else the twin writes the whole table
    as bytes."""
    data = _IMPL.format_table(table, spec, sep, end)
    return _kernel_py.format_table(table, spec, sep, end) if data is None else data


def bound_phase(coeffs, bound: float, offsets) -> float | None:
    """`_kernel_py.bound_phase(coeffs, bound, offsets)` on the active
    backend: the offset where the quintic with coefficients a1..a5 first
    reaches the bound, scanning the finite offsets from the saddle outward
    and bisecting that bracket, or None when no offset lies at or below
    the bound."""
    return _IMPL.bound_phase(coeffs, bound, offsets)


def integrate_forced(
    params: ModelParams,
    forcing: Forcing,
    y0: tuple[float, float],
    t_span: tuple[float, float],
    config: IntegratorConfig | None = None,
    detect_events: bool = True,
) -> Trajectory:
    """Integrate the planar forced system on the active backend.

    With detect_events (the measurement run) the trajectory holds every
    knot, its `spikes` and `minima` are the kernel's upward crossings of
    x = 1 and local x-minima, and `sq_integral` is its integral of x^2 + y^2
    over the knots.  Without it (the burn-in run) it holds only the end
    state.  No step exceeds T/64; `stats` are the kernel's step counters.
    """
    cfg = config or IntegratorConfig()
    t0, t_end = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t_end) and t_end > t0):
        raise ValueError("t_span must be finite and increasing")

    status, knots, spikes, minima, stats, sq_integral = _IMPL.integrate_forced(
        params.a, params.b, params.eps, forcing.E, forcing.omega,
        t0, t_end, float(y0[0]), float(y0[1]),
        cfg.rel_tol, cfg.abs_tol, cfg.max_steps, detect_events,
    )
    traj = None
    n = len(knots)
    if n >= 2 or (n == 1 and status == 0):
        traj = Trajectory(knots, spikes, minima, stats, sq_integral)
    t_fin = float(knots[-1, 0]) if n else t0  # the end state is the last row

    if status == 1:
        raise StepSizeUnderflow(f"step size underflow at t={t_fin!r}", traj)
    if status == 2:
        raise MaxStepsExceeded(f"exceeded {cfg.max_steps} steps at t={t_fin!r}", traj)
    if status == 3:
        raise NonFiniteState(f"state became non-finite near t={t_fin!r}", traj)
    return traj
