"""The C table formatter (`fhn_format_table` in _kernel.c) against its twin,
the `%` call of `_kernel_py.format_table`: the same text on every value the
exact path covers, and a refusal of any table holding another value."""
import math
import re
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhnburst import _kernel_py, fastpath

SPECS = ("%.17g", "%.2f")


def covered(v, spec):
    """The exact path's range: +-0, nan, +-inf and, as real numbers,
    10^-16 <= |v| < 10^16 (%.17g; the double 1e-16 lies just below 10^-16)
    or |v| < 10^15 (%.2f)."""
    if v == 0.0 or not math.isfinite(v):
        return True
    return 1e-16 < abs(v) < 1e16 if spec == "%.17g" else abs(v) < 1e15


def check(c_formatter, values, spec, k=1, sep=",", end="\n"):
    table = np.asarray(values, dtype=float).reshape(-1, k)
    got = c_formatter(table, spec, sep, end)
    if all(covered(v, spec) for v in table.ravel().tolist()):
        assert got == _kernel_py.format_table(table, spec, sep, end)
    else:
        assert got is None


def neighbours(v, count=3):
    """The `count` doubles on each side of v, v included."""
    out = [v]
    lo = hi = v
    for _ in range(count):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


EDGES = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, 2.2250738585072014e-308, 1e-300, 1e20, 1.7976931348623157e308,
    0.5, 0.125, 0.375, 0.625, -0.875, 0.005, 1.005, 2.675, -0.001, 0.1, 1 / 3,
    1234567890123456.25, 1234567890123456.75, -2000000000000000.25,
    *neighbours(1e-16), *neighbours(1e15), *neighbours(1e16),
    *(s * v for p in range(-20, 20) for v in neighbours(10.0 ** p) for s in (1, -1)),
]


@pytest.mark.parametrize("spec", SPECS)
def test_edge_values(c_formatter, spec):
    for v in EDGES:
        check(c_formatter, [v], spec)


@pytest.mark.parametrize("spec", SPECS)
def test_empty_table(c_formatter, spec):
    assert c_formatter(np.empty((0, 3)), spec, ",", "\n") == b""


def test_constants_match_source():
    # fastpath sizes the buffer from the C formatter's constants: checked
    # without a compiler, with the derivation of the slack in its comment
    source = Path(fastpath.__file__).with_name("_kernel.c").read_text(encoding="utf-8")
    defines = {name: int(value) for name, value in
               re.findall(r"^#define (FMT_\w+) (\d+)\b", source, re.M)}
    assert defines["FMT_MAX_LEN"] == fastpath.FORMAT_WIDTH
    assert defines["FMT_SLACK"] == fastpath.FORMAT_SLACK
    # "-", 16 integer digits, "." and a block of fraction digits
    assert 1 + 16 + 1 + defines["FMT_BLOCK"] == defines["FMT_MAX_LEN"] + defines["FMT_SLACK"]


@pytest.mark.parametrize("spec, value", [("%.17g", -1.2345678901234567e-16),
                                         ("%.2f", -999999999999999.9)])
@pytest.mark.parametrize("sep, end", [(",", "\n"), (", ", ";\n"), ("", "")])
def test_documented_capacity(c_library, spec, value, sep, end):
    # a table of the spec's longest texts fits exactly format_capacity
    # bytes; a one-row table one byte short of it is refused
    sep_b, end_b = sep.encode(), end.encode()

    def write(table, cap):
        buf = np.empty(cap, np.uint8)
        size = c_library.cdll.fhn_format_table(table.ctypes.data, *table.shape, spec.encode(),
                                               sep_b, end_b, buf.ctypes.data, cap)
        return None if size < 0 else bytes(buf[:size])

    assert len(spec % value) == {"%.17g": fastpath.FORMAT_WIDTH, "%.2f": 19}[spec]
    table = np.full((3, 4), value)
    text = _kernel_py.format_table(table, spec, sep, end)
    assert write(table, fastpath.format_capacity(3, 4, sep_b, end_b)) == text
    assert write(table[:1], fastpath.format_capacity(1, 4, sep_b, end_b) - 1) is None


def test_threads_keep_their_own_buffer(c_formatter):
    # ctypes releases the GIL during the C call, so two threads formatting
    # at once must not write into one buffer
    tables = [np.full((2000, 4), v) for v in (1.5, -2.25)]
    want = [_kernel_py.format_table(t, "%.17g", ",", "\n") for t in tables]

    def same_bytes(i):
        return all(c_formatter(tables[i], "%.17g", ",", "\n") == want[i] for _ in range(50))

    with ThreadPoolExecutor(2) as pool:
        assert all(pool.map(same_bytes, [0, 1] * 4))


def test_kept_buffer_is_reused(c_formatter):
    # a thread's next table overwrites the view of its last one
    first = c_formatter(np.full((3, 2), 1.25), "%.2f", ",", "\n")
    assert first == b"1.25,1.25\n" * 3
    c_formatter(np.full((3, 2), 7.5), "%.2f", ",", "\n")
    assert first == b"7.50,7.50\n" * 3


def test_other_spec_refused(c_formatter):
    assert c_formatter(np.ones((2, 2)), "%.3f", ",", "\n") is None


def _signed(values):
    return st.tuples(values, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


DOUBLES = _signed(st.one_of(
    st.floats(),                                     # any double, nan and inf too
    st.floats(min_value=0.0, max_value=1e16),        # mostly inside the exact range
    # exact ties of the last digit kept: %.17g on [1e15, 2^51), %.2f anywhere
    st.builds(lambda i, f: i + f, st.integers(10**15, 2**51 - 1), st.sampled_from((0.25, 0.75))),
    st.builds(lambda i, f: i + f, st.integers(0, 2**40),
              st.sampled_from((0.125, 0.375, 0.625, 0.875))),
))


@given(values=st.lists(DOUBLES, min_size=1, max_size=6), spec=st.sampled_from(SPECS))
@settings(max_examples=400, deadline=None)
def test_matches_twin(c_formatter, values, spec):
    for v in values:
        check(c_formatter, [v], spec, end="")
    check(c_formatter, values, spec, k=len(values), sep=", ", end=";\n")
    check(c_formatter, values + values, spec, k=2, sep=",", end=" ")
