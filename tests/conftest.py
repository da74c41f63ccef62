import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest

from fhnburst import ModelParams, fastpath
from fhnburst.sweep import SweepSpec, run_sweep

from atlas_pin import DESK_E, DESK_OMEGA


def pytest_report_header(config):
    """Name the backend the run measures: a run without the built library
    tests the pure twins, and its wall time is theirs."""
    return f"fhnburst backend: {fastpath.active_backend()} (KERNEL_ABI {fastpath.KERNEL_ABI})"


def pytest_terminal_summary(terminalreporter, config):
    """-q prints no header, so a quiet run names the backend at its end."""
    if config.get_verbosity() < 0:
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture(scope="session")
def params():
    return ModelParams()


@pytest.fixture(scope="session")
def c_compiler():
    """The C compiler that setup.py would use; skips when there is none."""
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the kernel")
    return cc


@pytest.fixture(scope="session")
def kernel_library(request, tmp_path_factory):
    """Path of the C forced kernel's shared library: the loaded in-place
    build, else one built into a temporary directory through setup.py.
    Fails when a C compiler exists but no kernel loads (a stale in-place
    build included); skips only when there is no compiler."""
    spec = importlib.util.find_spec("fhnburst._kernel")
    if fastpath.active_backend() == "compiled":
        return spec.origin
    assert spec is None, (
        "fhnburst._kernel is built but does not load; if it is a stale build, "
        "rerun `python setup.py build_ext --inplace`"
    )
    request.getfixturevalue("c_compiler")
    out = tmp_path_factory.mktemp("kernel")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out), "--build-temp", str(out / "tmp")],
        cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True,
    )
    libs = sorted((out / "fhnburst").glob("_kernel.*"))
    assert proc.returncode == 0 and libs, proc.stdout + proc.stderr
    return str(libs[0])


@pytest.fixture(scope="session")
def c_library(kernel_library):
    """The C library at `kernel_library`, opened once."""
    return fastpath.Library(kernel_library)


@pytest.fixture(scope="session")
def c_kernel(c_library):
    """The C forced kernel, as a drop-in for `_kernel_py.integrate_forced`."""
    return c_library.integrate_forced


@pytest.fixture(scope="session")
def c_formatter(c_library):
    """The C table formatter: `_kernel_py.format_table`'s bytes, or None when
    a value lies outside its exact range."""
    return c_library.format_table


@pytest.fixture
def c_formatter_calls(c_library, c_formatter, monkeypatch):
    """Make the C library fastpath's backend, and list what each call of its
    formatter returns."""
    returned = []

    def record(*args):
        returned.append(c_formatter(*args))
        return returned[-1]

    monkeypatch.setattr(c_library, "format_table", record)
    monkeypatch.setattr(fastpath, "_IMPL", c_library)
    return returned


@pytest.fixture(scope="session")
def desk_grids(params):
    """The 20x20 desk-scale diagram, swept with 1 and with 4 workers, and
    the two sweeps' wall times in seconds."""
    spec1 = SweepSpec(omega_range=DESK_OMEGA, e_range=DESK_E, workers=1)
    spec4 = SweepSpec(omega_range=DESK_OMEGA, e_range=DESK_E, workers=4)
    t0 = time.time()
    grid1 = run_sweep(spec1, params)
    t1 = time.time()
    grid4 = run_sweep(spec4, params)
    t2 = time.time()
    return grid1, grid4, (t1 - t0, t2 - t1)
