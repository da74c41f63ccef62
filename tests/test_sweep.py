import concurrent.futures
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import fhnburst.sweep as sweep_mod
from fhnburst import _kernel_py, burst, fastpath
from fhnburst.burst import burst_metrics
from fhnburst.errors import IncompleteGrid, NewtonDiverged, NonFiniteState
from fhnburst.geometry import classify_region
from fhnburst.integrator import IntegratorConfig
from fhnburst.model import Forcing, ModelParams
from fhnburst.sweep import (
    CellResult,
    SweepGrid,
    SweepSpec,
    compact_checkpoint,
    grid_from_rows,
    load_checkpoint,
    load_grid_csv,
    run_sweep,
    spec_fingerprint,
    write_grid_csv,
)

from child_env import child_env

SMALL = dict(omega_range=(0.018, 0.028, 0.005), e_range=(0.46, 0.52, 0.03))


class TestSweepSpec:
    def test_axes(self):
        spec = SweepSpec(omega_range=(0.01, 0.04, 0.01), e_range=(0.4, 0.5, 0.05))
        assert np.allclose(spec.omegas, [0.01, 0.02, 0.03, 0.04])
        assert np.allclose(spec.e_values, [0.4, 0.45, 0.5])
        assert spec.cell_count == 12

    def test_production_mesh_shape(self):
        # a production-scale mesh is ~1.5M cells; only its shape is checked
        spec = SweepSpec(omega_range=(0.003, 0.1, 5e-5), e_range=(0.3, 0.7, 5e-4))
        assert len(spec.omegas) == 1941
        assert len(spec.e_values) == 801

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega_range=(0.1, 0.01, 0.01), e_range=(0.4, 0.5, 0.05)),
            dict(omega_range=(0.01, 0.04, 0.0), e_range=(0.4, 0.5, 0.05)),
            dict(omega_range=(0.01, 0.04, 0.01), e_range=(0.4, 0.5, 0.05), workers=0),
            dict(omega_range=(0.01, 0.04, 0.01), e_range=(0.4, 0.5, 0.05),
                 metrics=("bogus",)),
            # an axis with a cell outside Forcing's domain, or a non-finite
            # end, would stop run_sweep at its first cell
            dict(omega_range=(0.0, 0.02, 0.01), e_range=(0.5, 0.55, 0.05)),
            dict(omega_range=(-0.01, 0.02, 0.01), e_range=(0.5, 0.55, 0.05)),
            dict(omega_range=(0.01, 0.02, 0.01), e_range=(-0.05, 0.05, 0.05)),
            dict(omega_range=(0.01, math.inf, 0.01), e_range=(0.5, 0.55, 0.05)),
            dict(omega_range=(0.01, 0.02, math.inf), e_range=(0.5, 0.55, 0.05)),
            dict(omega_range=(0.01, 0.02, 0.01), e_range=(-math.inf, 0.55, 0.05)),
            # a sweep that would compute nothing
            dict(omega_range=(0.01, 0.02, 0.01), e_range=(0.5, 0.55, 0.05), metrics=()),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SweepSpec(**kwargs)

    def test_e_axis_may_start_at_zero(self):
        spec = SweepSpec(omega_range=(0.01, 0.02, 0.01), e_range=(0.0, 0.05, 0.05))
        assert spec.e_values[0] == 0.0


class TestRunSweep:
    def test_single_cell_matches_pipeline(self, params, capsys):
        f = Forcing(E=0.5, omega=0.02)
        spec = SweepSpec(omega_range=(0.02, 0.0201, 0.01), e_range=(0.5, 0.501, 0.01))
        assert spec.cell_count == 1
        grid = run_sweep(spec, params)
        cell = grid.cells[0]
        m = burst_metrics(params, f)
        assert cell.status == "ok"
        assert cell.spike_count == m.spike_count
        assert cell.l2 == m.l2                     # bit-exact
        assert cell.est_count == m.est_count
        assert cell.region == classify_region(params, f)
        # `fhnburst simulate` measures its drive with the same function
        from fhnburst.cli import main

        assert main(["simulate", "--E", "0.5", "--omega", "0.02"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["spike_count"], doc["l2"], doc["est_count"], doc["region"]) == (
            cell.spike_count, cell.l2, cell.est_count, cell.region)

    def test_worker_count_invariance(self, params):
        spec1 = SweepSpec(workers=1, **SMALL)
        spec2 = SweepSpec(workers=2, **SMALL)
        csv1 = run_sweep(spec1, params).to_csv()
        csv2 = run_sweep(spec2, params).to_csv()
        assert csv1 == csv2

    def test_resume_byte_identical(self, params, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        spec = SweepSpec(workers=1, **SMALL)
        full = run_sweep(spec, params, checkpoint_path=ck).to_csv()
        # simulate a crash: keep the header plus the first three records
        lines = open(ck).read().splitlines()
        with open(ck, "w") as fh:
            fh.write("\n".join(lines[:4]) + "\n")
        resumed = run_sweep(spec, params, checkpoint_path=ck)
        assert resumed.to_csv() == full
        # compacted log holds every cell in index order
        recs = open(ck).read().splitlines()
        assert len(recs) == 1 + spec.cell_count
        assert [json.loads(r)["i"] for r in recs[1:]] == list(range(spec.cell_count))

    def test_checkpoint_mismatch(self, params, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        spec = SweepSpec(workers=1, **SMALL)
        run_sweep(spec, params, checkpoint_path=ck)
        other = SweepSpec(workers=1, omega_range=(0.018, 0.028, 0.005),
                          e_range=(0.40, 0.46, 0.03))
        with pytest.raises(ValueError):
            run_sweep(other, params, checkpoint_path=ck)

    def test_resume_across_backends(self, params, c_library, tmp_path, monkeypatch):
        # the kernels are bit-identical, so a checkpoint written on one resumes
        # on the other into the same CSV
        ck = str(tmp_path / "ck.jsonl")
        spec = SweepSpec(workers=1, **SMALL)
        monkeypatch.setattr(fastpath, "_IMPL", c_library)
        full = run_sweep(spec, params, checkpoint_path=ck).to_csv()
        lines = open(ck).read().splitlines()
        with open(ck, "w") as fh:
            fh.write("\n".join(lines[:4]) + "\n")
        monkeypatch.setattr(fastpath, "_IMPL", _kernel_py)
        assert run_sweep(spec, params, checkpoint_path=ck).to_csv() == full

    def test_torn_checkpoint_resumes(self, params, tmp_path, monkeypatch):
        # a crash can cut the log at any byte; every cut must resume into the
        # same CSV and the same compacted log
        ck = tmp_path / "ck.jsonl"
        spec = SweepSpec(workers=1, **SMALL)
        grid = run_sweep(spec, params, checkpoint_path=str(ck))
        full, log = grid.to_csv(), ck.read_bytes()
        cells = dict(enumerate(grid.cells))
        monkeypatch.setattr(sweep_mod, "_compute_cell", lambda args: (args[0], cells[args[0]]))
        monkeypatch.setattr(sweep_mod.os, "fsync", lambda fd: None)
        for cut in range(len(log)):
            ck.write_bytes(log[:cut])
            assert run_sweep(spec, params, checkpoint_path=str(ck)).to_csv() == full, cut
            assert ck.read_bytes() == log, cut

    def test_domain_error_cell_recorded(self):
        # fold thresholds need b*(a + 2/3) > 1: the region fails in every cell,
        # which must be recorded per cell instead of aborting the sweep
        spec = SweepSpec(workers=1, omega_range=(0.02, 0.025, 0.005), e_range=(0.5, 0.6, 0.1))
        grid = run_sweep(spec, ModelParams(a=0.2, b=0.5))
        assert grid.complete
        assert {c.status for c in grid.cells} == {"err:DomainError"}
        assert all(c.region is None and c.spike_count is None for c in grid.cells)

    def test_failed_cells_recorded(self, params, monkeypatch):
        real = burst_metrics

        def flaky(p, forcing, config=None, **kw):
            if abs(forcing.omega - 0.023) < 1e-12:
                raise NonFiniteState("synthetic failure")
            return real(p, forcing, config, **kw)

        monkeypatch.setattr(sweep_mod, "burst_metrics", flaky)
        spec = SweepSpec(workers=1, **SMALL)
        grid = run_sweep(spec, params)
        statuses = {c.status for c in grid.cells}
        assert "err:NonFiniteState" in statuses
        failed = [c for c in grid.cells if c.status != "ok"]
        assert all(c.l2 is None and c.spike_count is None for c in failed)
        assert all(c.region is not None for c in failed)   # closed-form part still fills
        counts = grid.value_array("spike_count")
        assert np.isnan(counts).sum() == len(failed)

    def test_failed_estimate_keeps_measurements(self, params, monkeypatch):
        # an estimate that cannot be made leaves est_count empty; the cell is
        # ok and keeps the spike counts and L2 norms that its drive measured
        measured = run_sweep(SweepSpec(workers=1, metrics=("spike_count", "l2"), **SMALL),
                             params)

        def diverged(*args, **kw):
            raise NewtonDiverged("synthetic failure")

        monkeypatch.setattr(burst, "solve_expansion", diverged)
        grid = run_sweep(SweepSpec(workers=1, **SMALL), params)
        assert {c.status for c in grid.cells} == {"ok"}
        assert all(c.est_count is None for c in grid.cells)
        assert [(c.spike_count, c.l2) for c in grid.cells] == [
            (c.spike_count, c.l2) for c in measured.cells]

    def test_checkpoint_flushed_and_progress_reported(self, params, tmp_path, monkeypatch):
        # every DEFAULT_FLUSH_EVERY records the log reaches the file, and
        # progress sees each computed cell once, after its record
        ck = tmp_path / "ck.jsonl"
        monkeypatch.setattr(sweep_mod, "DEFAULT_FLUSH_EVERY", 3)
        spec = SweepSpec(workers=1, omega_range=(0.01, 0.04, 0.01),
                         e_range=(0.40, 0.56, 0.04), metrics=("region",))
        seen = []

        def progress(idx, cell):
            seen.append((idx, cell))
            if len(seen) % 3 == 0:
                records = ck.read_text().splitlines()[1:]
                assert [json.loads(r)["i"] for r in records] == [i for i, _ in seen]

        grid = run_sweep(spec, params, checkpoint_path=str(ck), progress=progress)
        assert spec.cell_count == 20
        assert seen == list(enumerate(grid.cells))

    def test_pool_sized_by_pending_cells(self, params, monkeypatch):
        sizes, chunks = [], []

        class SerialPool:
            """Records its requested size and each chunk's length, and runs
            each chunk in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def submit(self, fn, chunk):
                assert len(chunk) >= 1
                chunks.append(len(chunk))
                future = concurrent.futures.Future()
                future.set_result(fn(chunk))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        # run_sweep imports concurrent.futures when it needs a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        axes = dict(omega_range=(0.01, 0.02, 0.01), e_range=(0.45, 0.5, 0.05),
                    metrics=("region",))
        wide = run_sweep(SweepSpec(workers=64, **axes), params)
        assert wide.spec.cell_count == 4
        assert sizes == [4]
        assert wide.to_csv() == run_sweep(SweepSpec(workers=1, **axes), params).to_csv()
        assert sizes == [4]     # one worker maps serially, without a pool
        assert chunks == [1] * 4

        # 1,600 cells at 2 workers: n // (8 workers) = 100, capped at 64
        axes = dict(omega_range=(0.01, 0.04, 0.03 / 39), e_range=(0.4, 0.55, 0.15 / 39),
                    metrics=("region",))
        chunks.clear()
        capped = run_sweep(SweepSpec(workers=2, **axes), params)
        assert capped.spec.cell_count == 1600
        assert sizes[-1] == 2
        assert max(chunks) == sweep_mod.MAX_CHUNK_CELLS and sum(chunks) == 1600
        assert capped.to_csv() == run_sweep(SweepSpec(workers=1, **axes), params).to_csv()

    def test_region_only_skips_simulation(self, params, monkeypatch):
        calls = []

        def counting(*args, **kw):
            calls.append(args[1])
            return burst_metrics(*args, **kw)

        monkeypatch.setattr(sweep_mod, "burst_metrics", counting)
        region_only = run_sweep(SweepSpec(workers=1, metrics=("region",), **SMALL), params)
        assert calls == []
        full = run_sweep(SweepSpec(workers=1, **SMALL), params)
        assert len(calls) == len(full.cells)
        assert [c.region for c in region_only.cells] == [c.region for c in full.cells]
        assert {c.status for c in region_only.cells} == {"ok"}
        assert all(c.spike_count is None and c.l2 is None and c.est_count is None
                   for c in region_only.cells)


# a 2x2 sweep whose one metric, the region label, needs no simulation
TINY = dict(omega_range=(0.02, 0.03, 0.01), e_range=(0.5, 0.55, 0.05), metrics=("region",))


def _tiny_spec(*metrics):
    return SweepSpec(workers=1, **{**TINY, "metrics": metrics})


def _drop(key):
    def edit(rec):
        del rec[key]
        return rec
    return edit


def _with_index(i):
    return lambda rec: {**rec, "i": i}


def _with(**fields):
    return lambda rec: {**rec, **fields}


class TestMalformedCheckpoint:
    """A checkpoint line of the wrong shape is refused with a ValueError that
    names the line, before any cell runs and without touching the log."""

    @staticmethod
    def _log(params, tmp_path, header=None, record=None, spec=None) -> Path:
        """The header and first record of a finished sweep's log (by default
        TINY's), the header replaced by `header` and the record edited by
        `record`."""
        ck = tmp_path / "ck.jsonl"
        run_sweep(spec or SweepSpec(workers=1, **TINY), params, checkpoint_path=str(ck))
        head, first = ck.read_text().splitlines()[:2]
        rec = json.loads(first)
        lines = [head if header is None else header,
                 first if record is None else json.dumps(record(rec))]
        ck.write_text("\n".join(lines) + "\n")
        return ck

    @pytest.mark.parametrize("header, record, match", [
        pytest.param("[]", None, "line 1: header is not an object", id="header-array"),
        pytest.param('{"format": 1}', None, "line 1: header is not an object",
                     id="header-without-hash"),
        pytest.param("{", None, "line 1: ", id="header-not-json"),
        pytest.param(None, lambda rec: [rec], "line 2: record is not an object",
                     id="record-array"),
        pytest.param(None, _drop("E"), "line 2: record lacks E", id="record-without-E"),
        pytest.param(None, _drop("i"), "line 2: record lacks i", id="record-without-i"),
        pytest.param(None, _with_index(99), r"line 2: cell index 99 is not an integer in \[0, 4\)",
                     id="index-past-grid"),
        pytest.param(None, _with_index(-1), "line 2: cell index -1", id="index-negative"),
        pytest.param(None, _with_index(1.0), "line 2: cell index 1.0", id="index-float"),
        pytest.param(None, _with_index(True), "line 2: cell index True", id="index-bool"),
        pytest.param(None, _with_index("0"), "line 2: cell index '0'", id="index-string"),
        pytest.param(None, _with(omega=9.9, E=9.9, spike_count="many"),
                     "line 2: spike_count of the wrong type", id="count-string"),
        pytest.param(None, _with(spike_count=True), "line 2: spike_count of the wrong type",
                     id="count-bool"),
        pytest.param(None, _with(est_count=3.0), "line 2: est_count of the wrong type",
                     id="estimate-float"),
        pytest.param(None, _with(l2=1, region=2), "line 2: l2, region of the wrong type",
                     id="l2-int-region-int"),
        pytest.param(None, _with(status=None), "line 2: status of the wrong type",
                     id="status-null"),
        pytest.param(None, _with(omega="0.02"), "line 2: omega of the wrong type",
                     id="omega-string"),
        pytest.param(None, _with(omega=9.9, E=9.9),
                     r"line 2: cell 0 is at omega=0\.02, E=0\.5, not at omega=9\.9, E=9\.9",
                     id="off-grid"),
        pytest.param(None, _with(E=None), r"line 2: cell 0 is at .* not at omega=0\.02, E=None",
                     id="E-null"),
        pytest.param(None, _with_index(1),
                     r"line 2: cell 1 is at omega=0\.02, E=0\.55, not at omega=0\.02, E=0\.5",
                     id="another-cell"),
        pytest.param(None, _with(status="bogus", region=None),
                     "line 2: status 'bogus' is not ok or err:<Name>", id="status-bogus"),
        pytest.param(None, _with(status="err:"), "line 2: status 'err:' is not ok",
                     id="status-err-without-name"),
        pytest.param(None, _with(status="err:No Saddle"), "line 2: status 'err:No Saddle'",
                     id="status-err-not-identifier"),
        pytest.param(None, _with(status="OK"), "line 2: status 'OK'", id="status-upper-case"),
        pytest.param(None, _with(status="err:NoSaddle", spike_count=3),
                     "line 2: failed cell has spike_count", id="err-with-count"),
        pytest.param(None, _with(status="err:NoSaddle", l2=1.5, est_count=2),
                     "line 2: failed cell has l2, est_count", id="err-with-l2-estimate"),
    ])
    def test_refused(self, params, tmp_path, header, record, match):
        ck = self._log(params, tmp_path, header, record)
        log = ck.read_bytes()
        with pytest.raises(ValueError, match=match):
            run_sweep(SweepSpec(workers=1, **TINY), params, checkpoint_path=str(ck))
        assert ck.read_bytes() == log

    def test_failed_cell_resumes(self, params, tmp_path):
        # an err:<Name> record with its region is a cell the sweep can write
        ck = self._log(params, tmp_path, record=_with(status="err:NoSaddle"))
        grid = run_sweep(SweepSpec(workers=1, **TINY), params, checkpoint_path=str(ck))
        assert grid.to_csv().splitlines()[1] == "0.02,0.5,err:NoSaddle,,,,II"

    @pytest.mark.parametrize("metrics, record, match", [
        pytest.param(("spike_count", "l2"), _with(spike_count=None, l2=None),
                     "line 2: ok cell lacks spike_count, l2", id="count-and-l2"),
        pytest.param(("spike_count", "l2"), _with(l2=None), "line 2: ok cell lacks l2",
                     id="l2"),
        pytest.param(("region",), _with(region=None), "line 2: ok cell lacks region",
                     id="region"),
        pytest.param(("spike_count", "l2", "est_count", "region"),
                     _with(spike_count=None, est_count=None, region=None),
                     "line 2: ok cell lacks spike_count, region", id="all-metrics"),
    ])
    def test_ok_record_without_an_asked_metric_refused(self, params, tmp_path, metrics,
                                                        record, match):
        # a sweep writes no null there, so the record is refused before it
        # could resume into a row with empty fields
        spec = _tiny_spec(*metrics)
        ck = self._log(params, tmp_path, record=record, spec=spec)
        log = ck.read_bytes()
        with pytest.raises(ValueError, match=match):
            run_sweep(spec, params, checkpoint_path=str(ck))
        assert ck.read_bytes() == log

    @pytest.mark.parametrize("metrics, record, row", [
        pytest.param(("spike_count", "l2", "est_count", "region"), _with(est_count=None),
                     "0.02,0.5,ok,3,1.25,,II", id="estimator-failure"),
        pytest.param(("spike_count", "l2"), _with(region=None, est_count=None),
                     "0.02,0.5,ok,3,1.25,,", id="metrics-not-asked"),
    ])
    def test_ok_record_with_a_legal_null_resumes(self, params, tmp_path, metrics, record, row):
        # a null est_count records an estimator failure, and a metric the
        # spec does not ask for is always null
        spec = _tiny_spec(*metrics)
        ck = self._log(params, tmp_path, record=lambda rec: record(
            {**rec, "spike_count": 3, "l2": 1.25}), spec=spec)
        grid = run_sweep(spec, params, checkpoint_path=str(ck))
        assert grid.to_csv().splitlines()[1] == row

    def test_malformed_middle_line(self, params, tmp_path):
        # only the last line may be torn; a broken line before it is refused
        ck = self._log(params, tmp_path)
        ck.write_text(ck.read_text() + "{oops\n" + ck.read_text().splitlines()[1] + "\n")
        with pytest.raises(ValueError, match="line 3: "):
            run_sweep(SweepSpec(workers=1, **TINY), params, checkpoint_path=str(ck))

    def _sweep_command_error(self, params, tmp_path, capsys, record) -> str:
        """The error message of `fhnburst sweep --checkpoint` on a TINY log
        whose first record is edited by `record`: exit 1, one JSON line on
        stderr, no CSV written and the log untouched."""
        from fhnburst.cli import main

        ck = self._log(params, tmp_path, record=record)
        log = ck.read_bytes()
        out = tmp_path / "grid.csv"
        spec = tmp_path / "sweep.cfg"
        spec.write_text("omega_lo = 0.02\nomega_hi = 0.03\nomega_step = 0.01\n"
                        "e_lo = 0.5\ne_hi = 0.55\ne_step = 0.05\nmetrics = region\n"
                        f"out = {out}\n")
        assert main(["sweep", "--spec", str(spec), "--workers", "1",
                     "--checkpoint", str(ck)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)["error"]
        assert err["type"] == "ValueError"
        assert not out.exists() and ck.read_bytes() == log
        return err["message"]

    def test_sweep_command_reports_it(self, params, tmp_path, capsys):
        message = self._sweep_command_error(params, tmp_path, capsys, _with_index(-1))
        assert message.startswith("checkpoint line 2: cell index -1")

    def test_sweep_command_reports_off_grid_record(self, params, tmp_path, capsys):
        message = self._sweep_command_error(params, tmp_path, capsys, _with(omega=9.9, E=9.9))
        assert message.startswith("checkpoint line 2: cell 0 is at omega=0.02, E=0.5, not at")


# a `fhnburst sweep` of SMALL that sends a signal to the process computing
# cell {index}, before it computes it
_SIGNALLED_SWEEP = """
import os, signal, sys
from fhnburst import cli, sweep

real = sweep._compute_cell

def signalled(args):
    if args[0] == {index}:
        os.kill(os.getpid(), signal.{signal})
    return real(args)

sweep._compute_cell = signalled
sys.exit(cli.main(sys.argv[1:]))
"""


def _sweep_argv(tmp_path, workers):
    (o_lo, o_hi, o_step), (e_lo, e_hi, e_step) = SMALL["omega_range"], SMALL["e_range"]
    return ["sweep", "--omega-lo", repr(o_lo), "--omega-hi", repr(o_hi),
            "--omega-step", repr(o_step), "--e-lo", repr(e_lo), "--e-hi", repr(e_hi),
            "--e-step", repr(e_step), "--workers", str(workers),
            "--out", str(tmp_path / "grid.csv"), "--checkpoint", str(tmp_path / "ck.jsonl")]


def _run_signalled_sweep(tmp_path, workers, index, signal_name):
    """Run the signalled sweep in a child interpreter, in a session of its
    own that is killed whole if it outlives its timeout; returns the
    finished process and its wall time in seconds."""
    env = child_env()
    code = _SIGNALLED_SWEEP.format(index=index, signal=signal_name)
    t0 = time.monotonic()
    child = subprocess.Popen([sys.executable, "-c", code] + _sweep_argv(tmp_path, workers),
                             env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        out, err = child.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail(f"the sweep did not end within 30 s of {signal_name} at cell {index}")
    seconds = time.monotonic() - t0
    return subprocess.CompletedProcess(child.args, child.returncode, out, err), seconds


def _logged_cells(tmp_path, params):
    spec = SweepSpec(**SMALL)
    fingerprint = spec_fingerprint(spec, params, IntegratorConfig())
    return load_checkpoint(str(tmp_path / "ck.jsonl"), fingerprint, spec.omegas,
                           spec.e_values, spec.metrics)


class TestInterruptedSweep:
    """A sweep that loses a worker, or is sent SIGTERM, ends at once with
    the records of its finished cells in the log, and a resume completes it
    into the CSV of an uninterrupted sweep."""

    @pytest.fixture(scope="class")
    def uninterrupted(self, params):
        return run_sweep(SweepSpec(workers=1, **SMALL), params)

    def _resume(self, tmp_path, workers):
        from fhnburst import cli

        handler = signal.getsignal(signal.SIGTERM)
        assert cli.main(_sweep_argv(tmp_path, workers)) == 0
        assert signal.getsignal(signal.SIGTERM) is handler
        return (tmp_path / "grid.csv").read_text()

    @pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                        reason="the pool's workers must inherit the stub by fork")
    def test_killed_worker_ends_the_sweep(self, params, tmp_path, uninterrupted):
        proc, seconds = _run_signalled_sweep(tmp_path, workers=2, index=4,
                                             signal_name="SIGKILL")
        assert proc.returncode == 1 and proc.stdout == "", proc.stderr[-2000:]
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr[-2000:]
        error = json.loads(lines[0])["error"]
        assert error["type"] == "WorkerDied"
        left = int(re.search(r"(\d+) of 9 cells", error["message"]).group(1))
        assert seconds < 20.0
        logged = _logged_cells(tmp_path, params)
        assert 4 not in logged and len(logged) == 9 - left >= 1
        assert all(cell == uninterrupted.cells[idx] for idx, cell in logged.items())
        assert not (tmp_path / "grid.csv").exists()
        assert self._resume(tmp_path, workers=2) == uninterrupted.to_csv()

    def test_sigterm_keeps_the_finished_records(self, params, tmp_path, uninterrupted):
        proc, _ = _run_signalled_sweep(tmp_path, workers=1, index=3, signal_name="SIGTERM")
        assert proc.returncode == 143, proc.stderr[-2000:]
        assert proc.stdout == "" and proc.stderr == ""
        logged = _logged_cells(tmp_path, params)
        assert sorted(logged) == [0, 1, 2]
        assert all(cell == uninterrupted.cells[idx] for idx, cell in logged.items())
        assert self._resume(tmp_path, workers=1) == uninterrupted.to_csv()

    def test_sweep_runs_off_the_main_thread(self, tmp_path):
        # only the main thread may set a signal handler; elsewhere the sweep
        # runs without one
        from fhnburst import cli

        spec = tmp_path / "sweep.cfg"
        spec.write_text("omega_lo = 0.02\nomega_hi = 0.03\nomega_step = 0.01\n"
                        "e_lo = 0.5\ne_hi = 0.55\ne_step = 0.05\nmetrics = region\n"
                        f"out = {tmp_path}/grid.csv\n")
        codes = []
        worker = threading.Thread(target=lambda: codes.append(cli.main(["sweep", "--spec",
                                                                         str(spec)])))
        worker.start()
        worker.join()
        assert codes == [0]


class TestCsv:
    def test_header_and_shape(self, params):
        spec = SweepSpec(workers=1, **SMALL)
        grid = run_sweep(spec, params)
        text = grid.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "omega,E,status,spike_count,l2,est_count,region"
        assert len(lines) == 1 + spec.cell_count
        # row-major: omega outer, E inner
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[0] == second[0]
        assert float(second[1]) > float(first[1])

    def test_full_precision_round_trip(self, params, tmp_path):
        spec = SweepSpec(workers=1, **SMALL)
        grid = run_sweep(spec, params)
        path = str(tmp_path / "grid.csv")
        write_grid_csv(grid, path)
        omegas, e_values, rows = load_grid_csv(path)
        assert len(rows) == spec.cell_count
        xs, ys, arrays = grid_from_rows(omegas, e_values, rows)
        want = grid.value_array("l2")
        assert np.array_equal(arrays["l2"], want)          # 17 digits survive
        # every column survives, None fields of a failed cell included
        c = grid.cells[4]
        grid.cells[4] = CellResult(c.omega, c.E, "err:NonFiniteState", region=c.region)
        write_grid_csv(grid, path)
        assert [CellResult(**r) for r in load_grid_csv(path)[2]] == grid.cells

    def test_cell_record_bytes(self, params, tmp_path):
        spec = SweepSpec(omega_range=(0.02, 0.0201, 0.01), e_range=(0.5, 0.6, 0.1))
        grid = SweepGrid(spec, params)
        grid.cells = [
            CellResult(0.02, 0.5, "ok", spike_count=3, l2=1.25, est_count=4, region="II"),
            CellResult(0.02, 0.6, "err:NonFiniteState", region="IV"),
        ]
        assert grid.to_csv() == (
            "omega,E,status,spike_count,l2,est_count,region\n"
            "0.02,0.5,ok,3,1.25,4,II\n"
            "0.02,0.59999999999999998,err:NonFiniteState,,,,IV\n"
        )
        path = tmp_path / "ck.jsonl"
        compact_checkpoint(str(path), "abc", grid)
        assert path.read_text() == (
            '{"format": 1, "spec_hash": "abc"}\n'
            '{"E": 0.5, "est_count": 4, "i": 0, "l2": 1.25, "omega": 0.02, '
            '"region": "II", "spike_count": 3, "status": "ok"}\n'
            '{"E": 0.6, "est_count": null, "i": 1, "l2": null, "omega": 0.02, '
            '"region": "IV", "spike_count": null, "status": "err:NonFiniteState"}\n'
        )
        # records may carry keys beyond the cell fields
        with open(path, "a") as fh:
            fh.write('{"E": 0.6, "i": 1, "l2": null, "omega": 0.02, "region": null, '
                     '"spike_count": null, "est_count": null, "status": "ok", "wall_ms": 2.5}\n')
        cells = load_checkpoint(str(path), "abc", grid.omegas, grid.e_values)
        assert cells == {0: grid.cells[0], 1: CellResult(0.02, 0.6, "ok")}

    @pytest.mark.parametrize("idx, cell", [
        (0, CellResult(0.0149354, 0.55, "ok", 3, 1.9118099248424139, 4, "II")),
        (17, CellResult(0.02, 0.6, "err:NonFiniteState")),
        (399, CellResult(0.04, 0.55, region="IV")),
        (5, CellResult(1e-05, 2.5e-17, "ok", 0, 1.2345678901234567e+300, 0, "I")),
    ])
    def test_cell_record_matches_asdict(self, idx, cell):
        # the dataclass dump is the reference for the record bytes
        want = json.dumps({"i": idx, **asdict(cell)}, sort_keys=True) + "\n"
        assert sweep_mod._cell_to_record(idx, cell) == want

    def test_incomplete_grid_raises(self, params):
        spec = SweepSpec(workers=1, **SMALL)
        grid = SweepGrid(spec, params)
        with pytest.raises(IncompleteGrid):
            grid.to_csv()
        with pytest.raises(IncompleteGrid):
            grid.value_array("l2")

    def test_fingerprint_depends_on_spec(self, params):
        from fhnburst.integrator import IntegratorConfig

        cfg = IntegratorConfig()
        s1 = SweepSpec(workers=1, **SMALL)
        s2 = SweepSpec(workers=4, **SMALL)     # workers do not change results
        s3 = SweepSpec(workers=1, omega_range=(0.018, 0.028, 0.005),
                       e_range=(0.40, 0.46, 0.03))
        assert spec_fingerprint(s1, params, cfg) == spec_fingerprint(s2, params, cfg)
        assert spec_fingerprint(s1, params, cfg) != spec_fingerprint(s3, params, cfg)

    def test_fingerprint_is_pinned(self, params):
        # checkpoints written by earlier versions must still resume
        from fhnburst.integrator import IntegratorConfig

        assert spec_fingerprint(SweepSpec(workers=1, **SMALL), params, IntegratorConfig()) == (
            "65f700443419490a58ec4206a1ae2e6bdf464bd8db06be4067b13b18ac441f2d"
        )

    @staticmethod
    def _loaded_by_import(module: str) -> bool:
        """Whether `import fhnburst` in a fresh interpreter loads module."""
        env = child_env()
        code = f"import sys, fhnburst; print({module!r} in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return proc.stdout.strip() == "True"

    def test_import_does_not_load_hashlib(self):
        # spec_fingerprint imports it on first use, so a process that never
        # checkpoints does not map OpenSSL
        assert not self._loaded_by_import("hashlib")

    def test_import_does_not_load_multiprocessing(self):
        # run_sweep imports it only to start a pool of two or more workers
        assert not self._loaded_by_import("multiprocessing")

    def test_import_does_not_load_scipy(self):
        # two tests use SciPy as an independent reference; the package
        # itself needs only numpy
        assert not self._loaded_by_import("scipy")
