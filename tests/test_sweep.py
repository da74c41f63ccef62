import json
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import fhnburst.sweep as sweep_mod
from fhnburst import _kernel_py, burst, fastpath
from fhnburst.burst import burst_metrics
from fhnburst.errors import IncompleteGrid, NewtonDiverged, NonFiniteState
from fhnburst.geometry import classify_region
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

SMALL = dict(omega_range=(0.018, 0.028, 0.005), e_range=(0.46, 0.52, 0.03))
SRC = Path(__file__).resolve().parents[1] / "src"


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
    def test_single_cell_matches_pipeline(self, params):
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
        sizes = []

        class SerialPool:
            """Records its requested size and maps in this process."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, fn, tasks, chunksize):
                assert chunksize >= 1
                return map(fn, tasks)

        # run_sweep imports multiprocessing when it needs a pool
        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        axes = dict(omega_range=(0.01, 0.02, 0.01), e_range=(0.45, 0.5, 0.05),
                    metrics=("region",))
        wide = run_sweep(SweepSpec(workers=64, **axes), params)
        assert wide.spec.cell_count == 4
        assert sizes == [4]
        assert wide.to_csv() == run_sweep(SweepSpec(workers=1, **axes), params).to_csv()
        assert sizes == [4]     # one worker maps serially, without a pool

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
        cells = load_checkpoint(str(path), "abc")
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
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
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
