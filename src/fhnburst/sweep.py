"""Parallel (omega, E) parameter sweeps with checkpoint/resume.

Cells are computed independently in row-major order (omega outer, E inner)
by a worker pool; results are keyed by cell index so the assembled grid and
its CSV are byte-identical regardless of worker count or scheduling.  The
checkpoint is an append-only JSONL record log with a hash of the sweep
specification; on completion it is compacted in index order via an atomic
rename.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .burst import burst_metrics
from .errors import FhnBurstError, IncompleteGrid, WorkerDied
from .geometry import classify_region
from .integrator import IntegratorConfig
from .model import Forcing, ModelParams

CHECKPOINT_FORMAT = 1
DEFAULT_FLUSH_EVERY = 256
# the most cells in one pool chunk: SIGTERM and a dead worker wait for the
# running chunks, and 64 desk cells take about 0.13 s
MAX_CHUNK_CELLS = 64
ALL_METRICS = ("spike_count", "l2", "est_count", "region")
SIMULATED_METRICS = ("spike_count", "l2", "est_count")   # computed by burst_metrics


@dataclass(frozen=True)
class SweepSpec:
    """Rectangular sweep: inclusive [lo, hi] axes walked with a fixed step."""

    omega_range: tuple[float, float, float]     # (lo, hi, step)
    e_range: tuple[float, float, float]
    metrics: tuple[str, ...] = ALL_METRICS
    workers: int = 1

    def __post_init__(self):
        for rng in (self.omega_range, self.e_range):
            lo, hi, step = rng
            if not all(math.isfinite(v) for v in rng):
                raise ValueError("range values must be finite")
            if not (step > 0.0 and hi > lo):
                raise ValueError("ranges must be non-degenerate with positive step")
        # every cell must be a valid Forcing: omega > 0 and E >= 0
        if self.omega_range[0] <= 0.0:
            raise ValueError("the omega axis must start above 0")
        if self.e_range[0] < 0.0:
            raise ValueError("the E axis must start at or above 0")
        bad = set(self.metrics) - set(ALL_METRICS)
        if bad:
            raise ValueError(f"unknown metrics: {sorted(bad)}")
        if not self.metrics:
            raise ValueError("no metrics to compute")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @staticmethod
    def _axis(rng) -> np.ndarray:
        lo, hi, step = rng
        n = int(math.floor((hi - lo) / step + 1e-9)) + 1
        return lo + step * np.arange(n)

    @property
    def omegas(self) -> np.ndarray:
        return self._axis(self.omega_range)

    @property
    def e_values(self) -> np.ndarray:
        return self._axis(self.e_range)

    @property
    def cell_count(self) -> int:
        return len(self.omegas) * len(self.e_values)


@dataclass(frozen=True)
class CellResult:
    omega: float
    E: float
    status: str = "ok"
    spike_count: int | None = None
    l2: float | None = None
    est_count: int | None = None
    region: str | None = None

    def csv_row(self) -> str:
        return ",".join(_csv_field(getattr(self, name)) for name in CELL_FIELDS)


def _csv_field(v) -> str:
    if v is None:
        return ""
    return f"{v:.17g}" if isinstance(v, float) else str(v)


CELL_FIELDS = tuple(f.name for f in fields(CellResult))
CSV_HEADER = ",".join(CELL_FIELDS)
# the type of each of CELL_FIELDS: it parses the field from a grid CSV (an empty
# field is None) and is the field's type in a checkpoint record
FIELD_TYPES = (float, float, str, int, float, int, str)


class SweepGrid:
    """Dense row-major grid of cell results."""

    def __init__(self, spec: SweepSpec, params: ModelParams):
        self.spec = spec
        self.params = params
        self.omegas = spec.omegas
        self.e_values = spec.e_values
        self.cells: list[CellResult | None] = [None] * spec.cell_count

    @property
    def complete(self) -> bool:
        return all(c is not None for c in self.cells)

    def value_array(self, metric: str) -> np.ndarray:
        """Metric values as a (n_omega, n_e) float array, NaN where unavailable."""
        if not self.complete:
            raise IncompleteGrid("grid has pending cells")
        return _metric_arrays(self.omegas, self.e_values, self.cells, (metric,))[metric]

    def to_csv(self) -> str:
        if not self.complete:
            raise IncompleteGrid("grid has pending cells")
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for cell in self.cells:
            buf.write(cell.csv_row() + "\n")
        return buf.getvalue()


def spec_fingerprint(spec: SweepSpec, params: ModelParams, config: IntegratorConfig) -> str:
    import hashlib   # imported here: OpenSSL adds about 3.5 MB to every process

    doc = {
        "omega_range": list(spec.omega_range),
        "e_range": list(spec.e_range),
        "metrics": list(spec.metrics),
        "params": [params.a, params.b, params.eps],
        "config": [config.rel_tol, config.abs_tol, config.max_step or 0.0],
        "format": CHECKPOINT_FORMAT,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _compute_cell(args) -> tuple[int, CellResult]:
    idx, omega, e_val, params, config, metrics = args
    forcing = Forcing(E=e_val, omega=omega)
    simulated = [k for k in SIMULATED_METRICS if k in metrics]
    values = {}
    try:
        if "region" in metrics:
            values["region"] = classify_region(params, forcing)
        if simulated:
            m = burst_metrics(
                params, forcing, config, with_estimate="est_count" in metrics
            )
            values.update((k, getattr(m, k)) for k in simulated)
    except FhnBurstError as exc:
        return idx, CellResult(
            omega=omega, E=e_val, status=f"err:{type(exc).__name__}",
            region=values.get("region"),
        )
    return idx, CellResult(omega=omega, E=e_val, **values)


def _cell_to_record(idx: int, cell: CellResult) -> str:
    rec = {name: getattr(cell, name) for name in CELL_FIELDS}
    rec["i"] = idx
    return json.dumps(rec, sort_keys=True) + "\n"


def _record_to_cell(rec, lineno: int, omegas, e_values, required) -> tuple[int, CellResult]:
    """The index and cell of one checkpoint record of the grid on the axes
    (omegas, e_values); ValueError naming the line unless the record is an
    object with an in-range `i` and every cell field, each None or of its
    `FIELD_TYPES` type (status not None), omega and E those of cell `i`,
    status `ok` or `err:<Name>`, a failed cell's simulated metrics None and
    an ok cell's `required` metrics not None."""
    if not isinstance(rec, dict):
        raise ValueError(f"checkpoint line {lineno}: record is not an object")
    missing = [name for name in ("i",) + CELL_FIELDS if name not in rec]
    if missing:
        raise ValueError(f"checkpoint line {lineno}: record lacks {', '.join(missing)}")
    idx = rec["i"]
    n_e = len(e_values)
    cell_count = len(omegas) * n_e
    if type(idx) is not int or not 0 <= idx < cell_count:
        raise ValueError(
            f"checkpoint line {lineno}: cell index {idx!r} is not an integer in [0, {cell_count})"
        )
    values = [rec[name] for name in CELL_FIELDS]
    wrong = [name for name, v, cast in zip(CELL_FIELDS, values, FIELD_TYPES)
             if type(v) is not cast and (v is not None or name == "status")]
    if wrong:
        raise ValueError(f"checkpoint line {lineno}: {', '.join(wrong)} of the wrong type")
    status = values[2]
    if status != "ok":
        if not (status.startswith("err:") and status[4:].isidentifier()):
            raise ValueError(
                f"checkpoint line {lineno}: status {status!r} is not ok or err:<Name>"
            )
        kept = [name for name in SIMULATED_METRICS if rec[name] is not None]
        if kept:
            raise ValueError(f"checkpoint line {lineno}: failed cell has {', '.join(kept)}")
    else:
        null = [name for name in required if rec[name] is None]
        if null:
            raise ValueError(f"checkpoint line {lineno}: ok cell lacks {', '.join(null)}")
    i, j = divmod(idx, n_e)
    omega, e_val = float(omegas[i]), float(e_values[j])
    if values[0] != omega or values[1] != e_val:
        raise ValueError(f"checkpoint line {lineno}: cell {idx} is at omega={omega!r}, "
                         f"E={e_val!r}, not at omega={values[0]!r}, E={values[1]!r}")
    return idx, CellResult(*values)


def _checkpoint_header(fingerprint: str) -> str:
    return json.dumps({"format": CHECKPOINT_FORMAT, "spec_hash": fingerprint}) + "\n"


def _write_atomic(path: str, chunks) -> None:
    """Write the text chunks to a temporary file, sync it, rename it over path."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def check_writable(path: str, checkpoint_path: str | None) -> None:
    """Raise the OSError that `write_grid_csv(grid, path)` would meet, by
    creating and removing its temporary file, or ValueError when the CSV
    would replace the checkpoint log; called before a sweep's first cell,
    it makes an output that cannot be written cost no work."""
    if checkpoint_path and (os.path.realpath(path) == os.path.realpath(checkpoint_path)
                            or os.path.exists(path) and os.path.exists(checkpoint_path)
                            and os.path.samefile(path, checkpoint_path)):
        raise ValueError(f"output {path!r} and checkpoint {checkpoint_path!r} name the same file")
    if os.path.isdir(path):
        raise IsADirectoryError(f"output {path!r} is a directory")
    open(path + ".tmp", "w").close()
    os.remove(path + ".tmp")


def _json_line(line: str, lineno: int):
    try:
        return json.loads(line)
    except ValueError as exc:
        raise ValueError(f"checkpoint line {lineno}: {exc}") from None


def load_checkpoint(path: str, fingerprint: str, omegas, e_values,
                    metrics=()) -> dict[int, CellResult]:
    """Completed cells from a record log of the grid on the axes (omegas, e_values).

    Rejects, with a ValueError that names the line, a mismatched fingerprint,
    a header that is not an object with `spec_hash`, and a malformed record,
    which includes an ok record with a null `spike_count`, `l2` or `region`
    that `metrics` (the spec's) asks for.  A null `est_count` stays legal: it
    records an estimator failure.  A crash can leave the last record
    unterminated: it is ignored and cut off the file, so that appending
    resumes on a line boundary.
    """
    required = [name for name in ALL_METRICS if name in metrics and name != "est_count"]
    with open(path, "r+b") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            fh.truncate(end)
    lines = data[:end].decode("utf-8").splitlines()
    if not lines:
        return {}
    header = _json_line(lines[0], 1)
    if not isinstance(header, dict) or "spec_hash" not in header:
        raise ValueError("checkpoint line 1: header is not an object with spec_hash")
    if header["spec_hash"] != fingerprint:
        raise ValueError("checkpoint does not match this sweep specification")
    return dict(
        _record_to_cell(_json_line(line, lineno), lineno, omegas, e_values, required)
        for lineno, line in enumerate(lines[1:], start=2) if line.strip()
    )


def _compute_chunk(tasks) -> list[tuple[int, CellResult]]:
    return [_compute_cell(task) for task in tasks]


def _cell_results(tasks, n_tasks: int, workers: int):
    """`_compute_cell` of each of the n_tasks tasks: in order in this process,
    or in completion order from a pool of up to `workers` processes, which
    computes them in chunks of at most MAX_CHUNK_CELLS.  A worker that dies
    breaks the pool: the chunks that finished are still yielded, then
    WorkerDied names the cells left."""
    workers = min(workers, n_tasks)
    if workers < 2:
        yield from map(_compute_cell, tasks)
        return
    # here, not at module level: multiprocessing is 8 ms of `import fhnburst`
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    chunk = min(MAX_CHUNK_CELLS, max(1, n_tasks // (workers * 8)))
    tasks = iter(tasks)
    pool = ProcessPoolExecutor(workers)
    try:
        sizes = {}   # each chunk's future -> its number of cells
        while batch := list(itertools.islice(tasks, chunk)):
            sizes[pool.submit(_compute_chunk, batch)] = len(batch)
        left = 0
        for future in as_completed(sizes):
            try:
                results = future.result()
            except BrokenProcessPool:
                left += sizes[future]
                continue
            yield from results
        if left:
            raise WorkerDied(f"a sweep worker process died: {left} of {n_tasks} cells "
                             f"were left without a result")
    finally:
        # drops the chunks not started; the running ones finish first
        pool.shutdown(cancel_futures=True)


def run_sweep(
    spec: SweepSpec,
    params: ModelParams | None = None,
    config: IntegratorConfig | None = None,
    checkpoint_path: str | None = None,
    progress=None,
) -> SweepGrid:
    """Run (or resume) the sweep; per-cell failures are recorded, never raised.

    Raises WorkerDied when a pool worker process dies, after the records of
    the cells that finished have been written to the checkpoint log.
    """
    params = params or ModelParams()
    config = config or IntegratorConfig()
    fingerprint = spec_fingerprint(spec, params, config)
    grid = SweepGrid(spec, params)
    omegas, e_values = grid.omegas, grid.e_values
    n_e = len(e_values)

    if checkpoint_path and os.path.exists(checkpoint_path):
        for idx, cell in load_checkpoint(checkpoint_path, fingerprint, omegas, e_values,
                                         spec.metrics).items():
            grid.cells[idx] = cell

    pending = [k for k, c in enumerate(grid.cells) if c is None]
    log_fh = None
    if checkpoint_path:
        log_fh = open(checkpoint_path, "a", encoding="utf-8")
        if log_fh.tell() == 0:
            log_fh.write(_checkpoint_header(fingerprint))
            log_fh.flush()

    def tasks():
        for idx in pending:
            i, j = divmod(idx, n_e)
            yield idx, float(omegas[i]), float(e_values[j]), params, config, spec.metrics

    results = _cell_results(tasks(), len(pending), spec.workers)
    try:
        since_flush = 0
        for idx, cell in results:
            grid.cells[idx] = cell
            if log_fh:
                log_fh.write(_cell_to_record(idx, cell))
                since_flush += 1
                if since_flush >= DEFAULT_FLUSH_EVERY:
                    log_fh.flush()
                    os.fsync(log_fh.fileno())
                    since_flush = 0
            if progress:
                progress(idx, cell)
    finally:
        # the finished records reach the file before the pool stops, which
        # waits for the chunks that are running
        try:
            if log_fh:
                log_fh.flush()
                os.fsync(log_fh.fileno())
                log_fh.close()
        finally:
            results.close()   # stops the pool now, not when the generator is collected

    if checkpoint_path and grid.complete:
        compact_checkpoint(checkpoint_path, fingerprint, grid)
    return grid


def compact_checkpoint(path: str, fingerprint: str, grid: SweepGrid) -> None:
    """Rewrite the log in index order and atomically replace it."""
    records = (_cell_to_record(idx, cell) for idx, cell in enumerate(grid.cells))
    _write_atomic(path, itertools.chain([_checkpoint_header(fingerprint)], records))


def write_grid_csv(grid: SweepGrid, path: str) -> None:
    """Atomic CSV export of a complete grid."""
    _write_atomic(path, [grid.to_csv()])


def load_grid_csv(path: str) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """Parse a grid CSV back into axes plus row dictionaries."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected grid CSV header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(CELL_FIELDS):
                raise ValueError(
                    f"grid CSV line {lineno}: expected {len(CELL_FIELDS)} fields, "
                    f"got {len(parts)}"
                )
            rows.append({name: cast(text) if text else None
                         for name, cast, text in zip(CELL_FIELDS, FIELD_TYPES, parts)})
    if not rows:
        raise ValueError(f"grid CSV {path!r} has no rows")
    omegas = np.unique([r["omega"] for r in rows])
    e_values = np.unique([r["E"] for r in rows])
    return omegas, e_values, rows


def _metric_arrays(omegas, e_values, cells, metrics) -> dict[str, np.ndarray]:
    """(n_omega, n_e) float arrays of the metrics, each ok cell placed by its
    (omega, E), NaN for failed or missing cells and None values."""
    o_index = {v: k for k, v in enumerate(omegas)}
    e_index = {v: k for k, v in enumerate(e_values)}
    arrays = {m: np.full((len(omegas), len(e_values)), np.nan) for m in metrics}
    for c in cells:
        if c.status != "ok":
            continue
        for m, arr in arrays.items():
            v = getattr(c, m)
            if v is not None:
                arr[o_index[c.omega], e_index[c.E]] = float(v)
    return arrays


def grid_from_rows(omegas, e_values, rows) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Rebuild dense metric arrays from CSV rows (NaN for failed/missing)."""
    cells = [CellResult(**r) for r in rows]
    arrays = _metric_arrays(omegas, e_values, cells, SIMULATED_METRICS)
    return np.asarray(omegas), np.asarray(e_values), arrays
