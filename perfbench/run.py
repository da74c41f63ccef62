"""Run one fhnburst benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 25 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The lines
before it print every metric with its unit, the workload-specific name of
each generic end-to-end metric, and the environment.  A fuller result
document, with the environment, goes to perfbench/out/.  --smoke shrinks
every workload to a few seconds for the benchmark's own tests.

The benchmark measures whatever backend fhnburst.active_backend() reports;
it first runs the package's build (setup.py build_ext --inplace) once per
checkout, so a compiled kernel is measured when one builds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_IMPORTS = 9


def parse_args(argv=None):
    from metrics import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="shrunken workloads, seconds each")
    return p.parse_args(argv)


def build() -> None:
    """Build the package in place once per checkout (a no-op without a compiler
    toolchain for its extension; fhnburst then runs its pure backend)."""
    stamp = os.path.join(OUT, "build.log")
    if os.path.exists(stamp):
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    with open(stamp, "w", encoding="utf-8") as fh:
        fh.write(f"returncode {proc.returncode}\n{proc.stdout}{proc.stderr}")
    if proc.returncode != 0:
        print(f"build failed (see {stamp}); measuring the backend that imports",
              file=sys.stderr)


def setup_seconds(n: int) -> tuple[float, float]:
    """Median time of `import fhnburst` in n fresh interpreters: (scaled, raw).

    Each child scales its own import time by calibration samples it takes
    right after the import, so the figure follows that interpreter's speed.
    """
    code = (
        "import time; t = time.perf_counter(); import fhnburst; "
        "dt = time.perf_counter() - t; import calibration; "
        "c = calibration.SpeedClock(); print(repr(dt), repr(c.scale([dt])[0]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    raw, scaled = [], []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        dt, dt_scaled = proc.stdout.split()[-2:]
        raw.append(float(dt))
        scaled.append(float(dt_scaled))
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _read_first(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _filesystem(path: str) -> str:
    """Type of the filesystem holding path (checkpoint fsync cost depends on it)."""
    real = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mnt = fields[1]
                inside = real == mnt or real.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) > len(best):
                    best, fstype = mnt, fields[2]
    except OSError:
        pass
    return fstype


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, nproc: int, work_dir: str) -> dict:
    import numpy

    import fhnburst

    return {
        "backend": fhnburst.active_backend(),
        "nproc": nproc,
        "cpu": _read_first("/proc/cpuinfo", "model name") or platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "seed": args.seed,
        "work_filesystem": _filesystem(work_dir),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fhnburst", "__init__.py")):
        print(f"no fhnburst sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    from calibration import SpeedClock
    from metrics import ALIASES, END_TO_END, PER_LAYER
    from workloads import RUNNERS, Context, Tally

    os.makedirs(OUT, exist_ok=True)
    build()
    sys.path.insert(0, SRC)
    setup_s, raw_setup_s = setup_seconds(1 if args.smoke else SETUP_IMPORTS)

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    ctx = Context(work=work, out=OUT, seed=args.seed, seconds=args.seconds,
                  smoke=args.smoke, nproc=nproc, clock=SpeedClock())
    tally = Tally()
    untraced, traced = RUNNERS[args.workload]
    t0 = time.perf_counter()
    try:
        res = (traced if args.trace else untraced)(ctx, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - t0

    if args.trace:
        values = res["metrics"]
        table = PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "throughput_per_s": res["throughput_per_s"],
            "latency_p50_ms": res["latency_p50_ms"],
            "latency_p90_ms": res["latency_p90_ms"],
            "peak_rss_mb": peak_rss_mb(),
            "pass_ratio": 1.0 - tally.failed / tally.attempted,
        }
        table = END_TO_END
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in table}
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "elapsed_s": elapsed,
        "env": environment(args, nproc, OUT),
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted,
        "metrics": metrics,
        "aliases": {} if args.trace else ALIASES[args.workload],
        "extra": {**res.get("extra", {}), "raw_setup_s": raw_setup_s,
                  "calibration_ms_median": 1e3 * statistics.median(ctx.clock.samples)},
        "samples": res.get("samples", res.get("ops")),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)

    print("env " + json.dumps(doc["env"], sort_keys=True))
    print(f"samples {doc['samples']}  attempted {tally.attempted}  failed {tally.failed}  "
          f"fail_ratio {doc['fail_ratio']!r}")
    for key, m in metrics.items():
        alias = doc["aliases"].get(key)
        print(f"{key} {m['value']!r} {m['unit']}" + (f"  ({alias})" if alias else ""))
    for key, value in doc["extra"].items():
        print(f"{key} {value!r}")
    print(json.dumps({"correct": doc["correct"], "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
