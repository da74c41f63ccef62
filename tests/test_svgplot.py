import json
import os
import resource
import subprocess
import sys
from pathlib import Path

from fhnburst.svgplot import _ticks

SRC = Path(__file__).resolve().parents[1] / "src"

# A span of two ulps around -1.1994 (the flat x of an E = 0 drive) used to
# make _ticks loop forever, so it runs in a child with a time and memory cap.
CHILD = """
import json, sys
from fhnburst.cli import main
from fhnburst.svgplot import _ticks
ticks = _ticks(-1.1994, -1.1994 + 4.4e-16)
code = main(["simulate", "--E", "0", "--omega", "0.0149354", "--svg", sys.argv[1]])
print(json.dumps(ticks))
sys.exit(code)
"""


def _cap_memory():
    cap = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_ticks_normal_span():
    assert _ticks(-2.1, 2.3) == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert _ticks(1.0, 1.0) == [1.0]


def test_ticks_span_below_float_resolution(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    svg = tmp_path / "flat.svg"
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(svg)], env=env, capture_output=True,
        text=True, timeout=10, preexec_fn=_cap_memory,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    ticks = json.loads(proc.stdout.strip().splitlines()[-1])
    assert 1 <= len(ticks) <= 10
    assert all(abs(t + 1.1994) < 1e-12 for t in ticks)
    assert svg.read_text().startswith("<svg")
