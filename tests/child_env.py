"""The environment of a child interpreter that a test starts: the caller's
environment with the tested package's source directory first on
PYTHONPATH, so the child imports the same fhnburst as the test."""
import os
from pathlib import Path

import fhnburst

SRC = str(Path(fhnburst.__file__).resolve().parents[1])


def child_env(**extra: str) -> dict[str, str]:
    """os.environ plus extra (OPENBLAS_NUM_THREADS, LD_PRELOAD, ...), with
    SRC ahead of any PYTHONPATH already set."""
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
