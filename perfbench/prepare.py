"""Process set-up shared by the benchmark's entry points.

Must run before numpy is first imported: BLAS and OpenMP read their thread
counts once, at load time.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout holds no ``src/amfrac`` to benchmark."""


def prepare() -> Path:
    """Pin BLAS/OpenMP to one thread and put the checkout's ``src`` first on
    ``sys.path``, so the benchmark measures the sources next to it and never
    an installed copy."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "amfrac" / "__init__.py").is_file():
        raise MissingSource(f"no amfrac sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return ROOT
