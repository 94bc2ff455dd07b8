"""Speed of the host right now, from a fixed job timed in the same process.

On the shared 2-core host where the benchmark was tuned, load from other
tenants slowed every repetition of a workload by up to 2x, for minutes at a
time, while the process's CPU time grew with its wall time (no steal). Such
a slowdown hits all code in the process alike: over 74 alternations of the
``scalar`` workload with a shorter version of this job, their times
correlated at 0.84. The
benchmark times the job before and after each repetition and scales that
repetition's times by ``NOMINAL_S`` over the job's mean time, which reports
them in seconds of the unloaded host.

The job uses only Python, numpy and scipy, never ``amfrac``, so a change to
the program cannot move it.
"""

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

NOMINAL_S = 0.1  # the job's time on an unloaded 2-core Intel Xeon VM
_GRID = 20


def job_seconds() -> float:
    """Wall time of one run of the fixed job: an interpreter loop and 100
    sparse LU factorizations and solves of a 400-unknown 5-point Laplacian
    (the two kinds of work the workloads do)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(50000):
        acc += (i % 7) * 0.5 - acc * 1e-9
    n = _GRID * _GRID
    A = (sp.diags([4.0] * n) - sp.eye(n, k=1) - sp.eye(n, k=-1)
         - sp.eye(n, k=_GRID) - sp.eye(n, k=-_GRID)).tocsc()
    b = np.ones(n)
    for _ in range(100):
        acc += float(splu(A).solve(b)[0])
    return time.perf_counter() - t0
