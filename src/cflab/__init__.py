"""cflab: a numerical laboratory for coagulation-fragmentation kinetics.

Three engines realize the same truncated system with multiplicative
coagulation and (optionally perturbed) constant fragmentation: a
deterministic sectional solver, a stochastic particle simulator, and a
characteristics solver for the singular first-order equation satisfied by
the Bernstein transform.  A verification layer checks every quantitative
bound the solution theory provides, each check returning a BoundReport.

This package exports the names of the README's library sketch, and the
submodules that they load; the checks (``cflab.verification``), the error
classes (``cflab.errors``), the CSV files (``cflab.csvio``) and every other
name are imported from the submodule that defines them.

OpenBLAS sizes its thread pool once, as numpy loads, and cflab has no work
that a BLAS pool speeds up, so numpy loads here with OPENBLAS_NUM_THREADS=1;
the caller's value (or its absence) is restored at once, so child processes
see the caller's environment.  A caller that imports numpy before cflab
keeps the pool that it chose.
"""

import os

_blas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy
finally:
    if _blas_threads is None:
        del os.environ["OPENBLAS_NUM_THREADS"]
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = _blas_threads
del os, numpy, _blas_threads

from .core import KernelSpec, ScenarioParams, SizeGrid, make_initial
from .kinetic import SolverConfig, simulate
from .bernstein import field_from_trajectory
from .characteristics import default_starts, distribution_transform, integrate_fan, reconstruct
from .stochastic import ensemble_moments

__version__ = "0.1.0"
