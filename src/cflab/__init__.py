"""cflab: a numerical laboratory for coagulation-fragmentation kinetics.

Three engines realize the same truncated system with multiplicative
coagulation and (optionally perturbed) constant fragmentation: a
deterministic sectional solver, a stochastic particle simulator, and a
characteristics solver for the singular first-order equation satisfied by
the Bernstein transform.  A verification layer checks every quantitative
bound the solution theory provides: mass conservation, the second-moment
envelope, derivative bounds, complete monotonicity, moment inequalities,
and the residuals of the weak form and of the singular equation.  Every
check returns a BoundReport.  Internals are imported from their submodules.

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

from .core import (
    BoundReport,
    Distribution,
    KernelSpec,
    ScenarioParams,
    SizeGrid,
    make_initial,
)
from .errors import (
    AbsorbingStateError,
    CfLabError,
    FanCoverageError,
    FanCrossingError,
    GridError,
    SolverAbort,
)
from .kinetic import (
    SolverConfig,
    Trajectory,
    simulate,
    stability_limit,
    weak_form_residual,
)
from .bernstein import (
    BernsteinField,
    cm_exact_report,
    field_from_trajectory,
)
from .characteristics import (
    CharacteristicFan,
    default_starts,
    distribution_transform,
    fan_to_field,
    integrate_fan,
    monotone_derivative_checks,
    reconstruct,
)
from .stochastic import (
    EnsembleMoments,
    ensemble_moments,
)
from .verification import (
    derivative_bounds_check,
    envelope_check,
    g_eps_bound_check,
    holder_bounds_check,
)

__version__ = "0.1.0"
