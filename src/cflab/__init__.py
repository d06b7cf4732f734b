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
"""

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
