"""Bernstein transform of size distributions, derivative sign checks, and
residuals of the singular first-order equation the transform satisfies.

For a discrete distribution the transform and its x-derivatives are exact
sums, so no quadrature error enters beyond floating point:

    F(x)   =  sum_i (1 - exp(-x s_i)) N_i
    Fx(x)  =  sum_i s_i exp(-x s_i) N_i
    Fxx(x) = -sum_i s_i^2 exp(-x s_i) N_i

The point x = 0 is handled through the identities F(0) = 0, Fx(0) = m1,
Fxx(0) = -m2, which the sums reproduce exactly; the singular term F/x is
never evaluated there.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Distribution, ScenarioParams
from .kinetic import Trajectory

#: Tolerance scale for sign checks on exact transform sums.
CM_EXACT_RTOL = 1e-8

#: Tolerance scale for sign checks on finite-differenced sampled fields.
CM_SAMPLED_RTOL = 1e-4


def default_x_grid(lo: float = 1e-3, hi: float = 20.0, num: int = 64) -> np.ndarray:
    """Geometric grid on [lo, hi] with the origin prepended."""
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    return np.concatenate([[0.0], np.geomspace(lo, hi, num)])


@dataclass(frozen=True)
class BernsteinField:
    """F and its first two x-derivatives sampled on (times x x-grid).

    ``m2`` holds the second moment per snapshot and ``g_eps`` the additive
    forcing produced by the size-linear fragmentation perturbation; both are
    None for fields that were not built from a distribution trajectory.
    """

    x: np.ndarray
    times: np.ndarray
    F: np.ndarray  # shape (T, X)
    Fx: np.ndarray
    Fxx: np.ndarray
    m: float
    m2: np.ndarray | None = None
    g_eps: np.ndarray | None = None

    def __post_init__(self):
        if self.F.shape != (self.times.size, self.x.size):
            raise ValueError("field arrays must have shape (len(times), len(x))")

    def restricted(self, t_max: float) -> "BernsteinField":
        """Sub-field with snapshot times <= t_max."""
        keep = self.times <= t_max * (1.0 + 1e-12) + 1e-300
        if not np.any(keep):
            raise ValueError(f"no snapshots at or before t={t_max}")
        return BernsteinField(
            x=self.x,
            times=self.times[keep],
            F=self.F[keep],
            Fx=self.Fx[keep],
            Fxx=self.Fxx[keep],
            m=self.m,
            m2=None if self.m2 is None else self.m2[keep],
            g_eps=None if self.g_eps is None else self.g_eps[keep],
        )


def transform_arrays(dist: Distribution, x: np.ndarray):
    """(F, Fx, Fxx) of one distribution on an x-grid, as exact sums."""
    s = dist.grid.sizes
    N = dist.counts
    phase = np.outer(np.asarray(x, dtype=float), s)
    decay = np.exp(-phase)
    F = (-np.expm1(-phase)) @ N  # expm1 keeps small-x values fully accurate
    Fx = decay @ (s * N)
    Fxx = -(decay @ (s * s * N))
    return F, Fx, Fxx


def transform(dist: Distribution, x_grid: np.ndarray | None = None, t: float = 0.0) -> BernsteinField:
    """Single-time field of one distribution."""
    x = default_x_grid() if x_grid is None else np.asarray(x_grid, dtype=float)
    F, Fx, Fxx = transform_arrays(dist, x)
    m1 = dist.moment(1)
    m2 = np.array([dist.moment(2)])
    return BernsteinField(
        x=x,
        times=np.array([t]),
        F=F[None, :],
        Fx=Fx[None, :],
        Fxx=Fxx[None, :],
        m=m1,
        m2=m2,
        g_eps=_forcing(x, Fx[None, :], Fxx[None, :], m1, m2),
    )


def field_from_trajectory(traj: Trajectory, x_grid: np.ndarray | None = None) -> BernsteinField:
    """Transform every snapshot of a kinetic trajectory."""
    x = default_x_grid() if x_grid is None else np.asarray(x_grid, dtype=float)
    rows = [transform_arrays(d, x) for d in traj.distributions]
    F = np.stack([r[0] for r in rows])
    Fx = np.stack([r[1] for r in rows])
    Fxx = np.stack([r[2] for r in rows])
    m1 = float(traj.moments.moments[0, 1])
    m2 = traj.moments.column(2).copy()
    return BernsteinField(
        x=x,
        times=traj.times.copy(),
        F=F,
        Fx=Fx,
        Fxx=Fxx,
        m=m1,
        m2=m2,
        g_eps=_forcing(x, Fx, Fxx, m1, m2),
    )


def _forcing(x, Fx, Fxx, m, m2) -> np.ndarray:
    out = np.zeros_like(Fx)
    pos = x > 0
    out[:, pos] = 0.5 * m2[:, None] - 0.5 * Fxx[:, pos] - (m - Fx[:, pos]) / x[pos]
    return out


def perturbation_forcing(field: BernsteinField) -> np.ndarray:
    """Forcing G(x,t) = m2(t)/2 - Fxx/2 - (m - Fx)/x created by the size-linear
    fragmentation perturbation.  At x = 0 the last two terms cancel against
    m2 exactly, so the column is set to the limit value 0."""
    if field.m2 is None:
        raise ValueError("field carries no second-moment series")
    return _forcing(field.x, field.Fx, field.Fxx, field.m, field.m2)


def derivative(dist: Distribution, x: float, k: int) -> float:
    """k-th x-derivative of the transform at x, via the exact sum.

    Returns (-1)^(k-1) * sum_i s_i^k exp(-x s_i) N_i, so the sign convention
    (-1)^(k-1) d^k F / dx^k >= 0 holds with zero tolerance for any
    nonnegative distribution.
    """
    if k < 1:
        raise ValueError(f"derivative order must be >= 1, got {k}")
    s = dist.grid.sizes
    val = float(np.dot(s ** k * np.exp(-x * s), dist.counts))
    return val if k % 2 == 1 else -val


@dataclass(frozen=True)
class CompleteMonotonicityReport:
    """Sign-pattern check of (-1)^(k-1) d^k F / dx^k over orders and x samples."""

    passed: bool
    mode: str  # "exact-sum" or "finite-difference"
    k_max: int
    tol: float
    worst_value: float  # most negative signed value encountered (>= 0 is clean)
    worst_k: int
    worst_x: float
    violations: int

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"complete-monotonicity [{self.mode}] k<={self.k_max}: {status} "
            f"(worst {self.worst_value:.3e} at k={self.worst_k}, x={self.worst_x:.4g}, "
            f"tol {self.tol:.1e}, violations {self.violations})"
        )


def cm_exact_report(
    dist: Distribution, k_max: int = 6, x_samples: Sequence[float] | None = None
) -> CompleteMonotonicityReport:
    """Exact-sum monotonicity check; any order is available."""
    x = default_x_grid() if x_samples is None else np.asarray(x_samples, dtype=float)
    s = dist.grid.sizes
    decay = np.exp(-np.outer(x, s))
    tol = CM_EXACT_RTOL * max(dist.moment(1), np.finfo(float).tiny)
    worst, worst_k, worst_x, violations = np.inf, 0, 0.0, 0
    for k in range(1, k_max + 1):
        signed = decay @ (s ** k * dist.counts)  # already (-1)^(k-1) d^k F
        i = int(np.argmin(signed))
        if signed[i] < worst:
            worst, worst_k, worst_x = float(signed[i]), k, float(x[i])
        violations += int(np.sum(signed < -tol))
    return CompleteMonotonicityReport(
        passed=worst >= -tol,
        mode="exact-sum",
        k_max=k_max,
        tol=tol,
        worst_value=worst,
        worst_k=worst_k,
        worst_x=worst_x,
        violations=violations,
    )


def cm_sampled_report(
    x: np.ndarray, F: np.ndarray, m: float, k_max: int = 4, tol: float | None = None
) -> CompleteMonotonicityReport:
    """Finite-difference monotonicity check on uniformly sampled F values.

    Orders above 4 amplify sampling noise beyond usefulness, hence the cap.
    """
    if k_max > 4:
        raise ValueError("finite-difference checks are limited to k_max <= 4")
    x = np.asarray(x, dtype=float)
    F = np.asarray(F, dtype=float)
    if x.ndim != 1 or x.size < k_max + 1:
        raise ValueError("need at least k_max + 1 samples")
    h = np.diff(x)
    if np.max(np.abs(h - h[0])) > 1e-9 * h[0]:
        raise ValueError("finite-difference checks need a uniform x grid")
    h = h[0]
    tol = CM_SAMPLED_RTOL * m if tol is None else tol
    worst, worst_k, worst_x, violations = np.inf, 0, 0.0, 0
    for k in range(1, k_max + 1):
        est = np.diff(F, k) / h ** k
        signed = est if k % 2 == 1 else -est
        centers = 0.5 * (x[: x.size - k] + x[k:])
        i = int(np.argmin(signed))
        if signed[i] < worst:
            worst, worst_k, worst_x = float(signed[i]), k, float(centers[i])
        violations += int(np.sum(signed < -tol))
    return CompleteMonotonicityReport(
        passed=worst >= -tol,
        mode="finite-difference",
        k_max=k_max,
        tol=tol,
        worst_value=worst,
        worst_k=worst_k,
        worst_x=worst_x,
        violations=violations,
    )


def complete_monotonicity_report(obj, k_max: int | None = None, x_samples=None, m=None):
    """Dispatch on the input: exact sums for a Distribution, finite differences
    for an (x, F) sample pair."""
    if isinstance(obj, Distribution):
        return cm_exact_report(obj, k_max=6 if k_max is None else k_max, x_samples=x_samples)
    x, F = obj
    if m is None:
        raise ValueError("finite-difference mode needs the mass scale m for its tolerance")
    return cm_sampled_report(x, F, m, k_max=4 if k_max is None else k_max)


def _time_derivative(F: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Second-order dF/dt: centered inside, one-sided at the first/last rows."""
    steps = np.diff(times)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(steps[0], 1e-300):
        raise ValueError("snapshots must be uniformly spaced in time")
    dt = steps[0]
    out = np.empty_like(F)
    out[1:-1] = (F[2:] - F[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * F[0] + 4.0 * F[1] - F[2]) / (2.0 * dt)
    out[-1] = (3.0 * F[-1] - 4.0 * F[-2] + F[-3]) / (2.0 * dt)
    return out


def hj_residual_grid(field: BernsteinField, scenario: ScenarioParams, eps: float) -> np.ndarray:
    """Pointwise residual of dF/dt + (Fx-m)(Fx-m-1)/2 + F/x - m = eps*G.

    The x = 0 column is NaN (the singular term is undefined there); the first
    and last time rows use one-sided differences and should not enter maxima.
    """
    if field.times.size < 3:
        raise ValueError("need at least 3 snapshot times for time differencing")
    m = scenario.m
    dFdt = _time_derivative(field.F, field.times)
    res = np.full_like(field.F, np.nan)
    pos = field.x > 0
    ham = 0.5 * (field.Fx[:, pos] - m) * (field.Fx[:, pos] - m - 1.0)
    res[:, pos] = dFdt[:, pos] + ham + field.F[:, pos] / field.x[pos] - m
    if eps != 0.0:
        g = field.g_eps if field.g_eps is not None else perturbation_forcing(field)
        res[:, pos] -= eps * g[:, pos]
    return res


def hj_residual_worst(field: BernsteinField, scenario: ScenarioParams, eps: float) -> tuple:
    """(max |residual|, t, x) over interior snapshot times and x > 0."""
    res = hj_residual_grid(field, scenario, eps)
    cols = np.flatnonzero(field.x > 0)
    interior = np.abs(res[1:-1, cols])
    i, j = np.unravel_index(int(np.argmax(interior)), interior.shape)
    return float(interior[i, j]), float(field.times[1 + i]), float(field.x[cols[j]])


def hj_residual(field: BernsteinField, scenario: ScenarioParams, eps: float) -> float:
    """Max |residual| over interior snapshot times and x > 0."""
    return hj_residual_worst(field, scenario, eps)[0]


def g_eps_bound_check(field: BernsteinField, scenario: ScenarioParams, T: float) -> bool:
    """True iff max |G| over times <= T stays within 3/(t_star - T), with a 1%
    allowance for finite differencing on the caller's side."""
    if T >= scenario.t_star:
        raise ValueError(f"T={T} must lie strictly below t_star={scenario.t_star}")
    g = field.g_eps if field.g_eps is not None else perturbation_forcing(field)
    keep = field.times <= T * (1.0 + 1e-12) + 1e-300
    if not np.any(keep):
        raise ValueError(f"field has no snapshots at or before T={T}")
    bound = 3.0 / (scenario.t_star - T)
    return bool(np.max(np.abs(g[keep])) <= bound * (1.0 + 1e-2))
