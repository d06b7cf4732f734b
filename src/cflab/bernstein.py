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

from .core import BoundReport, Distribution, ScenarioParams, SizeGrid, time_derivative, uniform_step
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
    forcing G = m2/2 - Fxx/2 - (m - Fx)/x produced by the size-linear
    fragmentation perturbation, derived from ``m2`` when not given.  At x = 0
    the last two terms cancel against m2 exactly, so that column holds the
    limit 0.  Both are None for fields that were not built from distributions.
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
        if self.g_eps is None and self.m2 is not None:
            object.__setattr__(self, "g_eps", _forcing(self.x, self.Fx, self.Fxx, self.m, self.m2))

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


def bernstein_sums(grid: SizeGrid, counts: np.ndarray, x: np.ndarray, k_max: int = 2):
    """For each row N of ``counts`` (T, n) on ``grid``: F(x) = sum_i (1 - exp(-x s_i)) N_i,
    shape (T, X), and D_k(x) = sum_i s_i^k exp(-x s_i) N_i = (-1)^(k-1) d^k F / dx^k
    as D[t, k - 1] for k = 1..k_max, shape (T, k_max, X).

    Every term of D_k is nonnegative, so the sign pattern of complete
    monotonicity holds for D with zero tolerance; F uses expm1, which keeps
    small-x values fully accurate.  The exponentials are formed once per call;
    each row is its own matrix-vector product, so a row's sums do not depend
    on the other rows.
    """
    s = grid.sizes
    phase = np.outer(np.asarray(x, dtype=float), s)
    decay = np.exp(-phase)
    growth = -np.expm1(-phase)
    F = np.stack([growth @ N for N in counts])
    D = np.array([[decay @ (s ** k * N) for k in range(1, k_max + 1)] for N in counts])
    return F, D


def _field(x_grid, times, grid: SizeGrid, counts: np.ndarray, m: float, m2: np.ndarray) -> BernsteinField:
    x = default_x_grid() if x_grid is None else np.asarray(x_grid, dtype=float)
    F, D = bernstein_sums(grid, counts, x)
    return BernsteinField(
        x=x, times=np.asarray(times, dtype=float), F=F, Fx=D[:, 0], Fxx=-D[:, 1], m=m, m2=m2
    )


def transform(dist: Distribution, x_grid: np.ndarray | None = None, t: float = 0.0) -> BernsteinField:
    """Single-time field of one distribution."""
    return _field(x_grid, [t], dist.grid, dist.counts[None], dist.moment(1), np.array([dist.moment(2)]))


def field_from_trajectory(traj: Trajectory, x_grid: np.ndarray | None = None) -> BernsteinField:
    """Transform every snapshot of a kinetic trajectory."""
    return _field(
        x_grid,
        traj.times.copy(),
        traj.grid,
        traj.counts,
        float(traj.moments.moments[0, 1]),
        traj.moments.column(2).copy(),
    )


def _forcing(x, Fx, Fxx, m, m2) -> np.ndarray:
    out = np.zeros_like(Fx)
    pos = x > 0
    out[:, pos] = 0.5 * m2[:, None] - 0.5 * Fxx[:, pos] - (m - Fx[:, pos]) / x[pos]
    return out


def cm_exact_report(
    grid: SizeGrid, counts: np.ndarray, k_max: int = 6, x_samples: Sequence[float] | None = None
) -> BoundReport:
    """Complete monotonicity of each row of ``counts`` (T, n) from the exact
    sums D_1..D_{k_max}: the margin is the smallest D_k(x) over the rows,
    located at (row, x, k); any order is available."""
    x = default_x_grid() if x_samples is None else np.asarray(x_samples, dtype=float)
    _, D = bernstein_sums(grid, counts, x, k_max)
    row, k, i = np.unravel_index(int(np.argmin(D)), D.shape)
    tol = CM_EXACT_RTOL * max(float(np.max(counts @ grid.sizes)), np.finfo(float).tiny)
    where = (int(row), float(x[i]), int(k) + 1)
    return BoundReport("complete_monotonicity_exact", float(D[row, k, i]), tol, where)


def cm_sampled_report(
    x: np.ndarray, F: np.ndarray, m: float, k_max: int = 4, tol: float | None = None
) -> BoundReport:
    """Complete monotonicity from finite differences of uniformly sampled F:
    the margin is the smallest signed difference quotient, located at the
    (x, k) of its stencil centre.

    Orders above 4 amplify sampling noise beyond usefulness, hence the cap.
    """
    if k_max > 4:
        raise ValueError("finite-difference checks are limited to k_max <= 4")
    x = np.asarray(x, dtype=float)
    F = np.asarray(F, dtype=float)
    if x.ndim != 1 or x.size < k_max + 1:
        raise ValueError("need at least k_max + 1 samples")
    h = uniform_step(x)
    tol = CM_SAMPLED_RTOL * m if tol is None else tol
    worst, where = np.inf, ()
    for k in range(1, k_max + 1):
        est = np.diff(F, k) / h ** k
        signed = est if k % 2 == 1 else -est
        i = int(np.argmin(signed))
        if signed[i] < worst:
            worst, where = float(signed[i]), (float(0.5 * (x[i] + x[i + k])), k)
    return BoundReport("complete_monotonicity_sampled", worst, tol, where)


def hj_residual_grid(field: BernsteinField, scenario: ScenarioParams, eps: float) -> np.ndarray:
    """Pointwise residual of dF/dt + (Fx-m)(Fx-m-1)/2 + F/x - m = eps*G.

    The x = 0 column is NaN (the singular term is undefined there); the first
    and last time rows use one-sided differences and should not enter maxima.
    """
    if field.times.size < 3:
        raise ValueError("need at least 3 snapshot times for time differencing")
    m = scenario.m
    dFdt = time_derivative(field.F, field.times)
    res = np.full_like(field.F, np.nan)
    pos = field.x > 0
    ham = 0.5 * (field.Fx[:, pos] - m) * (field.Fx[:, pos] - m - 1.0)
    res[:, pos] = dFdt[:, pos] + ham + field.F[:, pos] / field.x[pos] - m
    if eps != 0.0:
        if field.g_eps is None:
            raise ValueError("field carries no G_eps forcing")
        res[:, pos] -= eps * field.g_eps[:, pos]
    return res


def hj_residual_worst(field: BernsteinField, scenario: ScenarioParams, eps: float) -> tuple:
    """(max |residual|, t, x) over interior snapshot times and x > 0."""
    res = hj_residual_grid(field, scenario, eps)
    cols = np.flatnonzero(field.x > 0)
    interior = np.abs(res[1:-1, cols])
    i, j = np.unravel_index(int(np.argmax(interior)), interior.shape)
    return float(interior[i, j]), float(field.times[1 + i]), float(field.x[cols[j]])
