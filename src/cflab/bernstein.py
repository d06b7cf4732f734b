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

from dataclasses import dataclass, replace

import numpy as np

from .core import BoundReport, ScenarioParams, SizeGrid, block_rows, kappa, time_derivative
from .kinetic import Trajectory

#: Relative slack on the sign checks of the exact transform sums.
CM_EXACT_RTOL = 1e-8

#: Orders k of the derivatives that the exact-sum sign check reads.
CM_EXACT_ORDERS = 6


@dataclass(frozen=True)
class BernsteinField:
    """F and its first two x-derivatives sampled on (times x x-grid).

    ``m2`` holds the second moment per snapshot, ``mass_gap`` the sums
    m1 - Fx = sum_i s_i (1 - exp(-x s_i)) N_i of ``bernstein_sums``, and
    ``g_eps`` the additive forcing G = m2/2 - Fxx/2 - (m1 - Fx)/x produced by
    the size-linear fragmentation perturbation, derived from the other two
    when not given.  At x = 0 the last two terms cancel against m2 exactly,
    so that column holds the limit 0.  All three are None for fields that
    were not built from distributions.
    """

    x: np.ndarray
    times: np.ndarray
    F: np.ndarray  # shape (T, X)
    Fx: np.ndarray
    Fxx: np.ndarray
    m: float
    m2: np.ndarray | None = None
    g_eps: np.ndarray | None = None
    mass_gap: np.ndarray | None = None

    def __post_init__(self):
        if self.F.shape != (self.times.size, self.x.size):
            raise ValueError("field arrays must have shape (len(times), len(x))")
        if self.g_eps is None and self.m2 is not None and self.mass_gap is not None:
            object.__setattr__(self, "g_eps", _forcing(self, None))

    def restricted(self, t_max: float) -> "BernsteinField":
        """Sub-field with snapshot times <= t_max."""
        keep = self.times <= t_max * (1.0 + 1e-12) + 1e-300
        if not np.any(keep):
            raise ValueError(f"no snapshots at or before t={t_max}")
        rows = {name: getattr(self, name) for name in ("times", "F", "Fx", "Fxx", "m2", "g_eps", "mass_gap")}
        return replace(self, **{name: None if v is None else v[keep] for name, v in rows.items()})


def bernstein_sums(grid: SizeGrid, counts: np.ndarray, x: np.ndarray, k_max: int = 2):
    """For each row N of ``counts`` (T, n) on ``grid``: F(x) = sum_i (1 - exp(-x s_i)) N_i,
    shape (T, X), D_k(x) = sum_i s_i^k exp(-x s_i) N_i = (-1)^(k-1) d^k F / dx^k
    as D[t, k - 1] for k = 1..k_max, shape (T, k_max, X), and
    W(x) = sum_i s_i (1 - exp(-x s_i)) N_i = m1 - Fx, shape (T, X).

    Every term of D_k is nonnegative, so the sign pattern of complete
    monotonicity holds for D with zero tolerance; F and W use expm1, which
    keeps small-x values fully accurate where m1 - D_1 would be roundoff.
    The exponentials are formed once per call, ``block_rows(n)`` x values at
    a time; each row is its own matrix-vector product, so a row's sums do not
    depend on the other rows.
    """
    s, x = grid.sizes, np.asarray(x, dtype=float)
    rows = block_rows(s.size)
    F, W = np.empty((2, len(counts), x.size))
    D = np.empty((len(counts), k_max, x.size))
    for lo in range(0, x.size, rows):
        phase = np.outer(-x[lo : lo + rows], s)  # -x s, without a negated copy
        decay = np.exp(phase)
        growth = np.negative(np.expm1(phase, out=phase), out=phase)  # 1 - exp(-x s), in place
        for t, N in enumerate(counts):
            F[t, lo : lo + rows] = growth @ N
            W[t, lo : lo + rows] = growth @ (s * N)
            D[t, :, lo : lo + rows] = [decay @ (s ** k * N) for k in range(1, k_max + 1)]
    return F, D, W


def field_from_trajectory(traj: Trajectory, x_grid: np.ndarray) -> BernsteinField:
    """Transform every snapshot of a kinetic trajectory at the x of ``x_grid``."""
    x = np.asarray(x_grid, dtype=float)
    F, D, W = bernstein_sums(traj.grid, traj.counts, x)
    series = traj.moments
    return BernsteinField(
        x=x, times=series.times.copy(), F=F, Fx=D[:, 0], Fxx=-D[:, 1],
        m=float(series.moments[0, 1]), m2=series.column(2).copy(), mass_gap=W,
    )


def _over_x(values: np.ndarray, x: np.ndarray, ds: float | None) -> np.ndarray:
    """``values`` / x, or ``values`` * kappa(x, ds) on the grid of step ``ds``."""
    return values / x if ds is None else values * kappa(x, ds)


def _forcing(field: BernsteinField, ds: float | None) -> np.ndarray:
    """G = m2/2 - Fxx/2 - (m1 - Fx)/x of ``field``, with kappa(x, ds) for 1/x
    given a grid step ``ds``; 0 at x = 0."""
    out = np.zeros_like(field.Fx)
    pos = field.x > 0
    gap = _over_x(field.mass_gap[:, pos], field.x[pos], ds)
    out[:, pos] = 0.5 * field.m2[:, None] - 0.5 * field.Fxx[:, pos] - gap
    return out


def cm_exact_report(grid: SizeGrid, counts: np.ndarray, times, x_samples) -> BoundReport:
    """Complete monotonicity, k <= 6, of each row of ``counts`` (T, n), the
    state at ``times``, from the exact sums D_1..D_6 at ``x_samples``: the
    margin is the smallest D_k(x) relative to the mass of the first row,
    located at its (t, x, k)."""
    x = np.asarray(x_samples, dtype=float)
    _, D, _ = bernstein_sums(grid, counts, x, CM_EXACT_ORDERS)
    row, k, i = np.unravel_index(int(np.argmin(D)), D.shape)
    margin = float(D[row, k, i]) / max(float(np.dot(grid.sizes, counts[0])), 1e-300)
    where = (float(times[row]), float(x[i]), int(k) + 1)
    return BoundReport("complete_monotonicity_exact", margin, CM_EXACT_RTOL, where)


def hj_residual_grid(
    field: BernsteinField, scenario: ScenarioParams, eps: float, ds: float | None = None
) -> np.ndarray:
    """Pointwise residual of dF/dt + (Fx-m)(Fx-m-1)/2 + F/x - m = eps*G.

    Given the step ``ds`` of the size grid that the field's distributions
    live on, kappa(x, ds) replaces 1/x in F/x and in G: the equation that the
    sectional system's transform satisfies exactly, so the residual is that
    of the time stepping and differencing alone.  Without it the residual
    also holds the O(ds^2) distance of the grid from the continuum.

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
    res[:, pos] = dFdt[:, pos] + ham + _over_x(field.F[:, pos], field.x[pos], ds) - m
    if eps != 0.0:
        if field.g_eps is None or (ds is not None and field.mass_gap is None):
            raise ValueError("field carries no G_eps forcing")
        res[:, pos] -= eps * (field.g_eps if ds is None else _forcing(field, ds))[:, pos]
    return res

