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

import numpy as np

from .core import BoundReport, ScenarioParams, SizeGrid, block_rows, time_derivative
from .kinetic import Trajectory

#: Relative slack on the sign checks of the exact transform sums.
CM_EXACT_RTOL = 1e-8

#: Orders k of the derivatives that the exact-sum sign check reads.
CM_EXACT_ORDERS = 6


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
    small-x values fully accurate.  The exponentials are formed once per call,
    ``block_rows(n)`` x values at a time; each row is its own matrix-vector
    product, so a row's sums do not depend on the other rows.
    """
    s, x = grid.sizes, np.asarray(x, dtype=float)
    rows = block_rows(s.size)
    F, D = np.empty((len(counts), x.size)), np.empty((len(counts), k_max, x.size))
    for lo in range(0, x.size, rows):
        phase = np.outer(-x[lo : lo + rows], s)  # -x s, without a negated copy
        decay = np.exp(phase)
        growth = np.negative(np.expm1(phase, out=phase), out=phase)  # 1 - exp(-x s), in place
        for t, N in enumerate(counts):
            F[t, lo : lo + rows] = growth @ N
            D[t, :, lo : lo + rows] = [decay @ (s ** k * N) for k in range(1, k_max + 1)]
    return F, D


def field_from_trajectory(traj: Trajectory, x_grid: np.ndarray) -> BernsteinField:
    """Transform every snapshot of a kinetic trajectory at the x of ``x_grid``."""
    x = np.asarray(x_grid, dtype=float)
    F, D = bernstein_sums(traj.grid, traj.counts, x)
    series = traj.moments
    return BernsteinField(
        x=x, times=series.times.copy(), F=F, Fx=D[:, 0], Fxx=-D[:, 1],
        m=float(series.moments[0, 1]), m2=series.column(2).copy(),
    )


def _forcing(x, Fx, Fxx, m, m2) -> np.ndarray:
    out = np.zeros_like(Fx)
    pos = x > 0
    out[:, pos] = 0.5 * m2[:, None] - 0.5 * Fxx[:, pos] - (m - Fx[:, pos]) / x[pos]
    return out


def cm_exact_report(grid: SizeGrid, counts: np.ndarray, times, x_samples) -> BoundReport:
    """Complete monotonicity, k <= 6, of each row of ``counts`` (T, n), the
    state at ``times``, from the exact sums D_1..D_6 at ``x_samples``: the
    margin is the smallest D_k(x) relative to the mass of the first row,
    located at its (t, x, k)."""
    x = np.asarray(x_samples, dtype=float)
    _, D = bernstein_sums(grid, counts, x, CM_EXACT_ORDERS)
    row, k, i = np.unravel_index(int(np.argmin(D)), D.shape)
    margin = float(D[row, k, i]) / max(float(np.dot(grid.sizes, counts[0])), 1e-300)
    where = (float(times[row]), float(x[i]), int(k) + 1)
    return BoundReport("complete_monotonicity_exact", margin, CM_EXACT_RTOL, where)


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

