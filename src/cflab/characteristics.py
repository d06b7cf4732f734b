"""Characteristics solver for the limiting singular Hamilton-Jacobi equation.

Each path integrates the explicit Hamiltonian system

    dX/dt = P - (m + 1/2)
    dP/dt = Z/X^2 - P/X
    dZ/dt = P^2/2 - Z/X + m(1-m)/2

from X(0) = x0, P(0) = F0'(x0), Z(0) = F0(x0).  For valid concave initial
data with 0 <= F0' <= m the paths drift left at speed between 1/2 and m+1/2,
P never decreases, and paths never cross before the blow-up horizon; all of
these are enforced as runtime checks, not assumed.  The solution is read back
as F(x, t) = Z(X^{-1}(x, t), t) through monotone interpolation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bernstein import BernsteinField, bernstein_sums
from .core import BoundReport, Distribution, march, rk4
from .errors import FanCoverageError, FanCrossingError

#: Paths are terminated (not extrapolated) once X falls to this floor.
X_FLOOR = 1e-6

#: Minimum separation between adjacent paths for the non-crossing check.
CROSSING_SEPARATION = 1e-12


def char_rhs(state, m: float):
    """Right-hand side of the Hamiltonian system; raises on the singular boundary."""
    x, p, z = state
    if np.any(np.asarray(x) <= 0):
        raise ValueError("characteristic reached the singular boundary x <= 0")
    return (p - (m + 0.5), z / (x * x) - p / x, 0.5 * p * p - z / x + 0.5 * m * (1.0 - m))


def monodisperse_transform(m: float, size: float = 1.0) -> Callable:
    """Initial-data handle (F0, F0') for a point mass m at the given size."""
    number = m / size

    def f0(x):
        x = np.asarray(x, dtype=float)
        return number * (-np.expm1(-size * x)), m * np.exp(-size * x)

    return f0


def distribution_transform(dist: Distribution) -> Callable:
    """Initial-data handle (F0, F0') from the exact transform of a distribution."""

    def f0(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        F, D = bernstein_sums(dist.grid, dist.counts[None], x, k_max=1)
        return F[0], D[0, 0]

    return f0


@dataclass(frozen=True)
class CharacteristicFan:
    """Ordered family of characteristic paths indexed by starting point.

    ``x``, ``p``, ``z`` have shape (times, paths); ``alive`` marks states prior
    to termination at the X_FLOOR boundary.  Terminated paths keep their last
    valid state frozen and are excluded from reconstruction and checks.
    """

    starts: np.ndarray
    times: np.ndarray
    x: np.ndarray
    p: np.ndarray
    z: np.ndarray
    alive: np.ndarray
    m: float

    @property
    def n_paths(self) -> int:
        return self.starts.size

    @property
    def terminated(self) -> np.ndarray:
        """Per-path flag: True when the path hit the X floor before the end."""
        return ~self.alive[-1]

    def time_index(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(
                f"t={t} is not a recorded fan time (nearest is {self.times[i]:.6g})"
            )
        return i

    def coverage(self, t: float) -> tuple:
        """(min X, max X) over surviving paths at recorded time t."""
        i = self.time_index(t)
        live = self.alive[i]
        if not np.any(live):
            raise FanCoverageError(f"no surviving paths at t={t}")
        xs = self.x[i, live]
        return float(xs[0]), float(xs[-1])


def default_starts(m: float, t_end: float, x_lo: float, x_hi: float, n_paths: int) -> np.ndarray:
    """Geometric placement of starting points that covers [x_lo, x_hi] at all
    times up to t_end.

    Paths drift left at speed in [1/2, m+1/2], so right coverage needs starts
    up to x_hi + (m+1/2)t and survival needs starts above (m+1/2)t.
    """
    if n_paths < 2:
        raise ValueError("need at least two starting points")
    lo = max(x_lo, (m + 0.5) * t_end * (1.0 + 1e-9) + 10.0 * X_FLOOR)
    hi = x_hi + (m + 0.5) * t_end + 1e-9
    if not lo < hi:
        raise ValueError(f"empty start range [{lo}, {hi}]")
    return np.geomspace(lo, hi, n_paths)


def integrate_fan(
    f0_eval: Callable,
    starts: np.ndarray,
    t_end: float,
    dt: float,
    m: float,
    record_every: int = 1,
) -> CharacteristicFan:
    """Integrate one path per start with the classical 4th-order scheme.

    ``f0_eval(x)`` must return (F0(x), F0'(x)); slopes outside [0, m] are
    rejected as invalid initial data.  The (3, paths) state of rows X, P, Z
    goes through ``core.march``: ``round(t_end / dt)`` RK4 steps, recorded
    every ``record_every``-th, a stride that must divide the steps or reach
    past them.  Paths that would cross the X floor are frozen and marked, not
    extrapolated.  Non-crossing is verified on the state of every step, t = 0
    included, whether or not that state is recorded.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 1 or starts.size < 1:
        raise ValueError("starts must be a one-dimensional array")
    # written so that a nan fails every comparison
    if not (np.all(np.isfinite(starts) & (starts > 0)) and np.all(np.diff(starts) > 0)):
        raise ValueError("starts must be finite, positive and strictly increasing")

    z0, p0 = f0_eval(starts)
    z0 = np.asarray(z0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    slack = 1e-9 * max(1.0, m)
    if not np.all((p0 >= -slack) & (p0 <= m + slack)):
        raise ValueError("initial slope outside [0, m]: not valid transform data")

    def rhs(y):
        return np.array(char_rhs(y, m))

    def step(state, h, t):
        y, alive = state
        # freeze paths that could touch the floor during this step (drift <= m+1/2)
        alive = alive & ~(y[0] - (m + 0.5) * h <= X_FLOOR)
        if alive.all():
            y = rk4(rhs, y, h)
        elif alive.any():
            # take and row-wise scatters: 2-D fancy indexing costs several times more
            idx = np.flatnonzero(alive)
            y = y.copy()
            for row, stepped in zip(y, rk4(rhs, y.take(idx, axis=1), h)):
                row[idx] = stepped
        _check_no_crossing(y[0], alive, t)
        return y, alive

    state = (np.stack([starts, p0, z0]), np.ones(starts.size, dtype=bool))
    _check_no_crossing(starts, state[1], 0.0)
    times, states = march(step, state, t_end, dt, record_every, "record_every")
    x, p, z = np.stack([y for y, _ in states], axis=1)
    return CharacteristicFan(
        starts=starts, times=times, x=x, p=p, z=z, alive=np.stack([a for _, a in states]), m=m
    )


def _check_no_crossing(x: np.ndarray, alive: np.ndarray, t: float):
    """FanCrossingError unless the surviving paths of one fan state at time t
    stay ordered with adjacent gaps above CROSSING_SEPARATION."""
    live = x[alive]
    if live.size < 2:
        return
    gaps = np.diff(live)
    j = int(np.argmin(gaps))
    if not gaps[j] > CROSSING_SEPARATION:  # a nan gap fails too
        raise FanCrossingError(f"paths crossed at t={t:.6g} (gap {gaps[j]:.3e} near start index {j})")


def reconstruct(fan: CharacteristicFan, x_query, t: float):
    """F(x, t) = Z(X^{-1}(x, t), t) by monotone piecewise-cubic interpolation.

    Raises FanCoverageError when the query leaves the surviving paths' range;
    the error carries the covered interval so the caller can widen the starts.
    """
    i = fan.time_index(t)
    live = fan.alive[i]
    if np.count_nonzero(live) < 2:
        raise FanCoverageError(f"fewer than two surviving paths at t={t}")
    xs = fan.x[i, live]
    vs = fan.z[i, live]
    scalar = np.isscalar(x_query) or np.ndim(x_query) == 0
    xq = np.atleast_1d(np.asarray(x_query, dtype=float))
    pad = 1e-12 * max(1.0, float(xs[-1]))
    if xq.min() < xs[0] - pad or xq.max() > xs[-1] + pad:
        raise FanCoverageError(
            f"query range [{xq.min():.6g}, {xq.max():.6g}] outside fan coverage "
            f"[{xs[0]:.6g}, {xs[-1]:.6g}] at t={t}; widen the starts",
            covered=(float(xs[0]), float(xs[-1])),
            required=(float(xq.min()), float(xq.max())),
        )
    out = _pchip(xs, vs, np.clip(xq, xs[0], xs[-1]))[0]
    return float(out[0]) if scalar else out


def _pchip(xs, ys, xq):
    """Value and first derivative at ``xq`` of the monotone piecewise cubic
    through (xs, ys) of Fritsch & Carlson (SIAM J. Numer. Anal. 17, 1980), with
    the node slopes of scipy's PchipInterpolator; queries outside
    [xs[0], xs[-1]] extend the end cubics."""
    h = np.diff(xs)
    secant = np.diff(ys) / h
    if xs.size == 2:
        slope = np.full(2, secant[0])
    else:
        # inside: weighted harmonic mean of the secants, 0 where they change sign or vanish
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        flat = (np.sign(secant[1:]) != np.sign(secant[:-1])) | (secant[1:] == 0) | (secant[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = 1.0 / ((w1 / secant[:-1] + w2 / secant[1:]) / (w1 + w2))
        slope = np.empty_like(ys)
        slope[1:-1] = np.where(flat, 0.0, inner)
        # ends: one-sided three-point rule, limited to keep the shape
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], secant[[0, -1]], secant[[1, -2]]
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        keep = np.sign(d) == np.sign(m0)
        limit = keep & (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
        slope[[0, -1]] = np.where(keep, np.where(limit, 3.0 * m0, d), 0.0)
    # Hermite cubic on [xs[k], xs[k+1]] in local power form, s = x - xs[k]
    t = (slope[:-1] + slope[1:] - 2.0 * secant) / h
    c2 = (secant - slope[:-1]) / h - t
    c3 = t / h
    k = np.clip(np.searchsorted(xs, xq, side="right") - 1, 0, xs.size - 2)
    s = xq - xs[k]
    value = ys[k] + slope[k] * s + c2[k] * (s * s) + c3[k] * (s * s * s)
    deriv = slope[k] + (2.0 * c2[k]) * s + (3.0 * c3[k]) * (s * s)
    return value, deriv


def fan_to_field(fan: CharacteristicFan, x_grid: np.ndarray, times=None) -> BernsteinField:
    """Reconstructed field on a fixed x-grid; Fxx comes from the derivative of
    the monotone interpolant of (X, P), which extends past the surviving paths."""
    times = fan.times if times is None else np.asarray(times, dtype=float)
    x = np.asarray(x_grid, dtype=float)
    F = np.empty((times.size, x.size))
    Fx = np.empty_like(F)
    Fxx = np.empty_like(F)
    for r, t in enumerate(times):
        i = fan.time_index(t)
        live = fan.alive[i]
        F[r] = reconstruct(fan, x, t)
        Fx[r], Fxx[r] = _pchip(fan.x[i, live], fan.p[i, live], x)
    return BernsteinField(x=x, times=times, F=F, Fx=Fx, Fxx=Fxx, m=fan.m)


def monotone_derivative_checks(fan: CharacteristicFan, t_star: float | None = None) -> tuple:
    """Runtime verification of the structure valid fans must carry, as a
    tuple of BoundReport.

    Per path: P stays in [0, m] (so dX stays in [-(m+1/2), -1/2]) and P never
    decreases.  Across paths: X stays strictly ordered, difference quotients of
    (X, Z) stay in [0, m], and, when the blow-up horizon is supplied, second
    difference quotients respect the curvature floor -1/(t_star - t_end) and
    exp(t/(t_star - t_end)) * dX stays nondecreasing along each adjacent gap.
    Per-path worst cases are located at (t, path index), ties going to the
    lowest path, then the earliest time; cross-path ones at (t, gap index
    among the surviving paths), ties going to the earliest time, then the
    lowest gap; a second difference is located at the lower of its two gaps.
    ValueError unless t_star lies beyond the last fan time.
    """
    m, times = fan.m, fan.times
    tolerances = {
        "p_within_[0,m]": 1e-12 * max(1.0, m),
        "p_nondecreasing": 1e-10,
        "dp_nonnegative": 1e-10,
        "non_crossing": 0.0,
        "slope_quotients_in_[0,m]": 1e-8 * max(1.0, m),
    }
    if t_star is not None:
        tau = t_star - times[-1]
        if not tau > 0:
            raise ValueError(f"last fan time {times[-1]:.6g} must lie strictly below t_star={t_star}")
        scale, factor = 1.0 / tau, np.exp(times / tau)
        tolerances["curvature_within_envelope"] = 1e-3 * scale + 1e-10
        tolerances["x_spread_factor_nondecreasing"] = 1e-8
    worst = {}

    def offer(name, margins, i, per_path):
        """Keep the smallest entry of one row of margins at time index i under
        the key (margin, path, time) or (margin, time, gap); a nan ranks
        lowest, and masked (+inf) entries are never kept."""
        if margins.size == 0:
            return
        k = int(np.argmin(margins))
        margin = float(margins[k])
        if margin == np.inf:
            return
        rank = -np.inf if np.isnan(margin) else margin
        key = (rank, k, i) if per_path else (rank, i, k)
        if name not in worst or key < worst[name][0]:
            worst[name] = (key, BoundReport(name, margin, tolerances[name], (float(times[i]), k)))

    for i in range(times.size):
        live, x, p, z = fan.alive[i], fan.x[i], fan.p[i], fan.z[i]
        offer("p_within_[0,m]", np.where(live, np.minimum(p, m - p), np.inf), i, True)
        offer("dp_nonnegative", np.where(live, (z / x - p) / x, np.inf), i, True)
        if i + 1 < times.size:
            both = live & fan.alive[i + 1]
            offer("p_nondecreasing", np.where(both, fan.p[i + 1] - p, np.inf), i, True)
            if t_star is not None:
                now, later = (factor[j] * np.diff(fan.x[j]) for j in (i, i + 1))
                grow = (later - now) / np.maximum(now, np.finfo(float).tiny)
                offer("x_spread_factor_nondecreasing", np.where(both[1:] & both[:-1], grow, np.inf), i, True)
        xs, zs = x[live], z[live]
        gaps = np.diff(xs)
        quot = np.diff(zs) / gaps
        offer("non_crossing", gaps - CROSSING_SEPARATION, i, False)
        offer("slope_quotients_in_[0,m]", np.minimum(quot, m - quot), i, False)
        if t_star is not None:
            second = 2.0 * np.diff(quot) / (xs[2:] - xs[:-2])
            offer("curvature_within_envelope", np.minimum(second + scale, -second), i, False)
    return tuple(worst[name][1] if name in worst else BoundReport(name, 0.0, tol) for name, tol in tolerances.items())
