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
from .core import BoundReport, Distribution, check_stride, step_count
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
        F, D = bernstein_sums(dist, np.atleast_1d(np.asarray(x, dtype=float)), k_max=1)
        return F, D[0]

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
    rejected as invalid initial data.  The fan takes ``round(t_end / dt)``
    steps and records every ``record_every``-th; that stride must divide the
    steps or reach past them, so the recorded times are uniformly spaced.
    Paths that would cross the X floor are frozen and marked, not
    extrapolated.  Non-crossing of the recorded fan is verified before
    returning.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 1 or starts.size < 1:
        raise ValueError("starts must be a one-dimensional array")
    if np.any(starts <= 0) or np.any(np.diff(starts) <= 0):
        raise ValueError("starts must be positive and strictly increasing")

    z0, p0 = f0_eval(starts)
    z0 = np.asarray(z0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    slack = 1e-9 * max(1.0, m)
    if np.any(p0 < -slack) or np.any(p0 > m + slack):
        raise ValueError("initial slope outside [0, m]: not valid transform data")

    n_steps = step_count(t_end, dt)
    check_stride("record_every", record_every, n_steps)
    dt = t_end / n_steps if n_steps else 0.0

    x, p, z = starts.copy(), p0.copy(), z0.copy()
    alive = np.ones(starts.size, dtype=bool)

    rec_times = [0.0]
    rec = [(x.copy(), p.copy(), z.copy(), alive.copy())]
    for k in range(1, n_steps + 1):
        # freeze paths that could touch the floor during this step (drift <= m+1/2)
        dying = alive & (x - (m + 0.5) * dt <= X_FLOOR)
        alive = alive & ~dying
        if np.any(alive):
            idx = np.flatnonzero(alive)
            xs, ps, zs = x[idx], p[idx], z[idx]
            k1 = char_rhs((xs, ps, zs), m)
            k2 = char_rhs((xs + 0.5 * dt * k1[0], ps + 0.5 * dt * k1[1], zs + 0.5 * dt * k1[2]), m)
            k3 = char_rhs((xs + 0.5 * dt * k2[0], ps + 0.5 * dt * k2[1], zs + 0.5 * dt * k2[2]), m)
            k4 = char_rhs((xs + dt * k3[0], ps + dt * k3[1], zs + dt * k3[2]), m)
            x[idx] = xs + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            p[idx] = ps + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            z[idx] = zs + (dt / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        if k % record_every == 0 or k == n_steps:
            rec_times.append(k * dt)
            rec.append((x.copy(), p.copy(), z.copy(), alive.copy()))

    fan = CharacteristicFan(
        starts=starts,
        times=np.asarray(rec_times),
        x=np.stack([r[0] for r in rec]),
        p=np.stack([r[1] for r in rec]),
        z=np.stack([r[2] for r in rec]),
        alive=np.stack([r[3] for r in rec]),
        m=m,
    )
    _assert_no_crossing(fan)
    return fan


def _assert_no_crossing(fan: CharacteristicFan):
    for i, t in enumerate(fan.times):
        live = fan.alive[i]
        if np.count_nonzero(live) < 2:
            continue
        gaps = np.diff(fan.x[i, live])
        if gaps.min() <= CROSSING_SEPARATION:
            j = int(np.argmin(gaps))
            raise FanCrossingError(
                f"paths crossed at t={t:.6g} (gap {gaps.min():.3e} near start index {j})"
            )


def reconstruct(fan: CharacteristicFan, x_query, t: float):
    """F(x, t) = Z(X^{-1}(x, t), t) by monotone piecewise-cubic interpolation.

    Raises FanCoverageError when the query leaves the surviving paths' range;
    the error carries the covered interval so the caller can widen the starts.
    """
    return _interp_fan(fan, x_query, t, fan.z)


def reconstruct_slope(fan: CharacteristicFan, x_query, t: float):
    """dF/dx read back from P along the paths, same interpolation rules."""
    return _interp_fan(fan, x_query, t, fan.p)


def _interp_fan(fan, x_query, t, values):
    i = fan.time_index(t)
    live = fan.alive[i]
    if np.count_nonzero(live) < 2:
        raise FanCoverageError(f"fewer than two surviving paths at t={t}")
    xs = fan.x[i, live]
    vs = values[i, live]
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
    Per-path worst cases are located at (t, path index), cross-path ones at
    (t, gap index among the surviving paths); a second difference is located
    at the lower of its two gaps.
    """
    m = fan.m
    checks = []
    fp_tol = 1e-12 * max(1.0, m)
    alive = fan.alive

    p_margin = np.where(alive, np.minimum(fan.p, m - fan.p), np.inf)
    checks.append(_path_major_worst("p_within_[0,m]", p_margin, fp_tol, fan.times))

    dp = np.where(alive[:-1] & alive[1:], np.diff(fan.p, axis=0), np.inf)
    checks.append(_path_major_worst("p_nondecreasing", dp, 1e-10, fan.times))
    rhs = np.where(alive, (fan.z / fan.x - fan.p) / fan.x, np.inf)
    checks.append(_path_major_worst("dp_nonnegative", rhs, 1e-10, fan.times))

    cross_worst, cross_loc = np.inf, ()
    slope_worst, slope_loc = np.inf, ()
    curv_worst, curv_loc = np.inf, ()
    for i, t in enumerate(fan.times):
        live = fan.alive[i]
        if np.count_nonzero(live) < 2:
            continue
        xs = fan.x[i, live]
        zs = fan.z[i, live]
        gaps = np.diff(xs)
        g = int(np.argmin(gaps))
        if gaps[g] - CROSSING_SEPARATION < cross_worst:
            cross_worst, cross_loc = float(gaps[g] - CROSSING_SEPARATION), (float(t), g)
        quot = np.diff(zs) / gaps
        slope = np.minimum(quot, m - quot)
        q = int(np.argmin(slope))
        if slope[q] < slope_worst:
            slope_worst, slope_loc = float(slope[q]), (float(t), q)
        if t_star is not None and quot.size >= 2:
            second = 2.0 * np.diff(quot) / (xs[2:] - xs[:-2])
            floor = -1.0 / (t_star - fan.times[-1])
            curv = np.minimum(second - floor, -second)
            q = int(np.argmin(curv))
            if curv[q] < curv_worst:
                curv_worst, curv_loc = float(curv[q]), (float(t), q)
    checks.append(BoundReport("non_crossing", cross_worst if np.isfinite(cross_worst) else 0.0, 0.0, cross_loc))
    checks.append(BoundReport("slope_quotients_in_[0,m]", slope_worst if np.isfinite(slope_worst) else 0.0, 1e-8 * max(1.0, m), slope_loc))
    if t_star is not None:
        curv_scale = 1.0 / (t_star - fan.times[-1]) if fan.times[-1] < t_star else 1.0
        checks.append(
            BoundReport(
                "curvature_within_envelope",
                curv_worst if np.isfinite(curv_worst) else 0.0,
                1e-3 * curv_scale + 1e-10,
                curv_loc,
            )
        )
        checks.append(_spread_factor_check(fan, t_star))
    return tuple(checks)


def _spread_factor_check(fan: CharacteristicFan, t_star: float) -> BoundReport:
    """exp(t/(t_star - t_end)) * (adjacent X gap) must be nondecreasing in t."""
    tau = t_star - fan.times[-1]
    if tau <= 0:
        return BoundReport("x_spread_factor_nondecreasing", -np.inf, 0.0, ("t_end >= t_star",))
    pair = fan.alive[:, 1:] & fan.alive[:, :-1]
    valid = pair[1:] & pair[:-1]
    spread = np.exp(fan.times / tau)[:, None] * (fan.x[:, 1:] - fan.x[:, :-1])
    rel = np.full(valid.shape, np.inf)
    rel[valid] = np.diff(spread, axis=0)[valid] / np.maximum(spread[:-1][valid], np.finfo(float).tiny)
    return _path_major_worst("x_spread_factor_nondecreasing", rel, 1e-8, fan.times)


def _path_major_worst(name: str, values: np.ndarray, tolerance: float, times) -> BoundReport:
    """Smallest entry of ``values`` (times, paths), masked with +inf, at its
    (t, path); ties go to the lowest path, then the earliest time.  Paths
    never revive once terminated, so this is the minimum a loop over paths
    finds.  With nothing unmasked the margin is 0 and the location empty."""
    by_path = values.T
    if not np.any(np.isfinite(by_path)):
        return BoundReport(name, 0.0, tolerance)
    jp, i = np.unravel_index(int(np.argmin(by_path)), by_path.shape)
    return BoundReport(name, float(by_path[jp, i]), tolerance, (float(times[i]), int(jp)))
