"""Centralized checkers for the quantitative bounds and inequalities the
other modules are expected to respect.

Every check returns a structured BoundReport rather than a bare boolean so
callers can surface the worst-case location; violations near the blow-up
horizon are the most diagnostic ones.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bernstein import BernsteinField, _time_derivative
from .core import ScenarioParams

#: Relative slack on the second-moment envelope for deterministic runs.
ENVELOPE_RTOL = 1e-3

#: Relative slack on the moment interpolation inequalities.
HOLDER_RTOL = 1e-9

#: Relative slack on finite-difference derivative bounds.
DERIVATIVE_RTOL = 1e-2


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one named check.

    ``worst_margin`` is the signed distance to the bound (negative means the
    bound was crossed); the check fails iff worst_margin < -tolerance.
    """

    name: str
    worst_margin: float
    tolerance: float
    location: tuple = ()

    @property
    def passed(self) -> bool:
        return self.worst_margin >= -self.tolerance

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def __str__(self):
        where = f" at {self.location}" if self.location else ""
        return f"{self.name}: {self.status} (margin {self.worst_margin:.3e}{where})"


def second_moment_envelope(m2_0: float, t: float) -> float:
    """Upper envelope 1 / (1/m2_0 - t) for the second moment, valid on [0, t_star)."""
    if not m2_0 > 0:
        raise ValueError(f"initial second moment must be positive, got {m2_0}")
    t_star = 1.0 / m2_0
    if not 0 <= t < t_star:
        raise ValueError(f"t={t} outside the envelope's domain [0, {t_star})")
    return 1.0 / (1.0 / m2_0 - t)


def envelope_check(
    times: np.ndarray,
    m2_series: np.ndarray,
    m2_0: float,
    t_max: float | None = None,
    rtol: float = ENVELOPE_RTOL,
) -> BoundReport:
    """Second moment stays under its envelope for times up to t_max
    (default 0.8 * t_star).  Margins are relative to the envelope value."""
    times = np.asarray(times, dtype=float)
    m2_series = np.asarray(m2_series, dtype=float)
    t_star = 1.0 / m2_0
    t_max = 0.8 * t_star if t_max is None else t_max
    keep = times <= t_max * (1.0 + 1e-12)
    if not np.any(keep):
        raise ValueError(f"no samples at or before t_max={t_max}")
    t_kept = times[keep]
    env = np.array([second_moment_envelope(m2_0, t) for t in t_kept])
    margins = (env - m2_series[keep]) / env
    i = int(np.argmin(margins))
    return BoundReport(
        name="second_moment_envelope",
        worst_margin=float(margins[i]),
        tolerance=rtol,
        location=(float(t_kept[i]), "m2"),
    )


def holder_bounds_check(moments: np.ndarray, times: np.ndarray | None = None) -> BoundReport:
    """Interpolation inequalities m4*m1^2 >= m2^3 and m5*m1 >= m3^2, exact facts
    for any nonnegative measure, checked with relative slack HOLDER_RTOL."""
    moments = np.atleast_2d(np.asarray(moments, dtype=float))
    if moments.shape[1] < 6:
        raise ValueError("need moment vectors (m0..m5)")
    if np.any(moments[:, 1] <= 0):
        raise ValueError("mass must be positive at every sample")
    times = np.arange(moments.shape[0]) if times is None else np.asarray(times, dtype=float)
    m1, m2, m3, m4, m5 = (moments[:, k] for k in range(1, 6))
    scale_a = np.maximum(m2 ** 3, np.finfo(float).tiny)
    scale_b = np.maximum(m3 ** 2, np.finfo(float).tiny)
    margin_a = (m4 * m1 ** 2 - m2 ** 3) / scale_a
    margin_b = (m5 * m1 - m3 ** 2) / scale_b
    worst = np.inf
    loc = ()
    for label, margins in (("m4*m1^2 >= m2^3", margin_a), ("m5*m1 >= m3^2", margin_b)):
        i = int(np.argmin(margins))
        if margins[i] < worst:
            worst = float(margins[i])
            loc = (float(times[i]), label)
    return BoundReport(
        name="holder_moment_bounds", worst_margin=worst, tolerance=HOLDER_RTOL, location=loc
    )


_FRAG_COEFFICIENTS: dict[int, float] = {}


def frag_weak_coefficient(k: int) -> float:
    """Coefficient c_k with which constant-kernel binary breakup enters the
    k-th moment equation:  the weak form contributes -c_k * m_{k+1} (and
    -eps * c_k * m_{k+2} for the size-linear perturbation).

    Computed by quadrature of (1/2) * integral_0^1 (1 - (1-u)^k - u^k) du,
    exact for polynomial integrands at this node count.  This is the single
    coefficient oracle; downstream moment equations use it rather than any
    hand-copied constant.
    """
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    if k not in _FRAG_COEFFICIENTS:
        nodes, weights = np.polynomial.legendre.leggauss(24)
        u = 0.5 * (nodes + 1.0)
        integrand = 1.0 - (1.0 - u) ** k - u ** k
        _FRAG_COEFFICIENTS[k] = float(0.5 * 0.5 * np.dot(weights, integrand))
    return _FRAG_COEFFICIENTS[k]


def moment_ode_rhs(moments, eps: float, k: int) -> float:
    """Rate of change of m_k from the moment equations.

    k=2:  m2^2  - c2*(m3 + eps*m4)
    k=3:  3*m2*m3 - c3*(m4 + eps*m5)

    with c_k from the weak-form coefficient oracle.
    """
    m = np.asarray(moments, dtype=float)
    if m.shape != (6,):
        raise ValueError("need one moment vector (m0..m5)")
    if k == 2:
        return float(m[2] ** 2 - frag_weak_coefficient(2) * (m[3] + eps * m[4]))
    if k == 3:
        return float(3.0 * m[2] * m[3] - frag_weak_coefficient(3) * (m[4] + eps * m[5]))
    raise ValueError(f"moment equations are provided for k in {{2, 3}}, got {k}")


def moment_ode_rhs_on_grid(moments, eps: float, k: int, ds: float) -> float:
    """Grid-level form of moment_ode_rhs for a distribution living on a uniform
    grid with step ds.

    The split-point sums of discrete binary breakup evaluate in closed form,
    replacing each fragmentation moment m_p by m_p - ds^2 * m_{p-2}; the grid
    system obeys the moment equation with that correction exactly (up to
    truncation losses, which are ignored here).  Useful for tight cross-checks
    against measured trajectories.
    """
    m = np.asarray(moments, dtype=float)
    if m.shape != (6,):
        raise ValueError("need one moment vector (m0..m5)")
    if k == 2:
        c = frag_weak_coefficient(2)
        return float(m[2] ** 2 - c * ((m[3] - ds ** 2 * m[1]) + eps * (m[4] - ds ** 2 * m[2])))
    if k == 3:
        c = frag_weak_coefficient(3)
        return float(
            3.0 * m[2] * m[3] - c * ((m[4] - ds ** 2 * m[2]) + eps * (m[5] - ds ** 2 * m[3]))
        )
    raise ValueError(f"moment equations are provided for k in {{2, 3}}, got {k}")


def a_priori_cap(m: float, eps: float, k: int = 2) -> float:
    """Largest value 16 m^4 / (3 eps^2) of m2^2 - (eps/6) m2^3 / m^2 over m2 >= 0,
    reached at m2 = 4 m^2 / eps; it bounds dm2/dt for the perturbed system."""
    if k != 2:
        raise ValueError("only the second-moment cap has a closed operation")
    if not eps > 0:
        raise ValueError("the cap exists only for a positive perturbation")
    if not m > 0:
        raise ValueError(f"mass must be positive, got {m}")
    return 16.0 * m ** 4 / (3.0 * eps ** 2)


def time_derivative_bound(m: float, t_star: float, T: float) -> float:
    """Uniform bound m(m+5)/2 + 3/(t_star - T) on |dF/dt| for times up to T."""
    if not T < t_star:
        raise ValueError(f"T={T} must lie strictly below t_star={t_star}")
    return 0.5 * m * (m + 5.0) + 3.0 / (t_star - T)


def derivative_bounds_check(
    field: BernsteinField, scenario: ScenarioParams, T: float, rtol: float = DERIVATIVE_RTOL
) -> BoundReport:
    """Derivative bounds on a field restricted to times <= T < t_star:

        0 <= Fx <= m,   -1/(t_star - T) <= Fxx <= 0,   |dF/dt| <= time bound.

    Margins are relative to each bound's own scale; the time-derivative part
    is skipped when the field holds fewer than three snapshots.
    """
    if T >= scenario.t_star:
        raise ValueError(f"T={T} must lie strictly below t_star={scenario.t_star}")
    sub = field.restricted(T)
    m = scenario.m
    curv = 1.0 / (scenario.t_star - T)
    candidates = [
        ("Fx >= 0", float(sub.Fx.min()) / m),
        ("Fx <= m", float(m - sub.Fx.max()) / m),
        ("Fxx <= 0", float(-sub.Fxx.max()) / curv),
        ("Fxx >= -1/(t*-T)", float(sub.Fxx.min() + curv) / curv),
    ]
    if sub.times.size >= 3:
        bound = time_derivative_bound(m, scenario.t_star, T)
        dFdt = _time_derivative(sub.F, sub.times)
        candidates.append(("|dF/dt| <= bound", float(bound - np.max(np.abs(dFdt))) / bound))
    worst_label, worst = min(candidates, key=lambda c: c[1])
    return BoundReport(
        name="derivative_bounds",
        worst_margin=worst,
        tolerance=rtol,
        location=(float(T), worst_label),
    )
