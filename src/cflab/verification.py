"""Centralized checkers for the quantitative bounds and inequalities the
other modules are expected to respect.

Every check returns a structured BoundReport rather than a bare boolean so
callers can surface the worst-case location; violations near the blow-up
horizon are the most diagnostic ones.  Each check forms its margins over the
indices of that location and reduces them with ``BoundReport.worst``.  The
checks of a kinetic run are the rows of ``cflab verify``.
"""
from __future__ import annotations

import numpy as np

from .bernstein import BernsteinField, hj_residual_grid
from .core import BoundReport, ScenarioParams, time_derivative, uniform_step
from .kinetic import MASS_DRIFT_TOL, TOP_BIN_OCCUPANCY_TOL, Trajectory, weak_form_residual

#: Relative slack on the second-moment envelope for deterministic runs.
ENVELOPE_RTOL = 1e-3

#: The envelope is checked at the times up to this fraction of t_star.
ENVELOPE_WINDOW = 0.8

#: Relative slack on the moment interpolation inequalities.
HOLDER_RTOL = 1e-9

#: Relative slack on finite-difference derivative bounds.
DERIVATIVE_RTOL = 1e-2

#: Relative slack on the bound 3/(t_star - T) of the G_eps forcing.
G_EPS_RTOL = 1e-2

#: Slack on finite-differenced sampled fields, relative to the mass.
CM_SAMPLED_RTOL = 1e-4

#: Orders k that the sampled sign check reads; higher ones amplify sampling noise.
CM_SAMPLED_ORDERS = 4


def second_moment_envelope(m2_0: float, t: float) -> float:
    """Upper envelope 1 / (1/m2_0 - t) for the second moment, valid on [0, t_star)."""
    if not m2_0 > 0:
        raise ValueError(f"initial second moment must be positive, got {m2_0}")
    t_star = 1.0 / m2_0
    if not 0 <= t < t_star:
        raise ValueError(f"t={t} outside the envelope's domain [0, {t_star})")
    return 1.0 / (1.0 / m2_0 - t)


def envelope_check(times: np.ndarray, m2_series: np.ndarray, m2_0: float) -> BoundReport:
    """Second moment stays under its envelope at the ``times`` up to
    ENVELOPE_WINDOW * t_star, with 1e-12 relative slack on that edge.
    Margins are relative to the envelope value."""
    times = np.asarray(times, dtype=float)
    m2_series = np.asarray(m2_series, dtype=float)
    keep = times <= ENVELOPE_WINDOW * (1.0 / m2_0) * (1.0 + 1e-12)
    if not np.any(keep):
        raise ValueError(f"no samples at or before {ENVELOPE_WINDOW:g} * t_star")
    t_kept = times[keep]
    env = np.array([second_moment_envelope(m2_0, t) for t in t_kept])
    margins = (env - m2_series[keep]) / env
    return BoundReport.worst(
        "second_moment_envelope", margins, ENVELOPE_RTOL, lambda i: (float(t_kept[i]), "m2")
    )


def holder_bounds_check(moments: np.ndarray, times: np.ndarray) -> BoundReport:
    """Interpolation inequalities m4*m1^2 >= m2^3 and m5*m1 >= m3^2, exact facts
    for any nonnegative measure, checked with relative slack HOLDER_RTOL on
    each row of ``moments`` (m0..m5), located at its entry of ``times``."""
    moments = np.atleast_2d(np.asarray(moments, dtype=float))
    if moments.shape[1] < 6:
        raise ValueError("need moment vectors (m0..m5)")
    if np.any(moments[:, 1] <= 0):
        raise ValueError("mass must be positive at every sample")
    times = np.asarray(times, dtype=float)
    m1, m2, m3, m4, m5 = (moments[:, k] for k in range(1, 6))
    # ratios of moments, so that no power of a huge moment overflows
    margins = np.column_stack([(m4 / m2) * (m1 / m2) * (m1 / m2) - 1.0, (m5 / m3) * (m1 / m3) - 1.0])
    labels = ("m4*m1^2 >= m2^3", "m5*m1 >= m3^2")
    return BoundReport.worst(
        "holder_moment_bounds", margins, HOLDER_RTOL, lambda i, k: (float(times[i]), labels[k])
    )


def time_derivative_bound(m: float, t_star: float, T: float) -> float:
    """Uniform bound m(m+5)/2 + 3/(t_star - T) on |dF/dt| for times up to T."""
    if not T < t_star:
        raise ValueError(f"T={T} must lie strictly below t_star={t_star}")
    return 0.5 * m * (m + 5.0) + 3.0 / (t_star - T)


def derivative_bounds_check(field: BernsteinField, scenario: ScenarioParams, T: float) -> BoundReport:
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
    labels = ["Fx >= 0", "Fx <= m", "Fxx <= 0", "Fxx >= -1/(t*-T)"]
    margins = [
        float(sub.Fx.min()) / m,
        float(m - sub.Fx.max()) / m,
        float(-sub.Fxx.max()) / curv,
        float(sub.Fxx.min() + curv) / curv,
    ]
    if sub.times.size >= 3:
        bound = time_derivative_bound(m, scenario.t_star, T)
        dFdt = time_derivative(sub.F, sub.times)
        labels.append("|dF/dt| <= bound")
        margins.append(float(bound - np.max(np.abs(dFdt))) / bound)
    return BoundReport.worst("derivative_bounds", margins, DERIVATIVE_RTOL, lambda i: (float(T), labels[i]))


def g_eps_bound_check(field: BernsteinField, scenario: ScenarioParams, T: float) -> BoundReport:
    """|G_eps| over the times <= T < t_star stays within 3/(t_star - T),
    with relative slack G_EPS_RTOL, at each (t, x)."""
    if T >= scenario.t_star:
        raise ValueError(f"T={T} must lie strictly below t_star={scenario.t_star}")
    sub = field.restricted(T)
    bound = 3.0 / (scenario.t_star - T)
    margins = (bound - np.abs(sub.forcing())) / bound
    return BoundReport.worst(
        "g_eps_bound", margins, G_EPS_RTOL, lambda i, j: (float(sub.times[i]), float(sub.x[j]))
    )


def mass_conservation_check(traj: Trajectory) -> BoundReport:
    """Relative mass drift of a run against MASS_DRIFT_TOL at each snapshot time."""
    margins = (MASS_DRIFT_TOL - traj.moments.mass_drift) / MASS_DRIFT_TOL
    return BoundReport.worst("mass_conservation", margins, 0.0, lambda i: (float(traj.times[i]), "m1"))


def truncation_occupancy_check(traj: Trajectory) -> BoundReport:
    """Top-bin occupancy s_max * N_n / m1(0) of a run against
    TOP_BIN_OCCUPANCY_TOL at each snapshot time: above it the truncation cap
    suppresses enough mass to invalidate the bound checks."""
    margins = (TOP_BIN_OCCUPANCY_TOL - traj.moments.top_bin_occupancy) / TOP_BIN_OCCUPANCY_TOL
    return BoundReport.worst("truncation_occupancy", margins, 0.0, lambda i: (float(traj.times[i]), "s_max"))


def cm_sampled_check(field: BernsteinField) -> BoundReport:
    """Complete monotonicity, k <= 4, from the finite differences of F on the
    field's uniform x grid at each of its times: the margin is the smallest
    signed difference quotient, against CM_SAMPLED_RTOL * m, located at the
    (t, x, k) of its stencil centre."""
    x = field.x
    if x.size <= CM_SAMPLED_ORDERS:
        raise ValueError(f"need at least {CM_SAMPLED_ORDERS + 1} x samples")
    h = uniform_step(x)
    # signed[t, k - 1, i]: the order-k quotient at times[t] whose stencil starts at x[i], +inf past x[-k]
    signed = np.full((field.times.size, CM_SAMPLED_ORDERS, x.size - 1), np.inf)
    for k in range(1, CM_SAMPLED_ORDERS + 1):
        signed[:, k - 1, : x.size - k] = (-1) ** (k - 1) * np.diff(field.F, k, axis=1) / h**k

    def locate(t, j, i):
        return float(field.times[t]), float(0.5 * (x[i] + x[i + j + 1])), j + 1

    return BoundReport.worst("complete_monotonicity_sampled", signed, CM_SAMPLED_RTOL * field.m, locate)


def hj_residual_check(
    field: BernsteinField, scenario: ScenarioParams, eps: float, ceiling: float, ds: float | None = None
) -> BoundReport:
    """|residual| of the singular equation against ``ceiling`` at each
    interior snapshot time and x > 0; with the grid step ``ds``, the residual
    of the grid's equation (``hj_residual_grid``)."""
    cols = np.flatnonzero(field.x > 0)
    margins = (ceiling - np.abs(hj_residual_grid(field, scenario, eps, ds)[1:-1, cols])) / ceiling
    return BoundReport.worst(
        "hj_residual", margins, 0.0, lambda i, j: (float(field.times[1 + i]), float(field.x[cols[j]]))
    )


def weak_form_check(traj: Trajectory, x_values, ceiling: float) -> BoundReport:
    """|residual| of each test function 1 - exp(-x s), x in ``x_values``,
    against ``ceiling`` at each interior snapshot time and x."""
    residual = np.column_stack([weak_form_residual(traj, _exp_test_function(xv)) for xv in x_values])
    return BoundReport.worst(
        "weak_form_residual", (ceiling - residual) / ceiling, 0.0,
        lambda i, j: (float(traj.times[1 + i]), float(x_values[j])),
    )


def _exp_test_function(x_value: float):
    def phi(s):
        return -np.expm1(-x_value * np.asarray(s, dtype=float))

    return phi
