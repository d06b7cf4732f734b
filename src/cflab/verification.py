"""Centralized checkers for the quantitative bounds and inequalities the
other modules are expected to respect.

Every check returns a structured BoundReport rather than a bare boolean so
callers can surface the worst-case location; violations near the blow-up
horizon are the most diagnostic ones.  The checks of a kinetic run are the
rows of ``cflab verify``.
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


def envelope_window(times, m2_0: float) -> np.ndarray:
    """Mask of the ``times`` at which the envelope is checked: those up to
    ENVELOPE_WINDOW * t_star."""
    return np.asarray(times, dtype=float) <= ENVELOPE_WINDOW * (1.0 / m2_0) * (1.0 + 1e-12)


def envelope_check(times: np.ndarray, m2_series: np.ndarray, m2_0: float) -> BoundReport:
    """Second moment stays under its envelope at the times of the envelope
    window.  Margins are relative to the envelope value."""
    times = np.asarray(times, dtype=float)
    m2_series = np.asarray(m2_series, dtype=float)
    keep = envelope_window(times, m2_0)
    if not np.any(keep):
        raise ValueError(f"no samples at or before {ENVELOPE_WINDOW:g} * t_star")
    t_kept = times[keep]
    env = np.array([second_moment_envelope(m2_0, t) for t in t_kept])
    margins = (env - m2_series[keep]) / env
    i = int(np.argmin(margins))
    return BoundReport(
        name="second_moment_envelope",
        worst_margin=float(margins[i]),
        tolerance=ENVELOPE_RTOL,
        location=(float(t_kept[i]), "m2"),
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
    candidates = [
        ("Fx >= 0", float(sub.Fx.min()) / m),
        ("Fx <= m", float(m - sub.Fx.max()) / m),
        ("Fxx <= 0", float(-sub.Fxx.max()) / curv),
        ("Fxx >= -1/(t*-T)", float(sub.Fxx.min() + curv) / curv),
    ]
    if sub.times.size >= 3:
        bound = time_derivative_bound(m, scenario.t_star, T)
        dFdt = time_derivative(sub.F, sub.times)
        candidates.append(("|dF/dt| <= bound", float(bound - np.max(np.abs(dFdt))) / bound))
    worst_label, worst = min(candidates, key=lambda c: c[1])
    return BoundReport(
        name="derivative_bounds",
        worst_margin=worst,
        tolerance=DERIVATIVE_RTOL,
        location=(float(T), worst_label),
    )


def g_eps_bound_check(field: BernsteinField, scenario: ScenarioParams, T: float) -> BoundReport:
    """max |G_eps| over the times <= T < t_star stays within 3/(t_star - T),
    with relative slack G_EPS_RTOL; located at the (t, x) of that max."""
    if T >= scenario.t_star:
        raise ValueError(f"T={T} must lie strictly below t_star={scenario.t_star}")
    sub = field.restricted(T)
    if sub.g_eps is None:
        raise ValueError("field carries no G_eps forcing")
    bound = 3.0 / (scenario.t_star - T)
    g = np.abs(sub.g_eps)
    i, j = np.unravel_index(int(np.argmax(g)), g.shape)
    margin = float((bound - g[i, j]) / bound)
    return BoundReport("g_eps_bound", margin, G_EPS_RTOL, (float(sub.times[i]), float(sub.x[j])))


def mass_conservation_check(traj: Trajectory) -> BoundReport:
    """Largest relative mass drift of a run against MASS_DRIFT_TOL, at the
    snapshot time of that drift."""
    drift = traj.moments.mass_drift
    i = int(np.argmax(drift))
    margin = float((MASS_DRIFT_TOL - drift[i]) / MASS_DRIFT_TOL)
    return BoundReport("mass_conservation", margin, 0.0, (float(traj.times[i]), "m1"))


def truncation_occupancy_check(traj: Trajectory) -> BoundReport:
    """Largest top-bin occupancy s_max * N_n / m1(0) of a run against
    TOP_BIN_OCCUPANCY_TOL, at the snapshot time of that occupancy: above it
    the truncation cap suppresses enough mass to invalidate the bound checks."""
    occupancy = traj.moments.top_bin_occupancy
    i = int(np.argmax(occupancy))
    margin = float((TOP_BIN_OCCUPANCY_TOL - occupancy[i]) / TOP_BIN_OCCUPANCY_TOL)
    return BoundReport("truncation_occupancy", margin, 0.0, (float(traj.times[i]), "s_max"))


def cm_sampled_check(field: BernsteinField) -> BoundReport:
    """Complete monotonicity, k <= 4, from the finite differences of F on the
    field's uniform x grid at each of its times: the margin is the smallest
    signed difference quotient, against CM_SAMPLED_RTOL * m, located at the
    (t, x, k) of its stencil centre.  Ties go to the earliest time, then the
    lowest order, then the lowest x."""
    x = field.x
    if x.size <= CM_SAMPLED_ORDERS:
        raise ValueError(f"need at least {CM_SAMPLED_ORDERS + 1} x samples")
    h = uniform_step(x)
    # signed[k - 1][t, i]: the order-k quotient at times[t] whose stencil starts at x[i]
    signed = [(-1) ** (k - 1) * np.diff(field.F, k, axis=1) / h ** k for k in range(1, CM_SAMPLED_ORDERS + 1)]
    worst = np.stack([q.min(axis=1) for q in signed], axis=1)  # (T, orders), row-major ties
    t, j = np.unravel_index(int(np.argmin(worst)), worst.shape)
    k, i = int(j) + 1, int(np.argmin(signed[j][t]))
    where = (float(field.times[t]), float(0.5 * (x[i] + x[i + k])), k)
    return BoundReport("complete_monotonicity_sampled", float(worst[t, j]), CM_SAMPLED_RTOL * field.m, where)


def hj_residual_check(
    field: BernsteinField, scenario: ScenarioParams, eps: float, ceiling: float, ds: float | None = None
) -> BoundReport:
    """Largest |residual| of the singular equation over interior snapshot
    times and x > 0 against ``ceiling``, at its (t, x); with the grid step
    ``ds``, the residual of the grid's equation (``hj_residual_grid``)."""
    cols = np.flatnonzero(field.x > 0)
    interior = np.abs(hj_residual_grid(field, scenario, eps, ds)[1:-1, cols])
    i, j = np.unravel_index(int(np.argmax(interior)), interior.shape)
    margin = float((ceiling - interior[i, j]) / ceiling)
    return BoundReport("hj_residual", margin, 0.0, (float(field.times[1 + i]), float(field.x[cols[j]])))


def weak_form_check(traj: Trajectory, x_values, ceiling: float) -> BoundReport:
    """Largest weak-form residual over the test functions 1 - exp(-x s), x in
    ``x_values``, against ``ceiling``, at its interior snapshot t and its x."""
    worst, t, x = max(
        ((*weak_form_residual(traj, _exp_test_function(xv)), xv) for xv in x_values),
        key=lambda found: found[0],
    )
    return BoundReport("weak_form_residual", float((ceiling - worst) / ceiling), 0.0, (t, x))


def _exp_test_function(x_value: float):
    def phi(s):
        return -np.expm1(-x_value * np.asarray(s, dtype=float))

    return phi
