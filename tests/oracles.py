"""Closed-form and brute-force oracles the tests compare the library against.

None of these is part of cflab: the kernels are the rates the vectorized
solvers must realize, the exponential handle is the closed form of a
discretized profile's transform, and the ordering check compares two fans
built from different initial data, which no subcommand has.
"""
import numpy as np

from cflab import default_starts, integrate_fan, reconstruct
from cflab.errors import FanCoverageError


def coag_kernel(s, s_hat):
    """Multiplicative coagulation rate ``s * s_hat``."""
    return np.multiply(s, s_hat)


def frag_kernel(spec, s, s_hat):
    """Fragmentation rate ``1 + eps*(s + s_hat)``; the constant kernel at eps=0."""
    if not spec.frag_enabled:
        return np.multiply(0.0, np.add(s, s_hat))
    return 1.0 + spec.frag_eps * (np.add(s, s_hat))


def exponential_transform(m: float, lam: float = 1.0):
    """Initial-data handle for the number density proportional to s*exp(-lam*s)."""

    def f0(x):
        x = np.asarray(x, dtype=float)
        value = 0.5 * m * lam * (1.0 - lam ** 2 / (lam + x) ** 2)
        slope = m * lam ** 3 / (lam + x) ** 3
        return value, slope

    return f0


def scale_initial(f0, factor: float):
    """Pointwise scaling of an initial-data handle; keeps slopes consistent."""

    def scaled(x):
        value, slope = f0(x)
        return factor * value, factor * slope

    return scaled


def ordering_check(f0_low, f0_high, t, m, n_paths=800, dt=1e-3, x_window=None, tol=1e-6) -> bool:
    """True iff the reconstructed solutions stay ordered, F_low <= F_high + tol,
    on the common covered range at time t.

    Both data sets are solved with the same mass parameter m.  The pointwise
    ordering of the initial data is the caller's responsibility; swapped
    arguments simply return False.
    """
    if x_window is None:
        x_window = (max(0.2, (m + 0.5) * t * 1.05), 6.0)
    starts = default_starts(m, t, x_window[0], x_window[1], n_paths)
    fan_low = integrate_fan(f0_low, starts, t, dt, m)
    fan_high = integrate_fan(f0_high, starts, t, dt, m)
    lo = max(fan_low.coverage(t)[0], fan_high.coverage(t)[0], x_window[0])
    hi = min(fan_low.coverage(t)[1], fan_high.coverage(t)[1], x_window[1])
    if not lo < hi:
        raise FanCoverageError(f"no common coverage at t={t}")
    xs = np.linspace(lo, hi, 200)
    low_vals = reconstruct(fan_low, xs, t)
    high_vals = reconstruct(fan_high, xs, t)
    return bool(np.all(low_vals <= high_vals + tol))
