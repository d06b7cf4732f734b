"""Closed-form and brute-force oracles the tests compare the library against.

None of these is part of cflab: the kernels are the rates the vectorized
solvers must realize, the moment equations and their breakup coefficient are
the closed forms the kinetic moments must follow, the exponential handle is
the closed form of a discretized profile's transform, the single-time field
is the transform of one distribution, the point-mass handle and the x grid
are the fixed inputs of several tests, and the ordering check compares two
fans built from different initial data, which no subcommand has; the
one-event oracle redoes a lockstep event of one replica in Python floats and
integers, the replay steps one replica event by event through
``gillespie_step``, and the exact rates and readings of a ``ParticleSystem``
are what the engine's O(1) rates and recorded moments must agree with.
The two loop oracles are the kinetic solver and the fan as each stepped and
recorded itself with its own RK4 before both went through ``core.march``.
"""
import math

import numpy as np

from cflab import (
    KernelSpec, SizeGrid, default_starts, distribution_transform, field_from_trajectory, integrate_fan, make_initial,
    reconstruct,
)
from cflab.characteristics import X_FLOOR, _check_no_crossing, char_rhs
from cflab.core import Distribution, _readonly
from cflab.errors import AbsorbingStateError, FanCoverageError
from cflab.kinetic import Trajectory, _checked, _rhs
from cflab.stochastic import (
    ENSEMBLE_MAX_MOMENT, ParticleSystem, _moments, _proposal_rates, gillespie_step, time_grid,
)


def coag_kernel(s, s_hat):
    """Multiplicative coagulation rate ``s * s_hat``."""
    return np.multiply(s, s_hat)


def frag_kernel(spec, s, s_hat):
    """Fragmentation rate ``1 + eps*(s + s_hat)``; the constant kernel at eps=0."""
    return 1.0 + spec.frag_eps * (np.add(s, s_hat))


def frag_weak_coefficient(k: int) -> float:
    """Coefficient c_k with which constant-kernel binary breakup enters the
    k-th moment equation:  the weak form contributes -c_k * m_{k+1} (and
    -eps * c_k * m_{k+2} for the size-linear perturbation).

    c_k = (1/2) * integral_0^1 (1 - (1-u)^k - u^k) du = (k-1) / (2(k+1)).
    This is the single coefficient oracle; downstream moment equations use it
    rather than any hand-copied constant.
    """
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    return (k - 1) / (2.0 * (k + 1))


def moment_ode_rhs_on_grid(moments, eps: float, k: int, ds: float) -> float:
    """Rate of change of m_k from the moment equations of a distribution on a
    uniform grid with step ds:

    k=2:  m2^2  - c2*(m3 + eps*m4)
    k=3:  3*m2*m3 - c3*(m4 + eps*m5)

    with c_k from the weak-form coefficient oracle, and each fragmentation
    moment m_p replaced by m_p - ds^2 * m_{p-2}, the closed form of the
    split-point sums of discrete binary breakup.  The grid system obeys this
    exactly (up to truncation losses, which are ignored here); at ds = 0 it is
    the continuum equation.
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


def distribution_field(dist: Distribution, x_grid):
    """The field at t = 0 of one distribution: ``field_from_trajectory`` of the
    run whose one snapshot is ``dist``."""
    traj = Trajectory.of_snapshots([0.0], dist.counts[None], dist.grid, KernelSpec.for_grid(dist.grid))
    return field_from_trajectory(traj, x_grid)


def point_mass_transform():
    """Initial-data handle of a unit point mass at size 1: (1 - exp(-x), exp(-x)), bit for bit."""
    return distribution_transform(make_initial("monodisperse", SizeGrid(ds=0.25, n=8), mass=1.0, size=1.0))


def x_grid(num: int = 64) -> np.ndarray:
    """The origin, then ``num`` geometric x on [1e-3, 20]."""
    return np.concatenate([[0.0], np.geomspace(1e-3, 20.0, num)])


def covered(fan, t) -> tuple:
    """(first, last) X of the paths of ``fan`` that survive at recorded time t."""
    i = fan.time_index(t)
    xs = fan.x[i, fan.alive[i]]
    return float(xs[0]), float(xs[-1])


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
    lo = max(covered(fan_low, t)[0], covered(fan_high, t)[0], x_window[0])
    hi = min(covered(fan_low, t)[1], covered(fan_high, t)[1], x_window[1])
    if not lo < hi:
        raise FanCoverageError(f"no common coverage at t={t}")
    xs = np.linspace(lo, hi, 200)
    low_vals = reconstruct(fan_low, xs, t)
    high_vals = reconstruct(fan_high, xs, t)
    return bool(np.all(low_vals <= high_vals + tol))


def _inverse_cdf(weights, u):
    """The first index whose cumulative weight, summed left to right as
    ``np.cumsum`` sums, exceeds u * total; the target stays below the total."""
    cum, acc = [], 0
    for w in weights:
        acc += w
        cum.append(acc)
    total = cum[-1]
    target = min(u * total, math.nextafter(total, 0))
    return sum(1 for c in cum if c <= target)


def lockstep_event(counts, cap, frag_eps, ds, volume, u):
    """The counts of one replica after the event that uniforms ``u`` = (event
    type, first bin, second bin or split point) pick, one particle at a time in
    Python numbers: ``counts[j]`` holds the particles of j grid steps.

    A merge is chosen when u0 * total < coag; its first particle, in bin a, by
    weight a (S1 - a) c_a, its partner by weight b (c_b - [b == a]), and past
    the cap it is a null event.  A breakup picks a by weight
    (a - 1)(1 + eps ds a) c_a and splits it at k = min(1 + floor(u2 (a - 1)), a - 1).
    """
    counts = list(counts)
    s1 = sum(j * c for j, c in enumerate(counts))
    s2 = sum(j * j * c for j, c in enumerate(counts))
    n = sum(counts)
    eps_ds = frag_eps * ds
    coag = ds * ds * (s1 * s1 - s2) / (2.0 * volume)
    total = coag + 0.5 * ds * ((s1 - n) + eps_ds * (s2 - s1))
    if u[0] * total < coag:
        a = _inverse_cdf([float(j * (s1 - j)) * c for j, c in enumerate(counts)], u[1])
        b = _inverse_cdf([j * (c - (j == a)) for j, c in enumerate(counts)], u[2])
        if a + b <= cap:
            counts[a] -= 1
            counts[b] -= 1
            counts[a + b] += 1
    else:
        a = _inverse_cdf([(j - 1) * (1.0 + eps_ds * j) * c for j, c in enumerate(counts)], u[1])
        k = min(1 + int(u[2] * (a - 1)), a - 1)
        counts[a] -= 1
        counts[k] += 1
        counts[a - k] += 1
    return counts


def replay_replica(initial, spec, t_grid, volume, seed=0):
    """(moments, counts) of one replica at each time of ``t_grid``: the
    ``ParticleSystem`` of ``initial`` seeded ``seed``, advanced by
    ``gillespie_step``, gives at each grid time that its clock passes the state
    before that event, as the moments m0..m3 and as read-only (T, n)
    concentrations.  A state with no event, absorbing or empty, is frozen for
    the remaining times."""
    t_grid = time_grid(t_grid)
    sys = ParticleSystem.from_distribution(initial, volume, seed=seed)
    states, t = [], 0.0
    while len(states) < t_grid.size:
        before = sys.counts[0].copy()
        try:
            wait = gillespie_step(sys, spec)[1][0] if before.any() else np.inf
        except AbsorbingStateError:
            wait = np.inf
        t += wait
        while len(states) < t_grid.size and t_grid[len(states)] < t:
            states.append(before)
    states = np.array(states)
    return _moments(states, sys.grid.ds, sys.volume), _readonly(states[:, 1:] / sys.volume)


def event_rates(sys, spec):
    """Exact (coagulation, fragmentation) total rates of the truncated system
    ``sys``, a ``ParticleSystem``, one entry per replica.

    Coagulation: (1/V) sum over distinct pairs with in-cap combined size of
    s_i * s_l.  Fragmentation: sum over particles of the split-point sum
    (ds/2) * (j-1) * (1 + eps * s_j); sizes below 2*ds cannot split.
    """
    if np.any(sys._n == 0):
        raise ValueError("empty particle system has no events")
    ds = sys.grid.ds
    cap = min(spec.truncation, sys.grid.n)
    w = sys._j * sys.counts
    allowed_ordered = np.array([np.convolve(row, row)[: cap + 1].sum() for row in w])
    half = sys._j[: cap // 2 + 1]
    self_pairs = sys.counts[:, : half.size] @ half**2
    coag = ds * ds * (allowed_ordered - self_pairs) / (2.0 * sys.volume)
    return coag, _proposal_rates(sys, spec)[1]


def mass_concentration(sys) -> float:
    """Total mass per unit volume, ds * S1 / V, the same in every replica."""
    return sys.grid.ds * sys._s1 / sys.volume


def particle_sizes(sys, replica: int = 0) -> np.ndarray:
    """Sorted particle sizes of one replica, in grid steps."""
    return np.repeat(sys._j, sys.counts[replica])


def empirical_moments(sys, k_max: int = ENSEMBLE_MAX_MOMENT) -> np.ndarray:
    """(1/V) sum_i s_i^k for k = 0..k_max, one row per replica."""
    return _moments(sys.counts, sys.grid.ds, sys.volume, k_max)


def to_distribution(sys, replica: int = 0) -> Distribution:
    """The concentrations of one replica's bin counts."""
    return Distribution(sys.grid, sys.counts[replica, 1:] / sys.volume)


def _loop_steps(t_end, dt):
    n_steps = max(1, int(round(t_end / dt))) if t_end > 0 and dt > 0 else 0
    return n_steps, (t_end / n_steps if n_steps else 0.0)


def simulate_loop(config, initial):
    """(times, counts) of the snapshots of ``simulate(config, initial)``, from
    an RK4 loop over the kinetic right-hand side with its own recording."""
    grid, spec = initial.grid, config.spec
    n_steps, dt = _loop_steps(config.t_end, config.dt)
    counts = initial.counts
    times, snapshots = [0.0], [counts]
    for k in range(1, n_steps + 1):
        k1 = _rhs(counts, grid, spec)
        k2 = _rhs(counts + 0.5 * dt * k1, grid, spec)
        k3 = _rhs(counts + 0.5 * dt * k2, grid, spec)
        k4 = _rhs(counts + dt * k3, grid, spec)
        stepped = counts + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        counts = _checked(stepped, float(counts.max(initial=0.0)))
        if k % config.output_every == 0 or k == n_steps:
            times.append(k * dt)
            snapshots.append(counts)
    return np.asarray(times), np.stack(snapshots)


def integrate_fan_loop(f0_eval, starts, t_end, dt, m, record_every=1):
    """(times, x, p, z, alive) of ``integrate_fan``, from an RK4 loop over the
    three rows (X, P, Z) of the live paths with its own recording."""
    starts = np.asarray(starts, dtype=float)
    z0, p0 = f0_eval(starts)
    n_steps, dt = _loop_steps(t_end, dt)
    x, p, z = starts.copy(), np.asarray(p0, dtype=float).copy(), np.asarray(z0, dtype=float).copy()
    alive = np.ones(starts.size, dtype=bool)
    _check_no_crossing(x, alive, 0.0)
    rec_times = [0.0]
    rec = [(x.copy(), p.copy(), z.copy(), alive.copy())]
    for k in range(1, n_steps + 1):
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
        _check_no_crossing(x, alive, k * dt)
        if k % record_every == 0 or k == n_steps:
            rec_times.append(k * dt)
            rec.append((x.copy(), p.copy(), z.copy(), alive.copy()))
    return (np.asarray(rec_times), *(np.stack([r[i] for r in rec]) for i in range(4)))
