"""Domain types shared by every engine.

Distributions are stored as number concentrations per bin on a uniform size
grid ``s_i = i*ds``; the k-th moment is the plain sum ``m_k = sum_i s_i^k N_i``.
A linear grid is used deliberately: constant-kernel binary breakup produces
fragments that land exactly on grid points (``s_k + s_{j-k} = s_j``), so both
solvers conserve mass without any remapping step.

The step rule, the RK4 step and the recording march of both time-steppers
(the kinetic solver and the characteristic fan) live here too.  All types
here are immutable value objects and safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

#: Highest moment order tracked by the bookkeeping (m0..m5).
MAX_MOMENT = 5

#: Relative mass allowed beyond the top of the grid when discretizing.
TAIL_MASS_RTOL = 1e-9

#: Entries of the largest (rows x bins) block that a blocked sum forms at once:
#: 2^16 doubles (512 KB), so the matrices of one block fit together in a 2 MB L2.
BLOCK_ENTRIES = 1 << 16


def block_rows(cols: int) -> int:
    """Rows of ``cols`` entries that fit one block of BLOCK_ENTRIES, at least 1."""
    return max(1, BLOCK_ENTRIES // max(cols, 1))


def _readonly(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SizeGrid:
    """Uniform size grid with bins at ``s_i = i*ds`` for ``i = 1..n``."""

    ds: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.ds) and self.ds > 0):
            raise ValueError(f"size step must be positive and finite, got {self.ds}")
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 bins, got {self.n}")

    @cached_property
    def sizes(self) -> np.ndarray:
        """Representative sizes, strictly increasing and uniformly spaced."""
        return _readonly(self.ds * np.arange(1, self.n + 1))

    @property
    def s_max(self) -> float:
        """Largest representable size ``n*ds``."""
        return self.ds * self.n

    def moments(self, counts: np.ndarray) -> np.ndarray:
        """m0..m5 of ``counts`` (n,): the one moment formula, so equal counts
        give equal moments bit for bit.  The (n, 6) powers are not kept."""
        return np.vander(self.sizes, MAX_MOMENT + 1, increasing=True).T @ counts

    def bin_index(self, size: float) -> int:
        """Nearest 1-based bin for ``size``; raises ValueError off the grid."""
        j = int(round(size / self.ds))
        if j < 1:
            raise ValueError(f"size {size} lies below the smallest bin {self.ds}")
        if j > self.n:
            raise ValueError(f"size {size} lies above the top of the grid {self.s_max}")
        return j


@dataclass(frozen=True)
class Distribution:
    """Number concentrations per size bin (number per unit volume)."""

    grid: SizeGrid
    counts: np.ndarray

    def __post_init__(self):
        counts = _readonly(self.counts)
        if counts.shape != (self.grid.n,):
            raise ValueError(
                f"counts shape {counts.shape} does not match grid with {self.grid.n} bins"
            )
        if not np.all(np.isfinite(counts)):
            raise ValueError("counts must be finite")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    def moment(self, k: int) -> float:
        """k-th moment ``sum_i s_i^k N_i`` for k = 0..5; m_1 is the total mass."""
        if not 0 <= k <= MAX_MOMENT:
            raise ValueError(f"moment order must be in 0..{MAX_MOMENT}, got {k}")
        return float(self.grid.moments(self.counts)[k])


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family: coagulation is fixed ``a(s, s') = s*s'``; fragmentation is
    ``b(s, s') = 1 + frag_eps*(s + s')``; events with combined size above bin
    ``truncation`` are suppressed.
    """

    frag_eps: float
    truncation: int

    def __post_init__(self):
        if not (math.isfinite(self.frag_eps) and self.frag_eps >= 0):
            raise ValueError(f"fragmentation perturbation must be >= 0, got {self.frag_eps}")
        if self.truncation < 2:
            raise ValueError(f"truncation index must be >= 2, got {self.truncation}")

    @classmethod
    def for_grid(cls, grid: SizeGrid, frag_eps: float = 0.0) -> "KernelSpec":
        """Kernel truncated exactly at the top of ``grid``."""
        return cls(frag_eps=frag_eps, truncation=grid.n)


@dataclass(frozen=True)
class ScenarioParams:
    """Initial mass and second moment of the system actually simulated.

    The blow-up horizon ``t_star = 1 / m2_0`` is derived, never stored, so the
    identity holds exactly.
    """

    m: float
    m2_0: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m > 0):
            raise ValueError(f"initial mass must be positive, got {self.m}")
        if not (math.isfinite(self.m2_0) and self.m2_0 > 0):
            raise ValueError(f"initial second moment must be positive, got {self.m2_0}")

    @property
    def t_star(self) -> float:
        return 1.0 / self.m2_0

    @classmethod
    def from_distribution(cls, dist: Distribution) -> "ScenarioParams":
        """Parameters of the discretized system (not the continuum profile)."""
        return cls(m=dist.moment(1), m2_0=dist.moment(2))


@dataclass(frozen=True)
class MomentSeries:
    """Time series of moments m0..m5 with the bookkeeping of each snapshot: its
    relative mass drift and its top-bin occupancy."""

    times: np.ndarray
    moments: np.ndarray  # shape (T, 6)
    mass_drift: np.ndarray  # |m1(t) - m1(0)| / m1(0)
    top_bin_occupancy: np.ndarray  # s_max * N_n(t) / m1(0)

    def __post_init__(self):
        for name in ("times", "moments", "mass_drift", "top_bin_occupancy"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        times = self.times
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be one-dimensional and strictly increasing")
        if self.moments.shape != (times.size, MAX_MOMENT + 1):
            raise ValueError(f"moments must have shape ({times.size}, {MAX_MOMENT + 1})")
        if self.mass_drift.shape != times.shape or self.top_bin_occupancy.shape != times.shape:
            raise ValueError("mass_drift and top_bin_occupancy must align with times")
        if np.any(self.moments < 0):
            raise ValueError("moments must be nonnegative")


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one named check; every check in cflab returns one.

    ``worst_margin`` is the signed distance to the bound (negative means the
    bound was crossed); the check fails iff worst_margin < -tolerance.
    ``location`` locates the worst case, as (t, x) where the check has both.
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

    @classmethod
    def worst(cls, name: str, margins, tolerance: float, locate: Callable) -> "BoundReport":
        """The row of the smallest entry of ``margins``: the first minimum in C
        order, or the first nan, which fails the row, located at
        ``locate(*index)`` of that entry."""
        margins = np.asarray(margins, dtype=float)
        index = np.unravel_index(int(np.argmin(margins)), margins.shape)
        return cls(name, float(margins[index]), tolerance, locate(*map(int, index)))

    def __str__(self):
        where = f" at {self.location}" if self.location else ""
        return f"{self.name}: {self.status} (margin {self.worst_margin:.3e}{where})"


def step_count(t_end: float, dt: float) -> int:
    """``round(t_end / dt)``, at least 1, for a run of positive length, and 0
    for a run of zero length.  ValueError when a run of positive length has a
    step that is not positive, since it would never leave t = 0."""
    if not t_end > 0:
        return 0
    if not dt > 0:
        raise ValueError(f"dt = {dt:g} must be positive for a run to t_end = {t_end:g}")
    return max(1, int(round(t_end / dt)))


def schedule(t_end: float, dt: float, stride: int, name: str) -> tuple:
    """(h, steps): the step h = t_end / n of a run of n = step_count(t_end, dt)
    steps, and the steps it records, as an integer array: 0, every
    ``stride``-th and the last.  ValueError from step_count, and unless the
    stride ``name`` is at least 1 and divides n or reaches past it, so the
    recorded times are uniformly spaced."""
    n = step_count(t_end, dt)
    if stride < 1 or (stride < n and n % stride):
        raise ValueError(f"{name} = {stride} is below 1 or does not divide the {n} steps of t_end / dt")
    steps = np.arange(0, n + 1, stride)
    if steps[-1] < n:
        steps = np.append(steps, n)
    return (t_end / n if n else 0.0), steps


def rk4(rhs: Callable[[np.ndarray], np.ndarray], y: np.ndarray, h: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of dy/dt = rhs(y) from the
    array ``y``, elementwise, as a new array."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def march(step: Callable, state, t_end: float, dt: float, stride: int, name: str) -> tuple:
    """(times, states) of a run on the schedule of ``schedule``: from ``state``
    at t = 0, ``state = step(state, h, k * h)`` for k = 1..n, with the state
    recorded at t = 0, every ``stride``-th step and the last step.  ``step``
    must return a new state rather than change the one it is given, since
    recorded states are kept as they are."""
    h, steps = schedule(t_end, dt, stride, name)
    n = int(steps[-1])
    states = [state]
    for k in range(1, n + 1):
        state = step(state, h, k * h)
        if k % stride == 0 or k == n:
            states.append(state)
    return steps * h, states


def uniform_step(times: np.ndarray) -> float:
    """The common spacing of ``times``; ValueError unless they are uniformly spaced."""
    steps = np.diff(times)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(steps[0], 1e-300):
        raise ValueError("samples must be uniformly spaced")
    return float(steps[0])


def time_derivative(F: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Second-order dF/dt along the first axis of ``F``, sampled at the uniformly
    spaced ``times``: centered inside, one-sided at the first and last rows."""
    dt = uniform_step(times)
    out = np.empty_like(F)
    out[1:-1] = (F[2:] - F[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * F[0] + 4.0 * F[1] - F[2]) / (2.0 * dt)
    out[-1] = (3.0 * F[-1] - 4.0 * F[-2] + F[-3]) / (2.0 * dt)
    return out


def kappa(x: np.ndarray, ds: float) -> np.ndarray:
    """(ds/2) coth(x ds/2) at each x > 0: the 1/x of the size grid of step
    ``ds``.  Constant-kernel breakup of a size s_j into the pairs s_k + s_{j-k}
    sums the factors 1 - exp(-x s_k) over k < j, which gives kappa(x) where
    the continuum integral gives 1/x; kappa(x) = 1/x + x ds^2/12 + O(x^3 ds^4)."""
    return (0.5 * ds) / np.tanh((0.5 * ds) * x)


def make_initial(kind: str, grid: SizeGrid, *, mass: float, size: float = 1.0, lam: float = 1.0) -> Distribution:
    """Discretize a canonical initial profile and renormalize it to ``mass``.

    Kinds
    -----
    monodisperse
        All mass in the single bin nearest ``size``.
    exponential
        Number density proportional to ``s * exp(-lam*s)``.

    The discrete first moment is renormalized to hit ``mass`` exactly (within
    floating point); downstream bounds are stated relative to the system that
    is actually simulated, so the second moment should then be re-read from
    the returned distribution.  Raises ValueError for another kind, and when
    the profile does not fit the grid: a point mass off the grid, or relative
    tail mass above the top of the grid exceeding ``TAIL_MASS_RTOL``.
    """
    if not mass > 0:
        raise ValueError(f"requested mass must be positive, got {mass}")
    s = grid.sizes
    if kind == "monodisperse":
        j = grid.bin_index(size)
        counts = np.zeros(grid.n)
        counts[j - 1] = mass / s[j - 1]
        return Distribution(grid, counts)
    if kind != "exponential":
        raise ValueError(f"unknown initial kind {kind!r}: the kinds are monodisperse and exponential")
    if not lam > 0:
        raise ValueError(f"exponential rate must be positive, got {lam}")
    # the density's factor lam**2 * ds cancels in the renormalization; lam * ds
    # may overflow to inf, whose exp(-inf) = 0 numpy forms without a warning
    counts = s * np.exp(-(lam * grid.ds) * np.arange(1, grid.n + 1))
    m1 = float(grid.moments(counts)[1])
    if not m1 > 0:
        raise ValueError(f"exponential profile of rate lam = {lam:g} carries no mass on the grid")
    x = lam * grid.s_max  # below 746 n, as exp(-lam * ds) > 0, so x * x is finite
    tail = math.exp(-x) * (0.5 * x * x + x + 1.0)  # closed-form relative mass beyond the grid
    if tail > TAIL_MASS_RTOL:
        raise ValueError(f"exponential profile keeps relative tail mass {tail:.3e} beyond s_max={grid.s_max}; "
                         "enlarge the grid")
    return Distribution(grid, counts * (mass / m1))
