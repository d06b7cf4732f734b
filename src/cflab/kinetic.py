"""Deterministic conservative solver for the truncated coagulation-fragmentation
system on a uniform size grid.

Coagulation is the discrete Smoluchowski double sum with the multiplicative
kernel; pairs whose combined bin index exceeds the truncation cap are
suppressed outright (not redirected), so the discrete system conserves mass
exactly instead of leaking it.  Fragmentation is binary on the integer grid:
a parent in bin j splits into (k, j-k) with the Riemann weight ds carried by
the split-point sum, and mass conservation is exact because s_k + s_{j-k} = s_j.

The coagulation gain is a self-convolution of the mass-weighted counts.  Below
``_FFT_MIN_BINS`` active bins it is summed directly; at and above it, it is a
zero-padded real FFT, the O(n log n) convolution of the fast Smoluchowski
solvers (Matveev, Smirnov & Tyrtyshnikov, J. Comput. Phys. 282, 2015).  The
FFT result differs from the direct sum by roundoff, about 1e-15 relative to
its largest entry; mass stays conserved to roundoff, because the gain and the
loss run over the same pairs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    MAX_MOMENT, Distribution, KernelSpec, MomentSeries, ScenarioParams, SizeGrid, _readonly, block_rows, march,
    rk4, schedule, step_count, time_derivative,
)
from .errors import SolverAbort

#: Counts more negative than NEGATIVE_COUNT_RTOL * max(N) abort the step;
#: anything between that and zero is clipped as roundoff.
NEGATIVE_COUNT_RTOL = 1e-12

#: Relative mass drift above which a trajectory fails mass conservation.
MASS_DRIFT_TOL = 1e-6

#: Relative top-bin occupancy above which truncation is considered active.
TOP_BIN_OCCUPANCY_TOL = 1e-9

#: Active bins (cap - 1) from which the coagulation gain uses the FFT.  On a
#: 2-core x86 host (numpy 2.4), np.convolve against rfft/irfft took 24 vs 30 us
#: at 256 bins, 40 vs 40 us at 384, 61 vs 38 us at 512 and 2933 vs 218 us at
#: 4095; both agreed to 8e-16 of the largest entry.
_FFT_MIN_BINS = 512


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters for one run; ``dt`` must be positive unless
    ``t_end`` is 0, and ``output_every`` must divide the step count or reach
    past it, so snapshots are uniformly spaced in time."""

    dt: float
    t_end: float
    output_every: int
    spec: KernelSpec
    scenario: ScenarioParams

    def __post_init__(self):
        if not self.dt >= 0:
            raise ValueError(f"dt must be nonnegative, got {self.dt}")
        if not self.t_end >= 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        schedule(self.t_end, self.dt, self.output_every, "output_every")

    @property
    def n_steps(self) -> int:
        """``round(t_end / dt)``, at least 1; 0 for a run of zero length."""
        return step_count(self.t_end, self.dt)

    @property
    def snapshot_times(self) -> np.ndarray:
        """Times at which ``simulate``'s march records a snapshot: 0, every
        ``output_every``-th of its steps of ``t_end / n_steps``, and the last step."""
        h, steps = schedule(self.t_end, self.dt, self.output_every, "output_every")
        return steps * h


@dataclass(frozen=True)
class Trajectory:
    """One deterministic run: the counts of each snapshot as the rows of the
    read-only ``counts`` (T, n) on ``grid``, their moment bookkeeping, and the
    ``metadata`` its maker passed (``simulate``: ``n_steps``)."""

    counts: np.ndarray
    grid: SizeGrid
    moments: MomentSeries
    spec: KernelSpec
    metadata: dict = field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return self.moments.times

    @classmethod
    def of_snapshots(cls, times, counts, grid: SizeGrid, spec: KernelSpec, **metadata) -> "Trajectory":
        """The run that recorded the rows of ``counts`` at ``times``.  Its
        moments carry each snapshot's relative mass drift against the first
        snapshot and its top-bin occupancy, which
        ``verification.mass_conservation_check`` and
        ``truncation_occupancy_check`` hold to MASS_DRIFT_TOL and
        TOP_BIN_OCCUPANCY_TOL."""
        counts = _readonly(counts)
        m1_0 = float(np.dot(grid.sizes, counts[0]))
        mass_scale = m1_0 if m1_0 > 0 else 1.0
        powers = np.vander(grid.sizes, MAX_MOMENT + 1, increasing=True)
        moments = np.stack([powers.T @ row for row in counts])
        drift = np.abs(moments[:, 1] - m1_0) / mass_scale
        series = MomentSeries(times, moments, drift, grid.s_max * counts[:, -1] / mass_scale)
        return cls(counts, grid, series, spec, metadata)


def stability_limit(grid: SizeGrid, spec: KernelSpec, m1: float) -> float:
    """Largest dt the explicit integrator should use.

    Bounds the fastest per-bin loss rate: coagulation empties bin k at rate at
    most s_k*m1, fragmentation at about s_k*(1 + eps*s_k)/2.
    """
    s = grid.sizes
    rate = s * m1 + 0.5 * s * (1.0 + spec.frag_eps * s)
    return 0.1 / float(rate.max())


def _self_convolution(w: np.ndarray) -> np.ndarray:
    """``np.convolve(w, w)``: direct below ``_FFT_MIN_BINS`` entries, by FFT from there on."""
    if w.size < _FFT_MIN_BINS:
        return np.convolve(w, w)
    size = 2 * w.size - 1
    nfft = 1 << (size - 1).bit_length()
    spectrum = np.fft.rfft(w, nfft)
    return np.fft.irfft(spectrum * spectrum, nfft)[:size]


def _coag_rates(counts: np.ndarray, grid: SizeGrid, spec: KernelSpec) -> np.ndarray:
    """Truncated coagulation rates on the grid,
    rate_k = 1/2 sum_{i+j=k} s_i s_j N_i N_j - N_k s_k sum_{j: k+j<=cap} s_j N_j.

    The gain is ``conv(w, w)`` of ``w = s N`` over the cap - 1 bins that can
    still pair: summed directly below ``_FFT_MIN_BINS`` bins, by FFT at and
    above it.  The FFT leaves roundoff of about 1e-15 times the largest gain,
    also in bins whose exact gain is 0; ``_checked`` clips what that drives
    below zero, and mass stays conserved to roundoff.
    """
    n = grid.n
    cap = min(spec.truncation, n)
    w = grid.sizes * counts
    rate = np.zeros(n)
    if cap < 2:
        return rate
    w_low = w[: cap - 1]
    conv = _self_convolution(w_low)  # conv[p] = sum over bins i+j = p+2
    rate[1:cap] += 0.5 * conv[: cap - 1]
    csum = np.cumsum(w)
    partner = np.zeros(n)
    partner[: cap - 1] = csum[cap - 2 :: -1]  # bin k pairs with j <= cap-k
    rate -= w * partner
    return rate


def _frag_rates(counts: np.ndarray, grid: SizeGrid, spec: KernelSpec) -> np.ndarray:
    """Discrete binary fragmentation rates: a parent in bin j >= 2 is destroyed
    at rate (ds/2) * sum_{k<j} b(s_k, s_{j-k}), and each split puts one
    fragment in bin k and one in bin j-k."""
    n = grid.n
    cap = min(spec.truncation, n)
    s = grid.sizes
    j = np.arange(1, n + 1)
    # every split of a parent s_j has b(s_k, s_{j-k}) = 1 + eps * s_j
    b = 1.0 + spec.frag_eps * s
    active = counts.copy()
    if cap < n:
        active[cap:] = 0.0  # parents above the cap have the truncated kernel = 0
    loss = 0.5 * grid.ds * (j - 1) * b * active
    weighted = b * active
    suffix = np.concatenate([np.cumsum(weighted[::-1])[::-1][1:], [0.0]])
    gain = grid.ds * suffix
    return gain - loss


def _rhs(counts: np.ndarray, grid: SizeGrid, spec: KernelSpec) -> np.ndarray:
    return _coag_rates(counts, grid, spec) + _frag_rates(counts, grid, spec)


def _checked(counts: np.ndarray, ref_scale: float) -> np.ndarray:
    if not np.all(np.isfinite(counts)):
        raise SolverAbort("non-finite counts; dt is far above the stability guard")
    floor = -NEGATIVE_COUNT_RTOL * max(ref_scale, np.finfo(float).tiny)
    worst = counts.min() if counts.size else 0.0
    if worst < floor:
        raise SolverAbort(
            f"count driven to {worst:.3e}, below the roundoff floor {floor:.3e}; "
            "dt too large for the current state"
        )
    return np.where(counts < 0.0, 0.0, counts)


def simulate(config: SolverConfig, initial: Distribution) -> Trajectory:
    """Advance ``initial`` to ``t_end``, recording a snapshot at each of
    ``config.snapshot_times``.

    The step count is ``round(t_end / dt)`` and dt is nudged so the run lands on
    t_end exactly.  A rate that overflows gives inf or nan counts without a
    warning, and ``_checked`` turns them into the run's one SolverAbort.
    """
    grid, spec = initial.grid, config.spec
    rhs = partial(_rhs, grid=grid, spec=spec)

    def step(counts, h, t):
        return _checked(rk4(rhs, counts, h), float(counts.max(initial=0.0)))

    with np.errstate(over="ignore", invalid="ignore"):
        times, snapshots = march(step, initial.counts, config.t_end, config.dt, config.output_every, "output_every")
    return Trajectory.of_snapshots(times, snapshots, grid, spec, n_steps=config.n_steps)


def weak_form_residual(traj: Trajectory, phi: Callable[[np.ndarray], np.ndarray]) -> tuple:
    """(max |residual|, t): the largest mismatch over interior snapshots between
    d/dt sum_i phi(s_i) N_i and the weak-form rate, and the snapshot time of it.

    The time derivative is a centered difference across the snapshot stride,
    the right side is the pair-sum form evaluated independently of the solver
    right-hand side, for all interior snapshots in one pass.  ``phi`` must be
    vectorized, bounded, Lipschitz, and vanish at zero.
    """
    counts = traj.counts
    if counts.shape[0] < 3:
        raise ValueError("need at least 3 snapshots for a centered difference")
    times = traj.times
    phi_s = np.asarray(phi(traj.grid.sizes), dtype=float)
    phi_tot = np.array([float(np.dot(phi_s, c)) for c in counts])
    lhs = time_derivative(phi_tot, times)[1:-1]
    res = np.abs(lhs - _weak_form_rates(traj.grid, traj.spec, phi_s, counts[1:-1]))
    worst = int(np.argmax(res))
    return float(res[worst]), float(times[1 + worst])


def _weak_form_rates(grid: SizeGrid, spec: KernelSpec, phi_s: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Right side of the weak formulation for each row of ``counts`` (m, n):
    1/2 sum_{i+j<=cap} (phi(s_i+s_j) - phi(s_i) - phi(s_j)) a N_i N_j for
    coagulation, -ds/2 sum_j N_j sum_{k<j} (phi(s_j) - phi(s_k) - phi(s_{j-k})) b
    for fragmentation, with ``phi_s`` = phi on the grid.

    The coagulation sum visits each unordered pair once: over 0-based bins a, b
    with a + b <= C = cap - 2 it is sum_{a<b} + 1/2 sum_{a=b}, so its rows stop
    at a = C // 2.  The block of up to ``block_rows(C + 1)`` rows from ``lo``
    forms, in one reused buffer, the gains
    G[a, b] = phi(s_{a+b+1}) - phi(s_a) - phi(s_b) over the columns
    b = lo .. C - lo, zero where b < a or a + b > C and halved where b = a, and
    contracts them with w = s N of every row through numpy's own einsum loops,
    which wake no BLAS thread.  Each pair keeps its own difference, so
    phi(s) = s gives exactly 0 where grid sums are exact.
    """
    n = grid.n
    cap = min(spec.truncation, n)
    s = grid.sizes
    last = cap - 2  # C
    a_end = last // 2 + 1  # rows a < a_end have a partner b >= a
    rows = min(block_rows(last + 1), a_end)
    w = counts * s
    # 0-based bins a, b merge into bin a + b + 1: phi_pad[a + b + 1], padded to
    # exist for every pair and masked past the cap, is window a + lo + 1 at column b - lo
    phi_pad = np.concatenate([phi_s[:cap], np.zeros(cap)])
    windows = sliding_window_view(phi_pad, last + 1)
    buf = np.empty(rows * (last + 1))
    below = np.tri(rows, rows, -1, dtype=bool)  # below[r, c]: c < r
    coag = np.zeros(counts.shape[0])
    for lo in range(0, a_end, rows):
        hi = min(lo + rows, a_end)
        k, cols = hi - lo, last + 1 - 2 * lo
        gain = buf[: k * cols].reshape(k, cols)
        np.subtract(windows[2 * lo + 1 : 2 * lo + 1 + k, :cols], phi_s[lo:hi, None], out=gain)
        gain -= phi_s[lo : lo + cols]
        # row lo + r pairs with the columns r .. cols - 1 - r: a triangle is
        # cut off at each end of the block, and its diagonal pairs count half
        np.copyto(gain[:, :k], 0.0, where=below[:k, :k])
        np.copyto(gain[:, cols - k :], 0.0, where=below[:k, k - 1 :: -1])
        r = np.arange(k)
        gain[r, r] *= 0.5
        coag += np.einsum("ra,ra->r", w[:, lo:hi], np.einsum("ab,rb->ra", gain, w[:, lo : lo + cols]))

    j = np.arange(1, n + 1)
    prefix = np.concatenate([[0.0], np.cumsum(phi_s)])  # prefix[j-1] = sum_{k<j} phi(s_k)
    inner = (j - 1) * phi_s - 2.0 * prefix[:-1]
    b = 1.0 + spec.frag_eps * s
    active = counts if cap >= n else np.where(j <= cap, counts, 0.0)
    frag = -0.5 * grid.ds * np.sum(active * b * inner, axis=1)
    return coag + frag
