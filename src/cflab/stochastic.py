"""Stochastic particle simulator for the same truncated kernels the
deterministic solver uses; an independent oracle for moment trajectories.

A `ParticleSystem` holds R replicas of a finite volume V as an R x (n+1)
matrix of bin counts, so every merge and split conserves mass exactly in
integer arithmetic.  Each row keeps S2 = sum_j j^2 c_j and its particle
count, and S1 = sum_j j c_j, which every merge and split conserves, is one
number for all rows, so total rates cost O(1) per replica and event.  Split
points are uniform over the grid pairs (k, j-k) and a particle's breakup rate
is the split-point sum the deterministic solver discretizes,
(ds/2) * (j-1) * (1 + eps * s_j), so both engines realize the same finite
system.  The clock runs on the majorant coagulation rate ds^2 (S1^2 - S2) / 2V;
a merge past the truncation cap is drawn but executed as a null event
(thinning, Eibeck & Wagner 2001), which reproduces the truncated kernel.

All replicas advance one event per vectorised step, without rejection.  The
ordered pair of distinct particles, weighted s_i * s_l, is picked bin by bin:
the first bin a with weight a (S1 - a) c_a, the second, on merging rows only,
with weight b (c_b - [b == a]), each by inverse CDF on a row cumulative sum up
to the largest bin occupied so far.  An event draws one exponential and three
uniforms from its replica's own generator: per block of events, the block's
exponentials, then its uniforms, a window of events at a time.  Every replica
refills at the same event and one that leaves the batch stops drawing, so a
replica is bit-identical alone or in a batch of any size.  Each replica's
draws fill its own row of two buffers allocated once, which are refilled in
place and never copied.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Distribution, KernelSpec, SizeGrid, _readonly
from .errors import AbsorbingStateError

#: Highest empirical moment recorded by ensemble statistics (m0..m3).
ENSEMBLE_MAX_MOMENT = 3

#: Events per block of draws, on which every replica's stream depends: its
#: generator gives _RNG_BLOCK exponentials, then 3 * _RNG_BLOCK uniforms.
_RNG_BLOCK = 256

#: Events per window of uniforms, a divisor of _RNG_BLOCK.  Each replica holds
#: one block of exponentials and one window of uniforms, refilled in place:
#: 0.7 MB for 200 replicas.
_UNIFORM_WINDOW = 64


class ParticleSystem:
    """R replicas of the particles ``sizes`` (in grid steps), held as bin counts
    ``counts[r, j]``; per-replica quantities are arrays with one entry per row.

    Mutable by design: `gillespie_step` advances every replica in place.  A single replica draws from
    ``default_rng(seed)``; with ``replicas = R > 1``, replica r draws from
    ``default_rng((seed, r))``, the stream of a single system seeded (seed, r).
    """

    def __init__(self, grid: SizeGrid, volume: float, sizes, seed=0, replicas: int = 1):
        if not volume > 0:
            raise ValueError(f"volume must be positive, got {volume}")
        if replicas < 1:
            raise ValueError(f"need at least one replica, got {replicas}")
        sizes = np.asarray(sizes, dtype=np.int64)
        if np.any((sizes < 1) | (sizes > grid.n)):
            raise ValueError("particle sizes must be grid multiples within the grid")
        self.grid = grid
        self.volume = float(volume)
        self._j = np.arange(grid.n + 1)
        self.counts = np.tile(np.bincount(sizes, minlength=grid.n + 1), (replicas, 1))
        self._s1 = self.counts[0] @ self._j  # the same in every row, and conserved
        self._s2 = self.counts @ self._j**2
        self._n = self.counts.sum(axis=1)
        self._pair = (self._j * (self._s1 - self._j)).astype(float)  # merge weight j (S1 - j) of every row
        self._top = int(sizes.max(initial=0))  # no replica holds a particle above this bin
        seeds = [seed] if replicas == 1 else [(seed, r) for r in range(replicas)]
        self._rngs = [np.random.default_rng(s) for s in seeds]
        self._exp = np.empty((replicas, _RNG_BLOCK))
        self._uniform = np.empty((replicas, _UNIFORM_WINDOW, 3))
        self._rows = np.arange(replicas)  # buffer row and generator of each replica in the batch
        self._k = 0  # events drawn so far

    @classmethod
    def from_distribution(
        cls, dist: Distribution, volume: float, seed=0, replicas: int = 1
    ) -> "ParticleSystem":
        """Deterministic largest-remainder rounding of volume * counts."""
        expected = volume * dist.counts
        base = np.floor(expected).astype(int)
        remainder = expected - base
        target = int(round(expected.sum()))
        extras = max(0, target - int(base.sum()))
        order = np.argsort(-remainder, kind="stable")
        base[order[:extras]] += 1
        sizes = np.repeat(np.arange(1, dist.grid.n + 1), base)
        return cls(dist.grid, volume, sizes, seed=seed, replicas=replicas)

    def _next_draws(self) -> np.ndarray:
        """One exponential and three uniforms per replica for its next event,
        as a (replicas, 4) table.

        At the start of a block, each replica's generator fills its row of
        exponentials; at the start of each window, its row of uniforms, so it
        gives the block's exponentials, then the block's uniforms in order.
        """
        k, w = self._k % _RNG_BLOCK, self._k % _UNIFORM_WINDOW
        if w == 0:
            for r in self._rows.tolist():
                if k == 0:
                    self._rngs[r].standard_exponential(out=self._exp[r])
                self._rngs[r].random(out=self._uniform[r])
        self._k += 1
        # while no replica has left, slices read the columns faster than an index array
        rows = self._rows if self._rows.size < len(self._rngs) else slice(None)
        draws = np.empty((self._rows.size, 4))
        draws[:, 0] = self._exp[rows, k]
        draws[:, 1:] = self._uniform[rows, w]
        return draws

    def _keep(self, rows: np.ndarray):
        """Drop the replicas outside the boolean mask ``rows``; their draws are
        left in the buffers, unread."""
        self.counts = self.counts[rows]
        self._s2, self._n = self._s2[rows], self._n[rows]
        self._rows = self._rows[rows]


def _moments(counts: np.ndarray, ds: float, volume: float, k_max: int = ENSEMBLE_MAX_MOMENT):
    """Power sums sum_j j^k c_j, exact in the integers, scaled to (1/V) sum_i s_i^k."""
    k = np.arange(k_max + 1)
    sums = counts @ (np.arange(counts.shape[1])[:, None] ** k)
    return sums * ds**k / volume


def _proposal_rates(sys: ParticleSystem, spec: KernelSpec):
    """O(1) rates per replica used by the clock: coagulation ignores the cap
    (over-cap proposals become null events), fragmentation is exact."""
    ds = sys.grid.ds
    coag = ds * ds * (sys._s1 * sys._s1 - sys._s2) / (2.0 * sys.volume)
    eps_ds = spec.frag_eps * ds
    return coag, 0.5 * ds * ((sys._s1 - sys._n) + eps_ds * (sys._s2 - sys._s1))


def _inverse_cdf(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the first column whose cumulative weight exceeds u * total; the
    target stays below a positive total, so a column of positive weight.  The
    cumulative sums overwrite ``weights``."""
    cum = np.cumsum(weights, axis=1, out=weights)
    total = cum[:, -1]
    target = np.minimum(u * total, np.nextafter(total, 0.0))
    return (cum > target[:, None]).argmax(axis=1)


def _split_weights(sys: ParticleSystem, spec: KernelSpec) -> np.ndarray:
    """Breakup weight (j-1)(1 + eps s_j) of one particle in each bin j."""
    return (sys._j - 1) * (1.0 + spec.frag_eps * sys.grid.ds * sys._j)


def _execute_events(sys: ParticleSystem, spec: KernelSpec, coag, total, u, breakup):
    """Choose and apply one event per replica; over-cap merges are null events.

    ``u`` holds three uniforms per replica: the event type, the first bin, and
    the second bin of a merge or the split point of a breakup; ``breakup`` is
    ``_split_weights(sys, spec)``, formed once per run.
    """
    cap = min(spec.truncation, sys.grid.n)
    top = sys._top + 1
    j, c = sys._j[:top], sys.counts[:, :top]
    rows = np.arange(c.shape[0])
    merge = u[:, 0] * total < coag
    # the particle that merges or splits: weight a (S1 - a) c_a or (a-1)(1 + eps s_a) c_a,
    # picked per replica from a two-row table (np.where over the broadcast rows is 3x slower)
    first = np.array([breakup[:top], sys._pair[:top]]).take(merge.astype(np.intp), axis=0)
    first *= c
    a = _inverse_cdf(first, u[:, 1])
    # its merge partner, any other particle: weight b (c_b - [b == a]), on merging rows only
    merging = np.flatnonzero(merge)
    second = c[merging]
    second *= j
    second.reshape(-1)[np.arange(merging.size) * top + a[merging]] -= a[merging]
    b = np.zeros_like(a)
    b[merging] = _inverse_cdf(second, u[merging, 2])
    k = np.minimum(1 + (u[:, 2] * (a - 1)).astype(np.int64), a - 1)  # split a into k, a - k

    ab = a + b
    joined = merge & (ab <= cap)
    split = ~merge
    moved = joined | split
    dn = np.where(joined, -1, split)  # particles gained; 0 for a null event
    counts, at = sys.counts.reshape(-1), rows * sys.counts.shape[1]  # a view: counts stays C-contiguous
    counts[at + a] -= moved
    counts[at + np.where(merge, b, k)] += dn
    counts[at + np.where(joined, ab, a - k)] += moved
    sys._n += dn
    sys._s2 += 2 * np.where(merge, a * b * joined, -k * (a - k))
    sys._top = max(sys._top, int(np.maximum.reduce(ab * joined)))


def gillespie_step(sys: ParticleSystem, spec: KernelSpec):
    """One event of the embedded Markov chain in every replica; returns
    (sys, waiting_times), one waiting time per replica.

    The system is advanced in place.  A merge whose combined size exceeds the
    cap advances the clock but leaves the state unchanged.  Runs with equal
    seeds and inputs reproduce the event sequence bit for bit.
    """
    if np.any(sys._n == 0):
        raise ValueError("empty particle system has no events")
    coag, frag = _proposal_rates(sys, spec)
    total = coag + frag
    if np.any(total <= 0):
        raise AbsorbingStateError("total event rate is zero; the state is absorbing")
    draws = sys._next_draws()
    _execute_events(sys, spec, coag, total, draws[:, 1:], _split_weights(sys, spec))
    return sys, draws[:, 0] / total


def time_grid(t_grid) -> np.ndarray:
    """``t_grid`` as a float array of recording times; ValueError unless it
    lists at least one finite time >= 0, in nondecreasing order, since a
    replica whose clock never passes a grid time would run forever."""
    t_grid = np.asarray(t_grid, dtype=float)
    steps = np.diff(t_grid, prepend=0.0) if t_grid.ndim == 1 else np.empty(0)  # the first from t = 0
    if steps.size == 0 or not np.all(np.isfinite(t_grid) & (steps >= 0)):
        raise ValueError("t_grid must list one or more finite times >= 0, in nondecreasing order")
    return t_grid


def _run(sys: ParticleSystem, spec: KernelSpec, t_grid, record_snapshots: bool = False):
    """Advance every replica through ``t_grid``; returns the empirical moments
    at each grid time, shape (R, T, 4), and, if asked, the bin counts, shape
    (R, T, n+1).  A replica leaves the batch once its clock passes the last
    grid time; an absorbing state (zero total rate) is frozen from then on.
    """
    t_grid = time_grid(t_grid)
    replicas, width = sys.counts.shape
    moments = np.empty((replicas, t_grid.size, ENSEMBLE_MAX_MOMENT + 1))
    snaps = np.empty((replicas, t_grid.size, width), np.int64) if record_snapshots else None
    grid_times = np.append(t_grid, np.inf)
    ids = np.arange(replicas)  # replica of each remaining row
    gi = np.zeros(replicas, dtype=np.intp)  # index of each row's next grid time
    t = np.zeros(replicas)
    breakup = _split_weights(sys, spec)

    def record(due):
        moments[ids[due], gi[due]] = _moments(sys.counts[due], sys.grid.ds, sys.volume)
        if snaps is not None:
            snaps[ids[due], gi[due]] = sys.counts[due]
        gi[due] += 1

    for _ in range(np.searchsorted(t_grid, 0.0, side="right")):
        record(np.ones(replicas, dtype=bool))
    if gi[0] == t_grid.size:
        return moments, snaps
    next_time = grid_times[gi]
    while True:
        coag, frag = _proposal_rates(sys, spec)
        total = coag + frag
        draws = sys._next_draws()
        wait = np.divide(draws[:, 0], total, out=np.full(total.shape, np.inf), where=total > 0)
        t_next = t + wait
        if (next_time < t_next).any():
            while (due := next_time < t_next).any():
                record(due)  # the state on [t, t_next) is the pre-event state
                next_time = grid_times[gi]
            live = gi < t_grid.size
            if not live.all():
                sys._keep(live)
                ids, gi, t_next, next_time = ids[live], gi[live], t_next[live], next_time[live]
                coag, total, draws = coag[live], total[live], draws[live]
                if ids.size == 0:
                    return moments, snaps
        _execute_events(sys, spec, coag, total, draws[:, 1:], breakup)
        t = t_next


@dataclass(frozen=True)
class ReplicaResult:
    """Empirical moments of one replica on the requested time grid and, when
    recorded, its counts: the read-only (T, n) concentrations whose row k is
    the state at ``times[k]``, as in ``Trajectory.counts``."""

    times: np.ndarray
    moments: np.ndarray  # shape (len(times), 4)
    counts: np.ndarray | None = None


def simulate_replica(
    initial: Distribution,
    spec: KernelSpec,
    t_grid,
    volume: float,
    seed=0,
    record_snapshots: bool = False,
) -> ReplicaResult:
    """Run one replica, recording empirical moments at each requested time.

    A state with zero total rate is absorbing; remaining grid times then all
    see the frozen state.
    """
    sys = ParticleSystem.from_distribution(initial, volume, seed=seed)
    moments, snaps = _run(sys, spec, t_grid, record_snapshots)
    counts = None if snaps is None else _readonly(snaps[0, :, 1:] / sys.volume)
    return ReplicaResult(times=np.asarray(t_grid, dtype=float), moments=moments[0], counts=counts)


@dataclass(frozen=True)
class EnsembleMoments:
    """Mean and standard error of empirical moments across replicas."""

    times: np.ndarray
    mean: np.ndarray  # shape (len(times), 4)
    stderr: np.ndarray
    replicas: int


def ensemble_moments(
    initial: Distribution,
    spec: KernelSpec,
    t_grid,
    replicas: int,
    seed=0,
    volume: float | None = None,
) -> EnsembleMoments:
    """Sample mean and standard error of m0..m3 across independent replicas.

    Replica r draws its stream from (seed, r), the stream of
    ``simulate_replica(..., seed=(seed, r))``, so the ensemble is reproducible
    and replica r does not depend on the replica count.  All replicas run in
    one lockstep batch.  The default volume targets about 10^4 initial
    particles.
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas for a standard error")
    if volume is None:
        volume = 1e4 / initial.moment(0)
    sys = ParticleSystem.from_distribution(initial, volume, seed=seed, replicas=replicas)
    stacked, _ = _run(sys, spec, t_grid)
    mean = stacked.mean(axis=0)
    stderr = stacked.std(axis=0, ddof=1) / np.sqrt(replicas)
    return EnsembleMoments(
        times=np.asarray(t_grid, dtype=float), mean=mean, stderr=stderr, replicas=replicas
    )
