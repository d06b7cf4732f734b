"""Stochastic particle engine: exact event rates, per-event conservation,
reproducibility, and small cross-checks against the deterministic solver."""
import math
import tracemalloc

import numpy as np
import pytest

from cflab import (
    KernelSpec,
    ScenarioParams,
    SizeGrid,
    SolverConfig,
    ensemble_moments,
    make_initial,
    simulate,
)
from cflab.core import Distribution
from cflab.errors import AbsorbingStateError
from cflab.stochastic import (
    ParticleSystem,
    _execute_events,
    _proposal_rates,
    _run,
    _split_weights,
    event_rate_bound,
    gillespie_step,
)
from cflab.verification import second_moment_envelope
from oracles import (
    empirical_moments,
    event_rates,
    lockstep_event,
    mass_concentration,
    particle_sizes,
    replay_replica,
    to_distribution,
)


def system_of(sizes, ds=1.0, n=8, volume=1.0, seed=0):
    return ParticleSystem(SizeGrid(ds=ds, n=n), volume, sizes, seed=seed)


class TestEventRates:
    def test_two_unit_particles(self):
        """Sizes (1, 1), V=1: pair rate 1*1 = 1; size-1 particles cannot split."""
        sys = system_of([1, 1])
        coag, frag = event_rates(sys, KernelSpec(frag_eps=0.0, truncation=8))
        assert coag == pytest.approx(1.0)
        assert frag == pytest.approx(0.0)

    def test_single_size_two_particle(self):
        """One particle of size 2, ds=1: no pairs; the only admissible split is
        (1,1), so the split-point sum gives (ds/2) * b(1,1) = 1/2."""
        sys = system_of([2])
        coag, frag = event_rates(sys, KernelSpec(frag_eps=0.0, truncation=8))
        assert coag == pytest.approx(0.0)
        assert frag == pytest.approx(0.5)

    def test_perturbed_split_rate(self):
        """Size 3, eps=1, ds=1: (ds/2) * sum_{k=1,2} (1 + eps*3) = 4."""
        sys = system_of([3])
        _, frag = event_rates(sys, KernelSpec(frag_eps=1.0, truncation=8))
        assert frag == pytest.approx(4.0)

    def test_matches_kinetic_total_rates(self):
        """The engines discretize the same system: total stochastic rates are
        the integrals of the deterministic loss terms for the same counts."""
        g = SizeGrid(ds=0.5, n=12)
        sizes = [1, 1, 2, 3, 5, 8]
        sys = ParticleSystem(g, volume=2.0, sizes=sizes, seed=1)
        spec = KernelSpec.for_grid(g, frag_eps=0.3)
        coag, frag = event_rates(sys, spec)
        s = np.array(sizes) * g.ds
        pair = sum(
            s[i] * s[l]
            for i in range(len(s))
            for l in range(i + 1, len(s))
            if sizes[i] + sizes[l] <= g.n
        )
        assert coag == pytest.approx(pair / sys.volume)
        split = sum(0.5 * g.ds * (j - 1) * (1 + 0.3 * j * g.ds) for j in sizes)
        assert frag == pytest.approx(split)

    def test_truncation_suppresses_pairs(self):
        sys = system_of([3, 3], n=4)
        coag, _ = event_rates(sys, KernelSpec(frag_eps=0.0, truncation=4))
        assert coag == pytest.approx(0.0)

    @pytest.mark.parametrize("kind", ["monodisperse", "exponential"])
    def test_rate_bound_holds_along_a_run(self, kind):
        """event_rate_bound is the closed form ds^2 S1^2 / 2V + (ds/2) S1 (1 +
        eps ds (n - 1)) of the rounded initial particles, and no replica's total
        rate exceeds it, however far its particles grow or split."""
        g = SizeGrid(ds=0.25, n=48)
        d = make_initial(kind, g, mass=1.0, lam=4.0)
        spec = KernelSpec.for_grid(g, frag_eps=0.5)
        sys = ParticleSystem.from_distribution(d, 60.0, seed=5, replicas=8)
        s1 = float(sys._s1)
        bound = event_rate_bound(d, spec, 60.0)
        assert bound == pytest.approx(g.ds**2 * s1 * s1 / 120.0 + 0.5 * g.ds * s1 * (1 + 0.5 * g.ds * 47), rel=1e-15)
        for _ in range(3000):
            coag, frag = _proposal_rates(sys, spec)
            assert np.all(coag + frag <= bound)
            gillespie_step(sys, spec)
        # left out, the volume is that of about 10^4 initial particles, as in ensemble_moments
        assert event_rate_bound(d, spec) == event_rate_bound(d, spec, 1e4 / d.moment(0))

    def test_empty_system_rejected(self):
        sys = system_of([])
        with pytest.raises(ValueError):
            event_rates(sys, KernelSpec(frag_eps=0.0, truncation=8))
        with pytest.raises(ValueError):
            gillespie_step(sys, KernelSpec(frag_eps=0.0, truncation=8))


class TestGillespieStep:
    def test_absorbing_single_unit_particle(self):
        sys = system_of([1])
        with pytest.raises(AbsorbingStateError):
            gillespie_step(sys, KernelSpec(frag_eps=0.0, truncation=8))

    def test_mass_conserved_event_by_event(self):
        sys = system_of([1] * 50, n=64, volume=5.0, seed=3)
        spec = KernelSpec(frag_eps=0.5, truncation=64)
        mass0 = mass_concentration(sys)
        for _ in range(200):
            gillespie_step(sys, spec)
            assert np.array_equal(mass_concentration(sys), mass0)  # integer arithmetic: exact

    def test_seeded_runs_are_bit_reproducible(self):
        spec = KernelSpec(frag_eps=0.2, truncation=32)
        runs = []
        for _ in range(2):
            sys = system_of([1] * 30, n=32, volume=3.0, seed=99)
            waits = []
            for _ in range(50):
                _, w = gillespie_step(sys, spec)
                waits.append(float(w[0]))
            runs.append((waits, particle_sizes(sys).tolist()))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_incremental_sums_stay_exact(self):
        sys = system_of([2, 3, 5] * 10, n=64, volume=2.0, seed=12)
        spec = KernelSpec(frag_eps=0.4, truncation=64)
        for _ in range(150):
            gillespie_step(sys, spec)
        sizes = particle_sizes(sys)
        assert sys._s1 == sizes.sum()
        assert sys._s2[0] == (sizes * sizes).sum()
        assert sys._n[0] == sizes.size

    def test_truncation_null_events_leave_state_unchanged(self):
        """With every merge over the cap and no admissible split, steps only
        advance the clock."""
        sys = system_of([3, 3], n=4, seed=5)
        spec = KernelSpec(frag_eps=0.0, truncation=4)
        # fragmentation of size 3 is admissible, so remove it from the picture
        # by checking only proposals that picked coagulation
        before = particle_sizes(sys).tolist()
        merges = 0
        for _ in range(50):
            gillespie_step(sys, spec)
            if sys.counts.sum() < 2:
                break
            if particle_sizes(sys).tolist() != before:
                before = particle_sizes(sys).tolist()
                merges += 1
        assert all(j <= 4 for j in particle_sizes(sys))


class TestFromDistribution:
    def test_monodisperse_rounding_is_exact(self):
        g = SizeGrid(ds=1.0, n=8)
        d = make_initial("monodisperse", g, mass=1.0, size=1.0)
        sys = ParticleSystem.from_distribution(d, volume=1000.0, seed=0)
        assert sys.counts.sum() == 1000
        assert mass_concentration(sys) == pytest.approx(1.0)

    def test_roundtrip_through_distribution(self):
        g = SizeGrid(ds=0.5, n=8)
        sys = ParticleSystem(g, volume=4.0, sizes=[1, 1, 2, 5], seed=0)
        d = to_distribution(sys)
        np.testing.assert_allclose(d.counts, np.array([2, 1, 0, 0, 1, 0, 0, 0]) / 4.0)
        np.testing.assert_allclose(empirical_moments(sys, 3)[0], [d.moment(k) for k in range(4)])


class TestReplicas:
    def test_time_grid_zero_gives_exact_initial_moments(self):
        g = SizeGrid(ds=1.0, n=16)
        d = make_initial("monodisperse", g, mass=1.0, size=1.0)
        moments, _ = replay_replica(d, KernelSpec.for_grid(g, 0.1), [0.0], volume=500.0, seed=1)
        np.testing.assert_allclose(moments[0], [1.0, 1.0, 1.0, 1.0])

    def test_identical_seeds_have_zero_spread(self):
        g = SizeGrid(ds=1.0, n=16)
        d = make_initial("monodisperse", g, mass=1.0, size=1.0)
        spec = KernelSpec.for_grid(g, 0.1)
        a, _ = replay_replica(d, spec, [0.0, 0.05], volume=200.0, seed=7)
        b, _ = replay_replica(d, spec, [0.0, 0.05], volume=200.0, seed=7)
        stacked = np.stack([a, b])
        assert np.all(stacked.std(axis=0) == 0.0)

    def test_absorbing_state_freezes_remaining_grid(self):
        g = SizeGrid(ds=1.0, n=4)
        d = Distribution(g, [1.0, 0, 0, 0])
        moments, _ = replay_replica(d, KernelSpec.for_grid(g, 0.0), [0.0, 1.0, 2.0], volume=1.0, seed=0)
        # a single size-1 particle can neither merge nor split
        np.testing.assert_allclose(moments[:, 0], 1.0)

    def test_snapshots_are_a_counts_matrix(self):
        """Recorded counts are one read-only (T, n) matrix of concentrations
        whose rows carry the recorded moments."""
        g = SizeGrid(ds=1.0, n=32)
        d = make_initial("monodisperse", g, mass=1.0, size=1.0)
        moments, counts = replay_replica(d, KernelSpec.for_grid(g, 0.1), [0.0, 0.1], volume=300.0, seed=2)
        assert counts.shape == (2, 32)
        assert not counts.flags.writeable
        np.testing.assert_array_equal(counts[0], d.counts)
        assert g.sizes @ counts[1] == pytest.approx(1.0)
        np.testing.assert_allclose(counts @ g.sizes, moments[:, 1], rtol=1e-12)


class TestEnsemble:
    def test_needs_two_replicas(self):
        g = SizeGrid(ds=1.0, n=8)
        d = make_initial("monodisperse", g, mass=1.0, size=1.0)
        with pytest.raises(ValueError):
            ensemble_moments(d, KernelSpec.for_grid(g), [0.0], replicas=1)

    def test_time_before_the_start_is_rejected(self):
        """No row may record a state at a time before the run starts."""
        g = SizeGrid(ds=1.0, n=8)
        d = make_initial("monodisperse", g, mass=1.0, size=1.0)
        with pytest.raises(ValueError, match="times >= 0"):
            ensemble_moments(d, KernelSpec.for_grid(g), [-0.1, 0.1], replicas=2, volume=10.0)

    @pytest.mark.parametrize("last", [np.inf, np.nan])
    def test_time_that_is_not_finite_is_rejected(self, last):
        """A grid time that the clock never passes would run the replicas
        forever: the ensemble and the one-replica replay raise at once instead."""
        g = SizeGrid(ds=1.0, n=8)
        d = make_initial("monodisperse", g, mass=1.0, size=1.0)
        spec = KernelSpec.for_grid(g)
        with pytest.raises(ValueError, match="finite times"):
            ensemble_moments(d, spec, [0.0, last], replicas=2, volume=10.0)
        with pytest.raises(ValueError, match="finite times"):
            replay_replica(d, spec, [0.0, last], volume=10.0)

    def test_coagulation_only_cross_validation(self):
        """Pure-coagulation ensemble mean m2 agrees with the deterministic
        solver on the same grid within 3 standard errors (seeded)."""
        g = SizeGrid(ds=1.0, n=64)
        d = make_initial("monodisperse", g, mass=1.0, size=1.0)
        spec = KernelSpec.for_grid(g, frag_eps=0.0)
        scen = ScenarioParams.from_distribution(d)
        config = SolverConfig(dt=1e-4, t_end=0.2, output_every=2000, spec=spec, scenario=scen)
        det = simulate(config, d).moments.column(2)[-1]
        ens = ensemble_moments(d, spec, [0.0, 0.2], replicas=60, seed=11, volume=2000.0)
        assert abs(ens.mean[-1, 2] - det) <= 3.0 * ens.stderr[-1, 2]

    def test_ensemble_m2_below_envelope(self, ensemble_bundle):
        ens = ensemble_bundle["ensemble"]
        scen = ensemble_bundle["scenario"]
        for i, t in enumerate(ens.times):
            if t <= 0.8 * scen.t_star:
                env = second_moment_envelope(scen.m2_0, t)
                assert ens.mean[i, 2] <= env + 3.0 * ens.stderr[i, 2]


class TestLockstepEngine:
    """All replicas advance in one batch on bin counts; these pin the batch to
    the one-replica chain and the pair pick to the exact distribution."""

    @staticmethod
    def batches_of_3_and_5(seed=17):
        """The (R, T, 4) moments that _run gives batches of 3 and 5 replicas, and
        the run's arguments: exponential data on which over-cap merges occur
        and each replica runs about 400 events, more than one block of draws."""
        g = SizeGrid(ds=0.5, n=32)
        d = make_initial("exponential", g, mass=1.0, lam=2.0)
        spec = KernelSpec(frag_eps=0.3, truncation=24)
        t_grid, volume = np.array([0.0, 0.1, 0.2, 0.4]), 1000.0
        batches = {
            replicas: _run(ParticleSystem.from_distribution(d, volume, seed=seed, replicas=replicas), spec, t_grid)
            for replicas in (3, 5)
        }
        return batches, (d, spec, t_grid, volume)

    def test_batch_row_is_the_single_replica_stream(self):
        """Replica r of a batch of any size is bit-identical to a gillespie_step
        replay of the single system seeded (seed, r)."""
        seed = 17
        batches, (d, spec, t_grid, volume) = self.batches_of_3_and_5(seed)
        for r in range(3):
            alone, _ = replay_replica(d, spec, t_grid, volume, seed=(seed, r))
            assert np.array_equal(alone, batches[3][r])
            assert np.array_equal(alone, batches[5][r])

    def test_one_replica_run_is_its_batch_row(self):
        """_run on a one-replica system seeded (seed, r) is row r of the batches
        of 3 and 5, bit for bit: the engine keeps a replica's stream alone or in
        a batch."""
        seed = 17
        batches, (d, spec, t_grid, volume) = self.batches_of_3_and_5(seed)
        for r in range(3):
            (alone,) = _run(ParticleSystem.from_distribution(d, volume, seed=(seed, r)), spec, t_grid)
            assert np.array_equal(alone, batches[3][r])
            assert np.array_equal(alone, batches[5][r])

    @pytest.mark.parametrize("sizes", [[1, 1, 3], [1, 1, 2, 2], [1, 2, 6]])
    def test_pair_pick_matches_enumeration(self, sizes):
        """Unordered bin pairs of a merge, read off a batch whose rows sweep
        (u1, u2) over cell midpoints, against brute-force enumeration of
        distinct particle pairs with weight s_i * s_l.

        With S1^2 - S2 cells for u1 and a common multiple of every S1 - a for
        u2, each cumulative-weight boundary falls on a cell edge, so the
        frequencies are the engine's pick probabilities exactly."""
        s1, s2 = sum(sizes), sum(j * j for j in sizes)
        cells1, cells2 = s1 * s1 - s2, math.lcm(*(s1 - j for j in set(sizes)))
        g = SizeGrid(ds=0.5, n=16)
        spec = KernelSpec(frag_eps=0.2, truncation=16)  # every pair is in-cap
        sys = ParticleSystem(g, 1.0, sizes, replicas=cells1 * cells2)
        before = sys.counts.copy()
        coag, frag = _proposal_rates(sys, spec)
        u1, u2 = np.meshgrid(
            (np.arange(cells1) + 0.5) / cells1, (np.arange(cells2) + 0.5) / cells2, indexing="ij"
        )
        u = np.column_stack([np.zeros(u1.size), u1.ravel(), u2.ravel()])  # u0 = 0: merge
        _execute_events(sys, spec, coag, coag + frag, u, _split_weights(sys, spec))
        lost = np.maximum(before - sys.counts, 0)  # the merged particles' bins
        lo = np.argmax(lost > 0, axis=1)
        hi = lost.shape[1] - 1 - np.argmax(lost[:, ::-1] > 0, axis=1)
        engine = {}
        for pair in zip(lo.tolist(), hi.tolist()):
            engine[pair] = engine.get(pair, 0) + 1
        exact = {}
        for i in range(len(sizes)):
            for l in range(i + 1, len(sizes)):
                pair = tuple(sorted((sizes[i], sizes[l])))
                exact[pair] = exact.get(pair, 0) + sizes[i] * sizes[l]
        assert set(engine) == set(exact)
        norm = sum(exact.values())
        for pair, weight in exact.items():
            assert engine[pair] / u1.size == pytest.approx(weight / norm, rel=1e-12), pair

    def test_events_match_the_scalar_oracle(self):
        """1200 lockstep events of 4 replicas, each redone by the one-event
        oracle in Python floats from the uniforms the replica drew: the counts
        agree after every event, over merges, breakups and over-cap nulls."""
        g = SizeGrid(ds=0.25, n=16)
        spec = KernelSpec(frag_eps=0.5, truncation=12)
        sys = ParticleSystem(g, 2.0, [1, 2, 3, 5, 6, 6, 8, 12], seed=11, replicas=4)
        drawn, next_draws = [], sys._next_draws

        def recording():
            draws = next_draws()
            drawn.append(draws.copy())
            return draws

        sys._next_draws = recording
        expected = sys.counts.tolist()
        kinds = {"merge": 0, "split": 0, "null": 0}
        for _ in range(300):
            prior = sys.counts.copy()
            gillespie_step(sys, spec)
            for r in range(4):
                expected[r] = lockstep_event(expected[r], spec.truncation, spec.frag_eps, g.ds, sys.volume,
                                             drawn[-1][r, 1:].tolist())
                change = int(sys.counts[r].sum() - prior[r].sum())
                kinds["merge" if change < 0 else "split" if change > 0 else "null"] += 1
            assert sys.counts.tolist() == expected
        assert min(kinds.values()) > 0, kinds

    def test_draws_are_the_documented_stream(self):
        """The tables _next_draws gives a batch of 5 replicas that runs into a
        third block and loses replicas mid-block: each row is the next draw of a
        replica still in the batch, in replica order, and replica r's draws are
        a fresh default_rng((seed, r)) giving, per block of 256 events, 256
        exponentials and then a (256, 3) array of uniforms."""
        g = SizeGrid(ds=0.5, n=32)
        d = make_initial("exponential", g, mass=1.0, lam=2.0)
        spec = KernelSpec(frag_eps=0.3, truncation=24)
        seed, replicas, block = 17, 5, 256
        sys = ParticleSystem.from_distribution(d, 1000.0, seed=seed, replicas=replicas)
        drawn, next_draws = [], sys._next_draws

        def recording():
            draws = next_draws()
            drawn.append(draws.copy())
            return draws

        sys._next_draws = recording
        _run(sys, spec, [0.0, 0.6])
        assert len(drawn) > 2 * block
        streams = []
        for r in range(replicas):
            rng = np.random.default_rng((seed, r))
            blocks = [
                np.column_stack([rng.standard_exponential(block), rng.random((block, 3))])
                for _ in range(len(drawn) // block + 1)
            ]
            streams.append(np.concatenate(blocks))
        live, departures = list(range(replicas)), []
        for i, draws in enumerate(drawn):
            still = [r for r in live if any(np.array_equal(streams[r][i], row) for row in draws)]
            assert np.array_equal(draws, np.array([streams[r][i] for r in still]))
            if len(still) < len(live):
                departures.append(i)
            live = still
        assert len(live) >= 1
        assert any(i % block for i in departures)

    def test_memory_of_the_readme_ensemble_is_bounded(self, readme_experiment):
        """The README ensemble (200 replicas) keeps its draws in two buffers
        allocated once and never copied, so its peak stays under 1.5 MiB; a
        new 1.6 MB block of draws per refill and a copy of it per retirement
        took 3.55 MiB."""
        exp = readme_experiment
        assert exp.sto_replicas == 200
        args = exp.initial, exp.solver.spec
        ensemble_moments(*args, [0.0, 1e-3], replicas=2, volume=100.0)  # imports numpy.random's lazy modules
        tracemalloc.start()
        try:
            ensemble_moments(
                *args, exp.sto_t_grid, replicas=exp.sto_replicas, seed=exp.seed, volume=exp.sto_volume
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_batch_conserves_mass_with_null_events(self):
        """Every row keeps its mass exactly and its counts nonnegative over
        many events; over-cap merges leave the row unchanged."""
        g = SizeGrid(ds=0.25, n=16)
        spec = KernelSpec(frag_eps=0.5, truncation=12)
        sys = ParticleSystem(g, 2.0, [1, 2, 3, 5, 6, 6, 8, 12], seed=5, replicas=16)
        j = np.arange(g.n + 1)
        mass0 = sys.counts @ j
        nulls = 0
        for _ in range(400):
            prior = sys.counts.copy()
            gillespie_step(sys, spec)
            assert np.all(sys.counts >= 0)
            assert np.array_equal(sys.counts @ j, mass0)
            assert np.array_equal(sys._s2, sys.counts @ j**2)
            assert np.array_equal(sys._n, sys.counts.sum(axis=1))
            assert not sys.counts[:, spec.truncation + 1 :].any()
            nulls += int(np.sum(np.all(sys.counts == prior, axis=1)))
        assert nulls > 0
