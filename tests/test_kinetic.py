"""Deterministic solver: rate terms against brute-force references, exact
conservation, stepping contracts, and the weak-form residual."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cflab import KernelSpec, ScenarioParams, SizeGrid, SolverConfig, core, kinetic, make_initial, simulate
from cflab.core import Distribution
from cflab.errors import SolverAbort
from cflab.kinetic import (
    Trajectory,
    _coag_rates,
    _frag_rates,
    _rhs,
    _self_convolution,
    _weak_form_rates,
    stability_limit,
    weak_form_residual,
)
from cflab.verification import second_moment_envelope
from oracles import frag_kernel, frag_weak_coefficient, moment_ode_rhs_on_grid, simulate_loop


# --- brute-force references: the independent oracle for the vectorized rhs ---

def coag_reference(dist, spec):
    """Triple-loop translation of the truncated double sum."""
    g = dist.grid
    n, s, N = g.n, g.sizes, dist.counts
    cap = min(spec.truncation, n)
    rate = np.zeros(n)
    for k in range(1, n + 1):
        gain = sum(
            s[i - 1] * s[k - i - 1] * N[i - 1] * N[k - i - 1] for i in range(1, k)
        )
        loss = sum(s[k - 1] * s[j - 1] * N[j - 1] for j in range(1, cap - k + 1))
        rate[k - 1] = (0.5 * gain if k <= cap else 0.0) - N[k - 1] * loss
    return rate


def frag_reference(dist, spec):
    """Per-parent split enumeration: one fragment to bin k and one to j-k."""
    g = dist.grid
    n, s, N = g.n, g.sizes, dist.counts
    cap = min(spec.truncation, n)
    rate = np.zeros(n)
    for j in range(2, cap + 1):
        for k in range(1, j):
            pair_rate = 0.5 * g.ds * frag_kernel(spec, s[k - 1], s[j - k - 1]) * N[j - 1]
            rate[j - 1] -= pair_rate
            rate[k - 1] += pair_rate
            rate[j - k - 1] += pair_rate
    return rate


def weak_form_reference(dist, spec, phi):
    """Double loop over the pairs (i, j), i + j <= cap, and the splits (k, j-k)."""
    g = dist.grid
    n, s, N = g.n, g.sizes, dist.counts
    cap = min(spec.truncation, n)
    total = 0.0
    for i in range(1, n + 1):
        for j in range(1, cap - i + 1):
            gain = phi(s[i - 1] + s[j - 1]) - phi(s[i - 1]) - phi(s[j - 1])
            total += 0.5 * gain * s[i - 1] * s[j - 1] * N[i - 1] * N[j - 1]
    for j in range(2, cap + 1):
        for k in range(1, j):
            loss = phi(s[j - 1]) - phi(s[k - 1]) - phi(s[j - k - 1])
            b = frag_kernel(spec, s[k - 1], s[j - k - 1])
            total -= 0.5 * g.ds * N[j - 1] * b * loss
    return total


# (n, truncation) of the weak-form rate tests; C = min(n, truncation) - 2 is
# the largest sum of two 0-based bins that still pair
WEAK_FORM_CASES = [
    pytest.param(200, 200, id="even C"),
    pytest.param(201, 201, id="odd C"),
    pytest.param(200, 150, id="cap below n, even C"),
    pytest.param(200, 151, id="cap below n, odd C"),
    pytest.param(33, 7, id="cap far below n"),
    # the only pair is bin 0 with itself
    pytest.param(2, 2, id="n = 2"),
    # one pair of two bins, 0 and 1, and bin 0 with itself
    pytest.param(3, 3, id="n = 3"),
]


def trajectory_of(grid, spec, counts, dt):
    """Trajectory of the count rows ``counts``, one snapshot every ``dt``."""
    return Trajectory.of_snapshots(dt * np.arange(len(counts)), counts, grid, spec)


counts_strategy = arrays(
    np.float64,
    st.integers(min_value=2, max_value=16),
    elements=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)


def make_config(grid, eps=0.0, dt=1e-3, t_end=0.0, stride=1, scenario=None):
    scen = scenario or ScenarioParams(m=1.0, m2_0=1.0)
    return SolverConfig(
        dt=dt, t_end=t_end, output_every=stride,
        spec=KernelSpec.for_grid(grid, frag_eps=eps), scenario=scen,
    )


class TestCoagulationRhs:
    def test_single_bin_hand_values(self):
        """N1=2 at s=1: gain into bin 2 is 1/2*1*4 = 2, loss from bin 1 is 4."""
        g = SizeGrid(ds=1.0, n=6)
        d = Distribution(g, [2, 0, 0, 0, 0, 0])
        rate = _coag_rates(d.counts, g, KernelSpec.for_grid(g))
        np.testing.assert_allclose(rate[:3], [-4.0, 2.0, 0.0])
        assert np.dot(g.sizes, rate) == pytest.approx(0.0, abs=1e-14)

    def test_empty_distribution(self):
        g = SizeGrid(ds=1.0, n=4)
        rate = _coag_rates(np.zeros(4), g, KernelSpec.for_grid(g))
        np.testing.assert_array_equal(rate, 0.0)

    def test_top_bin_mass_is_inert(self):
        """Every pairing with the top bin exceeds the cap, so nothing moves."""
        g = SizeGrid(ds=1.0, n=5)
        d = Distribution(g, [0, 0, 0, 0, 3.0])
        rate = _coag_rates(d.counts, g, KernelSpec.for_grid(g))
        np.testing.assert_array_equal(rate, 0.0)

    def test_number_balance_is_nonpositive(self):
        """Coagulation only destroys particles: sum_k rate_k <= 0."""
        g = SizeGrid(ds=0.5, n=12)
        rng = np.random.default_rng(3)
        d = Distribution(g, rng.random(12))
        assert np.sum(_coag_rates(d.counts, g, KernelSpec.for_grid(g))) < 0

    @given(counts=counts_strategy)
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce(self, counts):
        g = SizeGrid(ds=0.5, n=len(counts))
        spec = KernelSpec.for_grid(g)
        d = Distribution(g, counts)
        np.testing.assert_allclose(
            _coag_rates(d.counts, g, spec), coag_reference(d, spec), rtol=1e-12, atol=1e-12
        )


class TestCoagulationFft:
    """From ``_FFT_MIN_BINS`` active bins on, the gain is an FFT convolution."""

    @pytest.mark.parametrize(
        "n, truncation",
        [
            (kinetic._FFT_MIN_BINS + 1, kinetic._FFT_MIN_BINS + 1),
            (kinetic._FFT_MIN_BINS + 90, kinetic._FFT_MIN_BINS + 20),
        ],
    )
    def test_matches_bruteforce_above_crossover(self, n, truncation):
        g = SizeGrid(ds=0.05, n=n)
        spec = KernelSpec(frag_eps=0.0, truncation=truncation)
        assert min(truncation, n) - 1 >= kinetic._FFT_MIN_BINS
        rng = np.random.default_rng(17)
        d = Distribution(g, rng.random(n) * np.exp(-g.sizes))
        ref = coag_reference(d, spec)
        got = _coag_rates(d.counts, g, spec)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_fft_matches_direct_convolution_at_4096(self):
        w = np.random.default_rng(23).random(4096)
        direct = np.convolve(w, w)
        assert np.max(np.abs(_self_convolution(w) - direct)) <= 1e-12 * np.max(direct)

    def test_fine_grid_run_conserves_mass_and_stays_nonnegative(self):
        """FFT roundoff lands in bins whose exact gain is 0; clipping it must
        keep every count >= 0 without moving the mass."""
        g = SizeGrid(ds=1.0 / 128, n=4096)
        d = Distribution(g, np.where(np.arange(1, 4097) == 128, 1.0, 0.0))
        scen = ScenarioParams.from_distribution(d)
        traj = simulate(make_config(g, eps=0.1, dt=1e-3, t_end=0.02, stride=1, scenario=scen), d)
        assert traj.metadata["n_steps"] == 20
        assert traj.moments.mass_drift.max() <= 1e-12
        assert np.all(traj.counts >= 0.0)


class TestFragmentationRhs:
    def test_binary_split_hand_values(self):
        """Parent N2=1, ds=1, constant kernel: event rate 1/2, two fragments."""
        g = SizeGrid(ds=1.0, n=6)
        d = Distribution(g, [0, 1, 0, 0, 0, 0])
        rate = _frag_rates(d.counts, g, KernelSpec.for_grid(g))
        np.testing.assert_allclose(rate[:3], [1.0, -0.5, 0.0])
        assert np.dot(g.sizes, rate) == pytest.approx(0.0, abs=1e-14)

    def test_smallest_size_cannot_fragment(self):
        g = SizeGrid(ds=1.0, n=4)
        d = Distribution(g, [5.0, 0, 0, 0])
        np.testing.assert_array_equal(_frag_rates(d.counts, g, KernelSpec.for_grid(g)), 0.0)

    def test_perturbed_kernel_hand_values(self):
        """Parent N3=1, eps=1: loss = 1/2*(b(1,2)+b(2,1)) = 4 with b = 1+3."""
        g = SizeGrid(ds=1.0, n=6)
        d = Distribution(g, [0, 0, 1, 0, 0, 0])
        rate = _frag_rates(d.counts, g, KernelSpec.for_grid(g, frag_eps=1.0))
        np.testing.assert_allclose(rate[:4], [4.0, 4.0, -4.0, 0.0])

    def test_number_balance_is_nonnegative(self):
        """Fragmentation only creates particles: sum_k rate_k >= 0."""
        g = SizeGrid(ds=0.5, n=12)
        rng = np.random.default_rng(5)
        d = Distribution(g, rng.random(12))
        assert np.sum(_frag_rates(d.counts, g, KernelSpec.for_grid(g, 0.3))) > 0

    @given(counts=counts_strategy, eps=st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce(self, counts, eps):
        g = SizeGrid(ds=0.5, n=len(counts))
        spec = KernelSpec.for_grid(g, frag_eps=eps)
        d = Distribution(g, counts)
        np.testing.assert_allclose(
            _frag_rates(d.counts, g, spec), frag_reference(d, spec), rtol=1e-12, atol=1e-12
        )


class TestConservation:
    @given(counts=counts_strategy, eps=st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_combined_rhs_conserves_mass(self, counts, eps):
        """sum_k s_k (coagulation + fragmentation)_k = 0 up to 1e-13 * m1."""
        g = SizeGrid(ds=0.5, n=len(counts))
        spec = KernelSpec.for_grid(g, frag_eps=eps)
        d = Distribution(g, counts)
        rate = _rhs(d.counts, g, spec)
        m1 = max(d.moment(1), 1.0)
        assert abs(np.dot(g.sizes, rate)) <= 1e-13 * m1

    def test_second_moment_rate_matches_closed_form(self):
        """sum s^2 rhs equals the grid moment equation exactly, and the
        continuum form up to the ds^2 split-sum defect."""
        g = SizeGrid(ds=0.25, n=64)
        spec = KernelSpec.for_grid(g, frag_eps=0.0)
        rng = np.random.default_rng(11)
        counts = rng.random(64) * np.exp(-g.sizes)
        counts[g.sizes > 0.5 * g.s_max] = 0.0  # no pair can reach the cap
        d = Distribution(g, counts)
        rate = _rhs(d.counts, g, spec)
        measured = float(np.dot(g.sizes ** 2, rate))
        mom = np.array([d.moment(k) for k in range(6)])
        assert measured == pytest.approx(moment_ode_rhs_on_grid(mom, 0.0, 2, g.ds), rel=1e-10)
        continuum = mom[2] ** 2 - frag_weak_coefficient(2) * mom[3]
        assert measured == pytest.approx(continuum, abs=g.ds ** 2 * mom[1] / 6 * 1.01)


class TestStep:
    def test_zero_distribution_is_fixed_point(self):
        g = SizeGrid(ds=1.0, n=4)
        d = Distribution(g, np.zeros(4))
        out = simulate(make_config(g, dt=1e-2, t_end=1e-2), d).counts[-1]
        np.testing.assert_array_equal(out, 0.0)

    def test_zero_dt_is_rejected(self):
        """A zero step would never leave t = 0: the config is rejected instead
        of a run that records the initial data alone."""
        g = SizeGrid(ds=1.0, n=4)
        with pytest.raises(ValueError, match="dt = 0 must be positive"):
            make_config(g, dt=0.0, t_end=1.0)

    def test_one_step_conserves_mass(self):
        g = SizeGrid(ds=0.5, n=64)
        d = Distribution(g, np.where(g.sizes == 1.0, 2.0, 0.0))
        out = Distribution(g, simulate(make_config(g, eps=0.1, dt=1e-3, t_end=1e-3), d).counts[-1])
        np.testing.assert_allclose(out.moment(1), d.moment(1), rtol=1e-12)

    def test_oversized_dt_aborts_with_negative_counts(self):
        g = SizeGrid(ds=1.0, n=32)
        d = Distribution(g, np.exp(-g.sizes))
        config = make_config(g, eps=0.0, dt=5.0, t_end=5.0)
        with pytest.raises(SolverAbort):
            simulate(config, d)


class TestSimulate:
    def test_zero_horizon_returns_single_snapshot(self):
        g = SizeGrid(ds=1.0, n=8)
        d = Distribution(g, [1.0, 0, 0, 0, 0, 0, 0, 0])
        traj = simulate(make_config(g, dt=1e-3, t_end=0.0), d)
        assert traj.counts.shape == (1, 8)
        np.testing.assert_array_equal(traj.counts[0], d.counts)

    def test_stride_must_divide_the_step_count(self):
        """300 steps in strides of 7 would end on a 6-step stride, which the
        weak-form and Bernstein time derivatives reject; the config does."""
        g = SizeGrid(ds=1.0, n=8)
        with pytest.raises(ValueError, match="does not divide"):
            make_config(g, dt=1e-3, t_end=0.3, stride=7)
        d = Distribution(g, [1.0, 0, 0, 0, 0, 0, 0, 0])
        for stride, n_snapshots in [(6, 51), (300, 2), (400, 2)]:
            traj = simulate(make_config(g, dt=1e-3, t_end=0.3, stride=stride), d)
            assert traj.counts.shape == (n_snapshots, 8)
            steps = np.diff(traj.times)
            np.testing.assert_allclose(steps, steps[0], rtol=1e-9)

    def test_mass_drift_below_tolerance_and_halving_dt_shrinks_it(self):
        g = SizeGrid(ds=0.5, n=128)
        d = Distribution(g, np.where(g.sizes == 1.0, 1.0, 0.0))
        scen = ScenarioParams.from_distribution(d)

        def drift(dt):
            traj = simulate(make_config(g, eps=0.1, dt=dt, t_end=0.3, stride=100, scenario=scen), d)
            return float(traj.moments.mass_drift.max())

        d1 = drift(1e-3)
        assert d1 <= 1e-6
        # conservation is exact in exact arithmetic: refinement must not grow it
        assert drift(5e-4) <= max(d1 * 2.0, 1e-12)

    def test_second_moment_under_envelope(self, run_m1_fine):
        traj = run_m1_fine["traj"]
        scen = run_m1_fine["scenario"]
        for t, m2 in zip(traj.times, traj.moments.column(2)):
            if t <= 0.8 * scen.t_star:
                assert m2 <= second_moment_envelope(scen.m2_0, t) * (1 + 1e-3)

    @pytest.mark.parametrize("case", ["readme", "fft"])
    def test_matches_the_rk4_loop_bit_for_bit(self, readme_experiment, case):
        """The README run, and a run whose 599 active bins take the FFT gain,
        record the same snapshots as an RK4 loop with its own recording."""
        if case == "readme":
            config, initial = readme_experiment.solver, readme_experiment.initial
        else:
            g = SizeGrid(ds=0.05, n=600)
            initial = make_initial("exponential", g, mass=1.0, lam=1.0)
            scen = ScenarioParams.from_distribution(initial)
            config = make_config(g, eps=0.1, dt=1e-3, t_end=0.05, stride=10, scenario=scen)
            assert min(config.spec.truncation, g.n) - 1 >= kinetic._FFT_MIN_BINS
        traj = simulate(config, initial)
        times, counts = simulate_loop(config, initial)
        assert times.size == traj.times.size > 2
        np.testing.assert_array_equal(traj.times, times)
        np.testing.assert_array_equal(traj.counts, counts)

    def test_stability_guard_example(self):
        g = SizeGrid(ds=1.0, n=128)
        guard = stability_limit(g, KernelSpec.for_grid(g, frag_eps=0.01), 1.5)
        s = g.sizes
        expected = 0.1 / np.max(s * 1.5 + 0.5 * s * (1 + 0.01 * s))
        assert guard == pytest.approx(expected)


class TestWeakFormResidual:
    def test_stationary_zero_trajectory(self):
        g = SizeGrid(ds=1.0, n=8)
        d = Distribution(g, np.zeros(8))
        traj = simulate(make_config(g, dt=1e-3, t_end=0.01, stride=2), d)
        assert weak_form_residual(traj, lambda s: np.asarray(s, float))[0] == pytest.approx(0.0)

    def test_mass_test_function_vanishes(self, run_m1_fine):
        """phi(s) = s makes both sides of the weak form vanish identically."""
        res, _ = weak_form_residual(run_m1_fine["traj"], lambda s: np.asarray(s, float))
        assert res <= 1e-8

    def test_exponential_test_function_refines(self):
        """phi_x residual shrinks by >= 3x when dt and ds are both halved."""
        def level(ds, dt, n):
            g = SizeGrid(ds=ds, n=n)
            d = Distribution(g, np.where(g.sizes == 1.0, 1.0, 0.0))
            scen = ScenarioParams.from_distribution(d)
            traj = simulate(make_config(g, eps=0.1, dt=dt, t_end=0.3, stride=25, scenario=scen), d)
            return max(
                weak_form_residual(traj, lambda s, xv=xv: -np.expm1(-xv * np.asarray(s, float)))[0]
                for xv in (0.5, 1.0, 2.0)
            )

        coarse = level(0.5, 2e-3, 64)
        fine = level(0.25, 1e-3, 128)
        assert fine <= 1e-2
        assert coarse / fine >= 3.0

    @pytest.mark.parametrize("rows", [None, 1, 7])
    @pytest.mark.parametrize("n, truncation", WEAK_FORM_CASES)
    def test_rate_matches_double_loop(self, monkeypatch, rows, n, truncation):
        """The half-pair sum against the double loop over ordered pairs: its
        rows stop at C // 2 for odd and even C = cap - 2, with blocks of any
        height, and the ends of each block are cut off at the cap."""
        if rows is not None:
            # blocks of ``rows`` rows of the widest gain matrix, cap - 1 columns
            monkeypatch.setattr(core, "BLOCK_ENTRIES", rows * (min(truncation, n) - 1))
        g = SizeGrid(ds=0.05, n=n)
        spec = KernelSpec(frag_eps=0.3, truncation=truncation)
        d = Distribution(g, np.random.default_rng(29).random(n) * np.exp(-g.sizes))
        got = _weak_form_rates(g, spec, -np.expm1(-0.7 * g.sizes), d.counts[None])[0]
        ref = weak_form_reference(d, spec, lambda x: -math.expm1(-0.7 * x))
        assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("rows", [None, 1, 7])
    @pytest.mark.parametrize("n, truncation", WEAK_FORM_CASES)
    def test_batched_rates_match_double_loop(self, monkeypatch, rows, n, truncation):
        """weak_form_residual sums the pairs of all interior snapshots in one
        pass; each snapshot's rate, and so the worst mismatch and its time,
        must match the double loop."""
        if rows is not None:
            # blocks of ``rows`` rows of the widest gain matrix, cap - 1 columns
            monkeypatch.setattr(core, "BLOCK_ENTRIES", rows * (min(truncation, n) - 1))
        g = SizeGrid(ds=0.05, n=n)
        spec = KernelSpec(frag_eps=0.3, truncation=truncation)
        counts = np.random.default_rng(31).random((5, n)) * np.exp(-g.sizes)
        traj = trajectory_of(g, spec, counts, dt=0.01)
        rates = _weak_form_rates(g, spec, -np.expm1(-0.7 * g.sizes), counts[1:-1])
        ref = [
            weak_form_reference(Distribution(g, c), spec, lambda x: -math.expm1(-0.7 * x))
            for c in traj.counts[1:-1]
        ]
        np.testing.assert_allclose(rates, ref, rtol=1e-12)

        total = counts @ -np.expm1(-0.7 * g.sizes)
        res = np.abs((total[2:] - total[:-2]) / 0.02 - ref)
        worst, t = weak_form_residual(traj, lambda s: -np.expm1(-0.7 * np.asarray(s, float)))
        assert worst == pytest.approx(res.max(), rel=1e-12)
        assert t == traj.times[1 + int(np.argmax(res))]

    def test_mass_test_function_is_exactly_zero_on_a_dyadic_grid(self):
        """phi(s) = s on ds = 2^-7: each pair's gain s_{i+j} - s_i - s_j and
        each split's loss are exact, so every rate is exactly 0.  Snapshots
        that merge whole particles keep sum_i s_i N_i exact, so the time
        derivative is exactly 0 as well."""
        g = SizeGrid(ds=2.0 ** -7, n=4096)
        spec = KernelSpec.for_grid(g, frag_eps=0.1)
        rng = np.random.default_rng(11)
        counts = [rng.integers(1, 50, g.n).astype(float)]
        for a, b in [(3, 70), (900, 900), (1500, 2000), (0, 4094)]:
            merged = counts[-1].copy()
            merged[a] -= 1.0
            merged[b] -= 1.0
            merged[a + b + 1] += 1.0  # 0-based bins a and b merge into bin a + b + 1
            counts.append(merged)
        traj = trajectory_of(g, spec, np.array(counts), dt=0.01)
        assert weak_form_residual(traj, lambda s: np.asarray(s, float)) == (0.0, traj.times[1])

    def test_rate_memory_is_bounded_at_4096(self):
        """Blocks of at most BLOCK_ENTRIES gains (512 KB) keep the pair sum far
        below the 4096^2 doubles (128 MB) that a single n-by-n temporary would
        take."""
        g = SizeGrid(ds=1.0 / 128, n=4096)
        d = Distribution(g, np.exp(-g.sizes) * g.ds)
        spec = KernelSpec.for_grid(g, frag_eps=0.1)
        tracemalloc.start()
        try:
            _weak_form_rates(g, spec, -np.expm1(-g.sizes), d.counts[None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_needs_three_snapshots(self):
        g = SizeGrid(ds=1.0, n=8)
        d = Distribution(g, [1.0, 0, 0, 0, 0, 0, 0, 0])
        traj = simulate(make_config(g, dt=1e-3, t_end=0.0), d)
        with pytest.raises(ValueError):
            weak_form_residual(traj, lambda s: np.asarray(s, float))
