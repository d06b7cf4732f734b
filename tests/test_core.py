"""Domain types: grids, distributions, kernels, moments, initial profiles, and
the step rule, RK4 step and recording march of both time-steppers."""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cflab import KernelSpec, ScenarioParams, SizeGrid, SolverConfig, make_initial
from cflab.core import Distribution, MomentSeries, kappa, march, rk4, schedule, step_count, uniform_step
from oracles import coag_kernel, frag_kernel

counts_strategy = arrays(
    np.float64,
    st.integers(min_value=2, max_value=24),
    elements=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)


def dist_for(counts, ds=0.5):
    return Distribution(SizeGrid(ds=ds, n=len(counts)), counts)


class TestSizeGrid:
    def test_sizes_uniform_and_increasing(self):
        g = SizeGrid(ds=0.25, n=8)
        np.testing.assert_allclose(g.sizes, 0.25 * np.arange(1, 9))
        assert np.all(np.diff(g.sizes) > 0)
        assert g.s_max == pytest.approx(2.0)

    @pytest.mark.parametrize("ds,n", [(0.0, 4), (-1.0, 4), (1.0, 1)])
    def test_invalid_grids_rejected(self, ds, n):
        with pytest.raises(ValueError):
            SizeGrid(ds=ds, n=n)

    def test_bin_index_off_grid(self):
        g = SizeGrid(ds=1.0, n=4)
        assert g.bin_index(3.0) == 3
        with pytest.raises(ValueError, match="size 0.2 lies below the smallest bin 1.0"):
            g.bin_index(0.2)
        with pytest.raises(ValueError, match="size 9.0 lies above the top of the grid 4.0"):
            g.bin_index(9.0)


class TestKappa:
    """kappa(x, ds) = (ds/2) coth(x ds/2) is the 1/x of the grid of step ds."""

    @pytest.mark.parametrize("ds", [0.25, 1.0])
    def test_breakup_sum_over_the_grid(self, ds):
        """ds * sum_{k < j} (1 - exp(-x k ds)) = S - (kappa(x) + ds/2)(1 - exp(-x S))
        for S = j ds, where the continuum integral gives S - (1 - exp(-x S)) / x."""
        x = np.geomspace(0.05, 20.0, 9)
        for j in range(1, 13):
            S = j * ds
            lhs = ds * sum(-np.expm1(-x * k * ds) for k in range(1, j)) if j > 1 else np.zeros_like(x)
            rhs = S + (kappa(x, ds) + 0.5 * ds) * np.expm1(-x * S)
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * S)

    def test_continuum_limit(self):
        """kappa(x) = 1/x + x ds^2/12 + O(x^3 ds^4)."""
        x, ds = np.array([0.5, 1.0, 4.0]), 1e-3
        np.testing.assert_allclose(kappa(x, ds) - 1.0 / x, x * ds**2 / 12.0, rtol=1e-5)


class TestDistribution:
    def test_counts_validated(self):
        g = SizeGrid(ds=1.0, n=3)
        with pytest.raises(ValueError):
            Distribution(g, [1.0, -0.5, 0.0])
        with pytest.raises(ValueError):
            Distribution(g, [1.0, np.inf, 0.0])
        with pytest.raises(ValueError):
            Distribution(g, [1.0, 2.0])

    def test_counts_are_frozen(self):
        d = dist_for([1.0, 2.0], ds=1.0)
        with pytest.raises(ValueError):
            d.counts[0] = 5.0


class TestMoment:
    def test_monodisperse_at_unit_size(self):
        """All powers of s=1 are 1, so every moment equals the count."""
        d = dist_for([3.0, 0.0], ds=1.0)
        assert d.moment(2) == pytest.approx(3.0)

    def test_single_bin_at_s2(self):
        d = dist_for([0.0, 0.5], ds=1.0)
        assert d.moment(1) == pytest.approx(1.0)
        assert d.moment(2) == pytest.approx(2.0)

    def test_two_bins_third_moment(self):
        # direct sum: 1*1^3 + 1*2^3 = 9
        d = dist_for([1.0, 1.0], ds=1.0)
        assert d.moment(3) == pytest.approx(9.0)

    def test_order_domain(self):
        d = dist_for([1.0, 1.0], ds=1.0)
        with pytest.raises(ValueError):
            d.moment(6)
        with pytest.raises(ValueError):
            d.moment(-1)

    @given(counts=counts_strategy, alpha=st.floats(0.0, 5.0), beta=st.floats(0.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_linearity_in_counts(self, counts, alpha, beta):
        """m_k(aN + bM) = a m_k(N) + b m_k(M)."""
        g = SizeGrid(ds=0.5, n=len(counts))
        other = np.roll(counts, 1)
        mixed = Distribution(g, alpha * counts + beta * other)
        for k in range(6):
            expected = alpha * Distribution(g, counts).moment(k) + beta * Distribution(g, other).moment(k)
            np.testing.assert_allclose(mixed.moment(k), expected, rtol=1e-12, atol=1e-12)

    @given(counts=counts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_holder_inequalities_hold_for_any_distribution(self, counts):
        """m4 m1^2 >= m2^3 and m5 m1 >= m3^2 are exact facts for nonnegative
        measures; they must hold for anything a Distribution can represent."""
        d = dist_for(counts)
        m = [d.moment(k) for k in range(6)]
        assert m[4] * m[1] ** 2 >= m[2] ** 3 * (1 - 1e-9)
        assert m[5] * m[1] >= m[3] ** 2 * (1 - 1e-9)


class TestKernels:
    @pytest.mark.parametrize("s,sh,expected", [(1, 1, 1), (2, 3, 6), (0.5, 4, 2)])
    def test_coagulation_values(self, s, sh, expected):
        assert coag_kernel(s, sh) == pytest.approx(expected)

    def test_fragmentation_values(self):
        g = SizeGrid(ds=1.0, n=4)
        assert frag_kernel(KernelSpec.for_grid(g), 3.0, 7.0) == pytest.approx(1.0)
        assert frag_kernel(KernelSpec.for_grid(g, 0.1), 2.0, 3.0) == pytest.approx(1.5)
        assert frag_kernel(KernelSpec.for_grid(g, 1.0), 0.25, 0.75) == pytest.approx(2.0)

    @given(
        s=st.floats(0.01, 100.0),
        sh=st.floats(0.01, 100.0),
        eps=st.floats(0.0, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, s, sh, eps):
        spec = KernelSpec(frag_eps=eps, truncation=4)
        assert coag_kernel(s, sh) == coag_kernel(sh, s)
        assert frag_kernel(spec, s, sh) == frag_kernel(spec, sh, s)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(frag_eps=-0.1, truncation=4)
        with pytest.raises(ValueError):
            KernelSpec(frag_eps=0.0, truncation=1)


class TestScenarioParams:
    def test_horizon_is_reciprocal_second_moment(self):
        scen = ScenarioParams(m=1.5, m2_0=1.5)
        assert scen.t_star == pytest.approx(1.0 / 1.5)

    def test_from_distribution_uses_discretized_moments(self):
        d = dist_for([0.0, 0.75], ds=1.0)  # mass 1.5 at s=2
        scen = ScenarioParams.from_distribution(d)
        assert scen.m == pytest.approx(1.5)
        assert scen.m2_0 == pytest.approx(3.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ScenarioParams(m=0.0, m2_0=1.0)
        with pytest.raises(ValueError):
            ScenarioParams(m=1.0, m2_0=0.0)


class TestMomentSeries:
    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            MomentSeries(np.array([0.0, 0.0]), np.zeros((2, 6)), np.zeros(2), np.zeros(2))


class TestMakeInitial:
    def test_monodisperse_point_mass(self):
        g = SizeGrid(ds=1.0, n=8)
        d = make_initial("monodisperse", g, mass=1.5, size=1.0)
        assert d.counts[0] == pytest.approx(1.5)
        assert np.count_nonzero(d.counts) == 1
        assert d.moment(2) == pytest.approx(1.5)

    def test_monodisperse_below_smallest_bin(self):
        g = SizeGrid(ds=1.0, n=8)
        with pytest.raises(ValueError, match="lies below the smallest bin"):
            make_initial("monodisperse", g, mass=1.0, size=0.2)

    def test_exponential_mass_renormalized(self):
        """Quadrature of the s*exp(-s) profile lands on the requested mass
        exactly after renormalization."""
        g = SizeGrid(ds=0.01, n=4000)
        d = make_initial("exponential", g, mass=2.5, lam=1.0)
        np.testing.assert_allclose(d.moment(1), 2.5, rtol=1e-12)
        # the shape matches the continuum profile: m2/m1 = 3/lam for s^2 e^{-s}
        np.testing.assert_allclose(d.moment(2) / d.moment(1), 3.0, rtol=2e-3)

    def test_exponential_tail_rejected_on_small_grid(self):
        g = SizeGrid(ds=0.5, n=10)  # s_max = 5 keeps ~2e-2 of the mass outside
        with pytest.raises(ValueError, match="keeps relative tail mass .* beyond s_max=5.0; enlarge the grid"):
            make_initial("exponential", g, mass=1.0, lam=1.0)

    def test_exponential_is_the_renormalized_density(self):
        """The counts are the density lam^2 s exp(-lam s) ds, renormalized to
        the mass: leaving out its constant factor lam^2 ds moves them by
        roundoff only."""
        g = SizeGrid(ds=0.25, n=128)
        for lam in (1.0, 3.0, 10.0):
            density = lam**2 * g.sizes * np.exp(-lam * g.sizes) * g.ds
            expected = density * (1.5 / float(np.dot(g.sizes, density)))
            np.testing.assert_allclose(make_initial("exponential", g, mass=1.5, lam=lam).counts, expected, rtol=1e-14)

    @pytest.mark.parametrize("lam", [1e300, 1.7e308, float("inf")])
    def test_an_exponential_rate_that_puts_no_mass_on_the_grid(self, lam):
        """A rate whose profile underflows on every bin is a ValueError that
        names the rate, not an OverflowError or a numpy warning (an error in
        this suite)."""
        g = SizeGrid(ds=10.0, n=8)
        with pytest.raises(ValueError, match=re.escape(f"exponential profile of rate lam = {lam:g} carries no mass on")):
            make_initial("exponential", g, mass=1.0, lam=lam)

    def test_unknown_kind(self):
        """Any kind but the two, the former library-only custom among them, is
        refused with a line that names both."""
        g = SizeGrid(ds=1.0, n=4)
        for kind in ("uniform", "custom"):
            with pytest.raises(ValueError, match=f"unknown initial kind '{kind}': the kinds are monodisperse and exponential"):
                make_initial(kind, g, mass=1.0)


class TestStepRule:
    def test_step_count(self):
        """round(t_end / dt), at least 1, and 0 for a run of zero length; a run
        of positive length with a zero or negative step is rejected."""
        assert step_count(0.3, 1e-3) == 300
        assert step_count(1e-4, 1e-3) == 1
        assert step_count(0.0, 1e-3) == 0
        assert step_count(0.0, 0.0) == 0
        for dt in (0.0, -1e-3, float("nan")):
            with pytest.raises(ValueError, match="must be positive"):
                step_count(0.3, dt)

    @pytest.mark.parametrize("stride, n_steps", [(6, 300), (300, 300), (400, 300), (1, 0), (5, 0)])
    def test_strides_that_keep_the_times_uniform(self, stride, n_steps):
        h, steps = schedule(n_steps * 1e-3, 1e-3, stride, "stride")
        assert steps[-1] == n_steps and len(set(np.diff(steps))) <= 1

    @pytest.mark.parametrize("stride, n_steps", [(7, 300), (0, 300), (-1, 0)])
    def test_strides_that_do_not(self, stride, n_steps):
        with pytest.raises(ValueError, match="stride"):
            schedule(n_steps * 1e-3, 1e-3, stride, "stride")

    def test_uniform_step(self):
        assert uniform_step(np.array([0.0, 0.25, 0.5])) == 0.25
        with pytest.raises(ValueError, match="uniformly spaced"):
            uniform_step(np.array([0.0, 0.25, 0.45]))


class TestRk4:
    @pytest.mark.parametrize("lam, h", [(-2.0, 0.1), (0.7, 0.05), (-30.0, 1e-3)])
    def test_linear_equation_gives_the_degree_four_taylor_polynomial(self, lam, h):
        """On dy/dt = lam y one step multiplies y by 1 + z + z^2/2 + z^3/6 + z^4/24, z = lam h."""
        y0 = np.array([1.0, -0.5, 3.0])
        z = lam * h
        factor = 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
        np.testing.assert_allclose(rk4(lambda y: lam * y, y0, h), factor * y0, rtol=4e-16, atol=0)

    def test_three_row_state_steps_each_row_bit_for_bit(self):
        """A (3, P) state with a row-coupled right-hand side, as the fan steps
        (X, P, Z), equals the three rows stepped one at a time."""
        rng = np.random.default_rng(3)
        y = rng.uniform(0.5, 2.0, (3, 1000))

        def rhs(state):
            x, p, z = state
            return np.array((p - 1.5, z / (x * x) - p / x, 0.5 * p * p - z / x))

        # a step large enough that a reordered sum of the stages changes some bits
        h = 0.1
        rows = []
        k1 = rhs(y)
        k2 = rhs([y[r] + 0.5 * h * k1[r] for r in range(3)])
        k3 = rhs([y[r] + 0.5 * h * k2[r] for r in range(3)])
        k4 = rhs([y[r] + h * k3[r] for r in range(3)])
        for r in range(3):
            rows.append(y[r] + (h / 6.0) * (k1[r] + 2.0 * k2[r] + 2.0 * k3[r] + k4[r]))
        np.testing.assert_array_equal(rk4(rhs, y, h), np.stack(rows))

    def test_returns_a_new_array(self):
        y = np.ones(4)
        out = rk4(lambda v: -v, y, 0.1)
        assert out is not y and np.all(y == 1.0)


class TestMarch:
    @pytest.mark.parametrize("stride, n_steps", [(6, 300), (300, 300), (400, 300), (1, 0), (6, 0)])
    def test_steps_n_times_and_records_the_snapshot_schedule(self, stride, n_steps):
        t_end = n_steps * 1e-3
        calls = []

        def step(state, h, t):
            calls.append((h, t))
            return state + 1

        times, states = march(step, 0, t_end, 1e-3, stride, "stride")
        config = SolverConfig(
            dt=1e-3, t_end=t_end, output_every=stride,
            spec=KernelSpec(frag_eps=0.0, truncation=2), scenario=ScenarioParams(m=1.0, m2_0=1.0),
        )
        assert len(calls) == n_steps == config.n_steps
        np.testing.assert_array_equal(times, config.snapshot_times)
        # the state recorded at k h is the state after k steps
        np.testing.assert_array_equal(times, np.array(states) * (t_end / n_steps if n_steps else 0.0))
        assert [t for _, t in calls] == [k * (t_end / n_steps) for k in range(1, n_steps + 1)]
