"""Transform sums, derivative sign structure, forcing term, and the residual
of the singular first-order equation."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cflab import ScenarioParams, SizeGrid, core, field_from_trajectory, make_initial
from cflab.bernstein import BernsteinField, bernstein_sums, cm_exact_report
from cflab.core import Distribution
from cflab.verification import cm_sampled_check, g_eps_bound_check, hj_residual_check
from oracles import distribution_field, x_grid

counts_strategy = arrays(
    np.float64,
    st.integers(min_value=2, max_value=16),
    elements=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)


def sums(dist, x, k_max=2):
    """(F, D) of one distribution: row 0 of the sums of its 1-row counts matrix."""
    F, D, _ = bernstein_sums(dist.grid, dist.counts[None], x, k_max)
    return F[0], D[0]


def f_fx_fxx(dist, x):
    """(F, Fx, Fxx) of one distribution from the transform sums."""
    F, D = sums(dist, x)
    return F, D[0], -D[1]


def synthetic_field(x, times, F, Fx, Fxx, m, m2=None):
    """A field of the given arrays; with ``m2``, its mass gap is m - Fx."""
    return BernsteinField(
        x=np.asarray(x, float),
        times=np.asarray(times, float),
        F=np.asarray(F, float),
        Fx=np.asarray(Fx, float),
        Fxx=np.asarray(Fxx, float),
        m=m,
        m2=None if m2 is None else np.asarray(m2, float),
        mass_gap=None if m2 is None else m - np.asarray(Fx, float),
    )


class TestTransform:
    def test_unit_point_mass_closed_form(self):
        """Point mass at s=1 gives F(x) = 1 - exp(-x)."""
        g = SizeGrid(ds=1.0, n=4)
        d = Distribution(g, [1.0, 0, 0, 0])
        x = np.array([0.0, 0.5, 1.0, 3.0])
        F, Fx, Fxx = f_fx_fxx(d, x)
        np.testing.assert_allclose(F, -np.expm1(-x), rtol=1e-14)
        assert F[2] == pytest.approx(0.6321205588285577)
        np.testing.assert_allclose(Fx, np.exp(-x), rtol=1e-14)
        np.testing.assert_allclose(Fxx, -np.exp(-x), rtol=1e-14)

    def test_origin_identities(self):
        """F(0) = 0, Fx(0) = m1, Fxx(0) = -m2 hold exactly."""
        g = SizeGrid(ds=0.5, n=10)
        rng = np.random.default_rng(2)
        d = Distribution(g, rng.random(10))
        F, Fx, Fxx = f_fx_fxx(d, np.array([0.0]))
        assert F[0] == 0.0
        assert Fx[0] == pytest.approx(d.moment(1), rel=1e-14)
        assert Fxx[0] == pytest.approx(-d.moment(2), rel=1e-14)

    def test_discretized_exponential_density(self):
        """Number density exp(-s) has F(x) = x/(1+x); check F(1) = 0.5 + O(ds)."""
        g = SizeGrid(ds=0.01, n=4000)
        d = Distribution(g, np.exp(-g.sizes) * g.ds)
        F, _, _ = f_fx_fxx(d, np.array([1.0]))
        assert F[0] == pytest.approx(0.5, abs=5 * g.ds)

    @given(counts=counts_strategy)
    @settings(max_examples=40, deadline=None)
    def test_additivity(self, counts):
        """transform(N + M) = transform(N) + transform(M) pointwise."""
        g = SizeGrid(ds=0.5, n=len(counts))
        other = np.roll(counts, 1)
        x = x_grid(16)
        Fa, Fxa, Fxxa = f_fx_fxx(Distribution(g, counts), x)
        Fb, Fxb, Fxxb = f_fx_fxx(Distribution(g, other), x)
        Fs, Fxs, Fxxs = f_fx_fxx(Distribution(g, counts + other), x)
        np.testing.assert_allclose(Fs, Fa + Fb, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(Fxs, Fxa + Fxb, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(Fxxs, Fxxa + Fxxb, rtol=1e-12, atol=1e-14)

    @given(counts=counts_strategy)
    @settings(max_examples=40, deadline=None)
    def test_termwise_bounds(self, counts):
        """0 <= Fx <= m1, |Fxx| <= m2, and F <= m1*x for all x >= 0."""
        g = SizeGrid(ds=0.5, n=len(counts))
        d = Distribution(g, counts)
        x = x_grid(24)
        F, Fx, Fxx = f_fx_fxx(d, x)
        m1, m2 = d.moment(1), d.moment(2)
        slack = 1e-12 * max(m1, 1.0)
        assert np.all(Fx >= -slack) and np.all(Fx <= m1 + slack)
        assert np.all(np.abs(Fxx) <= m2 + 1e-12 * max(m2, 1.0))
        assert np.all(F <= m1 * x + slack)
        assert np.all(F >= -slack)

    def test_single_time_field_wrapper(self):
        g = SizeGrid(ds=1.0, n=4)
        d = Distribution(g, [2.0, 0, 0, 0])
        field = distribution_field(d, x_grid())
        assert field.times.shape == (1,)
        assert field.m == pytest.approx(2.0)
        assert field.g_eps is not None


def test_sums_of_a_matrix_are_its_rows_sums():
    """Each row of a counts matrix gets the sums it gets alone, bit for bit."""
    g = SizeGrid(ds=0.25, n=32)
    counts = np.random.default_rng(5).random((3, 32))
    x = x_grid(12)
    sums_of_matrix = bernstein_sums(g, counts, x, k_max=3)
    assert [a.shape for a in sums_of_matrix] == [(3, x.size), (3, 3, x.size), (3, x.size)]
    for row, c in enumerate(counts):
        for of_matrix, alone in zip(sums_of_matrix, bernstein_sums(g, c[None], x, k_max=3)):
            assert of_matrix[row].tobytes() == alone[0].tobytes()


def single_block_sums(grid, counts, x, k_max):
    """The sums with every x in one block: the three X-by-n matrices at once."""
    s = grid.sizes
    phase = np.outer(np.asarray(x, dtype=float), s)
    decay, growth = np.exp(-phase), -np.expm1(-phase)
    F = np.stack([growth @ N for N in counts])
    D = np.array([[decay @ (s**k * N) for k in range(1, k_max + 1)] for N in counts])
    W = np.stack([growth @ (s * N) for N in counts])
    return F, D, W


@pytest.mark.parametrize(
    "num, rows",
    [
        pytest.param(12, 4, id="13 x over blocks of 4"),
        pytest.param(12, 1, id="one x per block"),
        pytest.param(0, 1, id="one x"),
        pytest.param(12, None, id="X n fits one block"),
    ],
)
def test_blocked_sums_match_one_block(monkeypatch, num, rows):
    """Blocks of x rows write the slices of F, D and W that one block of every
    x would: the same sums, to roundoff."""
    g = SizeGrid(ds=0.25, n=32)
    counts = np.random.default_rng(7).random((3, 32)) * np.exp(-g.sizes)
    x = x_grid(num) if num else np.array([0.7])
    if rows is not None:
        monkeypatch.setattr(core, "BLOCK_ENTRIES", rows * g.n)
    assert core.block_rows(g.n) == (rows or core.BLOCK_ENTRIES // g.n)
    for blocked, one_block in zip(bernstein_sums(g, counts, x, k_max=3), single_block_sums(g, counts, x, k_max=3)):
        np.testing.assert_allclose(blocked, one_block, rtol=1e-13, atol=0)


class TestDerivative:
    """D_k = sum_i s_i^k exp(-x s_i) N_i is (-1)^(k-1) d^k F / dx^k."""

    def test_first_derivative_at_origin_is_mass(self):
        g = SizeGrid(ds=0.5, n=8)
        d = make_initial("monodisperse", g, mass=1.5, size=0.5)
        _, D = sums(d, [0.0], k_max=1)
        assert D[0, 0] == pytest.approx(1.5)

    def test_second_derivative_sign_convention(self):
        g = SizeGrid(ds=1.0, n=4)
        d = Distribution(g, [0.0, 1.0, 0, 0])
        _, D = sums(d, [0.0], k_max=2)
        assert (-1) ** (2 - 1) * D[1, 0] == pytest.approx(-d.moment(2))

    def test_third_derivative_point_mass(self):
        """Unit count at s=2: d^3F/dx^3(0) = (+1) * 2^3 = 8."""
        g = SizeGrid(ds=1.0, n=4)
        d = Distribution(g, [0.0, 1.0, 0, 0])
        _, D = sums(d, [0.0], k_max=3)
        assert D[2, 0] == pytest.approx(8.0)

    @given(counts=counts_strategy, k=st.integers(1, 8), x=st.floats(0.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_sign_pattern_for_every_order(self, counts, k, x):
        """(-1)^(k-1) d^k F >= 0 with zero tolerance: the sum has no cancellation."""
        g = SizeGrid(ds=0.5, n=len(counts))
        d = Distribution(g, counts)
        _, D = sums(d, [x], k_max=k)
        assert D[k - 1, 0] >= 0.0


class TestCompleteMonotonicity:
    def test_exact_sums_always_pass(self):
        g = SizeGrid(ds=0.5, n=16)
        rng = np.random.default_rng(7)
        d = Distribution(g, rng.random(16))
        report = cm_exact_report(g, d.counts[None], [0.0], x_grid())
        assert report.passed
        assert report.worst_margin >= 0.0

    def test_exact_report_locates_the_row(self):
        """Over the rows of a counts matrix, the margin is the smallest D_k(x)
        of any row, relative to the first row's mass, located at that row's
        time, x and k."""
        g = SizeGrid(ds=0.5, n=16)
        rng = np.random.default_rng(11)
        counts = rng.random((4, 16))
        counts[2] *= 1e-3  # the smallest sums
        times = [0.0, 0.1, 0.2, 0.3]
        x = x_grid(8)
        report = cm_exact_report(g, counts, times, x_samples=x)
        t, xv, k = report.location
        assert t == 0.2
        _, D = sums(Distribution(g, counts[2]), [xv], k_max=k)
        mass = float(np.dot(g.sizes, counts[0]))
        assert report.worst_margin == D[k - 1, 0] / mass
        _, D_all, _ = bernstein_sums(g, counts, x, 6)
        assert report.worst_margin == D_all.min() / mass

    def test_quadratic_field_fails_concavity(self):
        """F = x^2 is convex: the k=2 finite difference must flag it, with the
        quotient 2, while the concave 2x - x^2 passes at every order."""
        x = np.linspace(0.0, 1.0, 21)
        convex = synthetic_field(x, [0.0], [x ** 2], [2 * x], [np.full_like(x, 2.0)], 1.0)
        report = cm_sampled_check(convex)
        assert not report.passed
        assert report.location[2] == 2
        assert report.worst_margin == pytest.approx(-2.0, rel=1e-9)
        concave = synthetic_field(x, [0.0], [2 * x - x ** 2], [2 - 2 * x], [np.full_like(x, -2.0)], 1.0)
        assert cm_sampled_check(concave).passed

    def test_sampled_true_transform_passes(self):
        g = SizeGrid(ds=1.0, n=4)
        d = Distribution(g, [1.0, 0.5, 0, 0])
        x = np.linspace(0.5, 6.0, 23)
        F, Fx, Fxx = f_fx_fxx(d, x)
        report = cm_sampled_check(synthetic_field(x, [0.0], [F], [Fx], [Fxx], d.moment(1)))
        assert report.passed

    def test_sampled_requires_uniform_grid(self):
        """Enough samples for k = 4, so the spacing rule is what rejects them."""
        x = np.array([0.1, 0.2, 0.4, 0.8, 1.6])
        field = synthetic_field(x, [0.0], [x], [np.ones(5)], [np.zeros(5)], 1.0)
        with pytest.raises(ValueError, match="samples must be uniformly spaced"):
            cm_sampled_check(field)

    def test_sampled_needs_five_samples(self):
        """The 4th-order quotient needs five samples."""
        x = np.linspace(0.0, 1.0, 4)
        field = synthetic_field(x, [0.0], [x], [np.ones(4)], [np.zeros(4)], 1.0)
        with pytest.raises(ValueError, match="at least 5"):
            cm_sampled_check(field)


def residual(field, scenario, eps, ds=None):
    """max |residual| over interior times and x > 0, read back from the margin
    of hj_residual_check against a unit ceiling."""
    return 1.0 - hj_residual_check(field, scenario, eps, ceiling=1.0, ds=ds).worst_margin


class TestResidual:
    def test_linear_field_is_exact_solution(self):
        """F = m*x solves the equation: each term cancels."""
        m = 1.3
        x = np.concatenate([[0.0], np.geomspace(0.1, 5.0, 12)])
        times = np.array([0.0, 0.1, 0.2])
        F = np.tile(m * x, (3, 1))
        Fx = np.full((3, x.size), m)
        Fxx = np.zeros((3, x.size))
        field = synthetic_field(x, times, F, Fx, Fxx, m)
        scen = ScenarioParams(m=m, m2_0=1.0)
        assert residual(field, scen, 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m,expected", [(1.0, 0.0), (2.0, 1.0)])
    def test_zero_field_residual(self, m, expected):
        """F = 0: residual is m(m+1)/2 - m."""
        x = np.concatenate([[0.0], np.geomspace(0.1, 5.0, 12)])
        times = np.array([0.0, 0.1, 0.2])
        zeros = np.zeros((3, x.size))
        field = synthetic_field(x, times, zeros, zeros, zeros, m)
        scen = ScenarioParams(m=m, m2_0=1.0)
        assert residual(field, scen, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_needs_three_times(self):
        x = np.array([0.0, 1.0])
        field = synthetic_field(x, [0.0], np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)), 1.0)
        with pytest.raises(ValueError):
            hj_residual_check(field, ScenarioParams(m=1.0, m2_0=1.0), 0.0, ceiling=1.0)

    def test_kinetic_field_residual_small(self, run_m1_fine):
        """At ds=0.25 the residual is dominated by the ds^2 split-sum defect
        (about 3e-2 on this window); the refinement study in the acceptance
        suite drives it under 1e-2."""
        field = field_from_trajectory(
            run_m1_fine["traj"], np.concatenate([[0.0], np.geomspace(1e-3, 5.0, 40)])
        )
        assert hj_residual_check(field, run_m1_fine["scenario"], 0.1, ceiling=5e-2).passed

    def test_grid_forcing_needs_the_mass_gap(self):
        """With a grid step and eps > 0 the residual forms G from the mass
        gap, so a field that carries G but no mass gap is refused."""
        zeros = np.zeros((3, 2))
        field = BernsteinField(x=np.array([0.0, 1.0]), times=np.array([0.0, 0.1, 0.2]),
                               F=zeros, Fx=zeros, Fxx=zeros, m=1.0, g_eps=zeros)
        with pytest.raises(ValueError, match="no G_eps forcing"):
            hj_residual_check(field, ScenarioParams(m=1.0, m2_0=1.0), 0.1, ceiling=1.0, ds=0.25)

    def test_grid_residual_of_the_readme_run(self, run_m1_fine):
        """The README run (ds = 0.25) on verify's x grid: with kappa(x, ds)
        for 1/x the residual is the time differencing's, at most 2e-5; with
        1/x it keeps the grid's ds^2 defect, 2.762e-2."""
        field = field_from_trajectory(run_m1_fine["traj"], np.concatenate([[0.0], np.geomspace(1e-3, 5.0, 40)]))
        scenario, ds = run_m1_fine["scenario"], run_m1_fine["grid"].ds
        assert residual(field, scenario, 0.1, ds) <= 2e-5
        assert residual(field, scenario, 0.1) == pytest.approx(2.762e-2, rel=1e-4)


class TestForcing:
    def test_vanishes_at_origin_and_for_point_mass_limit(self):
        """For a point mass at s=1, G(x) = m2/2 + m2 e^{-x}/2 - m(1-e^{-x})/x."""
        g = SizeGrid(ds=1.0, n=4)
        d = Distribution(g, [1.5, 0, 0, 0])
        field = distribution_field(d, np.array([0.0, 1.0, 10.0]))
        gvals = field.g_eps[0]
        assert gvals[0] == 0.0
        x = 1.0
        expected = 0.75 + 0.75 * np.exp(-x) - 1.5 * (1 - np.exp(-x)) / x
        assert gvals[1] == pytest.approx(expected, rel=1e-12)

    def test_static_point_mass_within_bound(self):
        g = SizeGrid(ds=1.0, n=4)
        d = Distribution(g, [1.5, 0, 0, 0])
        scen = ScenarioParams.from_distribution(d)
        field = distribution_field(d, x_grid())
        assert g_eps_bound_check(field, scen, T=0.0).passed

    def test_bound_check_rejects_t_at_horizon(self):
        g = SizeGrid(ds=1.0, n=4)
        d = Distribution(g, [1.5, 0, 0, 0])
        scen = ScenarioParams.from_distribution(d)
        field = distribution_field(d, x_grid())
        with pytest.raises(ValueError):
            g_eps_bound_check(field, scen, T=scen.t_star)

    def test_convexity_violating_field_can_fail(self):
        """Negative control: F = x^2 with zero recorded m2 and a slow horizon
        pushes |G| above 3/t_star."""
        x = np.array([0.0, 1.0, 4.0, 20.0])
        times = np.array([0.0])
        F = (x ** 2)[None, :]
        Fx = (2 * x)[None, :]
        Fxx = np.full((1, x.size), 2.0)
        field = synthetic_field(x, times, F, Fx, Fxx, m=1.0, m2=[0.0])
        scen = ScenarioParams(m=1.0, m2_0=0.25)  # t_star = 4, bound = 0.7575
        assert not g_eps_bound_check(field, scen, T=0.0).passed

    def test_kinetic_field_bound_holds(self, run_m15_family):
        scen = run_m15_family["scenario"]
        traj = run_m15_family["runs"][0.1]
        field = field_from_trajectory(traj, x_grid())
        assert g_eps_bound_check(field, scen, T=0.5).passed
