"""Bound checkers: envelope, moment inequalities, moment equations with the
coefficient oracle, the a-priori cap, derivative bounds, and the locations
of the run checks."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cflab import (
    BernsteinField,
    BoundReport,
    KernelSpec,
    ScenarioParams,
    SizeGrid,
    Trajectory,
    derivative_bounds_check,
    envelope_check,
    field_from_trajectory,
    holder_bounds_check,
    make_initial,
)
from cflab.bernstein import transform
from cflab.core import MomentSeries
from cflab.verification import (
    a_priori_cap,
    frag_weak_coefficient,
    mass_conservation_check,
    moment_ode_rhs,
    moment_ode_rhs_on_grid,
    second_moment_envelope,
    time_derivative_bound,
)


class TestEnvelope:
    def test_arithmetic_instance(self):
        assert second_moment_envelope(2.0, 0.25) == pytest.approx(4.0)

    def test_starts_at_initial_value(self):
        assert second_moment_envelope(3.0, 0.0) == pytest.approx(3.0)

    def test_pole_is_out_of_domain(self):
        with pytest.raises(ValueError):
            second_moment_envelope(2.0, 0.5)
        # just below the pole the envelope blows up but is defined
        assert second_moment_envelope(2.0, 0.5 - 1e-9) > 1e8

    def test_envelope_check_on_series(self):
        times = np.array([0.0, 0.1, 0.2])
        good = np.array([1.0, 1.05, 1.2])
        assert envelope_check(times, good, m2_0=1.0).passed
        bad = np.array([1.0, 1.5, 2.0])
        assert not envelope_check(times, bad, m2_0=1.0).passed


class TestHolder:
    def test_monodisperse_equality_case(self):
        mono = np.array([[3.0, 3.0, 3.0, 3.0, 3.0, 3.0]])
        report = holder_bounds_check(mono)
        assert report.passed
        assert report.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_two_point_distribution(self):
        """Counts {1 at s=1, 1 at s=2}: 17*9 >= 125 and 33*3 >= 81."""
        mom = np.array([[2.0, 3.0, 5.0, 9.0, 17.0, 33.0]])
        report = holder_bounds_check(mom)
        assert report.passed
        assert report.worst_margin == pytest.approx(min(28 / 125, 18 / 81), rel=1e-12)

    def test_synthetic_violation_fails(self):
        bad = np.array([[1.0, 1.0, 1.0, 5.0, 1.0, 1.0]])  # m5*m1 = 1 < m3^2 = 25
        report = holder_bounds_check(bad)
        assert not report.passed
        assert report.location[1] == "m5*m1 >= m3^2"

    def test_trajectory_moments_pass(self, run_m15_family):
        for traj in run_m15_family["runs"].values():
            assert holder_bounds_check(traj.moments.moments, traj.times).passed


class TestCoefficientOracle:
    def test_quadratic_coefficient(self):
        """Constant-kernel split-point integral for phi = s^2 gives 1/6."""
        assert frag_weak_coefficient(2) == pytest.approx(1.0 / 6.0, abs=1e-13)

    def test_cubic_coefficient(self):
        """The oracle evaluates (1/2) * integral of (1 - (1-u)^3 - u^3) = 1/4.

        An often-quoted heuristic value for this coefficient is 1/12; the
        quadrature (and the kinetic cross-check in the acceptance suite)
        settles it at 1/4.  Both are recorded here deliberately.
        """
        assert frag_weak_coefficient(3) == pytest.approx(0.25, abs=1e-13)
        assert frag_weak_coefficient(3) != pytest.approx(1.0 / 12.0, abs=1e-3)

    def test_general_order_closed_form(self):
        """Independent cross-check: c_k = (k-1) / (2(k+1)) by calculus."""
        for k in range(2, 7):
            assert frag_weak_coefficient(k) == pytest.approx((k - 1) / (2 * (k + 1)), abs=1e-12)


class TestMomentOde:
    def test_quadratic_rate_all_unit_moments(self):
        mom = np.ones(6)
        assert moment_ode_rhs(mom, 0.0, 2) == pytest.approx(5.0 / 6.0)
        assert moment_ode_rhs(mom, 0.1, 2) == pytest.approx(1.0 - 1.1 / 6.0)

    def test_cubic_rate_uses_oracle_coefficient(self):
        mom = np.ones(6)
        assert moment_ode_rhs(mom, 0.0, 3) == pytest.approx(3.0 - 0.25)

    def test_grid_form_reduces_to_continuum(self):
        mom = np.array([1.0, 1.0, 2.0, 5.0, 14.0, 42.0])
        assert moment_ode_rhs_on_grid(mom, 0.2, 2, ds=0.0) == pytest.approx(
            moment_ode_rhs(mom, 0.2, 2)
        )

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            moment_ode_rhs(np.ones(6), 0.0, 4)


class TestAPrioriCap:
    def test_closed_form_value(self):
        """Maximizer y* = 4 m^2 / eps with value 16 m^4 / (3 eps^2)."""
        assert a_priori_cap(1.0, 1.0) == pytest.approx(16.0 / 3.0, abs=1e-9)

    @given(m=st.floats(0.2, 3.0), eps=st.floats(0.05, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_calculus(self, m, eps):
        cap = a_priori_cap(m, eps)
        closed = 16.0 * m ** 4 / (3.0 * eps ** 2)
        np.testing.assert_allclose(cap, closed, rtol=1e-8)
        # the rate polynomial reaches the cap at y* = 4 m^2 / eps and nowhere exceeds it
        y = np.linspace(0.0, 8.0 * m ** 2 / eps, 20001)
        rate = y ** 2 - (eps / 6.0) * y ** 3 / m ** 2
        assert rate.max() <= cap * (1 + 1e-12)
        np.testing.assert_allclose(rate[10000], cap, rtol=1e-12)

    def test_unperturbed_kernel_has_no_cap(self):
        with pytest.raises(ValueError):
            a_priori_cap(1.0, 0.0)

    def test_caps_rate_along_trajectory(self, run_m1_fine):
        """With the interpolation substitution the rate m2^2 - (eps/6) m2^3/m^2
        never exceeds the cap along a real run."""
        scen = run_m1_fine["scenario"]
        eps = 0.1
        cap = a_priori_cap(scen.m, eps)
        m2 = run_m1_fine["traj"].moments.column(2)
        rate = m2 ** 2 - (eps / 6.0) * m2 ** 3 / scen.m ** 2
        assert np.all(rate <= cap * (1 + 1e-9))


class TestDerivativeBounds:
    def test_time_bound_arithmetic(self):
        assert time_derivative_bound(1.0, 1.0, 0.5) == pytest.approx(9.0)

    def test_transform_field_passes_exactly(self):
        g = SizeGrid(ds=0.5, n=16)
        d = make_initial("monodisperse", g, mass=1.0, size=1.0)
        scen = ScenarioParams.from_distribution(d)
        report = derivative_bounds_check(transform(d), scen, T=0.5 * scen.t_star)
        assert report.passed

    def test_convex_field_fails(self):
        x = np.linspace(0.0, 2.0, 9)
        times = np.array([0.0])
        F = (x ** 2)[None, :]
        field = BernsteinField(
            x=x, times=times, F=F, Fx=2 * x[None, :], Fxx=np.full((1, x.size), 2.0), m=1.0
        )
        scen = ScenarioParams(m=1.0, m2_0=1.0)
        report = derivative_bounds_check(field, scen, T=0.5)
        assert not report.passed

    def test_kinetic_fields_at_half_horizon(self, run_m15_family):
        scen = run_m15_family["scenario"]
        for traj in run_m15_family["runs"].values():
            field = field_from_trajectory(traj)
            assert derivative_bounds_check(field, scen, T=0.5 * scen.t_star).passed

    def test_rejects_horizon_crossing(self):
        g = SizeGrid(ds=0.5, n=8)
        d = make_initial("monodisperse", g, mass=1.0, size=1.0)
        scen = ScenarioParams.from_distribution(d)
        with pytest.raises(ValueError):
            derivative_bounds_check(transform(d), scen, T=scen.t_star)


class TestBoundReport:
    def test_fail_iff_margin_below_negative_tolerance(self):
        assert BoundReport("x", worst_margin=-0.5e-3, tolerance=1e-3).passed
        assert not BoundReport("x", worst_margin=-2e-3, tolerance=1e-3).passed
        assert BoundReport("x", worst_margin=0.0, tolerance=0.0).passed


class TestRunCheckLocations:
    def test_mass_conservation_at_the_largest_drift(self):
        """The row is located at the snapshot time of the largest drift, not at
        the end of the run; ties go to the earliest time."""
        times = np.array([0.0, 0.1, 0.2, 0.3])
        drift = np.array([0.0, 3e-7, 3e-7, 1e-7])
        traj = Trajectory((), MomentSeries(times, np.ones((4, 6)), drift), KernelSpec(0.0, 2))
        rep = mass_conservation_check(traj)
        assert rep.location == (0.1, "m1")
        assert rep.worst_margin == pytest.approx(0.7, rel=1e-12)
