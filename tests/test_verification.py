"""Bound checkers: envelope, moment inequalities, moment equations with the
coefficient oracle, derivative bounds, and the locations of the run
checks."""
import numpy as np
import pytest

from cflab import KernelSpec, ScenarioParams, SizeGrid, field_from_trajectory, make_initial
from cflab.bernstein import BernsteinField, cm_exact_report
from cflab.core import BoundReport, MomentSeries
from cflab.kinetic import Trajectory
from cflab.verification import (
    cm_sampled_check,
    derivative_bounds_check,
    envelope_check,
    holder_bounds_check,
    mass_conservation_check,
    second_moment_envelope,
    time_derivative_bound,
    truncation_occupancy_check,
)
from oracles import distribution_field, frag_weak_coefficient, moment_ode_rhs_on_grid, x_grid


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
        report = holder_bounds_check(mono, [0.0])
        assert report.passed
        assert report.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_two_point_distribution(self):
        """Counts {1 at s=1, 1 at s=2}: 17*9 >= 125 and 33*3 >= 81."""
        mom = np.array([[2.0, 3.0, 5.0, 9.0, 17.0, 33.0]])
        report = holder_bounds_check(mom, [0.0])
        assert report.passed
        assert report.worst_margin == pytest.approx(min(28 / 125, 18 / 81), rel=1e-12)

    def test_synthetic_violation_fails(self):
        bad = np.array([[1.0, 1.0, 1.0, 5.0, 1.0, 1.0]])  # m5*m1 = 1 < m3^2 = 25
        report = holder_bounds_check(bad, [0.0])
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
        """The oracle gives (1/2) * integral of (1 - (1-u)^3 - u^3) = 1/4.

        An often-quoted heuristic value for this coefficient is 1/12; the
        quadrature (and the kinetic cross-check in the acceptance suite)
        settles it at 1/4.  Both are recorded here deliberately.
        """
        assert frag_weak_coefficient(3) == pytest.approx(0.25, abs=1e-13)
        assert frag_weak_coefficient(3) != pytest.approx(1.0 / 12.0, abs=1e-3)

    def test_general_order_closed_form(self):
        """Independent cross-check: the closed form c_k = (k-1) / (2(k+1))
        against a 24-node Gauss-Legendre quadrature of
        (1/2) * integral_0^1 (1 - (1-u)^k - u^k) du, exact for these degrees."""
        nodes, weights = np.polynomial.legendre.leggauss(24)
        u = 0.5 * (nodes + 1.0)
        for k in range(2, 7):
            quadrature = 0.25 * np.dot(weights, 1.0 - (1.0 - u) ** k - u ** k)
            assert frag_weak_coefficient(k) == pytest.approx(quadrature, abs=1e-12)


class TestMomentOde:
    def test_quadratic_rate_all_unit_moments(self):
        mom = np.ones(6)
        assert moment_ode_rhs_on_grid(mom, 0.0, 2, ds=0.0) == pytest.approx(5.0 / 6.0)
        assert moment_ode_rhs_on_grid(mom, 0.1, 2, ds=0.0) == pytest.approx(1.0 - 1.1 / 6.0)

    def test_cubic_rate_uses_oracle_coefficient(self):
        mom = np.ones(6)
        assert moment_ode_rhs_on_grid(mom, 0.0, 3, ds=0.0) == pytest.approx(3.0 - 0.25)

    def test_grid_form_hand_values(self):
        """At ds = 0 the continuum equation m2^2 - (m3 + eps m4)/6; at ds = 0.5
        each fragmentation moment m_p loses ds^2 m_{p-2}."""
        mom = np.array([1.0, 1.0, 2.0, 5.0, 14.0, 42.0])
        assert moment_ode_rhs_on_grid(mom, 0.2, 2, ds=0.0) == pytest.approx(4.0 - (5.0 + 0.2 * 14.0) / 6.0)
        assert moment_ode_rhs_on_grid(mom, 0.2, 2, ds=0.5) == pytest.approx(
            4.0 - ((5.0 - 0.25 * 1.0) + 0.2 * (14.0 - 0.25 * 2.0)) / 6.0
        )

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            moment_ode_rhs_on_grid(np.ones(6), 0.0, 4, ds=0.0)


class TestDerivativeBounds:
    def test_time_bound_arithmetic(self):
        assert time_derivative_bound(1.0, 1.0, 0.5) == pytest.approx(9.0)

    def test_transform_field_passes_exactly(self):
        g = SizeGrid(ds=0.5, n=16)
        d = make_initial("monodisperse", g, mass=1.0, size=1.0)
        scen = ScenarioParams.from_distribution(d)
        report = derivative_bounds_check(distribution_field(d, x_grid()), scen, T=0.5 * scen.t_star)
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
            field = field_from_trajectory(traj, x_grid())
            assert derivative_bounds_check(field, scen, T=0.5 * scen.t_star).passed

    def test_rejects_horizon_crossing(self):
        g = SizeGrid(ds=0.5, n=8)
        d = make_initial("monodisperse", g, mass=1.0, size=1.0)
        scen = ScenarioParams.from_distribution(d)
        with pytest.raises(ValueError):
            derivative_bounds_check(distribution_field(d, x_grid()), scen, T=scen.t_star)


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
        moments = MomentSeries(times, np.ones((4, 6)), drift, np.zeros(4))
        traj = Trajectory(np.ones((4, 2)), SizeGrid(1.0, 2), moments, KernelSpec(0.0, 2))
        rep = mass_conservation_check(traj)
        assert rep.location == (0.1, "m1")
        assert rep.worst_margin == pytest.approx(0.7, rel=1e-12)

    def test_truncation_occupancy_at_the_largest_occupancy(self):
        """Occupancy s_max * N_n / m1(0) of 0, 1e-9, 2e-9, 2e-9 against the
        1e-9 tolerance: the row fails with margin -1 at the earliest time of
        the largest occupancy."""
        top = np.array([0.0, 1e-9, 2e-9, 2e-9])
        counts = np.column_stack([2.0 - 2.0 * top, top])
        traj = Trajectory.of_snapshots([0.0, 0.1, 0.2, 0.3], counts, SizeGrid(1.0, 2), KernelSpec(0.0, 2))
        rep = truncation_occupancy_check(traj)
        assert (rep.name, rep.location, rep.passed) == ("truncation_occupancy", (0.2, "s_max"), False)
        assert rep.worst_margin == pytest.approx(-1.0, rel=1e-9)
        assert truncation_occupancy_check(Trajectory.of_snapshots(
            [0.0, 0.1], counts[:2], SizeGrid(1.0, 2), KernelSpec(0.0, 2))).passed

    def test_cm_exact_at_the_time_x_and_order_of_the_smallest_derivative(self):
        """Two unit-mass rows: the second, all at size 4, has the smallest
        signed derivative, D_1(x) = exp(-4x) at the largest x; the margin is
        relative to the first row's mass, so doubling that row halves it."""
        g = SizeGrid(ds=1.0, n=4)
        counts = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.25]])
        x = np.array([0.0, 1.0, 2.0])
        rep = cm_exact_report(g, counts, [0.0, 0.5], x_samples=x)
        assert rep.name == "complete_monotonicity_exact"
        assert rep.location == (0.5, 2.0, 1)
        assert rep.worst_margin == pytest.approx(np.exp(-8.0), rel=1e-12)
        halved = cm_exact_report(g, counts * [[2.0], [1.0]], [0.0, 0.5], x_samples=x)
        assert halved.worst_margin == pytest.approx(0.5 * np.exp(-8.0), rel=1e-12)

    @staticmethod
    def sampled_field(F):
        F = np.asarray(F, dtype=float)
        x = np.arange(F.shape[1], dtype=float)
        return BernsteinField(x=x, times=0.1 * np.arange(len(F)), F=F, Fx=F, Fxx=F, m=1.0)

    def test_cm_sampled_ties_go_to_the_earliest_time(self):
        """The same failing row at two times is reported at the earlier one."""
        good, bad = np.arange(7.0), [0.0, 1.0, 2.0, 1.0, 2.0, 3.0, 4.0]
        alone = cm_sampled_check(self.sampled_field([bad]))
        assert not alone.passed
        rep = cm_sampled_check(self.sampled_field([good, bad, bad]))
        assert rep.location == (0.1, *alone.location[1:])
        assert rep.worst_margin == alone.worst_margin
        # time before order: an order-2 worst of -1 at t = 0 wins over an order-1 one at t = 0.1
        order_2, order_1 = [0.0, 0.0, 0.0, 0.0, 0.5, 2.0], [0.0, 3.0, 3.0, 2.0, 1.0, 0.0]
        assert cm_sampled_check(self.sampled_field([order_1])).location == (0.0, 2.5, 1)
        assert cm_sampled_check(self.sampled_field([order_2, order_1])).location == (0.0, 4.0, 2)

    def test_cm_sampled_ties_go_to_the_lowest_order(self):
        """At one time, order-1 and order-2 quotients of the same worst value
        -1 give the order-1 location, the centre x = 1.5 of its stencil."""
        F = [0.0, 1.0, 0.0, 0.0, 1.0, 3.0]
        signed = [(-1) ** (k - 1) * np.diff(F, k) for k in range(1, 5)]
        assert min(signed[0]) == min(signed[1]) == -1.0 < min(min(signed[2]), min(signed[3]))
        rep = cm_sampled_check(self.sampled_field([F]))
        assert rep.location == (0.0, 1.5, 1)
        assert rep.worst_margin == -1.0
