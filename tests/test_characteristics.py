"""Characteristics: the Hamiltonian right-hand side, fan integration with its
runtime invariants, reconstruction, and solution ordering."""
import numpy as np
import pytest

from cflab import (
    FanCoverageError,
    FanCrossingError,
    default_starts,
    distribution_transform,
    fan_to_field,
    integrate_fan,
    monodisperse_transform,
    monotone_derivative_checks,
    reconstruct,
    SizeGrid,
    make_initial,
)
from cflab.characteristics import CharacteristicFan, _pchip, char_rhs, reconstruct_slope
from oracles import exponential_transform, ordering_check, scale_initial


class TestCharRhs:
    def test_substitution_m1(self):
        dx, dp, dz = char_rhs((1.0, 1.0, 1.0), m=1.0)
        assert (dx, dp, dz) == pytest.approx((-0.5, 0.0, -0.5))

    def test_substitution_wide(self):
        dx, dp, dz = char_rhs((2.0, 0.0, 0.0), m=1.0)
        assert (dx, dp, dz) == pytest.approx((-1.5, 0.0, 0.0))

    def test_locally_linear_value_freezes_slope(self):
        """Z = P*X makes dP = Z/X^2 - P/X vanish for any state."""
        for x, p in [(0.5, 0.2), (3.0, 0.9)]:
            _, dp, _ = char_rhs((x, p, p * x), m=1.0)
            assert dp == pytest.approx(0.0, abs=1e-15)

    def test_singular_boundary_rejected(self):
        with pytest.raises(ValueError):
            char_rhs((0.0, 0.5, 0.1), m=1.0)

    def test_vectorized(self):
        x = np.array([1.0, 2.0])
        p = np.array([1.0, 0.0])
        z = np.array([1.0, 0.0])
        dx, dp, dz = char_rhs((x, p, z), m=1.0)
        np.testing.assert_allclose(dx, [-0.5, -1.5])


class TestInitialData:
    def test_monodisperse_handle(self):
        f0 = monodisperse_transform(1.0, 1.0)
        value, slope = f0(np.array([0.0, 1.0]))
        np.testing.assert_allclose(value, [0.0, -np.expm1(-1.0)])
        np.testing.assert_allclose(slope, [1.0, np.exp(-1.0)])

    def test_slope_tends_to_mass_at_origin(self):
        """P(0) at x -> 0+ approaches m; the first drift is m - m - 1/2."""
        f0 = monodisperse_transform(1.0, 1.0)
        _, slope = f0(1e-9)
        assert slope == pytest.approx(1.0, abs=1e-8)
        dx, _, _ = char_rhs((1e-9, float(slope), float(f0(1e-9)[0])), m=1.0)
        assert dx == pytest.approx(-0.5, abs=1e-8)

    def test_exponential_handle_consistent_with_discretization(self):
        g = SizeGrid(ds=0.005, n=8000)
        d = make_initial("exponential", g, mass=1.0, lam=1.0)
        f_closed = exponential_transform(1.0, 1.0)
        f_disc = distribution_transform(d)
        x = np.array([0.3, 1.0, 3.0])
        np.testing.assert_allclose(f_closed(x)[0], f_disc(x)[0], rtol=5e-3)
        np.testing.assert_allclose(f_closed(x)[1], f_disc(x)[1], rtol=5e-3)

    def test_invalid_slope_rejected(self):
        bad = lambda x: (np.asarray(x, float) * 2.0, np.full_like(np.asarray(x, float), 2.0))
        with pytest.raises(ValueError):
            integrate_fan(bad, np.array([1.0, 2.0]), t_end=0.1, dt=1e-2, m=1.0)


class TestIntegrateFan:
    def test_stride_must_divide_the_step_count(self):
        """300 steps recorded every 7 would end on a 6-step stride, and the field
        of that fan could not be differenced in time; the fan rejects it as
        SolverConfig rejects the same output stride."""
        f0 = monodisperse_transform(1.0, 1.0)
        starts = np.linspace(1.0, 3.0, 5)
        with pytest.raises(ValueError, match="does not divide the 300 steps"):
            integrate_fan(f0, starts, t_end=0.3, dt=1e-3, m=1.0, record_every=7)
        with pytest.raises(ValueError, match="is below 1"):
            integrate_fan(f0, starts, t_end=0.3, dt=1e-3, m=1.0, record_every=0)
        for stride, n_times in [(6, 51), (300, 2), (400, 2)]:
            fan = integrate_fan(f0, starts, t_end=0.3, dt=1e-3, m=1.0, record_every=stride)
            assert fan.times.size == n_times
            np.testing.assert_allclose(np.diff(fan.times), np.diff(fan.times)[0], rtol=1e-9)

    def test_zero_horizon_returns_initial_conditions(self):
        f0 = monodisperse_transform(1.0, 1.0)
        starts = np.linspace(0.5, 3.0, 7)
        fan = integrate_fan(f0, starts, t_end=0.0, dt=1e-2, m=1.0)
        np.testing.assert_allclose(fan.x[0], starts)
        np.testing.assert_allclose(fan.z[0], f0(starts)[0])
        np.testing.assert_allclose(fan.p[0], f0(starts)[1])

    def test_drift_band_everywhere(self, fan_m1):
        fan = fan_m1["fan"]
        m = fan_m1["m"]
        drift = fan.p[fan.alive] - (m + 0.5)
        assert np.all(drift >= -(m + 0.5) - 1e-12)
        assert np.all(drift <= -0.5 + 1e-12)

    def test_termination_excludes_paths_near_floor(self):
        """Starts below (m + 1/2) * t_end cannot survive and must be marked."""
        f0 = monodisperse_transform(1.0, 1.0)
        starts = np.array([0.05, 0.2, 1.0, 2.0])
        fan = integrate_fan(f0, starts, t_end=0.3, dt=1e-3, m=1.0)
        assert fan.terminated[0]
        assert not fan.terminated[3]

    def test_invariant_report_all_pass(self, fan_m1):
        report = monotone_derivative_checks(fan_m1["fan"], t_star=fan_m1["t_star"])
        assert all(check.passed for check in report), "\n".join(map(str, report))

    def test_corrupted_slope_flagged(self, fan_m1):
        """Negative control: forcing P to dip must fail the monotone check."""
        fan = fan_m1["fan"]
        p_bad = fan.p.copy()
        p_bad[len(fan.times) // 2, 5] -= 0.05
        corrupted = CharacteristicFan(
            starts=fan.starts, times=fan.times, x=fan.x, p=p_bad, z=fan.z,
            alive=fan.alive, m=fan.m,
        )
        report = monotone_derivative_checks(corrupted)
        assert not all(check.passed for check in report)
        assert "p_nondecreasing" in [check.name for check in report if not check.passed]

    def test_single_path_fan_cross_checks_vacuous(self):
        f0 = monodisperse_transform(1.0, 1.0)
        fan = integrate_fan(f0, np.array([2.0]), t_end=0.1, dt=1e-2, m=1.0)
        report = monotone_derivative_checks(fan)
        assert all(check.passed for check in report)

    @pytest.mark.parametrize("corrupt", [False, True], ids=["as-integrated", "corrupted"])
    def test_per_path_checks_match_path_loops(self, corrupt):
        """On a fan whose low paths terminate at different times, the vectorized
        per-path checks give the margins and (t, path) locations of the loops
        over paths they replaced."""
        f0 = monodisperse_transform(1.0, 1.0)
        fan = integrate_fan(f0, np.geomspace(0.05, 6.0, 300), t_end=0.3, dt=1e-3, m=1.0, record_every=6)
        alive_steps = fan.alive.sum(axis=0)
        assert alive_steps.min() < fan.times.size // 2 and len(set(alive_steps[alive_steps < fan.times.size])) > 5
        if corrupt:
            # equal dips on two live paths, the lower one later (the lower path
            # wins the tie), a deeper one on a terminated state (ignored), and
            # a gap that shrinks
            p, x = fan.p.copy(), fan.x.copy()
            p[29:31, 200] = p[19:21, 250] = (0.5, 0.25)
            dead = np.argwhere(~fan.alive)[0]
            p[dead[0], dead[1]] -= 1.0
            x[25, 270] = x[25, 271] - 0.5 * (x[25, 271] - x[25, 270])
            fan = CharacteristicFan(
                starts=fan.starts, times=fan.times, x=x, p=p, z=fan.z, alive=fan.alive, m=fan.m
            )
        checks = {c.name: c for c in monotone_derivative_checks(fan, t_star=1.0)}
        for name, (margin, location) in path_loop_oracle(fan, t_star=1.0).items():
            assert checks[name].worst_margin == margin, name
            assert checks[name].location == location, name
        if corrupt:
            assert checks["p_nondecreasing"].worst_margin == -0.25
            assert checks["p_nondecreasing"].location == (fan.times[29], 200)
            assert checks["x_spread_factor_nondecreasing"].location == (fan.times[24], 270)

    def test_crossing_detection(self):
        """Hand-built crossing data trips the fan validator."""
        times = np.array([0.0, 0.1])
        fan = CharacteristicFan(
            starts=np.array([1.0, 1.1]),
            times=times,
            x=np.array([[1.0, 1.1], [1.05, 1.04]]),
            p=np.zeros((2, 2)),
            z=np.zeros((2, 2)),
            alive=np.ones((2, 2), dtype=bool),
            m=1.0,
        )
        from cflab.characteristics import _assert_no_crossing

        with pytest.raises(FanCrossingError):
            _assert_no_crossing(fan)


def path_loop_oracle(fan, t_star):
    """The per-path loops of the fan checks, as (margin, location) per check."""
    dp_worst, dp_loc, rhs_worst, rhs_loc, pm_worst, pm_loc = np.inf, (), np.inf, (), np.inf, ()
    for jp in range(fan.n_paths):
        ok = fan.alive[:, jp]
        if np.count_nonzero(ok) >= 2:
            dp = np.diff(fan.p[ok, jp])
            i = int(np.argmin(dp))
            if dp[i] < dp_worst:
                dp_worst, dp_loc = float(dp[i]), (float(fan.times[ok][i]), jp)
        if np.any(ok):
            xs, ps, zs = fan.x[ok, jp], fan.p[ok, jp], fan.z[ok, jp]
            rhs = (zs / xs - ps) / xs
            i = int(np.argmin(rhs))
            if rhs[i] < rhs_worst:
                rhs_worst, rhs_loc = float(rhs[i]), (float(fan.times[ok][i]), jp)
            pm = np.minimum(ps, fan.m - ps)
            i = int(np.argmin(pm))
            if pm[i] < pm_worst:
                pm_worst, pm_loc = float(pm[i]), (float(fan.times[ok][i]), jp)
    spread_worst, spread_loc = np.inf, ()
    factor = np.exp(fan.times / (t_star - fan.times[-1]))
    for jp in range(fan.n_paths - 1):
        ok = fan.alive[:, jp] & fan.alive[:, jp + 1]
        if np.count_nonzero(ok) < 2:
            continue
        spread = factor[ok] * (fan.x[ok, jp + 1] - fan.x[ok, jp])
        rel = np.diff(spread) / np.maximum(spread[:-1], np.finfo(float).tiny)
        i = int(np.argmin(rel))
        if rel[i] < spread_worst:
            spread_worst, spread_loc = float(rel[i]), (float(fan.times[ok][i]), jp)
    return {
        "p_nondecreasing": (dp_worst, dp_loc),
        "p_within_[0,m]": (pm_worst, pm_loc),
        "dp_nonnegative": (rhs_worst, rhs_loc),
        "x_spread_factor_nondecreasing": (spread_worst, spread_loc),
    }


class TestReconstruct:
    def test_initial_time_roundtrip(self, fan_m1):
        fan, f0 = fan_m1["fan"], fan_m1["f0"]
        xs = np.linspace(fan.starts[0], fan.starts[-1], 300)
        err = np.max(np.abs(reconstruct(fan, xs, 0.0) - f0(xs)[0]))
        assert err <= 1e-6

    def test_reconstruction_monotone_and_concave(self, fan_m1):
        fan = fan_m1["fan"]
        lo, hi = fan.coverage(0.3)
        xs = np.linspace(lo, hi, 200)
        F = reconstruct(fan, xs, 0.3)
        assert np.all(np.diff(F) >= -1e-12)
        assert np.all(np.diff(F, 2) <= 1e-10)

    def test_slope_readback_matches_value_derivative(self, fan_m1):
        fan = fan_m1["fan"]
        xs = np.linspace(1.0, 5.0, 50)
        h = 1e-4
        slopes = reconstruct_slope(fan, xs, 0.3)
        fd = (reconstruct(fan, xs + h, 0.3) - reconstruct(fan, xs - h, 0.3)) / (2 * h)
        np.testing.assert_allclose(slopes, fd, atol=5e-4)

    def test_out_of_coverage_raises(self, fan_m1):
        fan = fan_m1["fan"]
        with pytest.raises(FanCoverageError) as err:
            reconstruct(fan, 1e-4, 0.3)
        assert err.value.covered is not None

    def test_unrecorded_time_rejected(self, fan_m1):
        with pytest.raises(ValueError):
            reconstruct(fan_m1["fan"], 1.0, 0.12345678)

    def test_field_export_shape(self, fan_m1):
        fan = fan_m1["fan"]
        xs = np.linspace(1.0, 4.0, 11)
        field = fan_to_field(fan, xs, np.array([0.0, 0.15, 0.3]))
        assert field.F.shape == (3, 11)
        assert field.m2 is None


class TestOrdering:
    def test_identical_data(self):
        f0 = monodisperse_transform(1.0, 1.0)
        assert ordering_check(f0, f0, t=0.2, m=1.0, n_paths=300)

    def test_scaled_data_stays_ordered(self):
        f_high = monodisperse_transform(1.0, 1.0)
        f_low = scale_initial(f_high, 0.9)
        assert ordering_check(f_low, f_high, t=0.3, m=1.0, n_paths=400)

    def test_swapped_arguments_detected(self):
        f_high = monodisperse_transform(1.0, 1.0)
        f_low = scale_initial(f_high, 0.9)
        assert not ordering_check(f_high, f_low, t=0.3, m=1.0, n_paths=400)


class TestDefaultStarts:
    def test_survival_and_coverage_bounds(self):
        starts = default_starts(1.0, 0.3, 0.5, 5.0, 100)
        assert starts[0] > 1.5 * 0.3
        assert starts[-1] >= 5.0 + 1.5 * 0.3
        assert np.all(np.diff(starts) > 0)

    def test_too_few_paths(self):
        with pytest.raises(ValueError):
            default_starts(1.0, 0.3, 0.5, 5.0, 1)


def _readme_fan():
    """The fan `cflab characteristics` integrates for the README example config."""
    initial = make_initial("monodisperse", SizeGrid(ds=0.25, n=128), mass=1.0, size=1.0)
    starts = default_starts(1.0, 0.3, 0.5, 6.0, 2000)
    return integrate_fan(distribution_transform(initial), starts, 0.3, 1e-3, 1.0, record_every=6)


@pytest.fixture(scope="module")
def pchip_cases():
    rng = np.random.default_rng(20240801)
    fan = _readme_fan()
    live = fan.alive[-1]
    xs = np.cumsum(rng.uniform(0.01, 1.0, 60))
    return {
        "readme_fan_z": (fan.x[-1, live], fan.z[-1, live]),
        "readme_fan_p": (fan.x[-1, live], fan.p[-1, live]),
        "random_increasing": (xs, np.cumsum(rng.uniform(0.0, 2.0, 60))),
        # rounding makes flat segments; the normal draws change slope sign often
        "flat_and_sign_changes": (xs, np.round(rng.normal(0.0, 2.0, 60))),
        "two_points": (np.array([0.5, 2.0]), np.array([1.0, -3.0])),
        "three_points": (np.array([0.5, 0.7, 2.0]), np.array([1.0, 4.0, 3.5])),
    }


class TestPchip:
    """The numpy PCHIP against scipy's PchipInterpolator as the reference."""

    @pytest.mark.parametrize(
        "name",
        ["readme_fan_z", "readme_fan_p", "random_increasing", "flat_and_sign_changes",
         "two_points", "three_points"],
    )
    def test_matches_scipy_pchip(self, pchip_cases, name):
        from scipy.interpolate import PchipInterpolator

        xs, ys = pchip_cases[name]
        span = xs[-1] - xs[0]
        # the nodes, points between them, and extrapolation past both ends
        xq = np.concatenate([xs, np.linspace(xs[0] - 0.3 * span, xs[-1] + 0.3 * span, 997)])
        reference = PchipInterpolator(xs, ys)
        value, slope = _pchip(xs, ys, xq)
        ref_value, ref_slope = reference(xq), reference.derivative()(xq)
        np.testing.assert_allclose(value, ref_value, rtol=0, atol=1e-14 * np.abs(ref_value).max())
        np.testing.assert_allclose(slope, ref_slope, rtol=0, atol=1e-14 * np.abs(ref_slope).max())
