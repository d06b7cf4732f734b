"""Characteristics: the Hamiltonian right-hand side, fan integration with its
runtime invariants, reconstruction, and solution ordering."""
import tracemalloc

import numpy as np
import pytest

from cflab import (
    SizeGrid,
    characteristics,
    default_starts,
    distribution_transform,
    integrate_fan,
    make_initial,
    reconstruct,
)
from cflab.characteristics import (
    CharacteristicFan,
    _check_no_crossing,
    _pchip,
    char_rhs,
    fan_to_field,
    monotone_derivative_checks,
)
from cflab.errors import FanCoverageError, FanCrossingError, SolverAbort
from oracles import (
    covered, exponential_transform, integrate_fan_loop, ordering_check, point_mass_transform, scale_initial,
)


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
        with pytest.raises(SolverAbort, match="singular boundary"):
            char_rhs((0.0, 0.5, 0.1), m=1.0)

    def test_vectorized(self):
        x = np.array([1.0, 2.0])
        p = np.array([1.0, 0.0])
        z = np.array([1.0, 0.0])
        dx, dp, dz = char_rhs((x, p, z), m=1.0)
        np.testing.assert_allclose(dx, [-0.5, -1.5])


class TestInitialData:
    @pytest.mark.parametrize("ds", [0.25, 0.5, 1.0])
    def test_monodisperse_handle(self, ds):
        """The transform of a unit point mass at size 1 is (1 - exp(-x), exp(-x))
        bit for bit, on every grid that holds the point."""
        x = np.linspace(0.05, 12.0, 300)
        initial = make_initial("monodisperse", SizeGrid(ds=ds, n=128), mass=1.0, size=1.0)
        value, slope = distribution_transform(initial)(np.concatenate([[0.0], x]))
        assert (value[0], slope[0]) == (0.0, 1.0)
        assert np.array_equal(value[1:], -np.expm1(-x)) and np.array_equal(slope[1:], np.exp(-x))

    def test_slope_tends_to_mass_at_origin(self):
        """P(0) at x -> 0+ approaches m; the first drift is m - m - 1/2."""
        (value,), (slope,) = point_mass_transform()(1e-9)
        assert slope == pytest.approx(1.0, abs=1e-8)
        dx, _, _ = char_rhs((1e-9, float(slope), float(value)), m=1.0)
        assert dx == pytest.approx(-0.5, abs=1e-8)

    def test_exponential_handle_consistent_with_discretization(self):
        g = SizeGrid(ds=0.005, n=8000)
        d = make_initial("exponential", g, mass=1.0, lam=1.0)
        f_closed = exponential_transform(1.0, 1.0)
        f_disc = distribution_transform(d)
        x = np.array([0.3, 1.0, 3.0])
        np.testing.assert_allclose(f_closed(x)[0], f_disc(x)[0], rtol=5e-3)
        np.testing.assert_allclose(f_closed(x)[1], f_disc(x)[1], rtol=5e-3)

    def test_transform_memory_is_bounded_at_4096(self):
        """The initial data of a 2000-path fan on 4096 bins: the transform sums
        stay within blocks of BLOCK_ENTRIES, far below the three 2000-by-4096
        matrices (196 MB) of one block of every start."""
        g = SizeGrid(ds=1.0 / 128, n=4096)
        f0 = distribution_transform(make_initial("exponential", g, mass=1.0, lam=1.0))
        starts = default_starts(1.0, 0.2, 0.5, 6.0, 2000)
        tracemalloc.start()
        try:
            F, P = f0(starts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert F.shape == P.shape == (2000,)
        assert peak < 4 * 2**20

    def test_invalid_slope_rejected(self):
        bad = lambda x: (np.asarray(x, float) * 2.0, np.full_like(np.asarray(x, float), 2.0))
        with pytest.raises(ValueError):
            integrate_fan(bad, np.array([1.0, 2.0]), t_end=0.1, dt=1e-2, m=1.0)

    def test_non_finite_slope_or_start_rejected(self):
        """Every comparison with nan is false, so the [0, m] slope test and the
        start test are written to fail on it: one nan among 10 slopes on [1, 3]
        would otherwise integrate to an all-nan fan with no error."""
        f0 = point_mass_transform()
        starts = np.linspace(1.0, 3.0, 10)

        def one_nan_slope(x):
            z, p = f0(x)
            p = np.array(p, dtype=float)
            p[4] = np.nan
            return z, p

        with pytest.raises(ValueError, match="initial slope"):
            integrate_fan(one_nan_slope, starts, t_end=0.1, dt=1e-3, m=1.0)
        for bad in (np.nan, np.inf):
            broken = starts.copy()
            broken[4 if np.isnan(bad) else -1] = bad
            with pytest.raises(ValueError, match="starts must be finite"):
                integrate_fan(f0, broken, t_end=0.1, dt=1e-3, m=1.0)

    def test_non_finite_initial_value_rejected(self):
        """One nan F0 among 10 paths on [1, 3], with valid slopes, is bad initial
        data: rejected as such, not later as a fan crossing with a nan gap."""
        f0 = point_mass_transform()

        def one_nan_value(x):
            z, p = f0(x)
            z = np.array(z, dtype=float)
            z[4] = np.nan
            return z, p

        with pytest.raises(ValueError, match="initial value F0 not finite"):
            integrate_fan(one_nan_value, np.linspace(1.0, 3.0, 10), t_end=0.1, dt=1e-3, m=1.0)


class TestIntegrateFan:
    def test_stride_must_divide_the_step_count(self):
        """300 steps recorded every 7 would end on a 6-step stride, and the field
        of that fan could not be differenced in time; the fan rejects it as
        SolverConfig rejects the same output stride."""
        f0 = point_mass_transform()
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
        f0 = point_mass_transform()
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
        f0 = point_mass_transform()
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
        f0 = point_mass_transform()
        fan = integrate_fan(f0, np.array([2.0]), t_end=0.1, dt=1e-2, m=1.0)
        report = monotone_derivative_checks(fan)
        assert all(check.passed for check in report)

    @pytest.mark.parametrize("corrupt", [False, True], ids=["as-integrated", "corrupted"])
    def test_per_path_checks_match_path_loops(self, corrupt):
        """On a fan whose low paths terminate at different times, the fan checks
        give the margins and locations of loops over times, then paths, at
        (t, path), and over times, then gaps among the surviving paths, at
        (t, gap)."""
        f0 = point_mass_transform()
        fan = integrate_fan(f0, np.geomspace(0.05, 6.0, 300), t_end=0.3, dt=1e-3, m=1.0, record_every=6)
        alive_steps = fan.alive.sum(axis=0)
        assert alive_steps.min() < fan.times.size // 2 and len(set(alive_steps[alive_steps < fan.times.size])) > 5
        if corrupt:
            # equal dips on two live paths, the lower one later (the earlier
            # time wins the tie), a deeper one on a terminated state (ignored),
            # and a gap that shrinks
            p, x, z = fan.p.copy(), fan.x.copy(), fan.z.copy()
            p[29:31, 200] = p[19:21, 250] = (0.5, 0.25)
            dead = np.argwhere(~fan.alive)[0]
            p[dead[0], dead[1]] -= 1.0
            x[25, 270] = x[25, 271] - 0.5 * (x[25, 271] - x[25, 270])
            # flat Z, a slope quotient of exactly 0, at paths 250 and 260 at
            # t[40] (the lower gap wins) and at path 230 at t[45] (a lower
            # gap, but later, so it loses)
            z[40, 251], z[40, 261], z[45, 231] = z[40, 250], z[40, 260], z[45, 230]
            fan = CharacteristicFan(
                starts=fan.starts, times=fan.times, x=x, p=p, z=z, alive=fan.alive, m=fan.m
            )
        checks = {c.name: c for c in monotone_derivative_checks(fan, t_star=1.0)}
        oracle = path_loop_oracle(fan, t_star=1.0)
        assert set(oracle) == set(checks) and all(location for _, location in oracle.values())
        for name, (margin, location) in oracle.items():
            assert checks[name].worst_margin == margin, name
            assert checks[name].location == location, name
        if corrupt:
            assert checks["p_nondecreasing"].worst_margin == -0.25
            assert checks["p_nondecreasing"].location == (fan.times[19], 250)
            assert checks["x_spread_factor_nondecreasing"].location == (fan.times[24], 270)
            gap = 250 - np.count_nonzero(~fan.alive[40])
            assert 0 < gap < 250
            assert checks["slope_quotients_in_[0,m]"].worst_margin == 0.0
            assert checks["slope_quotients_in_[0,m]"].location == (fan.times[40], gap)

    def test_memory_of_the_readme_fan_checks_is_bounded(self, readme_experiment):
        """The fan checks read one recorded time at a time, so their peak on
        the README fan stays below 1 MiB; one (times x paths) array of its
        51 x 2000 doubles takes 0.8 MiB."""
        exp = readme_experiment
        fan = integrate_fan(distribution_transform(exp.initial), m=exp.scenario.m, **exp.char_fan)
        assert fan.x.shape == (51, 2000)
        tracemalloc.start()
        try:
            report = monotone_derivative_checks(fan, exp.scenario.t_star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report) == 7 and all(check.passed for check in report)
        assert peak < 2**20

    def test_nan_fails_the_rows_that_read_it(self, fan_m1):
        """A nan in Z on one live path at the last time is each reading row's
        worst case, at that time, whatever finite margins came before."""
        fan = fan_m1["fan"]
        z = fan.z.copy()
        z[-1, 1000] = np.nan
        corrupted = CharacteristicFan(
            starts=fan.starts, times=fan.times, x=fan.x, p=fan.p, z=z, alive=fan.alive, m=fan.m
        )
        failed = {c.name: c.location for c in monotone_derivative_checks(corrupted, 1.0) if not c.passed}
        t = fan.times[-1]
        assert failed == {
            "dp_nonnegative": (t, 1000),
            "slope_quotients_in_[0,m]": (t, 999),
            "curvature_within_envelope": (t, 998),
        }

    @pytest.mark.parametrize("past", [0.0, 0.1])
    def test_horizon_at_or_before_the_fan_end_rejected(self, fan_m1, past):
        """The curvature floor and spread factor need t_star - t_end > 0."""
        fan = fan_m1["fan"]
        with pytest.raises(ValueError, match="t_star"):
            monotone_derivative_checks(fan, t_star=fan.times[-1] - past)

    def test_crossing_detection(self):
        """Hand-built crossing data trips the per-state fan validator."""
        times = np.array([0.0, 0.1])
        x = np.array([[1.0, 1.1], [1.05, 1.04]])
        alive = np.ones((2, 2), dtype=bool)
        with pytest.raises(FanCrossingError):
            for state, live, t in zip(x, alive, times):
                _check_no_crossing(state, live, t)

    def test_nan_gap_is_a_crossing(self):
        """A nan position makes a nan gap, which the separation test fails."""
        x = np.linspace(1.0, 3.0, 10)
        x[4] = np.nan
        with pytest.raises(FanCrossingError, match="gap nan"):
            _check_no_crossing(x, np.ones(10, dtype=bool), 0.05)

    def test_crossing_between_recorded_times_is_caught(self, monkeypatch):
        """Two paths that swap and swap back within one recording stride: both
        recorded states are ordered, so a check of the recorded fan passes, but
        the check of every step's state raises at a time between them."""
        period = 0.2

        def swinging_rhs(state, m):
            # the clock z advances at unit speed; the paths oscillate in
            # opposite directions, crossing for part of each period
            x, p, z = state
            dx = np.array([3.0, -3.0]) * np.cos(2.0 * np.pi * z / period)
            return dx, np.zeros_like(p), np.ones_like(z)

        monkeypatch.setattr(characteristics, "char_rhs", swinging_rhs)
        f0 = lambda x: (np.zeros_like(x), np.zeros_like(x))
        starts = np.array([1.0, 1.1])
        with pytest.raises(FanCrossingError, match=r"paths crossed at t=0\.0[1-9]"):
            integrate_fan(f0, starts, t_end=period, dt=1e-3, m=1.0, record_every=200)
        # with the check stubbed out the run completes: every state, t = 0 and
        # 200 steps, went to the check, and the two recorded states are
        # ordered, so a check of the recorded fan alone finds no crossing
        recorded = []
        monkeypatch.setattr(characteristics, "_check_no_crossing", lambda x, alive, t: recorded.append(t))
        fan = integrate_fan(f0, starts, t_end=period, dt=1e-3, m=1.0, record_every=200)
        assert len(recorded) == 201
        assert fan.times.tolist() == [0.0, period]
        assert np.all(np.diff(fan.x, axis=1) > 0.09)
        assert [c.passed for c in monotone_derivative_checks(fan) if c.name == "non_crossing"] == [True]

    @pytest.mark.parametrize("case", ["readme", "terminating"])
    def test_matches_the_rk4_loop_bit_for_bit(self, case):
        """The README fan, where every path lives to t_end, and a fan whose low
        paths terminate at the X floor one after another, record the same states
        as an RK4 loop over the live paths with its own recording."""
        if case == "readme":
            initial = make_initial("monodisperse", SizeGrid(ds=0.25, n=128), mass=1.0, size=1.0)
            args = (distribution_transform(initial), default_starts(1.0, 0.3, 0.5, 6.0, 2000), 0.3, 1e-3, 1.0)
        else:
            args = (point_mass_transform(), np.geomspace(0.05, 6.0, 300), 0.3, 1e-3, 1.0)
        fan = integrate_fan(*args, record_every=6)
        times, x, p, z, alive = integrate_fan_loop(*args, record_every=6)
        assert fan.times.size == 51
        assert fan.terminated.any() == (case == "terminating")
        for got, want in zip((fan.times, fan.x, fan.p, fan.z, fan.alive), (times, x, p, z, alive)):
            np.testing.assert_array_equal(got, want)

    def test_convergence_fan_at_snapshot_stride_matches_every_step(self, readme_experiment):
        """The README convergence fan recorded once per snapshot, as
        ``cflab convergence`` records it, gives the limit field of the same fan
        recorded at every step, bit for bit."""
        exp, fan = readme_experiment, readme_experiment.conv_fan
        times = exp.conv_runs[0].snapshot_times
        per_snapshot = fan["record_every"]
        args = (distribution_transform(exp.initial), fan["starts"], fan["t_end"], fan["dt"], exp.scenario.m)
        strided = integrate_fan(*args, record_every=per_snapshot)
        every = integrate_fan(*args)
        assert (per_snapshot, times.size, strided.times.size, every.times.size) == (25, 13, 13, 301)
        limit, reference = fan_to_field(strided, exp.conv_x, times), fan_to_field(every, exp.conv_x, times)
        for name in ("F", "Fx", "Fxx"):
            np.testing.assert_array_equal(getattr(limit, name), getattr(reference, name))


def path_loop_oracle(fan, t_star):
    """The loops of the fan checks, as (margin, location) per check: over
    times, then paths, for the per-path checks; over times, then adjacent
    gaps among the surviving paths, for the cross-path ones."""
    worst = {}

    def offer(name, value, where):
        if value < worst.get(name, (np.inf,))[0]:
            worst[name] = (float(value), where)

    m, x, p, z, alive = fan.m, fan.x, fan.p, fan.z, fan.alive
    factor = np.exp(fan.times / (t_star - fan.times[-1]))
    floor = -1.0 / (t_star - fan.times[-1])
    for i, t in enumerate(map(float, fan.times)):
        for jp in np.flatnonzero(alive[i]):
            offer("p_within_[0,m]", min(p[i, jp], m - p[i, jp]), (t, jp))
            offer("dp_nonnegative", (z[i, jp] / x[i, jp] - p[i, jp]) / x[i, jp], (t, jp))
        if i + 1 < fan.times.size:
            for jp in np.flatnonzero(alive[i] & alive[i + 1]):
                offer("p_nondecreasing", p[i + 1, jp] - p[i, jp], (t, jp))
                if jp + 1 < fan.n_paths and alive[i : i + 2, jp + 1].all():
                    now = factor[i] * (x[i, jp + 1] - x[i, jp])
                    later = factor[i + 1] * (x[i + 1, jp + 1] - x[i + 1, jp])
                    offer("x_spread_factor_nondecreasing", (later - now) / max(now, np.finfo(float).tiny), (t, jp))
        xs, zs = x[i, alive[i]], z[i, alive[i]]
        quot = [(zs[g + 1] - zs[g]) / (xs[g + 1] - xs[g]) for g in range(xs.size - 1)]
        for g, q in enumerate(quot):
            offer("non_crossing", xs[g + 1] - xs[g] - characteristics.CROSSING_SEPARATION, (t, g))
            offer("slope_quotients_in_[0,m]", min(q, m - q), (t, g))
        for g in range(len(quot) - 1):
            second = 2.0 * (quot[g + 1] - quot[g]) / (xs[g + 2] - xs[g])
            offer("curvature_within_envelope", min(second - floor, -second), (t, g))
    return worst


class TestReconstruct:
    def test_initial_time_roundtrip(self, fan_m1):
        fan, f0 = fan_m1["fan"], fan_m1["f0"]
        xs = np.linspace(fan.starts[0], fan.starts[-1], 300)
        err = np.max(np.abs(reconstruct(fan, xs, 0.0) - f0(xs)[0]))
        assert err <= 1e-6

    def test_reconstruction_monotone_and_concave(self, fan_m1):
        fan = fan_m1["fan"]
        lo, hi = covered(fan, 0.3)
        xs = np.linspace(lo, hi, 200)
        F = reconstruct(fan, xs, 0.3)
        assert np.all(np.diff(F) >= -1e-12)
        assert np.all(np.diff(F, 2) <= 1e-10)

    def test_slope_readback_matches_value_derivative(self, fan_m1):
        fan = fan_m1["fan"]
        xs = np.linspace(1.0, 5.0, 50)
        h = 1e-4
        slopes = fan_to_field(fan, xs, [0.3]).Fx[0]
        fd = (reconstruct(fan, xs + h, 0.3) - reconstruct(fan, xs - h, 0.3)) / (2 * h)
        np.testing.assert_allclose(slopes, fd, atol=5e-4)

    def test_out_of_coverage_raises(self, fan_m1):
        fan = fan_m1["fan"]
        with pytest.raises(FanCoverageError, match=r"query range \[0.0001, 0.0001\] outside fan coverage \["):
            reconstruct(fan, 1e-4, 0.3)

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
        f0 = point_mass_transform()
        assert ordering_check(f0, f0, t=0.2, m=1.0, n_paths=300)

    def test_scaled_data_stays_ordered(self):
        f_high = point_mass_transform()
        f_low = scale_initial(f_high, 0.9)
        assert ordering_check(f_low, f_high, t=0.3, m=1.0, n_paths=400)

    def test_swapped_arguments_detected(self):
        f_high = point_mass_transform()
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

    def test_a_vanishing_secant_gives_a_flat_node(self):
        """3 / 1e-308 overflows in the harmonic mean of the node slopes; its
        limit, 0, is the slope at the node after the vanishing secant."""
        xs, ys = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1e-308, 1.0])
        value, slope = _pchip(xs, ys, xs)
        assert np.array_equal(value, ys) and slope[1] == 0.0 and np.isfinite(slope).all()

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
