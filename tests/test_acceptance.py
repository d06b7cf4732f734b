"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them live).

Every tolerance is pinned here, not deferred: mass drift 1e-6, envelope slack
1e-3, weak-form shrink factor 3 with ceiling 1e-2, residual ceiling 1e-2,
strict gap monotonicity, fan tolerances 1e-10/1e-6, monotonicity tolerances
0/1e-4*m, derivative-bound slack 1e-2, moment-inequality slack 1e-9, the
3-standard-error budget, and the grid-identity tolerances of the coefficient
oracle cross-check.
"""
import numpy as np
import pytest

from cflab import (
    KernelSpec,
    ScenarioParams,
    SizeGrid,
    SolverConfig,
    cm_exact_report,
    cm_sampled_report,
    derivative_bounds_check,
    envelope_check,
    fan_to_field,
    field_from_trajectory,
    holder_bounds_check,
    hj_residual_worst,
    make_initial,
    monodisperse_transform,
    monotone_derivative_checks,
    reconstruct,
    simulate,
    simulate_replica,
    weak_form_residual,
)
from cflab.verification import frag_weak_coefficient, moment_ode_rhs_on_grid
from oracles import ordering_check, scale_initial


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def test_01_mass_conservation(run_m15_family):
    """Mass 1.5 at s=1, eps=0.01, 128 bins, dt=5e-4 to t=0.5: relative drift
    stays within 1e-6."""
    traj = run_m15_family["runs"][0.01]
    drift = traj.metadata["max_mass_drift"]
    report("01 mass-conservation", drift <= 1e-6, f"max relative drift {drift:.3e}")


def test_02_second_moment_envelope(run_m15_family):
    """m2(t) <= 1/(1/m2(0) - t) * (1 + 1e-3) for t <= 0.8 t_star, eps in
    {0.1, 0.01}."""
    scen = run_m15_family["scenario"]
    worst = np.inf
    for eps, traj in run_m15_family["runs"].items():
        check = envelope_check(traj.times, traj.moments.column(2), scen.m2_0)
        worst = min(worst, check.worst_margin)
        assert check.passed, f"eps={eps}: {check}"
    report("02 second-moment-envelope", worst >= -1e-3, f"worst relative margin {worst:.3e}")


def test_03_weak_form_fidelity():
    """Exponential test functions at x in {0.5, 1, 2}: residual shrinks >= 3x
    when dt and ds are both halved, and the fine level sits within 1e-2."""

    def level(ds, dt, n):
        grid = SizeGrid(ds=ds, n=n)
        initial = make_initial("monodisperse", grid, mass=1.0, size=1.0)
        scen = ScenarioParams.from_distribution(initial)
        config = SolverConfig(
            dt=dt, t_end=0.3, output_every=25,
            spec=KernelSpec.for_grid(grid, frag_eps=0.1), scenario=scen,
        )
        traj = simulate(config, initial)
        return max(
            weak_form_residual(traj, lambda s, xv=xv: -np.expm1(-xv * np.asarray(s, float)))[0]
            for xv in (0.5, 1.0, 2.0)
        )

    coarse = level(0.5, 2e-3, 64)
    fine = level(0.25, 1e-3, 128)
    ratio = coarse / fine
    report(
        "03 weak-form-fidelity",
        fine <= 1e-2 and ratio >= 3.0,
        f"residual {coarse:.3e} -> {fine:.3e}, shrink x{ratio:.2f}",
    )


def test_04_hj_residual_refinement():
    """Transform of the kinetic run satisfies the singular equation to 1e-2 at
    the finest level, with the residual shrinking under (dt, ds) refinement."""
    x_grid = np.concatenate([[0.0], np.geomspace(1e-3, 5.0, 40)])

    def level(ds, dt, n):
        grid = SizeGrid(ds=ds, n=n)
        initial = make_initial("monodisperse", grid, mass=1.0, size=1.0)
        scen = ScenarioParams.from_distribution(initial)
        config = SolverConfig(
            dt=dt, t_end=0.3, output_every=25,
            spec=KernelSpec.for_grid(grid, frag_eps=0.1), scenario=scen,
        )
        field = field_from_trajectory(simulate(config, initial), x_grid)
        return hj_residual_worst(field, scen, 0.1)[0]

    levels = [level(0.25, 2e-3, 128), level(0.125, 1e-3, 256), level(0.0625, 5e-4, 512)]
    shrinking = all(b < a for a, b in zip(levels, levels[1:]))
    report(
        "04 hj-residual",
        levels[-1] <= 1e-2 and shrinking,
        "residuals " + " -> ".join(f"{r:.3e}" for r in levels),
    )


def test_05_eps_to_zero_convergence(convergence_bundle):
    """Sup-norm gaps to the characteristics limit over x in [0.5, 5],
    t in [0, 0.3] strictly decrease along eps = 0.2, 0.1, 0.05."""
    gaps = [convergence_bundle["gaps"][eps] for eps in convergence_bundle["eps_values"]]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    report(
        "05 eps-convergence",
        decreasing,
        "gaps " + " -> ".join(f"{gv:.4e}" for gv in gaps),
    )


def test_06_characteristics_invariants(fan_m1):
    """2000-path fan: drift band exact, slope rate >= -1e-10, strict path
    ordering, and the t=0 reconstruction reproduces the initial data to 1e-6."""
    fan, f0, m = fan_m1["fan"], fan_m1["f0"], fan_m1["m"]
    assert fan.n_paths == 2000

    drift = fan.p[fan.alive] - (m + 0.5)
    band_violations = int(np.sum((drift < -(m + 0.5) - 1e-12) | (drift > -0.5 + 1e-12)))

    dp_min = np.inf
    for jp in range(fan.n_paths):
        ok = fan.alive[:, jp]
        xs, ps, zs = fan.x[ok, jp], fan.p[ok, jp], fan.z[ok, jp]
        dp_min = min(dp_min, float(np.min((zs / xs - ps) / xs)))

    ordering = all(
        np.all(np.diff(fan.x[i, fan.alive[i]]) > 1e-12) for i in range(fan.times.size)
    )

    xs = np.linspace(fan.starts[0], fan.starts[-1], 500)
    recon_err = float(np.max(np.abs(reconstruct(fan, xs, 0.0) - f0(xs)[0])))

    full_report = monotone_derivative_checks(fan, t_star=fan_m1["t_star"])
    report(
        "06 characteristics-invariants",
        band_violations == 0 and dp_min >= -1e-10 and ordering
        and recon_err <= 1e-6 and all(check.passed for check in full_report),
        f"band violations {band_violations}, min dP {dp_min:.2e}, "
        f"t=0 error {recon_err:.2e}",
    )


def test_07_complete_monotonicity(run_m15_family, run_m1_fine, ensemble_bundle, fan_m1):
    """Exact sums on every deterministic and stochastic snapshot stay sign-clean
    for k <= 6; finite differences on the reconstructed limit pass at 1e-4*m."""
    runs = [run_m1_fine["traj"], *run_m15_family["runs"].values()]
    replica = simulate_replica(
        ensemble_bundle["initial"],
        ensemble_bundle["spec"],
        ensemble_bundle["t_grid"],
        volume=2000.0,
        seed=5,
        record_snapshots=True,
    )
    tables = [(traj.grid, traj.counts) for traj in runs]
    tables.append((ensemble_bundle["initial"].grid, replica.counts))
    reports = [cm_exact_report(grid, counts, k_max=6) for grid, counts in tables]
    exact_failures = sum(not rep.passed for rep in reports)
    worst = min(rep.worst_margin for rep in reports)
    n_snapshots = sum(counts.shape[0] for _, counts in tables)

    fan = fan_m1["fan"]
    xu = np.arange(0.75, 7.751, 0.25)
    sampled = cm_sampled_report(xu, reconstruct(fan, xu, 0.3), m=fan_m1["m"], k_max=4)
    report(
        "07 complete-monotonicity",
        exact_failures == 0 and worst >= 0.0 and sampled.passed,
        f"{n_snapshots} snapshots, exact worst {worst:.2e}; "
        f"sampled worst {sampled.worst_margin:.2e} at (x, k) = {sampled.location}",
    )


def test_08_derivative_bounds(run_m15_family, fan_m1):
    """0 <= Fx <= m and -1/(t_star - T) <= Fxx <= 0 at T = t_star/2 on the
    kinetic fields and on the reconstructed limit field, slack 1e-2."""
    scen = run_m15_family["scenario"]
    margins = []
    for traj in run_m15_family["runs"].values():
        check = derivative_bounds_check(field_from_trajectory(traj), scen, 0.5 * scen.t_star)
        margins.append(check.worst_margin)
        assert check.passed, str(check)
    fan = fan_m1["fan"]
    limit_field = fan_to_field(fan, np.linspace(0.6, 7.0, 60), fan.times[::30])
    scen_unit = ScenarioParams(m=fan_m1["m"], m2_0=1.0 / fan_m1["t_star"])
    check = derivative_bounds_check(limit_field, scen_unit, 0.5 * fan_m1["t_star"])
    margins.append(check.worst_margin)
    report(
        "08 derivative-bounds",
        check.passed and min(margins) >= -1e-2,
        f"worst relative margin {min(margins):.3e}",
    )


def test_09_holder_inequalities(run_m15_family, run_m1_fine, ensemble_bundle):
    """m4 m1^2 >= m2^3 and m5 m1 >= m3^2 at every output time of every run."""
    worst = np.inf
    trajectories = list(run_m15_family["runs"].values()) + [
        run_m1_fine["traj"], ensemble_bundle["traj"],
    ]
    for traj in trajectories:
        check = holder_bounds_check(traj.moments.moments, traj.times)
        worst = min(worst, check.worst_margin)
        assert check.passed, str(check)
    report("09 holder-inequalities", worst >= -1e-9, f"worst relative margin {worst:.3e}")


def test_10_stochastic_cross_validation(ensemble_bundle):
    """200 replicas of ~1e4 particles at eps=0.1: the ensemble mean m2(0.3)
    agrees with the deterministic twin within 3 standard errors."""
    ens = ensemble_bundle["ensemble"]
    traj = ensemble_bundle["traj"]
    i = int(np.argmin(np.abs(traj.times - 0.3)))
    det = traj.moments.column(2)[i]
    diff = abs(float(ens.mean[-1, 2]) - det)
    budget = 3.0 * float(ens.stderr[-1, 2])
    report(
        "10 stochastic-cross-validation",
        diff <= budget,
        f"|mean - deterministic| {diff:.3e} vs 3*stderr {budget:.3e}",
    )


def test_11_comparison_ordering():
    """Initial data scaled by 0.9 stays below the unscaled solution at t=0.3."""
    f_high = monodisperse_transform(1.0, 1.0)
    f_low = scale_initial(f_high, 0.9)
    ordered = ordering_check(f_low, f_high, t=0.3, m=1.0)
    report("11 comparison-ordering", ordered, "0.9-scaled data stays below")


def test_12_cubic_moment_coefficient_oracle(run_m1_fine):
    """The split-point oracle pins the cubic-moment breakup coefficient at 1/4;
    the moment equation then matches the measured rate within the time-stencil
    and grid-defect budget, while the often-quoted 1/12 is cleanly rejected."""
    coeff = frag_weak_coefficient(3)
    assert coeff == pytest.approx(0.25, abs=1e-12)

    traj = run_m1_fine["traj"]
    ds = run_m1_fine["grid"].ds
    eps = 0.1
    times = traj.times
    mom = traj.moments.moments
    dt_out = times[1] - times[0]
    measured = (mom[2:, 3] - mom[:-2, 3]) / (2.0 * dt_out)
    mid = mom[1:-1]

    on_grid = np.array([moment_ode_rhs_on_grid(v, eps, 3, ds) for v in mid])
    continuum = np.array([moment_ode_rhs_on_grid(v, eps, 3, 0.0) for v in mid])
    quoted_twelfth = 3.0 * mid[:, 2] * mid[:, 3] - (mid[:, 4] + eps * mid[:, 5]) / 12.0

    # time-stencil budget: centered difference across dt_out; grid budget: the
    # exact ds^2 split-sum defect separating the grid and continuum forms
    stencil_tol = 1e-2
    defect = ds ** 2 * (mid[:, 2] + eps * mid[:, 3]) / 4.0
    grid_gap = float(np.max(np.abs(measured - on_grid)))
    continuum_gap = float(np.max(np.abs(measured - continuum)))
    continuum_tol = 1.5 * float(defect.max()) + stencil_tol
    rejected_gap = float(np.min(np.abs(measured - quoted_twelfth)))

    report(
        "12 cubic-moment-coefficient",
        grid_gap <= stencil_tol
        and continuum_gap <= continuum_tol
        and rejected_gap > 3.0 * continuum_tol,
        f"grid form gap {grid_gap:.3e} (tol {stencil_tol:.0e}); continuum gap "
        f"{continuum_gap:.3e} (tol {continuum_tol:.2e}); 1/12 form off by {rejected_gap:.3e}",
    )
