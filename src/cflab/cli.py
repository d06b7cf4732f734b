"""Configuration-driven command line front end.

Subcommands: simulate, verify, convergence, characteristics, stochastic.
Experiments are described by a flat INI file whose sections mirror the type
names, so a committed config plus a seed reproduces a run byte for byte.
``load_config`` builds the run once; the subcommands only read it.  The exit
codes are those of ``errors``, and the README lists them.
"""
from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import csvio
from .bernstein import cm_exact_report, field_from_trajectory, hj_residual_grid
from .characteristics import (
    default_starts,
    distribution_transform,
    fan_to_field,
    integrate_fan,
    monotone_derivative_checks,
)
from .core import Distribution, KernelSpec, ScenarioParams, SizeGrid, make_initial, schedule, step_count
from .errors import (
    EXIT_BOUND_VIOLATION,
    EXIT_OK,
    CfLabError,
    ConfigError,
    CsvFormatError,
    FanCoverageError,
    MissingArtifactError,
    SolverAbort,
)
from .kinetic import MASS_DRIFT_TOL, TOP_BIN_OCCUPANCY_TOL, SolverConfig, Trajectory, simulate, stability_limit
from .stochastic import ensemble_moments, time_grid
from .verification import (
    cm_sampled_check,
    derivative_bounds_check,
    envelope_check,
    envelope_window,
    g_eps_bound_check,
    hj_residual_check,
    holder_bounds_check,
    mass_conservation_check,
    truncation_occupancy_check,
    weak_form_check,
)

EXIT_SOLVER_ABORT = SolverAbort.exit_code
EXIT_COVERAGE = FanCoverageError.exit_code
EXIT_USAGE = ConfigError.exit_code
EXIT_DATA = CsvFormatError.exit_code
EXIT_NOINPUT = MissingArtifactError.exit_code

_REQUIRED = object()


@dataclass
class Experiment:
    """Every run that one config file describes, planned: its initial data,
    scenario and solver config, the per-eps runs of ``convergence``, the x
    grids of its checks, the ``integrate_fan`` arguments of both fans, and the
    settings that the subcommands read as given."""

    initial: Distribution
    scenario: ScenarioParams
    solver: SolverConfig
    conv_runs: tuple  # ``solver`` ending at [convergence] t_hi, one per eps_list entry
    verify_x: np.ndarray  # 0, then geometric on [field] x_lo .. [verify] x_hi
    conv_x: np.ndarray
    char_x: np.ndarray
    conv_fan: dict  # integrate_fan's starts, t_end, dt and record_every
    char_fan: dict
    out_dir: str
    hj_residual_max: float
    weak_residual_max: float
    weak_x: tuple
    sto_replicas: int
    sto_volume: float | None
    sto_t_grid: np.ndarray
    seed: int


def _floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def load_config(path) -> Experiment:
    """The run that the INI file at ``path`` describes, built; a missing or bad
    value, or a key that nothing reads, raises ConfigError before any run."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(path.read_text())
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    read = set()

    def get(section, key, cast, default=_REQUIRED):
        read.add((section, key))
        if not cp.has_option(section, key):
            if default is _REQUIRED:
                raise ConfigError(f"config is missing [{section}] {key}")
            return default
        raw = cp.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc

    def named(what, build):
        try:
            return build()
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from exc

    def ceiling(key):
        value = get("verify", key, float, 1e-2)
        if not 0 < value < np.inf:
            raise ValueError(f"[verify] {key} = {value:g} must be positive and finite")
        return value

    def x_range(lo_section, lo_default, hi_section, hi_default):
        lo, hi = get(lo_section, "x_lo", float, lo_default), get(hi_section, "x_hi", float, hi_default)
        if not lo < hi:
            raise ValueError(f"[{lo_section}] x_lo = {lo:g} is not below [{hi_section}] x_hi = {hi:g}")
        return lo, hi

    try:
        grid = SizeGrid(ds=get("grid", "ds", float), n=get("grid", "n", int))
        initial = make_initial(
            get("initial", "kind", str, "monodisperse"),
            grid,
            mass=get("scenario", "mass", float),
            size=get("initial", "size", float, 1.0),
            lam=get("initial", "lam", float, 1.0),
        )
        scenario = ScenarioParams.from_distribution(initial)
        dt = get("solver", "dt", float)
        t_end = get("solver", "t_end", float)
        solver_steps = named("[solver]", lambda: step_count(t_end, dt))
        solver = SolverConfig(
            dt=dt,
            t_end=t_end,
            output_every=get("solver", "output_every", int, _default_stride(solver_steps, 10)),
            spec=KernelSpec.for_grid(grid, frag_eps=get("kernel", "frag_eps", float, 0.0)),
            scenario=scenario,
        )
        conv_t_hi = get("convergence", "t_hi", float, t_end)
        conv_solver = named(f"[convergence] t_hi = {conv_t_hi:g}", lambda: replace(solver, t_end=conv_t_hi))
        conv_eps = get("convergence", "eps_list", _floats, ())
        conv_runs = named(
            "[convergence] eps_list",
            lambda: tuple(replace(conv_solver, spec=replace(solver.spec, frag_eps=e)) for e in conv_eps),
        )
        verify_nx = get("verify", "nx", int, 40)
        if verify_nx < 5:
            # characteristics differences the field on this many x up to 4th order
            raise ValueError(f"[verify] nx = {verify_nx} must be at least 5")
        conv_nx = get("convergence", "nx", int, 46)
        if conv_nx < 2:
            raise ValueError(f"[convergence] nx = {conv_nx} must be at least 2")
        conv_x = np.linspace(*x_range("convergence", 0.5, "convergence", 5.0), conv_nx)
        char_x = np.linspace(*x_range("characteristics", 0.5, "characteristics", 6.0), verify_nx)
        char_dt = get("characteristics", "dt", float, 1e-3)
        char_t_end = get("characteristics", "t_end", float, t_end)
        fan_steps = named("[characteristics]", lambda: step_count(char_t_end, char_dt))
        char_record_every = get("characteristics", "record_every", int, None)
        char_fan_dt = char_dt
        if char_record_every is None:
            char_record_every = _default_stride(fan_steps, 50)
            if fan_steps > 100 * char_record_every:  # over 101 times: round the steps up to whole strides
                char_record_every = fan_steps // 50
                char_fan_dt = char_t_end / (-(-fan_steps // char_record_every) * char_record_every)
        schedule(char_t_end, char_fan_dt, char_record_every, "[characteristics] record_every")
        # convergence's fan steps at about char_dt, a whole number of steps per
        # snapshot, and records only the snapshot times that its gaps read
        snap_times = conv_solver.snapshot_times
        snap_dt = float(snap_times[1] - snap_times[0]) if snap_times.size > 1 else char_dt
        if snap_times.size > 1 and not char_dt > 0:
            stride = f"snapshot stride of [solver] output_every = {conv_solver.output_every} steps"
            raise ValueError(f"[characteristics]: dt = {char_dt:g} must be positive to step through each {stride}")
        per_snapshot = max(1, step_count(snap_dt, char_dt))
        n_paths = get("characteristics", "n_paths", int, 2000)
        fans = ((conv_t_hi, conv_x), (char_t_end, char_x))
        conv_starts, char_starts = named(
            f"[characteristics] n_paths = {n_paths}",
            lambda: [default_starts(scenario.m, t, x[0], x[-1], n_paths) for t, x in fans],
        )
        sto_replicas = get("stochastic", "replicas", int, 100)
        if sto_replicas < 2:
            raise ValueError(f"[stochastic] replicas = {sto_replicas} must be at least 2 for a standard error")
        sto_volume = get("stochastic", "volume", float, None)
        if sto_volume is not None and not sto_volume > 0:
            raise ValueError(f"[stochastic] volume = {sto_volume:g} must be positive")
        t_grid = get("stochastic", "t_grid", _floats, (0.0, t_end))
        sto_t_grid = named("[stochastic]", lambda: time_grid(t_grid))
        weak_x = get("verify", "weak_x", _floats, (0.5, 1.0, 2.0))
        if not weak_x or not all(0 < x < np.inf for x in weak_x):
            raise ValueError("[verify] weak_x must list at least one x, each positive and finite")
        seed = get("stochastic", "seed", int, 20240801)
        if seed < 0:  # numpy's generators take only nonnegative seeds
            raise ValueError(f"[stochastic] seed = {seed} must be nonnegative")
        exp = Experiment(
            initial=initial,
            scenario=scenario,
            solver=solver,
            conv_runs=conv_runs,
            verify_x=np.concatenate([[0.0], np.geomspace(*x_range("field", 1e-3, "verify", 5.0), verify_nx)]),
            conv_x=conv_x,
            char_x=char_x,
            conv_fan=dict(starts=conv_starts, t_end=conv_t_hi, dt=snap_dt / per_snapshot, record_every=per_snapshot),
            char_fan=dict(starts=char_starts, t_end=char_t_end, dt=char_fan_dt, record_every=char_record_every),
            out_dir=get("outputs", "dir", str, "out"),
            hj_residual_max=ceiling("hj_residual_max"),
            weak_residual_max=ceiling("weak_residual_max"),
            weak_x=weak_x,
            sto_replicas=sto_replicas,
            sto_volume=sto_volume,
            sto_t_grid=sto_t_grid,
            seed=seed,
        )
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value in {path}: {exc}") from exc
    unread = [
        f"[{section}] {key}"
        for section in cp.sections()
        for key in cp.options(section)
        if (section, key) not in read and key not in cp.defaults()
    ]
    unread += [f"[DEFAULT] {key}" for key in cp.defaults() if all(key != k for _, k in read)]
    if unread:
        raise ConfigError(f"{path} sets keys that cflab does not read: {', '.join(unread)}")
    return exp


def _default_stride(n_steps: int, snapshots: int) -> int:
    """Largest divisor of ``n_steps`` up to ``n_steps // snapshots``: about that
    many uniformly spaced snapshots."""
    stride = max(1, n_steps // snapshots)
    while n_steps % stride:
        stride -= 1
    return stride


def _say(quiet, *parts):
    if not quiet:
        print(*parts)


def cmd_simulate(exp: Experiment, out: Path, quiet: bool) -> int:
    config = exp.solver
    guard = stability_limit(exp.initial.grid, config.spec, exp.scenario.m)
    if config.dt > guard:
        print(f"warning: dt={config.dt:g} exceeds the stability guard {guard:.3g}", file=sys.stderr)
    traj = simulate(config, exp.initial)
    csvio.write_trajectory_csv(out / "trajectory.csv", traj)
    csvio.write_snapshots_csv(out / "snapshots.csv", traj)
    drift = traj.metadata["max_mass_drift"]
    occupancy = traj.metadata["max_top_bin_occupancy"]
    summary = (
        f"max mass drift {drift:.3e} (tol {MASS_DRIFT_TOL:g}), "
        f"top-bin occupancy {occupancy:.3e} (tol {TOP_BIN_OCCUPANCY_TOL:g})"
    )
    _say(quiet, f"simulated to t={config.t_end:g}: {summary}")
    failed = [rep.name for rep in (mass_conservation_check(traj), truncation_occupancy_check(traj)) if not rep.passed]
    if failed:
        print(f"bound violation: {' and '.join(failed)} out of tolerance: {summary}", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def _read_run(exp: Experiment, out: Path) -> Trajectory:
    """The run that ``simulate`` wrote to ``out`` from this config: the rows of
    snapshots.csv, whose times must be the config's snapshot schedule and whose
    first counts must be its initial data."""
    path = out / "snapshots.csv"
    times, counts = csvio.read_snapshots_csv(path, exp.initial.grid)
    if not np.array_equal(times, exp.solver.snapshot_times):
        raise CsvFormatError(f"the times of {path} are not the snapshot schedule of this config")
    if not np.array_equal(counts[0], exp.initial.counts):
        raise CsvFormatError(f"the first counts of {path} are not the initial data of this config")
    return Trajectory.of_snapshots(times, counts, exp.initial.grid, exp.solver.spec)


def cmd_verify(exp: Experiment, out: Path, quiet: bool) -> int:
    traj = _read_run(exp, out)
    scenario, t_end = exp.scenario, exp.solver.t_end
    times, moments = traj.times, traj.moments.moments
    m2_0 = float(moments[0, 2])
    window = envelope_window(times, m2_0)
    field = field_from_trajectory(traj, exp.verify_x)

    reports = [
        mass_conservation_check(traj),
        truncation_occupancy_check(traj),
        # the envelope margin is reported per output time
        *(envelope_check([t], [m2], m2_0) for t, m2 in zip(times[window], moments[window, 2])),
        holder_bounds_check(moments, times),
        cm_exact_report(traj.grid, traj.counts, times, exp.verify_x),
    ]
    if t_end < scenario.t_star:
        reports += [
            derivative_bounds_check(field, scenario, t_end),
            g_eps_bound_check(field, scenario, t_end),
        ]
    if field.times.size >= 3:
        reports += [
            hj_residual_check(field, scenario, exp.solver.spec.frag_eps, exp.hj_residual_max),
            weak_form_check(traj, exp.weak_x, exp.weak_residual_max),
        ]
    return _report(out / "verify_report.csv", reports, quiet)


def _report(path: Path, reports: list, quiet: bool) -> int:
    """Write the check rows to ``path``; exit 0 iff all of them pass."""
    csvio.write_verify_csv(path, reports)
    for rep in reports:
        _say(quiet, str(rep))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_BOUND_VIOLATION


def strictly_decreasing(gaps) -> tuple:
    """(ok, offending_pair): first adjacent pair that fails to decrease, if any."""
    gaps = list(gaps)
    for a, b in zip(gaps, gaps[1:]):
        if not b < a:
            return False, (a, b)
    return True, ()


def cmd_convergence(exp: Experiment, out: Path, quiet: bool) -> int:
    eps_list = [run.spec.frag_eps for run in exp.conv_runs]
    if len(eps_list) < 3 or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("convergence needs an eps_list with >= 3 strictly decreasing entries")

    fields = [field_from_trajectory(simulate(run, exp.initial), exp.conv_x) for run in exp.conv_runs]
    fan = integrate_fan(distribution_transform(exp.initial), m=exp.scenario.m, **exp.conv_fan)
    limit_field = fan_to_field(fan, exp.conv_x, fields[0].times)

    gaps = [float(np.max(np.abs(f.F - limit_field.F))) for f in fields]
    csvio.write_convergence_csv(out / "convergence.csv", eps_list, gaps)
    for eps, gap in zip(eps_list, gaps):
        _say(quiet, f"eps={eps:g}: sup gap {gap:.6e}")
    ok, pair = strictly_decreasing(gaps)
    if not ok:
        print(f"gaps are not strictly decreasing: {pair[0]:.6e} -> {pair[1]:.6e}", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def cmd_characteristics(exp: Experiment, out: Path, quiet: bool) -> int:
    scenario, t_end = exp.scenario, exp.char_fan["t_end"]
    fan = integrate_fan(distribution_transform(exp.initial), m=scenario.m, **exp.char_fan)
    csvio.write_fan_csv(out / "fan.csv", fan)
    field = fan_to_field(fan, exp.char_x, fan.times)
    residual = hj_residual_grid(field, scenario, 0.0) if field.times.size >= 3 else None
    csvio.write_field_csv(out / "characteristics_field.csv", field, residual)
    _say(quiet, f"fan of {fan.n_paths} paths to t={t_end:g}; "
                f"{int(np.count_nonzero(fan.terminated))} terminated")
    t_star = scenario.t_star if t_end < scenario.t_star else None
    reports = [*monotone_derivative_checks(fan, t_star), cm_sampled_check(field)]
    return _report(out / "characteristics_report.csv", reports, quiet)


def cmd_stochastic(exp: Experiment, out: Path, quiet: bool) -> int:
    ens = ensemble_moments(
        exp.initial,
        exp.solver.spec,
        exp.sto_t_grid,
        replicas=exp.sto_replicas,
        seed=exp.seed,
        volume=exp.sto_volume,
    )
    csvio.write_ensemble_csv(out / "stochastic.csv", ens)
    _say(
        quiet,
        f"ensemble of {ens.replicas} replicas; final m2 = "
        f"{ens.mean[-1, 2]:.6g} +- {ens.stderr[-1, 2]:.2g}",
    )
    return EXIT_OK


_COMMANDS = {
    "simulate": (cmd_simulate, "run the deterministic solver and export trajectory CSVs"),
    "verify": (cmd_verify, "check every applicable bound on an existing run"),
    "convergence": (cmd_convergence, "per-eps runs against the characteristics limit"),
    "characteristics": (cmd_characteristics, "integrate and export a characteristic fan"),
    "stochastic": (cmd_stochastic, "particle-ensemble moments for cross-validation"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cflab",
        description="coagulation-fragmentation laboratory: run engines, cross-validate, verify bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", required=True, help="experiment config file (INI)")
        cmd.add_argument("--out", default=None, help="output directory (defaults to [outputs] dir)")
        cmd.add_argument("--seed", type=int, default=None, help="override the stochastic seed")
        cmd.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; fold into the usage code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        exp = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed {args.seed} must be nonnegative")
            exp.seed = args.seed
        out = Path(args.out if args.out is not None else exp.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command][0](exp, out, args.quiet)
    except CfLabError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        if isinstance(exc, FanCoverageError) and exc.required is not None:
            print(f"  required x range: {exc.required}, covered: {exc.covered}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
