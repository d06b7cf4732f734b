"""Configuration-driven command line front end.

Subcommands: simulate, verify, convergence, characteristics, stochastic.
Experiments are described by a flat INI file whose sections mirror the type
names, so a committed config plus a seed reproduces a run byte for byte.

Exit codes
----------
0   success, all checks passed
1   solver abort (negative or non-finite counts)
2   bound violation or non-monotone convergence gaps
3   characteristics fan does not cover the requested window
64  unusable command line or config file
65  a CSV artifact exists but cannot be parsed
66  a required artifact is missing
"""
from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import csvio
from .bernstein import field_from_trajectory, cm_exact_report, hj_residual_grid, hj_residual_worst
from .characteristics import default_starts, fan_to_field, integrate_fan, transform_of
from .core import Distribution, KernelSpec, MomentSeries, ScenarioParams, SizeGrid, make_initial
from .errors import (
    CfLabError,
    ConfigError,
    CsvFormatError,
    FanCoverageError,
    GridError,
    MissingArtifactError,
    SolverAbort,
)
from .kinetic import (
    MASS_DRIFT_TOL,
    SolverConfig,
    Trajectory,
    simulate,
    stability_limit,
    weak_form_residual,
)
from .stochastic import ensemble_moments
from .verification import BoundReport, derivative_bounds_check, envelope_check, holder_bounds_check

EXIT_OK = 0
EXIT_SOLVER_ABORT = 1
EXIT_BOUND_VIOLATION = 2
EXIT_COVERAGE = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66

_REQUIRED = object()


@dataclass
class Experiment:
    """Everything a run needs, parsed from one config file."""

    mass: float
    grid: SizeGrid
    frag_eps: float
    initial_kind: str
    initial_size: float
    initial_lam: float
    dt: float
    t_end: float
    output_every: int
    out_dir: str
    field_x_lo: float
    field_x_hi: float
    field_nx: int
    verify_x_hi: float
    verify_nx: int
    hj_residual_max: float
    weak_residual_max: float
    weak_x: tuple
    sto_replicas: int
    sto_volume: float | None
    sto_t_grid: tuple
    seed: int
    conv_eps: tuple
    conv_x_lo: float
    conv_x_hi: float
    conv_nx: int
    conv_t_hi: float
    char_paths: int
    char_dt: float
    char_t_end: float
    char_x_lo: float
    char_x_hi: float
    char_record_every: int

    def initial_distribution(self) -> Distribution:
        return make_initial(
            self.initial_kind,
            self.grid,
            mass=self.mass,
            size=self.initial_size,
            lam=self.initial_lam,
        )

    def kernel(self) -> KernelSpec:
        return KernelSpec.for_grid(self.grid, frag_eps=self.frag_eps)


def _get(cp, section, key, cast, default=_REQUIRED):
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"config is missing [{section}] {key}")
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def load_config(path) -> Experiment:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(path.read_text())
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    dt = _get(cp, "solver", "dt", float)
    t_end = _get(cp, "solver", "t_end", float)
    # building the grid and the run here turns a bad value into a ConfigError
    # (exit 64) before any subcommand starts
    try:
        n_steps = max(1, int(round(t_end / dt))) if dt > 0 and t_end > 0 else 1
        exp = Experiment(
            mass=_get(cp, "scenario", "mass", float),
            grid=SizeGrid(ds=_get(cp, "grid", "ds", float), n=_get(cp, "grid", "n", int)),
            frag_eps=_get(cp, "kernel", "frag_eps", float, 0.0),
            initial_kind=_get(cp, "initial", "kind", str, "monodisperse"),
            initial_size=_get(cp, "initial", "size", float, 1.0),
            initial_lam=_get(cp, "initial", "lam", float, 1.0),
            dt=dt,
            t_end=t_end,
            output_every=_get(cp, "solver", "output_every", int, _default_stride(n_steps)),
            out_dir=_get(cp, "outputs", "dir", str, "out"),
            field_x_lo=_get(cp, "field", "x_lo", float, 1e-3),
            field_x_hi=_get(cp, "field", "x_hi", float, 20.0),
            field_nx=_get(cp, "field", "nx", int, 64),
            verify_x_hi=_get(cp, "verify", "x_hi", float, 5.0),
            verify_nx=_get(cp, "verify", "nx", int, 40),
            hj_residual_max=_get(cp, "verify", "hj_residual_max", float, 1e-2),
            weak_residual_max=_get(cp, "verify", "weak_residual_max", float, 1e-2),
            weak_x=_get(cp, "verify", "weak_x", _floats, (0.5, 1.0, 2.0)),
            sto_replicas=_get(cp, "stochastic", "replicas", int, 100),
            sto_volume=_get(cp, "stochastic", "volume", float, None),
            sto_t_grid=_get(cp, "stochastic", "t_grid", _floats, (0.0, t_end)),
            seed=_get(cp, "stochastic", "seed", int, 20240801),
            conv_eps=_get(cp, "convergence", "eps_list", _floats, ()),
            conv_x_lo=_get(cp, "convergence", "x_lo", float, 0.5),
            conv_x_hi=_get(cp, "convergence", "x_hi", float, 5.0),
            conv_nx=_get(cp, "convergence", "nx", int, 46),
            conv_t_hi=_get(cp, "convergence", "t_hi", float, t_end),
            char_paths=_get(cp, "characteristics", "n_paths", int, 2000),
            char_dt=_get(cp, "characteristics", "dt", float, 1e-3),
            char_t_end=_get(cp, "characteristics", "t_end", float, t_end),
            char_x_lo=_get(cp, "characteristics", "x_lo", float, 0.5),
            char_x_hi=_get(cp, "characteristics", "x_hi", float, 6.0),
            char_record_every=_get(cp, "characteristics", "record_every", int, 1),
        )
        _, scenario, _ = _build_run(exp)
        try:
            _solver_config(exp, scenario, exp.conv_t_hi, exp.frag_eps)
        except ValueError as exc:
            raise ValueError(f"[convergence] t_hi = {exp.conv_t_hi:g}: {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value in {path}: {exc}") from exc
    return exp


def _default_stride(n_steps: int) -> int:
    """Largest divisor of ``n_steps`` up to a tenth of it: about ten uniform snapshots."""
    stride = max(1, n_steps // 10)
    while n_steps % stride:
        stride -= 1
    return stride


def _say(quiet, *parts):
    if not quiet:
        print(*parts)


def _solver_config(exp: Experiment, scenario, t_end: float, frag_eps: float) -> SolverConfig:
    return SolverConfig(
        dt=exp.dt,
        t_end=t_end,
        output_every=exp.output_every,
        spec=KernelSpec.for_grid(exp.grid, frag_eps=frag_eps),
        scenario=scenario,
    )


def _build_run(exp: Experiment):
    """Initial distribution, scenario and solver config of the experiment."""
    initial = exp.initial_distribution()
    scenario = ScenarioParams.from_distribution(initial)
    return initial, scenario, _solver_config(exp, scenario, exp.t_end, exp.frag_eps)


def _snapshot_path(out: Path, i: int, t: float) -> Path:
    return out / f"snapshot_{i:04d}_t{t:.6f}.csv"


def cmd_simulate(exp: Experiment, out: Path, quiet: bool) -> int:
    initial, scenario, config = _build_run(exp)
    guard = stability_limit(exp.grid, config.spec, scenario.m)
    if exp.dt > guard:
        _say(quiet, f"warning: dt={exp.dt:g} exceeds the stability guard {guard:.3g}")
    try:
        traj = simulate(config, initial)
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ABORT
    csvio.write_trajectory_csv(out / "trajectory.csv", traj)
    for i, (t, dist) in enumerate(traj.snapshots):
        csvio.write_snapshot_csv(_snapshot_path(out, i, t), dist)
    drift = traj.metadata["max_mass_drift"]
    occupancy = traj.metadata["max_top_bin_occupancy"]
    _say(
        quiet,
        f"simulated to t={exp.t_end:g}: max mass drift {drift:.3e} "
        f"(tol {MASS_DRIFT_TOL:g}), top-bin occupancy {occupancy:.3e}",
    )
    if traj.metadata["mass_drift_exceeded"] or traj.metadata["top_bin_occupancy_exceeded"]:
        print("bound violation: mass drift or truncation occupancy out of tolerance", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def _verify_x_grid(exp: Experiment) -> np.ndarray:
    return np.concatenate([[0.0], np.geomspace(exp.field_x_lo, exp.verify_x_hi, exp.verify_nx)])


def _read_run(exp: Experiment, out: Path) -> Trajectory:
    """The run that ``simulate`` wrote to ``out``: the rows of trajectory.csv
    with the counts of one snapshot file per row."""
    data = csvio.read_trajectory_csv(out / "trajectory.csv")
    times = data["t"]
    dists = [csvio.read_snapshot_csv(_snapshot_path(out, i, t), exp.grid) for i, t in enumerate(times)]
    found = len(list(out.glob("snapshot_*.csv")))
    if found != times.size:
        raise CsvFormatError(f"{found} snapshot files in {out} for {times.size} trajectory rows")
    try:
        series = MomentSeries(
            times, np.column_stack([data[f"m{k}"] for k in range(6)]), data["mass_drift"]
        )
    except ValueError as exc:
        raise CsvFormatError(f"bad trajectory CSV in {out}: {exc}") from exc
    return Trajectory(snapshots=tuple(zip(times, dists)), moments=series, spec=exp.kernel())


def cmd_verify(exp: Experiment, out: Path, quiet: bool) -> int:
    traj = _read_run(exp, out)
    times, moments = traj.times, traj.moments.moments
    m2_0 = float(moments[0, 2])
    t_star = 1.0 / m2_0

    reports = []
    drift_margin = float((MASS_DRIFT_TOL - traj.moments.mass_drift.max()) / MASS_DRIFT_TOL)
    reports.append(BoundReport("mass_conservation", drift_margin, 0.0, (float(times[-1]), "m1")))
    for t, m2 in zip(times, moments[:, 2]):
        if t <= 0.8 * t_star:  # envelope margin reported per output time
            reports.append(envelope_check([t], [m2], m2_0))
    reports.append(holder_bounds_check(moments, times))

    _, scenario, _ = _build_run(exp)
    x_grid = _verify_x_grid(exp)
    field = field_from_trajectory(traj, x_grid)

    cm_t, cm_worst = min(
        ((t, cm_exact_report(dist, k_max=6, x_samples=x_grid)) for t, dist in traj.snapshots),
        key=lambda pair: pair[1].worst_value,
    )
    reports.append(
        BoundReport(
            "complete_monotonicity_exact",
            cm_worst.worst_value / max(scenario.m, 1e-300),
            1e-8,
            (float(cm_t), cm_worst.worst_x),
        )
    )
    if exp.t_end < scenario.t_star:
        reports.append(derivative_bounds_check(field, scenario, exp.t_end))
        bound = 3.0 / (scenario.t_star - exp.t_end)
        g_margin = float((bound - np.max(np.abs(field.g_eps))) / bound)
        reports.append(BoundReport("g_eps_bound", g_margin, 1e-2, (float(exp.t_end), "sup|G|")))
    if field.times.size >= 3:
        res, res_t, res_x = hj_residual_worst(field, scenario, exp.frag_eps)
        reports.append(
            BoundReport(
                "hj_residual",
                float((exp.hj_residual_max - res) / exp.hj_residual_max),
                0.0,
                (res_t, res_x),
            )
        )
        worst_weak, weak_t, weak_x = max(
            ((*weak_form_residual(traj, _exp_test_function(xv)), xv) for xv in exp.weak_x),
            key=lambda found: found[0],
        )
        reports.append(
            BoundReport(
                "weak_form_residual",
                float((exp.weak_residual_max - worst_weak) / exp.weak_residual_max),
                0.0,
                (weak_t, weak_x),
            )
        )

    csvio.write_verify_csv(out / "verify_report.csv", reports)
    for rep in reports:
        _say(quiet, str(rep))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_BOUND_VIOLATION


def _exp_test_function(x_value: float):
    def phi(s):
        return -np.expm1(-x_value * np.asarray(s, dtype=float))

    return phi


def strictly_decreasing(gaps) -> tuple:
    """(ok, offending_pair): first adjacent pair that fails to decrease, if any."""
    gaps = list(gaps)
    for a, b in zip(gaps, gaps[1:]):
        if not b < a:
            return False, (a, b)
    return True, ()


def cmd_convergence(exp: Experiment, out: Path, quiet: bool) -> int:
    eps_list = exp.conv_eps
    if len(eps_list) < 3 or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("convergence needs an eps_list with >= 3 strictly decreasing entries")

    initial, scenario, _ = _build_run(exp)
    x_grid = np.linspace(exp.conv_x_lo, exp.conv_x_hi, exp.conv_nx)

    fields = [
        field_from_trajectory(
            simulate(_solver_config(exp, scenario, exp.conv_t_hi, eps), initial), x_grid
        )
        for eps in eps_list
    ]

    times = fields[0].times
    starts = default_starts(scenario.m, exp.conv_t_hi, exp.conv_x_lo, exp.conv_x_hi, exp.char_paths)
    snap_dt = float(times[1] - times[0]) if times.size > 1 else exp.char_dt
    fan_dt = snap_dt / max(1, int(round(snap_dt / exp.char_dt)))
    fan = integrate_fan(transform_of(initial), starts, exp.conv_t_hi, fan_dt, scenario.m)
    limit_field = fan_to_field(fan, x_grid, times)

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
    initial, scenario, _ = _build_run(exp)
    starts = default_starts(
        scenario.m, exp.char_t_end, exp.char_x_lo, exp.char_x_hi, exp.char_paths
    )
    n_steps = max(1, int(round(exp.char_t_end / exp.char_dt)))
    record_every = max(exp.char_record_every, max(1, n_steps // 50))
    fan = integrate_fan(
        transform_of(initial), starts, exp.char_t_end, exp.char_dt, scenario.m,
        record_every=record_every,
    )
    csvio.write_fan_csv(out / "fan.csv", fan)
    x_grid = np.linspace(exp.char_x_lo, exp.char_x_hi, exp.verify_nx)
    field = fan_to_field(fan, x_grid, fan.times)
    residual = hj_residual_grid(field, scenario, 0.0) if field.times.size >= 3 else None
    csvio.write_field_csv(out / "characteristics_field.csv", field, residual)
    _say(quiet, f"fan of {fan.n_paths} paths to t={exp.char_t_end:g}; "
                f"{int(np.count_nonzero(fan.terminated))} terminated")
    return EXIT_OK


def cmd_stochastic(exp: Experiment, out: Path, quiet: bool) -> int:
    initial = exp.initial_distribution()
    ens = ensemble_moments(
        initial,
        exp.kernel(),
        np.asarray(exp.sto_t_grid),
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cflab",
        description="coagulation-fragmentation laboratory: run engines, cross-validate, verify bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in [
        ("simulate", "run the deterministic solver and export trajectory CSVs"),
        ("verify", "check every applicable bound on an existing run"),
        ("convergence", "per-eps runs against the characteristics limit"),
        ("characteristics", "integrate and export a characteristic fan"),
        ("stochastic", "particle-ensemble moments for cross-validation"),
    ]:
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
            exp.seed = args.seed
        out = Path(args.out if args.out is not None else exp.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        handler = {
            "simulate": cmd_simulate,
            "verify": cmd_verify,
            "convergence": cmd_convergence,
            "characteristics": cmd_characteristics,
            "stochastic": cmd_stochastic,
        }[args.command]
        return handler(exp, out, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GridError as exc:
        print(f"grid error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MissingArtifactError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except CsvFormatError as exc:
        print(f"artifact parse failure: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FanCoverageError as exc:
        print(f"fan coverage: {exc}", file=sys.stderr)
        if exc.required is not None:
            print(f"  required x range: {exc.required}, covered: {exc.covered}", file=sys.stderr)
        return EXIT_COVERAGE
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ABORT
    except CfLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
