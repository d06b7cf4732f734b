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
import gc
import math
import os
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
from .core import BoundReport, Distribution, KernelSpec, ScenarioParams, SizeGrid, make_initial, step_count
from .errors import (
    EXIT_BOUND_VIOLATION,
    EXIT_OK,
    CfLabError,
    ConfigError,
    CsvFormatError,
    FanCoverageError,
    GridError,
    MissingArtifactError,
    SolverAbort,
)
from .kinetic import SolverConfig, Trajectory, simulate, stability_limit
from .stochastic import ensemble_moments, event_rate_bound, time_grid
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

#: The domains of config values, each a phrase and the test that a value in
#: the domain passes; ``load_config`` names a value that fails by the phrase.
_POSITIVE = ("positive and finite", lambda v: 0 < v < math.inf)
_NONNEGATIVE = ("nonnegative and finite", lambda v: 0 <= v < math.inf)
_STEP = ("nonnegative", lambda v: v >= 0)
_FINITE = ("finite", math.isfinite)
_TEXT = ("text", lambda v: True)


def _at_least(k: int) -> tuple:
    return f"an integer at least {k}", lambda v: v >= k


def _each(phrase: str, test) -> tuple:
    return f"one or more numbers, each {phrase}", lambda values: len(values) > 0 and all(map(test, values))


#: The most time steps that ``load_config`` plans for one run: the kinetic
#: run, each convergence run and both fans.  The README workloads take 300
#: and 200; 10^7 steps of the README grid, at about 0.23 ms each, take some
#: 40 minutes, and ``[solver] dt = 1e-9`` would plan 3 * 10^8.
#: It also caps the events that a stochastic replica may take to the last
#: ``t_grid`` time, ``event_rate_bound`` times that time: about 7.8 * 10^3 on
#: the README config, which takes some 2.8 * 10^3.
MAX_STEPS = 10**7

#: The most particles, volume * m0, of a stochastic replica.  The README
#: ensemble starts from 10^4; building a replica of 10^7 holds their sizes, 80 MB.
MAX_PARTICLES = 10**7


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
    verify_x: np.ndarray  # 0, then geometric on [verify] x_lo .. x_hi
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

    def get(section, key, cast, default=_REQUIRED, domain=_TEXT):
        """[section] key parsed by ``cast``, or ``default`` when unset; ConfigError unless in ``domain``."""
        read.add((section, key))
        if not cp.has_option(section, key):
            if default is _REQUIRED:
                raise ConfigError(f"config is missing [{section}] {key}")
            return default
        raw = cp.get(section, key)
        try:
            value = cast(raw)
            if domain[1](value):
                return value
        except ValueError:
            pass
        raise ConfigError(f"[{section}] {key} = {' '.join(raw.split())} must be {domain[0]}")

    def named(what, build):
        try:
            return build()
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from exc

    def x_range(section, lo_default, hi_default, lo_domain=_FINITE):
        lo, hi = get(section, "x_lo", float, lo_default, lo_domain), get(section, "x_hi", float, hi_default, _FINITE)
        if not lo < hi:
            raise ValueError(f"[{section}] x_lo = {lo:g} must be below [{section}] x_hi = {hi:g}")
        return lo, hi

    def fan(section, t, x, records, dt):
        """integrate_fan's starts, t_end, dt and record_every of the fan of
        [section] to t over the x range ``x``, which records ``records``
        evenly spaced times."""
        dt, stride = _plan("[characteristics] dt", f"the {section} fan", t, dt, records)
        starts = named(f"[{section}] fan starts", lambda: default_starts(scenario.m, t, x[0], x[-1], n_paths))
        top = float(starts[-1])
        if not math.isfinite(top * top):  # char_rhs divides by x * x
            raise ValueError(f"[{section}] x_hi = {x[-1]:g} and t_end = {t:g} start a fan path at x = {top:g}, "
                             "whose square overflows")
        return dict(starts=starts, t_end=t, dt=dt, record_every=stride)

    try:
        grid = SizeGrid(ds=get("grid", "ds", float, domain=_POSITIVE), n=get("grid", "n", int, domain=_at_least(2)))
        initial = make_initial(
            get("initial", "kind", str, "monodisperse"),
            grid,
            mass=get("scenario", "mass", float, domain=_POSITIVE),
            size=get("initial", "size", float, 1.0, _POSITIVE),  # each kind reads one of size and lam
            lam=get("initial", "lam", float, 1.0, _POSITIVE),
        )
        scenario = ScenarioParams.from_distribution(initial)
        dt = get("solver", "dt", float, domain=_STEP)
        t_end = get("solver", "t_end", float, domain=_NONNEGATIVE)
        output_every = get("solver", "output_every", int, None, _at_least(1))
        spec = KernelSpec.for_grid(grid, frag_eps=get("kernel", "frag_eps", float, 0.0, _NONNEGATIVE))

        def kinetic(key, run, t):
            """The SolverConfig of ``run`` to t: every output_every-th step, or 10 records."""
            step, stride = _plan(key, run, t, dt, 10, output_every)
            return named(f"{key} for {run}", lambda: SolverConfig(step, t, stride, spec, scenario))

        solver = kinetic("[solver] dt", "the kinetic run", t_end)
        conv_t_hi = get("convergence", "t_hi", float, t_end, _NONNEGATIVE)
        conv_solver = kinetic("[convergence] t_hi", "the convergence runs", conv_t_hi)
        conv_eps = get("convergence", "eps_list", _floats, (), _each(*_NONNEGATIVE))
        conv_runs = tuple(replace(conv_solver, spec=replace(spec, frag_eps=e)) for e in conv_eps)
        verify_nx = get("verify", "nx", int, 40, _at_least(5))  # characteristics differences F in x to 4th order
        verify_lo, verify_hi = x_range("verify", 1e-3, 5.0, _POSITIVE)  # the x grid of verify is geometric
        conv_x = np.linspace(*x_range("convergence", 0.5, 5.0), get("convergence", "nx", int, 46, _at_least(2)))
        char_x = np.linspace(*x_range("characteristics", 0.5, 6.0), verify_nx)
        char_dt = get("characteristics", "dt", float, 1e-3, _STEP)
        char_t_end = get("characteristics", "t_end", float, t_end, _NONNEGATIVE)
        n_paths = get("characteristics", "n_paths", int, 2000, _at_least(2))
        # convergence's fan records the snapshot times that its gaps read, at
        # one step per snapshot interval or more
        intervals = conv_solver.snapshot_times.size - 1
        conv_fan = fan("convergence", conv_t_hi, conv_x, intervals, min(char_dt, conv_t_hi / max(intervals, 1)))
        char_fan = fan("characteristics", char_t_end, char_x, 50, char_dt)
        sto_volume = get("stochastic", "volume", float, None, _POSITIVE)
        if sto_volume is not None and not sto_volume * initial.moment(0) <= MAX_PARTICLES:
            raise ValueError(f"[stochastic] volume = {sto_volume:g} makes {sto_volume * initial.moment(0):.3g} "
                             f"particles, more than MAX_PARTICLES = {MAX_PARTICLES}")
        t_grid = get("stochastic", "t_grid", _floats, (0.0, t_end), _each(*_NONNEGATIVE))
        sto_t_grid = named("[stochastic]", lambda: time_grid(t_grid))
        t_last = float(sto_t_grid[-1])
        events = named("[stochastic] volume", lambda: event_rate_bound(initial, solver.spec, sto_volume)) * t_last
        if events > MAX_STEPS:
            raise ValueError(f"[stochastic] t_grid ends at t = {t_last:g}, to which a replica may take "
                             f"{events:.3g} events, more than MAX_STEPS = {MAX_STEPS}")
        exp = Experiment(
            initial=initial,
            scenario=scenario,
            solver=solver,
            conv_runs=conv_runs,
            verify_x=np.concatenate([[0.0], np.geomspace(verify_lo, verify_hi, verify_nx)]),
            conv_x=conv_x,
            char_x=char_x,
            conv_fan=conv_fan,
            char_fan=char_fan,
            out_dir=get("outputs", "dir", str, "out"),
            hj_residual_max=get("verify", "hj_residual_max", float, 1e-2, _POSITIVE),
            weak_residual_max=get("verify", "weak_residual_max", float, 1e-2, _POSITIVE),
            weak_x=get("verify", "weak_x", _floats, (0.5, 1.0, 2.0), _each(*_POSITIVE)),
            sto_replicas=get("stochastic", "replicas", int, 100, _at_least(2)),  # a standard error needs two
            sto_volume=sto_volume,
            sto_t_grid=sto_t_grid,
            seed=get("stochastic", "seed", int, 20240801, _at_least(0)),  # numpy's generators take seeds >= 0
        )
    except (ValueError, OverflowError, GridError) as exc:
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


def _plan(key: str, run: str, t: float, dt: float, records: int, stride: int | None = None) -> tuple:
    """(dt, stride) of ``run`` to t: dt and ``stride`` as given, or else
    ``records`` evenly spaced times: the n = step_count(t, dt) steps rounded
    up to stride = ceil(n / min(records, n)) per record, which shortens dt to
    t / (stride * min(records, n)).  ValueError, naming the config ``key``,
    from step_count and when the planned steps exceed MAX_STEPS."""
    try:
        n = step_count(t, dt)
    except ValueError as exc:
        raise ValueError(f"{key} for {run}: {exc}") from exc
    if stride is None:
        k, stride = min(records, n), 1
        if k:
            stride = -(-n // k)
            n, dt = stride * k, t / (stride * k)
    if n > MAX_STEPS:
        raise ValueError(f"{key} plans {n:.3g} steps of {dt:g} for {run} to t = {t:g}, "
                         f"more than MAX_STEPS = {MAX_STEPS}")
    return dt, stride


def _say(quiet, *parts):
    """Print ``parts`` unless ``quiet``.  Once the reader has closed stdout,
    stdout is the null device: nothing more is printed, and neither a later
    line nor the flush at exit raises."""
    if quiet:
        return
    try:
        print(*parts, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def cmd_simulate(exp: Experiment, out: Path, quiet: bool) -> int:
    config = exp.solver
    guard = stability_limit(exp.initial.grid, config.spec, exp.scenario.m)
    if config.dt > guard:
        print(f"warning: dt={config.dt:g} exceeds the stability guard {guard:.3g}", file=sys.stderr)
    traj = simulate(config, exp.initial)
    csvio.write_trajectory_csv(out / "trajectory.csv", traj)
    csvio.write_snapshots_csv(out / "snapshots.csv", traj)
    reports = [mass_conservation_check(traj), truncation_occupancy_check(traj)]
    return _report(out / "simulate_report.csv", reports, quiet)


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
            hj_residual_check(field, scenario, exp.solver.spec.frag_eps, exp.hj_residual_max, exp.initial.grid.ds),
            weak_form_check(traj, exp.weak_x, exp.weak_residual_max),
        ]
    return _report(out / "verify_report.csv", reports, quiet)


def _report(path: Path, reports: list, quiet: bool) -> int:
    """How every subcommand with checks ends: the rows go to ``path`` and,
    unless ``quiet``, to stdout.  Exit 0 iff every row passes; otherwise one
    stderr line, under ``quiet`` too, names the failing rows and ``path``,
    and the exit code is 2."""
    csvio.write_verify_csv(path, reports)
    for rep in reports:
        _say(quiet, str(rep))
    failed = [rep.name for rep in reports if not rep.passed]
    if not failed:
        return EXIT_OK
    print(f"bound violation: {', '.join(dict.fromkeys(failed))} FAIL in {path}", file=sys.stderr)
    return EXIT_BOUND_VIOLATION


def cmd_convergence(exp: Experiment, out: Path, quiet: bool) -> int:
    eps_list = [run.spec.frag_eps for run in exp.conv_runs]
    if len(eps_list) < 3 or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("[convergence] eps_list needs 3 or more strictly decreasing entries")

    fields = [field_from_trajectory(simulate(run, exp.initial), exp.conv_x) for run in exp.conv_runs]
    fan = integrate_fan(distribution_transform(exp.initial), m=exp.scenario.m, **exp.conv_fan)
    limit_field = fan_to_field(fan, exp.conv_x, fields[0].times)

    gaps = [float(np.max(np.abs(f.F - limit_field.F))) for f in fields]
    csvio.write_convergence_csv(out / "convergence.csv", eps_list, gaps)
    for eps, gap in zip(eps_list, gaps):
        _say(quiet, f"eps={eps:g}: sup gap {gap:.6e}")
    # one row per eps pair: the relative decrease of the sup gap, nan for a
    # zero or nan gap; tolerance -ulp(0) passes a row iff its margin is above 0
    g = np.array(gaps)
    with np.errstate(divide="ignore", invalid="ignore"):
        margins = (g[:-1] - g[1:]) / g[:-1]
    pairs = zip(eps_list, eps_list[1:])
    reports = [BoundReport("sup_gap_decrease", float(m), -math.ulp(0.0), pair) for m, pair in zip(margins, pairs)]
    return _report(out / "convergence_report.csv", reports, quiet)


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


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one ``config error:`` line from
    ``main``, not a usage line and an error line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    """Run the subcommand that ``argv`` names, or ``sys.argv[1:]`` when it is
    None; returns the exit code.  As the process's entry (``argv`` None), it
    first freezes the objects that the imports made, so the collector and
    interpreter shutdown no longer traverse them."""
    if argv is None:
        gc.freeze()
    try:
        args = _build_parser().parse_args(argv)
        exp = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed {args.seed} must be nonnegative")
            exp.seed = args.seed
        out = Path(args.out if args.out is not None else exp.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make the output directory {out}: {exc.strerror}") from exc
        return _COMMANDS[args.command][0](exp, out, args.quiet)
    except SystemExit:  # from --help, after the help is printed
        return EXIT_OK
    except CfLabError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
