"""Regenerate ``reference.json``, the stored answers the output checks use.

    python3 perfbench/make_reference.py

It runs each workload's subcommands in-process on the current sources and
keeps the values the checks compare: final moments, the fan row count, the
reconstructed field F, the convergence gaps, and the kinetic moments and
Student-t quantile for each stochastic ensemble.  Regenerate only when a
change is meant to alter these answers, and say so in that change.
"""
import configparser
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from cflab import KernelSpec, ScenarioParams, SizeGrid, SolverConfig, make_initial, simulate  # noqa: E402
from cflab.cli import main  # noqa: E402
from scipy.stats import t as student_t  # noqa: E402

from checks import STOCHASTIC_ALPHA, column, read_csv  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _floats(raw):
    return [float(tok) for tok in raw.replace(",", " ").split()]


def kinetic_moments(cp, t_grid):
    """m0..m3 of the deterministic solver at each time of ``t_grid``."""
    grid = SizeGrid(ds=cp.getfloat("grid", "ds"), n=cp.getint("grid", "n"))
    initial = make_initial(
        cp.get("initial", "kind"), grid,
        mass=cp.getfloat("scenario", "mass"), size=cp.getfloat("initial", "size"),
    )
    dt = cp.getfloat("solver", "dt")
    config = SolverConfig(
        dt=dt, t_end=max(t_grid), output_every=1,
        spec=KernelSpec.for_grid(grid, frag_eps=cp.getfloat("kernel", "frag_eps")),
        scenario=ScenarioParams.from_distribution(initial),
    )
    traj = simulate(config, initial)
    rows = [int(round(t / dt)) for t in t_grid]
    if any(abs(traj.times[r] - t) > 1e-12 for r, t in zip(rows, t_grid)):
        raise SystemExit("stochastic time grid is not on the solver's step grid")
    return traj.moments.moments[rows, :4].tolist()


def reference_for(workload, config, commands, out):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(config)
    ref = {}
    for command in commands:
        code = main([command, "--config", str(config), "--out", str(out), "--quiet"])
        if command == "simulate":
            if code != 0:
                raise SystemExit(f"{workload} simulate exited {code}")
            header, rows = read_csv(out / "trajectory.csv")
            ref["simulate"] = {"final_moments": [float(v) for v in rows[-1][1:7]]}
        elif command == "characteristics":
            with open(out / "fan.csv") as fh:
                fan_rows = sum(1 for _ in fh) - 1
            header, rows = read_csv(out / "characteristics_field.csv")
            ref["characteristics"] = {"fan_rows": fan_rows, "F": column(header, rows, "F")}
        elif command == "convergence":
            header, rows = read_csv(out / "convergence.csv")
            ref["convergence"] = {"gaps": column(header, rows, "sup_gap")}
        elif command == "stochastic":
            t_grid = _floats(cp.get("stochastic", "t_grid"))
            replicas = cp.getint("stochastic", "replicas")
            ref["stochastic"] = {
                "times": t_grid,
                "kinetic_moments": kinetic_moments(cp, t_grid),
                "replicas": replicas,
                "t_quantile": float(student_t.ppf(1.0 - STOCHASTIC_ALPHA / 2.0, replicas - 1)),
            }
    return ref


def run():
    scratch = ROOT / ".perfbench" / "reference"
    reference = {}
    for workload, (config, commands) in WORKLOADS.items():
        out = scratch / workload
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        reference[workload] = reference_for(workload, BENCH / "configs" / config, commands, out)
    shutil.rmtree(scratch)
    with open(BENCH / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    run()
