"""Session-scoped fixtures for the runs shared across test modules.

The expensive artifacts (reference kinetic runs, the 2000-path fan, the
convergence bundle, the 200-replica ensemble) are built once and reused by
both the unit tests and the acceptance suite.
"""
import re
from pathlib import Path

import numpy as np
import pytest

from cflab import (
    KernelSpec,
    ScenarioParams,
    SizeGrid,
    SolverConfig,
    default_starts,
    distribution_transform,
    ensemble_moments,
    fan_to_field,
    field_from_trajectory,
    integrate_fan,
    make_initial,
    monodisperse_transform,
    simulate,
)
from cflab.cli import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="session")
def run_m15_family():
    """Reference runs: mass 1.5 at s=1 (t_star=2/3), n=128, dt=5e-4, to t=0.5,
    one trajectory per fragmentation perturbation."""
    grid = SizeGrid(ds=1.0, n=128)
    initial = make_initial("monodisperse", grid, mass=1.5, size=1.0)
    scenario = ScenarioParams.from_distribution(initial)
    runs = {}
    for eps in (0.01, 0.1):
        config = SolverConfig(
            dt=5e-4,
            t_end=0.5,
            output_every=100,
            spec=KernelSpec.for_grid(grid, frag_eps=eps),
            scenario=scenario,
        )
        runs[eps] = simulate(config, initial)
    return {"grid": grid, "initial": initial, "scenario": scenario, "runs": runs}


@pytest.fixture(scope="session")
def run_m1_fine():
    """Mass 1 at s=1 (t_star=1), eps=0.1, ds=0.25, dense output; the workhorse
    for moment-equation and transform checks."""
    grid = SizeGrid(ds=0.25, n=128)
    initial = make_initial("monodisperse", grid, mass=1.0, size=1.0)
    scenario = ScenarioParams.from_distribution(initial)
    config = SolverConfig(
        dt=1e-3,
        t_end=0.3,
        output_every=25,
        spec=KernelSpec.for_grid(grid, frag_eps=0.1),
        scenario=scenario,
    )
    traj = simulate(config, initial)
    return {"grid": grid, "initial": initial, "scenario": scenario, "traj": traj}


@pytest.fixture(scope="session")
def fan_m1():
    """2000-path fan from the point-mass transform, m=1, to t=0.3."""
    m = 1.0
    f0 = monodisperse_transform(m, 1.0)
    starts = default_starts(m, 0.3, 0.5, 8.0, 2000)
    fan = integrate_fan(f0, starts, t_end=0.3, dt=1e-3, m=m)
    return {"fan": fan, "f0": f0, "m": m, "t_star": 1.0}


@pytest.fixture(scope="session")
def convergence_bundle():
    """Kinetic transforms for eps in {0.2, 0.1, 0.05} against the
    characteristics limit on the window x in [0.5, 5], t in [0, 0.3]."""
    eps_values = (0.2, 0.1, 0.05)
    grid = SizeGrid(ds=0.125, n=256)
    initial = make_initial("monodisperse", grid, mass=1.0, size=1.0)
    scenario = ScenarioParams.from_distribution(initial)
    x_window = np.linspace(0.5, 5.0, 46)
    fields = {}
    for eps in eps_values:
        config = SolverConfig(
            dt=5e-4,
            t_end=0.3,
            output_every=100,
            spec=KernelSpec.for_grid(grid, frag_eps=eps),
            scenario=scenario,
        )
        fields[eps] = field_from_trajectory(simulate(config, initial), x_window)
    times = fields[eps_values[0]].times
    starts = default_starts(scenario.m, 0.3, 0.5, 5.0, 1500)
    fan = integrate_fan(distribution_transform(initial), starts, t_end=0.3, dt=1e-3, m=scenario.m)
    limit_field = fan_to_field(fan, x_window, times)
    gaps = {eps: float(np.max(np.abs(fields[eps].F - limit_field.F))) for eps in eps_values}
    return {
        "eps_values": eps_values,
        "fields": fields,
        "limit_field": limit_field,
        "gaps": gaps,
        "scenario": scenario,
        "x_window": x_window,
    }


@pytest.fixture(scope="session")
def ensemble_bundle():
    """200-replica ensemble at eps=0.1 with its deterministic twin on the
    same grid, so the engines realize the identical finite system."""
    grid = SizeGrid(ds=1.0, n=128)
    initial = make_initial("monodisperse", grid, mass=1.0, size=1.0)
    scenario = ScenarioParams.from_distribution(initial)
    spec = KernelSpec.for_grid(grid, frag_eps=0.1)
    t_grid = np.array([0.0, 0.1, 0.2, 0.3])
    config = SolverConfig(dt=5e-5, t_end=0.3, output_every=2000, spec=spec, scenario=scenario)
    traj = simulate(config, initial)
    ens = ensemble_moments(initial, spec, t_grid, replicas=200, seed=42, volume=1e4)
    return {
        "grid": grid,
        "initial": initial,
        "scenario": scenario,
        "spec": spec,
        "t_grid": t_grid,
        "traj": traj,
        "ensemble": ens,
    }


@pytest.fixture(scope="session")
def readme_experiment(tmp_path_factory):
    """The run that the README's example config describes, built by load_config."""
    config = tmp_path_factory.mktemp("readme") / "readme.ini"
    config.write_text(re.search(r"```ini\n(.*?)```", README.read_text(), flags=re.DOTALL).group(1))
    return load_config(config)
