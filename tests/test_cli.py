"""Command line front end: exit-code contract, artifact schemas, determinism."""
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cflab

from cflab import kinetic
from cflab.bernstein import cm_exact_report, field_from_trajectory, hj_residual_grid
from cflab.cli import (
    EXIT_BOUND_VIOLATION,
    EXIT_DATA,
    EXIT_NOINPUT,
    EXIT_OK,
    EXIT_SOLVER_ABORT,
    EXIT_USAGE,
    load_config,
    _build_run,
    _verify_x_grid,
    main,
    strictly_decreasing,
)
from cflab.kinetic import simulate, weak_form_rate

BASE_CONFIG = """
[scenario]
mass = 1.0

[grid]
ds = 0.25
n = 128

[kernel]
frag_eps = 0.1

[initial]
kind = monodisperse
size = 1.0

[solver]
dt = 1e-3
t_end = 0.2
output_every = 50

[outputs]
dir = {out}

[verify]
x_hi = 5.0
nx = 32
hj_residual_max = 5e-2
weak_residual_max = 1e-2

[stochastic]
replicas = 6
volume = 400
t_grid = 0.0, 0.1
seed = 7

[convergence]
eps_list = 0.2, 0.1, 0.05
x_lo = 0.5
x_hi = 4.0
nx = 24
n_paths = 400

[characteristics]
n_paths = 200
dt = 1e-3
t_end = 0.2
x_lo = 0.6
x_hi = 4.0
"""


@pytest.fixture
def workspace(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "exp.ini"
    config.write_text(BASE_CONFIG.format(out=out))
    return config, out


class TestConfig:
    def test_missing_file_is_usage_error(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.ini")])
        assert code == EXIT_USAGE

    def test_missing_required_key(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\nmass = 1.0\n")
        code = main(["simulate", "--config", str(bad)])
        assert code == EXIT_USAGE

    def test_loads_defaults(self, workspace):
        config, out = workspace
        exp = load_config(config)
        assert exp.grid.n == 128
        assert exp.weak_x == (0.5, 1.0, 2.0)

    def test_usage_error_without_subcommand(self):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize(
        "old, new",
        [
            ("ds = 0.25", "ds = -1"),
            ("n = 128", "n = 0"),
            ("output_every = 50", "output_every = 0"),
            ("dt = 1e-3", "dt = -1"),
            # 200 steps in strides of 7 would end on a shorter last stride
            ("output_every = 50", "output_every = 7"),
        ],
    )
    def test_bad_value_is_usage_error_without_traceback(
        self, workspace, tmp_path, capsys, command, old, new
    ):
        config, out = workspace
        assert old in config.read_text()
        bad = tmp_path / "bad_value.ini"
        bad.write_text(config.read_text().replace(old, new))
        assert main([command, "--config", str(bad), "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_convergence_stride_is_usage_error_without_traceback(self, workspace, tmp_path, capsys):
        """[convergence] t_hi = 0.13 gives 130 steps, which the stride of 50 does
        not divide: rejected at load time, before any run."""
        config, out = workspace
        bad = tmp_path / "bad_t_hi.ini"
        bad.write_text(config.read_text().replace("nx = 24\n", "nx = 24\nt_hi = 0.13\n"))
        assert main(["convergence", "--config", str(bad), "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error:") and "t_hi" in err and err.count("\n") == 1

    def test_default_stride_divides_the_step_count(self, workspace, tmp_path):
        """205 steps with no stride given: a tenth would be 20, the largest
        divisor below it is 5, and verify runs on the uniform snapshots."""
        config, out = workspace
        text = config.read_text().replace("output_every = 50\n", "").replace(
            "t_end = 0.2\n", "t_end = 0.205\n"
        )
        cfg = tmp_path / "default_stride.ini"
        cfg.write_text(text)
        assert load_config(cfg).output_every == 5
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == EXIT_OK
        assert main(["verify", "--config", str(cfg), "--quiet"]) == EXIT_OK


class TestSimulate:
    def test_success_writes_artifacts(self, workspace):
        config, out = workspace
        assert main(["simulate", "--config", str(config), "--quiet"]) == EXIT_OK
        assert (out / "trajectory.csv").is_file()
        assert any(p.name.startswith("snapshot_") for p in out.iterdir())

    def test_runs_are_byte_identical(self, workspace, tmp_path):
        config, out = workspace
        other = tmp_path / "out2"
        assert main(["simulate", "--config", str(config), "--quiet"]) == EXIT_OK
        assert main(["simulate", "--config", str(config), "--out", str(other), "--quiet"]) == EXIT_OK
        a = (out / "trajectory.csv").read_bytes()
        b = (other / "trajectory.csv").read_bytes()
        assert a == b

    def test_unstable_dt_aborts(self, workspace, tmp_path):
        """Mass at a fast bin with dt far over the guard drives counts negative."""
        config, out = workspace
        text = (
            config.read_text()
            .replace("dt = 1e-3", "dt = 0.1")
            .replace("t_end = 0.2", "t_end = 1.0")
            .replace("size = 1.0", "size = 16.0")
        )
        bad = tmp_path / "unstable.ini"
        bad.write_text(text)
        assert main(["simulate", "--config", str(bad), "--quiet"]) == EXIT_SOLVER_ABORT

    def test_truncation_overflow_is_bound_violation(self, workspace, tmp_path):
        """A grid far too small keeps mass conservation exact but pushes the
        top-bin occupancy over tolerance."""
        config, out = workspace
        text = config.read_text().replace("n = 128", "n = 8").replace("ds = 0.25", "ds = 1.0")
        bad = tmp_path / "tiny.ini"
        bad.write_text(text)
        assert main(["simulate", "--config", str(bad), "--quiet"]) == EXIT_BOUND_VIOLATION


class TestVerify:
    def test_missing_artifacts(self, workspace):
        config, out = workspace
        assert main(["verify", "--config", str(config), "--quiet"]) == EXIT_NOINPUT

    def test_corrupted_trajectory(self, workspace):
        config, out = workspace
        out.mkdir(parents=True)
        (out / "trajectory.csv").write_text("t,m0\n0.0,not-a-number\n")
        assert main(["verify", "--config", str(config), "--quiet"]) == EXIT_DATA

    def test_full_pipeline_passes(self, workspace):
        config, out = workspace
        assert main(["simulate", "--config", str(config), "--quiet"]) == EXIT_OK
        assert main(["verify", "--config", str(config), "--quiet"]) == EXIT_OK
        report = (out / "verify_report.csv").read_text().splitlines()
        assert report[0] == "name,status,worst_margin,t,x_or_k"
        assert all("PASS" in line for line in report[1:])
        names = [line.split(",")[0] for line in report[1:]]
        assert "second_moment_envelope" in names
        assert "hj_residual" in names


    def test_report_locations_are_the_true_worst(self, workspace):
        """hj_residual reports the argmax (t, x) of the residual grid over
        interior times and x > 0; complete_monotonicity_exact reports the
        snapshot time and the x of its smallest signed derivative on the
        verify window; weak_form_residual reports the interior snapshot time
        and the weak_x of its largest mismatch."""
        config, out = workspace
        assert main(["simulate", "--config", str(config), "--quiet"]) == EXIT_OK
        main(["verify", "--config", str(config), "--quiet"])
        with open(out / "verify_report.csv", newline="") as fh:
            rows = {row["name"]: row for row in csv.DictReader(fh)}

        exp = load_config(config)
        initial, scenario, run = _build_run(exp)
        traj = simulate(run, initial)
        field = field_from_trajectory(traj, _verify_x_grid(exp))
        res = np.abs(hj_residual_grid(field, scenario, exp.frag_eps))
        res[0] = res[-1] = -np.inf  # one-sided time rows
        res[:, field.x <= 0] = -np.inf
        i, j = np.unravel_index(np.nanargmax(res), res.shape)
        assert 0 < i < field.times.size - 1
        assert float(rows["hj_residual"]["t"]) == field.times[i]
        assert float(rows["hj_residual"]["x_or_k"]) == field.x[j]

        cm = [(cm_exact_report(dist, k_max=6, x_samples=field.x), t) for t, dist in traj.snapshots]
        rep, t = min(cm, key=lambda pair: pair[0].worst_value)
        assert float(rows["complete_monotonicity_exact"]["t"]) == t
        assert float(rows["complete_monotonicity_exact"]["x_or_k"]) == rep.worst_x <= exp.verify_x_hi

        dists, times = traj.distributions, traj.times
        mismatches = []
        for xv in exp.weak_x:
            def phi(s, xv=xv):
                return -np.expm1(-xv * np.asarray(s, float))
            total = [float(np.dot(phi(d.grid.sizes), d.counts)) for d in dists]
            for k in range(1, len(dists) - 1):
                lhs = (total[k + 1] - total[k - 1]) / (times[k + 1] - times[k - 1])
                mismatches.append((abs(lhs - weak_form_rate(dists[k], traj.spec, phi)), times[k], xv))
        worst, t, xv = max(mismatches)
        assert 0 < t < times[-1]
        assert float(rows["weak_form_residual"]["t"]) == t
        assert float(rows["weak_form_residual"]["x_or_k"]) == xv
        margin = (exp.weak_residual_max - worst) / exp.weak_residual_max
        assert float(rows["weak_form_residual"]["worst_margin"]) == pytest.approx(margin, rel=1e-12)


def _with_first_count(text, cell):
    """Snapshot CSV text with the N cell of its first data row replaced."""
    lines = text.split("\r\n")
    lines[1] = lines[1].split(",")[0] + "," + cell
    return "\r\n".join(lines)


class TestVerifyArtifacts:
    """verify checks the snapshots simulate wrote; it never re-runs the solver."""

    @pytest.fixture
    def simulated(self, workspace):
        config, out = workspace
        assert main(["simulate", "--config", str(config), "--quiet"]) == EXIT_OK
        return config, out, sorted(out.glob("snapshot_*.csv"))

    def test_no_solver_rerun(self, simulated, monkeypatch):
        config, out, _ = simulated

        def no_run(*args, **kwargs):
            raise AssertionError("verify ran the solver")

        monkeypatch.setattr(cflab.cli, "simulate", no_run)
        monkeypatch.setattr(kinetic, "simulate", no_run)
        assert main(["verify", "--config", str(config), "--quiet"]) == EXIT_OK

    def test_deleted_snapshot_is_missing_artifact(self, simulated, capsys):
        config, out, snapshots = simulated
        snapshots[2].unlink()
        assert main(["verify", "--config", str(config), "--quiet"]) == EXIT_NOINPUT
        assert capsys.readouterr().err.startswith("missing artifact:")

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: "".join(text.splitlines(keepends=True)[:60]),  # rows dropped
            lambda text: text[: len(text) // 2],  # cut inside a row
            lambda text: _with_first_count(text, "not-a-number"),
            lambda text: text.replace("s,N", "size,N", 1),
            lambda text: text.replace("\r\n", ",0\r\n").replace("s,N,0", "s,N", 1),
            lambda text: _with_first_count(text, "-1"),
            lambda text: "",
        ],
        ids=["truncated", "cut-mid-row", "garbled", "header", "extra-column", "negative", "empty"],
    )
    def test_damaged_snapshot_is_data_error(self, simulated, capsys, damage):
        config, out, snapshots = simulated
        path = snapshots[1]
        path.write_bytes(damage(path.read_bytes().decode()).encode())
        assert main(["verify", "--config", str(config), "--quiet"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("artifact parse failure:") and "Traceback" not in err

    def test_extra_snapshot_is_data_error(self, simulated):
        config, out, snapshots = simulated
        (out / "snapshot_0009_t9.000000.csv").write_bytes(snapshots[0].read_bytes())
        assert main(["verify", "--config", str(config), "--quiet"]) == EXIT_DATA

    @pytest.mark.parametrize("old, new", [("n = 128", "n = 96"), ("ds = 0.25", "ds = 0.125")])
    def test_snapshots_of_another_grid_are_data_error(self, simulated, tmp_path, old, new):
        """n = 96 still holds the monodisperse start, but every snapshot has 128
        rows; ds = 0.125 keeps the rows, but not the s column."""
        config, out, _ = simulated
        other = tmp_path / "other_grid.ini"
        other.write_text(config.read_text().replace(old, new))
        assert main(["verify", "--config", str(other), "--quiet"]) == EXIT_DATA


class TestConvergence:
    def test_gap_monotonicity_helper(self):
        ok, _ = strictly_decreasing([3.0, 2.0, 1.0])
        assert ok
        ok, pair = strictly_decreasing([3.0, 2.0, 2.5])
        assert not ok and pair == (2.0, 2.5)

    def test_eps_list_validation(self, workspace, tmp_path):
        config, out = workspace
        text = config.read_text().replace("eps_list = 0.2, 0.1, 0.05", "eps_list = 0.05, 0.1")
        bad = tmp_path / "badeps.ini"
        bad.write_text(text)
        assert main(["convergence", "--config", str(bad), "--quiet"]) == EXIT_USAGE

    def test_convergence_run(self, workspace):
        config, out = workspace
        assert main(["convergence", "--config", str(config), "--quiet"]) == EXIT_OK
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "eps,sup_gap"
        gaps = [float(line.split(",")[1]) for line in lines[1:]]
        assert gaps[0] > gaps[1] > gaps[2]


class TestOtherCommands:
    def test_characteristics_exports(self, workspace):
        config, out = workspace
        assert main(["characteristics", "--config", str(config), "--quiet"]) == EXIT_OK
        fan_lines = (out / "fan.csv").read_text().splitlines()
        assert fan_lines[0] == "start_x,t,X,P,Z,terminated"
        assert (out / "characteristics_field.csv").is_file()

    def test_stochastic_exports(self, workspace):
        config, out = workspace
        assert main(["stochastic", "--config", str(config), "--quiet"]) == EXIT_OK
        lines = (out / "stochastic.csv").read_text().splitlines()
        assert lines[0].startswith("t,m0_mean")
        assert lines[1].split(",")[-1] == "6"

    def test_seed_override_changes_ensemble(self, workspace, tmp_path):
        config, out = workspace
        other = tmp_path / "out_seeded"
        assert main(["stochastic", "--config", str(config), "--quiet"]) == EXIT_OK
        assert main(
            ["stochastic", "--config", str(config), "--out", str(other), "--seed", "123", "--quiet"]
        ) == EXIT_OK
        assert (out / "stochastic.csv").read_bytes() != (other / "stochastic.csv").read_bytes()


def test_cold_start_imports_no_scipy(tmp_path):
    """All five subcommands run in a fresh interpreter without importing
    scipy, which would add about half a second to every `cflab` process."""
    out = tmp_path / "out"
    config = tmp_path / "exp.ini"
    config.write_text(BASE_CONFIG.format(out=out))
    script = (
        "import sys\n"
        "from cflab.cli import main\n"
        "for command in ('simulate', 'verify', 'characteristics', 'convergence', 'stochastic'):\n"
        "    main([command, '--config', sys.argv[1], '--quiet'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cflab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(config)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
    assert sorted(p.name for p in out.iterdir() if not p.name.startswith("snapshot_")) == [
        "characteristics_field.csv", "convergence.csv", "fan.csv", "stochastic.csv",
        "trajectory.csv", "verify_report.csv",
    ]
