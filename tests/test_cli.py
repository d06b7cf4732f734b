"""Command line front end: exit-code contract, artifact schemas, determinism."""
import pytest

from cflab.cli import (
    EXIT_BOUND_VIOLATION,
    EXIT_DATA,
    EXIT_NOINPUT,
    EXIT_OK,
    EXIT_SOLVER_ABORT,
    EXIT_USAGE,
    load_config,
    main,
    strictly_decreasing,
)

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

    def test_convergence_run(self, workspace, monkeypatch):
        config, out = workspace
        monkeypatch.setenv("CF_LAB_THREADS", "2")
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
