"""Command line front end: exit-code contract, artifact schemas, determinism."""
import csv
import gc
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cflab

from cflab import errors, kinetic
from cflab.bernstein import bernstein_sums, field_from_trajectory, hj_residual_grid
from cflab.cli import (
    EXIT_BOUND_VIOLATION,
    EXIT_DATA,
    EXIT_NOINPUT,
    EXIT_OK,
    EXIT_SOLVER_ABORT,
    EXIT_USAGE,
    MAX_PARTICLES,
    MAX_STEPS,
    _default_stride,
    load_config,
    main,
)
from cflab.core import BoundReport, schedule
from cflab.kinetic import _weak_form_rates, simulate

README_INI = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "readme.ini"

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
hj_residual_max = 1e-2
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
        assert exp.initial.grid.n == 128
        assert exp.weak_x == (0.5, 1.0, 2.0)

    @pytest.mark.parametrize(
        "argv, err",
        [
            ([], "config error: cflab: the following arguments are required: command\n"),
            (["simulate"], "config error: cflab simulate: the following arguments are required: --config\n"),
            (["simulate", "--config", "x", "--seed", "q"],
             "config error: cflab simulate: argument --seed: invalid int value: 'q'\n"),
            (["simulate", "--config", str(README_INI), "--out", str(README_INI / "out")],
             f"config error: cannot make the output directory {README_INI / 'out'}: Not a directory\n"),
        ],
        ids=["no subcommand", "no config", "bad seed", "out under a file"],
    )
    def test_usage_error_is_one_line(self, capsys, argv, err):
        """A command line that argparse refuses, or whose --out cannot be
        made, exits 64 with one line, and no usage line or traceback before
        it; --help exits 0."""
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == err
        assert main(["simulate", "--help"]) == EXIT_OK

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize(
        "old, new",
        [
            ("ds = 0.25", "ds = -1"),
            ("n = 128", "n = 0"),
            ("output_every = 50", "output_every = 0"),
            ("dt = 1e-3", "dt = -1"),
            # a zero step would never leave t = 0
            pytest.param("[solver]\ndt = 1e-3", "[solver]\ndt = 0", id="[solver] dt = 0"),
            pytest.param("n_paths = 200\ndt = 1e-3", "n_paths = 200\ndt = 0", id="[characteristics] dt = 0"),
            # 200 steps in strides of 7 would end on a shorter last stride
            ("output_every = 50", "output_every = 7"),
            # the characteristics field is differenced up to 4th order in x
            ("nx = 32", "nx = 4"),
            # 200 fan steps recorded every 7 would end on a shorter last stride
            pytest.param(
                "x_lo = 0.6", "x_lo = 0.6\nrecord_every = 7", id="characteristics record_every = 7"
            ),
            # convergence reads [characteristics] n_paths, not this key
            pytest.param(
                "nx = 24", "nx = 24\nn_paths = 400", id="unread key [convergence] n_paths"
            ),
            # a standard error needs two replicas
            ("replicas = 6", "replicas = 1"),
            ("volume = 400", "volume = 0"),
            # volume * m0 particles: nan counts, or an array of 1e300 or 1e8 sizes
            ("volume = 400", "volume = inf"),
            ("volume = 400", "volume = 1e300"),
            ("volume = 400", "volume = 1e8"),
            ("t_grid = 0.0, 0.1", "t_grid = 0.1, 0.0"),
            # no row may hold a time before the run starts
            ("t_grid = 0.0, 0.1", "t_grid = -0.1, 0.1"),
            # a time that the ensemble never reaches would run it forever
            ("t_grid = 0.0, 0.1", "t_grid = nan"),
            ("t_grid = 0.0, 0.1", "t_grid = 0.0, 0.1, inf"),
            # numpy's generators take only nonnegative seeds
            ("seed = 7", "seed = -3"),
            # a fan needs two paths, and a start range above the drift
            pytest.param("n_paths = 200", "n_paths = 1", id="characteristics n_paths = 1"),
            pytest.param("x_lo = 0.6", "x_lo = 7", id="characteristics x_lo = 7"),
            ("eps_list = 0.2, 0.1, 0.05", "eps_list = 0.2, 0.1, -0.05"),
            # [verify] x_hi below the default [verify] x_lo = 1e-3
            ("x_hi = 5.0", "x_hi = 0.0001"),
            # the verify x grid is geometric, so it starts above 0
            pytest.param("x_hi = 5.0", "x_lo = 0\nx_hi = 5.0", id="verify x_lo = 0"),
            pytest.param("x_hi = 5.0", "x_lo = -1\nx_hi = 5.0", id="verify x_lo = -1"),
            # an x grid with an infinite end
            ("x_hi = 5.0", "x_hi = inf"),
            pytest.param("x_lo = 0.5\nx_hi = 4.0", "x_lo = -inf\nx_hi = 4.0", id="convergence x_lo = -inf"),
            # x * x of the fan's largest start overflows in the path equations
            pytest.param("x_lo = 0.6\nx_hi = 4.0", "x_lo = 0.6\nx_hi = 1e300", id="characteristics x_hi = 1e300"),
            pytest.param("x_lo = 0.5\nx_hi = 4.0", "x_lo = 0.5\nx_hi = 1e155", id="convergence x_hi = 1e155"),
            # a ceiling divides the margin, and one below 0 turns a FAIL into a PASS
            ("hj_residual_max = 1e-2", "hj_residual_max = 0"),
            ("hj_residual_max = 1e-2", "hj_residual_max = -1e-2"),
            ("hj_residual_max = 1e-2", "hj_residual_max = nan"),
            ("hj_residual_max = 1e-2", "hj_residual_max = inf"),
            ("weak_residual_max = 1e-2", "weak_residual_max = 0"),
            ("weak_residual_max = 1e-2", "weak_residual_max = -1e-2"),
            ("weak_residual_max = 1e-2", "weak_residual_max = nan"),
            # the weak form is checked on at least one bounded test function 1 - exp(-x s)
            *(
                pytest.param("weak_residual_max = 1e-2", f"weak_residual_max = 1e-2\nweak_x = {x}", id=f"weak_x = {x}")
                for x in ("", "0.5, -1", "0", "inf", "nan")
            ),
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

    def test_negative_seed_flag_is_usage_error_without_traceback(self, workspace, capsys):
        config, out = workspace
        assert main(["stochastic", "--config", str(config), "--seed", "-1", "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error:") and "--seed" in err and err.count("\n") == 1
        assert not out.exists()

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

    def test_zero_convergence_fan_step_is_usage_error_for_every_subcommand(self, workspace, tmp_path, capsys):
        """[characteristics] t_end = 0 and dt = 0 leave an empty characteristics
        fan, but convergence's fan would step through each snapshot stride by
        dt = 0: load_config rejects the plan, so every subcommand exits 64 with
        one config error line before any run."""
        config, out = workspace
        old = "n_paths = 200\ndt = 1e-3\nt_end = 0.2\n"
        assert old in config.read_text()
        bad = tmp_path / "zero_fan.ini"
        bad.write_text(config.read_text().replace(old, "n_paths = 200\ndt = 0\nt_end = 0\n"))
        for command in ("simulate", "verify", "convergence", "characteristics", "stochastic"):
            assert main([command, "--config", str(bad), "--quiet"]) == EXIT_USAGE, command
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.startswith("config error:") and err.count("\n") == 1
            assert "[characteristics]: dt = 0 must be positive" in err
            # the fan steps through the snapshot stride, not to a t_end the config never set
            assert "snapshot stride of [solver] output_every = 50 steps" in err
            assert "t_end =" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["custom", "lognormal"])
    def test_kind_a_config_cannot_set_names_the_kinds_it_can(self, workspace, tmp_path, capsys, kind):
        """make_initial knows two kinds: a config that asks for another, such
        as the former library-only custom, exits 64 with make_initial's one
        line, which names both."""
        config, out = workspace
        bad = tmp_path / "kind.ini"
        bad.write_text(config.read_text().replace("kind = monodisperse", f"kind = {kind}"))
        assert main(["simulate", "--config", str(bad), "--quiet"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"config error: bad value in {bad}: unknown initial kind '{kind}': "
            "the kinds are monodisperse and exponential\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, err",
        [
            ("kind = monodisperse", "kind = exponential\nlam = inf", "[initial] lam = inf must be positive and finite"),
            ("kind = monodisperse", "kind = exponential\nlam = 1e300",
             "bad value in {config}: exponential profile of rate lam = 1e+300 carries no mass on the grid"),
            # monodisperse reads size, not lam, but lam is checked under both kinds
            ("kind = monodisperse", "kind = monodisperse\nlam = nan", "[initial] lam = nan must be positive and finite"),
            # like [solver] t_end; before, it planned an empty fan and exited 3
            ("t_end = 0.2\nx_lo = 0.6", "t_end = -1\nx_lo = 0.6",
             "[characteristics] t_end = -1 must be nonnegative and finite"),
        ],
    )
    def test_a_bad_value_is_one_line_that_names_it(self, workspace, tmp_path, capsys, old, new, err):
        """Exit 64 with one config error line that names the key and the
        value, and no numpy warning (an error in this suite) or OverflowError
        before it."""
        config, out = workspace
        assert old in config.read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(config.read_text().replace(old, new))
        assert main(["simulate", "--config", str(bad), "--quiet"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {err.format(config=bad)}\n"
        assert not out.exists()

    def test_unread_keys_are_named_in_one_line(self, workspace, tmp_path, capsys):
        """Keys that nothing reads, such as the dropped [field] x_lo and x_hi,
        exit 64 before any run, named in one config error line."""
        config, out = workspace
        bad = tmp_path / "unread.ini"
        bad.write_text(config.read_text() + "\n[field]\nx_lo = 1e-3\nx_hi = 20.0\n[extra]\nkey = 1\n")
        assert main(["simulate", "--config", str(bad), "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert err.endswith("sets keys that cflab does not read: [field] x_lo, [field] x_hi, [extra] key\n")
        assert not out.exists()

    def test_verify_x_lo_starts_the_verify_grid(self, workspace, tmp_path):
        """[verify] x_lo is the first geometric x of verify_x, after the origin,
        and [verify] x_hi the last; left out, x_lo is 1e-3."""
        config, out = workspace
        assert load_config(config).verify_x[1] == 1e-3
        cfg = tmp_path / "verify_x_lo.ini"
        cfg.write_text(config.read_text().replace("[verify]\n", "[verify]\nx_lo = 0.02\n"))
        x = load_config(cfg).verify_x
        assert x[0] == 0.0 and np.array_equal(x[1:], np.geomspace(0.02, 5.0, 32))
        for x_lo in ("0", "-1"):
            cfg.write_text(config.read_text().replace("[verify]\n", f"[verify]\nx_lo = {x_lo}\n"))
            with pytest.raises(errors.ConfigError, match=rf"\[verify\] x_lo = {x_lo} must be positive"):
                load_config(cfg)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            # some 2e299 steps: output_every = 50 is set, so no stride search
            ("[solver]\ndt = 1e-3", "[solver]\ndt = 1e-300", "[solver] dt"),
            # left out, output_every would be a search over their divisors
            ("[solver]\ndt = 1e-3\nt_end = 0.2\noutput_every = 50", "[solver]\ndt = 1e-300\nt_end = 0.2", "[solver] dt"),
            # 2e8 steps, each a full RK4 step of the kinetic system
            ("[solver]\ndt = 1e-3", "[solver]\ndt = 1e-9", "[solver] dt"),
            # 1e8 steps of [solver] dt = 1e-3 for each convergence run
            ("nx = 24\n", "nx = 24\nt_hi = 1e5\n", "[convergence] t_hi"),
            # left out, record_every would be a search over the fan's steps
            ("n_paths = 200\ndt = 1e-3", "n_paths = 200\ndt = 1e-300", "[characteristics] dt"),
            ("n_paths = 200\ndt = 1e-3", "n_paths = 200\ndt = 1e-300\nrecord_every = 50", "[characteristics] dt"),
            # an empty characteristics fan, but convergence's fan steps at about dt
            ("n_paths = 200\ndt = 1e-3\nt_end = 0.2", "n_paths = 200\ndt = 1e-300\nt_end = 0", "[characteristics] dt"),
        ],
    )
    def test_a_step_count_above_the_cap_exits_64_within_a_second(self, workspace, tmp_path, capsys, old, new, key):
        """A plan of more than MAX_STEPS steps exits 64 with one line that names
        the key and the count, before any stride search over those steps."""
        config, out = workspace
        assert old in config.read_text()
        cfg = tmp_path / "many_steps.ini"
        cfg.write_text(config.read_text().replace(old, new))
        start = time.perf_counter()
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"{key} plans " in err and "steps of " in err and f"more than MAX_STEPS = {MAX_STEPS}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "stochastic"])
    def test_an_ensemble_above_the_cap_exits_64_within_a_second(self, workspace, tmp_path, capsys, command):
        """The ensemble has no step count, so load_config caps the events that a
        replica may take to the last t_grid time, event_rate_bound times it."""
        config, out = workspace
        cfg = tmp_path / "long_ensemble.ini"
        cfg.write_text(config.read_text().replace("t_grid = 0.0, 0.1", "t_grid = 0, 1e300"))
        start = time.perf_counter()
        assert main([command, "--config", str(cfg), "--quiet"]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "[stochastic] t_grid ends at t = 1e+300" in err and f"more than MAX_STEPS = {MAX_STEPS}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "stochastic"])
    def test_an_infinite_default_volume_is_usage_error(self, workspace, tmp_path, capsys, command):
        """Left out, the volume is that of 10^4 initial particles, 1e4 / m0,
        which overflows at mass 1e-310: one config line, not a RuntimeWarning
        in the ensemble's rounding."""
        config, out = workspace
        cfg = tmp_path / "tiny_mass.ini"
        cfg.write_text(config.read_text().replace("mass = 1.0", "mass = 1e-310").replace("volume = 400\n", ""))
        assert main([command, "--config", str(cfg), "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "[stochastic] volume: the ensemble's volume inf must be positive and finite" in err

    @pytest.mark.parametrize("x_hi", ["1000", "1e12"])
    def test_a_wide_characteristics_range_runs(self, workspace, tmp_path, x_hi):
        """Fan paths that start far out have nearly flat F, whose secants are
        so small that the node slopes' harmonic mean overflows on the way to
        its limit 0; characteristics runs and writes a finite field."""
        config, out = workspace
        old = "x_lo = 0.6\nx_hi = 4.0"
        assert old in config.read_text()
        cfg = tmp_path / "wide.ini"
        cfg.write_text(config.read_text().replace(old, f"x_lo = 0.6\nx_hi = {x_hi}"))
        assert main(["characteristics", "--config", str(cfg), "--quiet"]) == EXIT_OK
        field = np.loadtxt(out / "characteristics_field.csv", delimiter=",", skiprows=1, usecols=(0, 1, 2, 3, 4))
        assert np.isfinite(field).all() and field[:, 0].max() == float(x_hi)

    def test_plans_at_the_caps_load(self, workspace, tmp_path):
        """The step cap lies far above the workloads' 300 and 200 steps and
        below the 3e8 of dt = 1e-9 on the README t_end: a plan of exactly
        MAX_STEPS steps loads within a second, and so does a volume of exactly
        MAX_PARTICLES particles."""
        assert 300 * 1000 <= MAX_STEPS < 3e8
        config, out = workspace
        cfg = tmp_path / "at_the_caps.ini"
        cfg.write_text(
            config.read_text()
            .replace("[solver]\ndt = 1e-3", f"[solver]\ndt = {0.2 / MAX_STEPS!r}")
            .replace("volume = 400", f"volume = {MAX_PARTICLES}")
        )
        start = time.perf_counter()
        exp = load_config(cfg)
        assert time.perf_counter() - start < 1.0
        assert exp.solver.n_steps == MAX_STEPS
        assert exp.sto_volume * exp.initial.moment(0) == MAX_PARTICLES

    @given(n_steps=st.integers(0, 10 ** 5), snapshots=st.integers(1, 100))
    @settings(max_examples=300, deadline=None)
    def test_default_stride_is_the_countdown(self, n_steps, snapshots):
        """The largest divisor up to n_steps // snapshots, found from the
        divisor pairs, is the stride that counting down from there finds."""
        stride = max(1, n_steps // snapshots)
        while n_steps % stride:
            stride -= 1
        assert _default_stride(n_steps, snapshots) == stride

    def test_default_stride_divides_the_step_count(self, workspace, tmp_path):
        """205 steps with no stride given: a tenth would be 20, the largest
        divisor below it is 5, and verify runs on the uniform snapshots."""
        config, out = workspace
        text = config.read_text().replace("output_every = 50\n", "").replace(
            "t_end = 0.2\n", "t_end = 0.205\n"
        )
        cfg = tmp_path / "default_stride.ini"
        cfg.write_text(text)
        assert load_config(cfg).solver.output_every == 5
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == EXIT_OK
        assert main(["verify", "--config", str(cfg), "--quiet"]) == EXIT_OK


    def test_default_fan_stride_divides_the_fan_steps(self, workspace, tmp_path):
        """[characteristics] t_end = 0.21 gives 210 fan steps: a fiftieth would
        be 4, the largest divisor below it is 3, and the fan is checked on its
        71 uniformly spaced times."""
        config, out = workspace
        cfg = tmp_path / "fan_stride.ini"
        cfg.write_text(config.read_text().replace("t_end = 0.2\nx_lo = 0.6", "t_end = 0.21\nx_lo = 0.6"))
        assert load_config(cfg).char_fan["record_every"] == 3
        assert main(["characteristics", "--config", str(cfg), "--quiet"]) == EXIT_OK
        with open(out / "characteristics_field.csv", newline="") as fh:
            times = sorted({float(row["t"]) for row in csv.DictReader(fh)})
        assert len(times) == 71
        np.testing.assert_allclose(np.diff(times), 0.003, rtol=1e-9)

    @pytest.mark.parametrize(
        "t_end, steps, stride, records",
        [
            (None, 300, 6, 51),  # the README fan: 300 = 6 * 50
            ("0.32", 320, 5, 65),  # the largest divisor of 320 up to 6 records few enough times
            ("0.307", 312, 6, 53),  # 307 is prime: rounded up to 52 strides of 6
        ],
    )
    def test_default_fan_schedule_records_about_fifty_times(self, tmp_path, t_end, steps, stride, records):
        """Left out, record_every keeps the largest divisor of the fan's steps
        up to a fiftieth unless that records over 101 times; then the steps are
        rounded up to whole fiftieths and the fan's dt shortens by under 2 %.
        Convergence's fan keeps the configured dt, and an explicit
        record_every must still divide the configured steps."""
        text = README_INI.read_text()
        if t_end is not None:
            text = text.replace("[characteristics]\n", f"[characteristics]\nt_end = {t_end}\n")
        cfg = tmp_path / "fan.ini"
        cfg.write_text(text)
        exp = load_config(cfg)
        fan = exp.char_fan
        assert exp.conv_fan["dt"] == pytest.approx(1e-3, rel=1e-12)
        assert fan["record_every"] == stride
        assert round(fan["t_end"] / fan["dt"]) == steps
        assert steps // stride + 1 == records
        assert 1 - 0.02 < fan["dt"] / (fan["t_end"] / round(fan["t_end"] / 1e-3)) <= 1
        if steps == 312:
            cfg.write_text(text.replace("[characteristics]\n", "[characteristics]\nrecord_every = 6\n"))
            with pytest.raises(errors.ConfigError, match="does not divide the 307 steps"):
                load_config(cfg)


class TestErrorMapping:
    @pytest.mark.parametrize(
        "failure, code, err",
        [
            (errors.SolverAbort("x"), EXIT_SOLVER_ABORT, "solver abort: x\n"),
            (errors.FanCoverageError("x"), 3, "fan coverage: x\n"),
            (errors.MissingArtifactError("x"), EXIT_NOINPUT, "missing artifact: x\n"),
            (errors.CsvFormatError("x"), EXIT_DATA, "artifact parse failure: x\n"),
            (errors.GridError("x"), EXIT_USAGE, "grid error: x\n"),
            (errors.ConfigError("x"), EXIT_USAGE, "config error: x\n"),
            (errors.AbsorbingStateError("x"), EXIT_USAGE, "error: x\n"),
            (errors.FanCrossingError("x"), EXIT_SOLVER_ABORT, "fan crossing: x\n"),
            (
                BoundReport("mass_conservation", -1.0, 0.0, (0.0, "m1")),
                EXIT_BOUND_VIOLATION,
                "bound violation: mass_conservation FAIL in {out}/simulate_report.csv\n",
            ),
            (
                {"frag_eps = 0.1": "frag_eps = 1e300", "t_grid = 0.0, 0.1": "t_grid = 0"},
                EXIT_SOLVER_ABORT,
                "warning: dt=0.001 exceeds the stability guard 1.95e-304\n"
                "solver abort: non-finite counts; dt is far above the stability guard\n",
            ),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, (Exception, BoundReport, dict)) else None,
    )
    def test_each_failure_prints_one_line(self, workspace, monkeypatch, capsys, failure, code, err):
        """Each nonzero exit of simulate prints one ``label: message`` line,
        after the stability warning when dt exceeds the guard, and no
        RuntimeWarning: an error that the run raises, a FAIL row of its
        report, or a config whose fragmentation rates overflow (with
        ``t_grid = 0``, so the ensemble's event cap does not refuse it)."""
        config, out = workspace
        if isinstance(failure, dict):
            text = config.read_text()
            for old, new in failure.items():
                assert old in text
                text = text.replace(old, new)
            config.write_text(text)
        elif isinstance(failure, BoundReport):
            monkeypatch.setattr(cflab.cli, "mass_conservation_check", lambda traj: failure)
        else:

            def fail(*args, **kwargs):
                raise failure

            monkeypatch.setattr(cflab.cli, "simulate", fail)
        assert main(["simulate", "--config", str(config), "--quiet"]) == code
        assert capsys.readouterr().err == err.format(out=out)


class TestSimulate:
    def test_success_writes_artifacts(self, workspace):
        config, out = workspace
        assert main(["simulate", "--config", str(config), "--quiet"]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["simulate_report.csv", "snapshots.csv", "trajectory.csv"]

    @pytest.mark.parametrize(
        "command", ["simulate", "verify", "convergence", "characteristics", "stochastic"]
    )
    def test_runs_are_byte_identical(self, workspace, tmp_path, command):
        """Two runs of one config and seed write the same CSVs, byte for byte."""
        config, out = workspace
        other = tmp_path / "out2"
        for where in (out, other):
            if command == "verify":
                assert main(["simulate", "--config", str(config), "--out", str(where), "--quiet"]) == EXIT_OK
            assert main([command, "--config", str(config), "--out", str(where), "--quiet"]) == EXIT_OK
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names and names == sorted(p.name for p in other.glob("*.csv"))
        for name in names:
            assert (out / name).read_bytes() == (other / name).read_bytes(), name

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

    def test_stability_warning_is_printed_under_quiet(self, workspace, tmp_path, capsys):
        """dt = 2e-3 is above the stability guard of about 1.008e-3: the warning
        goes to stderr under --quiet too, and the run still exits 0."""
        config, out = workspace
        text = config.read_text().replace("[solver]\ndt = 1e-3", "[solver]\ndt = 2e-3")
        fast = tmp_path / "fast.ini"
        fast.write_text(text)
        assert main(["simulate", "--config", str(fast), "--quiet"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "warning: dt=0.002 exceeds the stability guard 0.00101\n"


class TestVerify:
    def test_missing_artifacts(self, workspace):
        config, out = workspace
        assert main(["verify", "--config", str(config), "--quiet"]) == EXIT_NOINPUT

    def test_truncation_occupancy_fails_simulate_and_verify(self, tmp_path, capsys):
        """The README config at mass 0.5 with exponential data fills the top
        bin to 1.954e-6 of the mass, over the 1e-9 tolerance: simulate and
        verify both exit 2, each with one stderr line, under --quiet too,
        that names truncation_occupancy alone and its report;
        truncation_occupancy, right after mass_conservation, is verify's one
        FAIL row, and simulate's report holds verify's first two rows."""
        text = README_INI.read_text()
        for old, new in (("mass = 1.0 ", "mass = 0.5 "), ("kind = monodisperse", "kind = exponential")):
            assert old in text
            text = text.replace(old, new)
        cfg, out = tmp_path / "m05.ini", tmp_path / "out"
        cfg.write_text(text)
        for command in ("simulate", "verify"):
            assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == EXIT_BOUND_VIOLATION
        assert capsys.readouterr().err == "".join(
            f"bound violation: truncation_occupancy FAIL in {out / name}\n"
            for name in ("simulate_report.csv", "verify_report.csv")
        )
        simulate_rows = (out / "simulate_report.csv").read_text().splitlines()
        assert simulate_rows == (out / "verify_report.csv").read_text().splitlines()[:3]
        with open(out / "verify_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["name"] for row in rows[:2]] == ["mass_conservation", "truncation_occupancy"]
        assert [row["name"] for row in rows if row["status"] == "FAIL"] == ["truncation_occupancy"]
        assert 1e-6 < 1e-9 * (1 - float(rows[1]["worst_margin"])) < 1e-5

    def test_tiny_x_lo_passes(self, tmp_path):
        """[verify] x_lo = 1e-300 on the README config cut to t_end = 0.05:
        G and the residual take m1 - Fx from the transform sums, not as a
        difference whose roundoff x divides, so every row passes."""
        text = README_INI.read_text()
        for old, new in (("t_end = 0.3\n", "t_end = 0.05\n"), ("[verify]\n", "[verify]\nx_lo = 1e-300\n")):
            assert text.count(old) == 1
            text = text.replace(old, new)
        cfg, out = tmp_path / "tiny_x.ini", tmp_path / "out"
        cfg.write_text(text)
        for command in ("simulate", "verify"):
            assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == EXIT_OK
        with open(out / "verify_report.csv", newline="") as fh:
            rows = {row["name"]: row for row in csv.DictReader(fh)}
        assert rows["g_eps_bound"]["status"] == rows["hj_residual"]["status"] == "PASS"

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

    def test_envelope_rows_keep_a_time_just_past_the_window(self, workspace, monkeypatch):
        """verify writes one envelope row per output time up to
        ENVELOPE_WINDOW * t_star, with envelope_check's 1e-12 relative slack:
        a time 5e-13 past the window's edge still gets its row."""
        config, out = workspace
        assert main(["simulate", "--config", str(config), "--quiet"]) == EXIT_OK
        exp = load_config(config)
        times, m2_0 = exp.solver.snapshot_times, exp.initial.moment(2)
        assert list(times) == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2])
        edge = times[3] * m2_0 * (1.0 - 5e-13)
        assert not times[3] <= edge * (1.0 / m2_0)  # outside the window without the slack
        monkeypatch.setattr(cflab.verification, "ENVELOPE_WINDOW", edge)
        assert main(["verify", "--config", str(config), "--quiet"]) == EXIT_OK
        with open(out / "verify_report.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["name"] == "second_moment_envelope"]
        assert [float(r["t"]) for r in rows] == list(times[:4])


    def test_report_locations_are_the_true_worst(self, workspace):
        """hj_residual reports the argmax (t, x) of the grid-exact residual
        over interior times and x > 0; complete_monotonicity_exact reports the
        snapshot time and the x of its smallest signed derivative on the
        verify window; weak_form_residual reports the interior snapshot time
        and the weak_x of its largest mismatch; mass_conservation reports the
        snapshot time of the largest drift, and g_eps_bound the (t, x) of the
        largest |G_eps|."""
        config, out = workspace
        assert main(["simulate", "--config", str(config), "--quiet"]) == EXIT_OK
        main(["verify", "--config", str(config), "--quiet"])
        with open(out / "verify_report.csv", newline="") as fh:
            rows = {row["name"]: row for row in csv.DictReader(fh)}

        exp = load_config(config)
        traj = simulate(exp.solver, exp.initial)
        field = field_from_trajectory(traj, exp.verify_x)
        res = np.abs(hj_residual_grid(field, exp.scenario, exp.solver.spec.frag_eps, exp.initial.grid.ds))
        res[0] = res[-1] = -np.inf  # one-sided time rows
        res[:, field.x <= 0] = -np.inf
        i, j = np.unravel_index(np.nanargmax(res), res.shape)
        assert 0 < i < field.times.size - 1
        assert float(rows["hj_residual"]["t"]) == field.times[i]
        assert float(rows["hj_residual"]["x_or_k"]) == field.x[j]

        counts, times = traj.counts, traj.times
        _, D, _ = bernstein_sums(traj.grid, counts, field.x, 6)  # D[t, k - 1, x] >= 0: the signed derivatives
        r, _, j = np.unravel_index(np.argmin(D), D.shape)
        assert float(rows["complete_monotonicity_exact"]["t"]) == times[r]
        assert float(rows["complete_monotonicity_exact"]["x_or_k"]) == field.x[j] <= exp.verify_x[-1]

        mismatches = []
        for xv in exp.weak_x:
            phi_s = -np.expm1(-xv * traj.grid.sizes)
            total = [float(np.dot(phi_s, c)) for c in counts]
            for k in range(1, len(counts) - 1):
                lhs = (total[k + 1] - total[k - 1]) / (times[k + 1] - times[k - 1])
                rate = _weak_form_rates(traj.grid, traj.spec, phi_s, counts[k : k + 1])[0]
                mismatches.append((abs(lhs - rate), times[k], xv))
        worst, t, xv = max(mismatches)
        assert 0 < t < times[-1]
        assert float(rows["weak_form_residual"]["t"]) == t
        assert float(rows["weak_form_residual"]["x_or_k"]) == xv
        margin = (exp.weak_residual_max - worst) / exp.weak_residual_max
        assert float(rows["weak_form_residual"]["worst_margin"]) == pytest.approx(margin, rel=1e-12)

        drift = list(traj.moments.mass_drift)
        k = max(range(len(drift)), key=lambda k: (drift[k], -k))  # ties go to the earliest
        assert float(rows["mass_conservation"]["t"]) == times[k]
        assert rows["mass_conservation"]["x_or_k"] == "m1"

        worst_g, t_g, x_g = -1.0, None, None
        for i, t in enumerate(field.times):
            for j, x in enumerate(field.x):
                if abs(field.g_eps[i, j]) > worst_g:
                    worst_g, t_g, x_g = abs(field.g_eps[i, j]), t, x
        assert 0 < x_g
        assert (float(rows["g_eps_bound"]["t"]), float(rows["g_eps_bound"]["x_or_k"])) == (t_g, x_g)


def fan_loop_worst(path, scenario):
    """(margin, location) of four fan checks from loops over fan.csv: per path,
    then per time, for the per-path checks (at (t, path)); per time, then per
    adjacent gap among the surviving paths, for the cross-path ones (at
    (t, gap), a second difference at its lower gap)."""
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    times = np.unique(data[:, 1])
    x, p, z, dead = (data[:, c].reshape(times.size, -1) for c in (2, 3, 4, 5))
    m, floor = scenario.m, -1.0 / (scenario.t_star - times[-1])
    worst = {}

    def offer(name, value, where):
        if value < worst.get(name, (np.inf,))[0]:
            worst[name] = (float(value), where)

    for jp in range(x.shape[1]):
        for i, t in enumerate(times):
            if not dead[i, jp]:
                offer("p_within_[0,m]", min(p[i, jp], m - p[i, jp]), (t, jp))
                offer("dp_nonnegative", (z[i, jp] / x[i, jp] - p[i, jp]) / x[i, jp], (t, jp))
    for i, t in enumerate(times):
        xs, zs = x[i, dead[i] == 0], z[i, dead[i] == 0]
        quot = [(zs[g + 1] - zs[g]) / (xs[g + 1] - xs[g]) for g in range(xs.size - 1)]
        for g, q in enumerate(quot):
            offer("slope_quotients_in_[0,m]", min(q, m - q), (t, g))
        for g in range(len(quot) - 1):
            second = 2.0 * (quot[g + 1] - quot[g]) / (xs[g + 2] - xs[g])
            offer("curvature_within_envelope", min(second - floor, -second), (t, g))
    return worst


def _with_count(text, row, cell):
    """Snapshot table text with the first count of data row ``row`` replaced."""
    lines = text.split("\r\n")
    cells = lines[row].split(",")
    lines[row] = ",".join([cells[0], cell, *cells[2:]])
    return "\r\n".join(lines)


def _each_row(text, edit):
    """Snapshot table text with ``edit`` applied to the cells of each data row."""
    lines = text.split("\r\n")
    return "\r\n".join(lines[:1] + [",".join(edit(line.split(","))) if line else line for line in lines[1:]])


class TestVerifyArtifacts:
    """verify checks the snapshot table simulate wrote from this config; it
    never re-runs the solver."""

    @pytest.fixture
    def simulated(self, workspace):
        config, out = workspace
        assert main(["simulate", "--config", str(config), "--quiet"]) == EXIT_OK
        return config, out, out / "snapshots.csv"

    def test_no_solver_rerun(self, simulated, monkeypatch):
        config, out, _ = simulated

        def no_run(*args, **kwargs):
            raise AssertionError("verify ran the solver")

        monkeypatch.setattr(cflab.cli, "simulate", no_run)
        monkeypatch.setattr(kinetic, "simulate", no_run)
        assert main(["verify", "--config", str(config), "--quiet"]) == EXIT_OK

    def test_rebuilt_moments_equal_the_trajectory_columns(self, simulated):
        """The moments, mass drift and top-bin occupancy that verify derives
        from the counts are trajectory.csv's columns, bit for bit."""
        config, out, _ = simulated
        traj = cflab.cli._read_run(load_config(config), out)
        columns = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        rebuilt = np.column_stack(
            [traj.times, traj.moments.moments, traj.moments.mass_drift, traj.moments.top_bin_occupancy]
        )
        assert rebuilt.tobytes() == columns.tobytes()

    def test_deleted_table_is_missing_artifact(self, simulated, capsys):
        config, out, table = simulated
        table.unlink()
        assert main(["verify", "--config", str(config), "--quiet"]) == EXIT_NOINPUT
        assert capsys.readouterr().err.startswith("missing artifact:")

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: _each_row(text, lambda cells: cells[:60]),  # counts dropped
            lambda text: text[: len(text) // 2],  # cut inside a row
            lambda text: _with_count(text, 2, "not-a-number"),
            lambda text: text.replace("t,", "time,", 1),
            lambda text: _each_row(text, lambda cells: [*cells, "0"]),
            lambda text: _with_count(text, 2, "-1"),
            lambda text: "",
            # the schedule check catches a table cut between two rows
            lambda text: "".join(text.splitlines(keepends=True)[:3]),
        ],
        ids=["truncated", "cut-mid-row", "garbled", "header", "extra-column", "negative", "empty",
             "cut-at-row"],
    )
    def test_damaged_table_is_data_error(self, simulated, capsys, damage):
        config, out, table = simulated
        table.write_bytes(damage(table.read_bytes().decode()).encode())
        assert main(["verify", "--config", str(config), "--quiet"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("artifact parse failure:") and err.count("\n") == 1

    @pytest.mark.parametrize("old, new", [("n = 128", "n = 96"), ("ds = 0.25", "ds = 0.125")])
    def test_snapshots_of_another_grid_are_data_error(self, simulated, tmp_path, old, new):
        """n = 96 still holds the monodisperse start, but every row has 128
        counts; ds = 0.125 keeps the counts, but not the sizes of the header."""
        config, out, _ = simulated
        other = tmp_path / "other_grid.ini"
        other.write_text(config.read_text().replace(old, new))
        assert main(["verify", "--config", str(other), "--quiet"]) == EXIT_DATA

    def test_run_of_another_mass_is_data_error(self, simulated, tmp_path, capsys):
        """A mass-1 run checked with the config at mass 2: same grid and
        schedule, but its first row is not this config's initial data."""
        config, out, _ = simulated
        other = tmp_path / "mass2.ini"
        other.write_text(config.read_text().replace("mass = 1.0", "mass = 2.0"))
        assert main(["verify", "--config", str(other), "--quiet"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("artifact parse failure:") and err.count("\n") == 1

    def test_stale_directory_is_verified_as_a_fresh_one(self, workspace, tmp_path):
        """simulate at stride 25 and then at stride 50 into one directory:
        verify at stride 50 checks the second run only, and passes with the
        report of a fresh directory."""
        config, out = workspace
        stride_50, stride_25 = tmp_path / "stride50.ini", tmp_path / "stride25.ini"
        stride_50.write_text(config.read_text())
        stride_25.write_text(config.read_text().replace("output_every = 50", "output_every = 25"))
        fresh = tmp_path / "fresh"
        for cfg, where in ((stride_25, out), (stride_50, out), (stride_50, fresh)):
            assert main(["simulate", "--config", str(cfg), "--out", str(where), "--quiet"]) == EXIT_OK
        for where in (out, fresh):
            assert main(["verify", "--config", str(stride_50), "--out", str(where), "--quiet"]) == EXIT_OK
        assert (out / "verify_report.csv").read_bytes() == (fresh / "verify_report.csv").read_bytes()


class TestConvergence:
    @pytest.mark.parametrize(
        "gaps, statuses",
        [
            ((3.0, 2.0, 1.0), ["PASS", "PASS"]),
            ((3.0, 2.0, 2.5), ["PASS", "FAIL"]),
            ((3.0, 2.0, 2.0), ["PASS", "FAIL"]),
            ((3.0, 0.0, 0.0), ["PASS", "FAIL"]),
            ((3.0, np.nan, 1.0), ["FAIL", "FAIL"]),
        ],
        ids=["decreasing", "increasing", "equal", "zero", "nan"],
    )
    def test_report_rows(self, workspace, monkeypatch, capsys, gaps, statuses):
        """convergence_report.csv holds one sup_gap_decrease row per adjacent
        eps pair, located at the pair's eps values, whose margin is the
        relative decrease of the sup gap; an equal, zero or nan gap fails,
        and a FAIL exits 2 with one stderr line.  The per-eps fields are
        stubbed so that their sup gaps against a zero limit are ``gaps``."""
        config, out = workspace
        gap_of = dict(zip((0.2, 0.1, 0.05), gaps))
        monkeypatch.setattr(cflab.cli, "simulate", lambda run, initial: run.spec.frag_eps)
        monkeypatch.setattr(cflab.cli, "field_from_trajectory",
                            lambda eps, x: SimpleNamespace(F=np.full(3, gap_of[eps]), times=None))
        monkeypatch.setattr(cflab.cli, "integrate_fan", lambda *args, **kwargs: None)
        monkeypatch.setattr(cflab.cli, "fan_to_field", lambda fan, x, times: SimpleNamespace(F=np.zeros(3)))
        failed = "FAIL" in statuses
        assert main(["convergence", "--config", str(config), "--quiet"]) == (
            EXIT_BOUND_VIOLATION if failed else EXIT_OK
        )
        path = out / "convergence_report.csv"
        assert capsys.readouterr().err == (f"bound violation: sup_gap_decrease FAIL in {path}\n" if failed else "")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["name"] for row in rows] == ["sup_gap_decrease"] * 2
        assert [row["status"] for row in rows] == statuses
        assert [(float(row["t"]), float(row["x_or_k"])) for row in rows] == [(0.2, 0.1), (0.1, 0.05)]
        for row, a, b in zip(rows, gaps, gaps[1:]):
            margin = float(row["worst_margin"])
            assert margin == (a - b) / a if a > 0 and not np.isnan(b) else np.isnan(margin)

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
        with open(out / "convergence_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows] == ["PASS", "PASS"]
        assert [float(row["worst_margin"]) for row in rows] == [(a - b) / a for a, b in zip(gaps, gaps[1:])]


class TestOtherCommands:
    def test_characteristics_exports(self, workspace):
        config, out = workspace
        assert main(["characteristics", "--config", str(config), "--quiet"]) == EXIT_OK
        fan_lines = (out / "fan.csv").read_text().splitlines()
        assert fan_lines[0] == "start_x,t,X,P,Z,terminated"
        assert (out / "characteristics_field.csv").is_file()

    def test_characteristics_report(self, workspace):
        """Every fan check and the sampled complete monotonicity of the field
        pass; the sampled row is located at a fan time and an x of the field,
        and four fan rows at the worst (t, path) or (t, gap) that loops over
        fan.csv find."""
        config, out = workspace
        assert main(["characteristics", "--config", str(config), "--quiet"]) == EXIT_OK
        with open(out / "characteristics_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["name"] for row in rows] == [
            "p_within_[0,m]", "p_nondecreasing", "dp_nonnegative", "non_crossing",
            "slope_quotients_in_[0,m]", "curvature_within_envelope",
            "x_spread_factor_nondecreasing", "complete_monotonicity_sampled",
        ]
        assert all(row["status"] == "PASS" for row in rows)
        with open(out / "characteristics_field.csv", newline="") as fh:
            field = {(float(r["t"]), float(r["x"])) for r in csv.DictReader(fh)}
        sampled = rows[-1]
        t, x = float(sampled["t"]), float(sampled["x_or_k"])
        assert any(ft == t for ft, _ in field)
        assert min(fx for _, fx in field) < x < max(fx for _, fx in field)

        exp = load_config(config)
        located = {row["name"]: (float(row["t"]), int(row["x_or_k"])) for row in rows[:-2]}
        for name, (margin, where) in fan_loop_worst(out / "fan.csv", exp.scenario).items():
            assert located[name] == where, name
            assert float(next(r for r in rows if r["name"] == name)["worst_margin"]) == margin, name

    def test_simulate_mass_drift_fail_is_bound_violation(self, workspace, monkeypatch, capsys):
        """simulate's exit verdict on mass drift is the mass_conservation row."""
        config, out = workspace
        failing = BoundReport("mass_conservation", -1.0, 0.0, (0.0, "m1"))
        monkeypatch.setattr(cflab.cli, "mass_conservation_check", lambda traj: failing)
        assert main(["simulate", "--config", str(config), "--quiet"]) == EXIT_BOUND_VIOLATION
        assert capsys.readouterr().err == f"bound violation: mass_conservation FAIL in {out / 'simulate_report.csv'}\n"
        assert (out / "simulate_report.csv").read_text().splitlines()[1].startswith("mass_conservation,FAIL,")

    def test_characteristics_fail_is_bound_violation(self, workspace, monkeypatch):
        config, out = workspace
        failing = BoundReport("complete_monotonicity_sampled", -1.0, 1e-4, (0.0, 1.0))
        monkeypatch.setattr(cflab.cli, "cm_sampled_check", lambda field: failing)
        assert main(["characteristics", "--config", str(config), "--quiet"]) == EXIT_BOUND_VIOLATION
        lines = (out / "characteristics_report.csv").read_text().splitlines()
        assert lines[-1].startswith("complete_monotonicity_sampled,FAIL,")

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


def test_only_the_process_entry_freezes_the_import_objects(workspace, tmp_path):
    """main(argv) leaves the collector as it is; main() as the entry of its
    own process freezes the objects that the imports made, once."""
    config, out = workspace
    before = gc.get_freeze_count()
    assert main(["simulate", "--config", str(config), "--quiet"]) == EXIT_OK
    assert gc.get_freeze_count() == before
    script = (
        "import gc, sys\n"
        "from cflab.cli import main\n"
        "frozen = gc.get_freeze_count()\n"
        "sys.argv[1:] = ['simulate', '--config', sys.argv[1], '--out', sys.argv[2], '--quiet']\n"
        "code = main()\n"
        "print(frozen, gc.get_freeze_count(), code)\n"
    )
    src = str(Path(cflab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(config), str(tmp_path / "entry")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    frozen_before, frozen_after, code = map(int, done.stdout.split())
    assert frozen_before == 0 and frozen_after > 10_000 and code == EXIT_OK


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
    assert sorted(p.name for p in out.iterdir()) == [
        "characteristics_field.csv", "characteristics_report.csv", "convergence.csv", "convergence_report.csv",
        "fan.csv", "simulate_report.csv", "snapshots.csv", "stochastic.csv", "trajectory.csv", "verify_report.csv",
    ]


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("lines_read", [1, 0], ids=["closed after one line", "closed at once"])
def test_a_closed_stdout_is_not_a_crash(workspace, unbuffered, lines_read):
    """characteristics into a pipe whose reader closes it after one line, or
    before the first: the subcommand prints nothing more, with no traceback
    and no "Exception ignored" line, writes every artifact and exits with the
    code of its checks."""
    config, out = workspace
    src = str(Path(cflab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               PYTHONUNBUFFERED=unbuffered)
    command = [sys.executable, "-m", "cflab.cli", "characteristics", "--config", str(config)]
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as child:
        first = [child.stdout.readline() for _ in range(lines_read)]
        child.stdout.close()
        err = child.stderr.read()
    assert child.wait(timeout=300) == EXIT_OK
    assert err == ""
    assert [line.startswith("fan of 200 paths") for line in first] == [True] * lines_read
    fan = load_config(config).char_fan
    recorded = schedule(fan["t_end"], fan["dt"], fan["record_every"], "record_every")[1]
    assert len((out / "fan.csv").read_text().splitlines()) == 1 + recorded.size * len(fan["starts"])
    assert (out / "characteristics_report.csv").read_text().count(",PASS,") == 8


def _tasks_after(code, blas_threads):
    """(threads of a fresh interpreter after ``code``, its OPENBLAS_NUM_THREADS
    then), with the variable set to ``blas_threads`` or, for None, unset."""
    src = str(Path(cflab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    report = "import os; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"{code}; {report}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    tasks, value = done.stdout.split()
    return int(tasks), None if value == "None" else value


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task")
class TestBlasPool:
    """``import cflab`` loads numpy with a one-thread OpenBLAS pool and leaves
    the caller's OPENBLAS_NUM_THREADS as it found it."""

    @pytest.mark.parametrize("blas_threads", ["2", None])
    def test_import_starts_no_blas_worker(self, blas_threads):
        assert _tasks_after("import cflab", blas_threads) == (1, blas_threads)

    def test_a_caller_that_loaded_numpy_keeps_its_pool(self):
        assert _tasks_after("import numpy; import cflab", "2") == _tasks_after("import numpy", "2")
