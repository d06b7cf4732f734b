"""The README's library sketch runs as written, its example config is the
benchmark's, its config key table lists the keys that ``load_config`` reads,
its exit-code table matches the codes the program defines, and the exported
API is pinned."""
import configparser
import os
import re
import subprocess
import sys
from pathlib import Path

import cflab
import cflab.cli
from cflab import errors

README = Path(__file__).resolve().parents[1] / "README.md"
README_INI = README.parent / "perfbench" / "configs" / "readme.ini"

#: Every public name of a fresh ``import cflab``: the names that the README's
#: library sketch imports from it, and the submodules that they load.
EXPORTED = [
    "KernelSpec",
    "ScenarioParams",
    "SizeGrid",
    "SolverConfig",
    "bernstein",
    "characteristics",
    "core",
    "default_starts",
    "distribution_transform",
    "ensemble_moments",
    "errors",
    "field_from_trajectory",
    "integrate_fan",
    "kinetic",
    "make_initial",
    "reconstruct",
    "simulate",
    "stochastic",
]


def test_readme_library_sketch_runs(readme_sketch):
    assert {"traj", "field", "ens", "fan"} <= readme_sketch["namespace"].keys()
    assert readme_sketch["stdout"].startswith("hj_residual: PASS")


def fresh_import(code: str) -> str:
    """What ``code`` prints in a new interpreter, after ``import cflab``."""
    src = str(Path(cflab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import cflab, sys; {code}"], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_exported_names_are_pinned():
    assert fresh_import("print(*sorted(n for n in vars(cflab) if n[0] != '_'))").split() == EXPORTED
    assert len(EXPORTED) <= 18


def test_import_loads_no_checks_files_or_command_line():
    """``import cflab`` loads the engines and the transform, not the
    verification layer, the CSV files or the command line."""
    loaded = fresh_import("print(*sorted(m for m in sys.modules if m.startswith('cflab')))").split()
    assert not {"cflab.verification", "cflab.csvio", "cflab.cli"} & set(loaded)


def test_readme_config_is_the_benchmark_config():
    """The README's example config is ``perfbench/configs/readme.ini``, byte
    for byte, so the runs that the benchmark and the golden record make are
    the README's."""
    block = re.search(r"```ini\n(.*?)```", README.read_text(), flags=re.DOTALL).group(1)
    assert block == README_INI.read_text()


def config_key_table() -> dict:
    """{(section, key): (default, domain)}, one entry per row of the README's
    config key table; a row that repeats a key fails."""
    section = README.read_text().split("### Config keys", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| (.+?) \| (.+?) \|$", section, flags=re.MULTILINE)
    table = {(sec, key): (default, domain) for sec, key, default, domain in rows}
    assert len(table) == len(rows)
    return table


def test_readme_config_keys_are_the_keys_that_load_config_reads(tmp_path, monkeypatch):
    """The README's key table lists every key that ``load_config`` asks the
    parser for, on the README config and on its exponential variant, and no
    other key: a key cannot be documented and not read, or the reverse."""
    asked = set()
    has_option = configparser.ConfigParser.has_option

    def spy(self, section, option):
        asked.add((section, option))
        return has_option(self, section, option)

    monkeypatch.setattr(configparser.ConfigParser, "has_option", spy)
    for kind in ("monodisperse", "exponential"):
        config = tmp_path / f"{kind}.ini"
        config.write_text(README_INI.read_text().replace("kind = monodisperse", f"kind = {kind}"))
        cflab.cli.load_config(config)
    assert sorted(config_key_table()) == sorted(asked)


def test_readme_exit_codes_are_the_defined_codes():
    """Each code of the README's exit-code table is an ``EXIT_*`` name of the
    command line or the ``exit_code`` of an error class, and every such code
    has a row."""
    section = README.read_text().split("### Exit codes", 1)[1].split("\n#", 1)[0]
    documented = [int(code) for code in re.findall(r"^\|\s*(\d+)\s*\|", section, flags=re.MULTILINE)]
    named = {value for name, value in vars(cflab.cli).items() if name.startswith("EXIT_")}
    raised = {
        cls.exit_code for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.CfLabError)
    }
    assert sorted(documented) == sorted(named | raised) == documented
