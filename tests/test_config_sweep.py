"""Every key of the README's config key table, set in turn to each of nine
awkward values on a short run of the README config.  Each case ends in a
documented exit code and one stderr line; a value outside the key's
documented domain ends in exit 64 and the one line that names the key, the
value and the domain."""
import configparser
import io
import math
import re

import pytest

from cflab.cli import main
from test_docs import README_INI, config_key_table

VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300", "3", "1e-9")

KEYS = config_key_table()

#: The README config with a shorter kinetic run and fans (t = 0.05, 50
#: steps), a smaller ensemble and fewer fan paths.
SHORT = {
    ("solver", "t_end"): "0.05",
    ("stochastic", "replicas"): "4",
    ("stochastic", "volume"): "100",
    ("characteristics", "n_paths"): "200",
}

#: The subcommands that a case of each section runs, in order, up to the
#: first nonzero exit; simulate otherwise.
COMMANDS = {
    "verify": ("simulate", "verify"),
    "stochastic": ("stochastic",),
    "convergence": ("convergence",),
    "characteristics": ("characteristics",),
}

#: The tests of the domains that the table names.
DOMAINS = {
    "positive and finite": lambda v: 0 < v < math.inf,
    "nonnegative and finite": lambda v: 0 <= v < math.inf,
    "nonnegative": lambda v: v >= 0,
    "finite": math.isfinite,
}

STABILITY_WARNING = re.compile(r"warning: dt=\S+ exceeds the stability guard \S+")

# each case once on the README's monodisperse config; size and lam, each read
# by one kind, again under the other
CASES = [
    pytest.param("monodisperse", section, key, value, id=f"[{section}] {key} = {value}")
    for section, key in KEYS
    for value in VALUES
] + [
    pytest.param("exponential", "initial", key, value, id=f"exponential [initial] {key} = {value}")
    for key in ("size", "lam")
    for value in VALUES
]


def in_domain(domain: str, value: str) -> bool:
    """Whether ``value``, as one number or a list of one, lies in the
    table's ``domain``."""
    if domain == "text":
        return True
    domain = domain.removeprefix("one or more numbers, each ")
    at_least = re.fullmatch(r"an integer at least (\d+)", domain)
    if at_least:
        return re.fullmatch(r"-?\d+", value) is not None and int(value) >= int(at_least[1])
    return DOMAINS[domain](float(value))


def sweep_config(changes: dict) -> str:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(README_INI.read_text())
    for (section, key), value in changes.items():
        cp.set(section, key, value)
    text = io.StringIO()
    cp.write(text)
    return text.getvalue()


@pytest.mark.parametrize("kind, section, key, value", CASES)
def test_each_value_ends_in_one_line(tmp_path, monkeypatch, capsys, kind, section, key, value):
    """Exit 0, 1 as a solver abort or fan crossing, 2, 3 or 64, with no
    stderr line on exit 0 and one otherwise, apart from the stability
    warning; a value exits 64 with the one line that names it and its
    domain exactly when the README's domain leaves it out.  ``[initial]
    kind`` has ``make_initial``'s line."""
    monkeypatch.chdir(tmp_path)  # [outputs] dir is relative
    config = tmp_path / "sweep.ini"
    config.write_text(sweep_config({**SHORT, ("initial", "kind"): kind, (section, key): value}))
    for command in COMMANDS.get(section, ("simulate",)):
        code = main([command, "--config", str(config), "--quiet"])
        if code:
            break
    lines = capsys.readouterr().err.splitlines()
    if lines and STABILITY_WARNING.fullmatch(lines[0]):
        lines = lines[1:]
    assert code in (0, 1, 2, 3, 64)
    assert len(lines) == (code != 0), lines
    if code == 1:
        assert lines[0].startswith(("solver abort: ", "fan crossing: "))
    default, domain = KEYS[section, key]
    if key == "kind":
        assert code == 64 and lines[0].endswith(f"unknown initial kind '{value}': the kinds are monodisperse and exponential")
    else:  # refused by its domain, and by the documented domain alone
        refused = code == 64 and lines == [f"config error: [{section}] {key} = {value} must be {domain}"]
        assert refused == (not in_domain(domain, value))
