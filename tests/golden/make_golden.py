"""Golden record of every CSV that the two benchmark workloads write.

The workloads are all five subcommands on ``perfbench/configs/readme.ini``
and ``simulate`` then ``verify`` on ``perfbench/configs/fine-grid.ini``, run
in one process through ``cflab.cli.main``.  The record holds each run's
exit code and, per CSV, its SHA-256, its row count and a digest of each
column: the sum, min and max of its finite numeric cells, the count of its
other numeric cells (nan, inf), and its text cells in order.  It also holds
the numpy major.minor and the ``platform.machine()`` that made it, since
numpy is not pinned and its kernels may round differently elsewhere.

    PYTHONPATH=src python tests/golden/make_golden.py

rewrites ``golden.json`` next to this script.  A change that moves output
bytes on purpose reruns it and names the CSVs that moved, and why.
"""
import csv
import hashlib
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
CONFIGS = ROOT / "perfbench" / "configs"
RECORD = Path(__file__).with_name("golden.json")
WORKLOADS = {
    "readme": ("simulate", "verify", "convergence", "characteristics", "stochastic"),
    "fine-grid": ("simulate", "verify"),
}


def environment() -> dict:
    """The numpy major.minor and the machine whose bytes a record holds."""
    return {"numpy": ".".join(np.__version__.split(".")[:2]), "machine": platform.machine()}


def run_workloads(out_root) -> dict:
    """Run every workload subcommand, each workload into ``out_root / name``;
    the exit code of each run, keyed ``workload/subcommand``."""
    from cflab.cli import main

    codes = {}
    for name, commands in WORKLOADS.items():
        config, out = CONFIGS / f"{name}.ini", Path(out_root) / name
        for command in commands:
            codes[f"{name}/{command}"] = main([command, "--config", str(config), "--out", str(out), "--quiet"])
    return codes


def digest(path) -> dict:
    """SHA-256 of one CSV and of its header, its row count, and one digest
    per column: the text ``"numbers nonfinite sum min max"``, where numbers
    counts the finite numeric cells, nonfinite the nan and inf ones, and sum
    (``math.fsum``), min and max run over the finite ones.  The text cells of
    each column that has any are listed in order under its index."""
    data = Path(path).read_bytes()
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    columns, text = [], {}
    for j, cells in enumerate(zip(*rows)):
        finite, nonfinite = [], 0
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                text.setdefault(str(j), []).append(cell)
                continue
            if math.isfinite(value):
                finite.append(value)
            else:
                nonfinite += 1
        stats = (math.fsum(finite), min(finite), max(finite)) if finite else ()
        columns.append(" ".join(map(repr, (len(finite), nonfinite, *stats))))
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "header_sha256": hashlib.sha256(",".join(header).encode()).hexdigest(),
        "rows": len(rows),
        "columns": columns,
        "text": text,
    }


def record(out_root, codes) -> dict:
    """The golden record of the runs whose CSVs lie under ``out_root``."""
    files = {
        f"{name}/{path.name}": digest(path)
        for name in WORKLOADS
        for path in sorted((Path(out_root) / name).glob("*.csv"))
    }
    return {**environment(), "exit_codes": codes, "files": files}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        golden = record(tmp, run_workloads(tmp))
    RECORD.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}: {len(golden['files'])} CSVs, exit codes {golden['exit_codes']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
