"""CSV artifact writers and readers.

CSV is the only output format; headers are always present and floats are
printed with 17 significant digits so double precision round-trips losslessly
and identical runs produce byte-identical files.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .bernstein import BernsteinField
from .characteristics import CharacteristicFan
from .core import Distribution, SizeGrid
from .errors import CsvFormatError, MissingArtifactError
from .kinetic import Trajectory
from .stochastic import EnsembleMoments

TRAJECTORY_HEADER = ["t", "m0", "m1", "m2", "m3", "m4", "m5", "mass_drift", "top_bin_occupancy"]
SNAPSHOT_HEADER = ["s", "N"]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _row_template(kinds) -> str:
    """One ``%`` template printing a row of these cell types as ``_fmt`` prints
    each cell, or "" for a row holding a string, which needs csv quoting."""
    if any(issubclass(kind, str) for kind in kinds):
        return ""
    cells = ("%d" if issubclass(kind, (bool, np.bool_, int, np.integer)) else "%.17g" for kind in kinds)
    return ",".join(cells) + "\r\n"


def write_rows(path, header, rows):
    """Header and rows as CSV with the CRLF line ends of ``csv.writer``.

    Numeric rows are formatted whole by one template per sequence of cell
    types; rows holding strings go through ``csv.writer``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    templates = {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            if kinds not in templates:
                templates[kinds] = _row_template(kinds)
            if templates[kinds]:
                fh.write(templates[kinds] % row)
            else:
                writer.writerow([_fmt(v) for v in row])


def write_trajectory_csv(path, traj: Trajectory):
    series = traj.moments
    occupancy = traj.metadata.get("top_bin_occupancy", np.zeros_like(series.times))
    rows = (
        (series.times[i], *series.moments[i], series.mass_drift[i], occupancy[i])
        for i in range(series.times.size)
    )
    write_rows(path, TRAJECTORY_HEADER, rows)


def read_trajectory_csv(path) -> dict:
    """Columns of a trajectory artifact as float arrays, schema-checked."""
    path = Path(path)
    if not path.is_file():
        raise MissingArtifactError(f"trajectory artifact not found: {path}")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != TRAJECTORY_HEADER:
                raise CsvFormatError(f"unexpected trajectory header in {path}: {header}")
            data = [[float(v) for v in row] for row in reader if row]
    except (ValueError, IndexError) as exc:
        raise CsvFormatError(f"cannot parse trajectory CSV {path}: {exc}") from exc
    if not data:
        raise CsvFormatError(f"trajectory CSV {path} holds no rows")
    arr = np.asarray(data)
    if arr.shape[1] != len(TRAJECTORY_HEADER):
        raise CsvFormatError(f"trajectory CSV {path} has ragged rows")
    return {name: arr[:, i] for i, name in enumerate(TRAJECTORY_HEADER)}


def write_snapshot_csv(path, dist: Distribution):
    write_rows(path, SNAPSHOT_HEADER, zip(dist.grid.sizes, dist.counts))


def read_snapshot_csv(path, grid: SizeGrid) -> Distribution:
    """Distribution of a snapshot artifact, parsed a whole column at a time.

    The file must hold one row per bin of ``grid``, and its ``s`` column must
    be the grid's sizes exactly, as the 17-digit writer prints them.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingArtifactError(f"snapshot artifact not found: {path}")
    try:
        lines = path.read_text().splitlines()
        if lines[:1] != [",".join(SNAPSHOT_HEADER)]:
            raise CsvFormatError(f"unexpected snapshot header in {path}: {lines[:1]}")
        if len(lines) - 1 != grid.n:
            raise CsvFormatError(f"snapshot CSV {path} has {len(lines) - 1} rows for a grid of {grid.n} bins")
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        if table.shape != (grid.n, len(SNAPSHOT_HEADER)):
            raise CsvFormatError(f"snapshot CSV {path} has rows of {table.shape[1]} cells")
        if not np.array_equal(table[:, 0], grid.sizes):
            raise CsvFormatError(f"the s column of {path} is not the configured grid's sizes")
        return Distribution(grid, table[:, 1])
    except ValueError as exc:
        raise CsvFormatError(f"cannot parse snapshot CSV {path}: {exc}") from exc


def write_field_csv(path, field: BernsteinField, residual: np.ndarray | None = None):
    """Long-format field export: one row per (t, x)."""
    nan = np.full(field.F.size, np.nan)
    cols = (np.tile(field.x, field.times.size), np.repeat(field.times, field.x.size),
            field.F.ravel(), field.Fx.ravel(), field.Fxx.ravel(),
            nan if field.g_eps is None else field.g_eps.ravel(),
            nan if residual is None else residual.ravel())
    write_rows(path, ["x", "t", "F", "Fx", "Fxx", "G_eps", "residual"], zip(*(c.tolist() for c in cols)))


def write_fan_csv(path, fan: CharacteristicFan):
    cols = (np.tile(fan.starts, fan.times.size), np.repeat(fan.times, fan.n_paths),
            fan.x.ravel(), fan.p.ravel(), fan.z.ravel(), ~fan.alive.ravel())
    write_rows(path, ["start_x", "t", "X", "P", "Z", "terminated"], zip(*(c.tolist() for c in cols)))


def write_ensemble_csv(path, ens: EnsembleMoments):
    header = (
        ["t"]
        + [f"m{k}_mean" for k in range(4)]
        + [f"m{k}_stderr" for k in range(4)]
        + ["replicas"]
    )
    rows = (
        (ens.times[i], *ens.mean[i], *ens.stderr[i], ens.replicas)
        for i in range(ens.times.size)
    )
    write_rows(path, header, rows)


def write_verify_csv(path, reports):
    rows = []
    for rep in reports:
        t = rep.location[0] if len(rep.location) > 0 else ""
        where = rep.location[1] if len(rep.location) > 1 else ""
        rows.append((rep.name, rep.status, rep.worst_margin, t, where))
    write_rows(path, ["name", "status", "worst_margin", "t", "x_or_k"], rows)


def write_convergence_csv(path, eps_values, gaps):
    write_rows(path, ["eps", "sup_gap"], zip(eps_values, gaps))
