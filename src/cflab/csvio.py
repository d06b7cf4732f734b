"""CSV artifact writers and readers.

CSV is the only output format, with headers, in one dialect: CRLF line ends;
``%.17g`` floats, whose 17 digits round-trip, so identical runs write identical
bytes; ``%d`` integers and booleans; and the minimal quoting of ``csv.writer``
for a string cell that holds ``,``, ``"``, CR or LF (wrapped in ``"``, each
inner ``"`` doubled) or is the empty only cell of its row (``""``).  ``%``
templates print every row: one per row's cell types in ``write_rows``, one per
recorded time in ``write_fan_csv``.
"""
from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

from .bernstein import BernsteinField
from .characteristics import CharacteristicFan
from .core import SizeGrid
from .errors import CsvFormatError, MissingArtifactError
from .kinetic import Trajectory
from .stochastic import EnsembleMoments

TRAJECTORY_HEADER = ["t", "m0", "m1", "m2", "m3", "m4", "m5", "mass_drift", "top_bin_occupancy"]

#: The characters that make a string cell quoted.
_QUOTED = frozenset(',"\r\n')


def _cell(kind) -> str:
    """The ``%`` conversion of a cell of this type."""
    return "%s" if issubclass(kind, str) else "%d" if issubclass(kind, (int, np.integer)) else "%.17g"


def _row_template(kinds) -> str:
    """One ``%`` template printing a row of these cell types."""
    return ",".join(map(_cell, kinds)) + "\r\n"


def _quote(row: tuple) -> tuple:
    """``row`` with each string cell quoted as the dialect quotes it."""
    if row == ("",):
        return ('""',)
    return tuple(
        '"%s"' % cell.replace('"', '""') if isinstance(cell, str) and not _QUOTED.isdisjoint(cell) else cell
        for cell in row
    )


def write_rows(path, header, rows):
    """Header and rows as CSV, each printed whole by the template of its cell
    types, after its string cells, if it has any, are quoted."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    templates = {}
    with open(path, "w", newline="") as fh:
        for row in chain((header,), rows):
            row = tuple(row)
            kinds = tuple(map(type, row))
            if kinds not in templates:
                templates[kinds] = _row_template(kinds), any(issubclass(k, str) for k in kinds)
            template, text = templates[kinds]
            fh.write(template % (_quote(row) if text else row))


def write_trajectory_csv(path, traj: Trajectory):
    series = traj.moments
    rows = (
        (series.times[i], *series.moments[i], series.mass_drift[i], series.top_bin_occupancy[i])
        for i in range(series.times.size)
    )
    write_rows(path, TRAJECTORY_HEADER, rows)


def _snapshots_header(grid: SizeGrid) -> list:
    """``t`` and the bin sizes, printed by one template of float cells."""
    return ("t" + ("," + _cell(float)) * grid.n % tuple(grid.sizes.tolist())).split(",")


def write_snapshots_csv(path, traj: Trajectory):
    """One row per snapshot: its time, then its counts N_1..N_n under a header
    of ``t`` and the bin sizes."""
    rows = (row.tolist() for row in np.column_stack((traj.times, traj.counts)))
    write_rows(path, _snapshots_header(traj.grid), rows)


def read_snapshots_csv(path, grid: SizeGrid) -> tuple:
    """(times, counts) of a snapshot table, parsed in one pass: counts has one
    row per time and one column per bin.

    The header must be ``t`` and the sizes of ``grid`` as the 17-digit writer
    prints them, and each row a time and one finite, nonnegative count per bin
    of ``grid``.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingArtifactError(f"snapshot table not found: {path}")
    try:
        lines = path.read_text().splitlines()
        if lines[:1] != [",".join(_snapshots_header(grid))]:
            raise CsvFormatError(f"the header of {path} is not t and the configured grid's sizes")
        if len(lines) < 2:
            raise CsvFormatError(f"snapshot table {path} holds no rows")
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        if table.shape[1] != grid.n + 1:
            raise CsvFormatError(f"{path} has rows of {table.shape[1]} cells for a grid of {grid.n} bins")
    except ValueError as exc:
        raise CsvFormatError(f"cannot parse snapshot table {path}: {exc}") from exc
    counts = table[:, 1:]
    if not np.all(np.isfinite(counts)) or np.any(counts < 0):
        raise CsvFormatError(f"{path} holds a count that is negative or not finite")
    return table[:, 0], counts


def write_field_csv(path, field: BernsteinField, residual: np.ndarray | None = None):
    """Long-format field export: one row per (t, x)."""
    cols = (np.tile(field.x, field.times.size), np.repeat(field.times, field.x.size),
            field.F.ravel(), field.Fx.ravel(), field.Fxx.ravel(),
            np.full(field.F.size, np.nan) if residual is None else residual.ravel())
    write_rows(path, ["x", "t", "F", "Fx", "Fxx", "residual"], zip(*(c.tolist() for c in cols)))


def write_fan_csv(path, fan: CharacteristicFan):
    """One row per (t, path): the P rows of a recorded time are one ``%``
    template over a flat cell list, in which each start and the time are text
    printed once by the float cell's conversion.  Rows do not go through
    ``write_rows`` one at a time."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    number = _cell(float)
    template = _row_template((str, str, float, float, float, bool)) * fan.n_paths
    cells = [None] * (6 * fan.n_paths)
    cells[0::6] = [number % s for s in fan.starts.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("start_x,t,X,P,Z,terminated\r\n")
        for i, t in enumerate(fan.times.tolist()):
            cells[1::6] = [number % t] * fan.n_paths
            cells[2::6] = fan.x[i].tolist()
            cells[3::6] = fan.p[i].tolist()
            cells[4::6] = fan.z[i].tolist()
            cells[5::6] = (~fan.alive[i]).tolist()
            fh.write(template % tuple(cells))


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
