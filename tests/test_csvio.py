"""CSV writers: the row-template writer against the per-cell ``csv.writer``
path it replaced, byte for byte; the snapshot table reader against the writer."""
import csv
import warnings

import numpy as np
import pytest

from cflab import csvio
from cflab.bernstein import BernsteinField
from cflab.characteristics import CharacteristicFan
from cflab.core import KernelSpec, SizeGrid
from cflab.errors import CsvFormatError
from cflab.kinetic import Trajectory


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _write_per_cell(path, header, rows):
    """Reference writer: every cell formatted on its own, quoted by csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


NUMERIC_ROWS = [
    (np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300),
    (np.float64(0.1), 1, np.int64(-7), True, np.bool_(False), 2.0),
    (np.float64(-1e-310), 10**20, np.int32(3), np.True_, False, np.float64(np.nan)),
    [1.0, 2, 3.5, 4, 5.25, 6],  # a list row with the same types as a tuple row
]

# rows shaped like the verify report's: name, status, margin, t, x_or_k
STRING_ROWS = [
    ("g_eps_bound", "PASS", 0.5, 0.3, "sup|G|"),
    ("holder_moment_bounds", "PASS", 1e-9, np.float64(0.1), "m4*m1^2 >= m2^3"),
    ("hj_residual", "FAIL", -1.76, "", ""),
    ('comma, and "quote"', "PASS", np.float64(2.5), np.int64(3), True),
]


@pytest.mark.parametrize(
    "rows", [NUMERIC_ROWS, STRING_ROWS, NUMERIC_ROWS + STRING_ROWS + NUMERIC_ROWS]
)
def test_write_rows_matches_per_cell_writer(tmp_path, rows):
    header = ["a", "b", "c", "d", "e", "f"][: len(rows[0])]
    csvio.write_rows(tmp_path / "new.csv", header, iter(rows))
    _write_per_cell(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _fan():
    rng = np.random.default_rng(3)
    times = np.array([0.0, 0.1, 0.2])
    x = np.cumsum(rng.uniform(0.1, 1.0, (3, 5)), axis=1)
    alive = np.ones((3, 5), dtype=bool)
    alive[1:, 0] = False
    alive[2, 1] = False
    return CharacteristicFan(
        starts=x[0].copy(), times=times, x=x, p=rng.uniform(0, 1, (3, 5)),
        z=rng.uniform(0, 1, (3, 5)), alive=alive, m=1.0,
    )


def test_write_fan_csv_matches_per_cell_rows(tmp_path):
    fan = _fan()
    rows = [
        (fan.starts[jp], t, fan.x[it, jp], fan.p[it, jp], fan.z[it, jp], not fan.alive[it, jp])
        for it, t in enumerate(fan.times)
        for jp in range(fan.n_paths)
    ]
    csvio.write_fan_csv(tmp_path / "new.csv", fan)
    _write_per_cell(tmp_path / "old.csv", ["start_x", "t", "X", "P", "Z", "terminated"], rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("with_g_eps", [True, False])
@pytest.mark.parametrize("with_residual", [True, False])
def test_write_field_csv_matches_per_cell_rows(tmp_path, with_g_eps, with_residual):
    rng = np.random.default_rng(5)
    x = np.array([0.0, 0.5, 1.25, 4.0])
    times = np.array([0.0, 0.05, 0.1])
    F, Fx, Fxx, g = (rng.normal(size=(3, 4)) for _ in range(4))
    field = BernsteinField(
        x=x, times=times, F=F, Fx=Fx, Fxx=Fxx, m=1.0, g_eps=g if with_g_eps else None
    )
    residual = None
    if with_residual:
        residual = rng.normal(size=(3, 4))
        residual[:, 0] = np.nan  # hj_residual_grid leaves x = 0 undefined
    rows = [
        (
            xv, t, F[it, ix], Fx[it, ix], Fxx[it, ix],
            np.nan if field.g_eps is None else field.g_eps[it, ix],
            np.nan if residual is None else residual[it, ix],
        )
        for it, t in enumerate(times)
        for ix, xv in enumerate(x)
    ]
    csvio.write_field_csv(tmp_path / "new.csv", field, residual)
    _write_per_cell(tmp_path / "old.csv", ["x", "t", "F", "Fx", "Fxx", "G_eps", "residual"], rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _table(grid, counts, times):
    return Trajectory.of_snapshots(times, counts, grid, KernelSpec.for_grid(grid))


def test_snapshot_round_trip_is_exact(tmp_path):
    """read_snapshots_csv returns the times and counts write_snapshots_csv
    printed, bit for bit, on a grid whose sizes are not dyadic."""
    grid = SizeGrid(ds=0.1, n=64)
    rng = np.random.default_rng(3)
    counts = rng.random((3, 64)) * 10.0 ** rng.integers(-300, 300, (3, 64))
    counts[0, :4] = [0.0, 5e-324, 2.2250738585072014e-308, 1e300]
    times = np.array([0.0, 0.1, 0.30000000000000004])
    csvio.write_snapshots_csv(tmp_path / "snapshots.csv", _table(grid, counts, times))
    back_times, back = csvio.read_snapshots_csv(tmp_path / "snapshots.csv", grid)
    assert back_times.tobytes() == times.tobytes()
    assert back.shape == (3, 64)
    assert back.tobytes() == counts.tobytes()


@pytest.mark.parametrize("keep", [0, 1, 30])
def test_snapshot_row_width_is_checked(tmp_path, keep):
    """A table whose rows hold fewer counts than bins, even none, is a format
    error that names the cell count."""
    grid = SizeGrid(ds=0.5, n=40)
    path = tmp_path / "snapshots.csv"
    csvio.write_snapshots_csv(path, _table(grid, np.ones((2, 40)), np.array([0.0, 0.5])))
    lines = path.read_bytes().split(b"\r\n")
    rows = [b",".join(line.split(b",")[: 1 + keep]) for line in lines[1:-1]]
    path.write_bytes(b"\r\n".join([lines[0], *rows]) + b"\r\n")
    with pytest.raises(CsvFormatError, match=f"rows of {1 + keep} cells for a grid of 40 bins"):
        csvio.read_snapshots_csv(path, grid)


@pytest.mark.parametrize("cell", ["-1", "nan", "inf"])
def test_snapshot_counts_are_finite_and_nonnegative(tmp_path, cell):
    grid = SizeGrid(ds=0.5, n=40)
    path = tmp_path / "snapshots.csv"
    csvio.write_snapshots_csv(path, _table(grid, np.ones((2, 40)), np.array([0.0, 0.5])))
    path.write_text(path.read_text().replace(",1\n", f",{cell}\n", 1))
    with pytest.raises(CsvFormatError, match="negative or not finite"):
        csvio.read_snapshots_csv(path, grid)


def test_snapshot_table_without_rows_is_checked_before_parsing(tmp_path):
    """A header alone is a format error; numpy's parser gets no empty input to
    warn about."""
    grid = SizeGrid(ds=0.5, n=40)
    path = tmp_path / "snapshots.csv"
    csvio.write_snapshots_csv(path, _table(grid, np.ones((2, 40)), np.array([0.0, 0.5])))
    path.write_bytes(path.read_bytes().split(b"\r\n")[0] + b"\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CsvFormatError, match="holds no rows"):
            csvio.read_snapshots_csv(path, grid)
