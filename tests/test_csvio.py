"""CSV writers: the row-template writer, quoting included, against
``csv.writer`` over per-cell text, byte for byte; the snapshot table reader
against the writer."""
import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cflab import csvio
from cflab.bernstein import BernsteinField
from cflab.characteristics import CharacteristicFan, distribution_transform, integrate_fan
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


def _write_fan_columns(path, fan):
    """The whole-column fan writer: every cell of every row formatted on its own."""
    cols = (np.tile(fan.starts, fan.times.size), np.repeat(fan.times, fan.n_paths),
            fan.x.ravel(), fan.p.ravel(), fan.z.ravel(), ~fan.alive.ravel())
    csvio.write_rows(path, ["start_x", "t", "X", "P", "Z", "terminated"], zip(*(c.tolist() for c in cols)))


def _odd_fan():
    """The small fan with -0.0, nan, infinite and subnormal cells in every column."""
    fan = _fan()
    odd = np.array([-0.0, np.nan, 5e-324, -2.2250738585072014e-309, np.inf])
    return CharacteristicFan(
        starts=odd, times=np.array([-0.0, 5e-324, np.nan]), x=np.vstack([fan.x[:2], odd]),
        p=np.vstack([odd, fan.p[1:]]), z=np.vstack([fan.z[0], odd[::-1], fan.z[2]]), alive=fan.alive, m=1.0,
    )


def _fan_slice(times, paths):
    fan = _fan()
    return CharacteristicFan(
        starts=fan.starts[paths], times=fan.times[times], x=fan.x[times, paths], p=fan.p[times, paths],
        z=fan.z[times, paths], alive=fan.alive[times, paths], m=1.0,
    )


def _all_terminated_fan():
    """A fan whose last recorded time has every path frozen."""
    fan = _fan()
    alive = fan.alive.copy()
    alive[2] = False
    return CharacteristicFan(starts=fan.starts, times=fan.times, x=fan.x, p=fan.p, z=fan.z, alive=alive, m=1.0)


def _readme_fan(exp):
    return integrate_fan(distribution_transform(exp.initial), m=exp.scenario.m, **exp.char_fan)


FAN_SHAPES = {
    "odd-cells": _odd_fan,
    "one-path": lambda: _fan_slice(slice(None), slice(1, 2)),
    "one-time": lambda: _fan_slice(slice(2, 3), slice(None)),
    "all-terminated": _all_terminated_fan,
}


@pytest.mark.parametrize("shape", [*FAN_SHAPES, "readme"])
def test_write_fan_csv_matches_whole_columns(tmp_path, request, shape):
    """The per-time template, with each start and time printed once, writes
    the bytes of the whole-column writer on every fan shape: -0.0, nan,
    infinite and subnormal cells in every column, one path, one recorded time,
    a time whose every path is terminated, and the README fan."""
    fan = _readme_fan(request.getfixturevalue("readme_experiment")) if shape == "readme" else FAN_SHAPES[shape]()
    csvio.write_fan_csv(tmp_path / "new.csv", fan)
    _write_fan_columns(tmp_path / "old.csv", fan)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"\n") == 1 + fan.x.size
    cells = [line.split(b",") for line in new.splitlines()[1:]]
    if shape == "odd-cells":
        assert [row[:2] + row[3:4] for row in cells[:2]] == [[b"-0", b"-0", b"-0"], [b"nan", b"-0", b"nan"]]
        # the first path, frozen from the second (subnormal) time on
        assert cells[5][:2] + cells[5][5:] == [b"-0", b"4.9406564584124654e-324", b"1"]
        assert cells[13][:3] == [b"-2.2250738585072034e-309", b"nan", b"-2.2250738585072034e-309"]
    if shape == "all-terminated":
        assert [row[5] for row in cells[-fan.n_paths:]] == [b"1"] * fan.n_paths
    if shape == "readme":
        assert fan.x.shape == (51, 2000)


def test_string_cells_are_quoted_as_csv_writer_quotes_them(tmp_path):
    """String cells print as they are unless csv.writer quotes them: for a
    comma, a quote or a line end, and for a row whose only cell is empty."""
    rows = [
        ("0.5", "plain", 1.0, True),
        ("a,b", "plain", 1.0, True),
        ("0.5", 'say "x"', np.float64(2.0), False),
        ("line\nend", "cr\r", 3.0, np.True_),
        ("", "", -0.0, False),
        ("0.5", "plain", 1.0, True),
    ]
    csvio.write_rows(tmp_path / "new.csv", ["a", "b", "c", "d"], iter(rows))
    _write_per_cell(tmp_path / "old.csv", ["a", "b", "c", "d"], rows)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.split(b"\r\n")[2] == b'"a,b",plain,1,1'
    for single in ([("",), ("x",), ("a,b",)], [(np.str_(""),)]):
        csvio.write_rows(tmp_path / "new.csv", ["a"], iter(single))
        _write_per_cell(tmp_path / "old.csv", ["a"], single)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes() == b'a\r\n""\r\n'


def test_quoting_matches_csv_writer_on_header_and_rows(tmp_path):
    """csv.writer is the reference: a header with quoted names, and rows that
    mix ints, floats and strings holding a comma, a quote, CR, LF, nothing or
    plain text, in the order and the cell types of each row."""
    header = ["plain", "a,b", 'say "x"', "cr\r", "lf\n", "", "crlf\r\n", '",', '"']
    rows = [
        (1, 0.5, "plain", "a,b", 'q"q', "x\ry", "x\ny", "", -3),
        ("", "", "", "", "", "", "", "", ""),
        (np.float64(1e-310), np.int64(7), '"', ",", "\r", "\n", '""', " a ", np.nan),
        ("", 2.5, 'x", y', "tab\tcell", True, np.False_, "\r\n", 'end"', 10**20),
    ]
    csvio.write_rows(tmp_path / "new.csv", header, iter(rows))
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[_cell(v) for v in row] for row in rows])
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.startswith(b'plain,"a,b","say ""x""","cr\r","lf\n",,"crlf\r\n",""",",""""\r\n')


@given(rows=st.lists(
    st.lists(
        st.one_of(st.text(alphabet=',"\r\n a;\'\t'), st.integers(-(2**70), 2**70), st.floats()),
        min_size=1, max_size=4,
    ),
    min_size=1, max_size=5,
))
@settings(max_examples=200, deadline=None)
def test_write_rows_matches_csv_writer_on_any_cells(tmp_path_factory, rows):
    """Any header and rows of text, ints and floats: the bytes of csv.writer."""
    path = tmp_path_factory.mktemp("rows")
    header = [_cell(v) for v in rows[0]]
    csvio.write_rows(path / "new.csv", header, iter(rows[1:]))
    _write_per_cell(path / "old.csv", header, rows[1:])
    assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()


def test_write_fan_csv_memory_is_bounded(tmp_path, readme_experiment):
    """Writing the README fan (102 000 rows) holds one recorded time of rows at
    a time, not the whole-fan columns that took 18 MB."""
    fan = _readme_fan(readme_experiment)
    assert fan.x.shape == (51, 2000)
    tracemalloc.start()
    try:
        csvio.write_fan_csv(tmp_path / "fan.csv", fan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert (tmp_path / "fan.csv").read_bytes().count(b"\n") == 102_001


@pytest.mark.parametrize("with_residual", [True, False])
def test_write_field_csv_matches_per_cell_rows(tmp_path, with_residual):
    rng = np.random.default_rng(5)
    x = np.array([0.0, 0.5, 1.25, 4.0])
    times = np.array([0.0, 0.05, 0.1])
    F, Fx, Fxx = (rng.normal(size=(3, 4)) for _ in range(3))
    field = BernsteinField(x=x, times=times, F=F, Fx=Fx, Fxx=Fxx, m=1.0)
    residual = None
    if with_residual:
        residual = rng.normal(size=(3, 4))
        residual[:, 0] = np.nan  # hj_residual_grid leaves x = 0 undefined
    rows = [
        (
            xv, t, F[it, ix], Fx[it, ix], Fxx[it, ix],
            np.nan if residual is None else residual[it, ix],
        )
        for it, t in enumerate(times)
        for ix, xv in enumerate(x)
    ]
    csvio.write_field_csv(tmp_path / "new.csv", field, residual)
    header = ["x", "t", "F", "Fx", "Fxx", "residual"]
    _write_per_cell(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_text().splitlines()[0] == ",".join(header)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _table(grid, counts, times):
    return Trajectory.of_snapshots(times, counts, grid, KernelSpec.for_grid(grid))


@pytest.mark.parametrize("ds", [2.0 ** -7, 0.1])
def test_snapshot_header_matches_per_cell_join(tmp_path, ds):
    """The one-template header of a 4096-bin grid is the per-cell join, byte
    for byte, on a dyadic grid and on one whose sizes are not dyadic; the
    writer prints it as the first line."""
    grid = SizeGrid(ds=ds, n=4096)
    per_cell = ",".join(["t", *(_cell(s) for s in grid.sizes)])
    assert ",".join(csvio._snapshots_header(grid)) == per_cell
    path = tmp_path / "snapshots.csv"
    csvio.write_snapshots_csv(path, _table(grid, np.ones((1, 4096)), np.array([0.0])))
    assert path.read_bytes().split(b"\r\n")[0] == per_cell.encode()


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
