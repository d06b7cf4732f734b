"""Every CSV of both benchmark workloads matches the record that
``tests/golden/make_golden.py`` wrote: byte for byte where numpy's
major.minor and the machine are the record's, and everywhere by its column
digests, to GOLDEN_RTOL of each column's largest magnitude."""
import json

import pytest

from golden.make_golden import RECORD, digest, environment

GOLDEN = json.loads(RECORD.read_text())

#: Agreement asked of a column's sum, min and max, relative to the largest
#: magnitude among its finite cells (times their count, for the sum).
GOLDEN_RTOL = 1e-12


def columns_agree(got: str, want: str) -> bool:
    """Two column digests ``"numbers nonfinite sum min max"`` of make_golden
    agree: the same counts, and sums, minima and maxima within GOLDEN_RTOL."""
    (got_n, got_bad, *got_stats), (n, bad, *stats) = ([float(v) for v in c.split()] for c in (got, want))
    if (got_n, got_bad, len(got_stats)) != (n, bad, len(stats)):
        return False
    scale = GOLDEN_RTOL * max(map(abs, stats[1:]), default=0.0)
    return all(abs(g - w) <= tol for g, w, tol in zip(got_stats, stats, (n * scale, scale, scale)))


def test_exit_codes_are_the_records(workload_runs):
    assert workload_runs["codes"] == GOLDEN["exit_codes"]


def test_the_runs_write_the_recorded_csvs(workload_runs):
    written = sorted(f"{path.parent.name}/{path.name}" for path in workload_runs["out"].glob("*/*.csv"))
    assert written == sorted(GOLDEN["files"])


@pytest.mark.parametrize("name", sorted(GOLDEN["files"]))
def test_csv_matches_the_record(workload_runs, name):
    got, want = digest(workload_runs["out"] / name), GOLDEN["files"][name]
    for key in ("header_sha256", "rows", "text"):
        assert got[key] == want[key], key
    assert len(got["columns"]) == len(want["columns"])
    moved = [j for j, pair in enumerate(zip(got["columns"], want["columns"])) if not columns_agree(*pair)]
    assert not moved, f"columns {moved[:10]} of {name} moved"
    if environment() == {key: GOLDEN[key] for key in environment()}:
        assert got["sha256"] == want["sha256"]


def test_column_digests_see_a_relative_change_of_1e_11():
    want = "3 0 6.0 1.0 3.0"
    assert columns_agree(want, want)
    assert columns_agree("3 0 6.00000000000002 1.0 3.0", want)
    assert not columns_agree("3 0 6.0 1.0 3.00000000003", want)
    assert not columns_agree("3 1 6.0 1.0 3.0", want)
    assert not columns_agree("0 3", want)
