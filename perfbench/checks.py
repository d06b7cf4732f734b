"""Output checks: each subcommand's artifacts against stored references.

A check returns ``Outcome(correct, ok, checks_failed, detail)``.  ``correct``
is false when the artifacts are a wrong answer.  ``ok`` is false when the
operation failed, which includes every wrong answer and also a verify report
that correctly records a failing check.
"""
import csv
import math
from dataclasses import dataclass
from pathlib import Path

#: cflab.kinetic.MASS_DRIFT_TOL when the benchmark was defined.
MASS_DRIFT_TOL = 1e-6

#: Relative tolerance on values that may move only by roundoff, e.g. when a
#: direct convolution becomes an FFT one.
ROUNDOFF_RTOL = 1e-9

#: Two-sided tail probability per compared stochastic mean.  With at most a
#: dozen comparisons per run, a correct engine fails a run about once in 10^5.
STOCHASTIC_ALPHA = 1e-6

#: Checks every verify report must contain (more rows are allowed).
VERIFY_CHECKS = (
    "mass_conservation",
    "second_moment_envelope",
    "holder_moment_bounds",
    "complete_monotonicity_exact",
    "derivative_bounds",
    "g_eps_bound",
    "hj_residual",
    "weak_form_residual",
)


@dataclass
class Outcome:
    correct: bool
    ok: bool
    checks_failed: int
    detail: str


def _wrong(detail):
    return Outcome(False, False, 0, detail)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def column(header, rows, name):
    i = header.index(name)
    return [float(r[i]) for r in rows]


def _close(values, reference):
    """Largest relative difference, scaled by the reference's largest magnitude."""
    if len(values) != len(reference):
        return math.inf
    scale = max((abs(r) for r in reference), default=0.0) or 1.0
    return max((abs(v - r) for v, r in zip(values, reference)), default=0.0) / scale


def check_simulate(out: Path, code: int, ref: dict) -> Outcome:
    header, rows = read_csv(out / "trajectory.csv")
    drift = max(column(header, rows, "mass_drift"))
    final = [float(v) for v in rows[-1][1:7]]
    gap = _close(final, ref["final_moments"])
    detail = f"exit {code}, max mass drift {drift:.2e}, final moments off by {gap:.1e}"
    correct = code == 0 and drift <= MASS_DRIFT_TOL and gap <= ROUNDOFF_RTOL
    return Outcome(correct, correct, 0, detail)


def check_verify(out: Path, code: int, ref: dict) -> Outcome:
    header, rows = read_csv(out / "verify_report.csv")
    names = [r[header.index("name")] for r in rows]
    failing = [r[header.index("name")] for r in rows if r[header.index("status")] != "PASS"]
    missing = [n for n in VERIFY_CHECKS if n not in names]
    detail = f"exit {code}, {len(rows)} rows, FAIL: {', '.join(failing) or 'none'}"
    if missing:
        return _wrong(detail + f", missing checks: {', '.join(missing)}")
    if code != (2 if failing else 0):
        return _wrong(detail + ": exit code disagrees with the report")
    return Outcome(True, not failing, len(failing), detail)


def check_characteristics(out: Path, code: int, ref: dict) -> Outcome:
    with open(out / "fan.csv", newline="") as fh:
        fan_rows = sum(1 for _ in fh) - 1
    header, rows = read_csv(out / "characteristics_field.csv")
    gap = _close(column(header, rows, "F"), ref["F"])
    detail = f"exit {code}, {fan_rows} fan rows, field F off by {gap:.1e}"
    correct = code == 0 and fan_rows == ref["fan_rows"] and gap <= ROUNDOFF_RTOL
    return Outcome(correct, correct, 0, detail)


def check_convergence(out: Path, code: int, ref: dict) -> Outcome:
    header, rows = read_csv(out / "convergence.csv")
    gap = _close(column(header, rows, "sup_gap"), ref["gaps"])
    detail = f"exit {code}, gaps off by {gap:.1e}"
    correct = code == 0 and gap <= ROUNDOFF_RTOL
    return Outcome(correct, correct, 0, detail)


def check_stochastic(out: Path, code: int, ref: dict) -> Outcome:
    """m1 must stay the initial mass exactly; m0, m2 and m3 must sit within a
    Student-t bound of the kinetic moments for the replica count.

    The quantile is stored with the reference, so that this process never
    imports scipy: a child forked from a large parent reports the parent's
    resident set as its own peak.
    """
    header, rows = read_csv(out / "stochastic.csv")
    times = column(header, rows, "t")
    if times != ref["times"]:
        return _wrong(f"exit {code}, times {times} differ from {ref['times']}")
    replicas = int(float(rows[0][header.index("replicas")]))
    if replicas != ref["replicas"]:
        return _wrong(f"exit {code}, {replicas} replicas instead of {ref['replicas']}")
    quantile = ref["t_quantile"]
    mass = ref["kinetic_moments"][0][1]
    m1 = column(header, rows, "m1_mean")
    worst = 0.0
    for k in (0, 2, 3):
        means = column(header, rows, f"m{k}_mean")
        errs = column(header, rows, f"m{k}_stderr")
        for i, (mean, err) in enumerate(zip(means, errs)):
            kinetic = ref["kinetic_moments"][i][k]
            bound = quantile * err + 1e-12 * abs(kinetic)
            miss = abs(mean - kinetic)
            worst = max(worst, miss / bound if bound > 0 else (math.inf if miss else 0.0))
    detail = (
        f"exit {code}, m1 {'exact' if all(v == mass for v in m1) else 'drifted'}, "
        f"worst |mean - kinetic| at {worst:.2f} of the t-bound (t = {quantile:.2f}, "
        f"{replicas} replicas)"
    )
    correct = code == 0 and all(v == mass for v in m1) and worst <= 1.0
    return Outcome(correct, correct, 0, detail)


CHECKS = {
    "simulate": check_simulate,
    "verify": check_verify,
    "characteristics": check_characteristics,
    "convergence": check_convergence,
    "stochastic": check_stochastic,
}


def check(command: str, out: Path, code: int, ref: dict) -> Outcome:
    """Run the check for ``command``; an artifact that is missing or
    malformed is a wrong answer, not a crash of the benchmark."""
    try:
        return CHECKS[command](out, code, ref.get(command, {}))
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return _wrong(f"exit {code}, artifact unreadable: {type(exc).__name__}: {exc}")
