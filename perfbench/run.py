"""Benchmark of the ``cflab`` command line.

    python3 perfbench/run.py --workload readme --seed 20240801 --seconds 55 --trace 0

Each subcommand of a workload runs as its own ``cflab`` process, as a user
runs it, so interpreter start and ``import cflab`` are part of every time.
``--trace 0`` repeats the workload's subcommand sequence (a pass) while the
next pass still fits in ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` makes one plain pass and one traced pass (``traced_cli.py``)
and reports the per-layer metrics.  Every subcommand's artifacts are checked
against ``reference.json``.

The readable report comes first; the last line of standard output is the
result as one JSON object.  Work files go to ``.perfbench/`` at the root of
the checkout, and a full record of each run to ``.perfbench/results/``.
``README.md`` next to this file lists the metrics and why each workload
exists.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

import checks
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: The stochastic seed of the README example config.
README_SEED = 20240801

#: workload -> (config file under configs/, subcommands in order)
WORKLOADS = {
    "readme": ("readme.ini", ("simulate", "verify", "characteristics", "convergence", "stochastic")),
    "fine-grid": ("fine-grid.ini", ("simulate", "verify")),
}

THREAD_VARS = (
    "CF_LAB_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: What the ``cflab`` console script runs.
ENTRY = "import sys; from cflab.cli import main; sys.exit(main())"

#: Set-ups per run; setup_s is their median.
SETUPS = 5

#: Processes still running this long after the start are killed, so that a
#: run ends within 180 s even when the program hangs.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"total_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int


@dataclass
class Pass:
    """One run of a workload's subcommands in a fresh output directory."""

    procs: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)
    layer_sums: dict = field(default_factory=dict)

    @property
    def wall(self):
        return sum(p.wall for p in self.procs.values())

    @property
    def cpu(self):
        return sum(p.cpu for p in self.procs.values())

    @property
    def rss_mb(self):
        return max(p.rss_mb for p in self.procs.values())


class Bench:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.config, self.commands = WORKLOADS[workload]
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.env.update({var: str(self.nproc) for var in THREAD_VARS})
        self.deadline = time.perf_counter() + DEADLINE_S
        self.work = STATE / f"work-{os.getpid()}"
        with open(BENCH / "reference.json") as fh:
            self.reference = json.load(fh)[workload]
        self.source = source_digest()
        self.setup_s = []
        self.ready = []
        self.mismatches = []
        self.compared = 0

    def spawn(self, argv, cwd, log) -> Proc:
        """Run one process to its end; CPU and peak RSS come from wait4."""
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            timer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)

    def set_up(self):
        """Write the config into a fresh directory and start the interpreter
        once, untimed by any subcommand, so the pass sees warm files."""
        start = time.perf_counter()
        run_dir = self.work / f"pass{len(self.setup_s)}"
        shutil.rmtree(run_dir, ignore_errors=True)
        (run_dir / "out").mkdir(parents=True)
        shutil.copyfile(BENCH / "configs" / self.config, run_dir / "config.ini")
        warm = self.spawn([sys.executable, "-c", "import cflab.cli"], run_dir, run_dir / "warmup.log")
        if warm.code != 0:
            sys.stderr.write((run_dir / "warmup.log").read_text())
            raise SystemExit(f"cannot start cflab from {SRC}")
        self.setup_s.append(time.perf_counter() - start)
        self.ready.append(run_dir)

    def run_pass(self, traced=False) -> Pass:
        if not self.ready:
            self.set_up()
        run_dir = self.ready.pop(0)
        out = run_dir / "out"
        result = Pass()
        for command in self.commands:
            args = [command, "--config", str(run_dir / "config.ini"), "--out", str(out),
                    "--seed", str(self.seed), "--quiet"]
            log = run_dir / f"{command}.log"
            if traced:
                spans = run_dir / f"{command}.spans.json"
                argv = [sys.executable, "-X", "importtime", str(BENCH / "traced_cli.py"), str(spans), *args]
            else:
                argv = [sys.executable, "-c", ENTRY, *args]
            proc = self.spawn(argv, run_dir, log)
            result.procs[command] = proc
            result.outcomes[command] = checks.check(command, out, proc.code, self.reference)
            if traced:
                if not spans.is_file():
                    raise SystemExit(f"traced {command} wrote no spans:\n{log.read_text()[-2000:]}")
                result.layer_sums[command] = layers.subcommand_layers(
                    json.loads(spans.read_text()), log.read_text()
                )
        self.compare_csvs(out)
        return result

    def compare_csvs(self, out):
        """Compare the pass's CSVs with those of earlier passes and runs of
        the same sources, workload and seed; they must be byte-identical."""
        key = f"{self.workload} seed={self.seed} source={self.source}"
        path = STATE / "digests.json"
        known = json.loads(path.read_text()) if path.is_file() else {}
        stored = known.setdefault(key, {})
        for csv_path in sorted(out.glob("*.csv")):
            with open(csv_path, "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256").hexdigest()
            if csv_path.name in stored:
                self.compared += 1
                if stored[csv_path.name] != digest:
                    self.mismatches.append(csv_path.name)
            else:
                stored[csv_path.name] = digest
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1))
        os.replace(tmp, path)

    def time_left(self):
        return self.deadline - time.perf_counter()


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _probe(argv):
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(bench):
    def cache(name):
        value = _probe(["getconf", name])
        return int(value) if value and value.isdigit() else None

    top = _probe(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"])
    lines = top.splitlines() if top else []
    commit = lines[1] if len(lines) == 2 and Path(lines[0]).resolve() == ROOT else None
    return {
        "nproc": bench.nproc,
        "l2_cache_bytes": cache("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": cache("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": bench.source,
        "threads": {var: bench.env[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def high_percentile(samples):
    """(p, value) of the highest percentile with at least ten samples above
    it, or None when there are too few samples for any."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def _row(name, unit, samples, note=""):
    hi = high_percentile(samples)
    hi_text = f"p{hi[0]} {hi[1]:.4f}" if hi else "-"
    return f"  {name:<20} {unit:<6} {statistics.median(samples):>12.4f}  {hi_text:<14} n={len(samples)}  {note}"


def measure(bench, seconds):
    for _ in range(SETUPS):
        bench.set_up()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(bench.run_pass())
        last = passes[-1].wall
        if time.perf_counter() - start + last > seconds or bench.time_left() < 2 * last + 5:
            return passes


def report_end_to_end(bench, passes):
    print("end-to-end (median, highest percentile with >= 10 samples above it, sample count)")
    for command in bench.commands:
        print(_row(f"{command}_s", "s", [p.procs[command].wall for p in passes], "one cflab process"))
    samples = {
        "total_s": [p.wall for p in passes],
        "cpu_s": [p.cpu for p in passes],
        "peak_rss_mb": [p.rss_mb for p in passes],
        "setup_s": bench.setup_s,
    }
    notes = {
        "total_s": "sum of the subcommands: time to a verified solution",
        "cpu_s": "user + system CPU of the subcommand processes",
        "peak_rss_mb": "largest max-RSS of any subcommand process",
        "setup_s": "config, fresh output directory, warm-up interpreter start",
    }
    for name, values in samples.items():
        print(_row(name, END_TO_END_UNITS[name], values, notes[name]))
    return {
        name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
        for name, values in samples.items()
    }


def report_per_layer(passes):
    plain, traced = passes
    metrics = layers.combine(traced.layer_sums, traced.wall - plain.wall)
    print("per-layer, summed over the traced subcommands (counts marked * are computed)")
    computed = {"kinetic.conv_macs", "characteristics.path_steps", "csvio.bytes_written"}
    for name, unit in layers.PER_LAYER:
        star = "*" if name in computed else ""
        print(f"  {name + star:<34} {unit:<6} {metrics[name]:>16.6g}")
    print("per-layer by subcommand (nonzero entries)")
    for command, values in traced.layer_sums.items():
        shown = ", ".join(f"{k}={v:.4g}" for k, v in values.items() if v)
        print(f"  {command}: {shown}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in layers.PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=README_SEED, help="stochastic seed for cflab")
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cflab" / "cli.py").is_file():
        print(f"no cflab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed)
    try:
        if args.trace:
            passes = [bench.run_pass(), bench.run_pass(traced=True)]
        else:
            passes = measure(bench, args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    env = environment(bench)
    print(f"cflab benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)}")
    print("environment " + json.dumps(env))
    metrics = report_per_layer(passes) if args.trace else report_end_to_end(bench, passes)

    outcomes = [(c, o) for p in passes for c, o in p.outcomes.items()]
    print("output checks")
    for command, outcome in outcomes:
        state = "ok" if outcome.ok else ("FAILED" if outcome.correct else "WRONG")
        print(f"  {command:<16} {state:<7} {outcome.detail}")
    checks_failed = sum(o.checks_failed for _, o in outcomes)
    print(f"  checks_failed {checks_failed} (FAIL rows across verify_report.csv)")
    print(f"  csv_mismatches {len(bench.mismatches)} of {bench.compared} CSVs compared with "
          f"an earlier pass or run at this seed {sorted(set(bench.mismatches)) or ''}")

    result = {
        "correct": all(o.correct for _, o in outcomes) and not bench.mismatches,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for _, o in outcomes),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, checks_failed=checks_failed,
                  csv_mismatches=len(bench.mismatches), csv_compared=bench.compared,
                  setup_s=bench.setup_s,
                  passes=[{c: vars(p) for c, p in ps.procs.items()} for ps in passes],
                  layers_by_subcommand=passes[-1].layer_sums)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
