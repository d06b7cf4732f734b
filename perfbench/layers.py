"""Per-layer metrics from the span dumps of ``traced_cli.py`` and the
``-X importtime`` log of each traced subcommand."""

#: (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    ("cli.self_s", "s"),
    ("kinetic.simulate_s", "s"),
    ("kinetic.simulate_calls", "count"),
    ("kinetic.steps", "count"),
    ("kinetic.step_us", "us"),
    ("kinetic.conv_macs", "count"),
    ("kinetic.weak_form_s", "s"),
    ("kinetic.weak_form_peak_mb", "MB"),
    ("stochastic.ensemble_s", "s"),
    ("stochastic.replicas", "count"),
    ("stochastic.replica_ms", "ms"),
    ("stochastic.events", "count"),
    ("stochastic.event_us", "us"),
    ("characteristics.integrate_fan_s", "s"),
    ("characteristics.path_steps", "count"),
    ("characteristics.fan_to_field_s", "s"),
    ("bernstein.field_s", "s"),
    ("bernstein.hj_residual_s", "s"),
    ("bernstein.cm_exact_s", "s"),
    ("verification.checks_s", "s"),
    ("csvio.write_s", "s"),
    ("csvio.rows_written", "count"),
    ("csvio.bytes_written", "bytes"),
    ("csvio.read_s", "s"),
    ("trace_overhead_s", "s"),
)

#: Span names whose time each metric sums; a trailing "*" matches a prefix.
#: A span nested inside another span of the same metric is not counted again.
SPAN_TIMES = {
    "kinetic.simulate_s": ("kinetic.simulate",),
    "kinetic.weak_form_s": ("kinetic.weak_form_residual",),
    "stochastic.ensemble_s": ("stochastic.ensemble_moments",),
    "characteristics.integrate_fan_s": ("characteristics.integrate_fan",),
    "characteristics.fan_to_field_s": ("characteristics.fan_to_field",),
    "bernstein.field_s": ("bernstein.field_from_trajectory",),
    "bernstein.hj_residual_s": ("bernstein.hj_residual", "bernstein.hj_residual_grid"),
    "bernstein.cm_exact_s": ("bernstein.cm_exact_report",),
    "verification.checks_s": ("verification.*",),
    "csvio.write_s": ("csvio.write_*",),
    "csvio.read_s": ("csvio.read_*",),
}

COUNTERS = (
    "kinetic.simulate_calls",
    "kinetic.steps",
    "kinetic.conv_macs",
    "stochastic.replicas",
    "stochastic.events",
    "characteristics.path_steps",
    "csvio.rows_written",
    "csvio.bytes_written",
)


def _matches(name, patterns):
    return any(name.startswith(p[:-1]) if p.endswith("*") else name == p for p in patterns)


def _outermost_time(spans, patterns):
    total = 0.0
    for name, parent, start, end in spans:
        if not _matches(name, patterns):
            continue
        while parent is not None and not _matches(spans[parent][0], patterns):
            parent = spans[parent][1]
        if parent is None:
            total += end - start
    return total


def _self_time(spans):
    """Root span minus the union of its direct children's intervals.

    Children can overlap when the subcommand runs them on a thread pool.
    """
    root_start, root_end = spans[0][2], spans[0][3]
    covered, reach = 0.0, root_start
    for start, end in sorted((s[2], s[3]) for s in spans[1:] if s[1] == 0):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return (root_end - root_start) - covered


def import_times(log_text):
    """(cflab, scipy) cumulative import seconds from an ``-X importtime`` log.

    cflab counts every top-level ``cflab*`` import with all it pulls in;
    scipy counts each ``scipy*`` import not nested in another scipy import,
    wherever it happens, so a lazy import inside a call still shows.
    """
    entries = []
    for line in log_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        label = parts[2][1:]
        depth = (len(label) - len(label.lstrip(" "))) // 2
        entries.append((depth, label.strip(), int(parts[1]) * 1e-6))
    cflab = sum(c for d, name, c in entries if d == 0 and name.split(".")[0] == "cflab")
    scipy, stack = 0.0, []
    # the log lists children before their parent; walk it backwards to see ancestors first
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(anc_scipy for _, anc_scipy in stack):
            scipy += cumulative
        stack.append((depth, is_scipy))
    return cflab, scipy


def subcommand_layers(dump, import_log):
    """Per-layer sums of one traced subcommand (no ratios; see ``combine``)."""
    spans = dump["spans"]
    out = {name: dump["counters"].get(name, 0) for name in COUNTERS}
    out["stochastic.replica_events"] = dump["counters"].get("stochastic.replica_events", 0)
    out["kinetic.weak_form_peak_mb"] = dump["peaks"].get("kinetic.weak_form_peak_mb", 0.0)
    for metric, patterns in SPAN_TIMES.items():
        out[metric] = _outermost_time(spans, patterns)
    out["cli.self_s"] = _self_time(spans)
    out["cli.import_s"], out["cli.import_scipy_s"] = import_times(import_log)
    return out


def _ratio(num, den, scale):
    return num / den * scale if den else 0.0


def combine(per_command, trace_overhead_s):
    """Workload metrics: sums over subcommands, peaks as maxima, then ratios.

    A layer the workload never calls reads 0.
    """
    total = {}
    for layers in per_command.values():
        for name, value in layers.items():
            if name == "kinetic.weak_form_peak_mb":
                total[name] = max(total.get(name, 0.0), value)
            else:
                total[name] = total.get(name, 0) + value
    total["kinetic.step_us"] = _ratio(total["kinetic.simulate_s"], total["kinetic.steps"], 1e6)
    total["stochastic.replica_ms"] = _ratio(
        total["stochastic.ensemble_s"], total["stochastic.replicas"], 1e3
    )
    total["stochastic.event_us"] = _ratio(
        total["stochastic.ensemble_s"], total.pop("stochastic.replica_events"), 1e6
    )
    total["trace_overhead_s"] = trace_overhead_s
    return {name: total[name] for name, _ in PER_LAYER}
