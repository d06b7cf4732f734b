"""Traced run of one cflab subcommand, for the per-layer half of the benchmark.

Wraps every public function of the layer modules with a timing span, runs the
subcommand through ``cflab.cli.main`` in this process, and writes the spans
and the layer counters to a JSON file.  Run it under ``-X importtime`` so the
parent can also read what ``import cflab`` cost:

    python3 -X importtime perfbench/traced_cli.py SPANS.json simulate --config exp.ini --out out --quiet

The exit code is the subcommand's.
"""
import sys

# Imported first, so that -X importtime charges numpy and scipy to cflab as a
# plain ``cflab`` start does.
import cflab.cli

import importlib
import inspect
import json
import os
import threading
import time
import tracemalloc

from cflab.errors import AbsorbingStateError
from cflab.stochastic import ParticleSystem, gillespie_step

LAYERS = ("kinetic", "stochastic", "characteristics", "bernstein", "verification", "csvio")


class Tracer:
    """Spans as ``[name, parent, start, end]`` rows plus named counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.peaks = {}
        self.ensembles = []
        self.root = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name):
        stack = self._stack()
        # a span opened in a worker thread (convergence's pool) hangs off the subcommand
        parent = stack[-1] if stack else self.root
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, parent, time.perf_counter(), None])
        stack.append(index)
        return index

    def close(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack().pop()

    def add(self, name, value):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        with self._lock:
            self.peaks[name] = max(self.peaks.get(name, 0), value)


# Hooks run in place of the call, inside its span, and derive the layer
# counters from the call's arguments and result.  Counts labelled "computed"
# in the benchmark's README are derived here, not measured.


def _simulate(tracer, call, args):
    traj = call()
    n_steps = int(traj.metadata["n_steps"])
    cap = min(args["config"].spec.truncation, args["initial"].grid.n)
    tracer.add("kinetic.simulate_calls", 1)
    tracer.add("kinetic.steps", n_steps)
    # four right-hand sides per RK4 step, each a direct (cap-1)-long self-convolution
    tracer.add("kinetic.conv_macs", 4 * n_steps * max(cap - 1, 0) ** 2)
    return traj


def _weak_form(tracer, call, args):
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        return call()
    finally:
        tracer.peak("kinetic.weak_form_peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
        if started:
            tracemalloc.stop()


def _ensemble(tracer, call, args):
    result = call()
    tracer.add("stochastic.replicas", int(args["replicas"]))
    tracer.ensembles.append(args)
    return result


def _integrate_fan(tracer, call, args):
    fan = call()
    t_end, dt = float(args["t_end"]), float(args["dt"])
    n_steps = max(1, int(round(t_end / dt))) if t_end > 0 and dt > 0 else 0
    tracer.add("characteristics.path_steps", len(args["starts"]) * n_steps)
    return fan


def _write_rows(tracer, call, args):
    rows, seen = args["rows"], [0]

    def counted():
        for row in rows:
            seen[0] += 1
            yield row

    args["rows"] = counted()
    result = call()
    tracer.add("csvio.rows_written", seen[0])
    tracer.add("csvio.bytes_written", os.path.getsize(args["path"]))
    return result


HOOKS = {
    "kinetic.simulate": _simulate,
    "kinetic.weak_form_residual": _weak_form,
    "stochastic.ensemble_moments": _ensemble,
    "characteristics.integrate_fan": _integrate_fan,
    "csvio.write_rows": _write_rows,
}


def _wrap(tracer, name, fn):
    hook = HOOKS.get(name)
    signature = inspect.signature(fn) if hook else None

    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            if hook is None:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return hook(tracer, lambda: fn(*bound.args, **bound.kwargs), bound.arguments)
        finally:
            tracer.close(index)

    traced.__wrapped__ = fn
    return traced


def install(tracer):
    """Wrap each public function of the layer modules wherever it is bound.

    The CLI and the modules import each other's functions by name, so every
    binding of an original function in any cflab module is replaced, not only
    the one in the defining module.
    """
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"cflab.{layer}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ == module.__name__:
                wrapped[value] = _wrap(tracer, f"{layer}.{attr}", value)
    for name, module in list(sys.modules.items()):
        if name == "cflab" or name.startswith("cflab."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])


def replica_zero_events(args) -> int:
    """Events of replica 0, replayed through the public ``gillespie_step``.

    ``simulate_replica`` seeds replica r with ``(seed, r)`` and draws the same
    stream, so this counts exactly the events it executed: those whose clock
    lands on or before the last grid time.
    """
    volume = args["volume"]
    if volume is None:  # ensemble_moments' default: about 10^4 initial particles
        volume = 1e4 / args["initial"].moment(0)
    system = ParticleSystem.from_distribution(args["initial"], volume, seed=(args["seed"], 0))
    t_last = float(args["t_grid"][-1])
    t, events = 0.0, 0
    while True:
        try:
            _, wait = gillespie_step(system, args["spec"])
        except AbsorbingStateError:
            return events
        t += wait
        if t > t_last:
            return events
        events += 1


def main(argv) -> int:
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    tracer.root = tracer.open(f"cli.{command[0]}")
    try:
        code = cflab.cli.main(command)
    finally:
        tracer.close(tracer.root)
    for args in tracer.ensembles:
        events = replica_zero_events(args)
        tracer.add("stochastic.events", events)
        tracer.add("stochastic.replica_events", events * int(args["replicas"]))
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "command": command[0],
                "exit": code,
                "spans": tracer.spans,
                "counters": tracer.counters,
                "peaks": tracer.peaks,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
