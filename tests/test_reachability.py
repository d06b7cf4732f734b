"""Every public function and method of ``src/`` is called by a run of the
benchmark workloads or by the README's library sketch, or is on ALLOWED,
which says who else calls it or why no run does."""
import importlib
import inspect
import pkgutil
from functools import cached_property
from pathlib import Path

import cflab

#: Public functions that no workload run and no README sketch calls, each
#: with its reason.
ALLOWED = {
    "stochastic.gillespie_step": "perfbench/traced_cli.py replays replica 0 through it to count events",
}


def public_functions():
    """(qualified name, code object) of every public function and method that
    cflab's source files define: methods include properties and dunders such
    as ``__init__``, but not what ``dataclass`` generates."""
    src = Path(cflab.__file__).resolve().parent
    for info in pkgutil.iter_modules(cflab.__path__):
        module = importlib.import_module(f"cflab.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).items() if inspect.isclass(value) else [(None, value)]
            for attr, member in members:
                if attr is not None and attr.startswith("_") and not attr.endswith("__"):
                    continue
                for fn in (member.fget, member.fset) if isinstance(member, property) else (member,):
                    fn = getattr(fn, "__func__", fn)
                    fn = fn.func if isinstance(fn, cached_property) else fn
                    if inspect.isfunction(fn) and Path(fn.__code__.co_filename).resolve().parent == src:
                        yield f"{info.name}.{fn.__qualname__}", fn.__code__


def test_every_public_function_is_reached_or_allowed(workload_runs, readme_sketch):
    called = workload_runs["called"] | readme_sketch["called"]
    unreached = sorted(name for name, code in public_functions() if code not in called)
    assert unreached == sorted(ALLOWED)
