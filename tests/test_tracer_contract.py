"""perfbench/tracer.py times spinharm by replacing the functions it names.

A name that became a property or cached_property would be wrapped as if it
were a function, and the traced run would break or lose that layer.  A
name in REMOVED was deleted from spinharm on purpose: the tracer lists it
as "not found" and reads its counters as 0 (perfbench/NOTES.md), until the
next change to the benchmark drops it from SPANS.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

REMOVED = {"homogeneous.vanishing_verdict_general"}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


def _traced(modname, cls, attr):
    module = importlib.import_module(f"spinharm.{modname}")
    if cls:
        return vars(getattr(module, cls)).get(attr)
    return getattr(module, attr, None)


def test_traced_names_are_plain_functions():
    spans = _spans()
    assert spans
    assert REMOVED <= {prefix for prefix, *_ in spans}
    for prefix, modname, cls, attr, _ in spans:
        value = _traced(modname, cls, attr)
        if prefix in REMOVED:
            assert value is None, f"{prefix} is back: {value!r}"
        else:
            assert inspect.isfunction(value), f"{prefix}: {value!r}"
