"""perfbench/tracer.py times spinharm by replacing the functions it names.

A name that became a property or cached_property would be wrapped as if it
were a function, and the traced run would break or lose that layer.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


def test_traced_names_are_plain_functions():
    spans = _spans()
    assert spans
    for prefix, modname, cls, attr, _ in spans:
        module = importlib.import_module(f"spinharm.{modname}")
        if cls:
            value = vars(getattr(module, cls)).get(attr)
        else:
            value = getattr(module, attr, None)
        assert inspect.isfunction(value), f"{prefix}: {value!r}"
