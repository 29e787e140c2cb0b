"""perfbench/tracer.py times spinharm by replacing the functions it names.

A name that became a property or cached_property would be wrapped as if it
were a function, and the traced run would break or lose that layer.  A
name in REMOVED was deleted from spinharm on purpose: the tracer lists it
as "not found" and reads its counters as 0 (perfbench/NOTES.md), until the
next change to the benchmark drops it from SPANS.

The workloads themselves (perfbench/workloads.py, perfbench/cold.py) call
spinharm directly; every name they use must exist, so that deleting one
fails here rather than in the benchmark.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = (PERFBENCH / "workloads.py", PERFBENCH / "cold.py")

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


def _workload_references(path):
    """(module, attribute) pairs a workload file takes from spinharm:
    imported names, attributes of imported modules, and the verify check
    names it looks up as strings."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}   # local name -> spinharm module name
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "spinharm":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("spinharm."):
            refs.update((node.module[9:], a.name) for a in node.names)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in modules:
            refs.add((modules[value.id], node.attr))
        elif isinstance(value, ast.Attribute) and \
                isinstance(value.value, ast.Name) and \
                value.value.id == "spinharm":
            refs.add((value.attr, node.attr))
    refs.update(("verify", node.value) for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and re.fullmatch(r"check_[a-z0-9_]+", node.value))
    return refs


def test_workload_references_exist():
    refs = set().union(*(_workload_references(p) for p in WORKLOADS))
    assert {("cli", "main"), ("numeric", "residual_norm"),
            ("homogeneous", "load_model"), ("verify", "check_cp3"),
            ("verify", "check_numeric_scan")} <= refs
    for modname, attr in sorted(refs):
        module = importlib.import_module(f"spinharm.{modname}")
        assert hasattr(module, attr), f"perfbench uses {modname}.{attr}"
