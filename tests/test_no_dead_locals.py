"""No function of `src/spinharm` assigns a local name that it never reads,
takes a parameter that it never reads, and no module imports a name that
it never reads.

A local that is written and never read is work done for nothing, or a
value that a check meant to compare and forgot.  A name counts as read
when any Load of it appears in the function, nested functions and
comprehensions included; `global` and `nonlocal` names and the throwaway
`_` are not locals.  A parameter is held to the same rule, except for a
method's receiver (`self`, `cls`) and the parameters of dunder protocol
methods, whose signatures the protocol fixes.  A module-level import is
read when any Load of it appears in the module, or when `__all__` names
it; an import that nothing reads is left behind by a deletion.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spinharm"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _reads(node):
    """The names Loaded anywhere under node."""
    return {name.id for name in ast.walk(node)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}


def unread_locals(function):
    """{name: line of its first assignment} of the names the function
    assigns and never reads."""
    stored, read, declared = {}, set(), {"_"}
    for node in ast.walk(function):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                read.add(node.id)
            else:
                stored.setdefault(node.id, node.lineno)
    return {name: line for name, line in stored.items()
            if name not in read and name not in declared}


def _dead_locals(source, filename):
    return [f"{filename}:{line} {function.name} assigns {name}"
            for function in ast.walk(ast.parse(source, filename))
            if isinstance(function, FUNCTIONS)
            for name, line in unread_locals(function).items()]


def test_no_function_assigns_a_local_it_never_reads():
    found = [dead for path in sorted(SRC.glob("*.py"))
             for dead in _dead_locals(path.read_text(), path.name)]
    assert found == []


def test_the_scan_sees_a_dead_local_and_only_that():
    source = (
        "def f(xs):\n"
        "    total, unused = 0, 1\n"
        "    for _ in xs:\n"
        "        total += 1\n"
        "    def g():\n"
        "        nonlocal total\n"
        "        total = 2\n"
        "    return [y for y in xs if y], total, g\n")
    assert _dead_locals(source, "m.py") == ["m.py:2 f assigns unused"]


def _dead_parameters(source, filename):
    tree = ast.parse(source, filename)
    methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, FUNCTIONS)
               and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                           for d in f.decorator_list)}
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, FUNCTIONS) or (
                function.name.startswith("__")
                and function.name.endswith("__")):
            continue
        args = function.args
        params = args.posonlyargs + args.args
        if id(function) in methods:
            params = params[1:]
        params += args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        read = _reads(function)
        found += [f"{filename}:{function.lineno} {function.name} "
                  f"never reads {a.arg}"
                  for a in params if a.arg not in read | {"_"}]
    return found


def _dead_imports(source, filename):
    tree = ast.parse(source, filename)
    read = _reads(tree)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {e.value for e in node.value.elts}
    return [f"{filename}:{node.lineno} imports {name}"
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in ((a.asname or a.name).split(".")[0]
                         for a in node.names)
            if name not in read]


def test_no_function_takes_a_parameter_it_never_reads():
    found = [dead for path in sorted(SRC.glob("*.py"))
             for dead in _dead_parameters(path.read_text(), path.name)]
    assert found == []


def test_no_module_imports_a_name_it_never_reads():
    found = [dead for path in sorted(SRC.glob("*.py"))
             for dead in _dead_imports(path.read_text(), path.name)]
    assert found == []


def test_the_scan_sees_a_dead_parameter_and_only_that():
    source = (
        "def f(a, unused, _, *rest, k=1):\n"
        "    def g(b):\n"
        "        return a, b, k\n"
        "    return g, rest\n"
        "class C:\n"
        "    def m(self, x):\n"
        "        return x\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        return 1\n"
        "    @staticmethod\n"
        "    def s(y):\n"
        "        return 2\n"
        "    def __setattr__(self, name, value):\n"
        "        raise TypeError\n")
    assert _dead_parameters(source, "m.py") == [
        "m.py:1 f never reads unused", "m.py:12 s never reads y"]


def test_the_scan_sees_a_dead_import_and_only_that():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from .a import (Read, Exported,\n"
        "                Unused)\n"
        "__all__ = ['Exported']\n"
        "def f():\n"
        "    from .b import Local\n"
        "    return os.path.join, Read\n")
    assert _dead_imports(source, "m.py") == [
        "m.py:3 imports js", "m.py:4 imports Unused"]
