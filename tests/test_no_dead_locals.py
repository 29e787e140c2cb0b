"""No function of `src/spinharm` assigns a local name that it never reads.

A local that is written and never read is work done for nothing, or a
value that a check meant to compare and forgot.  A name counts as read
when any Load of it appears in the function, nested functions and
comprehensions included; `global` and `nonlocal` names and the throwaway
`_` are not locals.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spinharm"


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
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
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
