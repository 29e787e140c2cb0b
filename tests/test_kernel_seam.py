"""`spinharm.scalars` is the only module that knows how a value is stored.

Every other module of `src/spinharm` reaches the kernel through the names
listed in the `scalars` docstring: none imports a private kernel name or
reads the fraction-free fields `ints` and `dd`, and the list names exactly
what the modules import, so `tests/plain_kernel.py` can stand in for it.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spinharm"
KERNEL_FIELDS = {"ints", "dd"}


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _kernel_imports(tree):
    """The names imported from the kernel module in tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == "scalars")
                or node.module == "spinharm.scalars"):
            names.update(alias.name for alias in node.names)
    return names


def _documented_api():
    """The names in the indented block after 'The kernel API ...:' in the
    `scalars` docstring."""
    doc = ast.get_docstring(_trees()["scalars.py"])
    block = re.search(r"The kernel\s+API[^:]*:\n\n((?:    \S[^\n]*\n)+)", doc)
    assert block, "the scalars docstring lists no kernel API"
    return set(block.group(1).split())


def test_no_module_but_the_kernel_reads_its_fields_or_private_names():
    offences = []
    for name, tree in _trees().items():
        if name == "scalars.py":
            continue
        offences += [f"{name}: imports {n}" for n in _kernel_imports(tree)
                     if n.startswith("_")]
        offences += [f"{name}:{node.lineno}: reads .{node.attr}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and node.attr in KERNEL_FIELDS]
    assert offences == []


def test_the_documented_api_is_what_the_modules_import():
    imported = set().union(*(_kernel_imports(tree)
                             for name, tree in _trees().items()
                             if name != "scalars.py"))
    assert _documented_api() == imported
    assert len(imported) < 17


def test_the_guard_sees_an_offence():
    tree = ast.parse("from .scalars import ZERO, _coerce\nx = p.ints + q.dd\n")
    assert _kernel_imports(tree) == {"ZERO", "_coerce"}
    assert {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)} == KERNEL_FIELDS


def test_the_plain_kernel_defines_the_api_and_nothing_more():
    """Its public names are the documented API, the kernel's other
    exceptions and MAX_QUOTE (re-exported) and `install`."""
    path = Path(__file__).resolve().parent / "plain_kernel.py"
    body = ast.parse(path.read_text()).body
    defined = {node.name for node in body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {name.id for node in body if isinstance(node, ast.Assign)
                for target in node.targets for name in ast.walk(target)
                if isinstance(name, ast.Name)}
    extra = {"install", "MAX_QUOTE", "ScalarDomainError", "NotExpressibleInT",
             "PoleError", "IdenticallyZero"}
    assert {n for n in defined if not n.startswith("_")} == \
        _documented_api() | extra
