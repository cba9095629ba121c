"""Tooling check: the library validates an instance only at the file boundary.

``validate_instance`` runs when a file is read (``obj_to_instance``) and
when one is written (``dumps_instance``). Between the two, generators build
instances that are valid by construction and certification declines an
ordering it cannot rank, so no other code of ``src/auctol`` reads the name.
Like ``test_dead_definitions.py``, this scans the source with ``ast``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "auctol"
BOUNDARY = ["instances.dumps_instance", "instances.obj_to_instance"]


def readers(source: str, module: str, name: str) -> list[str]:
    """The definitions of ``source`` that read ``name``, bare or as an
    attribute, each as ``module.function`` or ``module.Class.method`` (a
    nested function is named through the functions around it); a read at
    module level is named ``module``. Imports and strings do not count."""
    found = []

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def test_scan_finds_calls_references_and_nesting():
    lib = (
        "from x import check\n"
        "__all__ = ['check']\n"
        "def boundary(i):\n"
        "    check(i)\n"
        "def passes_it_on(items):\n"
        "    return list(map(x.check, items))\n"
        "class C:\n"
        "    def method(self):\n"
        "        def inner():\n"
        "            return check\n"
        "def check_other(i):\n"
        "    return i\n"
        "check(None)\n"
    )
    assert readers(lib, "lib", "check") == ["lib.boundary", "lib.passes_it_on", "lib.C.method.inner", "lib"]


def test_only_the_file_boundary_validates_an_instance():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(readers(path.read_text(encoding="utf-8"), path.stem, "validate_instance"))
    assert sorted(found) == BOUNDARY
