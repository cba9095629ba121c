"""Tooling check: every function, method and property of the library has a
caller outside the tests.

No linter ships with the package, so this scans the source with ``ast``. A
module-level function counts as used when some file of ``src/auctol``,
``demos/`` or ``perfbench/`` reads its name or reads it as an attribute
(``solvers.opcost``); importing it does not count, so a name that only
``auctol.__init__`` re-exports is still reported. A method or property
counts as used only through attribute access (``g.rank``), so a local
variable of the same name does not hide it. Dunder methods are called by
Python itself and are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "auctol"
CALLERS = [SRC, ROOT / "demos", ROOT / "perfbench"]

# Definitions with no caller in the scanned code, each kept on purpose.
ALLOWED: dict[str, str] = {
    # the public entry point for instance text held in memory (the flatness
    # gates time it); load_instance inlines its body so that no frame keeps
    # the file text alive while the instance is built
    "instances.loads_instance": "public API for text the caller holds",
}


def definitions(source: str, module: str) -> dict[str, tuple[str, bool]]:
    """Each function, method and property in ``source``, keyed by
    ``module.name`` or ``module.Class.name``: its bare name and whether it
    is defined in a class body. Nested functions are skipped: their name is
    local to the function around them."""
    found = {}
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[f"{module}.{node.name}"] = (node.name, False)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("__"):
                    found[f"{module}.{node.name}.{item.name}"] = (item.name, True)
    return found


def references(source: str) -> tuple[set[str], set[str]]:
    """The names ``source`` reads, and the attribute names it reads."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def unreferenced(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Keys of the definitions in ``sources`` (module name -> text) that no
    text in ``callers`` references."""
    names, attrs = set(), set()
    for text in callers:
        more_names, more_attrs = references(text)
        names |= more_names
        attrs |= more_attrs
    found = {}
    for module, text in sources.items():
        found.update(definitions(text, module))
    return sorted(key for key, (name, method) in found.items() if name not in attrs and (method or name not in names))


def test_scan_matches_names_and_attribute_access():
    lib = (
        "def used(): pass\n"
        "def via_module(): pass\n"
        "def only_imported(): pass\n"
        "class C:\n"
        "    def __init__(self): pass\n"
        "    def called(self): pass\n"
        "    @property\n"
        "    def adj(self): pass\n"
    )
    caller = "from lib import only_imported\nimport lib\nused()\nlib.via_module()\nC().called()\nadj = {}\nadj[1] = adj\n"
    assert unreferenced({"lib": lib}, [lib, caller]) == ["lib.C.adj", "lib.only_imported"]


def test_every_definition_has_a_caller_outside_the_tests():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    callers = [p.read_text(encoding="utf-8") for root in CALLERS for p in sorted(root.glob("*.py"))]
    assert len(sources) > 5 and len(callers) > len(sources)
    dead = unreferenced(sources, callers)
    assert [key for key in dead if key not in ALLOWED] == []
    assert sorted(ALLOWED) == [key for key in dead if key in ALLOWED], "an allowlisted definition now has a caller"
