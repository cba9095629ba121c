"""Tooling check: no module of the library reads another module's private
names or writes another module's private attributes.

A name with a leading underscore belongs to the module that defines it, so
a rule that module owns (the loader's JSON reading and type checks, say)
keeps one form there. No linter ships with the package, so this scans
``src/auctol`` with ``ast``. A module breaks the rule when it imports an
underscore name from another module of the package (``from .instances
import _parse_json``) or reads one as an attribute of such a module
(``instances._parse_json``). Dunder names are Python's and are skipped.

An underscore attribute of an object belongs to the class that declares
it, in its body (``_valid_for: ObjectGraph | None``) or as
``self._name = ...`` in one of its methods. A module may assign
``x._name = ...`` only when a class in that module declares ``_name``, so
no module keeps state on another module's objects (``ordering._bound = 1``
outside the module of ``Ordering``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "auctol"
PACKAGE = "auctol"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module ``node`` imports from, "" for the package itself,
    or None for a module outside the package."""
    if node.level == 0:
        if node.module == PACKAGE:
            return ""
        if node.module and node.module.startswith(PACKAGE + "."):
            return node.module[len(PACKAGE) + 1 :]
        return None
    return node.module or ""


def private_reads(source: str, module: str, modules: set[str]) -> list[str]:
    """The private names of other package modules (``modules``) that the
    text of ``module`` reads, as ``module.name``, sorted."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}  # a local name bound to a package module -> that module
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (source_module := _package_module(node)) is not None:
            for alias in node.names:
                if source_module == "" and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                elif source_module not in ("", module) and _private(alias.name):
                    found.add(f"{source_module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith(PACKAGE + "."):
                    aliases[alias.asname] = alias.name[len(PACKAGE) + 1 :]
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in aliases:
            owner = aliases[value.id]
        elif isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name) and value.value.id == PACKAGE:
            owner = value.attr  # auctol.instances._name after import auctol.instances
        else:
            continue
        if owner in modules and owner != module:
            found.add(f"{owner}.{node.attr}")
    return sorted(found)


def test_scan_finds_private_imports_and_attribute_reads():
    modules = {"lib", "other", "mine"}
    source = (
        "import auctol.other as o\n"
        "import auctol.lib\n"
        "from . import lib, other as oth\n"
        "from .lib import _helper, public\n"
        "from auctol.other import _table\n"
        "from .mine import _own\n"
        "from json import _private_of_json\n"
        "lib._parse(oth._walk, o._read, auctol.lib._deep, lib.public, lib.__name__)\n"
        "node._cache\n"
        "mine._own\n"
    )
    assert private_reads(source, "mine", modules) == [
        "lib._deep",
        "lib._helper",
        "lib._parse",
        "other._read",
        "other._table",
        "other._walk",
    ]


ASSIGNMENTS = (ast.Assign, ast.AnnAssign, ast.AugAssign)


def _targets(node: ast.AST):
    """The assignment targets of ``node``, with tuples and lists unpacked."""
    stack = list(node.targets) if isinstance(node, ast.Assign) else [node.target]
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack += target.elts
        else:
            yield target


def _self_attribute(target: ast.AST) -> bool:
    return isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "self"


def foreign_attribute_writes(source: str) -> list[str]:
    """The underscore attributes ``source`` assigns (``x._name = ...``) that
    no class in ``source`` declares, each as ``line:name``, in line order."""
    tree = ast.parse(source)
    declared = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:  # class-level names, dataclass fields among them
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    declared.update(t.id for t in _targets(node) if isinstance(t, ast.Name))
            for node in ast.walk(cls):
                if isinstance(node, ASSIGNMENTS):
                    declared.update(t.attr for t in _targets(node) if _self_attribute(t))
    writes = {
        (t.lineno, t.attr)
        for node in ast.walk(tree) if isinstance(node, ASSIGNMENTS)
        for t in _targets(node) if isinstance(t, ast.Attribute) and _private(t.attr)
    }
    return [f"{line}:{name}" for line, name in sorted(writes) if name not in declared]


def test_scan_finds_writes_of_attributes_no_class_here_declares():
    source = (
        "class Table:\n"
        "    _rows: list\n"
        "    def __init__(self):\n"
        "        self._seen, self.size = None, 0\n"
        "def mark(table, ordering, other):\n"
        "    table._rows = []\n"
        "    table._seen = 1\n"
        "    ordering._bound = 1\n"
        "    other._count += 1\n"
        "    table.__doc__ = ''\n"
        "    table.public = 2\n"
    )
    assert foreign_attribute_writes(source) == ["8:_bound", "9:_count"]


def test_no_module_writes_another_modules_private_attributes():
    found = {p.stem: foreign_attribute_writes(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert {module: writes for module, writes in found.items() if writes} == {}


def test_no_module_reads_another_modules_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    modules = set(sources) - {"__init__"}
    assert {"cli", "instances", "graphs"} <= modules
    reads = {module: private_reads(text, module, modules) for module, text in sources.items()}
    assert {module: names for module, names in reads.items() if names} == {}
