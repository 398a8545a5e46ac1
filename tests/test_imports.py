"""Every name a module under src/ or tests/ imports is read in that module,
and every module-level function and class under src/ is read somewhere.

No linter ships with the project, so these are the unused-import and
dead-code checks.  A name counts as read when it is loaded (``np`` in
``np.zeros``) or listed in the module's ``__all__``; ``from __future__``
imports bind nothing.  For the dead-code check a definition also counts as
read when it is imported, read as an attribute (``graphs.orbit``) or named
in a ``"module:name"`` string (perfbench's trace targets), anywhere in
src/, tests/ or perfbench/ outside its own body.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
)
READERS = sorted([*MODULES, *(ROOT / "perfbench").rglob("*.py")])


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in read
    )


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _reads(tree) -> set:
    """Names the nodes under ``tree`` load, import, read as an attribute or
    name after the colon of a ``"module:name"`` string."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            module, colon, target = node.value.partition(":")
            dotted = f"{module}.{target}".split(".")
            if colon and all(part.isidentifier() for part in dotted):
                read.add(target.split(".")[0])
    return read


def unreferenced_definitions(defined: dict, readers: dict) -> list:
    """Module-level functions and classes of the sources in ``defined``
    (module name -> source) that no source in ``readers`` (module name ->
    source) reads outside their own definition."""
    read = {}
    for module, source in readers.items():
        for node in ast.parse(source).body:
            owner = getattr(node, "name", None)
            for name in _reads(node):
                read.setdefault(name, set()).add((module, owner))
    unread = []
    for module, source in defined.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not read.get(node.name, set()) - {(module, node.name)}:
                    unread.append(f"{module}: {node.name}")
    return sorted(unread)


def test_checker_flags_an_unread_definition():
    defined = {
        "lib": "def used():\n    pass\n\n"
        "def recursive():\n    return recursive()\n\n"
        "def traced():\n    pass\n\nclass Dead:\n    pass\n"
    }
    readers = {
        **defined,
        "user": "import lib\nlib.used()\nTARGET = 'pkg.lib:traced'\n",
    }
    assert unreferenced_definitions(defined, readers) == [
        "lib: Dead",
        "lib: recursive",
    ]


def test_no_unreferenced_definitions():
    def name(path):
        return str(path.relative_to(ROOT))

    defined = {
        name(p): p.read_text() for p in MODULES if p.is_relative_to(ROOT / "src")
    }
    readers = {name(p): p.read_text() for p in READERS}
    assert unreferenced_definitions(defined, readers) == []
