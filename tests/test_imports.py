"""Every name a module under src/ or tests/ imports is read in that module.

No linter ships with the project, so this is the unused-import check.  A
name counts as read when it is loaded (``np`` in ``np.zeros``) or listed
in the module's ``__all__``; ``from __future__`` imports bind nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
)


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
