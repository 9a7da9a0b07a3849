"""Every module of the package, and every test module, uses each name it imports."""

import ast
from pathlib import Path

import pytest

import plapshoot

PACKAGE = Path(plapshoot.__file__).parent
# __init__ imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing else in the source reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used
    ]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_an_unused_import():
    source = (
        "from bisect import bisect_right, insort\n"
        "import math\n"
        "bisect_right([], math.pi)\n"
    )
    assert unused_imports(source) == ["insort (line 1)"]
