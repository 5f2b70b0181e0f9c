import ast
from pathlib import Path

import pytest

import overbook

MODULES = sorted(p for p in Path(overbook.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported_and_used(tree: ast.Module) -> tuple[set[str], set[str]]:
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    # __init__.py re-exports its imports; every other module must read each name it imports
    imported, used = _imported_and_used(ast.parse(path.read_text(), str(path)))
    assert sorted(imported - used) == []
