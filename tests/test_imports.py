import ast
import importlib.util
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


def test_every_traced_name_exists():
    # the benchmark's tracer patches these (owner, attribute) pairs by name, so
    # dropping or renaming one breaks a traced run, not the suite
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = spans.SPANS + spans.COUNTED
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in traced
               if not callable(vars(owner).get(attr))]
    assert traced and missing == []
