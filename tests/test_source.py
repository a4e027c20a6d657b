"""Static checks on the library source, standard library only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "metriclie"


def _unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each module-level import whose name is never
    referenced in the module; ``__future__`` imports are exempt."""
    tree = ast.parse(path.read_text())
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_module_imports():
    # __init__.py imports in order to re-export
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = {p.name: _unused_imports(p) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}
