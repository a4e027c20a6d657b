"""Static checks on the library source, standard library only."""

import ast
from collections import Counter
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


def _names(node: ast.AST) -> Counter:
    """Every identifier the node reads: bare names, attributes (``la._span``)
    and names imported with ``from ... import``."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _unreferenced_private_definitions() -> list[tuple[str, int, str]]:
    """(module, line, name) of each module-level private (``_``-prefixed,
    not dunder) function or class that no module of the package reads
    outside its own body."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used: Counter = Counter()
    for tree in trees.values():
        used.update(_names(tree))
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if used[name] - _names(node)[name] == 0:
                out.append((module, node.lineno, name))
    return out


def test_no_unreferenced_private_definitions():
    assert _unreferenced_private_definitions() == []


def _relative_sources(node: ast.ImportFrom) -> set[str]:
    """The package modules a relative ``from`` import reads: ``.X`` for
    ``from .X import ...`` and each ``.name`` for ``from . import name``."""
    dots = "." * node.level
    if node.module:
        return {dots + node.module}
    return {dots + alias.name for alias in node.names}


def _redundant_local_imports(path: Path) -> list[tuple[int, str]]:
    """(line, source) of each relative import inside a function body
    from a module that the file already imports from at module level."""
    tree = ast.parse(path.read_text())
    top: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            top |= _relative_sources(node)
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and node.level:
                out.extend((node.lineno, src) for src in _relative_sources(node) & top)
    return sorted(set(out))


def test_no_function_local_import_of_a_module_level_source():
    found = {p.name: _redundant_local_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _unread_public_definitions() -> list[tuple[str, int, str]]:
    """(module, line, name) of each module-level public function or class
    of the package that no module of ``src``, ``tests`` or ``perfbench``
    reads outside its own body. The package ``__init__`` imports in order
    to re-export, so its imports are not reads."""
    root = SRC.parents[1]
    used: Counter = Counter()
    for folder in (SRC, root / "tests", root / "perfbench"):
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text())
            if path == SRC / "__init__.py":
                tree.body = [n for n in tree.body if not isinstance(n, (ast.Import, ast.ImportFrom))]
            used.update(_names(tree))
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if used[node.name] - _names(node)[node.name] == 0:
                out.append((path.name, node.lineno, node.name))
    return out


def test_no_unread_public_definitions():
    assert _unread_public_definitions() == []


def _unread_test_references() -> list[tuple[int, str]]:
    """(line, name) of each ``reference_*`` or ``naive_*`` helper of
    ``tests/conftest.py`` that no test module reads. Deleted library
    code is kept there as the reference of the code that replaced it,
    and a reference no test reads any more has gone stale."""
    tests = SRC.parents[1] / "tests"
    conftest = tests / "conftest.py"
    used: Counter = Counter()
    for path in sorted(tests.glob("test_*.py")):
        used.update(_names(ast.parse(path.read_text())))
    return [
        (node.lineno, node.name)
        for node in ast.parse(conftest.read_text()).body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith(("reference_", "naive_"))
        and not used[node.name]
    ]


def test_every_conftest_reference_is_read_by_a_test():
    assert _unread_test_references() == []


def _linalg_functions_without_src_reader() -> list[tuple[int, str]]:
    """(line, name) of each public ``linalg`` function that no module of
    ``src`` reads outside its own body. A kernel kept only for tests
    belongs in ``tests/conftest.py`` as a ``naive_*`` reference."""
    used: Counter = Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name == "__init__.py":
            tree.body = [n for n in tree.body if not isinstance(n, (ast.Import, ast.ImportFrom))]
        used.update(_names(tree))
    return [
        (node.lineno, node.name)
        for node in ast.parse((SRC / "linalg.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and used[node.name] - _names(node)[node.name] == 0
    ]


def test_every_public_linalg_function_has_a_src_reader():
    assert _linalg_functions_without_src_reader() == []


def _module_level_imports(node: ast.AST) -> list[tuple[int, str]]:
    """(line, top-level package) of each import that runs when the
    module is imported: everywhere but inside function bodies."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            out.extend((child.lineno, alias.name.split(".")[0]) for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and not child.level:
            out.append((child.lineno, child.module.split(".")[0]))
        out.extend(_module_level_imports(child))
    return out


def test_no_module_imports_sympy_at_module_level():
    # sympy is the fallback for factors of degree >= 3 and for sympy
    # input; importing it costs more than the rest of the package
    found = {
        p.name: [line for line, pkg in _module_level_imports(ast.parse(p.read_text())) if pkg == "sympy"]
        for p in sorted(SRC.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the check sees an import inside a class body or an if at module level
    probe = ast.parse("class A:\n    import sympy\nif True:\n    from sympy import S\ndef f():\n    import sympy\n")
    assert _module_level_imports(probe) == [(2, "sympy"), (4, "sympy")]


def test_no_module_imports_mpmath():
    # the integrality probe computes in owned fixed point, so no code
    # path needs mpmath, not even inside a function
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                pkgs = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                pkgs = [node.module.split(".")[0]]
            else:
                continue
            if "mpmath" in pkgs:
                found.setdefault(path.name, []).append(node.lineno)
    assert found == {}
