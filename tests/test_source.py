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


def _lcm_over_denominators(tree: ast.AST) -> list[int]:
    """The lines of each ``math.lcm`` (or bare ``lcm``) call whose
    arguments read a ``.denominator``: a rescaling of rationals to a
    common denominator."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "lcm":
            continue
        reads = (sub for arg in node.args for sub in ast.walk(arg))
        if any(isinstance(sub, ast.Attribute) and sub.attr == "denominator" for sub in reads):
            out.append(node.lineno)
    return out


def test_only_linalg_rescales_rationals():
    # rational rows become (D, integer rows) in one place,
    # ``linalg.to_int_rows``; the other modules read integer data
    found = {
        p.name: _lcm_over_denominators(ast.parse(p.read_text()))
        for p in sorted(SRC.glob("*.py"))
        if p.name != "linalg.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the check sees the call however the rationals reach it
    probe = ast.parse("math.lcm(*(x.denominator for x in v))\nlcm(a.denominator, 2)\nmath.lcm(3, 4)\n")
    assert _lcm_over_denominators(probe) == [1, 2]


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


def _importers(package: str) -> dict[str, list[int]]:
    """Module name -> the lines of each import of the package in it, at
    any depth (inside functions too)."""
    found: dict[str, list[int]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                pkgs = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                pkgs = [node.module.split(".")[0]]
            else:
                continue
            if package in pkgs:
                found.setdefault(path.name, []).append(node.lineno)
    return found


def _callers(name: str) -> dict[str, list[str]]:
    """Module name -> the module-level definition around each call of
    ``name``, bare or as an attribute (``<module>`` for a call outside
    every definition)."""
    found: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name:
                        found.setdefault(path.name, []).append(owner)
    return found


def test_only_the_bounds_certificate_calls_jordan_chevalley():
    # nil-invariance of a solvable algebra is invariance (Baues and
    # Globke), so no verdict needs a Jordan decomposition; certify-bounds
    # prints sigma, the semisimple part of ad(a)
    assert _callers("jordan_chevalley") == {"einstein.py": ["bounds_certificate"]}


def test_no_module_imports_mpmath():
    # the integrality probe computes in owned fixed point, so no code
    # path needs mpmath, not even inside a function
    assert _importers("mpmath") == {}


def test_no_module_imports_dataclasses():
    # records are ``typing.NamedTuple``s and the other values derive from
    # ``core.Frozen``: a dataclass execs its generated methods when its
    # class is made, about 1 ms each, and dataclasses imports inspect
    assert _importers("dataclasses") == {}


def _assert_statements(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_statements_in_the_library():
    # ``python -O`` strips assert statements, so a certificate written as
    # one would silently stop being checked; certificates raise
    # ``CertificateError`` instead
    found = {p.name: _assert_statements(ast.parse(p.read_text())) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    probe = ast.parse("assert x\ndef f():\n    assert y, 'message'\nraise AssertionError\n")
    assert _assert_statements(probe) == [1, 3]


def _readers(name: str) -> list[str]:
    """The ``src`` modules that read the identifier, or define it."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = any(
            isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
            for node in ast.walk(tree)
        )
        if defined or _names(tree)[name]:
            out.append(path.name)
    return out


def test_commutator_equations_are_formed_only_by_the_centralizer():
    # brackets of integer vectors on the structure table are read in
    # core alone, where ``centralizer`` turns them into equations; the
    # former centrality helpers are gone
    assert _readers("_int_bracket") == ["core.py"]
    assert _readers("_central_derived") == []
    assert _readers("_is_central") == []


def _defaulted_parameters_without_a_caller() -> list[tuple[str, str, str]]:
    """(module, function, parameter) of each defaulted parameter of a
    module-level function of the package that no call of that name in
    ``src``, ``tests`` or ``perfbench`` passes: by keyword, by position,
    or through ``*`` or ``**``. A default no caller overrides is a knob
    without a user, a second way to set a value."""
    root = SRC.parents[1]
    calls: dict[str, list[ast.Call]] = {}
    for folder in (SRC, root / "tests", root / "perfbench"):
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    calls.setdefault(name, []).append(node)

    def passes(call: ast.Call, param: str, position: int | None) -> bool:
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        if position is None:
            return False
        return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)

    out = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
            defaulted += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for param, position in defaulted:
                if not any(passes(call, param, position) for call in calls.get(fn.name, [])):
                    out.append((path.name, fn.name, param))
    return out


def test_every_defaulted_parameter_has_a_caller():
    assert _defaulted_parameters_without_a_caller() == []


def test_only_the_search_draws_random_numbers():
    # the sharpness search seeds its generator in einstein, and the
    # random skew maps and double extensions of reduction draw from a
    # generator passed in; every decision (invariance, nil-invariance,
    # reduction, obstruction) is exact and takes no seed
    assert sorted(_importers("random")) == ["einstein.py", "reduction.py"]


def _functions(tree: ast.AST):
    """(qualified name, node) of each function, methods as ``Class.name``."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    yield f"{top.name}.{node.name}", node
        elif isinstance(top, ast.FunctionDef):
            yield top.name, top


def _pivots_access(tree: ast.AST) -> tuple[list[str], list[str], list[str]]:
    """(functions that read ``.pivots``, functions outside ``IntSpan``
    that assign it or one of its entries, functions that read it and
    take an ``lcm``: a readout of the pivot rows over the lcm of their
    leading entries)."""
    reads, writes, lcms = [], [], []
    for name, fn in _functions(tree):
        nodes = list(ast.walk(fn))
        attrs = [n for n in nodes if isinstance(n, ast.Attribute) and n.attr == "pivots"]
        stored = [n for n in attrs if isinstance(n.ctx, (ast.Store, ast.Del))]
        stored += [
            n for n in nodes
            if isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store, ast.Del)) and n.value in attrs
        ]
        if attrs:
            reads.append(name)
        if stored and not name.startswith("IntSpan."):
            writes.append(name)
        calls = (n.func for n in nodes if isinstance(n, ast.Call))
        if attrs and any((f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == "lcm" for f in calls):
            lcms.append(name)
    return reads, writes, lcms


def test_only_linalg_and_core_read_the_pivot_rows():
    # the RREF format is linalg's: ``IntSpan.rref`` is the one readout of
    # whole pivot rows over the lcm of their leading entries, and the
    # kernel and the lexicographic solve read one column per pivot row
    # over the same lcm; core brackets and reduces pivot rows
    found = {p.name: _pivots_access(ast.parse(p.read_text())) for p in sorted(SRC.glob("*.py"))}
    assert sorted(name for name, (reads, _, _) in found.items() if reads) == ["core.py", "linalg.py"]
    assert {name: writes for name, (_, writes, _) in found.items() if writes} == {}
    assert {name: lcms for name, (_, _, lcms) in found.items() if lcms} == {
        "linalg.py": ["IntSpan.rref", "IntSpan.int_kernel", "int_solve_lex"]
    }
    probe = ast.parse(
        "class IntSpan:\n    def full(self):\n        self.pivots = {}\n"
        "def f(s):\n    s.pivots = {}\n"
        "def g(s):\n    s.pivots[0] = {0: 1}\n"
        "def h(s):\n    return math.lcm(*(r[p] for p, r in s.pivots.items()))\n"
    )
    assert _pivots_access(probe) == (["IntSpan.full", "f", "g", "h"], ["f", "g"], ["h"])


def _column_reversals(tree: ast.AST) -> list[str]:
    """The functions that subtract from ``n - 1``, directly or through a
    name bound to it (``last - c``): a column order reversed."""

    def minus_one(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)
            and isinstance(node.right, ast.Constant)
            and node.right.value == 1
        )

    out = []
    for name, fn in _functions(tree):
        nodes = list(ast.walk(fn))
        lasts = {
            t.id
            for n in nodes
            if isinstance(n, ast.Assign) and minus_one(n.value)
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        if any(
            isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Sub)
            and (minus_one(n.left) or (isinstance(n.left, ast.Name) and n.left.id in lasts))
            for n in nodes
        ):
            out.append(name)
    return out


def test_only_the_kernel_order_reverses_columns():
    # a span is put on the basis ``SubspaceBasis.kernel`` gives by one
    # constructor, ``in_kernel_order``; linalg's polynomials reverse
    # coefficient order, which is not a column order
    found = {
        p.name: _column_reversals(ast.parse(p.read_text()))
        for p in sorted(SRC.glob("*.py"))
        if p.name != "linalg.py"
    }
    assert {name: fns for name, fns in found.items() if fns} == {"core.py": ["SubspaceBasis.in_kernel_order"]}
    probe = ast.parse("def f(n, c):\n    return n - 1 - c\ndef g(n, c):\n    last = n - 1\n    return last - c\n"
                      "def h(n, c):\n    return n - c - 1\n")
    assert _column_reversals(probe) == ["f", "g"]
