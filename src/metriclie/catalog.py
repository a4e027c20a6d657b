"""Built-in algebra catalog for the command-line interface and tests.

Names are either bare ("heis3", "sl2", "su2", "example42") or
parameterized ("ab(4,1)", "ko1(6,2,delta.json)").  Every entry
validates under validate_structure.
"""

from __future__ import annotations

import json
import math
import re

from . import linalg as la
from .core import LieAlgebra, killing_form
from .documents import read_rational
from .errors import DocumentError
from .forms import MetricLieAlgebra, SymBilinearForm
from .reduction import build_ab, build_example42, build_ko1

_BARE_NAMES = ("heis3", "sl2", "su2", "example42")
_PARAM_NAMES = ("ab", "ko1")


def heis3() -> LieAlgebra:
    """Three-dimensional algebra with a single bracket [x,y] = z.

    Carries no non-degenerate invariant form, so there is no metric
    counterpart in the catalog.
    """
    return LieAlgebra.from_rows(3, ("x", "y", "z"), 1, {(0, 1): [(2, 1)]})


def sl2() -> MetricLieAlgebra:
    """Traceless 2x2 matrices in the (e, f, h) basis, with the Killing
    form as the invariant scalar product."""
    upper = {(0, 1): [(2, 1)], (0, 2): [(0, -2)], (1, 2): [(1, 2)]}
    alg = LieAlgebra.from_rows(3, ("e", "f", "h"), 1, upper)
    return MetricLieAlgebra(alg, killing_form(alg))


def su2() -> MetricLieAlgebra:
    """Compact three-dimensional simple algebra with cyclic brackets
    [u1,u2] = u3 etc., carrying its (negative definite) Killing form."""
    upper = {(0, 1): [(2, 1)], (0, 2): [(1, -1)], (1, 2): [(0, 1)]}
    alg = LieAlgebra.from_rows(3, ("u1", "u2", "u3"), 1, upper)
    return MetricLieAlgebra(alg, killing_form(alg))


def direct_sum(
    left: MetricLieAlgebra, right: MetricLieAlgebra
) -> MetricLieAlgebra:
    """Orthogonal direct sum of two metric Lie algebras, written from the
    integer tables and form rows of the summands over their common
    denominators."""
    n1, n = left.dim, left.dim + right.dim
    den = math.lcm(left.algebra.int_table[0], right.algebra.int_table[0])
    mden = math.lcm(left.form.int_rows[0], right.form.int_rows[0])
    upper, gram = {}, []
    for off, part in ((0, left), (n1, right)):
        lden, table = part.algebra.int_table
        for i, row in enumerate(table):
            for j in range(i + 1, len(row)):
                upper[(off + i, off + j)] = [(off + k, t * (den // lden)) for k, t in row[j]]
        fden, rows = part.form.int_rows
        gram += [[(off + q, t * (mden // fden)) for q, t in r] for r in rows]
    names = left.algebra.basis_names + right.algebra.basis_names
    if len(set(names)) != n:
        names = tuple(f"l_{s}" for s in left.algebra.basis_names) + tuple(
            f"r_{s}" for s in right.algebra.basis_names
        )
    alg = LieAlgebra.from_rows(n, names, den, upper)
    return MetricLieAlgebra(alg, SymBilinearForm.from_rows(n, mden, gram))


def load_delta_file(path: str, expected_dim: int) -> la.Mat:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read delta file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        )
    if isinstance(raw, dict) and "delta" in raw:
        raw = raw["delta"]
    if not isinstance(raw, list) or len(raw) != expected_dim or any(
        not isinstance(r, list) or len(r) != expected_dim for r in raw
    ):
        raise DocumentError(
            f"{path}: delta must be a {expected_dim}x{expected_dim} matrix"
        )
    den, rows = la.pair_rows(
        [(j, read_rational(x, f"{path}: delta[{i}][{j}]")) for j, x in enumerate(row)]
        for i, row in enumerate(raw)
    )
    return la.mat_over(la.dense(rows, expected_dim), den)


def _suggest(name: str) -> str:
    # imported on this error path alone, so no other run pays for it
    import difflib

    pool = list(_BARE_NAMES) + list(_PARAM_NAMES)
    close = difflib.get_close_matches(name, pool, n=3, cutoff=0.4)
    listing = ", ".join(close) if close else ", ".join(pool)
    return f"unknown catalog name {name!r}; did you mean: {listing}?"


def resolve(name: str):
    """Look a catalog name up, returning (LieAlgebra, form-or-None)."""
    name = name.strip()
    match = re.fullmatch(r"([a-zA-Z0-9_]+)\s*(?:\((.*)\))?", name)
    if not match:
        raise DocumentError(_suggest(name))
    head, args_raw = match.group(1), match.group(2)
    args = [a.strip() for a in args_raw.split(",")] if args_raw else []
    if head in _BARE_NAMES:
        if args:
            raise DocumentError(f"{head} takes no arguments")
        if head == "heis3":
            return heis3(), None
        if head == "sl2":
            m = sl2()
        elif head == "su2":
            m = su2()
        else:
            m = build_example42()
        return m.algebra, m.form
    if head == "ab":
        if len(args) != 2:
            raise DocumentError("ab expects two integers, e.g. ab(4,1)")
        try:
            n, s = int(args[0]), int(args[1])
        except ValueError:
            raise DocumentError("ab expects two integers, e.g. ab(4,1)")
        m = build_ab(n, s)
        return m.algebra, m.form
    if head == "ko1":
        if len(args) != 3:
            raise DocumentError(
                "ko1 expects ko1(n,s,<delta-file>) with delta a JSON matrix"
            )
        try:
            n, s = int(args[0]), int(args[1])
        except ValueError:
            raise DocumentError("ko1: n and s must be integers")
        if n < 2 or s < 1:
            raise DocumentError("ko1 requires n >= 2 and s >= 1")
        delta = load_delta_file(args[2], n - 2)
        m = build_ko1(n, s, delta)
        return m.algebra, m.form
    raise DocumentError(_suggest(head))
