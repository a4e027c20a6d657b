"""Built-in algebra catalog for the command-line interface and tests.

Names are either bare ("heis3", "sl2", "su2", "example42") or
parameterized ("ab(4,1)", "ko1(6,2,delta.json)").  Every entry
validates under validate_structure.
"""

from __future__ import annotations

import difflib
import json
import re
from fractions import Fraction

from . import linalg as la
from .core import LieAlgebra, killing_matrix
from .documents import parse_rational
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
    z = la.unit_vec(3, 2)
    return LieAlgebra(3, ("x", "y", "z"), {(0, 1): z})


def sl2() -> MetricLieAlgebra:
    """Traceless 2x2 matrices in the (e, f, h) basis, with the Killing
    form as the invariant scalar product."""
    e = la.unit_vec(3, 0)
    f = la.unit_vec(3, 1)
    h = la.unit_vec(3, 2)
    alg = LieAlgebra(
        3,
        ("e", "f", "h"),
        {
            (0, 1): h,
            (0, 2): la.vec_scale(Fraction(-2), e),
            (1, 2): la.vec_scale(Fraction(2), f),
        },
    )
    return MetricLieAlgebra(alg, SymBilinearForm(killing_matrix(alg)))


def su2() -> MetricLieAlgebra:
    """Compact three-dimensional simple algebra with cyclic brackets
    [u1,u2] = u3 etc., carrying its (negative definite) Killing form."""
    alg = LieAlgebra(
        3,
        ("u1", "u2", "u3"),
        {
            (0, 1): la.unit_vec(3, 2),
            (1, 2): la.unit_vec(3, 0),
            (0, 2): la.vec_scale(Fraction(-1), la.unit_vec(3, 1)),
        },
    )
    return MetricLieAlgebra(alg, SymBilinearForm(killing_matrix(alg)))


def direct_sum(
    left: MetricLieAlgebra, right: MetricLieAlgebra
) -> MetricLieAlgebra:
    """Orthogonal direct sum of two metric Lie algebras."""
    n1, n2 = left.algebra.dim, right.algebra.dim
    n = n1 + n2
    brackets = {}
    for (i, j), c in left.algebra.brackets.items():
        brackets[(i, j)] = c + (la.ZERO,) * n2
    for (i, j), c in right.algebra.brackets.items():
        brackets[(i + n1, j + n1)] = (la.ZERO,) * n1 + c
    names = left.algebra.basis_names + right.algebra.basis_names
    if len(set(names)) != n:
        names = tuple(f"l_{s}" for s in left.algebra.basis_names) + tuple(
            f"r_{s}" for s in right.algebra.basis_names
        )
    alg = LieAlgebra(n, names, brackets)
    rows = []
    for i in range(n):
        row = [la.ZERO] * n
        for j in range(n):
            if i < n1 and j < n1:
                row[j] = left.form.matrix[i][j]
            elif i >= n1 and j >= n1:
                row[j] = right.form.matrix[i - n1][j - n1]
        rows.append(tuple(row))
    return MetricLieAlgebra(alg, SymBilinearForm(tuple(rows)))


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
    return tuple(
        tuple(
            parse_rational(raw[i][j], f"{path}: delta[{i}][{j}]")
            for j in range(expected_dim)
        )
        for i in range(expected_dim)
    )


def _suggest(name: str) -> str:
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
