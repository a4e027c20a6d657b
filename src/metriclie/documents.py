"""JSON-document serialization for algebras with optional forms.

Rationals travel as strings ("3/4", "-2"; bare integers accepted) so
nothing is ever rounded through floats. Each is read once into an
integer pair (``read_rational``), and a document holds integer rows over
one common denominator, the (den, rows) that ``LieAlgebra.from_rows``
and ``SymBilinearForm.from_rows`` take.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from . import linalg as la
from .core import LieAlgebra, span_of
from .errors import DocumentError
from .forms import SymBilinearForm

IntRows = tuple[int, tuple[la.IntRow, ...]]


class AlgebraDocument(NamedTuple):
    """A parsed document, every rational read once into integers.

    ``brackets`` = (L, rows) holds (i, j, pairs) sorted by (i, j), the
    pairs (k, L c_ij^k) with non-zero entry in increasing k; ``form`` is
    (M, rows), ``rows[p]`` the pairs (q, M B_pq); a ``nilradical`` hint
    is (D, rows), row i the pairs (c, D v_ic) of vector i. Each
    denominator is the least common one of its entries, so equal
    documents hold equal rows."""

    name: str
    dim: int
    basis: tuple[str, ...]
    brackets: tuple[int, tuple[tuple[int, int, la.IntRow], ...]]
    form: IntRows | None = None
    hints: dict | None = None


def read_rational(raw, where: str) -> tuple[int, int]:
    """The rational raw as (p, q) in lowest terms with q > 0. A string
    that is an optional sign and ASCII digits after ``strip()`` is read
    by ``int``, any other string by ``Fraction``, so the strings
    accepted, their values and the errors (even past the digit limit of
    ``int``) are those of ``Fraction``."""
    if isinstance(raw, str):
        s = raw.strip()
        try:
            if s.isascii() and (s[1:] if s[:1] in "+-" else s).isdigit():
                return int(s), 1
            x = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{where}: bad rational {raw!r} ({exc})")
        return x.numerator, x.denominator
    if isinstance(raw, bool):
        raise DocumentError(f"{where}: boolean is not a rational")
    if isinstance(raw, int):
        return raw, 1
    raise DocumentError(
        f"{where}: rationals must be strings like '3/4' or integers, got {type(raw).__name__}"
    )


def format_rational(num: int, den: int) -> str:
    return str(num) if den == 1 else str(Fraction(num, den))


def format_rows(rows: IntRows, nc: int) -> list[list[str]]:
    """The dense matrix of integer rows (den, rows) over den, as text."""
    den, sparse = rows
    return [[format_rational(t, den) for t in row] for row in la.dense(sparse, nc)]


def parse_document(obj: dict) -> AlgebraDocument:
    """The ``AlgebraDocument`` of a JSON object; ``DocumentError`` for
    malformed input, including a bracket (i, j) or a coefficient index
    (after ``int``, so "2" and "02" are one index) given twice."""
    if not isinstance(obj, dict):
        raise DocumentError("document root must be an object")
    for key in ("name", "dim", "basis", "brackets"):
        if key not in obj:
            raise DocumentError(f"missing required field {key!r}")
    name = obj["name"]
    if not isinstance(name, str):
        raise DocumentError("name: must be a string")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise DocumentError("dim: must be a non-negative integer")
    basis = obj["basis"]
    if not isinstance(basis, list) or len(basis) != dim or not all(
        isinstance(b, str) for b in basis
    ):
        raise DocumentError("basis: must be a list of dim strings")
    brackets = {}
    if not isinstance(obj["brackets"], list):
        raise DocumentError("brackets: must be a list")
    for pos, entry in enumerate(obj["brackets"]):
        where = f"brackets[{pos}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{where}: must be an object")
        for key in ("i", "j"):
            # int() would truncate a float and read a bool as 0 or 1
            if isinstance(entry.get(key), (bool, float)):
                raise DocumentError(f"{where}.{key}: must be an integer, got {type(entry[key]).__name__}")
        try:
            i, j = int(entry["i"]), int(entry["j"])
        except (KeyError, TypeError, ValueError):
            raise DocumentError(f"{where}: needs integer fields i and j")
        if not (0 <= i < j < dim):
            raise DocumentError(f"{where}: indices must satisfy 0 <= i < j < dim")
        if (i, j) in brackets:
            raise DocumentError(f"{where}: bracket ({i},{j}) is given twice")
        coeffs_raw = entry.get("coeffs", {})
        if not isinstance(coeffs_raw, dict):
            raise DocumentError(f"{where}.coeffs: must be an object")
        coeffs: dict[int, tuple[int, int]] = {}
        for k_raw, v in coeffs_raw.items():
            try:
                k = int(k_raw)
            except ValueError:
                raise DocumentError(f"{where}.coeffs: bad index {k_raw!r}")
            if not (0 <= k < dim):
                raise DocumentError(f"{where}.coeffs: index {k} out of range")
            if k in coeffs:
                raise DocumentError(f"{where}.coeffs: index {k} is given twice")
            coeffs[k] = read_rational(v, f"{where}.coeffs[{k}]")
        brackets[(i, j)] = sorted(coeffs.items())
    form = None
    if obj.get("form") is not None:
        raw = obj["form"]
        if not isinstance(raw, list) or len(raw) != dim or any(
            not isinstance(r, list) or len(r) != dim for r in raw
        ):
            raise DocumentError("form: must be a dim x dim matrix")
        read = [[read_rational(raw[i][j], f"form[{i}][{j}]") for j in range(dim)] for i in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                # pairs in lowest terms: equal values are equal pairs
                if read[i][j] != read[j][i]:
                    raise DocumentError(f"form: not symmetric at ({i},{j})")
        form = la.pair_rows(map(enumerate, read))
    hints = None
    if obj.get("hints") is not None:
        if not isinstance(obj["hints"], dict):
            raise DocumentError("hints: must be an object")
        hints = dict(obj["hints"])
        if "nilradical" in hints:
            vecs = hints["nilradical"]
            if not isinstance(vecs, list):
                raise DocumentError("hints.nilradical: must be a list of vectors")
            read = []
            for vi, v in enumerate(vecs):
                if not isinstance(v, list) or len(v) != dim:
                    raise DocumentError(f"hints.nilradical[{vi}]: bad vector length")
                where = f"hints.nilradical[{vi}]"
                read.append([(ci, read_rational(c, f"{where}[{ci}]")) for ci, c in enumerate(v)])
            hints["nilradical"] = la.pair_rows(read)
    keys = sorted(brackets)
    den, rows = la.pair_rows(brackets[key] for key in keys)
    return AlgebraDocument(
        name=name,
        dim=dim,
        basis=tuple(basis),
        brackets=(den, tuple((i, j, row) for (i, j), row in zip(keys, rows))),
        form=form,
        hints=hints,
    )


def emit_document(doc: AlgebraDocument) -> dict:
    den, rows = doc.brackets
    out = {
        "name": doc.name,
        "dim": doc.dim,
        "basis": list(doc.basis),
        "brackets": [
            {"i": i, "j": j, "coeffs": {str(k): format_rational(t, den) for k, t in row}}
            for i, j, row in rows
        ],
    }
    if doc.form is not None:
        out["form"] = format_rows(doc.form, doc.dim)
    if doc.hints is not None:
        out["hints"] = dict(doc.hints)
        if "nilradical" in doc.hints:
            out["hints"]["nilradical"] = format_rows(doc.hints["nilradical"], doc.dim)
    return out


def document_to_algebra(doc: AlgebraDocument):
    """Returns (LieAlgebra, SymBilinearForm | None, nilradical hint | None),
    each written from the document's integer rows."""
    den, rows = doc.brackets
    alg = LieAlgebra.from_rows(doc.dim, doc.basis, den, {(i, j): row for i, j, row in rows})
    form = None if doc.form is None else SymBilinearForm.from_rows(doc.dim, *doc.form)
    hint = None
    if doc.hints and "nilradical" in doc.hints:
        hint = span_of(doc.dim, doc.hints["nilradical"][1])
    return alg, form, hint


def algebra_to_document(
    alg: LieAlgebra, form: SymBilinearForm | None = None, name: str = "algebra"
) -> AlgebraDocument:
    den, table = alg.int_table
    n = alg.dim
    rows = tuple((i, j, table[i][j]) for i in range(n) for j in range(i + 1, n) if table[i][j])
    return AlgebraDocument(
        name=name,
        dim=n,
        basis=alg.basis_names,
        brackets=(den, rows),
        form=None if form is None else form.int_rows,
    )


def load_document(path: str) -> AlgebraDocument:
    def unique_keys(pairs: list) -> dict:
        # json alone keeps the last value of a repeated key
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
            raise DocumentError(f"{path}: key {key!r} is given twice in one object")
        return obj

    try:
        with open(path) as fh:
            obj = json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")
    return parse_document(obj)
