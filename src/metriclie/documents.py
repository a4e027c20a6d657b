"""JSON-document serialization for algebras with optional forms.

Rationals travel as strings ("3/4", "-2"; bare integers accepted) so
nothing is ever rounded through floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .core import LieAlgebra, subspace_from_spanning
from .errors import DocumentError
from .forms import SymBilinearForm


@dataclass(frozen=True)
class AlgebraDocument:
    """A parsed document: every rational is a ``Fraction``, parsed once.

    ``brackets`` holds (i, j, coeffs) sorted by (i, j), ``coeffs`` the
    pairs (k, c) with c != 0 in increasing k; a ``nilradical`` hint is a
    tuple of rational vectors."""

    name: str
    dim: int
    basis: tuple[str, ...]
    brackets: tuple[tuple[int, int, tuple[tuple[int, Fraction], ...]], ...]
    form: tuple[tuple[Fraction, ...], ...] | None = None
    hints: dict | None = None


def parse_rational(raw, where: str) -> Fraction:
    if isinstance(raw, bool):
        raise DocumentError(f"{where}: boolean is not a rational")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{where}: bad rational {raw!r} ({exc})")
    raise DocumentError(
        f"{where}: rationals must be strings like '3/4' or integers, got {type(raw).__name__}"
    )


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


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
        coeffs: dict[int, Fraction] = {}
        for k_raw, v in coeffs_raw.items():
            try:
                k = int(k_raw)
            except ValueError:
                raise DocumentError(f"{where}.coeffs: bad index {k_raw!r}")
            if not (0 <= k < dim):
                raise DocumentError(f"{where}.coeffs: index {k} out of range")
            if k in coeffs:
                raise DocumentError(f"{where}.coeffs: index {k} is given twice")
            coeffs[k] = parse_rational(v, f"{where}.coeffs[{k}]")
        brackets[(i, j)] = tuple(sorted((k, c) for k, c in coeffs.items() if c))
    form = None
    if obj.get("form") is not None:
        raw = obj["form"]
        if not isinstance(raw, list) or len(raw) != dim or any(
            not isinstance(r, list) or len(r) != dim for r in raw
        ):
            raise DocumentError("form: must be a dim x dim matrix")
        parsed = [
            [parse_rational(raw[i][j], f"form[{i}][{j}]") for j in range(dim)]
            for i in range(dim)
        ]
        for i in range(dim):
            for j in range(dim):
                if parsed[i][j] != parsed[j][i]:
                    raise DocumentError(f"form: not symmetric at ({i},{j})")
        form = tuple(map(tuple, parsed))
    hints = None
    if obj.get("hints") is not None:
        if not isinstance(obj["hints"], dict):
            raise DocumentError("hints: must be an object")
        hints = dict(obj["hints"])
        if "nilradical" in hints:
            vecs = hints["nilradical"]
            if not isinstance(vecs, list):
                raise DocumentError("hints.nilradical: must be a list of vectors")
            parsed_vecs = []
            for vi, v in enumerate(vecs):
                if not isinstance(v, list) or len(v) != dim:
                    raise DocumentError(f"hints.nilradical[{vi}]: bad vector length")
                where = f"hints.nilradical[{vi}]"
                parsed_vecs.append(
                    tuple(parse_rational(c, f"{where}[{ci}]") for ci, c in enumerate(v))
                )
            hints["nilradical"] = tuple(parsed_vecs)
    return AlgebraDocument(
        name=name,
        dim=dim,
        basis=tuple(basis),
        brackets=tuple((i, j, c) for (i, j), c in sorted(brackets.items())),
        form=form,
        hints=hints,
    )


def emit_document(doc: AlgebraDocument) -> dict:
    out = {
        "name": doc.name,
        "dim": doc.dim,
        "basis": list(doc.basis),
        "brackets": [
            {"i": i, "j": j, "coeffs": {str(k): format_rational(c) for k, c in coeffs}}
            for i, j, coeffs in doc.brackets
        ],
    }
    if doc.form is not None:
        out["form"] = [[format_rational(x) for x in row] for row in doc.form]
    if doc.hints is not None:
        out["hints"] = dict(doc.hints)
        if "nilradical" in doc.hints:
            out["hints"]["nilradical"] = [
                [format_rational(c) for c in v] for v in doc.hints["nilradical"]
            ]
    return out


def document_to_algebra(doc: AlgebraDocument):
    """Returns (LieAlgebra, SymBilinearForm | None, nilradical hint | None).

    The structure table is written from the parsed brackets over the
    least common denominator L of their entries."""
    den, rows = la.to_int_rows([c for _, c in coeffs] for _, _, coeffs in doc.brackets)
    upper = {
        (i, j): [(coeffs[p][0], t) for p, t in row]
        for (i, j, coeffs), row in zip(doc.brackets, rows)
    }
    alg = LieAlgebra.from_rows(doc.dim, doc.basis, den, upper)
    form = None if doc.form is None else SymBilinearForm(doc.form)
    hint = None
    if doc.hints and "nilradical" in doc.hints:
        hint = subspace_from_spanning(doc.dim, doc.hints["nilradical"])
    return alg, form, hint


def algebra_to_document(
    alg: LieAlgebra, form: SymBilinearForm | None = None, name: str = "algebra"
) -> AlgebraDocument:
    den, rows = alg.int_table
    brackets = tuple(
        (i, j, tuple((k, Fraction(t, den)) for k, t in rows[i][j]))
        for i in range(alg.dim)
        for j in range(i + 1, alg.dim)
        if rows[i][j]
    )
    return AlgebraDocument(
        name=name,
        dim=alg.dim,
        basis=alg.basis_names,
        brackets=brackets,
        form=None if form is None else form.matrix,
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
