"""JSON-document serialization for algebras with optional forms.

Rationals travel as strings ("3/4", "-2"; bare integers accepted) so
nothing is ever rounded through floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .core import LieAlgebra, subspace_from_spanning
from .errors import DocumentError
from .forms import SymBilinearForm


@dataclass(frozen=True)
class AlgebraDocument:
    name: str
    dim: int
    basis: tuple[str, ...]
    brackets: tuple[dict, ...]  # {"i": int, "j": int, "coeffs": {index: "p/q"}}
    form: tuple[tuple[str, ...], ...] | None = None
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
    if not isinstance(obj, dict):
        raise DocumentError("document root must be an object")
    for key in ("name", "dim", "basis", "brackets"):
        if key not in obj:
            raise DocumentError(f"missing required field {key!r}")
    name = obj["name"]
    if not isinstance(name, str):
        raise DocumentError("name: must be a string")
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 0:
        raise DocumentError("dim: must be a non-negative integer")
    basis = obj["basis"]
    if not isinstance(basis, list) or len(basis) != dim or not all(
        isinstance(b, str) for b in basis
    ):
        raise DocumentError("basis: must be a list of dim strings")
    brackets = []
    if not isinstance(obj["brackets"], list):
        raise DocumentError("brackets: must be a list")
    for pos, entry in enumerate(obj["brackets"]):
        where = f"brackets[{pos}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{where}: must be an object")
        try:
            i, j = int(entry["i"]), int(entry["j"])
        except (KeyError, TypeError, ValueError):
            raise DocumentError(f"{where}: needs integer fields i and j")
        if not (0 <= i < j < dim):
            raise DocumentError(f"{where}: indices must satisfy 0 <= i < j < dim")
        coeffs_raw = entry.get("coeffs", {})
        if not isinstance(coeffs_raw, dict):
            raise DocumentError(f"{where}.coeffs: must be an object")
        coeffs = {}
        for k_raw, v in coeffs_raw.items():
            try:
                k = int(k_raw)
            except ValueError:
                raise DocumentError(f"{where}.coeffs: bad index {k_raw!r}")
            if not (0 <= k < dim):
                raise DocumentError(f"{where}.coeffs: index {k} out of range")
            val = parse_rational(v, f"{where}.coeffs[{k}]")
            if val != 0:
                coeffs[str(k)] = format_rational(val)
        brackets.append({"i": i, "j": j, "coeffs": coeffs})
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
        form = tuple(
            tuple(format_rational(x) for x in row) for row in parsed
        )
    hints = None
    if obj.get("hints") is not None:
        if not isinstance(obj["hints"], dict):
            raise DocumentError("hints: must be an object")
        hints = obj["hints"]
        if "nilradical" in hints:
            vecs = hints["nilradical"]
            if not isinstance(vecs, list):
                raise DocumentError("hints.nilradical: must be a list of vectors")
            for vi, v in enumerate(vecs):
                if not isinstance(v, list) or len(v) != dim:
                    raise DocumentError(f"hints.nilradical[{vi}]: bad vector length")
                for ci, c in enumerate(v):
                    parse_rational(c, f"hints.nilradical[{vi}][{ci}]")
    # normalize deterministically: brackets sorted by (i, j)
    brackets.sort(key=lambda e: (e["i"], e["j"]))
    return AlgebraDocument(
        name=name,
        dim=dim,
        basis=tuple(basis),
        brackets=tuple(brackets),
        form=form,
        hints=hints,
    )


def emit_document(doc: AlgebraDocument) -> dict:
    out = {
        "name": doc.name,
        "dim": doc.dim,
        "basis": list(doc.basis),
        "brackets": [
            {"i": e["i"], "j": e["j"], "coeffs": dict(e["coeffs"])}
            for e in doc.brackets
        ],
    }
    if doc.form is not None:
        out["form"] = [list(row) for row in doc.form]
    if doc.hints is not None:
        out["hints"] = doc.hints
    return out


def document_to_algebra(doc: AlgebraDocument):
    """Returns (LieAlgebra, SymBilinearForm | None, nilradical hint | None)."""
    brackets = {}
    for e in doc.brackets:
        vec = [Fraction(0)] * doc.dim
        for k, v in e["coeffs"].items():
            vec[int(k)] = Fraction(v)
        brackets[(e["i"], e["j"])] = tuple(vec)
    alg = LieAlgebra(doc.dim, doc.basis, brackets)
    form = None
    if doc.form is not None:
        form = SymBilinearForm(
            tuple(tuple(Fraction(x) for x in row) for row in doc.form)
        )
    hint = None
    if doc.hints and "nilradical" in doc.hints:
        hint = subspace_from_spanning(
            doc.dim,
            tuple(
                tuple(parse_rational(c, "hints.nilradical") for c in v)
                for v in doc.hints["nilradical"]
            ),
        )
    return alg, form, hint


def algebra_to_document(
    alg: LieAlgebra, form: SymBilinearForm | None = None, name: str = "algebra"
) -> AlgebraDocument:
    brackets = []
    for (i, j), coeffs in sorted(alg.brackets.items()):
        brackets.append(
            {
                "i": i,
                "j": j,
                "coeffs": {
                    str(k): format_rational(c) for k, c in enumerate(coeffs) if c != 0
                },
            }
        )
    form_out = None
    if form is not None:
        form_out = tuple(
            tuple(format_rational(x) for x in row) for row in form.matrix
        )
    return AlgebraDocument(
        name=name,
        dim=alg.dim,
        basis=alg.basis_names,
        brackets=tuple(brackets),
        form=form_out,
    )


def load_document(path: str) -> AlgebraDocument:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")
    return parse_document(obj)
