"""Command-line interface.

Input algebras are either built-in catalog names ("example42",
"ab(4,1)", ...) or paths to JSON algebra documents.  Reports go to
stdout as JSON (--format json) or indented text (--format text).
Exit codes: 0 success, 2 precondition or input failure, 3 internal
certificate failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import linalg as la
from . import catalog, documents
from .core import (
    LieAlgebra,
    SubspaceBasis,
    _require_jacobi,
    ad,
    center,
    killing_form,
    nilradical,
    validate_structure,
)
from .einstein import bounds_certificate, einstein_check, sharpness_search
from .errors import CertificateError, DocumentError, PreconditionError
from .forms import (
    MetricLieAlgebra,
    SymBilinearForm,
    is_invariant,
    signature,
)
from .obstruction import (
    exact_eigenvalues,
    integer_exponential_probe,
    qlinear_relations,
    restricted_obstruction,
)
from .reduction import (
    DoubleExtensionSpec,
    complete_reduction,
    double_extend,
    reduce_by_ideal,
)
from .semisimple import compact_split, split_form_report


def _rat(x) -> str:
    return str(Fraction(x))


def _vec_out(v):
    return [_rat(x) for x in v]


def _mat_out(m):
    return [[_rat(x) for x in row] for row in m]


def _load_algebra(spec: str):
    """Returns (algebra, form or None, nilradical hint or None, name)."""
    if os.path.exists(spec) or spec.endswith(".json"):
        doc = documents.load_document(spec)
        alg, form, hint = documents.document_to_algebra(doc)
        return alg, form, hint, doc.name
    alg, form = catalog.resolve(spec)
    return alg, form, None, spec


def _require_form(form, name: str) -> SymBilinearForm:
    if form is None:
        raise PreconditionError(f"{name} carries no bilinear form")
    return form


def _metric(alg, form, name) -> MetricLieAlgebra:
    return MetricLieAlgebra(alg, _require_form(form, name))


def _element(alg: LieAlgebra, raw: str):
    """Basis-vector name, or comma-separated rational coordinates."""
    if raw in alg.basis_names:
        return la.unit_vec(alg.dim, alg.name_index(raw))
    if "," in raw:
        parts = raw.split(",")
        if len(parts) != alg.dim:
            raise PreconditionError(
                f"element needs {alg.dim} coordinates, got {len(parts)}"
            )
        try:
            return tuple(Fraction(p.strip()) for p in parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(f"bad element coordinates: {exc}")
    raise PreconditionError(
        f"unknown basis vector {raw!r}; basis is {', '.join(alg.basis_names)}"
    )


def _render_text(value, indent: int = 0, key: str | None = None) -> list[str]:
    pad = "  " * indent
    label = f"{key}: " if key is not None else ""
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"] if key is not None else []
        for k, v in value.items():
            lines.extend(_render_text(v, indent + (1 if key is not None else 0), k))
        return lines
    if isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            return [f"{pad}{label}[{', '.join(str(x) for x in value)}]"]
        lines = [f"{pad}{key}:"] if key is not None else []
        for x in value:
            sub = _render_text(x, indent + 1)
            if sub:
                sub[0] = sub[0][: 2 * (indent + 1)] + "- " + sub[0][2 * (indent + 1) :].lstrip()
            lines.extend(sub)
        return lines
    return [f"{pad}{label}{value}"]


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(_render_text(report)))


# ---------------------------------------------------------------------------
# command handlers: each returns (results dict, exit code)
# ---------------------------------------------------------------------------


def cmd_validate(args) -> tuple[dict, int]:
    alg, _, _, _ = _load_algebra(args.algebra)
    rep = validate_structure(alg)
    results = {
        "passed": rep.passed,
        "violations": [
            {"i": i, "j": j, "k": k, "residual": _vec_out(res)}
            for (i, j, k, res) in rep.violations
        ],
    }
    return results, 0 if rep.passed else 2


def cmd_analyze(args) -> tuple[dict, int]:
    alg, form, hint, _ = _load_algebra(args.algebra)
    _require_jacobi(alg)
    kappa = killing_form(alg)
    ser = alg.series_report
    results = {
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "killing": documents.format_rows(kappa.int_rows, alg.dim),
        "killing_is_zero": kappa.is_zero(),
        "solvable": ser.is_solvable,
        "nilpotent": ser.is_nilpotent,
        "abelian": ser.is_abelian,
        "center_dim": center(alg).dim,
        "derived_dim": ser.derived.dim,
        "semisimple": signature(kappa).is_nondegenerate,
    }
    if ser.is_solvable:
        results["nilradical_dim"] = nilradical(alg, hint=hint).dim
    if form is not None:
        sig = signature(form)
        results["signature"] = [sig.p, sig.q, sig.r]
        results["witt_index"] = sig.witt_index
        results["form_nondegenerate"] = sig.is_nondegenerate
        inv = is_invariant(MetricLieAlgebra(alg, form))
        results["form_invariant"] = inv.passed
    return results, 0


def cmd_signature(args) -> tuple[dict, int]:
    alg, form, _, name = _load_algebra(args.algebra)
    sig = signature(_require_form(form, name))
    return {
        "signature": [sig.p, sig.q, sig.r],
        "witt_index": sig.witt_index,
        "nondegenerate": sig.is_nondegenerate,
        "definite": sig.is_definite,
    }, 0


def _pick_ideal(m: MetricLieAlgebra, raw: str) -> SubspaceBasis | None:
    """The line of the named element, or None for ``auto``, which
    ``reduce_by_ideal`` chooses; it makes every certificate."""
    if raw == "auto":
        return None
    v = _element(m.algebra, raw)  # zero spans the zero ideal, rejected later
    return SubspaceBasis(m.dim, () if la.is_zero_vec(v) else (v,))


def cmd_reduce(args) -> tuple[dict, int]:
    alg, form, _, name = _load_algebra(args.algebra)
    m = _metric(alg, form, name)
    step = reduce_by_ideal(m, _pick_ideal(m, args.ideal))
    base_doc = documents.algebra_to_document(
        step.base.algebra, step.base.form, name=f"{name}_base"
    )
    results = {
        "ideal": [_vec_out(v) for v in step.ideal.vectors],
        "base": documents.emit_document(base_doc),
        "delta": [_mat_out(d) for d in step.spec.deltas],
    }
    return results, 0


def cmd_complete_reduce(args) -> tuple[dict, int]:
    alg, form, _, name = _load_algebra(args.algebra)
    m = _metric(alg, form, name)
    chain = complete_reduction(m)
    final_doc = documents.algebra_to_document(
        chain.final.algebra, chain.final.form, name=f"{name}_reduced"
    )
    sig = signature(chain.final.form)
    results = {
        "steps": len(chain.steps),
        "isotropic_rank": chain.isotropic_rank,
        "final": documents.emit_document(final_doc),
        "final_signature": [sig.p, sig.q, sig.r],
        "final_abelian": chain.final.algebra.is_abelian,
    }
    return results, 0


def cmd_extend(args) -> tuple[dict, int]:
    alg, form, _, name = _load_algebra(args.base)
    m = _metric(alg, form, name)
    delta = catalog.load_delta_file(args.delta, alg.dim)
    spec = DoubleExtensionSpec(m, (delta,))
    extended = double_extend(spec)
    doc = documents.algebra_to_document(
        extended.algebra, extended.form, name=f"{name}_ext"
    )
    sig = signature(extended.form)
    return {
        "document": documents.emit_document(doc),
        "signature": [sig.p, sig.q, sig.r],
    }, 0


def cmd_einstein(args) -> tuple[dict, int]:
    alg, form, _, name = _load_algebra(args.algebra)
    m = _metric(alg, form, name)
    rep = einstein_check(m)
    return {
        "ricci": _mat_out(rep.ricci),
        "einstein": rep.einstein,
        "constant": _rat(rep.constant) if rep.constant is not None else None,
    }, 0


def cmd_certify_bounds(args) -> tuple[dict, int]:
    alg, form, hint, name = _load_algebra(args.algebra)
    m = _metric(alg, form, name)
    cert = bounds_certificate(m)
    return {
        "dim": cert.dim,
        "dim_nilradical": cert.dim_nilradical,
        "witt_index": cert.witt_index,
        "bounds_hold": cert.dim >= 6
        and cert.dim_nilradical >= 5
        and cert.witt_index >= 2,
        "element": _vec_out(cert.element),
        "semisimple_part": _mat_out(cert.semisimple_part),
        "w1_dim": cert.w1.dim,
        "isotropic_subspace": [_vec_out(v) for v in cert.isotropic_subspace.vectors],
    }, 0


def cmd_obstruct(args) -> tuple[dict, int]:
    alg, form, _, name = _load_algebra(args.algebra)
    m = _metric(alg, form, name)
    rep = restricted_obstruction(m, _element(alg, args.element))
    return rep.to_jsonable(), 0


def cmd_relations(args) -> tuple[dict, int]:
    alg, _, _, _ = _load_algebra(args.algebra)
    phi = ad(alg, _element(alg, args.element))
    eigs = exact_eigenvalues(phi)
    basis = qlinear_relations(eigs)
    return {
        "eigenvalues": [str(e.value) for e in eigs],
        "relations": [_vec_out(rel) for rel in basis.relations],
        "field_degree": basis.field_degree,
        "quadratic_identity_holds": basis.quadratic_identity_holds,
    }, 0


def cmd_probe(args) -> tuple[dict, int]:
    alg, form, _, name = _load_algebra(args.algebra)
    m = _metric(alg, form, name)
    try:
        grid = tuple(Fraction(t.strip()) for t in args.times.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"bad --times value: {exc}")
    rep = integer_exponential_probe(m, _element(alg, args.element), grid)
    return {
        "precision_bits": rep.precision_bits,
        "any_excluded": any(p.integrality_excluded for p in rep.points),
        "points": [
            {
                "t": _rat(p.t),
                "trivially_integral": p.trivially_integral,
                "integrality_excluded": p.integrality_excluded,
            }
            for p in rep.points
        ],
    }, 0


def cmd_split_semisimple(args) -> tuple[dict, int]:
    alg, form, _, name = _load_algebra(args.algebra)
    split = compact_split(alg)
    results = {
        "ideal_dims": [i.dim for i in split.simple_ideals],
        "compact_dim": split.compact_part.dim,
        "noncompact_dim": split.noncompact_part.dim,
        "compact_part": [_vec_out(v) for v in split.compact_part.vectors],
        "noncompact_part": [_vec_out(v) for v in split.noncompact_part.vectors],
    }
    if form is not None:
        rep = split_form_report(MetricLieAlgebra(alg, form), split)
        results["form_report"] = {
            "s_invariant": rep.s_invariant,
            "k_perp_s": rep.k_perp_s,
            "s_cap_radical_zero": rep.s_cap_radical_zero,
            "ideal_constants": [
                _rat(c) if c is not None else None for c in rep.ideal_constants
            ],
            "uniform_constant": _rat(rep.uniform_constant)
            if rep.uniform_constant is not None
            else None,
        }
    return results, 0


def cmd_search(args) -> tuple[dict, int]:
    result = sharpness_search(
        (args.min_dim, args.max_dim),
        (args.min_index, args.max_index),
        args.budget,
        seed=args.seed if args.seed is not None else 0,
    )
    for hit in result.hits:
        print(json.dumps(hit))
    return {
        "examined": result.examined,
        "hits": len(result.hits),
        "minimal_dim": result.minimal_dim,
    }, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metriclie",
        description="Exact computations with metric Lie algebras: reduction, "
        "double extension, Einstein checks, and lattice obstructions.",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="text", help="report style"
    )
    parser.add_argument("--seed", type=int, default=None, help="seed of the randomized search (read by search only)")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default=argparse.SUPPRESS
    )
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, algebra=True):
        p = sub.add_parser(name, help=help_, parents=[common])
        if algebra:
            p.add_argument("algebra", help="catalog name or JSON document path")
        p.set_defaults(handler=handler)
        return p

    add("validate", cmd_validate, "check the Jacobi identity")
    add("analyze", cmd_analyze, "structural summary: series, Killing form, nilradical")
    add("signature", cmd_signature, "inertia (p,q,r) of the bilinear form")
    p = add("reduce", cmd_reduce, "reduce by a central isotropic ideal")
    p.add_argument("--ideal", default="auto", help="basis vector name or 'auto'")
    add("complete-reduce", cmd_complete_reduce, "reduce until abelian and definite")
    p = add("extend", cmd_extend, "one-dimensional double extension", algebra=False)
    p.add_argument("--base", required=True, help="catalog name or JSON document path")
    p.add_argument("--delta", required=True, help="JSON file with the skew matrix")
    add("einstein", cmd_einstein, "bi-invariant Ricci tensor and Einstein check")
    add(
        "certify-bounds",
        cmd_certify_bounds,
        "structural lower bounds certificate (dim >= 6, nilradical >= 5, index >= 2)",
    )
    p = add("obstruct", cmd_obstruct, "lattice obstruction verdict for ad(a)")
    p.add_argument("--element", required=True, help="basis vector name or coordinates")
    p = add("relations", cmd_relations, "rational linear relations among eigenvalues")
    p.add_argument("--element", required=True, help="basis vector name or coordinates")
    p = add("probe", cmd_probe, "certified integrality probe for exp(t ad(a))")
    p.add_argument("--element", required=True, help="basis vector name or coordinates")
    p.add_argument("--times", default="1", help="comma-separated rational t values")
    add(
        "split-semisimple",
        cmd_split_semisimple,
        "simple ideals and the compact/noncompact split",
    )
    p = sub.add_parser(
        "search",
        help="randomized search for Einstein solvable algebras",
        parents=[common],
    )
    p.add_argument("--min-dim", type=int, default=3)
    p.add_argument("--max-dim", type=int, default=8)
    p.add_argument("--min-index", type=int, default=1)
    p.add_argument("--max-index", type=int, default=1)
    p.add_argument("--budget", type=int, default=1000)
    p.set_defaults(handler=cmd_search)

    return parser


# built once, when the module is imported: ``parse_args`` keeps no
# state between calls, and every call starts from a fresh namespace
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # the one handler that writes (search, its hits) has finished its
    # work by then, and returns 0
    code = 0
    try:
        try:
            results, code = args.handler(args)
        except (PreconditionError, DocumentError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except CertificateError as exc:
            print(f"certificate failure: {exc}", file=sys.stderr)
            return 3
        _emit({"command": args.command, "results": results}, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); point stdout at
        # devnull so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
