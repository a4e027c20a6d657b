"""Simple-ideal decomposition of semisimple Lie algebras and the
compact/noncompact split, with form-compatibility reporting.

The decomposition works through the centroid (the commutant of the
adjoint representation): for a semisimple algebra it is a product of
fields, and the primary components of a generating element, one per
irreducible factor of its minimal polynomial, are the minimal ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .core import (
    LieAlgebra,
    SubspaceBasis,
    _ad_columns,
    bracket_spans,
    killing_form,
    span_of,
)
from .errors import CertificateError, PreconditionError
from .forms import MetricLieAlgebra, SymBilinearForm, _skew_pairing, metric_radical, signature
from .quadratic import irreducible_factors


@dataclass(frozen=True)
class SplitResult:
    simple_ideals: tuple[SubspaceBasis, ...]
    compact_part: SubspaceBasis
    noncompact_part: SubspaceBasis
    killing: SymBilinearForm  # the Killing form the split was decided on


@dataclass(frozen=True)
class SplitFormReport:
    s_invariant: bool
    k_perp_s: bool
    s_cap_radical_zero: bool
    ideal_constants: tuple[Fraction | None, ...]  # one per noncompact ideal
    uniform_constant: Fraction | None  # set when all ideal constants agree


def _commutant_of_adjoint(alg: LieAlgebra) -> SubspaceBasis:
    """Basis of {M : M ad(x) = ad(x) M for all x}, M flattened row by
    row: the kernel of the rows (M A - A M)_kl for A = L ad(b_i)."""
    n = alg.dim
    _, rows = alg.int_table
    eqs = []
    for row_i, ad_i in zip(rows, alg.int_ad):
        # (M A - A M)_kl = sum_p M_kp A_pl - A_kp M_pl; column l of A is
        # rows[i][l] and row k of A is int_ad[i][k]
        for k in range(n):
            for l in range(n):
                eq = {k * n + p: t for p, t in row_i[l]}
                for p, t in ad_i[k].items():
                    eq[p * n + l] = eq.get(p * n + l, 0) - t
                eqs.append(eq)
    return SubspaceBasis.kernel(n * n, eqs)


def simple_decomposition(alg: LieAlgebra) -> tuple[SubspaceBasis, ...]:
    """Minimal ideals of a semisimple Lie algebra, pairwise orthogonal
    for the Killing form and summing to the whole algebra.
    """
    return _simple_ideals(alg, killing_form(alg))


def _simple_ideals(alg: LieAlgebra, kappa: SymBilinearForm) -> tuple[SubspaceBasis, ...]:
    """``simple_decomposition`` with the Killing form already computed.
    The zero algebra is the empty sum of simple ideals."""
    n = alg.dim
    if not signature(kappa).is_nondegenerate:
        raise PreconditionError("Killing form degenerate - not semisimple")
    if n == 0:
        return ()
    commutant = _commutant_of_adjoint(alg)
    d = commutant.dim
    generic = None
    den, rows = commutant.int_rows
    for attempt in range(1, 8):
        # sum_i c_i w_i over the common denominator of the commutant
        flat = [0] * (n * n)
        for i, w in enumerate(rows):
            c = (attempt * (i + 1)) % 11 + i
            for k, x in w:
                flat[k] += c * x
        cand = la.mat_over((flat[k : k + n] for k in range(0, n * n, n)), den)
        cand_minpoly = la.minimal_polynomial(cand)
        if len(cand_minpoly) - 1 == d:
            generic = cand
            break
    if generic is None:
        raise CertificateError("could not find a generating element of the centroid")
    # the kernel of f(C) for an irreducible factor f of C's squarefree
    # minimal polynomial is C's primary component of f
    ideals: list[SubspaceBasis] = []
    for fac, mult in irreducible_factors(cand_minpoly):
        if mult != 1:
            raise CertificateError("centroid minimal polynomial is not squarefree")
        rows = la.to_int_rows(la.poly_eval_mat(fac, generic))[1]
        ideals.append(SubspaceBasis.kernel(n, map(dict, rows)))

    if sum(i.dim for i in ideals) != n:
        raise CertificateError("minimal ideals do not add up to the dimension")
    if span_of(n, (r for i in ideals for r in i.int_rows[1])).dim != n:
        raise CertificateError("minimal ideals do not sum to the whole algebra")
    for i in range(len(ideals)):
        for j in range(i + 1, len(ideals)):
            if bracket_spans(alg, ideals[i], ideals[j]).dim:
                raise CertificateError("distinct minimal ideals do not commute")
            if any(map(any, kappa.int_gram(ideals[i].int_rows[1], ideals[j].int_rows[1]))):
                raise CertificateError("minimal ideals are not Killing-orthogonal")
    return tuple(ideals)


def compact_split(alg: LieAlgebra) -> SplitResult:
    """Partition the minimal ideals by Killing-form definiteness: the
    compact part collects the ideals with negative definite restriction."""
    kappa = killing_form(alg)
    ideals = _simple_ideals(alg, kappa)
    compact: list[la.IntRow] = []
    noncompact: list[la.IntRow] = []
    for ideal in ideals:
        sig = signature(kappa.restrict_rows(*ideal.int_rows))
        if sig.p == 0 and sig.r == 0:
            compact.extend(ideal.int_rows[1])
        else:
            noncompact.extend(ideal.int_rows[1])
    return SplitResult(
        ideals,
        span_of(alg.dim, compact),
        span_of(alg.dim, noncompact),
        kappa,
    )


def split_form_report(m: MetricLieAlgebra, split: SplitResult) -> SplitFormReport:
    """Compatibility of an s-invariant form with the compact/noncompact
    split ``split = compact_split(m.algebra)``: orthogonality of the
    parts, triviality of the noncompact intersection with the form's
    radical, and exact proportionality of the form to the Killing form
    on each noncompact ideal.
    """
    alg, form = m.algebra, m.form
    s = split.noncompact_part
    k = split.compact_part

    # s-invariance: <[x,y], z> + <y, [x,z]> = 0 for x in s, decided on
    # the columns L [x', b_y] of ad(x), for the integer rows x' of s
    _, b_rows = form.int_rows
    for x, xi in enumerate(s.int_rows[1]):
        cols = [c.items() for c in _ad_columns(alg, dict(xi))]
        _, witness = _skew_pairing(cols, b_rows)
        if witness is not None:
            i, j = witness
            raise PreconditionError(
                f"form not s-invariant; witness (x, e{i}, e{j}) with x = {la.vec_text(s.vectors[x])}"
            )

    k_perp_s = not any(map(any, form.int_gram(k.int_rows[1], s.int_rows[1])))
    radical = metric_radical(form)
    s_cap_radical_zero = s.intersect(radical).dim == 0

    constants = tuple(
        la.proportionality(
            form.restrict_rows(*ideal.int_rows).matrix,
            split.killing.restrict_rows(*ideal.int_rows).matrix,
        )
        for ideal in split.simple_ideals
        if s.contains_subspace(ideal)
    )
    uniform = None
    if constants and all(c is not None for c in constants) and len(set(constants)) == 1:
        uniform = constants[0]
    return SplitFormReport(
        s_invariant=True,
        k_perp_s=k_perp_s,
        s_cap_radical_zero=s_cap_radical_zero,
        ideal_constants=constants,
        uniform_constant=uniform,
    )
