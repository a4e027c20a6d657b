"""Simple-ideal decomposition of semisimple Lie algebras and the
compact/noncompact split, with form-compatibility reporting.

The decomposition works through the centroid (the commutant of the
adjoint representation): for a semisimple algebra it is a product of
fields, and the primitive idempotents of a generating element cut out
the minimal ideals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .core import (
    LieAlgebra,
    SubspaceBasis,
    _int_bracket,
    bracket_spans,
    killing_form,
    subspace_from_spanning,
)
from .errors import CertificateError, PreconditionError
from .forms import MetricLieAlgebra, SymBilinearForm, _skew_pairing, metric_radical, signature
from .linalg import Vec
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


def _commutant_of_adjoint(alg: LieAlgebra) -> list[tuple[int, dict[int, int]]]:
    """Basis of {M : M ad(x) = ad(x) M for all x}: the kernel, over the
    integers (``IntSpan.int_kernel``: (L, w) for the matrix w / L), of
    the rows (M A - A M)_kl for A = L ad(b_i), M flattened row by row."""
    n = alg.dim
    _, rows = alg.int_table
    span = la.IntSpan(n * n)
    for row_i, ad_i in zip(rows, alg.int_ad):
        # (M A - A M)_kl = sum_p M_kp A_pl - A_kp M_pl; column l of A is
        # rows[i][l] and row k of A is int_ad[i][k]
        for k in range(n):
            for l in range(n):
                eq = {k * n + p: t for p, t in row_i[l]}
                for p, t in ad_i[k].items():
                    eq[p * n + l] = eq.get(p * n + l, 0) - t
                span.add(eq)
    return span.int_kernel()


def simple_decomposition(alg: LieAlgebra) -> tuple[SubspaceBasis, ...]:
    """Minimal ideals of a semisimple Lie algebra, pairwise orthogonal
    for the Killing form and summing to the whole algebra.
    """
    return _simple_ideals(alg, killing_form(alg))


def _simple_ideals(alg: LieAlgebra, kappa: SymBilinearForm) -> tuple[SubspaceBasis, ...]:
    """``simple_decomposition`` with the Killing form already computed."""
    n = alg.dim
    if not signature(kappa).is_nondegenerate:
        raise PreconditionError("Killing form degenerate - not semisimple")
    commutant = _commutant_of_adjoint(alg)
    d = len(commutant)
    generic = None
    den = math.lcm(*(l for l, _ in commutant))
    for attempt in range(1, 8):
        # sum_i c_i w_i / L_i over the common denominator of the L_i
        flat = [0] * (n * n)
        for i, (l, w) in enumerate(commutant):
            c = ((attempt * (i + 1)) % 11 + i) * (den // l)
            for k, x in w.items():
                flat[k] += c * x
        cand = la.mat_over((flat[k : k + n] for k in range(0, n * n, n)), den)
        cand_minpoly = la.minimal_polynomial(cand)
        if la.poly_deg(cand_minpoly) == d:
            generic = cand
            break
    if generic is None:
        raise CertificateError("could not find a generating element of the centroid")
    ideals: list[SubspaceBasis] = []
    for fac, mult in irreducible_factors(cand_minpoly):
        if mult != 1:
            raise CertificateError("centroid minimal polynomial is not squarefree")
        cofactor = la.poly_divmod(cand_minpoly, fac)[0]
        # u cofactor = 1 mod fac and 0 mod cofactor: the idempotent of fac
        u, _, gcd = la.poly_gcdex(cofactor, fac)
        if gcd != (la.ONE,):
            raise CertificateError("centroid factors are not coprime")
        e = la.poly_eval_mat(la.poly_mul(u, cofactor), generic)
        if la.mat_mul(e, e) != e:
            raise CertificateError("constructed centroid element is not idempotent")
        ideals.append(subspace_from_spanning(n, la.transpose(e)))

    total = subspace_from_spanning(n, sum((i.vectors for i in ideals), ()))
    if total.dim != n:
        raise CertificateError("minimal ideals do not sum to the whole algebra")
    for i in range(len(ideals)):
        for j in range(i + 1, len(ideals)):
            if bracket_spans(alg, ideals[i], ideals[j]).dim:
                raise CertificateError("distinct minimal ideals do not commute")
            if any(map(any, kappa.int_gram(ideals[i].vectors, ideals[j].vectors)[1])):
                raise CertificateError("minimal ideals are not Killing-orthogonal")
    return tuple(ideals)


def compact_split(alg: LieAlgebra) -> SplitResult:
    """Partition the minimal ideals by Killing-form definiteness: the
    compact part collects the ideals with negative definite restriction."""
    kappa = killing_form(alg)
    ideals = _simple_ideals(alg, kappa)
    compact: list[Vec] = []
    noncompact: list[Vec] = []
    for ideal in ideals:
        sig = signature(kappa.restrict(ideal.vectors))
        if sig.p == 0 and sig.r == 0:
            compact.extend(ideal.vectors)
        else:
            noncompact.extend(ideal.vectors)
    return SplitResult(
        ideals,
        subspace_from_spanning(alg.dim, compact),
        subspace_from_spanning(alg.dim, noncompact),
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
    n = alg.dim

    # s-invariance: <[x,y], z> + <y, [x,z]> = 0 for x in s, decided on
    # the columns L [x', b_y] of ad(x), for x' = x scaled to integers
    _, rows = alg.int_table
    _, b_rows = form.int_rows
    for x in s.vectors:
        xi = la.int_row(x)
        cols = [_int_bracket(rows, xi, {y: 1}).items() for y in range(n)]
        _, witness = _skew_pairing(cols, b_rows)
        if witness is not None:
            i, j = witness
            raise PreconditionError(
                f"form not s-invariant; witness (x, e{i}, e{j}) with x = {la.vec_text(x)}"
            )

    k_perp_s = not any(map(any, form.int_gram(k.vectors, s.vectors)[1]))
    radical = metric_radical(form)
    s_cap_radical_zero = s.intersect(radical).dim == 0

    constants = tuple(
        la.proportionality(
            form.restrict(ideal.vectors).matrix,
            split.killing.restrict(ideal.vectors).matrix,
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
