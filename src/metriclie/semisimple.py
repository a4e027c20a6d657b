"""Simple-ideal decomposition of semisimple Lie algebras and the
compact/noncompact split, with form-compatibility reporting.

The decomposition works through the centroid (the commutant of the
adjoint representation): for a semisimple algebra it is a product of
fields, and the primary components of a generating element, one per
irreducible factor of its minimal polynomial, are the minimal ideals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg as la
from .core import (
    LieAlgebra,
    SubspaceBasis,
    bracket_spans,
    killing_form,
    span_of,
)
from .errors import CertificateError, PreconditionError
from .forms import MetricLieAlgebra, SymBilinearForm, _first_non_skew_ad, metric_radical, signature
from .quadratic import irreducible_factors


class SplitResult(NamedTuple):
    simple_ideals: tuple[SubspaceBasis, ...]
    compact_part: SubspaceBasis
    noncompact_part: SubspaceBasis
    killing: SymBilinearForm  # the Killing form the split was decided on


class SplitFormReport(NamedTuple):
    s_invariant: bool
    k_perp_s: bool
    s_cap_radical_zero: bool
    ideal_constants: tuple[Fraction | None, ...]  # one per noncompact ideal
    uniform_constant: Fraction | None  # set when all ideal constants agree


def _centroid(alg: LieAlgebra, kappa: SymBilinearForm) -> SubspaceBasis:
    """The centroid {M : M ad(x) = ad(x) M for all x} of an algebra with
    non-degenerate Killing form K, M flattened row by row, on the basis
    ``SubspaceBasis.kernel`` gives for those n^3 commutation equations
    (``SubspaceBasis.in_kernel_order``).

    It is K^{-1} {S symmetric : S([x, y], z) + S(y, [x, z]) = 0}, for
    S = K M, that is S(y, z) = K(y, M z):
    - S is invariant iff M is in the centroid. By the invariance of K,
      K(y, M[x, z] - [x, M z]) = S(y, [x, z]) + S([x, y], z), and K is
      non-degenerate.
    - S is then symmetric. ad(M u) = M ad(u), so K(M u, v) - K(u, M v)
      = tr(M ad u ad v) - tr(ad u M ad v) = tr(M ad [u, v])
      = tr ad(M [u, v]), and tr ad vanishes on [g, g] = g (g is
      semisimple).
    So the unknowns are S_pq, p <= q, with one equation per x = b_i and
    pair y = b_j, z = b_k, j <= k: n(n+1)/2 unknowns and n^2(n+1)/2
    equations."""
    n = alg.dim
    _, table = alg.int_table
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    pos = [[0] * n for _ in range(n)]
    for u, (p, q) in enumerate(pairs):
        pos[p][q] = pos[q][p] = u
    span = la.IntSpan(len(pairs))
    for row_i in table:
        for j in range(n):
            pos_j = pos[j]
            for k in range(j, n):
                # L (S([b_i, b_j], b_k) + S(b_j, [b_i, b_k]))
                eq: dict[int, int] = {}
                for p, t in row_i[j]:
                    u = pos[p][k]
                    eq[u] = eq.get(u, 0) + t
                for p, t in row_i[k]:
                    u = pos_j[p]
                    eq[u] = eq.get(u, 0) + t
                span.add(eq)
    _, s_rows = span.int_kernel()
    _, inv = kappa.int_inverse
    flats = []
    for s_row in s_rows:
        s = [{} for _ in range(n)]
        for u, t in s_row:
            p, q = pairs[u]
            s[p][q] = s[q][p] = t
        # (K^{-1} S)_kl = sum_p K^{-1}_kp S_pl, at column k n + l
        flat: dict[int, int] = {}
        for k, inv_k in enumerate(inv):
            for p, a in inv_k:
                for l, t in s[p].items():
                    flat[k * n + l] = flat.get(k * n + l, 0) + a * t
        flats.append(flat)
    return SubspaceBasis.in_kernel_order(n * n, flats)


def _scaled(p: la.Poly, s) -> la.Poly:
    """s^deg p(x / s), whose roots are s times those of p: the
    coefficient of x^(deg - i) times s^i."""
    return tuple(c * s**i for i, c in enumerate(p))


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
    centroid = _centroid(alg, kappa)
    d = centroid.dim
    den, rows = centroid.int_rows
    for attempt in range(1, 8):
        # B = D C for C = sum_i c_i w_i over the common denominator D of
        # the centroid: an integer matrix
        flat = [0] * (n * n)
        for i, w in enumerate(rows):
            c = (attempt * (i + 1)) % 11 + i
            for k, x in w:
                flat[k] += c * x
        cand = [flat[k : k + n] for k in range(0, n * n, n)]
        cand_minpoly = la.minimal_polynomial(cand)
        if len(cand_minpoly) - 1 == d:
            break
    else:
        raise CertificateError("could not find a generating element of the centroid")
    # the kernel of f(C) for an irreducible factor f of C's squarefree
    # minimal polynomial is C's primary component of f. C = B / D has
    # B's minimal polynomial rescaled, whose factors keep C's order, and
    # D^deg f(C) is the rescaled f at B
    ideals: list[SubspaceBasis] = []
    for fac, mult in irreducible_factors(_scaled(cand_minpoly, Fraction(1, den))):
        if mult != 1:
            raise CertificateError("centroid minimal polynomial is not squarefree")
        _, h = la.int_poly_eval_mat(_scaled(fac, den), cand)
        ideals.append(SubspaceBasis.kernel(n, (dict(enumerate(r)) for r in h)))

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
    # the integer rows of s
    found = _first_non_skew_ad(alg, s.int_rows[1], form)
    if found is not None:
        x, (i, j) = found
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
