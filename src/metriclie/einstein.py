"""Einstein conditions for invariant scalar products.

For a bi-invariant metric the Ricci tensor is -1/4 of the Killing form,
so the Einstein condition Ric = lam <.,.> is an exact rational
proportionality check. For the solvable double extensions built in this
package the condition collapses to a trace identity on the extension
spectrum, checked here both directly and through an independent
symmetric-function computation on the characteristic polynomial.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import NamedTuple

from . import linalg as la
from .core import (
    Frozen,
    LieAlgebra,
    LinearMap,
    SubspaceBasis,
    ad,
    bracket_spans,
    centralizer,
    jordan_chevalley,
    killing_sums,
    nilradical,
    span_of,
    subspace_from_spanning,
)
from .errors import CertificateError, PreconditionError
from .forms import (
    MetricLieAlgebra,
    SymBilinearForm,
    _lift,
    _map_pairing,
    _require_invariant,
    _require_isotropic,
    isotropic_vector,
    signature,
)
from .linalg import Mat, Vec
from .quadratic import Quadratic, field_sum, is_owned
from .reduction import (
    DoubleExtensionSpec,
    _draw_skew_entries,
    _skew_numerators,
    build_ab,
    double_extend,
    random_skew_derivation,
)


class EinsteinReport(Frozen):
    """``einstein_check``'s verdict on its ``killing_sums``, kept as a
    tuple of tuples so the report stays frozen and hashable; ``ricci``
    is their cached view."""

    _fields = ("killing", "einstein", "constant")

    def __init__(self, killing: tuple[int, list[list[int]]], einstein: bool, constant: Fraction | None):
        den2, k = killing
        object.__setattr__(self, "killing", (den2, tuple(map(tuple, k))))
        object.__setattr__(self, "einstein", einstein)
        object.__setattr__(self, "constant", constant)

    def __bool__(self) -> bool:
        return self.einstein

    @functools.cached_property
    def ricci(self) -> Mat:
        den2, k = self.killing
        return la.mat_over(k, -4 * den2)


def ricci_biinvariant(alg: LieAlgebra) -> Mat:
    """Ricci tensor of a bi-invariant metric: -1/4 of the Killing form
    (independent of the chosen invariant scalar product)."""
    den2, k = killing_sums(alg)
    return la.mat_over(k, -4 * den2)


def einstein_check(m: MetricLieAlgebra) -> EinsteinReport:
    """Exact test for Ric = lam <.,.> with a rational constant lam.

    Ric = -K / (4 L^2) on ``killing_sums`` and B = R / M on
    ``form.int_rows``, so Ric is proportional to B exactly when every
    K_ij R_pq = K_pq R_ij for the first non-zero R_pq in row-major order,
    and then lam = -K_pq M / (4 L^2 R_pq). On the zero form lam is 0
    when Ric vanishes and None otherwise.
    """
    den2, k = killing_sums(m.algebra)
    mden, b_rows = m.form.int_rows
    pairs = [
        (x, b_row.get(j, 0)) for row, b_row in zip(k, map(dict, b_rows)) for j, x in enumerate(row)
    ]
    kpq, rpq = next(((x, y) for x, y in pairs if y), (0, 1))
    lam = None
    if all(x * rpq == kpq * y for x, y in pairs):
        lam = Fraction(-kpq * mden, 4 * den2 * rpq)
    return EinsteinReport((den2, k), lam is not None, lam)


# ---------------------------------------------------------------------------
# the trace identity on extension spectra
# ---------------------------------------------------------------------------


class EigenvalueData(NamedTuple):
    """A spectrum given symbolically: real eigenvalues listed one by one
    and complex-conjugate pairs alpha +- i beta listed once each."""

    reals: tuple = ()
    complex_pairs: tuple = ()


class TraceIdentityReport(NamedTuple):
    value: object
    holds: bool
    spectrum_value: object | None = None


def _rational_value(x) -> Fraction | None:
    """The value of an algebraic number if it is rational, else None.

    An owned number (int, ``Fraction``, ``Quadratic``) is read directly.
    A sympy expression is expanded, and if that is not a rational it is
    decided by its minimal polynomial over Q, which is linear iff the
    number is rational; note that ``sympy.minimal_polynomial`` picks
    among candidate factors by evaluating them numerically. Anything
    that is not an algebraic number raises ``PreconditionError``.
    """
    if isinstance(x, Quadratic):
        return None if x.v else x.u
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    import sympy as sp

    expr = sp.expand(sp.sympify(x))
    if expr.is_Rational:
        return Fraction(int(expr.p), int(expr.q))
    if expr.free_symbols:
        raise PreconditionError(f"{expr} is not an algebraic number: it has free symbols")
    try:
        mp = sp.minimal_polynomial(expr, sp.Symbol("x"), polys=True)
    except Exception as exc:  # sympy raises various types here
        raise PreconditionError(f"{expr} is not an algebraic number: {exc}") from None
    if mp.degree() != 1:
        return None
    c1, c0 = mp.all_coeffs()
    root = -c0 / c1
    return Fraction(int(root.p), int(root.q))


def _exact_sum(terms):
    """The sum of c x^2 over the pairs (c, x) of an int c and an
    algebraic number x, a ``Fraction`` when it is rational:
    ``quadratic.field_sum`` when every x is owned and the sum stays in
    one quadratic field, else the ``sympy.expand``ed sum, each x read
    by ``sympify``."""
    terms = list(terms)
    total = field_sum(c * x * x for c, x in terms) if all(is_owned(x) for _, x in terms) else None
    if total is not None:
        return total if total.v else total.u
    import sympy as sp

    total = sp.expand(sp.Add(*(c * sp.sympify(x) ** 2 for c, x in terms)))
    return Fraction(int(total.p), int(total.q)) if total.is_Rational else total


def _trace_square_from_charpoly(a: Mat) -> Fraction:
    """tr(A^2) recovered purely from the characteristic polynomial
    x^n - e1 x^(n-1) + e2 x^(n-2) - ...: by Newton's identity the second
    power sum of the eigenvalues is e1^2 - 2 e2."""
    coeffs = la.charpoly(a)
    e1 = -coeffs[1] if len(coeffs) > 1 else la.ZERO
    e2 = coeffs[2] if len(coeffs) > 2 else la.ZERO
    return e1 * e1 - 2 * e2


def trace_identity(data: EigenvalueData | Mat | LinearMap) -> TraceIdentityReport:
    """Evaluate sum lam_i^2 + 2 sum alpha_j^2 - 2 sum beta_j^2 and test
    whether it vanishes.

    For an exact matrix the value is tr(A^2), computed both directly and
    through the characteristic polynomial's symmetric functions; the two
    must agree. A spectrum of owned numbers (ints, ``Fraction``s,
    ``Quadratic``s) is summed exactly per quadratic field. Any other
    spectrum, or one whose sum mixes fields, is summed in sympy and the
    sum decided by ``_rational_value``: exactly when it expands to a
    rational, and otherwise by its minimal polynomial, whose factor
    choice in sympy is numerical. A spectrum that is not algebraic
    raises ``PreconditionError``.
    """
    if isinstance(data, EigenvalueData):
        terms = [(1, lam) for lam in data.reals]
        for alpha, beta in data.complex_pairs:
            terms += [(2, alpha), (-2, beta)]
        value = _exact_sum(terms)
        return TraceIdentityReport(value, _rational_value(value) == 0)
    m = data.matrix if isinstance(data, LinearMap) else la.mat(data)
    if la.nrows(m) != la.ncols(m):
        raise PreconditionError("trace identity needs a square matrix")
    direct = la.trace_product(m, m)
    from_spectrum = _trace_square_from_charpoly(m)
    if direct != from_spectrum:
        raise CertificateError(
            "direct trace and spectral power sum disagree; this is a bug"
        )
    return TraceIdentityReport(direct, direct == 0, from_spectrum)


def eigenvalue_condition(m: MetricLieAlgebra, element: Vec) -> TraceIdentityReport:
    """The Einstein trace condition tr(ad(a)^2) = 0 for an element a of
    a solvable metric Lie algebra with vanishing Einstein constant."""
    return trace_identity(ad(m.algebra, element))


# ---------------------------------------------------------------------------
# nested triangular normal forms and their trace recursion
# ---------------------------------------------------------------------------


class TorusLeaf(NamedTuple):
    """A block-diagonal rotation family: blocks [[0, -xi], [xi, 0]], plus
    optional zero padding."""

    rotations: tuple = ()
    padding: int = 0


class TriangularNode(Frozen):
    """A map of the nested form [[A, *, *], [0, X1, *], [0, 0, -A^T]];
    the off-block fillers do not contribute to tr(X^2)."""

    _fields = ("a_block", "inner")

    def __init__(self, a_block: Mat, inner: "TriangularNode | TorusLeaf"):
        object.__setattr__(self, "a_block", la.mat(a_block))
        object.__setattr__(self, "inner", inner)


def nested_trace_square(node: TriangularNode | TorusLeaf):
    """tr(X^2) by the recursion 2 tr(A^2) + tr(X1^2), bottoming out at
    -2 sum xi^2 on a rotation leaf, summed by ``_exact_sum``: a
    ``Fraction`` when rational, else a ``Quadratic`` or a sympy sum."""
    if isinstance(node, TorusLeaf):
        return _exact_sum((-2, xi) for xi in node.rotations)
    a = node.a_block
    head = 2 * la.trace_product(a, a)
    return head + nested_trace_square(node.inner)


def assemble_nested(node: TriangularNode | TorusLeaf) -> Mat:
    """Materialize the nested form with zero fillers (exact input only)."""
    if isinstance(node, TorusLeaf):
        k = 2 * len(node.rotations) + node.padding
        out = [[la.ZERO] * k for _ in range(k)]
        for i, xi in enumerate(node.rotations):
            if isinstance(xi, (Fraction, int)):
                v = Fraction(xi)
            else:
                raise PreconditionError("assembly needs exact rational rotations")
            out[2 * i][2 * i + 1] = -v
            out[2 * i + 1][2 * i] = v
        return tuple(tuple(r) for r in out)
    inner = assemble_nested(node.inner)
    a = node.a_block
    r = la.nrows(a)
    m = la.nrows(inner)
    n = 2 * r + m
    out = [[la.ZERO] * n for _ in range(n)]
    for i in range(r):
        for j in range(r):
            out[i][j] = a[i][j]
            out[r + m + i][r + m + j] = -a[j][i]
    for i in range(m):
        for j in range(m):
            out[r + i][r + j] = inner[i][j]
    return tuple(tuple(r_) for r_ in out)


# ---------------------------------------------------------------------------
# the dimension bound certificate
# ---------------------------------------------------------------------------


class BoundsCertificate(NamedTuple):
    """Witness data showing dim g >= 6, dim n >= 5 and Witt index >= 2
    for a non-nilpotent solvable metric Lie algebra with vanishing
    Killing form and invariant non-degenerate scalar product."""

    element: Vec
    semisimple_part: Mat
    w0: SubspaceBasis
    w1: SubspaceBasis
    nilrad: SubspaceBasis
    central_ideal: SubspaceBasis
    isotropic_line: SubspaceBasis
    isotropic_subspace: SubspaceBasis
    dim: int
    dim_nilradical: int
    witt_index: int


def bounds_certificate(m: MetricLieAlgebra) -> BoundsCertificate:
    """Construct and verify the structural bound certificate.

    Picks a basis vector a outside the nilradical; the semisimple part
    of ad(a) is then non-zero and skew, its image W1 sits inside the
    nilradical with even dimension at least 4, and W1 together with the
    central isotropic ideal and an isotropic line in W1 forces the
    stated bounds. Every claim is re-verified exactly; violations raise
    CertificateError.
    """
    alg, form = m.algebra, m.form
    n = alg.dim
    rep = alg.series_report
    if not rep.is_solvable:
        raise PreconditionError("certificate applies to solvable algebras")
    if rep.is_nilpotent:
        raise PreconditionError("certificate applies to non-nilpotent algebras")
    _require_invariant(m)
    sig = signature(form)
    if not sig.is_nondegenerate:
        raise PreconditionError("certificate requires a non-degenerate form")
    rep_e = einstein_check(m)
    if not (rep_e.einstein and rep_e.constant == 0):
        raise PreconditionError(
            "certificate requires the Einstein condition with vanishing constant"
        )

    nil = nilradical(alg)
    a = next((i for i in range(n) if nil.int_span.reduce({i: 1})), None)
    if a is None:
        raise CertificateError("no basis vector outside the nilradical")
    a_vec = la.unit_vec(n, a)
    sigma = jordan_chevalley(ad(alg, a_vec)).semisimple.matrix
    if la.is_zero_mat(sigma):
        raise CertificateError("semisimple part vanishes for an element outside n")
    if _map_pairing(sigma, form)[2] is not None:
        raise CertificateError("semisimple part of ad(a) is not skew")
    w1 = subspace_from_spanning(n, la.transpose(sigma))
    w0 = SubspaceBasis.kernel(n, map(dict, la.to_int_rows(sigma)[1]))
    if any(map(any, form.int_gram(w0.int_rows[1], w1.int_rows[1]))):
        raise CertificateError("kernel and image of the semisimple part not orthogonal")
    if not nil.contains_subspace(w1):
        raise CertificateError("image of the semisimple part leaves the nilradical")
    if w1.dim < 4 or w1.dim % 2 != 0:
        raise CertificateError(
            f"image of the semisimple part has dimension {w1.dim}, expected even >= 4"
        )

    # j0 ∩ z(g) for j0 = z(n) ∩ [g, n]: z(g) is an abelian ideal, so
    # z(g) ⊆ n and then z(g) ⊆ z(n), which leaves the centralizer of g
    # in [g, n]; its isotropy is certified below with u_space
    ideal = centralizer(alg, bracket_spans(alg, alg.full_space(), nil))
    if ideal.dim == 0:
        raise CertificateError("no central isotropic ideal available")
    w1_form = form.restrict_rows(*w1.int_rows)
    iso_coords = isotropic_vector(w1_form)
    if iso_coords is None:
        raise CertificateError("no rational isotropic line found in the image")
    line = subspace_from_spanning(n, (_lift(iso_coords, w1.vectors, n),))
    u_space = span_of(n, ideal.int_rows[1] + line.int_rows[1])
    _require_isotropic(
        form, u_space, CertificateError, "certificate subspace not totally isotropic"
    )
    if u_space.dim < 2:
        raise CertificateError("isotropic subspace collapsed below dimension 2")
    witt = sig.witt_index
    if n < 6 or nil.dim < 5 or witt < 2 or witt < u_space.dim:
        raise CertificateError("structural bounds violated; this is a bug")
    return BoundsCertificate(
        element=a_vec,
        semisimple_part=sigma,
        w0=w0,
        w1=w1,
        nilrad=nil,
        central_ideal=ideal,
        isotropic_line=line,
        isotropic_subspace=u_space,
        dim=n,
        dim_nilradical=nil.dim,
        witt_index=witt,
    )


# ---------------------------------------------------------------------------
# randomized sharpness search
# ---------------------------------------------------------------------------


class SearchResult(NamedTuple):
    examined: int
    hits: tuple[dict, ...]

    @property
    def minimal_dim(self) -> int | None:
        dims = [h["dim"] for h in self.hits]
        return min(dims) if dims else None


def _rotation_boost_columns(rotations: tuple[int, ...], boost: int) -> tuple[int, tuple]:
    """The integer columns (1, cols) of blockdiag(rot b for b in
    rotations, boost block), skew for diag(1, ..., 1, -1), as
    ``la.normalised``; spectrum {±i b} ∪ {±boost}, so tr = 2 boost^2 -
    2 sum b^2."""
    cols = [c for i, b in enumerate(rotations) for c in (((2 * i + 1, b),), ((2 * i, -b),))]
    m = len(cols)
    return la.normalised(1, (*cols, ((m + 1, boost),), ((m, boost),)))


def _traceless_skew_map(rng: random.Random, form: SymBilinearForm) -> tuple | None:
    """The integer columns (D, cols) of the map ``random_skew_map(rng,
    form)`` draws if tr(delta^2) = 0, as ``la.normalised``, else None,
    with the same rng draws.

    For a one-step extension of an abelian base the Killing form
    vanishes iff tr(delta^2) = 0. With delta = R / D drawn in integers
    as ``random_skew_numerators`` draws it, R = P C for P the rows of
    ``form.int_inverse`` and C skew with the drawn upper entries c_e,
    that is tr(R^2) = sum_{e,f} T_ef c_e c_f = 0, with T_ef = P_jk P_li
    - P_jl P_ki - P_ik P_lj + P_il P_kj for e = (i, j), f = (k, l)
    (``form.skew_square_trace``; T_ee = -2 p_i p_j on a diagonal form).
    The sum is decided on the drawn integers, so a rejected draw forms
    no K and no product; only a kept one forms R and its columns.
    """
    lcm, entries = _draw_skew_entries(rng, form.dim)
    if form.skew_square_trace(entries):
        return None
    den, rows = _skew_numerators(form, lcm, entries)
    return la.normalised(den, (tuple(enumerate(col)) for col in zip(*rows)))


def _record(m: MetricLieAlgebra, kind: str) -> tuple | None:
    """An Einstein hit's record as its (key, value) pairs, every value
    immutable (the signature a tuple), or None for a non-hit."""
    rep = einstein_check(m)
    if not rep.einstein:
        return None
    s = m.algebra.series_report
    if not s.is_solvable:
        return None
    sig = signature(m.form)
    return (
        ("spec", kind),
        ("dim", m.dim),
        ("index", min(sig.p, sig.q)),
        ("signature", (sig.p, sig.q, sig.r)),
        ("dim_nilradical", nilradical(m.algebra).dim),
        ("einstein", True),
        ("einstein_constant", str(rep.constant)),
        ("nilpotent", s.is_nilpotent),
        ("abelian", s.is_abelian),
    )


@functools.lru_cache(maxsize=256)
def _extension(n: int, s: int, delta: tuple) -> MetricLieAlgebra:
    """The certified one-step ``double_extend`` of ``build_ab(n, s)`` by
    the integer columns delta = (D, cols), given ``la.normalised``.

    Memoised on that exact integer input (``build_ab`` is memoised and
    deterministic), so each distinct extension is built and certified
    once per process, and the data it keeps (its ``skew_derivations``,
    its series, its nilradical) is shared by every sample and record
    that reaches it. The memo is bounded, as ``build_ab``'s is. An
    exception is not cached.
    """
    return double_extend(DoubleExtensionSpec.from_columns(build_ab(n, s), (delta,)))


@functools.lru_cache(maxsize=256)
def _extension_record(n: int, s: int, delta: tuple, kind: str) -> tuple | None:
    """The ``_record`` of ``_extension(n, s, delta)`` under kind, an
    immutable tuple or None, memoised as the extension is."""
    return _record(_extension(n, s, delta), kind)


def sharpness_search(
    dim_range: tuple[int, int],
    index_range: tuple[int, int],
    budget: int,
    seed: int = 0,
) -> SearchResult:
    """Randomized search for Einstein solvable metric Lie algebras with
    dimension and index (min of the signature) in the given inclusive
    ranges, probing sharpness of the bounds dim g >= 6, dim n >= 5,
    index >= 2.

    Samples are one- and two-step double extensions of small abelian
    bases by random skew maps, plus a sparse targeted family pairing a
    rotation block with a hyperbolic boost of matched weight (Einstein
    by the trace identity). Every Einstein hit is recorded, including
    nilpotent and abelian ones. Deterministic for a fixed seed. An
    empty range or a negative budget raises ``PreconditionError``.

    A one-step sample is drawn, kept only if tr(delta^2) = 0, and
    extended in integers (``_traceless_skew_map``). The trace is the
    quadratic form sum_{e,f} T_ef c_e c_f of the drawn skew entries c_e,
    with T_ef = P_jk P_li - P_jl P_ki - P_ik P_lj + P_il P_kj for e =
    (i, j), f = (k, l) and P the integer rows of B^{-1}, so a draw is
    decided before any matrix product, and only the kept ones (about
    19%) form delta. The abelian bases
    come from the memoised ``build_ab``, so they and their cached data
    are shared across calls.

    Every one-step double extension of such a base (a random one-step
    sample, a rotation-boost one, the first step of a two-step one) is
    built and certified once per process by the memo ``_extension``,
    and a one-step sample is recorded once by ``_extension_record``:
    few inputs recur very often, above all at d = 3, where the 1x1 skew
    map is always zero.
    A hit is a fresh dict, so no caller can change the memo.

    A two-step sample draws delta_2 on the first step g_1 (the draw of
    ``random_double_extension``) and builds g_2 = a_2 + g_1 + z_2 only
    if tr(delta_2^2) = 0, read off delta_2's integer columns
    (``la.int_trace_square``): z_2 is central, so kappa(z_2, .)
    = 0, and with <a_2, z_2> = 1, Ric = lam <.,.> forces lam = 0 and
    then kappa = 0. ad(a_2) is delta_2 on g_1 and zero on a_2 and z_2,
    so kappa(a_2, a_2) = tr(delta_2^2), and a sample with tr(delta_2^2)
    != 0 is no hit. A kept g_2 is built by ``double_extend`` with its
    full certificates and recorded fresh.
    """
    dim_lo, dim_hi = dim_range
    idx_lo, idx_hi = index_range
    if dim_lo > dim_hi or idx_lo > idx_hi or budget < 0:
        raise PreconditionError(
            f"empty search: dimensions {dim_lo}..{dim_hi}, "
            f"index {idx_lo}..{idx_hi}, budget {budget}"
        )
    rng = random.Random(seed)
    hits: list[dict] = []
    examined = 0

    @functools.cache
    def minus_counts(d: int) -> tuple[list[int], list[int]]:
        # the index choices s of a one-step sample of dimension d (it
        # carries at least one hyperbolic plane: 1 <= s <= d-1) and of a
        # two-step one, listed once per d drawn
        one_step = [s for s in range(1, d) if idx_lo <= min(d - s, s) <= idx_hi]
        return one_step, [s for s in one_step if 2 <= s <= d - 3]

    fits_rb4 = dim_lo <= 6 <= dim_hi and idx_lo <= 2 <= idx_hi
    fits_rb6 = dim_lo <= 8 <= dim_hi and idx_lo <= 2 <= idx_hi

    for step in range(budget):
        examined += 1
        roll = rng.random()
        rec = None
        if fits_rb4 and roll < 0.003:
            # targeted family: rotation and boost of matched weight
            b = rng.randint(1, 9)
            rec = _extension_record(4, 1, _rotation_boost_columns((b,), b), "rotation-boost dim 6")
        elif fits_rb6 and roll < 0.005:
            # Pythagorean family in dimension 8
            k = rng.randint(1, 3)
            delta = _rotation_boost_columns((3 * k, 4 * k), 5 * k)
            rec = _extension_record(6, 1, delta, "rotation-boost dim 8")
        elif roll < 0.035:
            # two-step iterated extension
            d = rng.randint(max(dim_lo, 5), dim_hi) if dim_hi >= 5 else 0
            choices = minus_counts(d)[1] if d else []
            if not choices:
                continue
            s = rng.choice(choices)
            g = _extension(d - 4, s - 2, random_skew_derivation(rng, build_ab(d - 4, s - 2)))
            delta = random_skew_derivation(rng, g)
            # kappa(a2, a2) = tr(delta2^2) must vanish on a hit (see above)
            if la.int_trace_square(delta[1]):
                continue
            g = double_extend(DoubleExtensionSpec.from_columns(g, (delta,)))
            rec = _record(g, f"iterated-2 dim {d}")
        else:
            d = rng.randint(dim_lo, dim_hi)
            choices = minus_counts(d)[0]
            if not choices:
                continue
            s = rng.choice(choices)
            delta = _traceless_skew_map(rng, build_ab(d - 2, s - 1).form)
            if delta is None:
                continue
            rec = _extension_record(d - 2, s - 1, delta, f"random one-step dim {d} minus {s}")
        if rec is not None:
            # a fresh dict and signature list, so no caller shares the memo's record
            hit = dict(rec, sample=step)
            hit["signature"] = list(hit["signature"])
            hits.append(hit)
    return SearchResult(examined, tuple(hits))
