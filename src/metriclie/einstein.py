"""Einstein conditions for invariant scalar products.

For a bi-invariant metric the Ricci tensor is -1/4 of the Killing form,
so the Einstein condition Ric = lam <.,.> is an exact rational
proportionality check. For the solvable double extensions built in this
package the condition collapses to a trace identity on the extension
spectrum, checked here both directly and through an independent
symmetric-function computation on the characteristic polynomial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import sympy as sp

from . import linalg as la
from .core import (
    LieAlgebra,
    LinearMap,
    SubspaceBasis,
    ad,
    center,
    jordan_chevalley,
    killing_matrix,
    nilradical,
    series,
    subspace_from_spanning,
)
from .errors import CertificateError, PreconditionError
from .forms import (
    MetricLieAlgebra,
    SymBilinearForm,
    is_invariant,
    is_totally_isotropic,
    isotropic_vector,
    j0_ideal,
    signature,
)
from .linalg import Mat, Vec
from .reduction import DoubleExtensionSpec, build_ab, double_extend, random_skew_map


@dataclass(frozen=True)
class EinsteinReport:
    ricci: Mat
    einstein: bool
    constant: Fraction | None

    def __bool__(self) -> bool:
        return self.einstein


def ricci_biinvariant(alg: LieAlgebra) -> Mat:
    """Ricci tensor of a bi-invariant metric: -1/4 of the Killing form
    (independent of the chosen invariant scalar product)."""
    return la.mat_scale(Fraction(-1, 4), killing_matrix(alg))


def einstein_check(m: MetricLieAlgebra) -> EinsteinReport:
    """Exact test for Ric = lam <.,.> with a rational constant lam."""
    ric = ricci_biinvariant(m.algebra)
    b = m.form.matrix
    n = m.dim
    lam: Fraction | None = None
    for i in range(n):
        for j in range(n):
            if b[i][j] != 0:
                lam = ric[i][j] / b[i][j]
                break
        if lam is not None:
            break
    if lam is None:
        # zero form (degenerate edge case); Einstein iff Ricci vanishes
        return EinsteinReport(ric, la.is_zero_mat(ric), Fraction(0))
    residual = la.mat_sub(ric, la.mat_scale(lam, b))
    if la.is_zero_mat(residual):
        return EinsteinReport(ric, True, lam)
    return EinsteinReport(ric, False, None)


# ---------------------------------------------------------------------------
# the trace identity on extension spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenvalueData:
    """A spectrum given symbolically: real eigenvalues listed one by one
    and complex-conjugate pairs alpha +- i beta listed once each."""

    reals: tuple = ()
    complex_pairs: tuple = ()


@dataclass(frozen=True)
class TraceIdentityReport:
    value: object  # Fraction for exact input, sympy expression otherwise
    holds: bool | None
    spectrum_value: object | None = None


def _poly_to_sympy(p: la.Poly, x: sp.Symbol) -> sp.Poly:
    return sp.Poly([sp.Rational(c.numerator, c.denominator) for c in p], x, domain="QQ")


def _trace_square_from_charpoly(a: Mat) -> Fraction:
    """tr(A^2) recovered purely from the factored characteristic
    polynomial: the second power sum of each irreducible factor is
    e1^2 - 2 e2, summed with multiplicities."""
    x = sp.Symbol("x")
    poly = _poly_to_sympy(la.charpoly(a), x)
    _, factors = poly.factor_list()
    total = sp.Integer(0)
    for fac, mult in factors:
        coeffs = fac.all_coeffs()
        d = fac.degree()
        lead = coeffs[0]
        e1 = -coeffs[1] / lead if d >= 1 else sp.Integer(0)
        e2 = coeffs[2] / lead if d >= 2 else sp.Integer(0)
        total += mult * (e1 * e1 - 2 * e2)
    total = sp.nsimplify(total)
    return Fraction(int(sp.numer(total)), int(sp.denom(total)))


def trace_identity(data: EigenvalueData | Mat | LinearMap) -> TraceIdentityReport:
    """Evaluate sum lam_i^2 + 2 sum alpha_j^2 - 2 sum beta_j^2 and test
    whether it vanishes.

    For an exact matrix the value is tr(A^2), computed both directly and
    through the characteristic polynomial's symmetric functions; the two
    must agree. For symbolic spectra the test is a sympy zero-check and
    may return ``holds=None`` when undecidable.
    """
    if isinstance(data, EigenvalueData):
        expr = sp.Integer(0)
        for lam in data.reals:
            expr += sp.sympify(lam) ** 2
        for alpha, beta in data.complex_pairs:
            expr += 2 * sp.sympify(alpha) ** 2 - 2 * sp.sympify(beta) ** 2
        expr = sp.expand(sp.simplify(expr))
        if expr == 0:
            return TraceIdentityReport(expr, True)
        verdict = expr.equals(0)
        if verdict is True:
            return TraceIdentityReport(expr, True)
        if verdict is False:
            return TraceIdentityReport(expr, False)
        return TraceIdentityReport(expr, None)
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


def skewness_check(a: Mat, b: SymBilinearForm | Mat) -> tuple[bool, Mat]:
    """Is a skew with respect to b? Returns (flag, residual a^T b + b a)."""
    bm = b.matrix if isinstance(b, SymBilinearForm) else la.mat(b)
    residual = la.skew_residual(la.mat(a), bm)
    return la.is_zero_mat(residual), residual


# ---------------------------------------------------------------------------
# nested triangular normal forms and their trace recursion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusLeaf:
    """A block-diagonal rotation family: blocks [[0, -xi], [xi, 0]], plus
    optional zero padding."""

    rotations: tuple = ()
    padding: int = 0


@dataclass(frozen=True)
class TriangularNode:
    """A map of the nested form [[A, *, *], [0, X1, *], [0, 0, -A^T]];
    the off-block fillers do not contribute to tr(X^2)."""

    a_block: Mat
    inner: "TriangularNode | TorusLeaf"

    def __post_init__(self):
        object.__setattr__(self, "a_block", la.mat(self.a_block))


def nested_trace_square(node: TriangularNode | TorusLeaf):
    """tr(X^2) by the recursion 2 tr(A^2) + tr(X1^2), bottoming out at
    -2 sum xi^2 on a rotation leaf. Values may be symbolic."""
    if isinstance(node, TorusLeaf):
        total = sp.Integer(0)
        for xi in node.rotations:
            total -= 2 * sp.sympify(xi) ** 2
        if total.free_symbols:
            return total
        rat = sp.Rational(total)
        return Fraction(int(rat.p), int(rat.q))
    a = node.a_block
    head = 2 * la.trace_product(a, a)
    tail = nested_trace_square(node.inner)
    if isinstance(tail, Fraction):
        return head + tail
    return sp.sympify(head) + tail


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


@dataclass(frozen=True)
class BoundsCertificate:
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
    rep = series(alg)
    if not rep.is_solvable:
        raise PreconditionError("certificate applies to solvable algebras")
    if rep.is_nilpotent:
        raise PreconditionError("certificate applies to non-nilpotent algebras")
    inv = is_invariant(m)
    if not inv.passed:
        raise PreconditionError(f"form is not invariant; witness {inv.witness}")
    sig = signature(form)
    if not sig.is_nondegenerate:
        raise PreconditionError("certificate requires a non-degenerate form")
    rep_e = einstein_check(m)
    if not (rep_e.einstein and rep_e.constant == 0):
        raise PreconditionError(
            "certificate requires the Einstein condition with vanishing constant"
        )

    nil = nilradical(alg)
    a_vec = next(
        (la.unit_vec(n, i) for i in range(n) if not nil.contains(la.unit_vec(n, i))),
        None,
    )
    if a_vec is None:
        raise CertificateError("no basis vector outside the nilradical")
    sigma = jordan_chevalley(ad(alg, a_vec)).semisimple.matrix
    if la.is_zero_mat(sigma):
        raise CertificateError("semisimple part vanishes for an element outside n")
    ok, _ = skewness_check(sigma, form)
    if not ok:
        raise CertificateError("semisimple part of ad(a) is not skew")
    w1 = subspace_from_spanning(n, la.column_space_basis(sigma))
    w0 = SubspaceBasis(n, la.kernel(sigma))
    for u in w0.vectors:
        for v in w1.vectors:
            if form.apply(u, v) != 0:
                raise CertificateError("kernel and image of the semisimple part not orthogonal")
    if not nil.contains_subspace(w1):
        raise CertificateError("image of the semisimple part leaves the nilradical")
    if w1.dim < 4 or w1.dim % 2 != 0:
        raise CertificateError(
            f"image of the semisimple part has dimension {w1.dim}, expected even >= 4"
        )

    ideal = j0_ideal(m).intersect(center(alg))
    if ideal.dim == 0:
        raise CertificateError("no central isotropic ideal available")
    w1_form = form.restrict(w1.vectors)
    iso_coords = isotropic_vector(w1_form)
    if iso_coords is None:
        raise CertificateError("no rational isotropic line found in the image")
    line_vec = la.zeros_vec(n)
    for c, bvec in zip(iso_coords, w1.vectors):
        line_vec = la.vec_add(line_vec, la.vec_scale(c, bvec))
    line = subspace_from_spanning(n, (line_vec,))
    u_space = subspace_from_spanning(n, ideal.vectors + line.vectors)
    ok, wit = is_totally_isotropic(form, u_space)
    if not ok:
        raise CertificateError(f"certificate subspace not totally isotropic: {wit}")
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


@dataclass(frozen=True)
class SearchResult:
    examined: int
    hits: tuple[dict, ...]

    @property
    def minimal_dim(self) -> int | None:
        dims = [h["dim"] for h in self.hits]
        return min(dims) if dims else None


def _rotation_boost_delta(b1: int, b2: int, lam: int) -> Mat:
    """blockdiag(rot b1, rot b2, boost lam), skew for diag(1,1,1,1,1,-1);
    spectrum {±i b1, ±i b2, ±lam}, so tr = 2 lam^2 - 2 b1^2 - 2 b2^2."""
    z = la.ZERO
    f = Fraction
    return la.mat(
        [
            [z, -f(b1), z, z, z, z],
            [f(b1), z, z, z, z, z],
            [z, z, z, -f(b2), z, z],
            [z, z, f(b2), z, z, z],
            [z, z, z, z, z, f(lam)],
            [z, z, z, z, f(lam), z],
        ]
    )


def _rotation_boost_delta4(b: int, lam: int) -> Mat:
    z = la.ZERO
    f = Fraction
    return la.mat(
        [
            [z, -f(b), z, z],
            [f(b), z, z, z],
            [z, z, z, f(lam)],
            [z, z, f(lam), z],
        ]
    )


def _record(m: MetricLieAlgebra, kind: str) -> dict | None:
    """A JSON-friendly record for an Einstein hit (None otherwise)."""
    rep = einstein_check(m)
    if not rep.einstein:
        return None
    s = series(m.algebra)
    if not s.is_solvable:
        return None
    sig = signature(m.form)
    # a nilpotent algebra is its own nilradical; skip the general search
    nildim = m.dim if s.is_nilpotent else nilradical(m.algebra).dim
    return {
        "spec": kind,
        "dim": m.dim,
        "index": min(sig.p, sig.q),
        "signature": [sig.p, sig.q, sig.r],
        "dim_nilradical": nildim,
        "einstein": True,
        "einstein_constant": str(rep.constant),
        "nilpotent": s.is_nilpotent,
        "abelian": s.is_abelian,
    }


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
    nilpotent and abelian ones. Deterministic for a fixed seed.
    """
    dim_lo, dim_hi = dim_range
    idx_lo, idx_hi = index_range
    rng = random.Random(seed)
    hits: list[dict] = []
    examined = 0
    bases: dict[tuple[int, int], MetricLieAlgebra] = {}

    def cached_ab(d: int, s: int) -> MetricLieAlgebra:
        if (d, s) not in bases:
            bases[(d, s)] = build_ab(d, s)
        return bases[(d, s)]

    def feasible_minus_counts(d: int) -> list[int]:
        # extensions carry at least one hyperbolic plane: 1 <= s <= d-1
        return [
            s for s in range(1, d) if idx_lo <= min(d - s, s) <= idx_hi
        ]

    fits_rb4 = dim_lo <= 6 <= dim_hi and idx_lo <= 2 <= idx_hi
    fits_rb6 = dim_lo <= 8 <= dim_hi and idx_lo <= 2 <= idx_hi

    for step in range(budget):
        examined += 1
        roll = rng.random()
        rec = None
        if fits_rb4 and roll < 0.003:
            # targeted family: rotation and boost of matched weight
            b = rng.randint(1, 9)
            g = double_extend(
                DoubleExtensionSpec(
                    base=cached_ab(4, 1), deltas=(_rotation_boost_delta4(b, b),)
                )
            )
            rec = _record(g, "rotation-boost dim 6")
        elif fits_rb6 and roll < 0.005:
            # Pythagorean family in dimension 8
            k = rng.randint(1, 3)
            g = double_extend(
                DoubleExtensionSpec(
                    base=cached_ab(6, 1),
                    deltas=(_rotation_boost_delta(3 * k, 4 * k, 5 * k),),
                )
            )
            rec = _record(g, "rotation-boost dim 8")
        elif roll < 0.035:
            # two-step iterated extension
            d = rng.randint(max(dim_lo, 5), dim_hi) if dim_hi >= 5 else 0
            choices = [s for s in feasible_minus_counts(d) if 2 <= s <= d - 3] if d else []
            if not choices:
                continue
            s = rng.choice(choices)
            from .reduction import random_double_extension

            try:
                g = random_double_extension(rng, cached_ab(d - 4, s - 2))
                g = random_double_extension(rng, g)
            except CertificateError:
                continue
            rec = _record(g, f"iterated-2 dim {d}")
        else:
            d = rng.randint(dim_lo, dim_hi)
            choices = feasible_minus_counts(d)
            if d < 2 or not choices:
                continue
            s = rng.choice(choices)
            base = cached_ab(d - 2, s - 1)
            delta = random_skew_map(rng, base.form)
            # cheap exact prefilter: for a one-step extension of an
            # abelian base the Killing form vanishes iff tr(delta^2) = 0
            if la.trace_product(delta, delta) != 0:
                continue
            try:
                g = double_extend(DoubleExtensionSpec(base=base, deltas=(delta,)))
            except CertificateError:
                continue
            rec = _record(g, f"random one-step dim {d} minus {s}")
        if rec is not None:
            rec["sample"] = step
            hits.append(rec)
    return SearchResult(examined, tuple(hits))
