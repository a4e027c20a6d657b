"""Lattice-obstruction certificates from eigenvalue transcendence.

If exp(t X) is conjugate to an integer matrix, its eigenvalues are
algebraic. For the spectra forced by the Einstein trace identity in
acting dimension at most 5, the Gelfond-Schneider theorem (trusted here
as a named rule, never re-proved) makes one of them transcendental, so
no such t exists. In higher dimension the same conclusion is only
available conditionally on Schanuel's conjecture; those verdicts are
tagged accordingly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import sympy as sp
from mpmath import iv
from mpmath import ceil as mp_ceil
from mpmath import floor as mp_floor

from . import linalg as la
from .core import LinearMap, SubspaceBasis, ad, jordan_chevalley
from .einstein import EigenvalueData, _poly_to_sympy, trace_identity
from .errors import CertificateError, PreconditionError
from .forms import MetricLieAlgebra
from .linalg import Mat, Vec

RULE_GS = "gelfond-schneider"
RULE_SCHANUEL = "schanuel-conditional"

_X = sp.Symbol("x")


@dataclass(frozen=True)
class AlgebraicNumber:
    """One root of an irreducible rational polynomial, with a certified
    rational box isolating it from the factor's other roots."""

    expr: object  # sympy expression (CRootOf or rational)
    minpoly: sp.Poly
    enclosure: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

    @property
    def is_real(self) -> bool:
        lo, hi = self.enclosure[1]
        return lo == 0 and hi == 0

    @property
    def is_zero(self) -> bool:
        return self.expr == 0


@dataclass(frozen=True)
class ObstructionReport:
    input_spectrum: EigenvalueData
    n: int
    case_tag: str  # case1_nonzero_real_part | case2_imaginary_pair | out_of_scope_n_gt_5 | nilpotent
    exp_eigenvalue_patterns: tuple[str, ...]
    verdict: str  # obstructed | schanuel_conditional | inapplicable
    rule_cited: str
    hypothesis_checks: dict

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "case_tag": self.case_tag,
            "exp_eigenvalue_patterns": list(self.exp_eigenvalue_patterns),
            "verdict": self.verdict,
            "rule_cited": self.rule_cited,
            "hypothesis_checks": {k: bool(v) for k, v in self.hypothesis_checks.items()},
            "spectrum": {
                "reals": [str(r) for r in self.input_spectrum.reals],
                "complex_pairs": [
                    [str(a), str(b)] for a, b in self.input_spectrum.complex_pairs
                ],
            },
        }


@dataclass(frozen=True)
class RelationBasis:
    relations: tuple[Vec, ...]
    field_degree: int
    quadratic_identity_holds: bool


def _fraction(r: sp.Rational) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def _root_box(root, tol: sp.Rational):
    """Certified rational box of half-width <= tol around a root object
    (a CRootOf, or a Gaussian rational when sympy auto-evaluates)."""
    if root.is_rational:
        r = _fraction(sp.Rational(root))
        return ((r, r), (Fraction(0), Fraction(0)))
    if not isinstance(root, sp.CRootOf):
        # sympy's root preprocessing can rescale, e.g. roots of x^2 + 9
        # come back as 3*CRootOf(x^2 + 1, k); undo the rational scale
        crs = list(root.atoms(sp.CRootOf))
        if len(crs) != 1:
            raise CertificateError(f"unexpected root form {root}")
        cr = crs[0]
        scale = sp.cancel(root / cr)
        if not scale.is_rational:
            raise CertificateError(f"unexpected root form {root}")
        inner = _root_box(cr, tol / abs(scale))
        c = _fraction(sp.Rational(scale))

        def scaled(lo: Fraction, hi: Fraction):
            a, b = c * lo, c * hi
            return (a, b) if a <= b else (b, a)

        return (scaled(*inner[0]), scaled(*inner[1]))
    approx = root.eval_rational(dx=tol, dy=tol)
    re = sp.re(approx)
    im = sp.im(approx)
    if root.is_real:
        return ((_fraction(re - tol), _fraction(re + tol)), (Fraction(0), Fraction(0)))
    return (
        (_fraction(re - tol), _fraction(re + tol)),
        (_fraction(im - tol), _fraction(im + tol)),
    )


def _boxes_disjoint(b1, b2) -> bool:
    (r1l, r1h), (i1l, i1h) = b1
    (r2l, r2h), (i2l, i2h) = b2
    return r1h < r2l or r2h < r1l or i1h < i2l or i2h < i1l


def exact_eigenvalues(a: LinearMap | Mat) -> tuple[AlgebraicNumber, ...]:
    """Eigenvalues of a rational matrix as exact algebraic numbers with
    multiplicity, via the factored characteristic polynomial.

    Certificates: the product of minimal polynomials (with multiplicity)
    reproduces the characteristic polynomial exactly, and the enclosures
    of distinct roots of each irreducible factor are pairwise disjoint.
    """
    m = a.matrix if isinstance(a, LinearMap) else la.mat(a)
    if la.nrows(m) != la.ncols(m):
        raise PreconditionError("eigenvalues of a non-square matrix")
    cp = _poly_to_sympy(la.charpoly(m), _X)
    # factor_list pulls rational content into the lead coefficient; the
    # monic-rebuild certificate below makes it irrelevant
    _, factors = cp.factor_list()
    rebuilt = sp.Poly(1, _X, domain="QQ")
    out: list[AlgebraicNumber] = []
    for fac, mult in factors:
        fac = fac.monic()
        rebuilt = rebuilt * fac**mult
        deg = fac.degree()
        roots = fac.all_roots(radicals=False)
        tol = sp.Rational(1, 10**8)
        while True:
            boxes = [_root_box(r, tol) for r in roots]
            if all(
                _boxes_disjoint(boxes[i], boxes[j])
                for i in range(deg)
                for j in range(i + 1, deg)
            ):
                break
            tol /= 1000
        for r, box in zip(roots, boxes):
            expr = sp.Rational(r) if r.is_rational else r
            for _ in range(mult):
                out.append(AlgebraicNumber(expr=expr, minpoly=fac, enclosure=box))
    if rebuilt != cp:
        raise CertificateError("minimal polynomials do not rebuild the characteristic polynomial")
    return tuple(out)


def spectrum_data(a: LinearMap | Mat) -> EigenvalueData:
    """Classified spectrum: real eigenvalues listed singly, non-real
    conjugate pairs listed once via their real/imaginary parts."""
    eigs = exact_eigenvalues(a)
    reals = []
    pairs = []
    for e in eigs:
        if e.is_real:
            reals.append(sp.sympify(e.expr))
        else:
            lo, hi = e.enclosure[1]
            if lo > 0:  # keep the upper-half-plane representative
                pairs.append((sp.re(e.expr), sp.im(e.expr)))
    return EigenvalueData(reals=tuple(reals), complex_pairs=tuple(pairs))


def _is_zero(expr) -> bool:
    expr = sp.sympify(expr)
    if expr.is_zero is not None:
        return bool(expr.is_zero)
    verdict = sp.simplify(expr).equals(0)
    if verdict is None:
        raise PreconditionError(f"could not decide whether {expr} vanishes")
    return verdict


def _equal(a, b) -> bool:
    return _is_zero(sp.sympify(a) - sp.sympify(b))


def _full_spectrum(data: EigenvalueData) -> list:
    out = [sp.sympify(r) for r in data.reals]
    for alpha, beta in data.complex_pairs:
        z = sp.sympify(alpha) + sp.I * sp.sympify(beta)
        out.extend([z, sp.conjugate(z)])
    return out


def _closed_under_negation(data: EigenvalueData) -> bool:
    spectrum = _full_spectrum(data)
    remaining = list(spectrum)
    for e in spectrum:
        match = next((i for i, f in enumerate(remaining) if _equal(f, -e)), None)
        if match is None:
            return False
        remaining.pop(match)
    return True


_CASE1_PATTERNS = (
    "e^{alpha(1+i)}",
    "e^{alpha(1-i)}",
    "e^{alpha(-1+i)}",
    "e^{alpha(-1-i)}",
)
_CASE2_PATTERNS = ("e^{lambda}", "e^{-lambda}", "e^{i lambda}", "e^{-i lambda}")


def _pattern_exponents(case_tag: str):
    t = sp.Symbol("t", positive=True)
    if case_tag == "case1_nonzero_real_part":
        return {t * (1 + sp.I), t * (1 - sp.I), t * (-1 + sp.I), t * (-1 - sp.I)}
    return {t, -t, sp.I * t, -sp.I * t}


def _power_i_closed(case_tag: str) -> bool:
    """Closure property of the exponential spectrum: raising to the
    i-th power permutes the pattern (checked on the formal exponents:
    multiplication by i permutes the exponent set)."""
    exps = _pattern_exponents(case_tag)
    rotated = {sp.expand(sp.I * e) for e in exps}
    return {sp.expand(e) for e in exps} == rotated


def obstruction_verdict(
    data: LinearMap | Mat | EigenvalueData, n: int | None = None
) -> ObstructionReport:
    """Classify a spectrum against the lattice obstruction.

    In acting dimension n <= 5 the trace identity forces the spectrum
    into one of two shapes, each of which makes an eigenvalue of every
    exp(tX), t != 0, transcendental by the Gelfond-Schneider rule:
    verdict "obstructed". For n >= 6 the same argument needs Schanuel's
    conjecture: verdict "schanuel_conditional". A nilpotent spectrum is
    "inapplicable". Every claimed hypothesis is machine-checked first.
    """
    if isinstance(data, EigenvalueData):
        spec = data
        if n is None:
            n = len(spec.reals) + 2 * len(spec.complex_pairs)
    else:
        m = data.matrix if isinstance(data, LinearMap) else la.mat(data)
        spec = spectrum_data(m)
        if n is None:
            n = la.nrows(m)

    checks: dict[str, bool] = {}
    all_zero = all(_is_zero(r) for r in spec.reals) and all(
        _is_zero(a) and _is_zero(b) for a, b in spec.complex_pairs
    )
    checks["non_nilpotent"] = not all_zero
    if all_zero:
        return ObstructionReport(
            input_spectrum=spec,
            n=n,
            case_tag="nilpotent",
            exp_eigenvalue_patterns=(),
            verdict="inapplicable",
            rule_cited="",
            hypothesis_checks=checks,
        )

    ti = trace_identity(spec)
    if ti.holds is not True:
        raise PreconditionError(
            f"eigenvalue trace identity violated (residual {ti.value})"
        )
    checks["trace_identity"] = True

    if n >= 6:
        return ObstructionReport(
            input_spectrum=spec,
            n=n,
            case_tag="out_of_scope_n_gt_5",
            exp_eigenvalue_patterns=(),
            verdict="schanuel_conditional",
            rule_cited=RULE_SCHANUEL,
            hypothesis_checks=checks,
        )

    checks["closed_under_negation"] = _closed_under_negation(spec)
    if not checks["closed_under_negation"]:
        raise CertificateError(
            "spectrum not closed under negation; no certified case applies"
        )

    case1_pair = next(
        (
            (a, b)
            for a, b in spec.complex_pairs
            if not _is_zero(a) and _equal(sp.sympify(a) ** 2, sp.sympify(b) ** 2)
        ),
        None,
    )
    if case1_pair is not None:
        checks["real_part_squared_equals_imaginary_part_squared"] = True
        checks["exp_pattern_power_i_closed"] = _power_i_closed("case1_nonzero_real_part")
        return ObstructionReport(
            input_spectrum=spec,
            n=n,
            case_tag="case1_nonzero_real_part",
            exp_eigenvalue_patterns=_CASE1_PATTERNS,
            verdict="obstructed",
            rule_cited=RULE_GS,
            hypothesis_checks=checks,
        )

    case2 = next(
        (
            (lam, beta)
            for lam in spec.reals
            if not _is_zero(lam)
            for _, beta in spec.complex_pairs
            if _equal(sp.sympify(lam) ** 2, sp.sympify(beta) ** 2)
        ),
        None,
    )
    if case2 is not None and all(_is_zero(a) for a, _ in spec.complex_pairs):
        checks["real_eigenvalue_squared_equals_rotation_squared"] = True
        checks["exp_pattern_power_i_closed"] = _power_i_closed("case2_imaginary_pair")
        return ObstructionReport(
            input_spectrum=spec,
            n=n,
            case_tag="case2_imaginary_pair",
            exp_eigenvalue_patterns=_CASE2_PATTERNS,
            verdict="obstructed",
            rule_cited=RULE_GS,
            hypothesis_checks=checks,
        )
    raise CertificateError(
        "spectrum satisfies the trace identity in dimension <= 5 but matches "
        "no certified case; this should not happen for valid inputs"
    )


def restricted_obstruction(
    m: MetricLieAlgebra, element: Vec, restriction: SubspaceBasis | None = None
) -> ObstructionReport:
    """The obstruction verdict for ad(a) restricted to an invariant
    subspace, defaulting to the image of the semisimple part of ad(a)."""
    phi = ad(m.algebra, element)
    if restriction is None:
        sigma = jordan_chevalley(phi).semisimple.matrix
        restriction = SubspaceBasis(
            m.dim, la.row_space_basis(la.column_space_basis(sigma))
        )
    vecs = restriction.vectors
    if not vecs:
        return obstruction_verdict(EigenvalueData(), n=0)
    cols = []
    for v in vecs:
        w = phi(v)
        coords = la.coords_in(vecs, w)
        if coords is None:
            raise PreconditionError("restriction subspace is not ad(a)-invariant")
        cols.append(coords)
    restricted = la.transpose(tuple(cols))
    return obstruction_verdict(restricted)


# ---------------------------------------------------------------------------
# rational linear relations in a common number field
# ---------------------------------------------------------------------------


def qlinear_relations(
    eigs: Sequence[AlgebraicNumber | object], degree_bound: int = 64
) -> RelationBasis:
    """Exact basis of rational linear dependencies among the given
    algebraic numbers, computed in a common number field built by
    successive primitive elements.

    Fails loudly if the common field degree exceeds ``degree_bound``.
    Also verifies the quadratic trace relation sum xi^2 = 0 in the field
    and reports whether it holds for this spectrum.
    """
    exprs = [
        sp.sympify(e.expr if isinstance(e, AlgebraicNumber) else e) for e in eigs
    ]
    if not exprs:
        return RelationBasis((), 1, True)
    gens = []
    for e in exprs:
        if e.is_rational:
            continue
        if not any(g == e for g in gens):
            gens.append(e)
    if gens:
        try:
            field = sp.QQ.algebraic_field(*gens)
        except Exception as exc:  # sympy raises various types here
            raise PreconditionError(f"could not build a common number field: {exc}")
        degree = field.mod.degree()
    else:
        field = sp.QQ
        degree = 1
    if degree > degree_bound:
        raise PreconditionError(
            f"common field degree {degree} exceeds bound {degree_bound}"
        )

    def coords(e) -> tuple[Fraction, ...]:
        el = field.from_sympy(e)
        if field == sp.QQ:
            return (Fraction(int(el.numerator), int(el.denominator)),)
        rep = el.rep.rep if hasattr(el.rep, "rep") else list(el.rep)
        vec = [Fraction(0)] * degree
        for i, c in enumerate(reversed(rep)):
            vec[i] = Fraction(int(sp.QQ.numer(c)), int(sp.QQ.denom(c)))
        return tuple(vec)

    columns = [coords(e) for e in exprs]
    matrix = la.transpose(tuple(columns))
    relations = la.kernel(matrix)
    # certify each relation by direct evaluation in the field
    for rel in relations:
        total = field.zero
        for c, e in zip(rel, exprs):
            total += field.from_sympy(sp.Rational(c.numerator, c.denominator)) * field.from_sympy(e)
        if total != field.zero:
            raise CertificateError("relation fails to annihilate the spectrum")
    quad = field.zero
    for e in exprs:
        fe = field.from_sympy(e)
        quad += fe * fe
    return RelationBasis(relations, degree, quad == field.zero)


# ---------------------------------------------------------------------------
# certified numeric probe for integer characteristic polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbePoint:
    t: Fraction
    trivially_integral: bool
    integrality_excluded: bool
    coefficients: tuple[str, ...]


@dataclass(frozen=True)
class ProbeReport:
    points: tuple[ProbePoint, ...]
    precision_bits: int


class _CIv:
    """Complex interval as a pair of real mpmath intervals."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __add__(self, other):
        return _CIv(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _CIv(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return _CIv(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )


def _interval_from_fractions(lo: Fraction, hi: Fraction):
    # exact integer endpoints divided in interval arithmetic keep the
    # outward rounding certified
    lo_iv = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
    hi_iv = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
    return iv.mpf([lo_iv.a, hi_iv.b])


def default_precision() -> int:
    raw = os.environ.get("METRIC_LIE_PRECISION", "256")
    try:
        return max(int(raw), 16)
    except ValueError:
        return 256


def integer_exponential_probe(
    m: MetricLieAlgebra,
    element: Vec,
    t_grid: Sequence[Fraction],
    precision_bits: int | None = None,
) -> ProbeReport:
    """For each t in the grid, evaluate the characteristic polynomial of
    exp(t ad(a)) in certified interval arithmetic and report whether all
    of its coefficients being integers can be excluded.

    This is a sanity probe: "not excluded" never asserts integrality, it
    only means the intervals left room for it.
    """
    if precision_bits is None:
        precision_bits = default_precision()
    eigs = exact_eigenvalues(ad(m.algebra, element))
    points = []
    old_prec = iv.prec
    iv.prec = precision_bits
    try:
        for t in t_grid:
            t = Fraction(t)
            if t == 0 or all(e.is_zero for e in eigs):
                n = len(eigs)
                coeffs = [str((-1) ** k * _binom(n, k)) for k in range(n + 1)] if t == 0 else ["unipotent"]
                points.append(ProbePoint(t, True, False, tuple(coeffs)))
                continue
            tv = _interval_from_fractions(t, t)
            exp_vals = []
            for e in eigs:
                (rl, rh), (il, ih) = e.enclosure
                x = _interval_from_fractions(rl, rh) * tv
                y = _interval_from_fractions(il, ih) * tv
                scale = iv.exp(x)
                exp_vals.append(_CIv(scale * iv.cos(y), scale * iv.sin(y)))
            # characteristic polynomial of exp(t ad a): prod (X - w_i)
            zero = _CIv(iv.mpf(0), iv.mpf(0))
            one = _CIv(iv.mpf(1), iv.mpf(0))
            coeffs = [one]
            for w in exp_vals:
                nxt = [zero] * (len(coeffs) + 1)
                for i, c in enumerate(coeffs):
                    nxt[i] = nxt[i] + c
                    nxt[i + 1] = nxt[i + 1] - c * w
                coeffs = nxt
            excluded = False
            printable = []
            for c in coeffs:
                printable.append(f"[{c.re.a}, {c.re.b}] + [{c.im.a}, {c.im.b}]i")
                # a real interval [a, b] contains an integer iff floor(b) >= ceil(a)
                contains_int = mp_floor(c.re.b) >= mp_ceil(c.re.a)
                contains_zero_im = c.im.a <= 0 <= c.im.b
                if not contains_int or not contains_zero_im:
                    excluded = True
            points.append(ProbePoint(t, False, excluded, tuple(printable)))
    finally:
        iv.prec = old_prec
    return ProbeReport(tuple(points), precision_bits)


def _binom(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out
