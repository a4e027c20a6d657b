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
from .core import LinearMap, SubspaceBasis, ad, jordan_chevalley, subspace_from_spanning
from .einstein import EigenvalueData, _poly_to_sympy, _rational_value
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


def _spectrum_poly(data: EigenvalueData) -> sp.Poly:
    """prod (x - lam) * prod (x^2 - 2 alpha x + alpha^2 + beta^2), which
    must lie in Q[x]. The spectrum is read as a multiset of eigenvalues,
    so a pair with beta = 0 is the double real eigenvalue alpha."""
    x = sp.Dummy("x")  # CRootOf entries carry the symbol _X themselves
    product = sp.Integer(1)
    for lam in data.reals:
        product *= x - sp.sympify(lam)
    for alpha, beta in data.complex_pairs:
        a, b = sp.sympify(alpha), sp.sympify(beta)
        product *= x**2 - 2 * a * x + a**2 + b**2
    coeffs = [_rational_value(c) for c in sp.Poly(sp.expand(product), x).all_coeffs()]
    if None in coeffs:
        raise PreconditionError(
            "not the spectrum of a rational matrix: its characteristic "
            "polynomial has an irrational coefficient"
        )
    return _poly_to_sympy(tuple(coeffs), _X)


def _graeffe(p: sp.Poly) -> sp.Poly:
    """The root-squaring transform prod (y - z^2) over the roots z of
    the monic p. Writing p(x) = E(x^2) + x O(x^2), it is
    (-1)^n p(sqrt y) p(-sqrt y) = (-1)^n (E(y)^2 - y O(y)^2)."""
    ascending = p.all_coeffs()[::-1]
    even = sp.Poly(ascending[0::2][::-1], _X, domain="QQ")
    odd = sp.Poly(ascending[1::2][::-1] or [0], _X, domain="QQ")
    g = even**2 - sp.Poly(_X, _X, domain="QQ") * odd**2
    return -g if p.degree() % 2 else g


def _has_root(p: sp.Poly, sign: int) -> bool:
    """Whether p has a real root of the given sign, by an exact Sturm
    count over Q on its square-free part."""
    q = p.sqf_part()
    at_zero = 1 if q.all_coeffs()[-1] == 0 else 0
    closed = q.count_roots(0, None) if sign > 0 else q.count_roots(None, 0)
    return closed - at_zero > 0


def _all_roots_real(p: sp.Poly) -> bool:
    q = p.sqf_part()
    return q.count_roots() == q.degree()


_CASE1_PATTERNS = (
    "e^{alpha(1+i)}",
    "e^{alpha(1-i)}",
    "e^{alpha(-1+i)}",
    "e^{alpha(-1-i)}",
)
_CASE2_PATTERNS = ("e^{lambda}", "e^{-lambda}", "e^{i lambda}", "e^{-i lambda}")

# the formal exponents of each pattern as Gaussian integers (re, im), in
# units of the positive parameter alpha or lambda
_PATTERN_EXPONENTS = {
    "case1_nonzero_real_part": frozenset({(1, 1), (1, -1), (-1, 1), (-1, -1)}),
    "case2_imaginary_pair": frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)}),
}


def _power_i_closed(case_tag: str) -> bool:
    """Closure property of the exponential spectrum: raising to the
    i-th power permutes the pattern (checked on the formal exponents:
    multiplication by i, (a, b) -> (-b, a), permutes the exponent set)."""
    exps = _PATTERN_EXPONENTS[case_tag]
    return {(-b, a) for a, b in exps} == exps


# verdict, cited rule and exponential patterns of each case tag
_OUTCOMES = {
    "nilpotent": ("inapplicable", "", ()),
    "out_of_scope_n_gt_5": ("schanuel_conditional", RULE_SCHANUEL, ()),
    "case1_nonzero_real_part": ("obstructed", RULE_GS, _CASE1_PATTERNS),
    "case2_imaginary_pair": ("obstructed", RULE_GS, _CASE2_PATTERNS),
}


def _decide(p: sp.Poly, n: int) -> tuple[str, dict[str, bool]]:
    """The case tag and hypothesis checks of the spectrum whose monic
    polynomial over Q is p, in acting dimension n."""
    # descending, padded so that e1 = -c[1] and e2 = c[2]
    c = [_fraction(k) for k in p.all_coeffs()] + [Fraction(0)] * 2
    checks = {"non_nilpotent": any(c[1:])}
    if not checks["non_nilpotent"]:
        return "nilpotent", checks

    residual = c[1] ** 2 - 2 * c[2]
    if residual != 0:
        raise PreconditionError(
            f"eigenvalue trace identity violated (residual {residual})"
        )
    checks["trace_identity"] = True
    if n >= 6:
        return "out_of_scope_n_gt_5", checks

    # the coefficients of x^(deg - k) for odd k
    checks["closed_under_negation"] = not any(c[1 : p.degree() + 1 : 2])
    if not checks["closed_under_negation"]:
        raise CertificateError(
            "spectrum not closed under negation; no certified case applies"
        )

    squares = _graeffe(p)
    if _has_root(_graeffe(squares), -1):
        checks["real_part_squared_equals_imaginary_part_squared"] = True
        tag = "case1_nonzero_real_part"
    elif _all_roots_real(squares) and _has_root(
        squares.gcd(squares.compose(sp.Poly(-_X, _X, domain="QQ"))), 1
    ):
        checks["real_eigenvalue_squared_equals_rotation_squared"] = True
        tag = "case2_imaginary_pair"
    else:
        raise CertificateError(
            "spectrum satisfies the trace identity in dimension <= 5 but matches "
            "no certified case; this should not happen for valid inputs"
        )
    checks["exp_pattern_power_i_closed"] = _power_i_closed(tag)
    return tag, checks


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

    Each check is decided exactly on one polynomial p in Q[x] with the
    spectrum as its roots: the characteristic polynomial of a matrix,
    or the product of the spectrum's linear and quadratic factors
    (``PreconditionError`` unless that lies in Q[x]). Let g = prod
    (y - z^2) be its root-squaring transform.

    - nilpotent: p = x^n
    - trace identity: sum z^2 = e1^2 - 2 e2 = 0
    - closed under negation: p(-x) = (-1)^n p(x)
    - case 1, a pair alpha(+-1 +- i): some z^2 is non-zero and purely
      imaginary, i.e. the transform of g has a negative real root
    - case 2, a pair +-i lambda next to the reals +-lambda: g has only
      real roots (every non-real z is purely imaginary) and g(y) and
      g(-y) share a positive real root

    Real roots are counted by Sturm sequences over Q, so no float takes
    part in the verdict on a matrix. An ``EigenvalueData`` is expanded
    with each quadratic ``CRootOf`` written in radicals; a coefficient
    that does not then reduce to a rational goes to
    ``sympy.minimal_polynomial``, whose choice among candidate factors
    is numerical.
    """
    if isinstance(data, EigenvalueData):
        p = _spectrum_poly(data)
    else:
        m = data.matrix if isinstance(data, LinearMap) else la.mat(data)
        p = _poly_to_sympy(la.charpoly(m), _X)
    if n is None:
        n = p.degree()
    case_tag, checks = _decide(p, n)
    verdict, rule, patterns = _OUTCOMES[case_tag]
    return ObstructionReport(
        input_spectrum=data if isinstance(data, EigenvalueData) else spectrum_data(m),
        n=n,
        case_tag=case_tag,
        exp_eigenvalue_patterns=patterns,
        verdict=verdict,
        rule_cited=rule,
        hypothesis_checks=checks,
    )


def restricted_obstruction(
    m: MetricLieAlgebra, element: Vec, restriction: SubspaceBasis | None = None
) -> ObstructionReport:
    """The obstruction verdict for ad(a) restricted to an invariant
    subspace, defaulting to the image of the semisimple part of ad(a).
    The restricted matrix is read on the RREF basis of the subspace."""
    phi = ad(m.algebra, element)
    if restriction is None:
        sigma = jordan_chevalley(phi).semisimple.matrix
        restriction = subspace_from_spanning(m.dim, la.transpose(sigma))
    # on the RREF basis of the span, a vector of the span has its
    # coordinates at the pivot columns
    span = restriction.int_span
    leads = sorted(span.pivots)
    if not leads:
        return obstruction_verdict(EigenvalueData(), n=0)
    cols = []
    for v in span.basis():
        w = phi(v)
        if span.reduce(la.int_row(w)):
            raise PreconditionError("restriction subspace is not ad(a)-invariant")
        cols.append(tuple(w[p] for p in leads))
    restricted = la.transpose(tuple(cols))
    return obstruction_verdict(restricted)


# ---------------------------------------------------------------------------
# rational linear relations in a common number field
# ---------------------------------------------------------------------------


def _radical(e: AlgebraicNumber):
    """A root of a monic irreducible x^2 + bx + c as (-b +- sqrt(D))/2
    with D = b^2 - 4c, returned as (u, v, g) with root = u + v g, where
    g is sqrt(D) stripped of its rational factor: the field generator.

    The sign is that of the root the certified enclosure isolates: the
    root's offset from -b/2 is +-sqrt(|D|)/2, along the real axis for
    D > 0 and along the imaginary axis for D < 0, and exactly one of
    the two offsets lies in the enclosure's interval on that axis.
    """
    _, b, c = (_fraction(k) for k in e.minpoly.all_coeffs())
    d = b * b - 4 * c
    if d > 0:
        lo, hi = (x + b / 2 for x in e.enclosure[0])
    else:
        lo, hi = e.enclosure[1]
    square = abs(d) / 4

    def holds_root(lo: Fraction, hi: Fraction) -> bool:
        # does [lo, hi] contain +sqrt(square)?
        return hi >= 0 and hi * hi >= square and (lo <= 0 or lo * lo <= square)

    plus, minus = holds_root(lo, hi), holds_root(-hi, -lo)
    if plus == minus:
        raise CertificateError("enclosure does not isolate one root of a quadratic factor")
    scale, gen = sp.sqrt(sp.Rational(d.numerator, d.denominator)).as_coeff_Mul()
    half = sp.Rational(1, 2) if plus else sp.Rational(-1, 2)
    return sp.Rational(-b.numerator, 2 * b.denominator), half * scale, gen


def qlinear_relations(
    eigs: Sequence[AlgebraicNumber | object], degree_bound: int = 64
) -> RelationBasis:
    """Exact basis of rational linear dependencies among the given
    algebraic numbers, computed in a common number field built by
    successive primitive elements.

    Each number is u + v g for rationals u, v and a generator g: a root
    of a quadratic minimal polynomial is the radical (-b +- sqrt(D))/2
    with g = sqrt(D) up to a rational factor; any other irrational
    number is its own generator. Only the generators are converted into
    the field; the numbers are built from them by field arithmetic.

    Fails loudly if the common field degree exceeds ``degree_bound``.
    Also verifies the quadratic trace relation sum xi^2 = 0 in the field
    and reports whether it holds for this spectrum.
    """
    terms = []
    gens = {}  # each generator once, in order of appearance
    for e in eigs:
        if isinstance(e, AlgebraicNumber) and e.minpoly.degree() == 2:
            term = _radical(e)
        else:
            expr = sp.sympify(e.expr if isinstance(e, AlgebraicNumber) else e)
            zero, one = sp.Integer(0), sp.Integer(1)
            term = (expr, zero, None) if expr.is_rational else (zero, one, expr)
        terms.append(term)
        if term[2] is not None:
            gens.setdefault(term[2])
    if not terms:
        return RelationBasis((), 1, True)
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

    for g in gens:
        gens[g] = field.from_sympy(g)
    elements = [
        field.from_sympy(u) if g is None else field.from_sympy(u) + field.from_sympy(v) * gens[g]
        for u, v, g in terms
    ]

    def coords(el) -> tuple[Fraction, ...]:
        if field == sp.QQ:
            return (Fraction(int(el.numerator), int(el.denominator)),)
        rep = el.rep.rep if hasattr(el.rep, "rep") else list(el.rep)
        vec = [Fraction(0)] * degree
        for i, c in enumerate(reversed(rep)):
            vec[i] = Fraction(int(sp.QQ.numer(c)), int(sp.QQ.denom(c)))
        return tuple(vec)

    matrix = la.transpose(tuple(coords(el) for el in elements))
    relations = la.kernel(matrix)
    # certify each relation by direct evaluation in the field
    for rel in relations:
        total = field.zero
        for c, el in zip(rel, elements):
            total += field.from_sympy(sp.Rational(c.numerator, c.denominator)) * el
        if total != field.zero:
            raise CertificateError("relation fails to annihilate the spectrum")
    quad = field.zero
    for el in elements:
        quad += el * el
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
        raise PreconditionError(
            f"METRIC_LIE_PRECISION must be an integer number of bits, got {raw!r}"
        ) from None


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
