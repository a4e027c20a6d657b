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

from mpmath import iv
from mpmath import ceil as mp_ceil
from mpmath import floor as mp_floor

from . import linalg as la
from .core import LinearMap, SubspaceBasis, ad, jordan_chevalley, subspace_from_spanning
from .einstein import EigenvalueData, _rational_value
from .errors import CertificateError, PreconditionError
from .forms import MetricLieAlgebra
from .linalg import Mat, Vec
from .quadratic import Box, Quadratic, field_of, irreducible_factors, is_owned, quadratic_roots, same_field

RULE_GS = "gelfond-schneider"
RULE_SCHANUEL = "schanuel-conditional"

# the sides of the isolating boxes of exact_eigenvalues are at most this
# wide, and narrower where the roots of a factor lie closer together
ENCLOSURE_WIDTH = Fraction(1, 2**32)


@dataclass(frozen=True)
class AlgebraicNumber:
    """One root of a monic irreducible rational polynomial, with a certified
    rational box isolating it from the polynomial's other roots. The
    value is exact: a ``Quadratic`` for degree at most 2, else sympy's
    root object."""

    value: Quadratic | _SympyRoot
    minpoly: la.Poly
    enclosure: Box

    def box(self, width) -> Box:
        """A certified box around the number, each side at most width."""
        return self.value.box(width)

    @property
    def is_real(self) -> bool:
        lo, hi = self.enclosure[1]
        return lo == 0 and hi == 0

    @property
    def is_zero(self) -> bool:
        return self.value == 0


class _SympyRoot:
    """A root of an irreducible factor of degree >= 3: sympy's
    ``CRootOf``, possibly times the rational scale that sympy's root
    preprocessing pulls out."""

    def __init__(self, expr):
        self.expr = expr

    def __str__(self) -> str:
        return str(self.expr)

    def _sympy_(self):
        return self.expr

    @property
    def real(self):
        import sympy as sp

        return sp.re(self.expr)

    @property
    def imag(self):
        import sympy as sp

        return sp.im(self.expr)

    def box(self, width) -> Box:
        """sympy's rational approximation of the root within tol of each
        part, widened by tol on both sides and scaled: each side is at
        most width wide."""
        import sympy as sp

        scale, root = self.expr.as_coeff_Mul()
        if not (scale.is_Rational and isinstance(root, sp.CRootOf)):
            raise CertificateError(f"unexpected root form {self.expr}")
        c = Fraction(int(scale.p), int(scale.q))
        tol = Fraction(width) / (2 * abs(c))
        sp_tol = sp.Rational(tol.numerator, tol.denominator)
        approx = root.eval_rational(dx=sp_tol, dy=sp_tol)
        sides = []
        for part in (sp.re(approx), sp.im(approx)):
            x = Fraction(int(part.p), int(part.q))
            sides.append(tuple(sorted((c * (x - tol), c * (x + tol)))))
        if root.is_real:
            sides[1] = (Fraction(0), Fraction(0))
        return tuple(sides)


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


def _boxes_disjoint(b1, b2) -> bool:
    (r1l, r1h), (i1l, i1h) = b1
    (r2l, r2h), (i2l, i2h) = b2
    return r1h < r2l or r2h < r1l or i1h < i2l or i2h < i1l


def _quadratic_boxes(fac: la.Poly) -> list[tuple[Quadratic, Box]]:
    """The roots of a factor of degree 1 or 2 with their boxes. The two
    roots u -+ v sqrt(d) are 2 |v| sqrt(|d|) >= 2 |v| apart along one
    axis, so boxes at most |v| / 2 wide are disjoint."""
    roots = quadratic_roots(fac)
    width = min(ENCLOSURE_WIDTH, abs(roots[-1].v) / 2) if len(roots) == 2 else ENCLOSURE_WIDTH
    return [(r, r.box(width)) for r in roots]


def _sympy_boxes(fac: la.Poly) -> list[tuple[_SympyRoot, Box]]:
    """The roots of a factor of degree >= 3 by sympy's isolation, with
    boxes narrowed until the roots' boxes are pairwise disjoint."""
    import sympy as sp

    poly = sp.Poly([sp.Rational(c.numerator, c.denominator) for c in fac], sp.Symbol("x"), domain="QQ")
    roots = [_SympyRoot(r) for r in poly.all_roots(radicals=False)]
    width = ENCLOSURE_WIDTH
    while True:
        boxes = [r.box(width) for r in roots]
        if all(_boxes_disjoint(b, c) for i, b in enumerate(boxes) for c in boxes[i + 1 :]):
            return list(zip(roots, boxes))
        width /= 1024


def exact_eigenvalues(a: LinearMap | Mat) -> tuple[AlgebraicNumber, ...]:
    """Eigenvalues of a rational matrix as exact algebraic numbers with
    multiplicity, via the factored characteristic polynomial, in the
    order of its factors (``quadratic.irreducible_factors``) and of each
    factor's roots (``quadratic.quadratic_roots``).

    Certificates: the product of minimal polynomials (with multiplicity)
    reproduces the characteristic polynomial exactly, and the enclosures
    of distinct roots of each irreducible factor are pairwise disjoint.
    """
    m = a.matrix if isinstance(a, LinearMap) else la.mat(a)
    if la.nrows(m) != la.ncols(m):
        raise PreconditionError("eigenvalues of a non-square matrix")
    return _roots(la.charpoly(m))


def _roots(cp: la.Poly) -> tuple[AlgebraicNumber, ...]:
    """``exact_eigenvalues`` of a matrix with the characteristic
    polynomial cp."""
    rebuilt: la.Poly = (la.ONE,)
    out: list[AlgebraicNumber] = []
    for fac, mult in irreducible_factors(cp):
        for _ in range(mult):
            rebuilt = la.poly_mul(rebuilt, fac)
        roots = _quadratic_boxes(fac) if len(fac) <= 3 else _sympy_boxes(fac)
        boxes = [box for _, box in roots]
        if not all(_boxes_disjoint(b, c) for i, b in enumerate(boxes) for c in boxes[i + 1 :]):
            raise CertificateError("root enclosures of an irreducible factor overlap")
        for value, box in roots:
            out.extend([AlgebraicNumber(value, fac, box)] * mult)
    if rebuilt != cp:
        raise CertificateError("minimal polynomials do not rebuild the characteristic polynomial")
    return tuple(out)


def spectrum_data(a: LinearMap | Mat) -> EigenvalueData:
    """Classified spectrum: real eigenvalues listed singly, non-real
    conjugate pairs listed once via their real/imaginary parts."""
    return _classified(exact_eigenvalues(a))


def _classified(eigs: Sequence[AlgebraicNumber]) -> EigenvalueData:
    """``spectrum_data`` of the listed eigenvalues."""
    reals = []
    pairs = []
    for e in eigs:
        if e.is_real:
            reals.append(e.value)
        elif e.enclosure[1][0] > 0:  # keep the upper-half-plane representative
            pairs.append((e.value.real, e.value.imag))
    return EigenvalueData(reals=tuple(reals), complex_pairs=tuple(pairs))


def _spectrum_poly(data: EigenvalueData) -> la.Poly:
    """prod (x - lam) * prod (x^2 - 2 alpha x + alpha^2 + beta^2), which
    must lie in Q[x]. The spectrum is read as a multiset of eigenvalues,
    so a pair with beta = 0 is the double real eigenvalue alpha. A
    spectrum of owned numbers is multiplied out by ``_owned_spectrum_poly``;
    any other, or a pair whose parts mix fields, is expanded by sympy."""
    numbers = [*data.reals, *(x for pair in data.complex_pairs for x in pair)]
    if all(map(is_owned, numbers)):
        try:
            return _owned_spectrum_poly(data)
        except ValueError:  # alpha^2 + beta^2 mixes two fields
            pass
    import sympy as sp

    x = sp.Dummy("x")
    product = sp.Integer(1)
    for lam in data.reals:
        product *= x - sp.sympify(lam)
    for alpha, beta in data.complex_pairs:
        a, b = sp.sympify(alpha), sp.sympify(beta)
        product *= x**2 - 2 * a * x + a**2 + b**2
    return _rational_poly(sp.Poly(sp.expand(product), x).all_coeffs())


def _owned_spectrum_poly(data: EigenvalueData) -> la.Poly:
    """The spectrum's polynomial multiplied out per quadratic field: the
    product is rational exactly when each field's part is (conjugation
    in one field fixes the others), so each part is checked on its own."""
    factors = [(la.ONE, -lam) for lam in data.reals]
    factors += [(la.ONE, -2 * a, a * a + b * b) for a, b in data.complex_pairs]
    parts: list[list] = []  # [d, product of the factors over Q(sqrt(d))]
    for f in factors:
        d = field_of(f)
        part = next((p for p in parts if same_field(p[0], d)), None)
        if part is None:
            parts.append([d, f])
        else:
            part[1] = la.poly_mul(part[1], f)
    product: la.Poly = (la.ONE,)
    for _, f in parts:
        product = la.poly_mul(product, _rational_poly(f))
    return product


def _rational_poly(coeffs) -> la.Poly:
    out = tuple(_rational_value(c) for c in coeffs)
    if None in out:
        raise PreconditionError(
            "not the spectrum of a rational matrix: its characteristic "
            "polynomial has an irrational coefficient"
        )
    return out


def _has_root(p: la.Poly, sign: int) -> bool:
    """Whether p has a real root of the given sign (Sturm count over Q)."""
    negative, positive, _ = la.poly_sturm_counts(p)
    return (positive if sign > 0 else negative) > 0


def _all_roots_real(p: la.Poly) -> bool:
    return la.poly_sturm_counts(p)[2] == la.poly_deg(la.poly_squarefree_part(p))


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


def _decide(p: la.Poly, n: int) -> tuple[str, dict[str, bool]]:
    """The case tag and hypothesis checks of the spectrum whose monic
    polynomial over Q is p, in acting dimension n."""
    # descending, padded so that e1 = -c[1] and e2 = c[2]
    c = list(p) + [la.ZERO] * 2
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
    checks["closed_under_negation"] = not any(c[1 : len(p) : 2])
    if not checks["closed_under_negation"]:
        raise CertificateError(
            "spectrum not closed under negation; no certified case applies"
        )

    squares = la.poly_graeffe(p)
    if _has_root(la.poly_graeffe(squares), -1):
        checks["real_part_squared_equals_imaginary_part_squared"] = True
        tag = "case1_nonzero_real_part"
    elif _all_roots_real(squares) and _has_root(
        la.poly_gcd(squares, la.poly_reflect(squares)), 1
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
    part in the verdict on a matrix or on a spectrum of owned numbers
    (ints, ``Fraction``s and ``Quadratic``s). A spectrum with sympy
    entries is expanded by sympy, and a coefficient that does not reduce
    to a rational goes to ``sympy.minimal_polynomial``, whose choice
    among candidate factors is numerical.
    """
    if isinstance(data, EigenvalueData):
        p = _spectrum_poly(data)
    else:
        m = data.matrix if isinstance(data, LinearMap) else la.mat(data)
        p = la.charpoly(m)
    if n is None:
        n = len(p) - 1
    case_tag, checks = _decide(p, n)
    verdict, rule, patterns = _OUTCOMES[case_tag]
    return ObstructionReport(
        input_spectrum=data if isinstance(data, EigenvalueData) else _classified(_roots(p)),
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


def qlinear_relations(
    eigs: Sequence[AlgebraicNumber | object], degree_bound: int = 64
) -> RelationBasis:
    """Exact basis of rational linear dependencies among the given
    algebraic numbers (``AlgebraicNumber``s or plain numbers), computed
    in a common number field.

    When every number is owned (an int, ``Fraction`` or ``Quadratic``)
    and the irrational ones share one field Q(sqrt(d)), each number is
    its coordinates (u, v) on the basis 1, sqrt(d), and the relations
    are the kernel of those two rows. Otherwise the field is built by
    sympy from generators: a ``Quadratic`` u + v sqrt(d) contributes
    sqrt(d), and any other irrational number is its own generator. Only
    the generators are converted into the field; the numbers are built
    from them by field arithmetic.

    Fails loudly if the common field degree exceeds ``degree_bound``.
    Also verifies the quadratic trace relation sum xi^2 = 0 in the field
    and reports whether it holds for this spectrum.
    """
    values = [e.value if isinstance(e, AlgebraicNumber) else e for e in eigs]
    if not values:
        return RelationBasis((), 1, True)
    if all(map(is_owned, values)):
        numbers = [x if isinstance(x, Quadratic) else Quadratic(x) for x in values]
        d = field_of(numbers)
        if all(same_field(x.d, d) for x in numbers if x.v):
            relations = la.kernel(la.transpose(tuple(x.coords(d) for x in numbers)))
            # certify each relation by direct evaluation in the field
            for rel in relations:
                if sum((c * x for c, x in zip(rel, numbers)), Quadratic()):
                    raise CertificateError("relation fails to annihilate the spectrum")
            quad = sum((x * x for x in numbers), Quadratic())
            return RelationBasis(relations, 1 if d == 1 else 2, not quad)
    return _sympy_relations(values, degree_bound)


def _sympy_relations(values: list, degree_bound: int) -> RelationBasis:
    """``qlinear_relations`` in a number field built by sympy's
    successive primitive elements."""
    import sympy as sp

    def rational(q: Fraction):
        return sp.Rational(q.numerator, q.denominator)

    terms = []
    gens = {}  # each generator once, in order of appearance
    zero, one = sp.Integer(0), sp.Integer(1)
    for x in values:
        if isinstance(x, Quadratic) and x.v:
            term = (rational(x.u), rational(x.v), sp.sqrt(x.d))
        else:
            expr = sp.sympify(x)
            term = (expr, zero, None) if expr.is_rational else (zero, one, expr)
        terms.append(term)
        if term[2] is not None:
            gens.setdefault(term[2])
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
            total += field.from_sympy(rational(c)) * el
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
    # boxes as narrow as the interval precision, so that a wide box
    # never keeps the probe from excluding integrality
    width = Fraction(1, 2**precision_bits)
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
                (rl, rh), (il, ih) = e.box(width)
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
