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

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import linalg as la
from .core import LinearMap, ad
from .einstein import EigenvalueData, _rational_value
from .errors import CertificateError, PreconditionError
from .forms import MetricLieAlgebra, _require_invariant
from .linalg import Mat, Vec
from .quadratic import Box, Quadratic, field_of, irreducible_factors, is_owned, quadratic_roots, same_field

RULE_GS = "gelfond-schneider"
RULE_SCHANUEL = "schanuel-conditional"

# the sides of the isolating boxes of exact_eigenvalues are at most this
# wide, and narrower where the roots of a factor lie closer together
ENCLOSURE_WIDTH = Fraction(1, 2**32)


class AlgebraicNumber(NamedTuple):
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


class ObstructionReport(NamedTuple):
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


class RelationBasis(NamedTuple):
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
    rebuilt = [1]
    out: list[AlgebraicNumber] = []
    for fac, mult in irreducible_factors(cp):
        prim = la.int_poly(fac)
        for _ in range(mult):
            rebuilt = la.int_mul(rebuilt, prim)
        roots = _quadratic_boxes(fac) if len(fac) <= 3 else _sympy_boxes(fac)
        boxes = [box for _, box in roots]
        if not all(_boxes_disjoint(b, c) for i, b in enumerate(boxes) for c in boxes[i + 1 :]):
            raise CertificateError("root enclosures of an irreducible factor overlap")
        for value, box in roots:
            out.extend([AlgebraicNumber(value, fac, box)] * mult)
    # monic polynomials agree iff their primitive parts do (Gauss's lemma)
    if rebuilt != la.int_poly(cp):
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
    _, _, real, distinct = la.poly_root_counts(p)
    return real == distinct


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


def obstruction_verdict(data: LinearMap | Mat | EigenvalueData) -> ObstructionReport:
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
        return _report(_spectrum_poly(data), data)
    return _report(la.charpoly(data.matrix if isinstance(data, LinearMap) else la.mat(data)))


def restricted_obstruction(m: MetricLieAlgebra, element: Vec) -> ObstructionReport:
    """The obstruction verdict for ad(a) restricted to the image of its
    semisimple part, for an invariant form (``PreconditionError``
    otherwise).

    By Fitting's lemma that image is the sum of the generalized
    eigenspaces of the non-zero eigenvalues, so the restriction has the
    characteristic polynomial p / x^k, for p that of ad(a) and x^k the
    highest power of x dividing it."""
    _require_invariant(m)
    p = la.charpoly(ad(m.algebra, element).matrix)
    return _report(la.poly_trim(p[::-1])[::-1])  # p without its trailing zeros


def _report(p: la.Poly, spectrum: EigenvalueData | None = None) -> ObstructionReport:
    """The report on the spectrum with the monic polynomial p, listed
    from p unless given."""
    case_tag, checks = _decide(p, len(p) - 1)
    verdict, rule, patterns = _OUTCOMES[case_tag]
    return ObstructionReport(
        input_spectrum=_classified(_roots(p)) if spectrum is None else spectrum,
        n=len(p) - 1,
        case_tag=case_tag,
        exp_eigenvalue_patterns=patterns,
        verdict=verdict,
        rule_cited=rule,
        hypothesis_checks=checks,
    )


# ---------------------------------------------------------------------------
# rational linear relations in a common number field
# ---------------------------------------------------------------------------


# the largest common field degree ``qlinear_relations`` builds in sympy
DEGREE_BOUND = 64


def qlinear_relations(eigs: Sequence[AlgebraicNumber | object]) -> RelationBasis:
    """Exact basis of rational linear dependencies among the given
    algebraic numbers (``AlgebraicNumber``s or plain numbers), computed
    in a common number field.

    When every number is owned (an int, ``Fraction`` or ``Quadratic``)
    and the irrational ones share one field Q(sqrt(d)), each number is
    its coordinates (u, v) on the basis 1, sqrt(d), scaled once to two
    integer rows U, V (``la.to_int_rows``), and the relations are the
    kernel of those two rows. Otherwise the field is built by sympy from
    generators: a ``Quadratic`` u + v sqrt(d) contributes sqrt(d), and
    any other irrational number is its own generator. Only the
    generators are converted into the field; the numbers are built from
    them by field arithmetic.

    Fails loudly if the common field degree exceeds ``DEGREE_BOUND``.
    Also verifies the quadratic trace relation sum xi^2 = 0 in the field
    and reports whether it holds for this spectrum.
    """
    values = [e.value if isinstance(e, AlgebraicNumber) else e for e in eigs]
    if not values:
        return RelationBasis((), 1, True)
    if all(map(is_owned, values)):
        d = field_of(values)
        if all(same_field(x.d, d) for x in values if isinstance(x, Quadratic) and x.v):
            n = len(values)
            coords = [x.coords(d) if isinstance(x, Quadratic) else (x, 0) for x in values]
            _, rows = la.to_int_rows(zip(*coords))
            den, kernel = la.IntSpan(n, map(dict, rows)).int_kernel()
            u, v = la.dense(rows, n)
            # certify each relation in Z: 1 and sqrt(d) are independent
            # over Q, so it annihilates the numbers iff it annihilates U, V
            for rel in kernel:
                if any(sum(t * row[q] for q, t in rel) for row in (u, v)):
                    raise CertificateError("relation fails to annihilate the spectrum")
            # sum (u + v sqrt(d))^2 = sum (u^2 + d v^2) + 2 sqrt(d) sum u v
            holds = not sum(x * x + d * y * y for x, y in zip(u, v)) and not sum(x * y for x, y in zip(u, v))
            return RelationBasis(la.mat_over(la.dense(kernel, n), den), 1 if d == 1 else 2, holds)
    return _sympy_relations(values)


def _sympy_relations(values: list) -> RelationBasis:
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
    if degree > DEGREE_BOUND:
        raise PreconditionError(f"common field degree {degree} exceeds bound {DEGREE_BOUND}")

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


class ProbePoint(NamedTuple):
    t: Fraction
    trivially_integral: bool
    integrality_excluded: bool


class ProbeReport(NamedTuple):
    points: tuple[ProbePoint, ...]
    precision_bits: int


# absolute bits after the binary point of every probe enclosure
PRECISION_BITS = 256
# bits the fixed-point arithmetic carries beyond precision_bits
GUARD_BITS = 32
# an upper bound for log2(e) = 1.44269...
_LOG2_E = Fraction(14427, 10000)
# most bits log2(e) sum |Re t lambda| (integer bits and E) may add
_EXP_BITS = 1 << 16

# (a, b, r) at precision g: the box of the complex z with |Re z - a 2^-g|
# <= r 2^-g and |Im z - b 2^-g| <= r 2^-g; r counts ulps of 2^-g
_Fixed = tuple[int, int, int]


def integer_exponential_probe(m: MetricLieAlgebra, element: Vec, t_grid: Sequence[Fraction]) -> ProbeReport:
    """For each t in the grid, enclose the coefficients of the
    characteristic polynomial of exp(t ad(a)) and report whether all of
    them being integers can be excluded.

    This is a sanity probe: "not excluded" never asserts integrality, it
    only means the enclosures left room for it.

    The precision p = ``PRECISION_BITS`` counts absolute bits after the
    binary point: the eigenvalue boxes are ``AlgebraicNumber.box(2^-p)``,
    and the arithmetic is fixed point at g0 = p + ``GUARD_BITS`` bits up to the
    series of step 2, and at g = g0 + E bits from there, where 2^-E
    bounds from below the product of the exponentials of negative real
    part, so that such a product is still resolved. A t with log2(e)
    sum |Re t lambda| over 2^16 bits is refused before any series is
    summed. A ``_Fixed`` (a, b, r) is a box; every step below returns a
    box that holds the exact result for every point of its input boxes,
    rounding the centre down by a shift and the radius outward (Moore,
    Kearfott and Cloud, *Introduction to Interval Analysis*, 2009, ch.
    2-3). Errors are in ulps of the step's precision.

    1. Input (``_fixed``, at g0): the box of t lambda, an interval per
       part, has its endpoints rounded outward to ulps and m the floor of
       their midpoint; r = hi - m >= m - lo. The parts share max(r).
    2. e^z (``_exp``), after Brent and Zimmermann, *Modern Computer
       Arithmetic*, 2010, 4.2 and 4.4, for z = (a, b, rho):
       - Reduction: s >= 0 is least with N = |a| + |b| + 2 rho <=
         2^(w - 8), w = g0 + s. The same integers at precision w are the
         box of u = z / 2^s, exactly, and every point of it lies in the
         disc |u| <= 2^-8.
       - Series at the centre u0: T_0 = 2^w, T_k = the floor of each part
         of T_(k-1) u0 / k. With tau_k = 2^w u0^k / k!, e_k = T_k - tau_k
         = e_(k-1) u0 / k + eta_k, |eta_k| < sqrt 2, so |e_k| < sqrt 2 /
         (1 - 2^-8) < 1.42. The sum stops at the first K whose T_K has
         both parts in [-1, 1]; then |tau_K| < sqrt 2 + 1.42 < 2.9, and
         the tail sum_(k > K) |tau_k| <= |tau_K| sum_(j >= 1) 2^(-8j) <
         0.02. So T_0 + ... + T_K is within 1.42 K + 0.02 <= 2K of
         2^w e^(u0).
       - Input radius: delta = u - u0 has |delta| <= sqrt 2 rho 2^-w <=
         2^-8, so |e^u - e^u0| <= e^(2^-8) |delta| e^|delta| < 1.43 rho.
         The sum with radius 2 rho + 2K is the box of e^u; its three
         integers shifted left by E bits are the same box, exactly, at
         precision w + E, where the rest of the step runs.
       - Squaring s times: for v = c + e with |Re e|, |Im e| <= r, v^2 -
         c^2 = 2ce + e^2 has each part at most 2 (|Re c| + |Im c|) r +
         2 r^2 (at twice the precision); the radius is that over
         2^(w + E) rounded up, plus 1 for the floor of the centre.
         (e^u)^(2^s) = e^z.
       - Back to precision g = g0 + E: the centre's floor over 2^s adds
         1, and the radius over 2^s is rounded up.
    3. Products (``_mul``): for z = c + e and y = d + f with radii r and
       s, zy - cd = cf + de + ef, and each part of cf is at most (|Re c|
       + |Im c|) s, of de at most (|Re d| + |Im d|) r, of ef at most
       2 r s; over 2^g rounded up, plus 1 for the centre's floor. Sums
       add centres and radii exactly. prod (X - e^(t lambda_i)) is
       expanded factor by factor.
    4. Decision (``_may_be_integer``): the real interval [(a - r) 2^-g,
       (a + r) 2^-g] holds an integer iff floor((a + r) / 2^g) >=
       ceil((a - r) / 2^g), and the imaginary one holds 0 iff |b| <= r;
       both are decided on the integers. Integrality is excluded when a
       coefficient's box holds no integer.
    """
    eigs = exact_eigenvalues(ad(m.algebra, element))
    unipotent = all(e.is_zero for e in eigs)
    boxes = None
    points = []
    for t in t_grid:
        t = Fraction(t)
        if t == 0 or unipotent:
            points.append(ProbePoint(t, True, False))
            continue
        if boxes is None:
            # boxes as narrow as the precision, so that a wide box never
            # keeps the probe from excluding integrality
            width = Fraction(1, 2**PRECISION_BITS)
            boxes = [e.box(width) for e in eigs]
        g, coeffs = _exp_charpoly(boxes, t, PRECISION_BITS)
        excluded = not all(_may_be_integer(c, g) for c in coeffs)
        points.append(ProbePoint(t, False, excluded))
    return ProbeReport(tuple(points), PRECISION_BITS)


def _exp_charpoly(boxes: Sequence[Box], t: Fraction, precision_bits: int) -> tuple[int, list[_Fixed]]:
    """(g, coefficient boxes of prod (X - e^(t lambda)) in descending
    order) for the eigenvalue boxes, at the precision g of
    ``integer_exponential_probe``."""
    zs = [[sorted((t * lo, t * hi)) for lo, hi in box] for box in boxes]
    if math.ceil(sum(max(-re[0], re[1]) for re, _ in zs) * _LOG2_E) > _EXP_BITS:
        # t may have more digits than str prints
        size = t.numerator.bit_length() - t.denominator.bit_length()
        raise PreconditionError(f"t of about 2^{size} is too large to probe: e^(t lambda) exceeds 2^16 bits")
    g0 = precision_bits + GUARD_BITS
    extra = math.ceil(sum(max(-re[0], 0) for re, _ in zs) * _LOG2_E)
    g = g0 + extra
    coeffs = [(1 << g, 0, 0)]
    for re, im in zs:
        x, rx = _fixed(*re, g0)
        y, ry = _fixed(*im, g0)
        w = _exp((x, y, max(rx, ry)), g0, extra)
        # coefficient i of the product is c_i - c_(i-1) w
        nxt = [coeffs[0]]
        for (a, b, r), (c, d, s) in zip(coeffs[1:] + [(0, 0, 0)], [_mul(c, w, g) for c in coeffs]):
            nxt.append((a - c, b - d, r + s))
        coeffs = nxt
    return g, coeffs


def _fixed(lo: Fraction, hi: Fraction, g: int) -> tuple[int, int]:
    """(m, r) with [lo, hi] in [(m - r) 2^-g, (m + r) 2^-g] (step 1)."""
    a = (lo.numerator << g) // lo.denominator
    b = -((-hi.numerator << g) // hi.denominator)
    m = (a + b) >> 1
    return m, b - m


def _exp(z: _Fixed, g: int, extra: int) -> _Fixed:
    """The box of e^u for u in the box z at precision g, at precision
    g + extra (step 2)."""
    a, b, rho = z
    s = max(0, (abs(a) + abs(b) + 2 * rho).bit_length() - g + 8)
    w = g + s
    re, im, tr, ti, k = 1 << w, 0, 1 << w, 0, 0
    while abs(tr) > 1 or abs(ti) > 1:
        k += 1
        tr, ti = (tr * a - ti * b) // (k << w), (tr * b + ti * a) // (k << w)
        re += tr
        im += ti
    w += extra
    re, im, r = re << extra, im << extra, (2 * rho + 2 * k) << extra
    for _ in range(s):
        err = 2 * (abs(re) + abs(im)) * r + 2 * r * r
        re, im, r = (re * re - im * im) >> w, (re * im) >> (w - 1), 1 - (-err >> w)
    return re >> s, im >> s, 1 - (-r >> s)


def _mul(x: _Fixed, y: _Fixed, g: int) -> _Fixed:
    """The box of the products (step 3)."""
    a, b, r = x
    c, d, s = y
    err = (abs(a) + abs(b)) * s + (abs(c) + abs(d)) * r + 2 * r * s
    return (a * c - b * d) >> g, (a * d + b * c) >> g, 1 - (-err >> g)


def _may_be_integer(c: _Fixed, g: int) -> bool:
    """Whether the box holds an integer (step 4)."""
    a, b, r = c
    return (a + r) >> g >= -((r - a) >> g) and abs(b) <= r
