"""Exact quadratic numbers u + v sqrt(d) and the roots of rational
polynomials whose irreducible factors have degree at most 2.

A ``Quadratic`` is exact: rational u and v, and an integer d that is not
a square, with sqrt(d) = i sqrt(-d) for d < 0, so the complex roots
alpha +- i beta of a rational quadratic use the same type as the real
ones. Two numbers lie in one field when the product of their d is a
square, which ``math.isqrt`` decides. Each number has certified
rational boxes of any width, read off ``math.isqrt`` as well, so no
float takes part anywhere.

sympy is imported only inside ``irreducible_factors``, for a factor of
degree >= 3 that ``linalg.poly_factor`` leaves unsplit, and inside
``Quadratic._sympy_``, which lets sympy read these numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg as la

Box = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

# square factors of d are removed by trial division up to this prime, so
# d is square-free whenever |d| < _SQUARE_LIMIT^3
_SQUARE_LIMIT = 1 << 10


def same_field(d: int, e: int) -> bool:
    """Whether sqrt(d) and sqrt(e) generate one field: d e is a square."""
    prod = d * e
    return prod >= 0 and math.isqrt(prod) ** 2 == prod


def _strip_squares(d: int) -> tuple[int, int]:
    """(s, e) with d = s^2 e and e free of the squares of primes up to
    ``_SQUARE_LIMIT``. The rest of |d| without those primes has at most
    two prime factors below ``_SQUARE_LIMIT``^3, so it is square-free
    unless it is a square, which ``math.isqrt`` finds."""
    s, e, rest = 1, d, abs(d)
    p = 2
    while p <= _SQUARE_LIMIT and p <= rest:
        while e % (p * p) == 0:
            e //= p * p
            s *= p
        while rest % p == 0:
            rest //= p
        p += 1 if p == 2 else 2
    root = math.isqrt(rest)
    if root > 1 and root * root == rest:
        e //= rest
        s *= root
    return s, e


class Quadratic:
    """The exact number u + v sqrt(d). A rational has v = 0 and d = 1;
    otherwise v != 0 and d is not a square (square-free in practice, see
    ``_strip_squares``). Arithmetic with ints, ``Fraction``s and numbers
    of the same field is exact; mixing two fields raises ``ValueError``."""

    __slots__ = ("u", "v", "d")

    def __init__(self, u=0, v=0, d: int = 1):
        u, v = Fraction(u), Fraction(v)
        if v:
            s, d = _strip_squares(d)
            v *= s
        if d in (0, 1) or not v:
            u, v, d = u + v if d == 1 else u, Fraction(0), 1
        self.u, self.v, self.d = u, v, d

    @property
    def real(self) -> "Quadratic":
        return self if self.d > 0 else Quadratic(self.u)

    @property
    def imag(self) -> "Quadratic":
        return Quadratic(0, self.v, -self.d) if self.d < 0 else Quadratic()

    # -- arithmetic ---------------------------------------------------------

    def coords(self, d: int) -> tuple[Fraction, Fraction]:
        """(u, w) with self = u + w sqrt(d); ``ValueError`` unless the
        number lies in Q(sqrt(d))."""
        if not self.v or self.d == d:
            return self.u, self.v
        if not same_field(self.d, d):
            raise ValueError(f"{self} does not lie in Q(sqrt({d}))")
        # sqrt(e) = sqrt(d e) / |d| sqrt(d) for d e a square
        return self.u, self.v * Fraction(math.isqrt(self.d * d), abs(d))

    def _common(self, other) -> tuple[int, Fraction, Fraction]:
        """(d, v, w) with self = u + v sqrt(d) and other = x + w sqrt(d)."""
        d = self.d if self.v else other.d
        return d, self.coords(d)[1], other.coords(d)[1]

    def __add__(self, other):
        other = _owned(other)
        if other is None:
            return NotImplemented
        d, v, w = self._common(other)
        return Quadratic(self.u + other.u, v + w, d)

    __radd__ = __add__

    def __neg__(self):
        return Quadratic(-self.u, -self.v, self.d)

    def __sub__(self, other):
        other = _owned(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = _owned(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other):
        other = _owned(other)
        if other is None:
            return NotImplemented
        d, v, w = self._common(other)
        return Quadratic(self.u * other.u + v * w * d, self.u * w + v * other.u, d)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.u or self.v)

    def __eq__(self, other) -> bool:
        other = _owned(other)
        if other is None:
            return NotImplemented
        try:
            return not (self - other)
        except ValueError:
            return False

    def __hash__(self) -> int:
        # equal numbers have equal u, v^2 d and sign of v
        return hash((self.u, self.v * self.v * self.d, self.v > 0))

    # -- output ---------------------------------------------------------------

    def __str__(self) -> str:
        """u, then the term v sqrt(d) in sympy's spelling: 3, -2/3 +
        2*I/3, 1 - sqrt(3), 3*sqrt(2)*I/2."""
        if not self.v:
            return str(self.u)
        if self.d == -1:
            gen = "I"
        elif self.d < 0:
            gen = f"sqrt({-self.d})*I"
        else:
            gen = f"sqrt({self.d})"
        v = abs(self.v)
        term = gen if v.numerator == 1 else f"{v.numerator}*{gen}"
        if v.denominator != 1:
            term += f"/{v.denominator}"
        if not self.u:
            return term if self.v > 0 else f"-{term}"
        return f"{self.u} {'+' if self.v > 0 else '-'} {term}"

    def __repr__(self) -> str:
        return f"Quadratic({self})"

    def _sympy_(self):
        import sympy as sp

        rational = sp.Rational(self.u.numerator, self.u.denominator)
        return rational + sp.Rational(self.v.numerator, self.v.denominator) * sp.sqrt(self.d)

    def box(self, width) -> Box:
        """A certified rational box ((re_lo, re_hi), (im_lo, im_hi))
        around the number, each side at most ``width`` > 0 wide: with N
        the least power of two with |v| / N <= width and s =
        isqrt(|d| N^2), sqrt(|d|) lies in [s / N, (s + 1) / N]."""
        u = self.u
        if not self.v:
            return (u, u), (Fraction(0), Fraction(0))
        ratio = abs(self.v) / Fraction(width)
        n = 1 << (-(-ratio.numerator // ratio.denominator) - 1).bit_length()
        s = math.isqrt(abs(self.d) * n * n)
        lo = Fraction(s, n)
        hi = lo if s * s == abs(self.d) * n * n else Fraction(s + 1, n)
        side = tuple(sorted((self.v * lo, self.v * hi)))
        if self.d > 0:
            return (u + side[0], u + side[1]), (Fraction(0), Fraction(0))
        return (u, u), side


def _owned(x) -> Quadratic | None:
    if isinstance(x, Quadratic):
        return x
    if isinstance(x, (int, Fraction)):
        return Quadratic(x)
    return None


def is_owned(x) -> bool:
    """Whether x is an int, a ``Fraction`` or a ``Quadratic``."""
    return isinstance(x, (int, Fraction, Quadratic))


def field_of(numbers) -> int:
    """The d of the first irrational number, or 1 if all are rational."""
    return next((x.d for x in numbers if isinstance(x, Quadratic) and x.v), 1)


def field_sum(terms) -> Quadratic | None:
    """The sum of owned numbers from any quadratic fields, or None when
    it is not one ``Quadratic``. The irrational parts are summed per
    field, and 1 and the square roots of d from distinct fields are
    linearly independent over Q, so the sum lies in one field exactly
    when at most one field keeps a non-zero part."""
    rational = Fraction(0)
    parts: list[list] = []  # [d, sum of the parts in Q(sqrt(d))]
    for t in map(_owned, terms):
        rational += t.u
        if t.v:
            part = next((p for p in parts if same_field(p[0], t.d)), None)
            if part is None:
                parts.append([t.d, Quadratic(0, t.v, t.d)])
            else:
                part[1] += Quadratic(0, t.v, t.d)
    parts = [q for _, q in parts if q]
    if len(parts) > 1:
        return None
    return rational + parts[0] if parts else Quadratic(rational)


def quadratic_roots(f: la.Poly) -> tuple[Quadratic, ...]:
    """The roots of a monic irreducible f of degree 1 or 2 in sympy's
    order: (-b - sqrt(D)) / 2 first, the lower real root or the root in
    the lower half-plane, then (-b + sqrt(D)) / 2, for D = b^2 - 4c."""
    if len(f) == 2:
        return (Quadratic(-f[1]),)
    _, b, c = f
    # sqrt(D) / 2 for D = n / m is sqrt(n m) / 2m, and i sqrt(-D) / 2 for D < 0
    disc = b * b - 4 * c
    half, d = Fraction(1, 2 * disc.denominator), disc.numerator * disc.denominator
    return (Quadratic(-b / 2, -half, d), Quadratic(-b / 2, half, d))


def _sort_key(factor: tuple[la.Poly, int]):
    """sympy's order of ``factor_list``: by degree, multiplicity and
    then the primitive integer coefficients."""
    f, k = factor
    return len(f), k, la.int_poly(f)


def irreducible_factors(p: la.Poly) -> list[tuple[la.Poly, int]]:
    """The monic irreducible factors of p over Q with multiplicities, in
    sympy's order. ``linalg.poly_factor`` finds every factor of degree
    at most 2; what it leaves unsplit, a factor of degree >= 3, is
    factored by sympy, imported here and only then."""
    out = []
    for f, k in la.poly_factor(p):
        if len(f) <= 3:
            out.append((f, k))
            continue
        import sympy as sp

        x = sp.Symbol("x")
        poly = sp.Poly([sp.Rational(c.numerator, c.denominator) for c in f], x, domain="QQ")
        for g, j in poly.factor_list()[1]:
            coeffs = g.monic().all_coeffs()
            out.append((tuple(Fraction(int(c.p), int(c.q)) for c in coeffs), k * j))
    return sorted(out, key=_sort_key)
