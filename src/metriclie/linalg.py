"""Exact linear algebra over the rationals.

Vectors are tuples of ``Fraction``, matrices are tuples of row tuples.
Everything here is pure and exact; no floating point anywhere. Rational
rows become integer rows over one common denominator in one place,
``to_int_rows`` (``pair_rows`` for rationals read as (p, q) pairs).
Every row reduction runs on one fraction-free integer elimination,
``IntSpan``, whose pivot rows are the unique RREF of their span.

The characteristic and minimal polynomials (``charpoly``,
``minimal_polynomial``) and matrix polynomials (``poly_eval_mat``) run
in ``int`` on D A, D the least common denominator of A's entries, and
are scaled back to A only at the end.

Polynomials are represented as tuples of coefficients in *descending*
degree order. Their gcds, square-free parts, Sturm sequences and
Yun's decomposition run in Z[x] on primitive integer polynomials
(``int_poly``), by primitive pseudo-remainder sequences with exact,
certified division; the public functions take and return rationals.
Over Q polynomials are factored exactly into their rational roots and
quadratic factors (``poly_factor``), and their real roots are counted
by Sturm sequences (``poly_sturm_counts``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import CertificateError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
# a sparse integer row: its (column, non-zero value) pairs
IntRow = tuple[tuple[int, int], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def mat_over(rows: Iterable[Iterable[int]], den: int) -> Mat:
    """The rational matrix rows / den of integer rows."""
    return tuple(tuple(Fraction(x, den) if x else ZERO for x in r) for r in rows)


def dense(rows: Iterable[IntRow], nc: int) -> list[list[int]]:
    """The dense integer matrix of sparse rows of (column, value) pairs,
    each of width nc."""
    out = []
    for pairs in rows:
        row = [0] * nc
        for q, t in pairs:
            row[q] = t
        out.append(row)
    return out


def normalised(den: int, rows: Iterable) -> tuple[int, tuple[IntRow, ...]]:
    """The one normalisation of sparse integer rows over den > 0: zero
    entries dropped, and den and every entry divided by their gcd."""
    rows = [tuple([(q, t) for q, t in row if t]) for row in rows]
    g = math.gcd(den, *[t for row in rows for _, t in row])
    if g == 1:
        return den, tuple(rows)
    return den // g, tuple(tuple([(q, t // g) for q, t in row]) for row in rows)


def to_int_rows(rows: Iterable[Iterable]) -> tuple[int, tuple[IntRow, ...]]:
    """The one rescaling of rational rows: (D, rows) with D the least
    common denominator of all entries and ``rows[p]`` the pairs
    (q, D x_pq) with non-zero entry, in increasing q. Entries are
    ``Fraction`` or ``int``."""
    rows = tuple(map(tuple, rows))
    den = math.lcm(*(x.denominator for r in rows for x in r))
    return den, tuple(
        tuple((q, x.numerator * (den // x.denominator)) for q, x in enumerate(r) if x) for r in rows
    )


def pair_rows(rows) -> tuple[int, tuple[IntRow, ...]]:
    """``to_int_rows`` of rows read as pairs: each row the pairs
    (column, (p, q)) of rationals p / q with q > 0, in the order given."""
    rows = [list(row) for row in rows]
    den = math.lcm(*(q for row in rows for _, (_, q) in row))
    return den, tuple(tuple((c, p * (den // q)) for c, (p, q) in row if p) for row in rows)


def common_rows(*parts: tuple[int, Iterable[IntRow]]) -> tuple[int, list[IntRow]]:
    """The rows of several (D_i, rows_i), in order, over the least common
    multiple of the D_i."""
    den = math.lcm(*(d for d, _ in parts))
    return den, [tuple((q, t * (den // d)) for q, t in row) for d, rows in parts for row in rows]


def zeros_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def nrows(a: Mat) -> int:
    return len(a)


def ncols(a: Mat) -> int:
    return len(a[0]) if a else 0


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, v: Vec) -> Vec:
    c = frac(c)
    return tuple(c * x for x in v)


def is_zero_vec(v: Vec) -> bool:
    return all(x == 0 for x in v)


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(vec_sub(r, s) for r, s in zip(a, b))


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Row i of the product is sum_k a_ik (row k of b), skipping the zero
    a_ik and the zero entries of b."""
    if ncols(a) != nrows(b):
        raise ValueError("dimension mismatch in matrix product")
    nc = ncols(b)
    b_support = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for r in a:
        acc = [ZERO] * nc
        for x, support in zip(r, b_support):
            if x:
                for j, y in support:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(a: Mat, v: Vec) -> Vec:
    if ncols(a) != len(v):
        raise ValueError("dimension mismatch in matrix-vector product")
    return tuple(sum((x * y for x, y in zip(r, v) if x and y), ZERO) for r in a)


def is_nilpotent(a: Mat) -> bool:
    """A^k = 0 for some k <= n: powers A, A^2, ... up to A^n, stopping
    at the first zero one. Equivalent to A^n = 0."""
    power = a
    for _ in range(1, nrows(a)):
        if is_zero_mat(power):
            return True
        power = mat_mul(power, a)
    return is_zero_mat(power)


def trace_product(a: Mat, b: Mat) -> Fraction | int:
    """tr(a b) = sum_ij a_ij b_ji, without forming the product; summed
    from the int 0, so integer matrices give an ``int``."""
    if ncols(a) != nrows(b) or nrows(a) != ncols(b):
        raise ValueError("dimension mismatch in trace of a product")
    total = 0
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x:
                y = b[j][i]
                if y:
                    total += x * y
    return total


def int_trace_square(rows: Sequence[IntRow]) -> int:
    """tr(A^2) = sum_pq A_pq A_qp of the sparse integer rows of A (or of
    its columns: tr(A^2) = tr((A^T)^2)), read off the pairs without a
    dense matrix."""
    entries = [dict(row) for row in rows]
    return sum(x * entries[q].get(p, 0) for p, row in enumerate(rows) for q, x in row)


def is_zero_mat(a: Mat) -> bool:
    return all(is_zero_vec(r) for r in a)


def proportionality(a: Mat, b: Mat) -> Fraction | None:
    """The c with a = c b, read off the first non-zero entry of b, or
    None if there is none. For b = 0 it is 0 when a = 0 as well."""
    pairs = [(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)]
    c = next((frac(x) / y for x, y in pairs if y), ZERO)
    return c if all(x == c * y if y else not x for x, y in pairs) else None


def vec_text(v: Vec) -> str:
    """v as a list of rationals, for messages: [1, -1/2, 0]."""
    return "[" + ", ".join(str(x) for x in v) + "]"


def _combine(r: dict[int, int], p: int, pivot_row: dict[int, int]) -> dict[int, int]:
    """pivot_row[p] r - r[p] pivot_row divided by its content; it has no
    entry at p."""
    a, b = pivot_row[p], r[p]
    out = {c: a * x for c, x in r.items()}
    for c, y in pivot_row.items():
        x = out.get(c, 0) - b * y
        if x:
            out[c] = x
        else:
            out.pop(c, None)
    g = math.gcd(*out.values())
    return {c: x // g for c, x in out.items()} if g > 1 else out


class IntSpan:
    """Incrementally maintained span of sparse integer rows
    {column: int} in Q^nc, by fraction-free Gauss-Jordan.

    Each row is reduced against the pivot rows by integer
    cross-multiplication and divided by its content, with the sign that
    makes its leading entry positive, and the pivot rows are kept
    reduced against each other (which keeps their leading entries
    positive). They then have distinct leading columns and vanish on
    each other's pivot columns, so scaled to leading 1 they are the
    unique RREF of the span, and the pivot rows themselves are the same
    whatever the order of insertion. It is the one elimination of the
    package: ranks, kernels, solutions, inverses, row bases, membership
    and the minimal polynomial are all read off its pivot rows.
    """

    def __init__(self, nc: int, rows: Iterable[Mapping[int, int]] = ()):
        self.nc = nc
        # leading column -> pivot row
        self.pivots: dict[int, dict[int, int]] = {}
        for row in rows:
            self.add(row)

    @classmethod
    def full(cls, nc: int) -> "IntSpan":
        """Q^nc on its unit rows, which are its RREF: nothing is eliminated."""
        span = cls(nc)
        span.pivots = {i: {i: 1} for i in range(nc)}
        return span

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Mapping[int, int]) -> dict[int, int]:
        """The row reduced against the pivot rows, up to a non-zero
        factor: empty exactly when the row lies in the span. In place on
        one dict, for each pivot column p: r <- a r - b pivot_row, with a
        the pivot's leading entry (no scaling when a = 1) and b = r[p];
        no content is divided out here, only in ``add``."""
        r = {c: x for c, x in row.items() if x}
        pivots = self.pivots
        # the pivot rows vanish on each other's pivot columns, so no
        # step brings in a pivot column the list misses
        for p in [c for c in r if c in pivots]:
            pivot_row = pivots[p]
            a, b = pivot_row[p], r[p]
            if a != 1:
                for c in r:
                    r[c] *= a
            for c, y in pivot_row.items():
                x = r.get(c, 0) - b * y
                if x:
                    r[c] = x
                else:
                    del r[c]
        return r

    def add(self, row: Mapping[int, int]) -> bool:
        """Insert the row; returns True if it enlarged the span."""
        r = self.reduce(row)
        if not r:
            return False
        lead = min(r)
        g = math.gcd(*r.values())
        if r[lead] < 0:
            g = -g
        if g != 1:
            r = {c: x // g for c, x in r.items()}
        pivots = self.pivots
        for p, pivot_row in pivots.items():
            if lead in pivot_row:
                pivots[p] = _combine(pivot_row, lead, r)
        pivots[lead] = r
        return True

    def rref(self) -> tuple[int, tuple[IntRow, ...]]:
        """The RREF as (L, rows) by increasing leading column: each pivot
        row over its leading entry, over the lcm L of the leading entries;
        the one readout of whole pivot rows. Rows of content 1 make it
        ``normalised``: for each prime some L / lead is prime to it."""
        leads = sorted(self.pivots.items())
        den = math.lcm(*(r[p] for p, r in leads))
        return den, tuple(tuple([(c, x * (den // r[p])) for c, x in sorted(r.items())]) for p, r in leads)

    def int_kernel(self) -> tuple[int, list[IntRow]]:
        """Basis of the vectors orthogonal to every row, over the lcm L of
        the leading entries, as in ``rref``: per free column fc, L e_fc
        minus L times the RREF entries in column fc."""
        pivots = self.pivots
        den = math.lcm(*(r[pc] for pc, r in pivots.items()))
        out = []
        for fc in range(self.nc):
            if fc not in pivots:
                w = {fc: den}
                for pc, r in pivots.items():
                    if fc in r:
                        w[pc] = -r[fc] * (den // r[pc])
                out.append(tuple(sorted(w.items())))
        return den, out


def kernel(a: Mat) -> tuple[Vec, ...]:
    """Basis of the right null space, one vector per free column of the
    RREF (see ``IntSpan.int_kernel``).

    A dense matrix without rows has no column count, so the kernel of an
    empty system is ``()``."""
    nc = ncols(a)
    if nc == 0:
        return ()
    den, rows = IntSpan(nc, map(dict, to_int_rows(a)[1])).int_kernel()
    return mat_over(dense(rows, nc), den)


def int_solve_lex(nc: int, rows: Iterable[Mapping[int, int]]) -> tuple[int, IntRow] | None:
    """The particular solution of A x = b with free variables set to
    zero, so its support sits on the earliest possible pivot columns,
    from the integer rows of [A | b] (column nc holds b): x[pc] =
    r[nc] / r[pc] for the pivot row r led by pc, as one ``normalised``
    integer row over the least common denominator. None if column nc is
    a pivot (inconsistent)."""
    span = IntSpan(nc + 1, rows)
    if nc in span.pivots:
        return None
    leads = sorted(span.pivots.items())
    den = math.lcm(*(r[pc] for pc, r in leads))
    den, (row,) = normalised(den, ([(pc, r.get(nc, 0) * (den // r[pc])) for pc, r in leads],))
    return den, row


def int_inverse(den: int, rows: Sequence[IntRow], n: int) -> tuple[int, tuple[IntRow, ...]]:
    """(rows / den)^{-1} for n sparse integer rows, ``normalised``, from
    one ``IntSpan`` over [rows | I]: its RREF over L is [L I | L rows^{-1}],
    so the inverse is den times the right half over L. ``ValueError``
    unless the pivots are exactly the first n columns."""
    span = IntSpan(2 * n, ({**dict(row), n + i: 1} for i, row in enumerate(rows)))
    if set(span.pivots) != set(range(n)):
        raise ValueError("matrix is singular")
    lcm, rows = span.rref()
    return normalised(lcm, ([(c - n, den * x) for c, x in r[1:]] for r in rows))


def inverse(a: Mat) -> Mat:
    """``int_inverse`` of the rows of a, read as rationals."""
    n = nrows(a)
    if n != ncols(a):
        raise ValueError("inverse of non-square matrix")
    den, rows = int_inverse(*to_int_rows(a), n)
    return mat_over(dense(rows, n), den)


def intersect_spans(u: IntSpan, v: IntSpan) -> IntSpan:
    """span(u) ∩ span(v), by Zassenhaus on the pivot rows: in the span
    of (x, x) for x in u and (y, 0) for y in v, the pivot rows that lead
    in the second half are (0, w), and the w span the intersection."""
    n = u.nc
    span = IntSpan(2 * n)
    for r in u.pivots.values():
        span.add({**r, **{c + n: t for c, t in r.items()}})
    for r in v.pivots.values():
        span.add(r)
    meet = IntSpan(n)
    for lead, r in span.pivots.items():
        if lead >= n:
            meet.add({c - n: t for c, t in r.items()})
    return meet


# ---------------------------------------------------------------------------
# polynomials (descending coefficient order)
# ---------------------------------------------------------------------------

Poly = tuple[Fraction, ...]


def poly_trim(p: Sequence[Fraction]) -> Poly:
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return tuple(p[i:]) if p else (ZERO,)


def poly_deriv(p: Poly) -> Poly:
    n = len(p) - 1
    if n <= 0:
        return (ZERO,)
    return poly_trim(tuple(c * (n - i) for i, c in enumerate(p[:-1])))


def poly_mul(a: Poly, b: Poly) -> Poly:
    """The product; the coefficients may be any exact numbers."""
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_reflect(p: Poly) -> Poly:
    """p(-x): the coefficient of x^k times (-1)^k."""
    n = len(p) - 1
    return tuple(-c if (n - i) % 2 else c for i, c in enumerate(p))


# The integer layer: a polynomial in Z[x] is a descending list of int,
# [] for zero. A rational polynomial enters it as its primitive part
# (``int_poly``) and leaves it monic (``_monic``). Differences and
# remainders may keep leading zeros, which ``_prim`` drops.


def _prim(p: Sequence[int]) -> list[int]:
    """p without leading zeros over its positive content."""
    g = math.gcd(*p) or 1
    i = 0
    while i < len(p) and not p[i]:
        i += 1
    return [c // g for c in p[i:]]


def int_poly(p: Sequence) -> list[int]:
    """The primitive integer polynomial of the rational p, a positive
    multiple of p."""
    den = math.lcm(*(c.denominator for c in p))
    return _prim([c.numerator * (den // c.denominator) for c in p])


def _monic(p: Sequence[int]) -> Poly:
    return tuple(Fraction(c, p[0]) for c in p) if p else (ZERO,)


def _int_deriv(p: Sequence[int]) -> list[int]:
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _int_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    n = max(len(a), len(b))
    a, b = [0] * (n - len(a)) + list(a), [0] * (n - len(b)) + list(b)
    return [x - y for x, y in zip(a, b)]


def int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive multiple of the remainder of a by b != 0: each step
    scales a by |lc(b)| / gcd(lead(a), lc(b)), never by a negative
    number, so the remainder keeps the sign that Sturm sequences read
    (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R)."""
    a = list(a)
    lb, n = b[0], len(b)
    while len(a) >= n:
        g = math.gcd(a[0], lb)
        s, t = abs(lb) // g, a[0] // g if lb > 0 else -(a[0] // g)
        # s a - t x^k b, whose lead s a[0] - t lb vanishes
        a = [s * x - t * y for x, y in zip(a[1:n], b[1:])] + [s * x for x in a[n:]]
    return a


def _int_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b != 0 in Z[x]; ``CertificateError``
    if a quotient coefficient is not an integer (never for a monic b)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    split = max(len(a) - len(b) + 1, 0)
    for i in range(split):
        c, r = divmod(a[i], b[0])
        if r:
            raise CertificateError("inexact division of integer polynomials")
        a[i] = c
        for j in range(1, len(b)):
            a[i + j] -= c * b[j]
    return a[:split], a[split:]


def _int_exquo(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b in Z[x], ``CertificateError`` on a remainder. A primitive b
    that divides a in Q[x] divides it in Z[x] (Gauss's lemma)."""
    q, r = _int_divmod(a, b)
    if any(r):
        raise CertificateError("inexact division of integer polynomials")
    return q


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The gcd, primitive with a positive lead ([] for two zeros), by the
    primitive pseudo-remainder sequence (Cohen, *A Course in
    Computational Algebraic Number Theory*, 3.3)."""
    a, b = _prim(a), _prim(b)
    while b:
        a, b = b, _prim(_int_prem(a, b))
    return [-c for c in a] if a and a[0] < 0 else a


def _int_squarefree(p: list[int]) -> list[int]:
    return _int_exquo(p, _int_gcd(p, _int_deriv(p)))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    return _monic(_int_gcd(int_poly(a), int_poly(b)))


def poly_squarefree_part(p: Poly) -> Poly:
    return _monic(_int_squarefree(int_poly(p)))


def poly_graeffe(p: Poly) -> Poly:
    """The root-squaring transform prod (y - z^2) over the roots z of
    the monic p. Writing p(x) = E(x^2) + x O(x^2), it is
    (-1)^n p(sqrt y) p(-sqrt y) = (-1)^n (E(y)^2 - y O(y)^2), here on
    the primitive integer p."""
    ascending = int_poly(p)[::-1]
    even, odd = ascending[0::2][::-1], ascending[1::2][::-1]
    g = _int_sub(int_mul(even, even), int_mul(odd, odd) + [0])
    return _monic(_prim([-c for c in g] if len(ascending) % 2 == 0 else g))


def _sign_changes(values: Iterable[int]) -> int:
    signs = [x > 0 for x in values if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def poly_root_counts(p: Poly) -> tuple[int, int, int, int]:
    """The numbers of distinct roots of p != 0 in (-oo, 0), (0, oo), R
    and C, by the Sturm sequence q, q', -rem(q, q'), ... in Z[x] of its
    square-free part q, each remainder over its positive content, with a
    root at 0 divided out first: the roots in (a, b) are the sign
    changes at a minus those at b."""
    q = _int_squarefree(int_poly(p))
    distinct = len(q) - 1
    at_zero = len(q) > 1 and q[-1] == 0
    if at_zero:
        q = q[:-1]
    seq = [q]
    r = _int_deriv(q)
    while r:
        seq.append(r)
        r = [-c for c in _prim(_int_prem(seq[-2], seq[-1]))]
    at_neg_inf = _sign_changes(s[0] if len(s) % 2 else -s[0] for s in seq)
    at_origin = _sign_changes(s[-1] for s in seq)
    at_pos_inf = _sign_changes(s[0] for s in seq)
    negative, positive = at_neg_inf - at_origin, at_origin - at_pos_inf
    return negative, positive, negative + positive + at_zero, distinct


def poly_sturm_counts(p: Poly) -> tuple[int, int, int]:
    return poly_root_counts(p)[:3]


def _yun(p: list[int]) -> list[tuple[list[int], int]]:
    """Yun's decomposition of p != 0 in Z[x]: the pairs (s_k, k) with s_k
    primitive with a positive lead, square free, pairwise coprime and
    not constant, and p = c prod s_k^k, c rational. Every quotient is by
    a primitive gcd, so integral (Gauss's lemma), and certified."""
    dp = _int_deriv(p)
    a = _int_gcd(p, dp)
    b = _int_exquo(p, a)
    d = _int_sub(_int_exquo(dp, a), _int_deriv(b))
    out = []
    k = 1
    while len(b) > 1:
        a = _int_gcd(b, d)
        b = _int_exquo(b, a)
        d = _int_sub(_int_exquo(d, a), _int_deriv(b))
        if len(a) > 1:
            out.append((a, k))
        k += 1
    return out


def poly_factor(p: Poly) -> list[tuple[Poly, int]]:
    """Monic factors f of p with multiplicities k, p = lead(p) prod f^k,
    per square-free part of ``_yun``: x, every x - r for a rational
    root r, then quadratic factors while the rest has degree >= 4, and
    the rest. A factor of degree <= 2 is irreducible. A factor of degree
    >= 3 is the rest left unsplit: it has no factor of degree <= 2
    unless its integer values were too large for the divisor search
    (see ``_divisors``).

    Each primitive square-free part s of degree m and lead D > 0 becomes
    the monic integer polynomial S(y) = D^(m-1) s(y / D); D is the
    common denominator of s / D. A rational root of s is r / D for an
    integer root r of S, which divides S(0); a monic quadratic factor
    y^2 + b y + c of S has integer coefficients and takes values f(x0),
    f(x1) dividing S(x0), S(x1) at two integers, which fix b and c
    (Kronecker's method)."""
    out = []
    for s, k in _yun(int_poly(p)):
        if s[-1] == 0:
            out.append(((ONE, ZERO), k))
            s = s[:-1]
        den = s[0]
        rest = [1] + [c * den ** (i - 1) for i, c in enumerate(s) if i]
        pieces = []
        if len(rest) == 3:
            # a quadratic splits iff its discriminant is a square
            t = rest[1] ** 2 - 4 * rest[2]
            root = math.isqrt(t) if t >= 0 else -1
            roots = [(-rest[1] - root) // 2, (-rest[1] + root) // 2] if root * root == t else []
        else:
            roots = _integer_roots(rest) if len(rest) > 1 else []
        for r in roots or ():
            rest = _int_exquo(rest, [1, -r])
            pieces.append([1, -r])
        while roots is not None and len(rest) > 4:
            quad = _quadratic_factor(rest)
            if quad is None:
                break
            rest = _int_exquo(rest, quad)
            pieces.append(quad)
        if len(rest) > 1:
            pieces.append(rest)
        # back from S(y) to s(x): the coefficient of y^j over D^(deg - j)
        out.extend((tuple(Fraction(c, den**i) for i, c in enumerate(f)), k) for f in pieces)
    return out


def _int_eval(p: Sequence[int], x: int) -> int:
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


# trial division stops here: a cofactor with no prime factor up to it is
# certified prime only below its square
_TRIAL_LIMIT = 1 << 17


def _divisors(n: int) -> list[int] | None:
    """The positive divisors of n != 0, by trial division; None when a
    cofactor above ``_TRIAL_LIMIT`` squared is left."""
    n = abs(n)
    primes = []
    p = 2
    while p * p <= n:
        if p > _TRIAL_LIMIT:
            return None
        while n % p == 0:
            primes.append(p)
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    divs = {1}
    for p in primes:
        divs |= {d * p for d in divs}
    return sorted(divs)


def _integer_roots(p: Sequence[int]) -> list[int] | None:
    """The integer roots of the monic integer p with p(0) != 0: divisors
    of p(0). None when ``_divisors`` gives up."""
    divs = _divisors(p[-1])
    if divs is None:
        return None
    return [r for d in divs for r in (d, -d) if _int_eval(p, r) == 0]


def _quadratic_factor(p: Sequence[int]) -> list[int] | None:
    """A monic integer quadratic factor y^2 + b y + c of the monic
    integer p, which has no integer root, or None. The values f(x0) =
    d0 and f(x1) = d1 at the two of the points -3..3 whose values have
    the fewest divisors give b = (d0 - d1 - x0^2 + x1^2) / (x0 - x1) and
    c = d0 - x0^2 - b x0. Every root has |z| < B = 1 + max |p_i|, so
    |b| < 2B and 0 < |c| < B^2."""
    bound = 1 + max(abs(c) for c in p[1:])
    points = []
    for x in range(-3, 4):
        divs = _divisors(_int_eval(p, x))
        if divs is None:
            return None
        points.append((len(divs), x, [s * d for d in divs for s in (1, -1)]))
    points.sort()
    (_, x0, values0), (_, x1, values1) = points[:2]
    for d0 in values0:
        for d1 in values1:
            b, r = divmod(d0 - d1 - x0 * x0 + x1 * x1, x0 - x1)
            c = d0 - x0 * x0 - b * x0
            if r or abs(b) >= 2 * bound or not 0 < abs(c) < bound * bound or p[-1] % c:
                continue
            if not any(_int_divmod(p, [1, b, c])[1]):
                return [1, b, c]
    return None


def _int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """``mat_mul`` of square integer matrices in ``int``, as new rows."""
    b_support = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for r in a:
        acc = [0] * len(b)
        for x, support in zip(r, b_support):
            if x:
                for j, y in support:
                    acc[j] += x * y
        out.append(acc)
    return out


def poly_eval_mat(p: Poly, a: Mat) -> Mat:
    """p(A), the rational view of ``int_poly_eval_mat``."""
    scale, h = int_poly_eval_mat(p, a)
    return mat_over(h, scale)


def int_poly_eval_mat(p: Poly, a: Mat) -> tuple[int, list[list[int]]]:
    """(S, H) with H = S p(A) an integer matrix, by Horner's rule in
    ``int`` on B = D A (``to_int_rows``): after step i the integer
    matrix H is E D^i (p_0 A^i + ... + p_i I), E the common denominator
    of p, so H_i = H_(i-1) B + E D^i p_i I, and S = E D^deg(p)."""
    n = nrows(a)
    if n != ncols(a):
        raise ValueError("polynomial of a non-square matrix")
    den, rows = to_int_rows(a)
    b = dense(rows, n)
    scale = math.lcm(*(c.denominator for c in p))
    h = [[0] * n for _ in range(n)]
    for i, c in enumerate(p):
        if i:
            scale *= den
            if any(map(any, h)):
                h = _int_mat_mul(h, b)
        t = c.numerator * (scale // c.denominator)
        for j in range(n):
            h[j][j] += t
    return scale, h


def charpoly(a: Mat) -> Poly:
    """Monic characteristic polynomial by the Faddeev-LeVerrier recursion
    over the integers (Cohen, *A Course in Computational Algebraic Number
    Theory*, 2.2.4), on B = D A (``to_int_rows``): M_0 = I, c_k =
    -tr(B M_(k-1)) / k, M_k = B M_(k-1) + c_k I. B has the integer
    characteristic polynomial sum c_k x^(n-k), so every division by k is
    exact (``CertificateError`` otherwise) and every M_k integral; A's
    coefficient of x^(n-k) is c_k / D^k."""
    n = nrows(a)
    if n != ncols(a):
        raise ValueError("characteristic polynomial of non-square matrix")
    den, rows = to_int_rows(a)
    b = dense(rows, n)
    coeffs = [ONE]
    bm = [list(row) for row in b]  # B M_(k-1), made M_k in place
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(bm[i][i] for i in range(n)), k)
        if rem:
            raise CertificateError("Faddeev-LeVerrier trace is not divisible by k")
        coeffs.append(Fraction(ck, den**k))
        if k < n:
            for i in range(n):
                bm[i][i] += ck
            bm = _int_mat_mul(b, bm)
    return tuple(coeffs)


def minimal_polynomial(a: Mat) -> Poly:
    """Monic minimal polynomial, from the first linear dependency among
    the flattened powers I, B, B^2, ... (degree at most n) of the
    integer matrix B = D A (``to_int_rows``), formed in ``int``.

    Power d is spanned with the tag e_d in n + 1 extra columns. The
    first power that lies in the span of the earlier ones reduces to a
    row that vanishes on the n*n power columns, and its tags are the
    coefficients of the dependency: sum tag_k B^k = 0. As B^k = D^k A^k,
    A's coefficient of x^k is tag_k D^k / (tag_d D^d)."""
    n = nrows(a)
    nn = n * n
    den, rows = to_int_rows(a)
    b = dense(rows, n)
    span = IntSpan(nn + n + 1)
    cur = [[int(i == j) for j in range(n)] for i in range(n)]
    for d in range(n + 1):
        flat = {i * n + j: x for i, row in enumerate(cur) for j, x in enumerate(row) if x}
        flat[nn + d] = 1
        span.add(flat)
        lead = max(span.pivots)
        if lead >= nn:
            r = span.pivots[lead]
            return tuple(Fraction(r.get(nn + k, 0), r[nn + d] * den ** (d - k)) for k in range(d, -1, -1))
        cur = _int_mat_mul(cur, b)
    raise AssertionError("unreachable: minimal polynomial not found")
