"""Exact linear algebra over the rationals.

Vectors are tuples of ``Fraction``, matrices are tuples of row tuples.
Everything here is pure and exact; no floating point anywhere. Every
row reduction runs on one fraction-free integer elimination,
``IntSpan``, whose pivot rows are the unique RREF of their span.

The characteristic polynomial (``charpoly``) and matrix polynomials
(``poly_eval_mat``) run in ``int`` on D A, D the least common
denominator of A's entries, and are scaled back to A only at the end.

Polynomials are represented as tuples of coefficients in *descending*
degree order. Over Q they are factored exactly into their rational
roots and quadratic factors (``poly_factor``), and their real roots are
counted by Sturm sequences (``poly_sturm_counts``).
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
    rows = [[(q, t) for q, t in row if t] for row in rows]
    g = math.gcd(den, *(t for row in rows for _, t in row))
    return den // g, tuple(tuple((q, t // g) for q, t in row) for row in rows)


def zeros_vec(n: int) -> Vec:
    return (ZERO,) * n


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


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


def trace_product(a: Mat, b: Mat) -> Fraction:
    """tr(a b) = sum_ij a_ij b_ji, without forming the product."""
    if ncols(a) != nrows(b) or nrows(a) != ncols(b):
        raise ValueError("dimension mismatch in trace of a product")
    total = ZERO
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x:
                y = b[j][i]
                if y:
                    total += x * y
    return total


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


def int_row(v: Vec) -> dict[int, int]:
    """v scaled by the least common denominator of its entries, as the
    sparse integer row {column: non-zero value}; it spans the same line."""
    den = math.lcm(*(x.denominator for x in v if x))
    return {c: x.numerator * (den // x.denominator) for c, x in enumerate(v) if x}


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

    def __init__(self, nc: int):
        self.nc = nc
        # leading column -> pivot row
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Mapping[int, int]) -> dict[int, int]:
        """The row reduced against the pivot rows, up to a non-zero
        factor: empty exactly when the row lies in the span."""
        r = {c: x for c, x in row.items() if x}
        pivots = self.pivots
        # the pivot rows vanish on each other's pivot columns, so no
        # step brings in a pivot column the list misses
        for p in [c for c in r if c in pivots]:
            r = _combine(r, p, pivots[p])
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

    def basis(self) -> tuple[Vec, ...]:
        """The RREF basis of the span, by leading column."""
        out = []
        for lead in sorted(self.pivots):
            r = self.pivots[lead]
            v = [ZERO] * self.nc
            for c, x in r.items():
                v[c] = Fraction(x, r[lead])
            out.append(tuple(v))
        return tuple(out)

    def int_kernel(self) -> list[tuple[int, dict[int, int]]]:
        """``kernel`` over the integers: per free column fc, (L, w) with
        the kernel vector w / L, L the least common multiple of the
        leading entries of the pivot rows with an entry in column fc, and
        w = {fc: L} with -x L / lead at the pivot column of each such row."""
        out = []
        for fc in range(self.nc):
            if fc in self.pivots:
                continue
            rows = [(pc, r) for pc, r in self.pivots.items() if fc in r]
            den = math.lcm(*(r[pc] for pc, r in rows))
            w = {fc: den}
            for pc, r in rows:
                w[pc] = -r[fc] * (den // r[pc])
            out.append((den, w))
        return out

    def kernel(self) -> tuple[Vec, ...]:
        """Basis of the vectors orthogonal to every row, one per free
        column fc of the RREF: e_fc minus the RREF entries in column fc
        at their pivot positions (``int_kernel`` over its L)."""
        basis = []
        for den, w in self.int_kernel():
            v = [ZERO] * self.nc
            for c, x in w.items():
                v[c] = Fraction(x, den)
            basis.append(tuple(v))
        return tuple(basis)


def sparse_kernel(rows: Iterable[Mapping[int, int]], nc: int) -> tuple[Vec, ...]:
    """``kernel`` of the system whose rows are given sparsely as
    {column: integer coefficient}, with the same basis (see ``IntSpan``).
    A system without rows has all of Q^nc as its kernel."""
    span = IntSpan(nc)
    for row in rows:
        span.add(row)
    return span.kernel()


def rational_span(rows: Iterable[Vec], nc: int) -> IntSpan:
    """The ``IntSpan`` of the given rational rows of width nc, each fed
    as its integer multiple ``int_row``."""
    span = IntSpan(nc)
    for r in rows:
        span.add(int_row(r))
    return span


def kernel(a: Mat) -> tuple[Vec, ...]:
    """Basis of the right null space, one vector per free column of the
    RREF (see ``IntSpan.kernel``).

    A dense matrix without rows has no column count, so the kernel of an
    empty system is ``()``; a caller whose system can be empty uses
    ``sparse_kernel``, which takes the column count."""
    nc = ncols(a)
    if nc == 0:
        return ()
    return rational_span(a, nc).kernel()


def solve_lex(a: Mat, b: Vec) -> Vec | None:
    """A particular solution of ``a x = b`` with free variables set to
    zero, so the support sits on the earliest possible pivot columns.
    Returns None if the system is inconsistent."""
    nc = ncols(a)
    span = rational_span((row + (bi,) for row, bi in zip(a, b)), nc + 1)
    if nc in span.pivots:
        return None
    x = [ZERO] * nc
    for pc, r in span.pivots.items():
        x[pc] = Fraction(r.get(nc, 0), r[pc])
    return tuple(x)


def inverse(a: Mat) -> Mat:
    """The right half of the RREF of [a | I]; ``ValueError`` unless its
    pivots are exactly the columns of a."""
    n = nrows(a)
    if n != ncols(a):
        raise ValueError("inverse of non-square matrix")
    span = rational_span((row + unit_vec(n, i) for i, row in enumerate(a)), 2 * n)
    if set(span.pivots) != set(range(n)):
        raise ValueError("matrix is singular")
    return tuple(
        tuple(Fraction(r.get(n + j, 0), r[i]) for j in range(n))
        for i, r in sorted(span.pivots.items())
    )


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


def poly_deg(p: Poly) -> int:
    p = poly_trim(p)
    return len(p) - 1 if p != (ZERO,) else -1


def poly_is_zero(p: Poly) -> bool:
    return all(c == 0 for c in p)


def poly_deriv(p: Poly) -> Poly:
    n = len(p) - 1
    if n <= 0:
        return (ZERO,)
    return poly_trim(tuple(c * (n - i) for i, c in enumerate(p[:-1])))


def poly_monic(p: Poly) -> Poly:
    p = poly_trim(p)
    if poly_is_zero(p):
        return p
    lead = p[0]
    return tuple(c / lead for c in p)


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    num = list(poly_trim(num))
    den = poly_trim(den)
    if poly_is_zero(den):
        raise ZeroDivisionError("polynomial division by zero")
    dd = len(den) - 1
    q = [ZERO] * max(len(num) - dd, 1)
    while len(num) - 1 >= dd and not all(c == 0 for c in num):
        shift = len(num) - 1 - dd
        coeff = num[0] / den[0]
        q[len(q) - 1 - shift] = coeff
        for i, dc in enumerate(den):
            num[i] -= coeff * dc
        num.pop(0)
        if not num:
            num = [ZERO]
    return poly_trim(q), poly_trim(num)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a, b = poly_trim(a), poly_trim(b)
    while not poly_is_zero(b):
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def poly_squarefree_part(p: Poly) -> Poly:
    g = poly_gcd(p, poly_deriv(p))
    q, r = poly_divmod(p, g)
    assert poly_is_zero(r)
    return poly_monic(q)


def poly_sub(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    a = (ZERO,) * (n - len(a)) + tuple(a)
    b = (ZERO,) * (n - len(b)) + tuple(b)
    return poly_trim(tuple(x - y for x, y in zip(a, b)))


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


def poly_graeffe(p: Poly) -> Poly:
    """The root-squaring transform prod (y - z^2) over the roots z of
    the monic p. Writing p(x) = E(x^2) + x O(x^2), it is
    (-1)^n p(sqrt y) p(-sqrt y) = (-1)^n (E(y)^2 - y O(y)^2)."""
    p = poly_trim(p)
    ascending = p[::-1]
    even = ascending[0::2][::-1]
    odd = ascending[1::2][::-1] or (ZERO,)
    g = poly_sub(poly_mul(even, even), poly_mul(odd, odd) + (ZERO,))
    return tuple(-c for c in g) if (len(p) - 1) % 2 else g


def poly_gcdex(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(s, t, g) with s a + t b = g, the monic gcd of a and b (not both
    zero), by the extended Euclidean algorithm."""
    r0, r1 = poly_trim(a), poly_trim(b)
    s0, s1, t0, t1 = (ONE,), (ZERO,), (ZERO,), (ONE,)
    while not poly_is_zero(r1):
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1))
    lead = r0[0]
    return tuple(c / lead for c in s0), tuple(c / lead for c in t0), poly_monic(r0)


def _sign_changes(values: Iterable[Fraction]) -> int:
    signs = [x > 0 for x in values if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def poly_sturm_counts(p: Poly) -> tuple[int, int, int]:
    """The numbers of distinct real roots of p in (-oo, 0), (0, oo) and
    R, by the Sturm sequence q, q', -rem(q, q'), ... of its square-free
    part q over Q, with a root at 0 divided out first: the roots in
    (a, b) are the sign changes at a minus those at b."""
    q = poly_squarefree_part(p)
    at_zero = len(q) > 1 and q[-1] == 0
    if at_zero:
        q = q[:-1]
    seq = [q]
    r = poly_deriv(q)
    while not poly_is_zero(r):
        seq.append(r)
        r = tuple(-c for c in poly_divmod(seq[-2], seq[-1])[1])
    at_neg_inf = _sign_changes(s[0] if len(s) % 2 else -s[0] for s in seq)
    at_origin = _sign_changes(s[-1] for s in seq)
    at_pos_inf = _sign_changes(s[0] for s in seq)
    negative, positive = at_neg_inf - at_origin, at_origin - at_pos_inf
    return negative, positive, negative + positive + at_zero


def poly_squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's decomposition: the pairs (s_k, k) with s_k monic, square
    free, pairwise coprime and not constant, and p = lead(p) prod s_k^k."""
    p = poly_monic(p)
    dp = poly_deriv(p)
    a = poly_gcd(p, dp)
    b = poly_divmod(p, a)[0]
    d = poly_sub(poly_divmod(dp, a)[0], poly_deriv(b))
    out = []
    k = 1
    while len(b) > 1:
        a = poly_gcd(b, d)
        b = poly_divmod(b, a)[0]
        d = poly_sub(poly_divmod(d, a)[0], poly_deriv(b))
        if len(a) > 1:
            out.append((a, k))
        k += 1
    return out


def poly_factor(p: Poly) -> list[tuple[Poly, int]]:
    """Monic factors f of p with multiplicities k, p = lead(p) prod f^k,
    per square-free part of ``poly_squarefree_decomposition``: x, every
    x - r for a rational root r, then quadratic factors while the rest
    has degree >= 4, and the rest. A factor of degree <= 2 is
    irreducible. A factor of degree >= 3 is the rest left unsplit: it
    has no factor of degree <= 2 unless its integer values were too
    large for the divisor search (see ``_divisors``).

    Each square-free part s of degree m becomes the monic integer
    polynomial S(y) = D^m s(y / D), D the common denominator of s. A
    rational root of s is r / D for an integer root r of S, which divides
    S(0); a monic quadratic factor y^2 + b y + c of S has integer
    coefficients and takes values f(x0), f(x1) dividing S(x0), S(x1) at
    two integers, which fix b and c (Kronecker's method)."""
    out = []
    for s, k in poly_squarefree_decomposition(p):
        if s[-1] == 0:
            out.append(((ONE, ZERO), k))
            s = s[:-1]
        den = math.lcm(*(c.denominator for c in s))
        rest = [int(c * den**i) for i, c in enumerate(s)]
        pieces = []
        if len(rest) == 3:
            # a quadratic splits iff its discriminant is a square
            t = rest[1] ** 2 - 4 * rest[2]
            root = math.isqrt(t) if t >= 0 else -1
            roots = [(-rest[1] - root) // 2, (-rest[1] + root) // 2] if root * root == t else []
        else:
            roots = _integer_roots(rest) if len(rest) > 1 else []
        for r in roots or ():
            rest = _int_divmod(rest, [1, -r])[0]
            pieces.append([1, -r])
        while roots is not None and len(rest) > 4:
            quad = _quadratic_factor(rest)
            if quad is None:
                break
            rest = _int_divmod(rest, quad)[0]
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


def _int_divmod(p: Sequence[int], f: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of the integer polynomial p by the monic f."""
    p = list(p)
    split = len(p) - len(f) + 1
    for i in range(split):
        c = p[i]
        for j in range(1, len(f)):
            p[i + j] -= c * f[j]
    return p[:split], p[split:]


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


def _int_matrix(a: Mat) -> tuple[int, list[list[int]]]:
    """(D, B): D the least common denominator of the entries of a, and
    B = D a in ``int``."""
    den = math.lcm(*(x.denominator for row in a for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in a]


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
    """p(A) by Horner's rule in ``int`` on B = D A (``_int_matrix``):
    after step i the integer matrix H is E D^i (p_0 A^i + ... + p_i I),
    E the common denominator of p, so H_i = H_(i-1) B + E D^i p_i I and
    one division by E D^deg(p) ends it."""
    n = nrows(a)
    if n != ncols(a):
        raise ValueError("polynomial of a non-square matrix")
    den, b = _int_matrix(a)
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
    return mat_over(h, scale)


def charpoly(a: Mat) -> Poly:
    """Monic characteristic polynomial by the Faddeev-LeVerrier recursion
    over the integers (Cohen, *A Course in Computational Algebraic Number
    Theory*, 2.2.4), on B = D A (``_int_matrix``): M_0 = I, c_k =
    -tr(B M_(k-1)) / k, M_k = B M_(k-1) + c_k I. B has the integer
    characteristic polynomial sum c_k x^(n-k), so every division by k is
    exact (``CertificateError`` otherwise) and every M_k integral; A's
    coefficient of x^(n-k) is c_k / D^k."""
    n = nrows(a)
    if n != ncols(a):
        raise ValueError("characteristic polynomial of non-square matrix")
    den, b = _int_matrix(a)
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
    the flattened powers I, A, A^2, ... (degree at most n).

    Power d is spanned with the tag e_d in n + 1 extra columns. The
    first power that lies in the span of the earlier ones reduces to a
    row that vanishes on the n*n power columns, and its tags are the
    coefficients of the dependency: x^k has coefficient tag_k / tag_d."""
    n = nrows(a)
    nn = n * n
    span = IntSpan(nn + n + 1)
    cur = identity(n)
    for d in range(n + 1):
        span.add(int_row(tuple(x for row in cur for x in row) + unit_vec(n + 1, d)))
        lead = max(span.pivots)
        if lead >= nn:
            r = span.pivots[lead]
            return tuple(Fraction(r.get(nn + k, 0), r[nn + d]) for k in range(d, -1, -1))
        cur = mat_mul(cur, a)
    raise AssertionError("unreachable: minimal polynomial not found")
