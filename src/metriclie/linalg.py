"""Exact linear algebra over the rationals.

Vectors are tuples of ``Fraction``, matrices are tuples of row tuples.
Everything here is pure and exact; no floating point anywhere.

Polynomials are represented as tuples of coefficients in *descending*
degree order (the convention of ``sympy.Poly.all_coeffs``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

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


def zeros_vec(n: int) -> Vec:
    return (ZERO,) * n


def zeros(r: int, c: int) -> Mat:
    return tuple((ZERO,) * c for _ in range(r))


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


def vec_dot(u: Vec, v: Vec) -> Fraction:
    return sum((x * y for x, y in zip(u, v) if x and y), ZERO)


def is_zero_vec(v: Vec) -> bool:
    return all(x == 0 for x in v)


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(vec_add(r, s) for r, s in zip(a, b))


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(vec_sub(r, s) for r, s in zip(a, b))


def mat_neg(a: Mat) -> Mat:
    return tuple(tuple(-x for x in r) for r in a)


def mat_scale(c, a: Mat) -> Mat:
    c = frac(c)
    return tuple(tuple(c * x for x in r) for r in a)


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
    return tuple(vec_dot(r, v) for r in a)


def mat_pow(a: Mat, k: int) -> Mat:
    n = nrows(a)
    result = identity(n)
    base = a
    while k > 0:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if k > 1 else base
        k >>= 1
    return result


def trace(a: Mat) -> Fraction:
    return sum((a[i][i] for i in range(nrows(a))), ZERO)


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


def bilinear(b: Mat, u: Vec, v: Vec) -> Fraction:
    return vec_dot(u, mat_vec(b, v))


def skew_residual(a: Mat, b: Mat) -> Mat:
    """a^T b + b a: zero exactly when a is skew for the bilinear form b."""
    return mat_add(mat_mul(transpose(a), b), mat_mul(b, a))


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form with the list of pivot columns."""
    rows = [list(r) for r in a]
    nr, nc = len(rows), (len(rows[0]) if rows else 0)
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv if x else ZERO for x in rows[r]]
        support = [(k, y) for k, y in enumerate(rows[r]) if y]
        for i in range(nr):
            f = rows[i][c]
            if i != r and f:
                row = rows[i]
                for k, y in support:
                    row[k] -= f * y
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(r) for r in rows), tuple(pivots)


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def row_space_basis(vectors: Sequence[Vec]) -> tuple[Vec, ...]:
    """Canonical (RREF) basis of the span of the given vectors."""
    if not vectors:
        return ()
    reduced, pivots = rref(tuple(vectors))
    return reduced[: len(pivots)]


def kernel(a: Mat) -> tuple[Vec, ...]:
    """Basis of the right null space, deterministic via RREF."""
    nc = ncols(a)
    if nc == 0:
        return ()
    if nrows(a) == 0:
        return identity(nc)
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(nc) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * nc
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][fc]
        basis.append(tuple(v))
    return tuple(basis)


def solve_lex(a: Mat, b: Vec) -> Vec | None:
    """A particular solution of ``a x = b`` with free variables set to
    zero, so the support sits on the earliest possible pivot columns.
    Returns None if the system is inconsistent."""
    nc = ncols(a)
    aug = tuple(row + (bi,) for row, bi in zip(a, b))
    reduced, pivots = rref(aug)
    if nc in pivots:
        return None
    x = [ZERO] * nc
    for i, pc in enumerate(pivots):
        x[pc] = reduced[i][nc]
    return tuple(x)


def inverse(a: Mat) -> Mat:
    n = nrows(a)
    if n != ncols(a):
        raise ValueError("inverse of non-square matrix")
    aug = tuple(row + unit_vec(n, i) for i, row in enumerate(a))
    reduced, pivots = rref(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return tuple(r[n:] for r in reduced[:n])


def in_span(vectors: Sequence[Vec], v: Vec) -> bool:
    if is_zero_vec(v):
        return True
    if not vectors:
        return False
    return rank(tuple(vectors)) == rank(tuple(vectors) + (v,))


def coords_in(vectors: Sequence[Vec], v: Vec) -> Vec | None:
    """Coordinates of v in the given (independent) spanning set."""
    if not vectors:
        return () if is_zero_vec(v) else None
    a = transpose(tuple(vectors))
    return solve_lex(a, v)


def span_eq(u: Sequence[Vec], v: Sequence[Vec]) -> bool:
    return row_space_basis(u) == row_space_basis(v)


def intersect_spans(u: Sequence[Vec], v: Sequence[Vec]) -> tuple[Vec, ...]:
    """Basis of span(u) ∩ span(v) via the kernel of the stacked system."""
    if not u or not v:
        return ()
    a = transpose(tuple(u) + tuple(mat_neg(tuple(v))))
    combined = kernel(a)
    du = len(u)
    out = []
    for k in combined:
        w = zeros_vec(len(u[0]))
        for c, basis_vec in zip(k[:du], u):
            w = vec_add(w, vec_scale(c, basis_vec))
        out.append(w)
    return row_space_basis(out)


def extend_to_basis(vectors: Sequence[Vec], n: int) -> tuple[int, ...]:
    """Indices of standard basis vectors completing the span to all of
    Q^n, greedily in index order."""
    current = list(vectors)
    chosen = []
    r = rank(tuple(current)) if current else 0
    for i in range(n):
        if r == n:
            break
        cand = current + [unit_vec(n, i)]
        if rank(tuple(cand)) > r:
            current = cand
            chosen.append(i)
            r += 1
    if r != n:
        raise ValueError("could not complete to a basis")
    return tuple(chosen)


def column_space_basis(a: Mat) -> tuple[Vec, ...]:
    return row_space_basis(transpose(a))


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


def poly_mul(a: Poly, b: Poly) -> Poly:
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_squarefree_part(p: Poly) -> Poly:
    g = poly_gcd(p, poly_deriv(p))
    q, r = poly_divmod(p, g)
    assert poly_is_zero(r)
    return poly_monic(q)


def poly_eval_mat(p: Poly, a: Mat) -> Mat:
    n = nrows(a)
    out = zeros(n, n)
    for c in p:
        out = mat_mul(out, a) if not is_zero_mat(out) else out
        if c != 0:
            out = mat_add(out, mat_scale(c, identity(n)))
    return out


def charpoly(a: Mat) -> Poly:
    """Monic characteristic polynomial via the Faddeev-LeVerrier
    recursion (division-free apart from exact rational division by k)."""
    n = nrows(a)
    if n != ncols(a):
        raise ValueError("characteristic polynomial of non-square matrix")
    coeffs = [ONE]
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        ck = -trace(am) / k
        coeffs.append(ck)
        m = mat_add(am, mat_scale(ck, identity(n)))
    return tuple(coeffs)


def minimal_polynomial(a: Mat) -> Poly:
    """Monic minimal polynomial, found as the first linear dependency
    among the flattened powers I, A, A^2, ..."""
    n = nrows(a)
    powers: list[Vec] = []
    tracker = SpanTracker()
    cur = identity(n)
    for d in range(n * n + 1):
        flat = tuple(x for row in cur for x in row)
        if not tracker.add(flat):
            coords = coords_in(powers, flat)
            assert coords is not None
            # x^d - sum coords_i x^i, descending order
            desc = [ONE] + [-coords[d - 1 - i] for i in range(d)]
            return tuple(desc)
        powers.append(flat)
        cur = mat_mul(cur, a)
    raise AssertionError("unreachable: minimal polynomial not found")


class SpanTracker:
    """Incrementally maintained row space in reduced form, so repeated
    membership tests and insertions stay linear in the current rank.
    Each row keeps the list of its non-zero columns, and every update
    loops over that support only."""

    def __init__(self):
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []
        self.supports: list[list[int]] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: Vec) -> list[Fraction]:
        w = list(v)
        for row, p, support in zip(self.rows, self.pivots, self.supports):
            c = w[p]
            if c:
                for k in support:
                    w[k] -= c * row[k]
        return w

    def contains(self, v: Vec) -> bool:
        return not any(self._reduce(v))

    def add(self, v: Vec) -> bool:
        """Insert v; returns True if it enlarged the span."""
        w = self._reduce(v)
        support = [k for k, x in enumerate(w) if x]
        if not support:
            return False
        p = support[0]
        inv = 1 / w[p]
        w = [x * inv if x else ZERO for x in w]
        for idx, row in enumerate(self.rows):
            c = row[p]
            if c:
                for k in support:
                    row[k] -= c * w[k]
                self.supports[idx] = [k for k, x in enumerate(row) if x]
        self.rows.append(w)
        self.pivots.append(p)
        self.supports.append(support)
        return True
