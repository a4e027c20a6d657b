"""Shared builders for randomized test families.

Everything is seeded explicitly so failures reproduce.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from metriclie import linalg as la
from metriclie.core import LieAlgebra, ad
from metriclie.forms import MetricLieAlgebra, SymBilinearForm
from metriclie.reduction import (
    build_ab,
    build_example42,
    iterated_double_extension,
    random_double_extension,
)


def rand_fraction(rng: random.Random, bound: int = 3, max_denominator: int = 3) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, max_denominator))


def rand_matrix(rng: random.Random, n: int, bound: int = 3) -> la.Mat:
    return tuple(
        tuple(rand_fraction(rng, bound) for _ in range(n)) for _ in range(n)
    )


def random_abelian_base(rng: random.Random, max_dim: int = 6):
    n = rng.randint(1, max_dim)
    s = rng.randint(0, n)
    return build_ab(n, s)


def random_solvable_metric(rng: random.Random, max_base_dim: int = 5, max_steps: int = 2):
    """A random solvable metric Lie algebra built by extending an
    abelian base one or two times."""
    base = random_abelian_base(rng, max_base_dim)
    steps = rng.randint(1, max_steps)
    return iterated_double_extension(rng, base, steps)


def random_vector(rng: random.Random, n: int, bound: int = 3) -> la.Vec:
    v = tuple(rand_fraction(rng, bound) for _ in range(n))
    if la.is_zero_vec(v):
        return la.unit_vec(n, rng.randrange(n))
    return v


def naive_zeros(r: int, c: int) -> la.Mat:
    return tuple((la.ZERO,) * c for _ in range(r))


def naive_mat_add(a, b) -> la.Mat:
    return tuple(la.vec_add(r, s) for r, s in zip(a, b))


def naive_mat_scale(c, a) -> la.Mat:
    c = la.frac(c)
    return tuple(tuple(c * x for x in r) for r in a)


# ---------------------------------------------------------------------------
# dense Fraction elimination: the reference for every ``la`` elimination
# ---------------------------------------------------------------------------


def naive_rref(a):
    """Dense Gauss-Jordan elimination, every entry updated."""
    rows = [list(r) for r in a]
    nr, nc = len(rows), (len(rows[0]) if rows else 0)
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(x) for x in rows), tuple(pivots)


def naive_rank(a):
    return len(naive_rref(a)[1])


def naive_row_space_basis(vectors):
    """The non-zero rows of the RREF."""
    if not vectors:
        return ()
    reduced, pivots = naive_rref(tuple(vectors))
    return reduced[: len(pivots)]


def naive_kernel(a):
    """One null vector per free column of the RREF; a dense matrix
    without rows has no column count, and its kernel is ()."""
    nc = len(a[0]) if a else 0
    reduced, pivots = naive_rref(a)
    out = []
    for fc in (c for c in range(nc) if c not in pivots):
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][fc]
        out.append(tuple(v))
    return tuple(out)


def naive_solve_lex(a, b):
    """The solution of a x = b with free variables zero, read off the
    RREF of [a | b]; None if the last column is a pivot."""
    nc = len(a[0]) if a else 0
    reduced, pivots = naive_rref(tuple(tuple(row) + (bi,) for row, bi in zip(a, b)))
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for i, pc in enumerate(pivots):
        x[pc] = reduced[i][nc]
    return tuple(x)


def naive_inverse(a):
    """The right half of the RREF of [a | I]; None if a is singular."""
    n = len(a)
    reduced, pivots = naive_rref(tuple(tuple(row) + la.unit_vec(n, i) for i, row in enumerate(a)))
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in reduced)


def naive_in_span(vectors, v):
    if not any(v):
        return True
    return bool(vectors) and naive_rank(tuple(vectors)) == naive_rank(tuple(vectors) + (v,))


def naive_mat_pow(a, k):
    """a^k as k - 1 dense products; the identity for k = 0."""
    out = la.identity(len(a))
    for _ in range(k):
        out = la.mat_mul(out, a)
    return out


def naive_trace(a):
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def reference_charpoly(a):
    """The dense ``Fraction`` Faddeev-LeVerrier recursion: M_0 = I,
    c_k = -tr(A M_(k-1)) / k, M_k = A M_(k-1) + c_k I. The reference for
    the integer ``la.charpoly``."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("characteristic polynomial of non-square matrix")
    coeffs = [Fraction(1)]
    m = la.identity(n)
    for k in range(1, n + 1):
        am = la.mat_mul(a, m)
        ck = -naive_trace(am) / k
        coeffs.append(ck)
        m = naive_mat_add(am, naive_mat_scale(ck, la.identity(n)))
    return tuple(coeffs)


def reference_poly_eval_mat(p, a):
    """p(A) by dense ``Fraction`` Horner steps. The reference for the
    integer ``la.poly_eval_mat``."""
    n = len(a)
    out = naive_zeros(n, n)
    for c in p:
        out = la.mat_mul(out, a) if not la.is_zero_mat(out) else out
        if c != 0:
            out = naive_mat_add(out, naive_mat_scale(c, la.identity(n)))
    return out


def naive_poly_mul(a, b):
    """The product of two polynomials in descending coefficient order."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return la.poly_trim(out)


def reference_skew_residual(a, b):
    """a^T b + b a as two dense Fraction products: zero exactly when a
    is skew for the bilinear form b. The reference for the integer
    skewness kernel ``forms._skew_pairing``."""
    return naive_mat_add(la.mat_mul(la.transpose(a), b), la.mat_mul(b, a))


@pytest.fixture
def rng():
    return random.Random(20260823)


def reference_random_skew_map(rng, form, bound=2, max_denominator=4):
    """The Fraction draw of random_skew_map before it drew in integers:
    K built entry by entry as Fractions, then B^{-1} K as a product."""
    n = form.dim
    k = [[la.ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.randint(1, max_denominator)
            c = Fraction(rng.randint(-bound * den, bound * den), den)
            k[i][j] = c
            k[j][i] = -c
    return la.mat_mul(form.inverse, tuple(tuple(r) for r in k))


def draw_forms():
    """Diagonal ±1 forms of dimension 1-8, the non-diagonal forms of
    example42 and of a hyperbolic plane, and forms with non-unit and
    non-integer entries."""
    forms = [build_ab(n, s).form for n in range(1, 9) for s in range(n + 1)]
    forms.append(build_example42().form)
    forms.append(SymBilinearForm(((0, 1), (1, 0))))
    forms.append(SymBilinearForm(((2, 0), (0, -3))))
    half = Fraction(1, 2)
    forms.append(SymBilinearForm(((half, 1, 0), (1, 0, 0), (0, 0, Fraction(-5, 3)))))
    return forms


# ---------------------------------------------------------------------------
# Fraction structure-constant code: the reference for ``bracket`` and the
# centroid system, which now run on the integer structure table
# ---------------------------------------------------------------------------


def naive_basis_bracket(alg, i, j):
    """[b_i, b_j] read off the rational ``brackets`` view."""
    if i < j:
        return alg.brackets.get((i, j), la.zeros_vec(alg.dim))
    if i > j:
        return la.vec_scale(-1, alg.brackets.get((j, i), la.zeros_vec(alg.dim)))
    return la.zeros_vec(alg.dim)


def reference_bracket(alg, x, y):
    """sum_ij x_i y_j [b_i, b_j] on the Fraction ``brackets`` dict."""
    out = [la.ZERO] * alg.dim
    y_support = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in y_support:
            if i < j:
                coeffs = alg.brackets.get((i, j))
                c = xi * yj
            elif i > j:
                coeffs = alg.brackets.get((j, i))
                c = -xi * yj
            else:
                continue
            if coeffs is None:
                continue
            for k, ck in enumerate(coeffs):
                if ck:
                    out[k] += c * ck
    return tuple(out)


def naive_subalgebra_on(alg, sub):
    """The bracket restricted to a subspace closed under it, on the
    basis ``sub.vectors``: each coordinate vector solved densely."""
    k = sub.dim
    brackets = {}
    for i in range(k):
        for j in range(i + 1, k):
            w = alg.bracket(sub.vectors[i], sub.vectors[j])
            brackets[(i, j)] = naive_solve_lex(la.transpose(sub.vectors), w)
    return LieAlgebra(k, tuple(f"u{i}" for i in range(k)), brackets)


def reference_commutant_of_adjoint(alg):
    """{M : M ad(x) = ad(x) M} from dense Fraction rows of the ``ad``
    matrices, n^2 rows of width n^2 per basis vector."""
    n = alg.dim
    ads = [ad(alg, la.unit_vec(n, i)).matrix for i in range(n)]
    rows = []
    for a in ads:
        # (M a - a M)_{kl} = sum_p M_{kp} a_{pl} - a_{kp} M_{pl}
        for k in range(n):
            for l in range(n):
                row = [la.ZERO] * (n * n)
                for p in range(n):
                    row[k * n + p] += a[p][l]
                    row[p * n + l] -= a[k][p]
                rows.append(tuple(row))
    sols = la.kernel(tuple(rows))
    return tuple(
        tuple(tuple(s[i * n + j] for j in range(n)) for i in range(n)) for s in sols
    )


def reference_associative_closure(generators):
    """Basis of the (non-unital) associative matrix algebra generated by
    the given integer matrices: the span of the words in the generators,
    each new element multiplied on the left by the kept generators until
    no product enlarges the span, decided on the flattened matrices by
    ``la.IntSpan``. Its trace rows are the reference for the nilradical
    from the powers of one generic element."""
    if not generators:
        return []
    n = len(generators[0])

    def int_mul(a, b):
        b_support = [[(j, y) for j, y in enumerate(row) if y] for row in b]
        out = []
        for r in a:
            acc = [0] * n
            for x, support in zip(r, b_support):
                if x:
                    for j, y in support:
                        acc[j] += x * y
            out.append(acc)
        return out

    basis = []
    tracker = la.IntSpan(n * n)

    def try_add(mm):
        flat = {p * n + q: x for p, row in enumerate(mm) for q, x in enumerate(row) if x}
        if not tracker.add(flat):
            return False
        basis.append(mm)
        return True

    for g in generators:
        try_add(g)
    kept = list(basis)
    frontier = list(basis)
    while frontier:
        new = []
        for b in frontier:
            for g in kept:
                prod = int_mul(g, b)
                if try_add(prod):
                    new.append(prod)
            if len(basis) == n * n:
                return basis
        frontier = new
    return basis


# ---------------------------------------------------------------------------
# dense Fraction form code: the reference for the integer Gram kernel
# ``SymBilinearForm.int_gram`` and for ``reduction.change_basis`` on the integer table
# ---------------------------------------------------------------------------


def reference_bilinear(b, u, v):
    """u^T B v as a dense Fraction product. A v of the wrong length
    raises ``ValueError``; a u of the wrong length is cut by ``zip``."""
    return sum((x * y for x, y in zip(u, la.mat_vec(b, v))), Fraction(0))


def reference_gram(form, vectors):
    """The Gram matrix B(v_i, v_j) entry by entry."""
    vecs = [la.vec(v) for v in vectors]
    return tuple(tuple(reference_bilinear(form.matrix, u, v) for v in vecs) for u in vecs)


def reference_is_totally_isotropic(form, sub):
    for u in sub.vectors:
        for v in sub.vectors:
            if reference_bilinear(form.matrix, u, v) != 0:
                return False, (u, v)
    return True, None


def reference_orthogonal_complement(form, sub):
    """The kernel of the dense rows B u."""
    if sub.dim == 0:
        return la.identity(form.dim)
    return la.kernel(tuple(la.mat_vec(form.matrix, u) for u in sub.vectors))


def reference_pairing_duals(form, u):
    """The pairing system [B u_j | d_ij] on dense Fraction rows, re-solved
    for each dual with the duals found before as rows [B v*_j | 0]."""
    k = len(u)
    duals = []
    for i in range(k):
        rows = [la.mat_vec(form.matrix, uj) for uj in u]
        rows += [la.mat_vec(form.matrix, d) for d in duals]
        rhs = la.vec([1 if j == i else 0 for j in range(k)] + [0] * len(duals))
        y = la.solve_lex(tuple(rows), rhs)
        if y is None:
            return None
        y = la.vec_sub(y, la.vec_scale(reference_bilinear(form.matrix, y, y) / 2, u[i]))
        duals.append(y)
    return tuple(duals)


def reference_change_basis(m, columns, names):
    """Each bracket of the new basis as a Fraction bracket mapped by the
    dense T^{-1}, and the Gram matrix entry by entry."""
    cols = tuple(la.vec(c) for c in columns)
    n = m.dim
    t_inv = la.inverse(la.transpose(cols))
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            brackets[(i, j)] = la.mat_vec(t_inv, reference_bracket(m.algebra, cols[i], cols[j]))
    gram = SymBilinearForm(reference_gram(m.form, cols))
    return MetricLieAlgebra(LieAlgebra(n, tuple(names), brackets), gram)


# ---------------------------------------------------------------------------
# the sympy spectrum code: the reference for the owned Q[x] / Q(sqrt d)
# layer (linalg's polynomial functions, quadratic, obstruction._decide)
# ---------------------------------------------------------------------------


def to_sympy_poly(p):
    """A ``la.Poly`` as a ``sympy.Poly`` over QQ in the symbol x."""
    import sympy as sp

    return sp.Poly([sp.Rational(c.numerator, c.denominator) for c in p], sp.Symbol("x"), domain="QQ")


def from_sympy_poly(p):
    """The coefficients of a ``sympy.Poly`` as a ``la.Poly``."""
    return tuple(Fraction(int(c.p), int(c.q)) for c in p.all_coeffs())


def reference_graeffe(p):
    """prod (y - z^2) over the roots z of the monic sympy Poly p, as
    (-1)^n (E(y)^2 - y O(y)^2) for p(x) = E(x^2) + x O(x^2)."""
    import sympy as sp

    x = p.gen
    ascending = p.all_coeffs()[::-1]
    even = sp.Poly(ascending[0::2][::-1], x, domain="QQ")
    odd = sp.Poly(ascending[1::2][::-1] or [0], x, domain="QQ")
    g = even**2 - sp.Poly(x, x, domain="QQ") * odd**2
    return -g if p.degree() % 2 else g


def reference_has_root(p, sign):
    """Whether the sympy Poly p has a real root of the given sign, by
    sympy's Sturm count on its square-free part."""
    q = p.sqf_part()
    at_zero = 1 if q.all_coeffs()[-1] == 0 else 0
    closed = q.count_roots(0, None) if sign > 0 else q.count_roots(None, 0)
    return closed - at_zero > 0


def reference_all_roots_real(p):
    q = p.sqf_part()
    return q.count_roots() == q.degree()


def reference_decide(p, n):
    """``obstruction._decide`` on a monic sympy Poly, with sympy's
    Graeffe transform, composition, gcd and root counts."""
    import sympy as sp

    from metriclie.errors import CertificateError, PreconditionError

    c = list(from_sympy_poly(p)) + [Fraction(0)] * 2
    checks = {"non_nilpotent": any(c[1:])}
    if not checks["non_nilpotent"]:
        return "nilpotent", checks
    residual = c[1] ** 2 - 2 * c[2]
    if residual != 0:
        raise PreconditionError(f"eigenvalue trace identity violated (residual {residual})")
    checks["trace_identity"] = True
    if n >= 6:
        return "out_of_scope_n_gt_5", checks
    checks["closed_under_negation"] = not any(c[1 : p.degree() + 1 : 2])
    if not checks["closed_under_negation"]:
        raise CertificateError("spectrum not closed under negation; no certified case applies")
    x = p.gen
    squares = reference_graeffe(p)
    if reference_has_root(reference_graeffe(squares), -1):
        checks["real_part_squared_equals_imaginary_part_squared"] = True
        tag = "case1_nonzero_real_part"
    elif reference_all_roots_real(squares) and reference_has_root(
        squares.gcd(squares.compose(sp.Poly(-x, x, domain="QQ"))), 1
    ):
        checks["real_eigenvalue_squared_equals_rotation_squared"] = True
        tag = "case2_imaginary_pair"
    else:
        raise CertificateError("spectrum matches no certified case")
    checks["exp_pattern_power_i_closed"] = True
    return tag, checks


def reference_factor_list(p):
    """sympy's ``factor_list`` of a ``la.Poly``: its monic irreducible
    factors and multiplicities, in sympy's order."""
    return [(from_sympy_poly(f.monic()), k) for f, k in to_sympy_poly(p).factor_list()[1]]


def random_rational_poly(rng: random.Random, max_degree: int = 6):
    """A monic rational polynomial of degree <= max_degree: a product of
    random linear, quadratic and cubic factors, some repeated, or one
    with random coefficients throughout."""
    def coeff():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    if rng.random() < 0.25:
        return (Fraction(1),) + tuple(coeff() for _ in range(rng.randint(0, max_degree)))
    p = (Fraction(1),)
    while True:
        f = (Fraction(1),) + tuple(coeff() for _ in range(rng.choice((1, 1, 2, 2, 3))))
        g = f
        while rng.random() < 0.3:
            g = la.poly_mul(g, f)
        if len(p) + len(g) - 2 > max_degree:
            return p
        p = la.poly_mul(p, g)


# ---------------------------------------------------------------------------
# the mpmath interval probe: the reference for the fixed-point probe
# ---------------------------------------------------------------------------


def reference_probe(boxes, t, precision_bits):
    """The coefficient intervals of prod (X - e^(t lambda)) for the
    eigenvalue boxes, in mpmath's interval context at precision_bits
    (relative, mpmath's meaning), and whether they exclude integrality.
    Each interval is ((re_lo, re_hi), (im_lo, im_hi)) with exact
    ``Fraction`` endpoints, and the integer test is decided on those."""
    from mpmath import iv
    from mpmath.libmp import to_rational

    def interval(lo, hi):
        # exact integer endpoints divided in interval arithmetic keep the
        # outward rounding certified
        lo_iv = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
        hi_iv = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
        return iv.mpf([lo_iv.a, hi_iv.b])

    def endpoints(x):
        return tuple(Fraction(*to_rational(e)) for e in x._mpi_)

    old_prec = iv.prec
    iv.prec = precision_bits
    try:
        tv = interval(t, t)
        coeffs = [(iv.mpf(1), iv.mpf(0))]
        for (rl, rh), (il, ih) in boxes:
            scale = iv.exp(interval(rl, rh) * tv)
            y = interval(il, ih) * tv
            wr, wi = scale * iv.cos(y), scale * iv.sin(y)
            nxt = coeffs + [(iv.mpf(0), iv.mpf(0))]
            for i, (cr, ci) in enumerate(coeffs):
                ar, ai = nxt[i + 1]
                nxt[i + 1] = (ar - (cr * wr - ci * wi), ai - (cr * wi + ci * wr))
            coeffs = nxt
        out = [(endpoints(cr), endpoints(ci)) for cr, ci in coeffs]
    finally:
        iv.prec = old_prec
    excluded = any(
        math.floor(re_hi) < math.ceil(re_lo) or not im_lo <= 0 <= im_hi
        for (re_lo, re_hi), (im_lo, im_hi) in out
    )
    return excluded, out
