"""Differential tests of the zero-skipping exact kernels.

Each kernel is compared with a naive reference written here from its
definition: the triple sum for products, the trace of the full product
for pairings, dense elimination for row spaces, and the basis-pair sum
for the bracket.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclie import linalg as la
from metriclie.core import (
    LieAlgebra,
    _associative_closure,
    ad,
    killing_matrix,
    nilradical,
    series,
)
from metriclie.reduction import random_double_extension

from conftest import rand_fraction, random_abelian_base

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# naive references
# ---------------------------------------------------------------------------


def naive_mat_mul(a, b):
    m = len(b)
    k = len(b[0]) if b else 0
    return tuple(
        tuple(sum((row[t] * b[t][j] for t in range(m)), ZERO) for j in range(k))
        for row in a
    )


def naive_trace_product(a, b):
    return la.trace(naive_mat_mul(a, b))


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


def naive_bracket(alg, x, y):
    out = la.zeros_vec(alg.dim)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out = la.vec_add(out, la.vec_scale(xi * yj, alg.basis_bracket(i, j)))
    return out


def old_minimal_polynomial(a):
    """The rank-of-all-powers search, one full rank per degree."""
    n = la.nrows(a)
    powers = []
    cur = la.identity(n)
    for d in range(n * n + 1):
        flat = tuple(x for row in cur for x in row)
        stacked = tuple(powers) + (flat,)
        if la.rank(stacked) < len(stacked):
            coords = la.coords_in(powers, flat)
            return tuple([la.ONE] + [-coords[d - 1 - i] for i in range(d)])
        powers.append(flat)
        cur = naive_mat_mul(cur, a)
    raise AssertionError("unreachable")


def naive_closure_span(generators):
    """Span of the associative algebra generated by the matrices, by
    multiplying every pair until the flattened span stops growing."""
    flats = la.row_space_basis(
        tuple(tuple(x for row in g for x in row) for g in generators)
    )
    n = la.nrows(generators[0])

    def unflat(v):
        return tuple(v[i * n : (i + 1) * n] for i in range(n))

    while True:
        mats = [unflat(v) for v in flats]
        prods = [
            tuple(x for row in naive_mat_mul(p, q) for x in row)
            for p in mats
            for q in mats
        ]
        grown = la.row_space_basis(tuple(flats) + tuple(prods))
        if len(grown) == len(flats):
            return flats
        flats = grown


# ---------------------------------------------------------------------------
# seeded families
# ---------------------------------------------------------------------------


def seeded_matrix(rng, r, c, density):
    return tuple(
        tuple(rand_fraction(rng, 4, 5) if rng.random() < density else ZERO for _ in range(c))
        for _ in range(r)
    )


def criterion3_family(count, seed=1003):
    """Members of the acceptance criterion-3 family: an abelian base of
    dimension at most 4 extended once or twice."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = random_abelian_base(rng, max_dim=4)
        for _ in range(rng.randint(1, 2)):
            m = random_double_extension(rng, m)
        out.append(m)
    return out


rationals = st.one_of(
    st.just(ZERO),
    st.just(ZERO),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@st.composite
def matrix_pair(draw, square_product=False):
    """a (n x m) and b (m x k); k = n when the product must be square."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    k = n if square_product else draw(st.integers(1, 5))
    a = tuple(tuple(draw(rationals) for _ in range(m)) for _ in range(n))
    b = tuple(tuple(draw(rationals) for _ in range(k)) for _ in range(m))
    return a, b


# ---------------------------------------------------------------------------
# mat_mul, vec_dot, trace_product
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(matrix_pair())
def test_mat_mul_matches_triple_sum(pair):
    a, b = pair
    assert la.mat_mul(a, b) == naive_mat_mul(a, b)


def test_mat_mul_seeded_shapes_and_densities():
    rng = random.Random(41)
    for _ in range(120):
        n, m, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.0, 0.15, 0.5, 1.0))
        a = seeded_matrix(rng, n, m, density)
        b = seeded_matrix(rng, m, k, rng.choice((0.0, 0.15, 0.5, 1.0)))
        prod = la.mat_mul(a, b)
        assert prod == naive_mat_mul(a, b)
        assert all(isinstance(x, Fraction) for row in prod for x in row)
        assert la.vec_dot(a[0], la.transpose(b)[0]) == prod[0][0]
    # a row of width zero times the empty matrix
    assert la.mat_mul(((), ()), ()) == ((), ())
    assert la.mat_mul((), ()) == ()


def test_mat_mul_dimension_mismatch_raises():
    rng = random.Random(42)
    for _ in range(20):
        n, m, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        p = m + rng.randint(1, 3)
        a = seeded_matrix(rng, n, m, 0.5)
        b = seeded_matrix(rng, p, k, 0.5)
        with pytest.raises(ValueError):
            la.mat_mul(a, b)
        with pytest.raises(ValueError):
            la.trace_product(a, b)


@settings(max_examples=150, deadline=None)
@given(matrix_pair(square_product=True))
def test_trace_product_is_trace_of_product(pair):
    a, b = pair
    assert la.trace_product(a, b) == la.trace(la.mat_mul(a, b))
    assert la.trace_product(a, b) == naive_trace_product(a, b)
    assert la.trace_product(b, a) == la.trace_product(a, b)


def test_trace_product_seeded_square():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(0, 7)
        a = seeded_matrix(rng, n, n, rng.choice((0.0, 0.2, 1.0)))
        b = seeded_matrix(rng, n, n, rng.choice((0.0, 0.2, 1.0)))
        assert la.trace_product(a, b) == naive_trace_product(a, b)


# ---------------------------------------------------------------------------
# rref, kernel, SpanTracker
# ---------------------------------------------------------------------------


def test_rref_kernel_span_tracker_agree():
    rng = random.Random(44)
    for _ in range(80):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        a = seeded_matrix(rng, r, c, rng.choice((0.0, 0.2, 0.5, 1.0)))
        reduced, pivots = la.rref(a)
        assert (reduced, pivots) == naive_rref(a)
        ker = la.kernel(a)
        assert len(pivots) + len(ker) == c
        for v in ker:
            assert la.is_zero_vec(la.mat_vec(a, v))
        tracker = la.SpanTracker()
        grew = [tracker.add(row) for row in a]
        assert tracker.dim == len(pivots)
        # a row enlarges the span exactly when the rank goes up
        assert grew == [la.rank(a[: i + 1]) > la.rank(a[:i]) for i in range(r)]
        assert la.span_eq(tuple(tuple(x) for x in tracker.rows), reduced[: len(pivots)])
        # the tracker's rows stay reduced against each other's pivots
        for row, p in zip(tracker.rows, tracker.pivots):
            assert row[p] == 1
            assert all(other[p] == 0 for other in tracker.rows if other is not row)
        for support, row in zip(tracker.supports, tracker.rows):
            assert support == [k for k, x in enumerate(row) if x]
        for v in ker:
            # kernel vectors are orthogonal to the row space
            for row in tracker.rows:
                assert la.vec_dot(row, v) == 0
        for _ in range(5):
            probe = seeded_matrix(rng, 1, c, 0.5)[0]
            assert tracker.contains(probe) == la.in_span(reduced[: len(pivots)], probe)


# ---------------------------------------------------------------------------
# minimal polynomial
# ---------------------------------------------------------------------------


def seeded_minpoly_inputs():
    rng = random.Random(45)
    out = [la.zeros(3, 3), la.identity(4), la.mat_scale(3, la.identity(2))]
    for _ in range(25):
        n = rng.randint(1, 5)
        out.append(seeded_matrix(rng, n, n, rng.choice((0.2, 0.5, 1.0))))
    for _ in range(15):
        # conjugates of diagonal matrices with repeated eigenvalues, so the
        # minimal polynomial is a proper divisor of the characteristic one
        n = rng.randint(2, 5)
        p = seeded_matrix(rng, n, n, 1.0)
        if la.rank(p) != n:
            continue
        d = tuple(
            tuple(Fraction(rng.choice((1, -2))) if i == j else ZERO for j in range(n))
            for i in range(n)
        )
        out.append(la.mat_mul(la.mat_mul(p, d), la.inverse(p)))
    # a nilpotent Jordan block
    out.append(tuple(tuple(la.ONE if j == i + 1 else ZERO for j in range(4)) for i in range(4)))
    return out


def test_minimal_polynomial_matches_rank_search():
    for a in seeded_minpoly_inputs():
        mp = la.minimal_polynomial(a)
        assert mp == old_minimal_polynomial(a)
        assert la.is_zero_mat(la.poly_eval_mat(mp, a))


# ---------------------------------------------------------------------------
# bracket, killing_matrix, nilradical
# ---------------------------------------------------------------------------


def test_bracket_matches_basis_pair_sum():
    rng = random.Random(46)
    algebras = [m.algebra for m in criterion3_family(12)]
    algebras.append(LieAlgebra(3, ("e", "f", "h"), {(0, 1): (0, 0, 1), (0, 2): (2, 0, 0), (1, 2): (0, -2, 0)}))
    for alg in algebras:
        n = alg.dim
        for _ in range(6):
            x = seeded_matrix(rng, 1, n, rng.choice((0.2, 0.6, 1.0)))[0]
            y = seeded_matrix(rng, 1, n, rng.choice((0.2, 0.6, 1.0)))[0]
            assert alg.bracket(x, y) == naive_bracket(alg, x, y)
            assert alg.bracket(y, x) == la.vec_scale(-1, alg.bracket(x, y))
        for i in range(n):
            for j in range(n):
                assert alg.bracket(la.unit_vec(n, i), la.unit_vec(n, j)) == alg.basis_bracket(i, j)


def test_killing_and_nilradical_match_trace_of_products():
    family = criterion3_family(30)
    non_nilpotent = 0
    for m in family:
        alg = m.algebra
        n = alg.dim
        ads = [ad(alg, la.unit_vec(n, i)).matrix for i in range(n)]
        old_killing = tuple(
            tuple(naive_trace_product(ads[i], ads[j]) for j in range(n)) for i in range(n)
        )
        assert killing_matrix(alg) == old_killing
        if series(alg).is_nilpotent:
            continue
        non_nilpotent += 1
        assoc = _associative_closure(ads)
        if n <= 6:
            assert la.span_eq(
                tuple(tuple(x for row in b for x in row) for b in assoc),
                naive_closure_span(ads),
            )
        old_rows = tuple(tuple(naive_trace_product(adi, b) for adi in ads) for b in assoc)
        assert nilradical(alg).vectors == la.kernel(old_rows)
    assert non_nilpotent >= 5
