import random
from fractions import Fraction

from metriclie import linalg as la

from conftest import (
    naive_in_span,
    naive_poly_mul,
    naive_rank,
    naive_rref,
    naive_zeros,
    rand_fraction,
    rand_matrix,
)


def test_rref_identity():
    m = la.identity(4)
    assert naive_rref(m) == (m, (0, 1, 2, 3))
    span = la.IntSpan(4)
    for row in m:
        span.add(la.int_row(row))
    assert span.basis() == la.rational_span(m, 4).basis() == m
    assert sorted(span.pivots) == [0, 1, 2, 3]
    assert la.inverse(m) == m and la.kernel(m) == ()


def test_kernel_and_rank_are_complementary():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rand_matrix(rng, n)
        ker = la.kernel(m)
        assert naive_rank(m) + len(ker) == n
        for v in ker:
            assert la.is_zero_vec(la.mat_vec(m, v))


def test_inverse_round_trip():
    rng = random.Random(2)
    count = 0
    while count < 25:
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        if naive_rank(m) != n:
            continue
        count += 1
        inv = la.inverse(m)
        assert la.mat_mul(m, inv) == la.identity(n)
        assert la.mat_mul(inv, m) == la.identity(n)


def test_solve_lex_solves():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n)
        x = tuple(rand_fraction(rng) for _ in range(n))
        b = la.mat_vec(a, x)
        sol = la.solve_lex(a, b)
        assert sol is not None
        assert la.mat_vec(a, sol) == b


def test_charpoly_cayley_hamilton():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, bound=2)
        cp = la.charpoly(m)
        assert la.poly_deg(cp) == n
        assert la.is_zero_mat(la.poly_eval_mat(cp, m))


def test_minimal_polynomial_divides_charpoly():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, bound=2)
        mp = la.minimal_polynomial(m)
        assert la.is_zero_mat(la.poly_eval_mat(mp, m))
        _, rem = la.poly_divmod(la.charpoly(m), mp)
        assert all(c == 0 for c in rem)


def test_squarefree_part_has_no_repeated_factors():
    # (x-1)^2 (x+2) -> squarefree part (x-1)(x+2)
    p = naive_poly_mul(
        naive_poly_mul((Fraction(1), Fraction(-1)), (Fraction(1), Fraction(-1))),
        (Fraction(1), Fraction(2)),
    )
    sf = la.poly_squarefree_part(p)
    g = la.poly_gcd(sf, la.poly_deriv(sf))
    assert la.poly_deg(g) == 0


def test_int_span_matches_row_space():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 6)
        vectors = [tuple(rand_fraction(rng) for _ in range(n)) for _ in range(8)]
        span = la.IntSpan(n)
        kept = []
        for v in vectors:
            if span.add(la.int_row(v)):
                kept.append(v)
        assert len(kept) == span.dim == naive_rank(tuple(vectors))
        assert la.rational_span(kept, n).basis() == la.rational_span(vectors, n).basis() == span.basis()
        for v in vectors:
            assert not span.reduce(la.int_row(v))
        for _ in range(3):
            probe = tuple(rand_fraction(rng) for _ in range(n))
            assert (not span.reduce(la.int_row(probe))) == naive_in_span(vectors, probe)


def test_intersect_spans():
    e = [la.unit_vec(3, i) for i in range(3)]
    inter = la.intersect_spans(la.rational_span(e[:2], 3), la.rational_span(e[1:], 3)).basis()
    assert len(inter) == 1
    assert naive_in_span(inter, e[1]) and naive_in_span((e[1],), inter[0])


def test_proportionality():
    m = la.mat
    b = m(((1, 2), (2, Fraction(-1, 3))))
    assert la.proportionality(m(((3, 6), (6, -1))), b) == 3
    assert la.proportionality(naive_zeros(2, 2), b) == 0
    assert la.proportionality(m(((3, 6), (6, 1))), b) is None
    assert la.proportionality(m(((0, 1), (1, 0))), m(((0, 2), (2, 0)))) == Fraction(1, 2)
    # against the zero matrix only the zero matrix is proportional
    assert la.proportionality(naive_zeros(2, 2), naive_zeros(2, 2)) == 0
    assert la.proportionality(b, naive_zeros(2, 2)) is None
    # 1x1, and an int entry still gives an exact Fraction
    assert la.proportionality(((1,),), ((2,),)) == Fraction(1, 2)
    assert type(la.proportionality(((1,),), ((2,),))) is Fraction
    assert la.proportionality(((0,),), ((0,),)) == 0
    assert la.proportionality(((5,),), ((0,),)) is None
    assert la.proportionality((), ()) == 0
