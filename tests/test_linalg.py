import random
from fractions import Fraction

from metriclie import linalg as la
from metriclie.core import SubspaceBasis

from conftest import (
    naive_identity,
    naive_in_span,
    naive_poly_deg,
    naive_poly_divmod,
    naive_poly_mul,
    naive_rank,
    naive_rref,
    naive_zeros,
    rand_fraction,
    rand_matrix,
    rational_solve_lex,
    reference_int_row,
    reference_rational_span,
    reference_span_basis,
)


def test_rref_identity():
    m = naive_identity(4)
    assert naive_rref(m) == (m, (0, 1, 2, 3))
    span = la.IntSpan(4)
    for row in m:
        span.add(reference_int_row(row))
    assert reference_span_basis(span) == reference_span_basis(reference_rational_span(m, 4)) == m
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
        assert la.mat_mul(m, inv) == naive_identity(n)
        assert la.mat_mul(inv, m) == naive_identity(n)


def test_solve_lex_solves():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n)
        x = tuple(rand_fraction(rng) for _ in range(n))
        b = la.mat_vec(a, x)
        sol = rational_solve_lex(a, b)
        assert sol is not None
        assert la.mat_vec(a, sol) == b


def test_charpoly_cayley_hamilton():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, bound=2)
        cp = la.charpoly(m)
        assert naive_poly_deg(cp) == n
        assert la.is_zero_mat(la.poly_eval_mat(cp, m))


def test_minimal_polynomial_divides_charpoly():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, bound=2)
        mp = la.minimal_polynomial(m)
        assert la.is_zero_mat(la.poly_eval_mat(mp, m))
        _, rem = naive_poly_divmod(la.charpoly(m), mp)
        assert all(c == 0 for c in rem)


def test_squarefree_part_has_no_repeated_factors():
    # (x-1)^2 (x+2) -> squarefree part (x-1)(x+2)
    p = naive_poly_mul(
        naive_poly_mul((Fraction(1), Fraction(-1)), (Fraction(1), Fraction(-1))),
        (Fraction(1), Fraction(2)),
    )
    sf = la.poly_squarefree_part(p)
    g = la.poly_gcd(sf, la.poly_deriv(sf))
    assert naive_poly_deg(g) == 0


def test_int_span_matches_row_space():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 6)
        vectors = [tuple(rand_fraction(rng) for _ in range(n)) for _ in range(8)]
        span = la.IntSpan(n)
        kept = []
        for v in vectors:
            if span.add(reference_int_row(v)):
                kept.append(v)
        assert len(kept) == span.dim == naive_rank(tuple(vectors))
        basis = reference_span_basis(span)
        assert reference_span_basis(reference_rational_span(kept, n)) == basis
        assert reference_span_basis(reference_rational_span(vectors, n)) == basis
        for v in vectors:
            assert not span.reduce(reference_int_row(v))
        for _ in range(3):
            probe = tuple(rand_fraction(rng) for _ in range(n))
            assert (not span.reduce(reference_int_row(probe))) == naive_in_span(vectors, probe)


def test_intersect_spans():
    e = [la.unit_vec(3, i) for i in range(3)]
    meet = la.intersect_spans(reference_rational_span(e[:2], 3), reference_rational_span(e[1:], 3))
    inter = reference_span_basis(meet)
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


def test_int_trace_square_reads_the_sparse_rows():
    """``la.int_trace_square`` of sparse integer rows is tr(A^2) of the
    dense A, and of its transpose, as ``trace_product`` sums it."""
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 7)
        a = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        rows = [tuple((q, x) for q, x in enumerate(row) if x) for row in a]
        cols = [tuple((p, x) for p, x in enumerate(col) if x) for col in zip(*a)]
        assert la.int_trace_square(rows) == la.int_trace_square(cols) == la.trace_product(a, a)


def test_int_span_rref_matches_the_dense_rref():
    """``IntSpan.rref`` is the dense reference RREF over its L, by
    increasing leading column, L at each lead, ``normalised``, on seeded
    integer matrices: zero, rank-deficient, of full rank, and with more
    rows than columns."""
    rng = random.Random(4001)
    cases = [[[0] * nc for _ in range(nr)] for nr, nc in ((1, 1), (3, 4), (5, 2))]
    for _ in range(120):
        nc = rng.randint(1, 6)
        nr = rng.choice((max(nc - 2, 1), nc, nc + 3))
        a = [[rng.choice((0, rng.randint(-5, 5))) for _ in range(nc)] for _ in range(nr)]
        if nr > 2 and rng.random() < 0.4:
            a[-1] = [2 * x - 3 * y for x, y in zip(a[0], a[1])]
        cases.append(a)
    kinds = set()
    for a in cases:
        nr, nc = len(a), len(a[0])
        den, rows = la.IntSpan(nc, (dict(enumerate(r)) for r in a)).rref()
        reduced, pivots = naive_rref(tuple(tuple(Fraction(x) for x in r) for r in a))
        assert la.mat_over(la.dense(rows, nc), den) == reduced[: len(pivots)]
        assert [r[0] for r in rows] == [(p, den) for p in pivots]
        assert la.normalised(den, rows) == (den, rows)
        rank = len(pivots)
        kinds.add("zero" if not rank else "full" if rank == min(nr, nc) else "deficient")
        kinds.add("tall" if nr > nc else "wide")
    assert kinds == {"zero", "full", "deficient", "tall", "wide"}


def test_in_kernel_order_is_the_kernel_basis():
    """``SubspaceBasis.in_kernel_order`` of any rows spanning the
    solutions of seeded integer systems is ``SubspaceBasis.kernel`` of
    the system, row for row: the solutions fed shuffled, each scaled,
    and as mixed combinations with a dependent and a zero row."""
    rng = random.Random(4002)
    seen = set()
    for _ in range(150):
        n = rng.randint(1, 8)
        eqs = [
            {c: rng.randint(-4, 4) for c in rng.sample(range(n), rng.randint(1, n))}
            for _ in range(rng.randint(0, n))
        ]
        expected = SubspaceBasis.kernel(n, eqs)
        sols = [dict(r) for r in expected.int_rows[1]]
        rng.shuffle(sols)
        scaled = [{c: k * x for c, x in s.items()} for s, k in zip(sols, (rng.choice((-6, -1, 2, 5)) for _ in sols))]
        # row i is k s_i plus combinations of the rows before it: an
        # invertible change of basis
        mixed = []
        for i, s in enumerate(sols):
            k = rng.choice((-3, 2, 7))
            acc = {c: k * x for c, x in s.items()}
            for earlier in sols[:i]:
                k = rng.randint(-2, 2)
                for c, x in earlier.items():
                    acc[c] = acc.get(c, 0) + k * x
            mixed.append(acc)
        if len(mixed) > 1:
            mixed.insert(rng.randrange(len(mixed)), {c: mixed[0].get(c, 0) - mixed[1].get(c, 0) for c in range(n)})
        mixed.append({})
        for rows in (sols, scaled, mixed):
            assert SubspaceBasis.in_kernel_order(n, rows).int_rows == expected.int_rows
        seen.add(min(expected.dim, 2))
        # the kernel basis of any system with these solutions is the same
        other = la.IntSpan(n, eqs).rref()[1]
        assert SubspaceBasis.kernel(n, map(dict, other)).int_rows == expected.int_rows
    assert seen == {0, 1, 2}
