"""Differential tests of the zero-skipping and integer exact kernels.

Each kernel is compared with a naive reference written here from its
definition: the triple sum for products, the trace of the full product
for pairings, dense elimination for row spaces, and the basis-pair sum
for the bracket. The certificates that run on the integer structure
table (Jacobi, invariance, Killing, ad, the skew-derivation system and
its sparse kernel) are compared with the dense ``Fraction`` versions
they replaced, copied here; the integer ``charpoly`` and
``poly_eval_mat`` with the ``Fraction`` recursions in conftest.
"""

import gzip
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclie import linalg as la
from metriclie.catalog import direct_sum, resolve, sl2, su2
from metriclie.core import (
    LieAlgebra,
    SubspaceBasis,
    ad,
    killing_matrix,
    killing_sums,
    nilradical,
    series,
    subspace_from_spanning,
    validate_structure,
)
from metriclie import einstein
from metriclie.documents import document_to_algebra, parse_document
from metriclie.forms import MetricLieAlgebra, SymBilinearForm, _map_pairing, is_invariant
from metriclie.reduction import (
    build_ab,
    build_example42,
    build_ko1,
    change_basis,
    iterated_double_extension,
    random_double_extension,
    random_skew_map,
    skew_derivation_space,
)

from conftest import (
    draw_forms,
    naive_basis_bracket,
    naive_identity,
    naive_in_span,
    naive_inverse,
    naive_kernel,
    naive_mat_add,
    naive_mat_pow,
    naive_mat_scale,
    naive_poly_mul,
    naive_rank,
    naive_row_space_basis,
    naive_rref,
    naive_solve_lex,
    naive_trace,
    naive_zeros,
    pool_metrics,
    rand_fraction,
    random_abelian_base,
    rational_solve_lex,
    reference_associative_closure,
    reference_charpoly,
    reference_int_row,
    reference_killing_sums,
    reference_poly_eval_mat,
    reference_skew_derivations,
    reference_skew_residual,
    reference_span_basis,
)

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
    return naive_trace(naive_mat_mul(a, b))


def naive_bracket(alg, x, y):
    out = la.zeros_vec(alg.dim)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out = la.vec_add(out, la.vec_scale(xi * yj, naive_basis_bracket(alg, i, j)))
    return out


def old_minimal_polynomial(a):
    """The rank-of-all-powers search, one full dense rank per degree."""
    n = la.nrows(a)
    powers = []
    cur = naive_identity(n)
    for d in range(n * n + 1):
        flat = tuple(x for row in cur for x in row)
        stacked = tuple(powers) + (flat,)
        if naive_rank(stacked) < len(stacked):
            coords = naive_solve_lex(la.transpose(tuple(powers)), flat)
            return tuple([la.ONE] + [-coords[d - 1 - i] for i in range(d)])
        powers.append(flat)
        cur = naive_mat_mul(cur, a)
    raise AssertionError("unreachable")


def int_matrix(a):
    """a scaled by the least common denominator of its entries."""
    den = math.lcm(*(x.denominator for row in a for x in row))
    return [[int(x * den) for x in row] for row in a]


def naive_closure_span(generators):
    """Span of the associative algebra generated by the matrices, by
    multiplying every pair until the flattened span stops growing."""
    flats = naive_row_space_basis(
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
        grown = naive_row_space_basis(tuple(flats) + tuple(prods))
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
# mat_mul, mat_vec, trace_product
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
        assert la.mat_vec(a, la.transpose(b)[0])[0] == prod[0][0]
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
    assert la.trace_product(a, b) == naive_trace(la.mat_mul(a, b))
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
# IntSpan and the eliminations on it, against dense Fraction elimination
# ---------------------------------------------------------------------------


def test_kernel_rank_and_int_span_agree():
    rng = random.Random(44)
    for _ in range(80):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        a = seeded_matrix(rng, r, c, rng.choice((0.0, 0.2, 0.5, 1.0)))
        reduced, pivots = naive_rref(a)
        span = la.IntSpan(c)
        grew = [span.add(reference_int_row(row)) for row in a]
        assert span.dim == len(pivots)
        # a row enlarges the span exactly when the rank goes up
        assert grew == [naive_rank(a[: i + 1]) > naive_rank(a[:i]) for i in range(r)]
        assert reference_span_basis(span) == reduced[: len(pivots)]
        assert tuple(sorted(span.pivots)) == pivots
        # the pivot rows stay reduced against each other's pivots
        for lead, row in span.pivots.items():
            assert min(row) == lead
            assert all(lead not in other for p, other in span.pivots.items() if p != lead)
        ker = la.kernel(a)
        assert ker == naive_kernel(a)
        assert len(pivots) + len(ker) == c
        for v in ker:
            assert la.is_zero_vec(la.mat_vec(a, v))
            # kernel vectors are orthogonal to the row space
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in reference_span_basis(span))
        for _ in range(5):
            probe = seeded_matrix(rng, 1, c, 0.5)[0]
            expected = naive_in_span(reduced[: len(pivots)], probe)
            assert (not span.reduce(reference_int_row(probe))) == expected


@st.composite
def large_integer_rows(draw):
    """(nc, rows, probes): integer rows with entries up to 2^40 and
    small non-unit ones, a scaled copy of a row (a non-unit lead that
    adds nothing), and as probes an integer combination of the rows
    with coefficients up to 2^20 (a member) and a free row."""
    nc = draw(st.integers(1, 7))
    entry = st.one_of(
        st.just(0), st.integers(-6, 6), st.integers(-(2**40), 2**40)
    )
    row = st.lists(entry, min_size=nc, max_size=nc)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    k = draw(st.sampled_from((2, 3, -5, 2**40 - 3)))
    rows.append([k * x for x in draw(st.sampled_from(rows))])
    coeffs = draw(st.lists(st.integers(-(2**20), 2**20), min_size=len(rows), max_size=len(rows)))
    member = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(nc)]
    return nc, rows, [member, draw(row)]


@settings(max_examples=200, deadline=None)
@given(large_integer_rows())
def test_int_span_matches_dense_elimination_on_large_entries_hypothesis(case):
    """The in-place ``IntSpan.reduce`` keeps no content between steps;
    the pivot rows still equal the primitive integer multiples of the
    dense RREF rows, in either insertion order, and a row reduces to
    nothing exactly when it lies in the span."""
    nc, rows, probes = case
    reduced, pivots = naive_rref(tuple(tuple(map(Fraction, r)) for r in rows))
    basis = reduced[: len(pivots)]
    expected = {}
    for lead, v in zip(pivots, basis):
        scale = math.lcm(*(x.denominator for x in v))
        ints = [int(x * scale) for x in v]
        g = math.gcd(*ints)
        expected[lead] = {c: x // g for c, x in enumerate(ints) if x}
    for order in (rows, rows[::-1]):
        span = la.IntSpan(nc)
        for r in order:
            span.add({c: x for c, x in enumerate(r) if x})
        assert span.pivots == expected
        assert reference_span_basis(span) == basis
        for v in probes + rows:
            assert (not span.reduce(dict(enumerate(v)))) == naive_in_span(basis, tuple(v))
        assert not span.reduce(dict(enumerate(probes[0])))


def elimination_cases():
    """Seeded rational matrices: random shapes and densities, zero rows,
    dependent rows, all-zero matrices, 1 x 1 matrices and entries with
    numerators and denominators up to 10^9."""
    rng = random.Random(52)
    out = [naive_zeros(3, 3), naive_zeros(1, 4), naive_zeros(4, 1), naive_zeros(1, 1)]
    out += [((Fraction(7, 3),),), ((Fraction(-10**9, 10**9 - 1),),), naive_identity(5)]
    for _ in range(160):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.4:
            c = r
        bound = rng.choice((4, 10**9))
        den = rng.choice((1, 5, 10**9))
        density = rng.choice((0.2, 0.5, 1.0))
        a = [
            [
                Fraction(rng.randint(-bound, bound), rng.randint(1, den))
                if rng.random() < density
                else ZERO
                for _ in range(c)
            ]
            for _ in range(r)
        ]
        if r > 1 and rng.random() < 0.3:
            a[rng.randrange(r)] = [ZERO] * c
        if r > 2 and rng.random() < 0.3:
            x, y = rng.sample(range(r), 2)
            a[rng.randrange(r)] = [Fraction(2, 3) * s - t for s, t in zip(a[x], a[y])]
        out.append(tuple(map(tuple, a)))
    return out


def test_elimination_matches_naive_rref():
    rng = random.Random(53)
    seen = dict.fromkeys(
        ("inconsistent", "singular", "regular", "non_square", "one_by_one"), 0
    )
    for a in elimination_cases():
        r, c = len(a), len(a[0])
        assert la.kernel(a) == naive_kernel(a)
        # a consistent system, and a right-hand side that may not be
        x = tuple(rand_fraction(rng, 5, 9) for _ in range(c))
        b = la.mat_vec(a, x)
        sol = rational_solve_lex(a, b)
        assert sol == naive_solve_lex(a, b)
        assert sol is not None and la.mat_vec(a, sol) == b
        b = tuple(rand_fraction(rng, 5, 9) for _ in range(r))
        assert rational_solve_lex(a, b) == naive_solve_lex(a, b)
        seen["inconsistent"] += naive_solve_lex(a, b) is None
        if r != c:
            seen["non_square"] += 1
            with pytest.raises(ValueError, match="^inverse of non-square matrix$"):
                la.inverse(a)
        elif naive_inverse(a) is None:
            seen["singular"] += 1
            with pytest.raises(ValueError, match="^matrix is singular$"):
                la.inverse(a)
        else:
            seen["regular"] += 1
            seen["one_by_one"] += r == 1
            assert la.inverse(a) == naive_inverse(a)
        # membership of the rows and of random vectors, in every prefix
        probes = list(a) + [tuple(rand_fraction(rng, 3, 4) for _ in range(c)) for _ in range(2)]
        for k in range(r):
            for v in probes:
                assert subspace_from_spanning(c, a[:k]).contains(v) == naive_in_span(a[:k], v)
        if r == c and r <= 5:
            assert la.minimal_polynomial(a) == old_minimal_polynomial(a)
    assert la.minimal_polynomial(()) == (1,)
    assert all(count >= 2 for count in seen.values()), seen


# ---------------------------------------------------------------------------
# minimal polynomial
# ---------------------------------------------------------------------------


def seeded_minpoly_inputs():
    rng = random.Random(45)
    out = [naive_zeros(3, 3), naive_identity(4), naive_mat_scale(3, naive_identity(2))]
    for _ in range(25):
        n = rng.randint(1, 5)
        out.append(seeded_matrix(rng, n, n, rng.choice((0.2, 0.5, 1.0))))
    for _ in range(15):
        # conjugates of diagonal matrices with repeated eigenvalues, so the
        # minimal polynomial is a proper divisor of the characteristic one
        n = rng.randint(2, 5)
        p = seeded_matrix(rng, n, n, 1.0)
        if naive_rank(p) != n:
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
# charpoly and poly_eval_mat: the integer kernels against the dense
# Fraction recursions they replaced
# ---------------------------------------------------------------------------

DENOMINATORS = (1, 2, 3, 4, 6, 7, 9, 10, 12, 35)


def mixed_matrix(rng, n, density):
    """An n x n rational matrix whose entries have mixed denominators."""
    return tuple(
        tuple(
            Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)) if rng.random() < density else ZERO
            for _ in range(n)
        )
        for _ in range(n)
    )


def mixed_poly(rng, max_len=7):
    """Coefficients with mixed denominators, a leading zero or none."""
    return tuple(Fraction(rng.randint(-6, 6), rng.choice(DENOMINATORS)) for _ in range(rng.randint(0, max_len)))


def assert_matches_reference(a, polys=()):
    cp = la.charpoly(a)
    assert cp == reference_charpoly(a)
    assert all(type(c) is Fraction for c in cp)
    assert la.is_zero_mat(la.poly_eval_mat(cp, a))
    for p in polys:
        value = la.poly_eval_mat(p, a)
        assert value == reference_poly_eval_mat(p, a)
        assert all(type(x) is Fraction for row in value for x in row)


def test_charpoly_and_poly_eval_mat_match_fraction_recursion_seeded():
    rng = random.Random(50)
    seen = set()
    for _ in range(240):
        n = rng.randint(0, 8)
        density = rng.choice((0.15, 0.5, 1.0))
        seen.add((n, density))
        assert_matches_reference(mixed_matrix(rng, n, density), [mixed_poly(rng) for _ in range(2)])
    assert len(seen) == 27


mixed_rationals = st.one_of(
    st.just(ZERO),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**9),
)


@st.composite
def square_and_polys(draw):
    n = draw(st.integers(0, 8))
    a = tuple(tuple(draw(mixed_rationals) for _ in range(n)) for _ in range(n))
    return a, draw(st.lists(st.lists(mixed_rationals, max_size=6).map(tuple), max_size=2))


@settings(max_examples=100, deadline=None)
@given(square_and_polys())
def test_charpoly_and_poly_eval_mat_match_fraction_recursion(case):
    assert_matches_reference(*case)


def test_charpoly_and_poly_eval_mat_edge_cases():
    for n in (0, 1, 4):
        zero = naive_zeros(n, n)
        assert la.charpoly(zero) == reference_charpoly(zero) == (la.ONE,) + (ZERO,) * n
        for a in (zero, naive_identity(n)):
            assert la.poly_eval_mat((), a) == reference_poly_eval_mat((), a) == zero
        assert_matches_reference(zero, [(), (ZERO,), (la.ONE,), (Fraction(-2, 3), ZERO, Fraction(5, 7))])
    assert la.charpoly(()) == (la.ONE,) and la.poly_eval_mat((la.ONE, la.ONE), ()) == ()
    # diagonals whose denominators are large and pairwise coprime
    rng = random.Random(51)
    for dens in ((10**12 + 39, 2**61 - 1, 10**9 + 7), (3**40, 2**70, 5**30, 7**20), (10**18 + 9,)):
        entries = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), d) for d in dens]
        a = tuple(tuple(x if i == j else ZERO for j, x in enumerate(entries)) for i in range(len(entries)))
        expected = (la.ONE,)
        for x in entries:
            expected = naive_poly_mul(expected, (la.ONE, -x))
        assert la.charpoly(a) == expected
        assert_matches_reference(a, [mixed_poly(rng), tuple(entries)])


def pool_algebras(workload, per_dim):
    """The first per_dim algebras of each dimension in a benchmark pool."""
    with gzip.open(Path(__file__).parents[1] / "perfbench" / "pool" / f"{workload}.json.gz") as fh:
        pool = json.load(fh)
    seen: dict[int, int] = {}
    out = []
    for entry in pool:
        seen[entry["dim"]] = seen.get(entry["dim"], 0) + 1
        if seen[entry["dim"]] <= per_dim:
            out.append(document_to_algebra(parse_document(entry["doc"]))[0])
    return out


def test_charpoly_and_poly_eval_mat_on_ad_matrices():
    rng = random.Random(52)
    algebras = [resolve(name)[0] for name in ("heis3", "sl2", "su2", "example42", "ab(4,2)")]
    algebras += pool_algebras("spectra", 4) + pool_algebras("reduce", 1)
    algebras += [m.algebra for m in criterion3_family(6)]
    for alg in algebras:
        n = alg.dim
        elements = [la.unit_vec(n, i) for i in range(n)]
        elements.append(seeded_matrix(rng, 1, n, 0.7)[0])
        for x in elements:
            assert_matches_reference(ad(alg, x).matrix, [mixed_poly(rng, 4)])


def test_charpoly_and_poly_eval_mat_reject_non_square_input():
    for a in (((1, 2),), ((1,), (2,)), ((Fraction(1, 2), ZERO, la.ONE), (ZERO, la.ONE, ZERO))):
        with pytest.raises(ValueError):
            la.charpoly(a)
        with pytest.raises(ValueError):
            la.poly_eval_mat((la.ONE, ZERO), a)
        with pytest.raises(ValueError):
            reference_charpoly(a)


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
                assert alg.bracket(la.unit_vec(n, i), la.unit_vec(n, j)) == naive_basis_bracket(alg, i, j)


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
        assoc = reference_associative_closure([int_matrix(a) for a in ads])
        if n <= 6:
            assert naive_row_space_basis(
                tuple(la.vec(x for row in b for x in row) for b in assoc)
            ) == naive_closure_span(ads)
        old_rows = tuple(tuple(naive_trace_product(adi, b) for adi in ads) for b in assoc)
        assert nilradical(alg).vectors == naive_kernel(old_rows)
    assert non_nilpotent >= 5


def test_killing_sums_match_the_dense_trace_loop():
    """The outer products of the table entries grouped by position give
    the integers of the dense trace loop: on the catalog algebras,
    seeded iterated double extensions and the split-semisimple sums of
    two and three copies of sl2 and su2."""
    rng = random.Random(4711)
    algebras = [resolve(name)[0] for name in ("heis3", "sl2", "su2", "example42", "ab(4,2)")]
    for n, s in ((4, 1), (6, 2), (8, 3)):
        algebras.append(build_ko1(n, s, random_skew_map(rng, build_ab(n - 2, s - 1).form)).algebra)
    for _ in range(40):
        base = random_abelian_base(rng, max_dim=5)
        algebras.append(iterated_double_extension(rng, base, rng.randint(1, 3)).algebra)
    simple = (sl2, su2)
    for a in simple:
        for b in simple:
            algebras.append(direct_sum(a(), b()).algebra)
            algebras += [direct_sum(direct_sum(a(), b()), c()).algebra for c in simple]
    nonzero = 0
    for alg in algebras:
        got = killing_sums(alg)
        assert got == reference_killing_sums(alg)
        nonzero += any(map(any, got[1]))
    assert nonzero >= 20


# ---------------------------------------------------------------------------
# certificates on the integer structure table, against the Fraction code
# ---------------------------------------------------------------------------


def fraction_validate_structure(alg):
    """Jacobi residuals by nested Fraction brackets of unit vectors."""
    violations = []
    n = alg.dim
    for i in range(n):
        ei = la.unit_vec(n, i)
        for j in range(i + 1, n):
            ej = la.unit_vec(n, j)
            for k in range(j + 1, n):
                ek = la.unit_vec(n, k)
                residual = la.vec_add(
                    la.vec_add(
                        alg.bracket(alg.bracket(ei, ej), ek),
                        alg.bracket(alg.bracket(ej, ek), ei),
                    ),
                    alg.bracket(alg.bracket(ek, ei), ej),
                )
                if not la.is_zero_vec(residual):
                    violations.append((i, j, k, residual))
    return not violations, tuple(violations)


def fraction_ad(alg, x):
    cols = [alg.bracket(x, la.unit_vec(alg.dim, j)) for j in range(alg.dim)]
    return la.transpose(tuple(cols))


def fraction_is_invariant(m):
    alg, form = m.algebra, m.form
    n = alg.dim
    ads = [fraction_ad(alg, la.unit_vec(n, i)) for i in range(n)]
    for x in range(n):
        lhs = reference_skew_residual(ads[x], form.matrix)
        for y1 in range(n):
            for y2 in range(n):
                if lhs[y1][y2] != 0:
                    return False, (x, y1, y2)
    return True, None


def fraction_killing_matrix(alg):
    n = alg.dim
    ads = [fraction_ad(alg, la.unit_vec(n, i)) for i in range(n)]
    return tuple(
        tuple(la.trace_product(ads[i], ads[j]) for j in range(n)) for i in range(n)
    )


def dense_skew_derivation_system(base):
    """The dense Fraction system: every (k, l) skewness row and every
    derivation row, zero or not."""
    n = base.dim
    b = base.form.matrix
    alg = base.algebra
    rows = []

    def entry(p, q):
        return p * n + q

    for k in range(n):
        for l in range(n):
            row = [ZERO] * (n * n)
            for p in range(n):
                row[entry(p, k)] += b[p][l]
                row[entry(p, l)] += b[k][p]
            rows.append(tuple(row))
    for i in range(n):
        for j in range(i + 1, n):
            cij = naive_basis_bracket(alg, i, j)
            for k in range(n):
                row = [ZERO] * (n * n)
                for mth in range(n):
                    row[entry(k, mth)] += cij[mth]
                for p in range(n):
                    row[entry(p, i)] -= naive_basis_bracket(alg, p, j)[k]
                    row[entry(p, j)] -= naive_basis_bracket(alg, i, p)[k]
                rows.append(tuple(row))
    return tuple(rows)


def fraction_skew_derivation_space(base):
    n = base.dim
    sols = naive_kernel(dense_skew_derivation_system(base))
    return tuple(
        tuple(tuple(sol[p * n + q] for q in range(n)) for p in range(n))
        for sol in sols
    )


def iterated_family(count, seed=1010, max_dim=10):
    """Iterated double extensions of abelian bases, up to dimension 10."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        base = random_abelian_base(rng, max_dim=4)
        steps = rng.randint(1, (max_dim - base.dim) // 2)
        out.append(iterated_double_extension(rng, base, steps))
    return out


def random_metric_algebra(rng, n, density=0.4, max_denominator=6):
    """Random structure constants and a random symmetric form with mixed
    denominators: almost never Jacobi, almost never invariant."""
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                brackets[(i, j)] = tuple(
                    rand_fraction(rng, 3, max_denominator) if rng.random() < 0.5 else ZERO
                    for _ in range(n)
                )
    gram = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j or rng.random() < 0.3:
                gram[i][j] = gram[j][i] = rand_fraction(rng, 3, max_denominator)
    alg = LieAlgebra(n, tuple(f"e{i}" for i in range(n)), brackets)
    return MetricLieAlgebra(alg, SymBilinearForm(gram))


def rebased(rng, m):
    """m on a random rational basis: Jacobi and invariant, with mixed
    denominators in the constants and the form."""
    n = m.dim
    while True:
        cols = tuple(tuple(rand_fraction(rng, 2, 4) for _ in range(n)) for _ in range(n))
        if naive_rank(cols) == n:
            return change_basis(m, cols, [f"v{i}" for i in range(n)])


def certificate_inputs():
    rng = random.Random(47)
    valid = criterion3_family(10) + iterated_family(8) + [build_example42()]
    valid += [rebased(rng, m) for m in valid[:6]]
    failing = [random_metric_algebra(rng, rng.randint(3, 7)) for _ in range(20)]
    # a valid algebra under a perturbed form: Jacobi, not invariant
    for m in valid[:6]:
        gram = [list(row) for row in m.form.matrix]
        i, j = rng.randrange(m.dim), rng.randrange(m.dim)
        gram[i][j] += Fraction(1, 3)
        if i != j:
            gram[j][i] += Fraction(1, 3)
        failing.append(MetricLieAlgebra(m.algebra, SymBilinearForm(gram)))
    return valid, failing


def test_structure_table_rows_match_brackets():
    valid, failing = certificate_inputs()
    for m in valid + failing:
        alg = m.algebra
        table = alg.int_table
        assert alg.int_table is table  # derived once per algebra
        den, rows = table
        n = alg.dim
        for i in range(n):
            for j in range(n):
                dense = [ZERO] * n
                for k, t in rows[i][j]:
                    assert isinstance(t, int) and t != 0
                    dense[k] = Fraction(t, den)
                assert tuple(dense) == naive_basis_bracket(alg, i, j)


def test_integer_certificates_match_fraction_code():
    valid, failing = certificate_inputs()
    non_jacobi = non_invariant = 0
    for m in valid + failing:
        alg = m.algebra
        rep = validate_structure(alg)
        passed, violations = fraction_validate_structure(alg)
        assert (rep.passed, rep.violations) == (passed, violations)
        for *_, residual in rep.violations:
            assert all(isinstance(x, Fraction) for x in residual)
        non_jacobi += not passed
        inv = is_invariant(m)
        assert (inv.passed, inv.witness) == fraction_is_invariant(m)
        non_invariant += not inv.passed
        assert killing_matrix(alg) == fraction_killing_matrix(alg)
        n = alg.dim
        for i in range(n):
            assert ad(alg, la.unit_vec(n, i)).matrix == fraction_ad(alg, la.unit_vec(n, i))
    for m in valid:
        assert validate_structure(m.algebra).passed and is_invariant(m).passed
    assert non_jacobi >= 15 and non_invariant >= 20


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6))
def test_integer_certificates_match_fraction_code_hypothesis(seed, n):
    rng = random.Random(seed)
    m = random_metric_algebra(rng, n, density=rng.choice((0.2, 0.5, 1.0)))
    rep = validate_structure(m.algebra)
    assert (rep.passed, rep.violations) == fraction_validate_structure(m.algebra)
    inv = is_invariant(m)
    assert (inv.passed, inv.witness) == fraction_is_invariant(m)
    assert killing_matrix(m.algebra) == fraction_killing_matrix(m.algebra)
    x = tuple(rand_fraction(rng, 3, 5) if rng.random() < 0.6 else ZERO for _ in range(n))
    assert ad(m.algebra, x).matrix == fraction_ad(m.algebra, x)


def test_skew_derivation_space_matches_dense_system():
    rng = random.Random(48)
    bases = criterion3_family(10) + iterated_family(6, max_dim=8)
    bases += [build_example42(), rebased(rng, build_example42())]
    bases += [random_abelian_base(rng, max_dim=8) for _ in range(8)]
    for base in bases:
        assert skew_derivation_space(base) == fraction_skew_derivation_space(base)


def test_skew_derivations_keep_the_kernel_basis(monkeypatch):
    """The solve on the invariant 3-form gives the basis of
    ``reference_skew_derivations`` row for row, since
    ``random_skew_derivation`` draws one coefficient per row: on every
    first step g_1 that the search workload ((3, 8), (1, 2), 20, seeds
    0..1500) draws a second step on, the reduce-pool documents, every
    ``build_ab(n, s)`` with n <= 8, and, for forms that are neither
    diagonal nor integer, seeded iterated extensions and example42
    rebased."""
    first_steps = {}
    draw = einstein.random_skew_derivation

    def recorded(rng, base):
        if "a0" in base.algebra.basis_names:
            first_steps[base] = None
        return draw(rng, base)

    monkeypatch.setattr(einstein, "random_skew_derivation", recorded)
    for seed in range(1501):
        einstein.sharpness_search((3, 8), (1, 2), 20, seed)
    assert len(first_steps) > 300
    rng = random.Random(51)
    iterated = iterated_family(12, seed=1011, max_dim=10)
    algs = list(first_steps) + pool_metrics(step=1) + iterated
    algs += [build_ab(n, s) for n in range(9) for s in range(n + 1)]
    small = [m for m in iterated if m.dim <= 6]
    algs += [rebased(rng, m) for m in small + [build_example42()] * 2]
    for m in algs:
        assert m.skew_derivations.int_rows == reference_skew_derivations(m).int_rows


def test_cached_inverse_matches_inverse():
    rng = random.Random(49)
    forms = [m.form for m in criterion3_family(8)]
    forms += [rebased(rng, build_example42()).form]
    for form in forms:
        assert form.inverse == la.inverse(form.matrix) == naive_inverse(form.matrix)
        assert form.inverse is form.inverse
        assert la.normalised(*form.int_inverse) == form.int_inverse
        for (m, rows), target in ((form.int_rows, form.matrix), (form.int_inverse, form.inverse)):
            assert all(x for row in rows for _, x in row)
            assert all(
                Fraction(dict(rows[p]).get(q, 0), m) == target[p][q]
                for p in range(form.dim)
                for q in range(form.dim)
            )
    # symmetric matrices with mixed denominators, singular ones among them
    singular = 0
    for _ in range(60):
        n = rng.randint(0, 6)
        a = mixed_matrix(rng, n, rng.choice((0.2, 0.6)))
        form = SymBilinearForm(naive_mat_add(a, la.transpose(a)))
        expected = naive_inverse(form.matrix)
        if expected is None:
            singular += 1
            with pytest.raises(ValueError):
                form.int_inverse
            continue
        assert form.inverse == expected
        assert la.normalised(*form.int_inverse) == form.int_inverse
    assert singular >= 5


# ---------------------------------------------------------------------------
# the kernel constructor and is_nilpotent
# ---------------------------------------------------------------------------


def sparse_rows(rng, r, c, density, bound=6):
    return [
        {j: rng.randint(-bound, bound) for j in range(c) if rng.random() < density}
        for _ in range(r)
    ]


def dense_kernel(rows, c):
    """``naive_kernel`` of the dense system; a system without rows has no
    column count as a dense matrix, and its kernel is all of Q^c."""
    if not rows:
        return naive_identity(c)
    return naive_kernel(tuple(tuple(Fraction(row.get(j, 0)) for j in range(c)) for row in rows))


def test_sparse_kernel_matches_kernel_seeded():
    rng = random.Random(50)
    for _ in range(150):
        r, c = rng.randint(0, 12), rng.randint(1, 12)
        rows = sparse_rows(rng, r, c, rng.choice((0.0, 0.15, 0.4, 1.0)))
        if rows and rng.random() < 0.3:
            # dependent rows: a combination of two earlier ones
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append({j: 2 * a.get(j, 0) - 3 * b.get(j, 0) for j in range(c)})
        assert SubspaceBasis.kernel(c, rows).vectors == dense_kernel(rows, c)
    # every skew-derivation system of the families, dense against sparse
    for base in criterion3_family(6) + iterated_family(4, max_dim=8):
        system = dense_skew_derivation_system(base)
        nc = base.dim ** 2
        den = math.lcm(*(x.denominator for row in system for x in row))
        rows = [{j: int(x * den) for j, x in enumerate(row) if x} for row in system]
        assert SubspaceBasis.kernel(nc, rows).vectors == naive_kernel(system)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda c: st.tuples(
            st.just(c),
            st.lists(
                st.dictionaries(st.integers(0, c - 1), st.integers(-20, 20), max_size=c),
                max_size=10,
            ),
        )
    )
)
def test_sparse_kernel_matches_kernel(system):
    c, rows = system
    assert SubspaceBasis.kernel(c, rows).vectors == dense_kernel(rows, c)


def test_is_nilpotent_matches_power():
    rng = random.Random(51)
    cases = []
    for _ in range(60):
        n = rng.randint(0, 7)
        # strictly upper triangular, conjugated: nilpotent
        u = tuple(
            tuple(rand_fraction(rng, 3, 3) if j > i and rng.random() < 0.7 else ZERO for j in range(n))
            for i in range(n)
        )
        p = seeded_matrix(rng, n, n, 1.0)
        if n and naive_rank(p) == n:
            u = la.mat_mul(la.mat_mul(p, u), la.inverse(p))
        cases.append(u)
        # a random matrix, or a nilpotent one plus a small diagonal
        cases.append(seeded_matrix(rng, n, n, rng.choice((0.2, 0.5, 1.0))))
        if n:
            k = rng.randrange(n)
            cases.append(
                tuple(
                    tuple(x + (Fraction(1, 2) if i == j == k else ZERO) for j, x in enumerate(row))
                    for i, row in enumerate(u)
                )
            )
    # a full Jordan block needs all n powers
    cases.append(tuple(tuple(la.ONE if j == i + 1 else ZERO for j in range(6)) for i in range(6)))
    nilpotent = 0
    for a in cases:
        expected = la.is_zero_mat(naive_mat_pow(a, la.nrows(a)))
        assert la.is_nilpotent(a) == expected
        nilpotent += expected
    assert 60 <= nilpotent < len(cases)


# ---------------------------------------------------------------------------
# the one skewness kernel against the dense residual a^T B + B a
# ---------------------------------------------------------------------------


def _skew_kernel_inputs():
    """(map, form) pairs: random maps, ``random_skew_map`` draws and
    perturbed draws on the diagonal ±1, hyperbolic and fractional forms
    of ``draw_forms``; random maps and maps into the radical on
    degenerate forms; the zero map on every form; 1x1 and 0x0; the ad
    of basis and random vectors of example42, under its invariant form
    and under the identity."""
    rng = random.Random(13)
    half = Fraction(1, 2)
    degenerate = [
        SymBilinearForm(((1, 1), (1, 1))),
        SymBilinearForm(naive_zeros(3, 3)),
        SymBilinearForm(((0, 0, 0), (0, 1, 0), (0, 0, -half))),
    ]
    cases = []
    for form in draw_forms() + degenerate:
        n = form.dim
        cases.append((naive_zeros(n, n), form))
        cases += [(seeded_matrix(rng, n, n, rng.choice((0.3, 1.0))), form) for _ in range(2)]
        if form in degenerate:
            # image in the radical: <A y, z> = 0 for all y, z
            radical = la.kernel(form.matrix)
            cols = [la.vec_scale(rand_fraction(rng), radical[0]) for _ in range(n)]
            cases.append((la.transpose(tuple(cols)), form))
            continue
        for _ in range(2):
            delta = random_skew_map(rng, form, 2, 4)
            cases.append((delta, form))
            i, j = rng.randrange(n), rng.randrange(n)
            bumped = tuple(
                tuple(x + (half if (p, q) == (i, j) else ZERO) for q, x in enumerate(row))
                for p, row in enumerate(delta)
            )
            cases.append((bumped, form))
    for entry in (0, 1, Fraction(-1, 3)):
        cases.append((((entry,),), SymBilinearForm(((2,),))))
        cases.append((((entry,),), SymBilinearForm(((0,),))))
    cases.append(((), SymBilinearForm(())))
    ex = build_example42()
    identity = SymBilinearForm(naive_identity(6))
    xs = [la.unit_vec(6, i) for i in range(6)]
    xs += [tuple(rand_fraction(rng) for _ in range(6)) for _ in range(4)]
    for x in xs:
        phi = ad(ex.algebra, x).matrix
        cases += [(phi, ex.form), (phi, identity)]
    return cases


def test_skew_kernel_matches_dense_residual():
    skew = not_skew = 0
    for a, form in _skew_kernel_inputs():
        den, pairing, witness = _map_pairing(a, form)
        residual = reference_skew_residual(a, form.matrix)
        first = next(
            ((i, j) for i, row in enumerate(residual) for j, x in enumerate(row) if x), None
        )
        assert witness == first
        # P / D is the pairing a^T B, which is omega for a delta
        omega = la.mat_mul(la.transpose(a), form.matrix)
        assert tuple(tuple(Fraction(x, den) for x in row) for row in pairing) == omega
        skew += witness is None
        not_skew += witness is not None
    assert skew >= 60 and not_skew >= 60
