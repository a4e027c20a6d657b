"""The integer polynomial layer of ``linalg`` (primitive pseudo-remainder
gcds, Yun in Z[x], Sturm counts and the factor certificate) against the
``Fraction`` code it replaced (``conftest.reference_*``)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclie import linalg as la
from metriclie import obstruction
from metriclie.errors import CertificateError

from conftest import (
    naive_poly_deg,
    naive_poly_monic,
    random_rational_poly,
    reference_graeffe_fraction,
    reference_poly_factor,
    reference_poly_gcd,
    reference_poly_squarefree_decomposition,
    reference_poly_squarefree_part,
    reference_poly_sturm_counts,
    reference_sturm_sequence,
)

ONE, ZERO = la.ONE, la.ZERO


def _scaled(p, c):
    return tuple(c * x for x in p)


def _power(f, k):
    out = (ONE,)
    for _ in range(k):
        out = la.poly_mul(out, f)
    return out


def _decomposition(p):
    """Yun's decomposition in Z[x] with monic parts."""
    return [(la._monic(s), k) for s, k in la._yun(la.int_poly(p))]


def _check_against_reference(p, q, factor=True):
    """Every public function of the layer on p (and q) against its
    ``Fraction`` reference; p and q are not zero. ``poly_factor`` runs a
    divisor search, so it is left out for large coefficients."""
    assert la.poly_gcd(p, q) == reference_poly_gcd(p, q)
    assert la.poly_gcd(q, p) == reference_poly_gcd(q, p)
    sf = la.poly_squarefree_part(p)
    assert sf == reference_poly_squarefree_part(p)
    assert la.poly_sturm_counts(p) == reference_poly_sturm_counts(p)
    assert la.poly_root_counts(p) == (*reference_poly_sturm_counts(p), naive_poly_deg(sf))
    assert _decomposition(p) == reference_poly_squarefree_decomposition(p)
    if factor:
        assert la.poly_factor(p) == reference_poly_factor(p)
    monic = naive_poly_monic(p)
    assert la.poly_graeffe(monic) == reference_graeffe_fraction(monic)


def _negative_sturm_lead(p) -> bool:
    """Whether a remainder of p's Sturm sequence (over Q) leads with a
    negative coefficient."""
    q = reference_poly_squarefree_part(p)
    if len(q) > 1 and q[-1] == 0:
        q = q[:-1]
    return any(s[0] < 0 for s in reference_sturm_sequence(q)[2:])


def test_integer_layer_matches_the_fraction_reference_seeded():
    rng = random.Random(2424)
    seen = {"negative_lead": 0, "content": 0, "wide_denominator": 0}
    for _ in range(400):
        p, q = random_rational_poly(rng, 8), random_rational_poly(rng, 8)
        # a rational scale with a content > 1 or a denominator up to 2^64
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.choice((1, rng.randint(1, 2**64))))
        p = _scaled(p, scale)
        _check_against_reference(p, q)
        ints = la.int_poly(p)
        seen["negative_lead"] += _negative_sturm_lead(p)
        seen["content"] += scale.numerator not in (1, -1) and len(p) > 1
        seen["wide_denominator"] += scale.denominator > 2**32
        # the primitive part is a positive multiple of p
        assert naive_poly_monic(tuple(map(Fraction, ints))) == naive_poly_monic(p)
        assert (ints[0] > 0) == (p[0] > 0)
    assert seen["negative_lead"] >= 40 and seen["content"] >= 100 and seen["wide_denominator"] >= 100


_coeff = st.fractions(min_value=-(2**64), max_value=2**64, max_denominator=2**64)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_coeff, min_size=1, max_size=5).filter(lambda p: p[0] != 0),
    st.lists(_coeff, min_size=1, max_size=5).filter(lambda p: p[0] != 0),
    st.integers(1, 2**64),
)
def test_integer_layer_matches_the_fraction_reference_hypothesis(p, q, content):
    p = tuple(content * c for c in p)
    _check_against_reference(p, tuple(q), factor=False)
    # a repeated factor takes Yun's later steps
    _check_against_reference(la.poly_mul(p, la.poly_mul(p, q)), p, factor=False)


def test_sturm_counts_keep_the_sign_of_each_remainder():
    # x^3 + x: the Sturm remainder is -(2/3) x, so a remainder normalised
    # to a positive lead would count roots that are not there
    x3x = (ONE, ZERO, ONE, ZERO)
    assert _negative_sturm_lead(x3x)
    assert la.poly_sturm_counts(x3x) == reference_poly_sturm_counts(x3x) == (0, 0, 1)
    # roots -2, -1, 1/2, +-i, 3 +- i: negative Sturm leads among three real roots
    p = la.poly_mul(la.poly_mul((ONE, 3 * ONE, 2 * ONE), (ONE, -Fraction(1, 2))), la.poly_mul((ONE, ZERO, ONE), (ONE, -6 * ONE, 10 * ONE)))
    assert _negative_sturm_lead(p)
    assert la.poly_sturm_counts(p) == reference_poly_sturm_counts(p) == (2, 1, 3)
    assert la.poly_root_counts(p) == (2, 1, 3, 7)
    # sparse polynomials, whose remainders may drop two degrees: the
    # division by a divisor with a negative lead then takes an odd
    # number of steps, and a signed scale would flip the remainder
    rng = random.Random(31)
    odd_steps = 0
    for _ in range(300):
        p = (ONE,) + tuple(Fraction(rng.choice((0, 0, 0, 1, -1, 2, -3))) for _ in range(rng.randint(2, 8)))
        assert la.poly_sturm_counts(p) == reference_poly_sturm_counts(p)
        q = reference_poly_squarefree_part(p)
        seq = reference_sturm_sequence(q[:-1] if len(q) > 1 and q[-1] == 0 else q)
        odd_steps += any(len(a) - len(b) == 2 and b[0] < 0 for a, b in zip(seq, seq[1:]))
    assert odd_steps >= 20


def test_yun_on_powers_of_a_linear_factor():
    rng = random.Random(88)
    rs = [ZERO, ONE, Fraction(-3, 7), Fraction(2**64 + 1, 2**64 - 1)]
    rs += [Fraction(rng.randint(-50, 50), rng.randint(1, 2**20)) for _ in range(6)]
    for r in rs:
        for k in range(1, 9):
            p = _power((ONE, -r), k)
            assert _decomposition(p) == [((ONE, -r), k)]
            assert la.poly_factor(_scaled(p, Fraction(-5, 3))) == [((ONE, -r), k)]
            assert la.poly_squarefree_part(p) == (ONE, -r)
            assert la.poly_root_counts(p)[2:] == (1, 1)
            # a second root of another multiplicity
            s = r + Fraction(1, 3)
            pq = la.poly_mul(p, _power((ONE, -s), 9 - k))
            assert _decomposition(pq) == reference_poly_squarefree_decomposition(pq)
            assert la.poly_factor(pq) == reference_poly_factor(pq)


def test_products_of_quadratics_sharing_no_root():
    quads = [(1, 0, 1), (1, 0, -2), (1, -2, 5), (1, Fraction(4, 3), Fraction(8, 9)), (1, 0, 9), (1, 1, 1)]
    quads = [tuple(map(Fraction, f)) for f in quads]
    rng = random.Random(12)
    for _ in range(30):
        chosen = rng.sample(quads, rng.randint(2, 4))
        mults = [rng.randint(1, 3) for _ in chosen]
        p = (ONE,)
        for f, k in zip(chosen, mults):
            p = la.poly_mul(p, _power(f, k))
        assert sorted(la.poly_factor(p)) == sorted(zip(chosen, mults))
        assert la.poly_factor(p) == reference_poly_factor(p)
        assert _decomposition(p) == reference_poly_squarefree_decomposition(p)
        assert la.poly_sturm_counts(p) == reference_poly_sturm_counts(p)
        # only x^2 - 2 has real roots, one on each side of 0
        real = 2 if quads[1] in chosen else 0
        assert la.poly_root_counts(p) == (real // 2, real // 2, real, 2 * len(chosen))


def test_zero_and_constant_polynomials():
    zero, three, p = (ZERO,), (3 * ONE,), (2 * ONE, -ONE, 4 * ONE)
    assert la.int_poly(zero) == la.int_poly(()) == la.int_poly((ZERO, ZERO)) == []
    assert la.int_poly((ZERO, -6 * ONE, Fraction(3, 2))) == [-4, 1]
    assert la._int_gcd([], []) == []
    assert la.poly_gcd(zero, zero) == reference_poly_gcd(zero, zero) == zero
    assert naive_poly_deg(la.poly_gcd(zero, zero)) == -1
    assert la.poly_gcd(zero, p) == la.poly_gcd(p, zero) == reference_poly_gcd(zero, p) == naive_poly_monic(p)
    assert la.poly_gcd(three, p) == la.poly_gcd(p, three) == reference_poly_gcd(three, p) == (ONE,)
    assert la.poly_gcd(three, zero) == (ONE,)
    assert la.poly_squarefree_part(three) == (ONE,)
    assert la.poly_sturm_counts(three) == reference_poly_sturm_counts(three) == (0, 0, 0)
    assert la.poly_root_counts((-3 * ONE,)) == (0, 0, 0, 0)
    assert _decomposition(three) == [] and la.poly_factor(three) == []
    for f in (la.poly_squarefree_part, la.poly_sturm_counts, la.poly_factor):
        with pytest.raises(ZeroDivisionError):
            f(zero)
    with pytest.raises(ZeroDivisionError):
        reference_poly_squarefree_part(zero)


def test_inexact_integer_division_is_a_certificate_error():
    with pytest.raises(CertificateError):
        la._int_exquo([1, 0, 1], [1, 1])  # remainder 2
    with pytest.raises(CertificateError):
        la._int_exquo([1, 1], [2, 1])  # quotient 1/2
    with pytest.raises(CertificateError):
        la._int_exquo([1], [1, 1])  # degree too low
    assert la._int_exquo([2, 3, 1], [2, 1]) == [1, 1]
    assert la._int_exquo([], [5, 1]) == []


def test_factor_rebuild_off_by_one_factor_is_a_certificate_error(monkeypatch):
    # x^2 (x - 1)^2 (x^2 + 1), the characteristic polynomial of a 6 x 6 matrix
    cp = la.poly_mul(_power((ONE, ZERO), 2), la.poly_mul(_power((ONE, -ONE), 2), (ONE, ZERO, ONE)))
    factors = obstruction.irreducible_factors(cp)
    assert sum(len(f) - 1 for f, k in factors for _ in range(k)) == 6
    assert len(obstruction._roots(cp)) == 6
    changed = [
        factors[:-1],  # one factor dropped
        factors + [((ONE, -2 * ONE), 1)],  # one factor too many
        [(f, k + (i == 0)) for i, (f, k) in enumerate(factors)],  # one multiplicity too high
        [(f, k - (i == 0)) for i, (f, k) in enumerate(factors)],  # one multiplicity too low
    ]
    for wrong in changed:
        monkeypatch.setattr(obstruction, "irreducible_factors", lambda p, wrong=wrong: wrong)
        with pytest.raises(CertificateError, match="rebuild"):
            obstruction._roots(cp)
