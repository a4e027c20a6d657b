import random
from fractions import Fraction

import pytest

from metriclie import linalg as la
from metriclie.core import (
    LieAlgebra,
    SubspaceBasis,
    _int_bracket,
    ad,
    bracket_spans,
    center,
    centralizer,
    derived_subalgebra,
    jordan_chevalley,
    killing_matrix,
    nilradical,
    series,
    subspace_from_spanning,
    validate_structure,
)
from metriclie.core import LinearMap
from metriclie.catalog import heis3, sl2, su2
from metriclie.reduction import build_example42

from conftest import (
    naive_center,
    naive_identity,
    naive_mat_add,
    naive_mat_pow,
    naive_mat_scale,
    naive_poly_deg,
    naive_rank,
    naive_solve_lex,
    naive_subalgebra_on,
    rand_matrix,
    random_solvable_metric,
    random_vector,
)


def test_validate_heis3():
    assert validate_structure(heis3()).passed


def test_validate_catches_jacobi_failure():
    # [x,y] = z, [x,z] = x fails Jacobi on (x,y,z)
    alg = LieAlgebra(
        3,
        ("x", "y", "z"),
        {(0, 1): la.unit_vec(3, 2), (0, 2): la.unit_vec(3, 0)},
    )
    rep = validate_structure(alg)
    assert not rep.passed
    assert rep.violations
    i, j, k, residual = rep.violations[0]
    assert (i, j, k) == (0, 1, 2)
    assert not la.is_zero_vec(residual)


def test_series_flags():
    h = heis3()
    rep = series(h)
    assert rep.is_solvable and rep.is_nilpotent and not rep.is_abelian

    s = sl2().algebra
    rep = series(s)
    assert not rep.is_solvable and not rep.is_nilpotent

    ex = build_example42().algebra
    rep = series(ex)
    assert rep.is_solvable and not rep.is_nilpotent


def test_center_and_derived():
    h = heis3()
    assert center(h).dim == 1
    assert derived_subalgebra(h).dim == 1
    assert center(sl2().algebra).dim == 0
    assert derived_subalgebra(sl2().algebra).dim == 3


def test_is_central_agrees_with_the_center():
    """A subspace is central exactly when its centralizer is all of it.
    A bracket whose terms cancel keeps its key in ``_int_bracket``'s
    dict, and the elimination of ``centralizer`` drops the zero value."""
    # [e0, e1] = [e0, e2] = e3, so e1 - e2 is central
    alg = LieAlgebra(4, ("e0", "e1", "e2", "e3"), {(0, 1): (0, 0, 0, 1), (0, 2): (0, 0, 0, 1)})

    def is_central(alg, sub):
        return centralizer(alg, sub).dim == sub.dim

    assert _int_bracket(alg.int_table[1], {1: 1, 2: -1}, {0: 1}) == {3: 0}
    assert is_central(alg, SubspaceBasis(4, ((0, 1, -1, 0),)))
    assert not is_central(alg, SubspaceBasis(4, ((0, 1, 0, 0),)))
    rng = random.Random(27)
    algebras = [alg, heis3(), sl2().algebra, build_example42().algebra]
    algebras += [random_solvable_metric(rng, max_base_dim=4).algebra for _ in range(12)]
    seen = set()
    for alg in algebras:
        n, z = alg.dim, naive_center(alg)
        assert center(alg).same_span(z)
        subs = [z, alg.full_space(), derived_subalgebra(alg)]
        subs += [subspace_from_spanning(n, (random_vector(rng, n),)) for _ in range(3)]
        if z.dim:
            combo = [sum((rng.randint(-3, 3) * v[c] for v in z.vectors), Fraction(0)) for c in range(n)]
            subs.append(subspace_from_spanning(n, (combo,)))
        for sub in subs:
            seen.add(is_central(alg, sub))
            assert is_central(alg, sub) == z.contains_subspace(sub)
    assert seen == {True, False}


def test_killing_sl2():
    kappa = killing_matrix(sl2().algebra)
    f = Fraction
    assert kappa == (
        (f(0), f(4), f(0)),
        (f(4), f(0), f(0)),
        (f(0), f(0), f(8)),
    )


def test_killing_su2_negative_definite():
    kappa = killing_matrix(su2().algebra)
    assert kappa == naive_mat_scale(Fraction(-2), naive_identity(3))


def test_nilradical_heis3_is_everything():
    assert nilradical(heis3()).dim == 3


def test_nilradical_example42():
    ex = build_example42().algebra
    nil = nilradical(ex)
    assert nil.dim == 5
    # a = e0 is the only direction outside
    assert not nil.contains(la.unit_vec(6, 0))


def test_nilradical_of_random_solvable_is_nilpotent_ideal():
    rng = random.Random(11)
    for _ in range(15):
        m = random_solvable_metric(rng, max_base_dim=4, max_steps=1)
        alg = m.algebra
        nil = nilradical(alg)
        assert nil.contains_subspace(bracket_spans(alg, alg.full_space(), nil))
        assert series(naive_subalgebra_on(alg, nil)).is_nilpotent


def _is_polynomial_in(target: la.Mat, a: la.Mat) -> bool:
    n = len(a)
    powers = [naive_identity(n)]
    for _ in range(n - 1):
        powers.append(la.mat_mul(powers[-1], a))
    rows = la.transpose(
        tuple(tuple(p[i][j] for p in powers) for i in range(n) for j in range(n))
    )
    rhs = tuple(target[i][j] for i in range(n) for j in range(n))
    return naive_solve_lex(la.transpose(rows), rhs) is not None


def _check_jordan_pair(a: la.Mat):
    pair = jordan_chevalley(LinearMap(a))
    s, nmat = pair.semisimple.matrix, pair.nilpotent.matrix
    n = len(a)
    assert naive_mat_add(s, nmat) == la.mat(a)
    assert la.mat_mul(s, nmat) == la.mat_mul(nmat, s)
    assert la.is_zero_mat(naive_mat_pow(nmat, n))
    mp = la.minimal_polynomial(s)
    g = la.poly_gcd(mp, la.poly_deriv(mp))
    assert naive_poly_deg(g) == 0
    assert _is_polynomial_in(s, a)
    assert _is_polynomial_in(nmat, a)


def test_jordan_chevalley_known_block():
    # [[1,1],[0,1]] -> S = I, N strictly upper
    f = Fraction
    a = ((f(1), f(1)), (f(0), f(1)))
    pair = jordan_chevalley(LinearMap(a))
    assert pair.semisimple.matrix == naive_identity(2)
    assert pair.nilpotent.matrix == ((f(0), f(1)), (f(0), f(0)))


def test_jordan_chevalley_random_matrices():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 6)
        _check_jordan_pair(rand_matrix(rng, n, bound=2))


def test_jordan_chevalley_constructed_conjugates():
    # conjugates of Jordan-like blocks, where S and N are known shapes
    rng = random.Random(13)
    f = Fraction
    for _ in range(20):
        n = rng.randint(2, 5)
        d = [f(rng.randint(-3, 3)) for _ in range(n)]
        jordan = [[f(0)] * n for _ in range(n)]
        for i in range(n):
            jordan[i][i] = d[i]
            if i + 1 < n and d[i] == d[i + 1] and rng.random() < 0.7:
                jordan[i][i + 1] = f(1)
        while True:
            p = rand_matrix(rng, n, bound=2)
            if naive_rank(p) == n:
                break
        a = la.mat_mul(la.mat_mul(p, tuple(tuple(r) for r in jordan)), la.inverse(p))
        _check_jordan_pair(a)


def test_ad_is_derivation_of_bracket():
    ex = build_example42().algebra
    rng = random.Random(14)
    for _ in range(10):
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(6))
        y = tuple(Fraction(rng.randint(-2, 2)) for _ in range(6))
        z = tuple(Fraction(rng.randint(-2, 2)) for _ in range(6))
        lhs = ex.bracket(x, ex.bracket(y, z))
        rhs = la.vec_add(
            ex.bracket(ex.bracket(x, y), z), ex.bracket(y, ex.bracket(x, z))
        )
        assert lhs == rhs
        assert ad(ex, x)(y) == ex.bracket(x, y)
