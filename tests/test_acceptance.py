"""Acceptance gate: one test per shipped guarantee, each printing a
single pass line with its measured budget.

Run with -v (or -s) to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

import pytest
import sympy as sp

from metriclie import linalg as la
from metriclie.catalog import direct_sum, sl2, su2
from metriclie.core import (
    LinearMap,
    SubspaceBasis,
    ad,
    center,
    jordan_chevalley,
    killing_matrix,
    nilradical,
    series,
)
from metriclie.einstein import (
    EigenvalueData,
    TorusLeaf,
    TriangularNode,
    assemble_nested,
    bounds_certificate,
    einstein_check,
    nested_trace_square,
    sharpness_search,
    trace_identity,
)
from metriclie.forms import MetricLieAlgebra, SymBilinearForm, signature
from metriclie.obstruction import obstruction_verdict
from metriclie.reduction import (
    DoubleExtensionSpec,
    build_ab,
    build_example42,
    complete_reduction,
    double_extend,
    random_double_extension,
    reduce_by_ideal,
    skew_derivation_space,
)
from metriclie.semisimple import compact_split, split_form_report

from conftest import (
    naive_mat_add,
    naive_mat_pow,
    naive_mat_scale,
    naive_trace,
    naive_zeros,
    rand_matrix,
    random_abelian_base,
)


def _report(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS - {detail}")


# 1 ---------------------------------------------------------------------------


def test_criterion_1_flat_regression_fixture():
    start = time.monotonic()
    m = build_example42()
    assert la.is_zero_mat(killing_matrix(m.algebra))
    sig = signature(m.form)
    assert (sig.p, sig.q, sig.r) == (4, 2, 0)
    z = center(m.algebra)
    assert z.dim == 1 and z.contains(la.unit_vec(6, 5))
    assert nilradical(m.algebra).dim == 5
    rep = series(m.algebra)
    assert rep.is_solvable and not rep.is_nilpotent
    e = einstein_check(m)
    assert e.einstein and e.constant == 0
    cert = bounds_certificate(m)
    assert (cert.dim, cert.dim_nilradical, cert.witt_index) == (6, 5, 2)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"all exact invariants and the 6/5/2 certificate in {elapsed:.2f}s")


# 2 ---------------------------------------------------------------------------


def test_criterion_2_reduce_extend_round_trip():
    rng = random.Random(1002)
    done = 0
    while done < 100:
        base = random_abelian_base(rng, max_dim=6)
        if rng.random() < 0.3 and base.dim <= 6:
            base = random_double_extension(rng, base)  # base dim <= 8
        space = skew_derivation_space(base)
        delta = naive_zeros(base.dim, base.dim)
        for d in space:
            c = Fraction(rng.randint(-2, 2))
            if c:
                delta = naive_mat_add(delta, naive_mat_scale(c, d))
        spec = DoubleExtensionSpec(base, (delta,))
        ext = double_extend(spec)
        ideal = SubspaceBasis(ext.dim, (la.unit_vec(ext.dim, ext.dim - 1),))
        step = reduce_by_ideal(ext, ideal)
        # exact recovery of the base, delta and (via the rebuild) omega
        assert step.base.algebra.brackets == base.algebra.brackets
        assert step.base.form.matrix == base.form.matrix
        assert step.spec.deltas == spec.deltas
        rebuilt = double_extend(step.spec)
        assert rebuilt.algebra.brackets == ext.algebra.brackets
        assert rebuilt.form.matrix == ext.form.matrix
        done += 1
    _report(2, f"{done} round trips recovered base, form, delta and omega exactly")


# 3 ---------------------------------------------------------------------------


def test_criterion_3_complete_reduction():
    start = time.monotonic()
    rng = random.Random(1003)
    done = 0
    while done < 100:
        base = random_abelian_base(rng, max_dim=4)
        m = base
        for _ in range(rng.randint(1, 2)):
            m = random_double_extension(rng, m)
        s = signature(m.form).witt_index
        chain = complete_reduction(m)
        final = chain.final
        assert series(final.algebra).is_abelian
        assert signature(final.form).is_definite
        assert final.dim == m.dim - 2 * s
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(3, f"{done} complete reductions to definite abelian cores in {elapsed:.1f}s")


# 4 ---------------------------------------------------------------------------


def test_criterion_4_trace_identity_on_solvable_algebras():
    rng = random.Random(1004)
    checked = 0
    while checked < 100:
        base = random_abelian_base(rng, max_dim=4)
        m = random_double_extension(rng, base)
        if rng.random() < 0.3:
            m = random_double_extension(rng, m)
        for _ in range(4):
            a = tuple(
                Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                for _ in range(m.dim)
            )
            phi = ad(m.algebra, a)
            rep = trace_identity(phi)  # certifies both sides agree
            direct = naive_trace(la.mat_mul(phi.matrix, phi.matrix))
            assert rep.value == direct
            assert rep.spectrum_value == direct
            checked += 1
    _report(4, f"{checked} exact matches of tr(ad(a)^2) against the spectrum side")


# 5 ---------------------------------------------------------------------------


def test_criterion_5_nested_triangular_recursion():
    rng = random.Random(1005)
    for _ in range(200):
        node = TorusLeaf(
            rotations=tuple(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(rng.randint(0, 3))
            ),
            padding=rng.randint(0, 2),
        )
        for _ in range(rng.randint(0, 3)):
            node = TriangularNode(rand_matrix(rng, rng.randint(1, 3), bound=2), node)
        x = assemble_nested(node)
        assert nested_trace_square(node) == naive_trace(la.mat_mul(x, x))
    negatives = 0
    for _ in range(60):
        rotations = tuple(
            Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))
        )
        val = nested_trace_square(TorusLeaf(rotations=rotations))
        if any(r != 0 for r in rotations):
            assert val < 0
            negatives += 1
        else:
            assert val == 0
    _report(5, f"200 nested specs direct == recursive; {negatives} compact specs < 0")


# 6 ---------------------------------------------------------------------------


def test_criterion_6_obstruction_verdicts():
    case1 = obstruction_verdict(
        EigenvalueData(reals=(), complex_pairs=((1, 1), (-1, 1)))
    )
    assert case1.case_tag == "case1_nonzero_real_part"
    assert case1.verdict == "obstructed"
    assert all(case1.hypothesis_checks.values())

    case2 = obstruction_verdict(
        EigenvalueData(reals=(1, -1), complex_pairs=((0, 1),))
    )
    assert case2.case_tag == "case2_imaginary_pair"
    assert case2.verdict == "obstructed"
    assert all(case2.hypothesis_checks.values())

    # the 6-dimensional spiral spectrum: lambda = sqrt(b1^2 + b2^2)
    b1, b2 = 3, 4
    lam = sp.sqrt(b1**2 + b2**2)
    spiral = obstruction_verdict(
        EigenvalueData(reals=(lam, -lam), complex_pairs=((0, b1), (0, b2)))
    )
    assert spiral.n == 6
    assert spiral.verdict == "schanuel_conditional"
    assert spiral.rule_cited == "schanuel-conditional"
    assert spiral.hypothesis_checks["trace_identity"]

    nil = obstruction_verdict(EigenvalueData(reals=(0,), complex_pairs=((0, 0),)))
    assert nil.verdict == "inapplicable"
    _report(6, "case 1/2 obstructed, spiral n=6 conditional, nilpotent inapplicable")


# 7 ---------------------------------------------------------------------------


def test_criterion_7_sharpness_search():
    start = time.monotonic()

    lorentz = sharpness_search((3, 8), (1, 1), 10_000, seed=7001)
    assert lorentz.examined >= 10_000
    assert all(h["abelian"] for h in lorentz.hits)

    low_dim = sharpness_search((3, 5), (1, 3), 10_000, seed=7002)
    assert low_dim.examined >= 10_000
    assert all(h["nilpotent"] for h in low_dim.hits)

    sharp = sharpness_search((6, 6), (2, 2), 10_000, seed=7003)
    tight = [h for h in sharp.hits if not h["nilpotent"]]
    assert tight, "expected at least one non-nilpotent Einstein hit at dim 6, index 2"
    for h in tight:
        assert h["dim"] == 6 and h["dim_nilradical"] == 5 and h["index"] == 2

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(
        7,
        f"3x10^4 samples: no index-1 non-abelian, no dim<=5 non-nilpotent, "
        f"{len(tight)} tight dim-6 hits in {elapsed:.0f}s",
    )


# 8 ---------------------------------------------------------------------------


def _polynomial_in(target: la.Mat, a: la.Mat) -> bool:
    n = len(a)
    powers = [la.identity(n)]
    for _ in range(n - 1):
        powers.append(la.mat_mul(powers[-1], a))
    cols = tuple(
        tuple(p[i][j] for p in powers) for i in range(n) for j in range(n)
    )
    rhs = tuple(target[i][j] for i in range(n) for j in range(n))
    return la.solve_lex(cols, rhs) is not None


def test_criterion_8_jordan_chevalley_invariants():
    rng = random.Random(1008)
    for count in range(200):
        n = rng.randint(1, 6)
        a = rand_matrix(rng, n, bound=2)
        pair = jordan_chevalley(LinearMap(a))
        s, nil = pair.semisimple.matrix, pair.nilpotent.matrix
        assert naive_mat_add(s, nil) == la.mat(a)
        assert la.mat_mul(s, nil) == la.mat_mul(nil, s)
        assert la.is_zero_mat(naive_mat_pow(nil, n))
        mp = la.minimal_polynomial(s)
        assert la.poly_deg(la.poly_gcd(mp, la.poly_deriv(mp))) == 0
        assert _polynomial_in(s, a)
    _report(8, "200 decompositions: sum, commuting, nilpotency, squarefree, poly-in-A")


# 9 ---------------------------------------------------------------------------


def test_criterion_9_semisimple_split():
    g = direct_sum(su2(), sl2()).algebra
    split = compact_split(g)
    assert sorted(i.dim for i in split.simple_ideals) == [3, 3]
    assert split.compact_part.dim == 3 and split.noncompact_part.dim == 3
    for v in split.compact_part.vectors:
        assert all(v[j] == 0 for j in range(3, 6))

    ksl2 = killing_matrix(sl2().algebra)
    recovered = []
    for c in (Fraction(1, 2), Fraction(2), Fraction(-3)):
        rows = []
        for i in range(6):
            row = [Fraction(0)] * 6
            if i < 3:
                row[i] = Fraction(1)
            else:
                for j in range(3, 6):
                    row[j] = c * ksl2[i - 3][j - 3]
            rows.append(tuple(row))
        rep = split_form_report(MetricLieAlgebra(g, SymBilinearForm(tuple(rows))), split)
        assert rep.s_invariant and rep.k_perp_s and rep.s_cap_radical_zero
        assert rep.ideal_constants == (c,)
        assert rep.uniform_constant == c
        recovered.append(c)
    _report(9, f"su2 + sl2 split; constants {recovered} recovered exactly")
