import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclie import linalg as la
from metriclie.catalog import direct_sum, heis3, sl2, su2
from metriclie.core import (
    LieAlgebra,
    ad,
    bracket_spans,
    jordan_chevalley,
    killing_matrix,
    nilradical,
    subspace_from_spanning,
    validate_structure,
)
from metriclie.errors import PreconditionError
from metriclie.forms import (
    InvarianceReport,
    MetricLieAlgebra,
    SymBilinearForm,
    _lift,
    central_isotropic_ideal,
    diagonalize_symmetric,
    is_invariant,
    is_totally_isotropic,
    isotropic_vector,
    j0_ideal,
    metric_radical,
    nilinvariance,
    orthogonal_complement,
    signature,
    witt_basis,
)
from metriclie.reduction import build_ab, build_example42, random_double_extension

from conftest import (
    apply_form,
    naive_bracket_span,
    naive_center,
    naive_identity,
    naive_kernel,
    naive_rank,
    naive_rref,
    naive_subalgebra_on,
    pool_metrics,
    rand_fraction,
    random_solvable_metric,
    reference_nilinvariance_probe,
    reference_skew_residual,
    restrict_form,
)


def _rand_symmetric(rng, n, bound=3):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c = rand_fraction(rng, bound)
            m[i][j] = c
            m[j][i] = c
    return tuple(tuple(r) for r in m)


def test_signature_example42():
    sig = signature(build_example42().form)
    assert (sig.p, sig.q, sig.r) == (4, 2, 0)
    assert sig.witt_index == 2
    assert sig.is_nondegenerate


def test_signature_sylvester_invariance():
    # signature of P^T B P must match B for invertible P
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(1, 5)
        b = _rand_symmetric(rng, n)
        sig = signature(SymBilinearForm(b))
        assert sig.p + sig.q + sig.r == n
        while True:
            p = tuple(
                tuple(rand_fraction(rng, 2) for _ in range(n)) for _ in range(n)
            )
            if naive_rank(p) == n:
                break
        b2 = la.mat_mul(la.transpose(p), la.mat_mul(b, p))
        sig2 = signature(SymBilinearForm(b2))
        assert (sig.p, sig.q, sig.r) == (sig2.p, sig2.q, sig2.r)


def test_diagonalize_symmetric_is_congruence():
    rng = random.Random(22)
    for _ in range(25):
        n = rng.randint(1, 5)
        b = SymBilinearForm(_rand_symmetric(rng, n))
        vecs, diag = diagonalize_symmetric(b)
        assert len(vecs) == n and naive_rank(vecs) == n
        for i in range(n):
            for j in range(n):
                expected = diag[i] if i == j else Fraction(0)
                assert apply_form(b, vecs[i], vecs[j]) == expected


def test_invariance_example42_and_killing():
    assert is_invariant(build_example42()).passed
    s = sl2()
    assert is_invariant(s).passed


def test_invariance_failure_has_witness():
    ex = build_example42()
    bad = [list(r) for r in ex.form.matrix]
    bad[0][0] += Fraction(1)
    broken = MetricLieAlgebra(ex.algebra, SymBilinearForm(tuple(tuple(r) for r in bad)))
    rep = is_invariant(broken)
    # perturbing <a,a> keeps invariance here; check a genuinely broken entry
    bad[2][4] = bad[4][2] = Fraction(1)
    broken = MetricLieAlgebra(ex.algebra, SymBilinearForm(tuple(tuple(r) for r in bad)))
    rep = is_invariant(broken)
    assert not rep.passed
    assert rep.witness is not None
    x, y1, y2 = rep.witness
    alg, b = broken.algebra, broken.form
    # the reported triple must actually violate invariance
    ex_x = la.unit_vec(6, x)
    ey1 = la.unit_vec(6, y1)
    ey2 = la.unit_vec(6, y2)
    viol = apply_form(b, alg.bracket(ex_x, ey1), ey2) + apply_form(b, ey1, alg.bracket(ex_x, ey2))
    assert viol != 0


def test_metric_radical():
    b = SymBilinearForm(
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
    )
    rad = metric_radical(b)
    assert rad.dim == 1
    assert rad.contains(la.unit_vec(2, 1))


def test_orthogonal_complement_dimensions():
    rng = random.Random(23)
    ex = build_example42()
    from metriclie.core import SubspaceBasis

    for k in range(1, 4):
        vecs = tuple(la.unit_vec(6, i) for i in range(k))
        sub = SubspaceBasis(6, vecs)
        comp = orthogonal_complement(ex.form, sub)
        assert comp.dim == 6 - k  # non-degenerate form


def test_witt_basis_properties():
    ex = build_example42()
    cii = central_isotropic_ideal(ex)
    wb = witt_basis(ex.form, cii)
    k = len(wb.v)
    assert k == cii.dim
    b = ex.form
    for i in range(k):
        for j in range(k):
            assert apply_form(b, wb.v[i], wb.v[j]) == 0
            assert apply_form(b, wb.v_star[i], wb.v_star[j]) == 0
            assert apply_form(b, wb.v[i], wb.v_star[j]) == (1 if i == j else 0)
    for w in wb.w:
        for u in wb.v + wb.v_star:
            assert apply_form(b, w, u) == 0
    for i, w in enumerate(wb.w):
        assert apply_form(b, w, w) == wb.w_diagonal[i]
        assert wb.w_diagonal[i] != 0


def test_j0_and_central_isotropic_ideal_example42():
    ex = build_example42()
    j0 = j0_ideal(ex)
    assert j0.dim == 1
    assert j0.contains(la.unit_vec(6, 5))  # z
    cii = central_isotropic_ideal(ex)
    assert cii is not None and cii.dim == 1
    assert cii.contains(la.unit_vec(6, 5))
    assert is_totally_isotropic(ex.form, cii)


def test_j0_ideal_matches_the_center_of_the_restricted_nilradical():
    # the reference: z(n) as the center of the restricted algebra on the
    # basis of n, lifted back, then intersected with [g, n]
    rng = random.Random(4402)
    ms = [build_example42()] + [random_solvable_metric(rng, 4, 3) for _ in range(25)]
    nontrivial = 0
    for m in ms:
        alg = m.algebra
        nil = nilradical(alg)
        zn = naive_center(naive_subalgebra_on(alg, nil))
        lifted = [_lift(c, nil.vectors, alg.dim) for c in zn.vectors]
        expected = subspace_from_spanning(alg.dim, lifted).intersect(
            bracket_spans(alg, alg.full_space(), nil)
        )
        got = j0_ideal(m)
        assert got.vectors == expected.vectors
        nontrivial += got.dim > 0
    assert nontrivial >= 10


def test_central_isotropic_ideal_none_for_abelian():
    m = build_ab(4, 1)
    assert central_isotropic_ideal(m) is None


def test_isotropic_vector_indefinite_forms():
    rng = random.Random(24)
    for (n, s) in [(2, 1), (3, 1), (4, 2), (5, 2)]:
        m = build_ab(n, s)
        v = isotropic_vector(m.form)
        assert v is not None
        assert apply_form(m.form, v, v) == 0
        assert not la.is_zero_vec(v)


def test_isotropic_vector_definite_returns_none():
    m = build_ab(4, 0)
    assert isotropic_vector(m.form) is None


@functools.lru_cache(maxsize=1)
def nilinvariance_cases():
    """``pool_metrics()``, each algebra with its own form and two seeded
    random symmetric forms."""
    rng = random.Random(32)
    out = []
    for m in pool_metrics():
        out.append(m)
        out += [MetricLieAlgebra(m.algebra, SymBilinearForm(_rand_symmetric(rng, m.dim))) for _ in range(2)]
    return out


def _perturbed_on_a_complement(m):
    """The form plus e_c e_c^T for the last free column c of [g, g]."""
    pivots = m.algebra.derived.int_span.pivots
    c = max(i for i in range(m.dim) if i not in pivots)
    b = [list(r) for r in m.form.matrix]
    b[c][c] += 1
    return MetricLieAlgebra(m.algebra, SymBilinearForm(tuple(map(tuple, b))))


def test_nilinvariance_agrees_with_the_random_probe():
    cases = nilinvariance_cases()
    verdicts = [nilinvariance(m).passed for m in cases]
    # both verdicts occur, so the agreement is not trivial
    assert 40 < sum(verdicts) < len(cases) - 40
    for m, passed in zip(cases, verdicts):
        assert reference_nilinvariance_probe(m, 7, 5)[0] == passed


def test_nilinvariance_witness_fails_skewness_of_ad():
    rng = random.Random(33)
    # every third case is an algebra's own form
    cases = list(nilinvariance_cases()) + [_perturbed_on_a_complement(m) for m in nilinvariance_cases()[::3]]
    cases += [MetricLieAlgebra(heis3(), SymBilinearForm(_rand_symmetric(rng, 3))) for _ in range(5)]
    failed = beyond_derived = 0
    for m in cases:
        rep = nilinvariance(m)
        if rep.passed:
            assert rep.witness is None
            continue
        failed += 1
        x, i, j = rep.witness
        unit = naive_identity(m.dim)
        assert reference_skew_residual(ad(m.algebra, unit[x]).matrix, m.form.matrix)[i][j] != 0
        derived = naive_bracket_span(m.algebra, unit, unit)
        if not any(any(map(any, reference_skew_residual(ad(m.algebra, y).matrix, m.form.matrix))) for y in derived):
            # skew for ad([g, g]): only the nilpotent parts (ad c)_n of
            # the generators outside [g, g] can reject the form
            beyond_derived += 1
            assert not reference_nilinvariance_probe(m, 7, 5)[0]
    assert 0 < beyond_derived < failed


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_every_invariant_form_is_nilinvariant(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    m = build_ab(n, rng.randint(0, n))
    for _ in range(rng.randint(1, 3)):
        m = random_double_extension(rng, m)
    assert is_invariant(m)
    assert nilinvariance(m) == InvarianceReport(True, None)


def _combination(coeffs, forms):
    out = {}
    for c, b in zip(coeffs, forms):
        if c:
            for key, x in b.items():
                out[key] = out.get(key, 0) + c * x
    return out


def _skew_forms(maps, forms):
    """A basis of the symmetric forms in the span of ``forms``, each
    {(p, q): B_pq} over p <= q, for which every map A of ``maps`` is
    skew: one ``naive_kernel`` per map, on the entries (p, q) of
    B A + (B A)^T, which are <A e_p, e_q> + <e_p, A e_q>."""
    for a in maps:
        n = len(a)
        rows = [[(q, x) for q, x in enumerate(row) if x] for row in a]
        products = []
        for b in forms:
            ba = {}
            for (p, k), x in b.items():
                for s, t in {(p, k), (k, p)}:
                    for q, y in rows[t]:
                        ba[s, q] = ba.get((s, q), 0) + x * y
            products.append(ba)
        eqs = {tuple(ba.get((p, q), 0) + ba.get((q, p), 0) for ba in products) for p in range(n) for q in range(p, n)}
        eqs = [e for e in eqs if any(e)]
        if eqs:
            forms = [_combination(v, forms) for v in naive_kernel(eqs)]
    return forms


def _nilinvariant_and_invariant_forms(alg):
    """Bases of the symmetric forms skew for ad([g, g]) and each (ad c)_n
    (nil-invariant), and of those skew for ad([g, g]) and each ad(c)
    (invariant), c the unit vectors on the free columns of the RREF of
    [g, g], which with [g, g] span g."""
    n = alg.dim
    unit = naive_identity(n)
    derived = naive_bracket_span(alg, unit, unit)
    pivots = naive_rref(derived)[1]
    free = [unit[c] for c in range(n) if c not in pivots]
    every_form = [{(p, q): 1} for p in range(n) for q in range(p, n)]
    on_derived = _skew_forms([ad(alg, y).matrix for y in derived], every_form)
    nilinvariant = _skew_forms([jordan_chevalley(ad(alg, c)).nilpotent.matrix for c in free], on_derived)
    invariant = _skew_forms([ad(alg, c).matrix for c in free], on_derived)
    return nilinvariant, invariant


def _triangular_semidirect(rng):
    """R^k ⋉ R^m, k in {1, 2} and m in 2..5: t_1 acts on R^m by an integer
    upper-triangular A and t_2 by c1 A + c2 A^2, which commutes with A;
    both are redrawn until they are singular and not semisimple."""
    k, m = rng.randint(1, 2), rng.randint(2, 5)
    while True:
        a = [[rng.randint(-2, 2) if i < j else 0 for j in range(m)] for i in range(m)]
        for i in range(m):
            a[i][i] = rng.randint(-1, 1)
        a[rng.randrange(m)][rng.randrange(m)] = 0
        acts = [la.mat(a)]
        if k == 2:
            c1, c2 = rng.randint(-2, 2), rng.randint(-2, 2)
            square = la.mat_mul(acts[0], acts[0])
            acts.append(tuple(tuple(c1 * x + c2 * y for x, y in zip(r, s)) for r, s in zip(acts[0], square)))
        if all(naive_rank(b) < m and any(map(any, jordan_chevalley(b).nilpotent.matrix)) for b in acts):
            break
    brackets = {
        (t, k + j): (0,) * k + tuple(b[i][j] for i in range(m)) for t, b in enumerate(acts) for j in range(m)
    }
    return LieAlgebra(k + m, [f"e{i}" for i in range(k + m)], brackets)


def test_nilinvariant_forms_are_the_invariant_forms_on_solvable_algebras():
    # Baues and Globke's theorem, solved in Fractions apart from the
    # library's verdicts: the nil-invariant forms contain the invariant
    # ones, so equal dimension and rank make the two spaces equal
    rng = random.Random(37)
    algebras = [m.algebra for m in pool_metrics()]
    algebras += [random_solvable_metric(rng).algebra for _ in range(100)]
    semidirect = [_triangular_semidirect(rng) for _ in range(200)]
    # a non-nilpotent g has a generator c with (ad c)_n != ad(c), so
    # there the two spaces are solved from different maps
    assert sum(not alg.series_report.is_nilpotent for alg in semidirect) > 100
    algebras += semidirect
    for alg in algebras:
        assert validate_structure(alg)
        nilinvariant, invariant = _nilinvariant_and_invariant_forms(alg)
        assert len(nilinvariant) == len(invariant) >= 1
        n = alg.dim
        flat = [tuple(b.get((p, q), 0) for p in range(n) for q in range(p, n)) for b in nilinvariant + invariant]
        assert naive_rank(flat) == len(invariant)


def test_example42_is_nilinvariant():
    assert nilinvariance(build_example42()).passed


def test_nilinvariance_is_invariance_on_nilpotent_algebras():
    rng = random.Random(34)
    algs = [(heis3(), None)] + [(m.algebra, m.form) for m in pool_metrics(step=1)]
    seen = {True: 0, False: 0}
    for alg, form in algs:
        if not alg.series_report.is_nilpotent:
            continue
        n = alg.dim
        forms = [SymBilinearForm(_rand_symmetric(rng, n)) for _ in range(3)]
        # a random form zero on the pivot columns of [g, g]
        rows = [list(r) for r in _rand_symmetric(rng, n)]
        for c in alg.derived.int_span.pivots:
            rows[c] = [0] * n
            for r in rows:
                r[c] = 0
        forms.append(SymBilinearForm(tuple(map(tuple, rows))))
        forms += [form] if form is not None else []
        for form in forms:
            m = MetricLieAlgebra(alg, form)
            verdict = nilinvariance(m).passed
            assert verdict == is_invariant(m).passed
            seen[verdict] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize(
    "m", [sl2(), su2(), direct_sum(sl2(), build_ab(1, 0))], ids=["sl2", "su2", "sl2+ab1"]
)
def test_nilinvariance_rejects_non_solvable_algebras(m):
    with pytest.raises(PreconditionError, match="Levi factor"):
        nilinvariance(m)


def test_zero_algebra_is_nilinvariant():
    m = MetricLieAlgebra(LieAlgebra(0, ()), SymBilinearForm(()))
    assert nilinvariance(m) == InvarianceReport(True, None)


def test_isqrt_exact_large_squares():
    from metriclie.forms import _isqrt_exact

    big = 10**30 + 7
    assert _isqrt_exact(big**2) == big
    assert _isqrt_exact((2**70 + 3) ** 2) == 2**70 + 3
    assert _isqrt_exact(10**400) == 10**200
    form = SymBilinearForm(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-big**2))))
    v = isotropic_vector(form)
    assert v is not None and not la.is_zero_vec(v) and apply_form(form, v, v) == 0


def test_restrict_matches_pairwise_gram():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(0, 8)
        form = SymBilinearForm(_rand_symmetric(rng, n))
        k = rng.randint(0, n + 2)
        vectors = [
            tuple(rand_fraction(rng, 4, 7) if rng.random() < 0.6 else 0 for _ in range(n))
            for _ in range(k)
        ]
        if k > 1:
            vectors[-1] = vectors[0]  # a repeated vector
        gram = tuple(tuple(apply_form(form, u, v) for v in vectors) for u in vectors)
        restricted = restrict_form(form, tuple(vectors))
        assert restricted.matrix == gram
        assert all(isinstance(x, Fraction) for row in restricted.matrix for x in row)
