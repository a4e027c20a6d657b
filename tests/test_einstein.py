import copy
import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
import sympy as sp

from metriclie import linalg as la
from metriclie.catalog import sl2
from metriclie.core import LieAlgebra, ad, killing_matrix, killing_sums
import metriclie.einstein
from metriclie.einstein import (
    EigenvalueData,
    _extension,
    _extension_record,
    _traceless_skew_map,
    _trace_square_from_charpoly,
    TorusLeaf,
    TriangularNode,
    assemble_nested,
    bounds_certificate,
    einstein_check,
    eigenvalue_condition,
    nested_trace_square,
    ricci_biinvariant,
    sharpness_search,
    trace_identity,
)
from metriclie.errors import CertificateError, PreconditionError
from metriclie.forms import MetricLieAlgebra, SymBilinearForm, _map_pairing
from metriclie.quadratic import Quadratic, quadratic_roots
from metriclie.reduction import (
    build_ab,
    build_example42,
    build_ko1,
    random_double_extension,
    random_skew_derivation,
)

from conftest import (
    draw_forms,
    naive_identity,
    naive_mat_scale,
    naive_poly_monic,
    naive_trace,
    naive_zeros,
    rand_matrix,
    random_solvable_metric,
    random_vector,
    reference_random_skew_map,
    reference_sharpness_search,
)


def _rotation_boost():
    f = Fraction
    z = f(0)
    return (
        (z, f(1), z, z),
        (f(-1), z, z, z),
        (z, z, z, f(1)),
        (z, z, f(1), z),
    )


def _double_rotation():
    f = Fraction
    z = f(0)
    return (
        (z, f(1), z, z),
        (f(-1), z, z, z),
        (z, z, z, f(-1)),
        (z, z, f(1), z),
    )


def test_ricci_is_quarter_killing():
    s = sl2()
    ric = ricci_biinvariant(s.algebra)
    assert ric == naive_mat_scale(Fraction(-1, 4), killing_matrix(s.algebra))


def test_einstein_sl2_killing_multiples():
    alg = sl2().algebra
    kappa = killing_matrix(alg)
    for c in (Fraction(1), Fraction(-2), Fraction(3, 5)):
        m = MetricLieAlgebra(alg, SymBilinearForm(naive_mat_scale(c, kappa)))
        rep = einstein_check(m)
        assert rep.einstein
        assert rep.constant == Fraction(-1, 4) / c


def test_einstein_example42_flat():
    rep = einstein_check(build_example42())
    assert rep.einstein and rep.constant == 0
    assert la.is_zero_mat(rep.ricci)


def test_non_einstein_detected():
    # direct sum metric that is not proportional to the Killing form
    alg = sl2().algebra
    f = Fraction
    b = ((f(1), f(0), f(0)), (f(0), f(1), f(0)), (f(0), f(0), f(1)))
    rep = einstein_check(MetricLieAlgebra(alg, SymBilinearForm(b)))
    assert not rep.einstein and rep.constant is None


def test_trace_identity_on_random_matrices():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rand_matrix(rng, n, bound=2)
        rep = trace_identity(m)
        assert rep.value == naive_trace(la.mat_mul(m, m))
        assert rep.spectrum_value == rep.value


def test_trace_identity_symbolic():
    a, b = sp.symbols("a b", real=True)
    # lambda^2 = 2 b^2 - 2 a^2 makes the sum vanish
    lam = sp.sqrt(2 * b**2 - 2 * a**2)
    rep = trace_identity(EigenvalueData(reals=(lam, -lam), complex_pairs=((a, b), (a, b))))
    # (2b^2-2a^2)*2 + 2*2a^2 - 2*2b^2 = 2b^2 - 2a^2... recompute:
    # reals contribute 2*(2b^2-2a^2); pairs contribute 4a^2 - 4b^2
    # total = 4b^2 - 4a^2 + 4a^2 - 4b^2 = 0
    assert rep.holds is True


def test_trace_identity_decides_algebraic_spectra_exactly():
    rep = trace_identity(
        EigenvalueData(reals=(1, Fraction(-1)), complex_pairs=((0, sp.Integer(1)),))
    )
    assert rep.holds is True and rep.value == 0
    rep = trace_identity(EigenvalueData(reals=(Fraction(1, 2),)))
    assert rep.holds is False and rep.value == sp.Rational(1, 4)
    # sqrt(3 + 2 sqrt 2) - sqrt 2 = 1: zero, though not syntactically
    one = sp.sqrt(3 + 2 * sp.sqrt(2)) - sp.sqrt(2)
    rep = trace_identity(EigenvalueData(reals=(one, 1), complex_pairs=((0, 1),)))
    assert rep.value != 0 and rep.holds is True
    rep = trace_identity(
        EigenvalueData(reals=(sp.sqrt(2), sp.sqrt(3)), complex_pairs=((0, sp.sqrt(2)),))
    )
    assert rep.holds is False
    for bad in (sp.pi, sp.Symbol("t")):
        with pytest.raises(PreconditionError):
            trace_identity(EigenvalueData(reals=(bad,)))


def test_quadratic_roots_are_written_in_radicals():
    x = sp.Symbol("x")
    for f in (x**2 + 1, x**2 - 2, x**2 - 2 * x + 5, 3 * x**2 - 5 * x + 1, 9 * x**2 + 12 * x + 8):
        monic = naive_poly_monic(tuple(Fraction(int(c)) for c in sp.Poly(f, x).all_coeffs()))
        lower, upper = (sp.sympify(r) for r in quadratic_roots(monic))
        assert sp.expand(f.subs(x, lower)) == 0 and sp.expand(f.subs(x, upper)) == 0
        # the + root is the larger real root, or the upper one of a pair
        diff = sp.expand(upper - lower)
        assert diff != 0 and (diff > 0 if diff.is_real else sp.im(diff) > 0)


def test_eigenvalue_condition_tracks_einstein_for_extensions():
    # one-step extensions of a definite abelian base: Einstein iff the
    # trace condition vanishes on the extending direction
    cases = [
        (build_ko1(6, 2, _rotation_boost()), True),
        (build_ko1(6, 1, _double_rotation()), False),
    ]
    for m, expected in cases:
        a = la.unit_vec(m.dim, 0)
        rep = einstein_check(m)
        cond = eigenvalue_condition(m, a)
        assert rep.einstein is expected
        assert cond.holds is expected


def test_einstein_iff_trace_condition_many_extensions():
    rng = random.Random(42)
    from metriclie.reduction import DoubleExtensionSpec, double_extend, random_skew_map

    checked = 0
    while checked < 30:
        n = rng.randint(2, 5)
        s = rng.randint(0, n)
        base = build_ab(n, s)
        delta = random_skew_map(rng, base.form)
        ext = double_extend(DoubleExtensionSpec(base, (delta,)))
        a = la.unit_vec(ext.dim, 0)
        assert einstein_check(ext).einstein == (
            eigenvalue_condition(ext, a).holds is True
        )
        checked += 1


def test_skewness_check():
    base = build_ab(4, 1)
    _, _, witness = _map_pairing(la.mat_mul(la.inverse(base.form.matrix), _skew4()), base.form)
    assert witness is None
    _, _, witness = _map_pairing(naive_identity(4), base.form)
    assert witness == (0, 0)


def test_einstein_check_on_the_zero_form():
    zero = SymBilinearForm(naive_zeros(3, 3))
    rep = einstein_check(MetricLieAlgebra(sl2().algebra, zero))
    assert not rep.einstein and rep.constant is None
    assert not la.is_zero_mat(rep.ricci)
    # Ric = 0 on an abelian algebra: Einstein, with constant 0
    rep = einstein_check(MetricLieAlgebra(LieAlgebra(3, ("a", "b", "c"), {}), zero))
    assert rep.einstein and rep.constant == 0


def test_einstein_check_forms_no_scaled_difference(monkeypatch):
    def forbidden(*args):
        raise AssertionError("dense residual formed")

    monkeypatch.setattr(la, "mat_sub", forbidden)
    rep = einstein_check(sl2())
    assert rep.einstein and rep.constant == Fraction(-1, 4)
    assert not einstein_check(MetricLieAlgebra(sl2().algebra, SymBilinearForm(naive_identity(3))))


def _skew4():
    f = Fraction
    z = f(0)
    return (
        (z, f(2), f(-1), z),
        (f(-2), z, z, f(1)),
        (f(1), z, z, z),
        (z, f(-1), z, z),
    )


def test_nested_trace_direct_vs_recursive():
    rng = random.Random(43)
    for _ in range(40):
        depth = rng.randint(0, 3)
        node = TorusLeaf(
            rotations=tuple(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(rng.randint(0, 3))
            ),
            padding=rng.randint(0, 2),
        )
        for _ in range(depth):
            r = rng.randint(1, 3)
            node = TriangularNode(rand_matrix(rng, r, bound=2), node)
        direct = naive_trace(la.mat_mul(assemble_nested(node), assemble_nested(node)))
        assert nested_trace_square(node) == direct


def test_compact_leaf_trace_is_negative_unless_zero():
    rng = random.Random(44)
    for _ in range(30):
        rotations = tuple(
            Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))
        )
        val = nested_trace_square(TorusLeaf(rotations=rotations, padding=1))
        if any(r != 0 for r in rotations):
            assert val < 0
        else:
            assert val == 0


def test_leaf_trace_outside_one_quadratic_field_is_summed_exactly():
    # rotations from two quadratic fields, and one of degree 4
    leaf = TorusLeaf((Quadratic(1, 1, 2), Quadratic(1, 1, 3)))
    assert nested_trace_square(leaf) == -14 - 4 * sp.sqrt(3) - 4 * sp.sqrt(2)
    assert nested_trace_square(TorusLeaf((sp.root(2, 4),))) == -2 * sp.sqrt(2)
    # an entry that is not owned is read by sympify before it is squared
    assert nested_trace_square(TorusLeaf(("sqrt(2)",))) == -4


def test_bounds_certificate_example42():
    cert = bounds_certificate(build_example42())
    assert cert.dim == 6
    assert cert.dim_nilradical == 5
    assert cert.witt_index == 2
    assert cert.w1.dim == 4
    assert cert.isotropic_subspace.dim >= 2


def test_bounds_certificate_rejects_nilpotent():
    with pytest.raises(PreconditionError):
        bounds_certificate(build_ab(6, 2))


def test_bounds_certificate_rejects_non_einstein():
    m = build_ko1(6, 1, _double_rotation())
    with pytest.raises(PreconditionError):
        bounds_certificate(m)


def test_search_small_smoke():
    result = sharpness_search((3, 4), (1, 1), 100, seed=5)
    assert result.examined == 100
    for hit in result.hits:
        assert hit["einstein"]
        assert hit["index"] == 1
        assert 3 <= hit["dim"] <= 4
        # dims 3-5 admit no non-nilpotent Einstein solvable metric algebra
        assert hit["nilpotent"]


def test_search_rejects_empty_ranges_and_negative_budget():
    for dims, index, budget in (((9, 3), (1, 2), 10), ((3, 8), (3, 1), 10), ((3, 8), (1, 2), -1)):
        with pytest.raises(PreconditionError, match="empty search"):
            sharpness_search(dims, index, budget, seed=1)
    # one-point ranges and a zero budget are valid
    assert sharpness_search((6, 6), (2, 2), 0, seed=1).examined == 0
    assert sharpness_search((3, 3), (1, 1), 5, seed=1).examined == 5


def test_integer_prefilter_matches_fraction_trace(monkeypatch):
    """The one-step prefilter keeps a draw iff tr(delta^2) = 0 on the
    reference Fraction map, draws the same stream, and returns the kept
    map's integer columns without converting any draw to Fractions."""
    converted = []
    mat_over = la.mat_over

    def counted_mat_over(rows, den):
        converted.append(den)
        return mat_over(rows, den)

    # non-zero maps with tr(delta^2) = 0 are rare; the small indefinite
    # diagonal forms give the most of them
    samples = [(form, 4) for form in draw_forms()]
    samples += [(build_ab(3, 1).form, 60), (build_ab(4, 2).form, 60)]
    for form, _ in samples:
        form.inverse  # the reference's rational views, built before counting
    monkeypatch.setattr(la, "mat_over", counted_mat_over)
    nonzero_kept = rejected = 0
    for form, seeds in samples:
        for seed in range(seeds):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(5):
                got = _traceless_skew_map(rng, form)
                ref = reference_random_skew_map(ref_rng, form)
                assert rng.getstate() == ref_rng.getstate()
                if la.trace_product(ref, ref) == 0:
                    assert la.normalised(*got) == la.to_int_rows(la.transpose(ref))
                    nonzero_kept += not la.is_zero_mat(ref)
                else:
                    assert got is None
                    rejected += 1
    assert converted == []
    assert nonzero_kept > 10 and rejected > 100


def test_search_rejects_a_draw_before_any_product(monkeypatch):
    """Over seeded searches, the product R = P C of a one-step draw is
    formed once per kept draw and never for a rejected one, most draws
    are rejected, and no code of ``einstein`` densifies a matrix or sums
    a dense trace: both prefilters read integers (the certificates of a
    recorded hit may still do both)."""
    draw, product = metriclie.einstein._traceless_skew_map, metriclie.einstein._skew_numerators
    draws, products, dense_callers = [], [], []
    dense, trace_product = la.dense, la.trace_product

    def counted_draw(rng, form):
        out = draw(rng, form)
        draws.append(out is not None)
        return out

    def counted_product(form, lcm, entries):
        products.append(entries)
        return product(form, lcm, entries)

    def caller_module(fn):
        def wrapped(*args):
            dense_callers.append(sys._getframe(1).f_globals["__name__"])
            return fn(*args)

        return wrapped

    monkeypatch.setattr(metriclie.einstein, "_traceless_skew_map", counted_draw)
    monkeypatch.setattr(metriclie.einstein, "_skew_numerators", counted_product)
    monkeypatch.setattr(la, "dense", caller_module(dense))
    monkeypatch.setattr(la, "trace_product", caller_module(trace_product))
    for seed in range(1, 201):
        sharpness_search((3, 8), (1, 2), 20, seed)
    assert len(products) == sum(draws)
    assert 10 < sum(draws) < len(draws) / 3
    assert "metriclie.einstein" not in dense_callers


# sha256 over the JSON outputs of sharpness_search((3, 8), (1, 2), 20,
# seed=s) for s = 0..49, recorded when skew maps were still drawn as
# Fractions; it pins the random stream of the search
SEARCH_STREAM_SHA256 = "4480d8ad422163b20f8e272199e75ae163cb28620b3eebbbc09e2fd34c3e8255"


def test_search_outputs_are_pinned():
    h = hashlib.sha256()
    for seed in range(50):
        r = sharpness_search((3, 8), (1, 2), 20, seed=seed)
        h.update(json.dumps({"examined": r.examined, "hits": list(r.hits)}, sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == SEARCH_STREAM_SHA256


def test_search_propagates_certificate_failures(monkeypatch):
    """Every sample is Lie and invariant by construction, so a failed
    certificate is a bug and must not be dropped as a non-hit. The memo
    caches no exception, so from cleared memos a one-step-only search
    (dimensions 3-4 draw no two-step or rotation-boost sample) raises
    too."""
    import metriclie.reduction
    from metriclie.core import ValidationReport

    def broken(alg):
        return ValidationReport(False, ((0, 1, 2, la.zeros_vec(alg.dim)),))

    assert sharpness_search((3, 8), (1, 2), 200, seed=7).examined == 200
    monkeypatch.setattr(metriclie.reduction, "validate_structure", broken)
    for dims, index, budget in (((3, 8), (1, 2), 200), ((3, 4), (1, 1), 50)):
        _extension.cache_clear()
        _extension_record.cache_clear()
        with pytest.raises(CertificateError, match="Jacobi"):
            sharpness_search(dims, index, budget, seed=7)


def test_search_builds_each_extension_once(monkeypatch):
    """From a cleared memo, over the search workload's arguments, each
    distinct one-step input (base, delta) reaches ``double_extend`` once
    and each (extension, kind) ``_record`` once, while most samples
    repeat one; a two-step g_2 reaches ``double_extend`` only when
    tr(delta_2^2) = 0, and most two-step samples do not reach it; a
    caller mutating its hits leaves a rerun's equal, and so does a rerun
    from a cleared memo."""
    extend, record = metriclie.einstein.double_extend, metriclie.einstein._record
    draw = metriclie.einstein.random_skew_derivation
    one_step, second_steps, records = Counter(), [], Counter()
    second_draws = []

    def counted_extend(spec):
        if "a0" in spec.base.algebra.basis_names:
            # a g_2: its base is a one-step extension, the a0 + base + z0 of double_extend
            second_steps.append(la.trace_product(spec.deltas[0], spec.deltas[0]))
        else:
            one_step[spec.base.dim, spec.base.form.int_rows, spec.int_deltas] += 1
        return extend(spec)

    def counted_record(m, kind):
        if not kind.startswith("iterated-2"):
            records[id(m), kind] += 1
        return record(m, kind)

    def counted_draw(rng, base):
        out = draw(rng, base)
        if "a0" in base.algebra.basis_names:
            second_draws.append(out)
        return out

    def run():
        return [sharpness_search((3, 8), (1, 2), 20, seed).hits for seed in range(1, 31)]

    _extension.cache_clear()
    _extension_record.cache_clear()
    monkeypatch.setattr(metriclie.einstein, "double_extend", counted_extend)
    monkeypatch.setattr(metriclie.einstein, "_record", counted_record)
    monkeypatch.setattr(metriclie.einstein, "random_skew_derivation", counted_draw)
    first = run()
    ext, rec = _extension.cache_info(), _extension_record.cache_info()
    assert set(one_step.values()) == set(records.values()) == {1}
    assert len(one_step) == ext.misses == ext.currsize
    assert len(records) == rec.misses == rec.currsize
    # one-step samples repeat their record's input, two-step ones their first step
    assert rec.hits > 10 * rec.misses and ext.hits > 0
    # every built g_2 passed the filter; most two-step draws did not
    assert second_steps and set(second_steps) == {0}
    assert 4 * len(second_steps) < len(second_draws)
    dense_draws = [la.dense(cols, len(cols)) for _, cols in second_draws]
    zero_draws = [r for r in dense_draws if not la.trace_product(r, r)]
    assert len(zero_draws) == len(second_steps)
    expected = copy.deepcopy(first)
    for hits in first:
        for hit in hits:
            hit["dim"] = -1
            hit["signature"].append(0)
    assert run() == expected
    assert _extension.cache_info().misses == ext.misses
    assert _extension_record.cache_info().misses == rec.misses
    built = len(one_step)
    _extension.cache_clear()
    _extension_record.cache_clear()
    assert run() == expected
    assert sum(one_step.values()) == 2 * built and set(one_step.values()) == {2}


def test_search_matches_the_unfiltered_unmemoised_loop():
    """``sharpness_search`` against ``reference_sharpness_search``, its
    loop before the two-step filter and the memo, on seeds 0..400; the
    range holds two-step hits, non-nilpotent ones among them."""
    kinds = Counter()
    for seed in range(401):
        got = sharpness_search((3, 8), (1, 2), 20, seed)
        assert got == reference_sharpness_search((3, 8), (1, 2), 20, seed), seed
        kinds.update((h["spec"].split(" dim")[0], h["nilpotent"]) for h in got.hits)
    assert kinds["iterated-2", True] >= 5 and kinds["iterated-2", False] >= 1


def test_two_step_killing_form_at_a2_is_the_trace_square():
    """On seeded two-step extensions g_2 = a_2 + g_1 + z_2 of abelian
    bases, kappa(a_2, a_2) read off ``killing_sums`` equals tr(delta_2^2)
    of the draw ``random_skew_derivation`` that ``random_double_extension``
    builds, and every Einstein g_2 has tr(delta_2^2) = 0: the lemma
    behind the search's two-step filter."""
    einstein = nonzero = 0
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        base = build_ab(n, rng.randint(0, n))
        g1 = random_double_extension(rng, base)
        state = rng.getstate()
        den, cols = random_skew_derivation(rng, g1)
        rng.setstate(state)
        g2 = random_double_extension(rng, g1)
        delta = la.mat_over(la.transpose(la.dense(cols, g1.dim)), den)
        trace = la.trace_product(delta, delta)
        den2, k = killing_sums(g2.algebra)
        assert Fraction(k[0][0], den2) == trace, seed
        nonzero += trace != 0
        if einstein_check(g2):
            einstein += 1
            assert trace == 0, seed
    assert einstein >= 5 and nonzero > 200


def _factored_trace_square(a):
    """The e1^2 - 2 e2 sum over the sympy factors of the charpoly."""
    x = sp.Symbol("x")
    poly = sp.Poly([sp.Rational(c.numerator, c.denominator) for c in la.charpoly(a)], x)
    total = sp.Integer(0)
    for fac, mult in poly.factor_list()[1]:
        coeffs = fac.all_coeffs()
        d = fac.degree()
        e1 = -coeffs[1] / coeffs[0] if d >= 1 else 0
        e2 = coeffs[2] / coeffs[0] if d >= 2 else 0
        total += mult * (e1 * e1 - 2 * e2)
    total = sp.nsimplify(total)
    return Fraction(int(sp.numer(total)), int(sp.denom(total)))


def _companion(coeffs):
    """Companion matrix of the monic x^n + c_1 x^(n-1) + ... + c_n."""
    n = len(coeffs)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fraction(1)
    for i, c in enumerate(coeffs):
        rows[n - 1 - i][n - 1] = -Fraction(c)
    return tuple(tuple(r) for r in rows)


def test_trace_square_from_charpoly_matches_factored_sum():
    rng = random.Random(61)
    mats = [rand_matrix(rng, rng.randint(1, 6)) for _ in range(25)]
    # irreducible cubics (x^3 - 2 has Galois group S3), alone and in blocks
    cubics = [(0, 0, -2), (0, -3, 1), (Fraction(1, 2), -1, Fraction(-1, 3))]
    mats += [_companion(c) for c in cubics]
    mats.append(assemble_nested(TriangularNode(_companion((0, 0, -2)), TorusLeaf((1, 2)))))
    mats.append(_companion((1, 0, -2, Fraction(3, 5), 1)))
    mats.append(())  # the 0 x 0 matrix
    for a in mats:
        value = _trace_square_from_charpoly(a)
        assert isinstance(value, Fraction)
        assert value == la.trace_product(a, a)
        if a:
            assert value == _factored_trace_square(a)
