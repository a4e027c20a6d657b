"""Differential tests of the integer Gram kernel ``SymBilinearForm.int_gram``.

Form evaluations, Gram matrices, isotropy witnesses, orthogonal
complements, pairing duals and ``change_basis`` are compared with the
dense ``Fraction`` code they replaced (``conftest.reference_*``). The
stub tests show that the reduction, bounds and split paths no longer
reach the dense ``la.mat_vec``, and that ``nilradical`` no longer
builds ``ad`` matrices.
"""

import random
from fractions import Fraction

import pytest

from metriclie import core
from metriclie import linalg as la
from metriclie.catalog import direct_sum, sl2, su2
from metriclie.core import SubspaceBasis, nilradical, subspace_from_spanning
from metriclie.einstein import bounds_certificate
from metriclie.errors import CertificateError
from metriclie.forms import (
    SymBilinearForm,
    _pairing_duals,
    central_isotropic_ideal,
    is_totally_isotropic,
    isotropic_vector,
    orthogonal_complement,
)
from metriclie.reduction import build_ab, build_example42, change_basis, complete_reduction
from metriclie.semisimple import compact_split, split_form_report

from conftest import (
    apply_form,
    draw_forms,
    naive_identity,
    naive_rank,
    pool_metrics,
    rand_fraction,
    reference_bilinear,
    reference_change_basis,
    reference_gram,
    reference_is_totally_isotropic,
    reference_orthogonal_complement,
    reference_pairing_duals,
    restrict_form,
)

def degenerate_forms():
    """Forms with a radical, the zero forms and the 0x0 form."""
    half = Fraction(1, 2)
    return [
        SymBilinearForm(()),
        SymBilinearForm(((0,),)),
        SymBilinearForm(((0, 0), (0, 0))),
        SymBilinearForm(((1, 0), (0, 0))),
        SymBilinearForm(((0, half, 0), (half, 0, 0), (0, 0, 0))),
        SymBilinearForm(((1, 1, 0), (1, 1, 0), (0, 0, Fraction(-2, 3)))),
    ]


def draw_vectors(rng, n, k):
    """k vectors with mixed denominators, some sparse, a zero vector and
    a repeated one when there is room."""
    vecs = [
        tuple(rand_fraction(rng, 4, 7) if rng.random() < 0.6 else 0 for _ in range(n))
        for _ in range(k)
    ]
    if k > 1:
        vecs[-1] = vecs[0]
    if k > 2:
        vecs[1] = (0,) * n
    return vecs


def all_forms():
    return draw_forms() + degenerate_forms()


def test_apply_and_restrict_match_dense_fraction_code():
    rng = random.Random(1401)
    for form in all_forms():
        n = form.dim
        for k in range(4):
            vecs = draw_vectors(rng, n, k)
            for u in vecs:
                for v in vecs:
                    value = apply_form(form, u, v)
                    assert value == reference_bilinear(form.matrix, la.vec(u), la.vec(v))
                    assert isinstance(value, Fraction)
            gram = restrict_form(form, tuple(vecs)).matrix
            assert gram == reference_gram(form, vecs)
            assert all(isinstance(x, Fraction) for row in gram for x in row)
        assert apply_form(form, la.zeros_vec(n), la.zeros_vec(n)) == 0


def test_wrong_length_vector_raises_value_error():
    for form in all_forms():
        n = form.dim
        good, bad = la.zeros_vec(n), la.zeros_vec(n + 1)
        with pytest.raises(ValueError):
            reference_bilinear(form.matrix, good, bad)
        for u, v in ((good, bad), (bad, good), (bad, bad)):
            with pytest.raises(ValueError):
                apply_form(form, u, v)
        with pytest.raises(ValueError):
            restrict_form(form, (good, bad))
        # a subspace of another space, read on its integer rows
        other = SubspaceBasis(n + 1, (la.unit_vec(n + 1, n),))
        for check in (is_totally_isotropic, orthogonal_complement):
            with pytest.raises(ValueError, match="ambient dimension"):
                check(form, other)


def random_subspace(rng, n, k):
    vecs = [v for v in draw_vectors(rng, n, k) if any(v)]
    return subspace_from_spanning(n, vecs) if vecs else SubspaceBasis(n, ())


def test_isotropy_and_complement_match_dense_fraction_code():
    rng = random.Random(1402)
    witnesses = 0
    for form in all_forms():
        n = form.dim
        for k in range(n + 1):
            sub = random_subspace(rng, n, k)
            ok, pair = is_totally_isotropic(form, sub)
            assert (ok, pair) == reference_is_totally_isotropic(form, sub)
            witnesses += not ok
            assert orthogonal_complement(form, sub).vectors == reference_orthogonal_complement(form, sub)
    assert witnesses >= 20


def isotropic_families(rng):
    """(form, u) with u totally isotropic: the lines e_i + e_{p+i} of the
    diagonal forms, an isotropic line of each indefinite ``draw_forms``
    form and the central isotropic ideals of pool documents, each basis
    also mixed by a random invertible matrix with fractional entries;
    and lines in the radical of a degenerate form."""
    out = [(form, [v]) for form in draw_forms() if (v := isotropic_vector(form)) is not None]
    for n in range(2, 9):
        for s in range(1, n):
            p = n - s
            u = [la.vec_add(la.unit_vec(n, i), la.unit_vec(n, p + i)) for i in range(min(p, s))]
            out.append((build_ab(n, s).form, u))
    for m in pool_metrics(step=10):
        if m.algebra.brackets:
            out.append((m.form, list(central_isotropic_ideal(m).vectors)))
    mixed = []
    for form, u in out:
        k = len(u)
        while True:
            mix = [[rand_fraction(rng, 3, 4) for _ in range(k)] for _ in range(k)]
            if naive_rank(tuple(map(tuple, mix))) == k:
                break
        mixed.append((form, list(la.mat_mul(tuple(map(tuple, mix)), tuple(u)))))
    degenerate = [
        (SymBilinearForm(((1, 0), (0, 0))), [la.unit_vec(2, 1)]),
        (SymBilinearForm(((0, 1, 0), (1, 0, 0), (0, 0, 0))), [la.unit_vec(3, 0), la.unit_vec(3, 2)]),
    ]
    return out + mixed + degenerate


def test_pairing_duals_match_dense_fraction_code():
    rng = random.Random(1403)
    solved = unsolvable = 0
    for form, u in isotropic_families(rng):
        sub = SubspaceBasis(form.dim, tuple(u))
        assert is_totally_isotropic(form, sub)[0]
        expected = reference_pairing_duals(form, tuple(u))
        if expected is None:
            with pytest.raises(CertificateError):
                _pairing_duals(form, sub)
            unsolvable += 1
            continue
        duals = _pairing_duals(form, sub).vectors
        assert duals == expected
        for i, x in enumerate(u):
            for j, y in enumerate(duals):
                assert apply_form(form, x, y) == (1 if i == j else 0)
        solved += 1
    assert solved >= 150 and unsolvable == 2


def test_change_basis_matches_dense_fraction_code():
    rng = random.Random(1404)
    for m in pool_metrics():
        n = m.dim
        names = tuple(f"f{i}" for i in range(n))
        while True:
            cols = [tuple(rand_fraction(rng, 3, 4) for _ in range(n)) for _ in range(n)]
            if naive_rank(tuple(cols)) == n:
                break
        got = change_basis(m, cols, names)
        expected = reference_change_basis(m, cols, names)
        assert got.algebra == expected.algebra
        assert got.form.matrix == expected.form.matrix
        # the basis it came from, read back
        assert change_basis(m, [la.unit_vec(n, i) for i in range(n)], names).algebra.brackets == m.algebra.brackets


def test_form_paths_never_reach_dense_mat_vec(monkeypatch):
    def boom(*args):
        raise AssertionError("dense mat_vec called")

    monkeypatch.setattr(la, "mat_vec", boom)
    chain = complete_reduction(build_example42())
    assert len(chain.steps) == 2
    for m in pool_metrics(step=15):
        complete_reduction(m)
    cert = bounds_certificate(build_example42())
    assert cert.dim == 6
    m = direct_sum(direct_sum(sl2(), su2()), sl2())
    rep = split_form_report(m, compact_split(m.algebra))
    assert rep.k_perp_s and rep.s_cap_radical_zero


def test_nilradical_builds_no_ad_matrices(monkeypatch):
    def boom(*args):
        raise AssertionError("dense ad certificate called")

    expected = [(m.algebra, nilradical(m.algebra).vectors) for m in pool_metrics()]
    monkeypatch.setattr(core, "ad", boom)
    monkeypatch.setattr(la, "is_nilpotent", boom)
    non_nilpotent = 0
    for alg, vectors in expected:
        alg = core.LieAlgebra(alg.dim, alg.basis_names, alg.brackets)
        assert nilradical(alg).vectors == vectors
        non_nilpotent += not alg.series_report.is_nilpotent
    assert non_nilpotent >= 20


def test_nilradical_certificate_fires_on_a_non_nilpotent_candidate(monkeypatch):
    alg = build_example42().algebra
    assert nilradical(alg).dim == 5
    assert not alg.series_report.is_nilpotent
    # a fresh copy keeps no nilradical yet, so its solve runs under the patch:
    # the trace-row solve is the one SubspaceBasis.kernel call in the nilradical;
    # all of example42 contains [g, g] and is an ideal, but is not nilpotent
    fresh = core.LieAlgebra(alg.dim, alg.basis_names, alg.brackets)
    monkeypatch.setattr(SubspaceBasis, "kernel", classmethod(lambda cls, n, rows: cls(n, naive_identity(n))))
    with pytest.raises(CertificateError, match="not a nilpotent ideal"):
        nilradical(fresh)
    # the failure is not kept: nilpotency, read off the nilradical, fails again
    with pytest.raises(CertificateError, match="not a nilpotent ideal"):
        fresh.series_report
