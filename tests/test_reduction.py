import random
from fractions import Fraction

import pytest

from metriclie import linalg as la
from metriclie.core import SubspaceBasis, series, subspace_from_spanning, validate_structure
from metriclie.errors import PreconditionError
from metriclie.forms import (
    SymBilinearForm,
    central_isotropic_ideal,
    is_invariant,
    signature,
)
from metriclie.reduction import (
    DoubleExtensionSpec,
    _assemble,
    build_ab,
    build_example42,
    build_ko1,
    change_basis,
    complete_reduction,
    double_extend,
    iterated_double_extension,
    random_double_extension,
    random_skew_map,
    random_skew_numerators,
    reduce_by_ideal,
    skew_derivation_space,
)

from conftest import (
    draw_forms,
    naive_basis_bracket,
    naive_mat_add,
    naive_mat_scale,
    naive_zeros,
    random_abelian_base,
    random_solvable_metric,
    reference_random_skew_map,
    reference_skew_residual,
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


def test_build_ab_basics():
    m = build_ab(5, 2)
    assert m.dim == 5
    assert series(m.algebra).is_abelian
    sig = signature(m.form)
    assert (sig.p, sig.q, sig.r) == (3, 2, 0)


def test_build_ab_is_memoised():
    assert build_ab(4, 1) is build_ab(4, 1)
    assert build_ab(4, 1) is not build_ab(4, 2)
    with pytest.raises(PreconditionError):
        build_ab(3, 4)


def test_random_skew_map_matches_fraction_reference():
    for form in draw_forms():
        for bound, max_den in ((2, 4), (1, 1), (3, 6), (5, 7)):
            for seed in range(3):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    delta = random_skew_map(rng, form, bound, max_den)
                    assert delta == reference_random_skew_map(ref_rng, form, bound, max_den)
                    assert rng.getstate() == ref_rng.getstate()
                    assert all(type(x) is Fraction for row in delta for x in row)
                    assert la.is_zero_mat(reference_skew_residual(delta, form.matrix))


def test_random_skew_numerators_scale_to_the_draw():
    rng, ref_rng = random.Random(3), random.Random(3)
    form = SymBilinearForm(((2, 0), (0, -3)))
    den, rows = random_skew_numerators(rng, form, 2, 4)
    # L = lcm(1..4) = 12 and M = 6 for B^{-1} = diag(1/2, -1/3)
    assert den == 72
    assert all(type(x) is int for row in rows for x in row)
    ref = reference_random_skew_map(ref_rng, form, 2, 4)
    assert tuple(tuple(Fraction(x, den) for x in row) for row in rows) == ref
    # the draw consumes the stream before a degenerate form is rejected
    rng, ref_rng = random.Random(4), random.Random(4)
    degenerate = SymBilinearForm(((1, 1), (1, 1)))
    for draw, stream in ((random_skew_map, rng), (reference_random_skew_map, ref_rng)):
        with pytest.raises(ValueError, match="singular"):
            draw(stream, degenerate)
    assert rng.getstate() == ref_rng.getstate()


def reference_random_double_extension(rng, base):
    """random_double_extension with one mat_scale and mat_add per basis
    element, as it was before the single accumulation pass."""
    delta = naive_zeros(base.dim, base.dim)
    for d in skew_derivation_space(base):
        c = Fraction(rng.randint(-2, 2))
        if c:
            delta = naive_mat_add(delta, naive_mat_scale(c, d))
    return double_extend(DoubleExtensionSpec(base=base, deltas=(delta,)))


def test_random_double_extension_matches_reference():
    for seed in range(12):
        base = build_ab(2 + seed % 5, 1 + seed % 2)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(2):
            got = random_double_extension(rng, base)
            ref = reference_random_double_extension(ref_rng, base)
            assert got.algebra.brackets == ref.algebra.brackets
            assert got.form.matrix == ref.form.matrix
            assert rng.getstate() == ref_rng.getstate()
            base = got


def test_double_extend_produces_metric_algebra():
    base = build_ab(4, 1)
    ext = double_extend(DoubleExtensionSpec(base, (_rotation_boost(),)))
    assert ext.dim == 6
    assert validate_structure(ext.algebra).passed
    assert is_invariant(ext).passed
    assert signature(ext.form).is_nondegenerate


def test_double_extend_rejects_non_skew_delta():
    base = build_ab(3, 0)
    not_skew = la.identity(3)
    with pytest.raises((PreconditionError, Exception)):
        double_extend(DoubleExtensionSpec(base, (not_skew,)))


def test_build_ko1_matches_example42_invariants():
    m = build_ko1(6, 2, _rotation_boost())
    assert validate_structure(m.algebra).passed
    assert is_invariant(m).passed
    sig = signature(m.form)
    assert sig.witt_index == 2
    rep = series(m.algebra)
    assert rep.is_solvable and not rep.is_nilpotent


def test_example42_structure():
    m = build_example42()
    assert validate_structure(m.algebra).passed
    assert is_invariant(m).passed
    assert (lambda s: (s.p, s.q, s.r))(signature(m.form)) == (4, 2, 0)


def test_reduce_example42_by_z_round_trip():
    m = build_example42()
    z = SubspaceBasis(6, (la.unit_vec(6, 5),))
    step = reduce_by_ideal(m, z)
    assert step.base.dim == 4
    assert series(step.base.algebra).is_abelian
    # reduce_by_ideal certifies the round trip internally; re-check the
    # extracted delta is skew for the base form
    d = step.spec.deltas[0]
    b = step.base.form.matrix
    assert la.is_zero_mat(
        naive_mat_add(la.mat_mul(la.transpose(d), b), la.mat_mul(b, d))
    )


@pytest.mark.parametrize("n, index, dim", [(0, 0, 6), (2, 1, 8)])
def test_a_nonzero_xi_survives_the_round_trip(n, index, dim):
    """Three extending vectors with delta = 0 and xi the volume form,
    xi(a0, a1) = z2, xi(a0, a2) = -z1, xi(a1, a2) = z0 (for two, xi = 0
    is forced by invariance): reducing by span(z) gives back xi, and
    ``_assemble`` of the step's spec gives back the split."""
    base = build_ab(n, index)
    xi = (1, (((2, 1),), ((1, -1),), ((0, 1),)))
    spec = DoubleExtensionSpec.from_columns(base, [(1, [()] * n)] * 3, xi)
    g = double_extend(spec)
    assert g.dim == dim and not g.algebra.is_abelian
    zs = tuple(la.unit_vec(dim, 3 + n + j) for j in range(3))
    step = reduce_by_ideal(g, subspace_from_spanning(dim, zs))
    assert step.spec.int_xi == xi and step.base.form == base.form
    names = tuple(f"a{i}" for i in range(3)) + tuple(f"x{k}" for k in range(n))
    names += tuple(f"z{j}" for j in range(3))
    split = change_basis(g, step.duals + step.complement + step.ideal.vectors, names)
    rebuilt = _assemble(step.spec)
    assert rebuilt.algebra.int_table == split.algebra.int_table
    assert rebuilt.form.int_rows == split.form.int_rows


def test_reduce_rejects_bad_ideal():
    m = build_example42()
    # span{y} is not an ideal
    bad = SubspaceBasis(6, (la.unit_vec(6, 4),))
    with pytest.raises(PreconditionError):
        reduce_by_ideal(m, bad)
    # span{x1} is anisotropic
    aniso = SubspaceBasis(6, (la.unit_vec(6, 2),))
    with pytest.raises(PreconditionError):
        reduce_by_ideal(m, aniso)


def test_round_trip_random_extensions():
    rng = random.Random(31)
    done = 0
    while done < 20:
        base = random_abelian_base(rng, max_dim=5)
        ext = random_double_extension(rng, base)
        ideal = central_isotropic_ideal(ext)
        if ideal is None or ideal.dim == 0:
            continue
        line = SubspaceBasis(ext.dim, (ideal.vectors[0],))
        step = reduce_by_ideal(ext, line)  # internal round-trip certificate
        assert step.base.dim == ext.dim - 2
        done += 1


def test_complete_reduction_example42():
    chain = complete_reduction(build_example42())
    assert len(chain.steps) == 2
    assert chain.isotropic_rank == 2
    assert chain.final.dim == 2
    assert series(chain.final.algebra).is_abelian
    assert signature(chain.final.form).is_definite


def test_complete_reduction_strips_witt_index():
    rng = random.Random(32)
    for _ in range(10):
        m = random_solvable_metric(rng, max_base_dim=4, max_steps=2)
        s = signature(m.form).witt_index
        chain = complete_reduction(m)
        assert chain.final.dim == m.dim - 2 * s
        assert series(chain.final.algebra).is_abelian
        assert signature(chain.final.form).is_definite


def test_skew_derivation_space_members_are_skew_derivations():
    rng = random.Random(33)
    base = build_ko1(4, 1, ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))))
    b = base.form.matrix
    alg = base.algebra
    for d in skew_derivation_space(base):
        assert la.is_zero_mat(
            naive_mat_add(la.mat_mul(la.transpose(d), b), la.mat_mul(b, d))
        )
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                lhs = la.mat_vec(d, naive_basis_bracket(alg, i, j))
                rhs = la.vec_add(
                    alg.bracket(la.mat_vec(d, la.unit_vec(alg.dim, i)), la.unit_vec(alg.dim, j)),
                    alg.bracket(la.unit_vec(alg.dim, i), la.mat_vec(d, la.unit_vec(alg.dim, j))),
                )
                assert lhs == rhs


def test_random_skew_map_is_skew():
    rng = random.Random(34)
    for _ in range(10):
        m = random_abelian_base(rng, max_dim=6)
        d = random_skew_map(rng, m.form)
        b = m.form.matrix
        assert la.is_zero_mat(
            naive_mat_add(la.mat_mul(la.transpose(d), b), la.mat_mul(b, d))
        )


def test_change_basis_preserves_structure():
    m = build_example42()
    n = m.dim
    cols = [la.unit_vec(n, (i + 1) % n) for i in range(n)]
    renamed = change_basis(m, cols, [f"v{i}" for i in range(n)])
    assert validate_structure(renamed.algebra).passed
    assert is_invariant(renamed).passed
    s1, s2 = signature(m.form), signature(renamed.form)
    assert (s1.p, s1.q, s1.r) == (s2.p, s2.q, s2.r)


def test_reduction_path_never_computes_the_nilradical(monkeypatch, capsys):
    import metriclie.cli
    import metriclie.core
    import metriclie.einstein
    import metriclie.forms

    def refuse(*args, **kwargs):
        raise AssertionError("nilradical called on the reduction path")

    for module in (metriclie.core, metriclie.forms, metriclie.einstein, metriclie.cli):
        monkeypatch.setattr(module, "nilradical", refuse)
    ex = build_example42()
    assert len(complete_reduction(ex).steps) == 2
    # the criterion-3 family
    rng = random.Random(1003)
    for _ in range(20):
        m = random_abelian_base(rng, max_dim=4)
        for _ in range(rng.randint(1, 2)):
            m = random_double_extension(rng, m)
        chain = complete_reduction(m)
        assert len(chain.steps) == signature(m.form).witt_index
    assert metriclie.cli.main(["reduce", "example42"]) == 0
    capsys.readouterr()


def _count_calls(monkeypatch, *names):
    """Wrap each named function in every metriclie module that binds it;
    returns the call counts by name."""
    import sys

    counts = dict.fromkeys(names, 0)
    for name in names:
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("metriclie"):
                continue
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counts


def _criterion3_member_with_two_steps():
    """The first member of the criterion-3 family (seed 1003) whose
    complete reduction takes at least two steps."""
    rng = random.Random(1003)
    while True:
        m = random_abelian_base(rng, max_dim=4)
        for _ in range(rng.randint(1, 2)):
            m = random_double_extension(rng, m)
        if signature(m.form).witt_index >= 2:
            return m


def test_each_fact_is_certified_once(monkeypatch):
    from metriclie.einstein import bounds_certificate

    names = ("is_invariant", "validate_structure", "nilradical")
    counts = _count_calls(monkeypatch, *names)
    assert len(complete_reduction(build_example42()).steps) == 2
    assert (counts["is_invariant"], counts["validate_structure"]) == (1, 1)
    # a member of the criterion-3 family with more steps
    m = _criterion3_member_with_two_steps()
    counts.update(dict.fromkeys(names, 0))
    assert len(complete_reduction(m).steps) >= 2
    assert (counts["is_invariant"], counts["validate_structure"]) == (1, 1)

    counts.update(dict.fromkeys(names, 0))
    bounds_certificate(build_example42())
    assert (counts["nilradical"], counts["is_invariant"]) == (1, 1)


def test_each_step_rewrites_the_input_once(monkeypatch):
    # one change of basis per step, and its inverse is the only one
    counts = _count_calls(monkeypatch, "change_basis", "inverse")
    for alg in (build_example42(), _criterion3_member_with_two_steps()):
        counts.update(change_basis=0, inverse=0)
        steps = len(complete_reduction(alg).steps)
        assert steps >= 2
        assert counts == {"change_basis": steps, "inverse": steps}


def test_auto_reduce_certifies_invariance_once(monkeypatch, capsys):
    from metriclie.cli import main

    counts = _count_calls(monkeypatch, "is_invariant")
    assert main(["reduce", "example42", "--format", "json"]) == 0
    capsys.readouterr()
    assert counts["is_invariant"] == 1


def test_reduce_by_higher_ideal_is_a_precondition_failure():
    """r05-05's whole z(g) ∩ [g, g] is 2-dimensional, central and
    isotropic, but does not split as a double extension with abelian a;
    that is the caller's input, not a bug. Its first line reduces."""
    import gzip
    import json
    from pathlib import Path

    from metriclie.documents import document_to_algebra, parse_document
    from metriclie.errors import CertificateError
    from metriclie.forms import MetricLieAlgebra, _central_derived

    pool = Path(__file__).resolve().parent.parent / "perfbench" / "pool" / "reduce.json.gz"
    with gzip.open(pool, "rt") as fh:
        entry = next(e for e in json.load(fh) if e["id"] == "r05-05")
    alg, form, _ = document_to_algebra(parse_document(entry["doc"]))
    m = MetricLieAlgebra(alg, form)
    ideal = _central_derived(alg)
    assert ideal.dim == 2
    with pytest.raises(PreconditionError, match="general quadratic extension") as info:
        reduce_by_ideal(m, ideal)
    assert not isinstance(info.value, CertificateError)
    step = reduce_by_ideal(m, SubspaceBasis(m.dim, ideal.vectors[:1]))
    assert step.base.dim == m.dim - 2
