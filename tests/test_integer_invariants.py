"""Differential tests of the read-path invariants on the integer
structure table and the integer form rows.

Row bases, subspace membership and intersection, brackets of subspaces,
the derived and lower central series, the center, the nilradical (from
the powers of one generic element, against the trace rows of the whole
associative closure of ad) and the signature are compared with the
``Fraction`` code they replaced, copied here as references. The
families are the criterion-3 family, iterated double extensions, the
reduce-pool documents and random rational matrices.
"""

import functools
import gzip
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclie import core
from metriclie import linalg as la
from metriclie.catalog import direct_sum, heis3, sl2, su2
from metriclie.core import (
    LieAlgebra,
    SubspaceBasis,
    bracket_spans,
    center,
    centralizer,
    derived_subalgebra,
    killing_matrix,
    nilradical,
    series,
    subspace_from_spanning,
)
from metriclie.cli import main
from metriclie.documents import (
    algebra_to_document,
    document_to_algebra,
    emit_document,
    parse_document,
)
from metriclie.errors import CertificateError
from metriclie.forms import (
    MetricLieAlgebra,
    SymBilinearForm,
    _congruence,
    diagonalize_symmetric,
    isotropic_vector,
    signature,
)
from metriclie.einstein import _traceless_skew_map, bounds_certificate
from metriclie.reduction import (
    DoubleExtensionSpec,
    build_ab,
    build_example42,
    double_extend,
    random_double_extension,
)

from conftest import (
    ReferenceSubspaceBasis,
    apply_form,
    draw_forms,
    naive_basis_bracket,
    naive_bracket_span,
    naive_centralizer,
    naive_commutant,
    naive_identity,
    naive_in_span,
    naive_inverse,
    naive_kernel,
    naive_mat_scale,
    naive_rank,
    naive_row_space_basis,
    rand_fraction,
    random_solvable_metric,
    reference_associative_closure,
    reference_bilinear,
    reference_bracket,
    reference_commutant_of_adjoint,
    reference_diagonalize_symmetric,
    reference_isotropic_vector,
    reference_int_row,
    reference_rational_span,
    reference_span_basis,
    reference_sparse_kernel,
    reference_subspace,
)
from test_kernels import criterion3_family, int_matrix, iterated_family, naive_trace_product

ZERO = Fraction(0)
POOL = Path(__file__).parents[1] / "perfbench" / "pool" / "reduce.json.gz"


# ---------------------------------------------------------------------------
# Fraction references
# ---------------------------------------------------------------------------


def fraction_intersect_spans(u, v):
    """Basis of span(u) ∩ span(v) from the Fraction kernel of the stacked
    system [u^T | -v^T]."""
    if not u or not v:
        return ()
    combined = naive_kernel(la.transpose(tuple(u) + tuple(la.vec_scale(-1, y) for y in v)))
    out = []
    for k in combined:
        w = la.zeros_vec(len(u[0]))
        for c, basis_vec in zip(k[: len(u)], u):
            w = la.vec_add(w, la.vec_scale(c, basis_vec))
        out.append(w)
    return naive_row_space_basis(out)


def fraction_series(alg):
    """(derived series, lower central series) as tuples of bases."""
    full = naive_identity(alg.dim)
    first = naive_bracket_span(alg, full, full)
    derived, nxt = [full], first
    while len(nxt) < len(derived[-1]):
        derived.append(nxt)
        nxt = naive_bracket_span(alg, nxt, nxt)
    lower, nxt = [full], first
    while len(nxt) < len(lower[-1]):
        lower.append(nxt)
        nxt = naive_bracket_span(alg, full, nxt)
    return tuple(derived), tuple(lower)


def fraction_center(alg):
    """Kernel of the stacked Fraction matrices ad(b_i)."""
    n = alg.dim
    if n == 0:
        return ()
    stacked = []
    for i in range(n):
        cols = [naive_basis_bracket(alg, i, q) for q in range(n)]
        stacked.extend(tuple(cols[q][p] for q in range(n)) for p in range(n))
    return naive_kernel(tuple(stacked))


def fraction_associative_closure(generators):
    """The closure on the flattened matrices, generators rescaled to
    integers first. Membership is decided on a dense Fraction echelon
    basis: a candidate is reduced against the kept rows in the order
    they were kept (each vanishes on the earlier pivots) and enlarges
    the span when a non-zero entry remains."""
    n = la.nrows(generators[0])

    def to_int(mm):
        den = math.lcm(*(x.denominator for row in mm for x in row))
        out = [[int(x * den) for x in row] for row in mm]
        return out if any(any(r) for r in out) else None

    def int_mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    basis = []
    echelon = []  # (pivot column, row with 1 at the pivot)

    def try_add(mm):
        if mm is None or not any(any(r) for r in mm):
            return False
        w = [Fraction(x) for row in mm for x in row]
        for p, row in echelon:
            c = w[p]
            if c:
                w = [x - c * y for x, y in zip(w, row)]
        p = next((k for k, x in enumerate(w) if x), None)
        if p is None:
            return False
        echelon.append((p, [x / w[p] for x in w]))
        basis.append(mm)
        return True

    for g in generators:
        try_add(to_int(g))
    kept = list(basis)
    frontier = list(basis)
    while frontier:
        new = []
        for b in frontier:
            for g in kept:
                prod = int_mul(g, b)
                if try_add(prod):
                    new.append(prod)
            if len(basis) == n * n:
                return basis
        frontier = new
    return basis


def fraction_signature(form):
    """(p, q, r) counted on the diagonal of the ``Fraction``
    diagonalization ``reference_diagonalize_symmetric``."""
    _, diag = reference_diagonalize_symmetric(form)
    return (
        sum(1 for d in diag if d > 0),
        sum(1 for d in diag if d < 0),
        sum(1 for d in diag if d == 0),
    )


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def pool_algebras(per_dim=3):
    """The first per_dim reduce-pool documents of each dimension, and
    example42."""
    with gzip.open(POOL) as fh:
        pool = json.load(fh)
    seen = {}
    out = []
    for entry in pool:
        if entry["id"] == "example42" or seen.get(entry["dim"], 0) < per_dim:
            seen[entry["dim"]] = seen.get(entry["dim"], 0) + 1
            alg, form, _ = document_to_algebra(parse_document(entry["doc"]))
            out.append((alg, form))
    return out


def algebra_family():
    algs = [m.algebra for m in criterion3_family(30)]
    algs += [m.algebra for m in iterated_family(6)]
    algs += [alg for alg, _ in pool_algebras()]
    algs.append(build_example42().algebra)
    return algs


def random_vectors(rng, k, n, density=0.6, max_denominator=5):
    return [
        tuple(
            rand_fraction(rng, 4, max_denominator) if rng.random() < density else ZERO
            for _ in range(n)
        )
        for _ in range(k)
    ]


def random_symmetric(rng, n, kind):
    """A random symmetric rational matrix of the given kind:

    dense      entries with mixed denominators
    zero_diag  a zero diagonal, so the first step is hyperbolic
    hyperbolic blocks [[0, h], [h, 0]] between diagonal entries, half of
               them moved by a random rational basis change P^T D P
    radical    P^T D P with zeros in D, so the form is degenerate
    large      numerators and denominators up to 10^9
    """
    if kind in ("dense", "zero_diag", "large"):
        bound, den = (10**9, 10**9) if kind == "large" else (4, 7)
        g = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.7:
                    g[i][j] = g[j][i] = Fraction(
                        rng.randint(-bound, bound), rng.randint(1, den)
                    )
            if kind == "zero_diag":
                g[i][i] = ZERO
        return tuple(map(tuple, g))
    d = [[ZERO] * n for _ in range(n)]
    if kind == "hyperbolic":
        i = 0
        while i < n:
            if i + 1 < n and rng.random() < 0.7:
                h = rand_fraction(rng, 3, 4) or Fraction(1)
                d[i][i + 1] = d[i + 1][i] = h
                i += 2
            else:
                d[i][i] = Fraction(rng.choice((-1, 0, 1, 2)))
                i += 1
    else:
        for i in range(n):
            d[i][i] = Fraction(rng.choice((-2, -1, 0, 0, 1, 3)), rng.randint(1, 4))
    if kind == "radical" or rng.random() < 0.5:
        p = tuple(tuple(rand_fraction(rng, 2, 3) for _ in range(n)) for _ in range(n))
        d = la.mat_mul(la.mat_mul(la.transpose(p), tuple(map(tuple, d))), p)
    return tuple(map(tuple, d))


KINDS = ("dense", "zero_diag", "hyperbolic", "radical", "large")


def signature_forms():
    rng = random.Random(8101)
    forms = [
        SymBilinearForm(random_symmetric(rng, rng.randint(0, 9), kind))
        for kind in KINDS
        for _ in range(60)
    ]
    for alg in algebra_family():
        forms.append(SymBilinearForm(killing_matrix(alg)))
    forms += [form for _, form in pool_algebras(per_dim=30) if form is not None]
    return forms


def pivot_bits_bound(form):
    """Generous bound on the bits of a pivot when the remaining matrix
    is divided by its content after each step: the pivots are then
    minors of the integer matrix M B (Hadamard), up to the few
    doublings of the hyperbolic steps."""
    _, rows = form.int_rows
    n = form.dim
    b = max((abs(x).bit_length() for row in rows for _, x in row), default=0)
    return 2 * n * (b + n.bit_length() + 2) + 2 * n


# ---------------------------------------------------------------------------
# linalg: the integer span
# ---------------------------------------------------------------------------


def test_row_space_basis_matches_fraction_rref():
    rng = random.Random(8102)
    for _ in range(200):
        n = rng.randint(1, 10)
        vectors = random_vectors(
            rng, rng.randint(1, 12), n, rng.choice((0.1, 0.4, 1.0)), rng.choice((1, 5, 1000))
        )
        if rng.random() < 0.4:
            a, b = rng.choice(vectors), rng.choice(vectors)
            vectors.append(la.vec_sub(la.vec_scale(Fraction(2, 3), a), b))
        assert subspace_from_spanning(n, vectors).vectors == naive_row_space_basis(vectors)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(
                    st.just(ZERO),
                    st.fractions(min_value=-50, max_value=50, max_denominator=60),
                ),
                min_size=n,
                max_size=n,
            ),
            min_size=1,
            max_size=9,
        )
    )
)
def test_row_space_basis_matches_fraction_rref_hypothesis(rows):
    vectors = [tuple(Fraction(x) for x in r) for r in rows]
    assert subspace_from_spanning(len(rows[0]), vectors).vectors == naive_row_space_basis(vectors)


def test_int_span_membership_and_empty_kernel():
    rng = random.Random(8103)
    for _ in range(100):
        n = rng.randint(1, 8)
        vectors = random_vectors(rng, rng.randint(1, 6), n, 0.5)
        span = la.IntSpan(n)
        grew = [span.add(reference_int_row(v)) for v in vectors]
        assert grew == [
            naive_rank(tuple(vectors[: i + 1])) > naive_rank(tuple(vectors[:i]))
            for i, v in enumerate(vectors)
        ]
        # the pivot rows are primitive and reduced against each other
        for lead, r in span.pivots.items():
            assert min(r) == lead and math.gcd(*r.values()) == 1
            assert all(lead not in other for p, other in span.pivots.items() if p != lead)
        for probe in random_vectors(rng, 4, n, 0.5) + vectors:
            assert (not span.reduce(reference_int_row(probe))) == naive_in_span(vectors, probe)
    for n in range(6):
        assert SubspaceBasis.kernel(n, []).vectors == naive_identity(n)
        assert SubspaceBasis.kernel(n, [{}, {}]).vectors == naive_identity(n)
    # a dense matrix without rows has no column count
    assert la.kernel(()) == ()


def test_subspace_operations_match_fraction_code():
    rng = random.Random(8104)
    for _ in range(120):
        n = rng.randint(1, 8)
        shared = random_vectors(rng, rng.randint(0, 2), n)
        u = subspace_from_spanning(n, shared + random_vectors(rng, rng.randint(0, 4), n))
        v = subspace_from_spanning(n, shared + random_vectors(rng, rng.randint(0, 4), n))
        assert u.vectors == naive_row_space_basis(u.vectors)
        meet = u.intersect(v)
        assert meet.vectors == fraction_intersect_spans(u.vectors, v.vectors)
        # spanning sets with repeats and dependent vectors
        raw_u = list(u.vectors) + list(shared)
        raw_v = list(v.vectors) + [la.vec_scale(3, x) for x in v.vectors]
        meet_raw = subspace_from_spanning(n, raw_u).intersect(subspace_from_spanning(n, raw_v))
        assert meet_raw.vectors == fraction_intersect_spans(raw_u, raw_v)
        assert u.contains_subspace(v) == all(naive_in_span(u.vectors, x) for x in v.vectors)
        assert u.same_span(v) == (naive_row_space_basis(u.vectors) == naive_row_space_basis(v.vectors))
        assert u.same_span(u) and u.contains_subspace(meet) and v.contains_subspace(meet)
        for probe in random_vectors(rng, 3, n) + list(v.vectors):
            assert u.contains(probe) == naive_in_span(u.vectors, probe)
    with pytest.raises(ValueError, match="dependent"):
        SubspaceBasis(3, ((1, 2, 3), (Fraction(1, 2), 1, Fraction(3, 2))))


def check_subspaces_match_reference(n, families, probes, equations, forms):
    """Every ``SubspaceBasis`` operation against the ``Fraction``
    reference, on the subspaces spanned by each family of vectors: the
    basis, ``==`` and ``hash``, ``dim``, the pivot rows, membership,
    intersections, the validating constructor, the kernels of the
    integer equations and the Gram values on the integer rows."""
    subs = [subspace_from_spanning(n, vs) for vs in families]
    refs = [reference_subspace(n, vs) for vs in families]
    for vs, sub, ref in zip(families, subs, refs):
        assert sub.vectors == ref.vectors and sub.dim == ref.dim
        assert sub.int_span.pivots == ref.int_span.pivots
        assert all(type(x) is Fraction for v in sub.vectors for x in v)
        assert SubspaceBasis(n, ref.vectors) == sub
        for v in vs:
            if any(v):
                assert dict(la.to_int_rows((v,))[1][0]) == reference_int_row(la.vec(v))
        for probe in probes:
            assert sub.contains(probe) == ref.contains(probe)
            # entries that Fraction() reads, as strings and as exact floats
            text = tuple(str(x) for x in probe)
            assert sub.contains(text) == ref.contains(text) == ref.contains(probe)
            halves = tuple(float(Fraction(round(2 * x), 2)) for x in la.vec(probe))
            assert sub.contains(halves) == ref.contains(halves)
        with pytest.raises(ValueError, match="ambient dimension"):
            sub.contains((0,) * (n + 1))
        # the given vectors as a basis: both constructors accept or reject them
        try:
            expected = ReferenceSubspaceBasis(n, vs).vectors
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                SubspaceBasis(n, vs)
        else:
            assert SubspaceBasis(n, vs).vectors == expected
    for a, ref_a in zip(subs, refs):
        for b, ref_b in zip(subs, refs):
            assert (a == b) == (ref_a == ref_b)
            if a == b:
                assert hash(a) == hash(b)
            assert a.intersect(b).vectors == ref_a.intersect(ref_b).vectors
    for sub in subs:
        # a sub-basis over the parent's denominator is stored canonically
        den, rows = sub.int_rows
        first, same = SubspaceBasis.from_rows(n, den, rows[:1]), SubspaceBasis(n, sub.vectors[:1])
        assert first == same and hash(first) == hash(same)
    for rows in equations:
        kernel = SubspaceBasis.kernel(n, rows)
        expected = reference_sparse_kernel(rows, n)
        assert kernel.vectors == expected
        assert kernel == SubspaceBasis(n, expected) and hash(kernel) == hash(SubspaceBasis(n, expected))
    for form in forms:
        m = form.int_rows[0]
        for a, b in zip(subs, subs[1:] + subs[:1]):
            (da, ra), (db, rb) = a.int_rows, b.int_rows
            gram = form.int_gram(ra, rb)
            assert [[Fraction(x, m * da * db) for x in row] for row in gram] == [
                [reference_bilinear(form.matrix, u, v) for v in b.vectors] for u in a.vectors
            ]


def test_subspace_basis_matches_the_fraction_reference():
    rng = random.Random(8111)
    forms_by_dim: dict[int, list] = {}
    for form in draw_forms():
        forms_by_dim.setdefault(form.dim, []).append(form)
    for n in range(9):
        for _ in range(12):
            families = [[]]  # the empty basis
            for _ in range(4):
                k = rng.randint(0, n + 2)
                vs = random_vectors(rng, k, n, rng.choice((0.3, 0.7, 1.0)), rng.choice((1, 4, 12, 10**6)))
                if vs and rng.random() < 0.4:
                    # dependent input: a combination of two of the vectors
                    a, b = rng.choice(vs), rng.choice(vs)
                    vs.append(la.vec_sub(la.vec_scale(Fraction(3, 7), a), b))
                families.append(vs)
            families.append(list(families[-1]))  # an equal subspace
            probes = random_vectors(rng, 3, n) + [v for vs in families for v in vs][:4]
            equations = [
                [
                    {c: rng.randint(-5, 5) for c in range(n) if rng.random() < 0.5}
                    for _ in range(rng.randint(0, n + 1))
                ]
                for _ in range(3)
            ]
            check_subspaces_match_reference(n, families, probes, equations, forms_by_dim.get(n, []))


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(
                    st.lists(
                        st.one_of(
                            st.just(ZERO),
                            st.fractions(min_value=-20, max_value=20, max_denominator=30),
                        ),
                        min_size=n,
                        max_size=n,
                    ),
                    max_size=6,
                ),
                min_size=1,
                max_size=3,
            ),
            st.lists(
                st.dictionaries(st.integers(0, max(n - 1, 0)), st.integers(-9, 9), max_size=n),
                max_size=8,
            ),
        )
    )
)
def test_subspace_basis_matches_the_fraction_reference_hypothesis(case):
    n, families, equations = case
    families = [[tuple(v) for v in vs] for vs in families]
    probes = [v for vs in families for v in vs][:4]
    check_subspaces_match_reference(n, families, probes, [equations], [build_ab(n, n // 2).form])


def test_full_space_runs_no_elimination(monkeypatch):
    # the unit rows are the RREF of Q^n already
    alg = LieAlgebra(3, ("x", "y", "z"), {(0, 1): (0, 0, 1)})
    eliminations = []
    real = la.IntSpan.add

    def counted(span, row):
        eliminations.append(span.nc)
        return real(span, row)

    monkeypatch.setattr(la.IntSpan, "add", counted)
    full = alg.full_space()
    assert full.vectors == naive_identity(3)
    assert full.int_span.pivots == {i: {i: 1} for i in range(3)}
    assert all(alg.full_space() is full for _ in range(3))
    assert eliminations == []


def test_subspace_from_span_keeps_the_elimination(monkeypatch):
    rng = random.Random(8107)
    for _ in range(150):
        n = rng.randint(0, 8)
        k = rng.randint(0, 5) if n else 0
        vectors = random_vectors(rng, k, n, density=rng.choice((0.3, 0.6, 1.0)))
        span = reference_rational_span(vectors, n)
        sub = SubspaceBasis.from_span(span)
        ref = SubspaceBasis(n, reference_span_basis(span))
        assert (sub.ambient_dim, sub.vectors) == (ref.ambient_dim, ref.vectors)
        assert sub == ref and sub.int_span is span
        assert sub.int_span.pivots == ref.int_span.pivots
        assert all(type(x) is Fraction for v in sub.vectors for x in v)
    zero = SubspaceBasis.from_span(la.IntSpan(4))
    assert zero.vectors == () and zero.dim == 0 and zero == SubspaceBasis(4, ())
    # the subspaces built from an elimination keep it: every IntSpan is
    # counted by width, and only bracket_spans' own (width 6) and
    # intersect_spans' own Zassenhaus pair (widths 12 and 6) run, however
    # the results are read afterwards
    alg = build_example42().algebra
    full = alg.full_space()
    u = subspace_from_spanning(6, (la.unit_vec(6, 1), la.unit_vec(6, 2)))
    assert "int_span" in full.__dict__ and "int_span" in u.__dict__
    eliminations = []
    real_init = la.IntSpan.__init__

    def counted_init(self, nc, rows=()):
        eliminations.append(nc)
        real_init(self, nc, rows)

    monkeypatch.setattr(la.IntSpan, "__init__", counted_init)
    derived = bracket_spans(alg, full, full)
    assert eliminations == [6] and "int_span" in derived.__dict__
    meet = derived.intersect(u)
    assert eliminations == [6, 12, 6] and "int_span" in meet.__dict__
    for sub in (derived, meet):
        assert sub.int_span.dim == sub.dim
        assert sub.contains_subspace(sub) and sub.same_span(sub)
        assert all(sub.contains(v) for v in sub.vectors)
    assert eliminations == [6, 12, 6]
    monkeypatch.setattr(la.IntSpan, "__init__", real_init)
    # the rescaling of rational vectors is counted by width
    rescaled = []
    real = la.to_int_rows

    def counted(rows):
        rows = tuple(rows)
        rescaled.append(len(rows[0]))
        return real(rows)

    monkeypatch.setattr(la, "to_int_rows", counted)
    subspace_from_spanning(6, derived.vectors + u.vectors)
    assert rescaled == [6]
    with pytest.raises(ValueError, match="ambient dimension"):
        subspace_from_spanning(3, ((1, 2),))


def search_samples(count=24, seed=8109):
    """Algebras as ``sharpness_search`` draws them: one-step extensions
    by a traceless skew map and two-step iterated extensions."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(5, 8)
        s = rng.randint(2, d - 3)
        if len(out) % 2:
            base = build_ab(d - 2, s - 1)
            delta = _traceless_skew_map(rng, base.form)
            if delta is not None:
                out.append(double_extend(DoubleExtensionSpec.from_columns(base, (delta,))).algebra)
        else:
            g = random_double_extension(rng, build_ab(d - 4, s - 2))
            out.append(random_double_extension(rng, g).algebra)
    return out


def int_lower_central_series(alg):
    """g, [g, g], [g, [g, g]], ... on ``bracket_spans``, up to the first
    term its successor equals."""
    full = alg.full_space()
    lower, nxt = [full], alg.derived
    while nxt.dim < lower[-1].dim:
        lower.append(nxt)
        nxt = bracket_spans(alg, full, nxt)
    return tuple(lower)


def test_series_of_search_samples_forms_no_rows(monkeypatch):
    """The derived-series terms are read only through ``dim`` and
    ``int_span``, so a series report forms no ``int_rows``: the only
    ``la.normalised`` calls are those of the nilradical's kernel, which
    decides nilpotency. Read afterwards, the rows are the RREF basis of
    the span."""
    normalised, kernel = la.normalised, SubspaceBasis.kernel
    calls, kernels, open_kernels = [], [], []

    def counted(den, rows):
        calls.append(bool(open_kernels))
        return normalised(den, rows)

    def counted_kernel(cls, n, equations):
        kernels.append(n)
        open_kernels.append(n)
        try:
            return kernel(n, equations)
        finally:
            open_kernels.pop()

    algebras = search_samples()
    monkeypatch.setattr(la, "normalised", counted)
    monkeypatch.setattr(SubspaceBasis, "kernel", classmethod(counted_kernel))
    reports = [series(alg) for alg in algebras] + [alg.series_report for alg in algebras]
    assert len(kernels) >= len(algebras)
    assert calls == [True] * len(kernels)
    calls.clear()
    terms = [t for rep in reports for t in rep.derived_series]
    assert all("int_rows" not in t.__dict__ for t in terms)
    assert sum(t.dim not in (0, t.ambient_dim) for t in terms) > 20
    for t in terms:
        dim = t.dim
        assert (t.vectors, dim) == (reference_span_basis(t.int_span), len(t.int_rows[1]))
    assert len(calls) == len({id(t) for t in terms})


def test_subspace_from_span_and_from_rows_are_equal():
    """A subspace built from an ``IntSpan`` and one built from its RREF
    rows compare and hash equal, before and after the rows are read."""
    spans = [
        t.int_span
        for alg in search_samples(12, seed=8110)
        for t in series(alg).derived_series + int_lower_central_series(alg)
    ]
    rng = random.Random(8111)
    for _ in range(60):
        n = rng.randint(0, 8)
        spans.append(reference_rational_span(random_vectors(rng, rng.randint(0, 5), n), n))
    for span in spans:
        rows = SubspaceBasis(span.nc, reference_span_basis(span))
        first, second = SubspaceBasis.from_span(span), SubspaceBasis.from_span(span)
        assert first.dim == rows.dim == span.dim
        assert "int_rows" not in first.__dict__ and "int_rows" not in second.__dict__
        assert first == rows and hash(second) == hash(rows)
        assert rows == first and hash(first) == hash(second) and len({first, rows, second}) == 1
        assert first.int_rows == second.int_rows == rows.int_rows
        assert first.dim == len(first.int_rows[1])
    assert SubspaceBasis.from_span(la.IntSpan(3)) != SubspaceBasis.from_span(la.IntSpan(4))


# ---------------------------------------------------------------------------
# core: series, center, brackets of subspaces, closure, nilradical
# ---------------------------------------------------------------------------


def test_series_center_and_bracket_spans_match_fraction_code():
    rng = random.Random(8105)
    for alg in algebra_family():
        n = alg.dim
        rep = series(alg)
        derived, lower = fraction_series(alg)
        assert tuple(s.vectors for s in rep.derived_series) == derived
        assert tuple(s.vectors for s in int_lower_central_series(alg)) == lower
        assert rep.is_solvable == (len(derived[-1]) == 0)
        assert rep.is_nilpotent == (len(lower[-1]) == 0)
        assert alg.series_report is alg.series_report  # computed once
        assert alg.series_report == rep
        assert rep.derived.vectors == derived_subalgebra(alg).vectors
        assert center(alg) == subspace_from_spanning(n, fraction_center(alg))
        full = alg.full_space()
        subs = [full, rep.derived, center(alg)]
        subs += [subspace_from_spanning(n, random_vectors(rng, rng.randint(1, 3), n)) for _ in range(2)]
        for u in subs:
            for v in subs:
                assert bracket_spans(alg, u, v).vectors == naive_bracket_span(
                    alg, u.vectors, v.vectors
                )


def test_associative_closure_and_nilradical_match_fraction_code():
    non_nilpotent = 0
    for alg in algebra_family():
        if not alg.series_report.is_solvable or alg.series_report.is_nilpotent:
            continue
        non_nilpotent += 1
        n = alg.dim
        ads = [
            tuple(tuple(naive_basis_bracket(alg, i, q)[p] for q in range(n)) for p in range(n))
            for i in range(n)
        ]
        int_ads = [int_matrix(a) for a in ads]
        assoc = reference_associative_closure(int_ads)
        # the same products are kept, in the same order
        assert assoc == fraction_associative_closure(ads)
        rows = tuple(tuple(naive_trace_product(a, b) for a in ads) for b in assoc)
        assert nilradical(alg).vectors == naive_kernel(rows)
    assert non_nilpotent >= 15


@functools.lru_cache(maxsize=1)
def centralizer_family():
    """Catalog algebras, the reduce-pool sample of ``pool_algebras`` and
    seeded iterated double extensions."""
    algs = [heis3(), sl2().algebra, su2().algebra, build_example42().algebra, build_ab(3, 1).algebra]
    algs += [alg for alg, _ in pool_algebras()]
    algs += [m.algebra for m in iterated_family(6)]
    return algs


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_centralizer_matches_the_naive_reference_hypothesis(data):
    """``centralizer(alg, sub, acting)`` equals, on canonical rows, the
    kernel of ad over acting (all n^2 rows for acting = g) intersected
    with sub, for sub among g, [g, g], n, [g, n] and random spans that
    may meet the center, and acting g or n."""
    algs = centralizer_family()
    alg = algs[data.draw(st.integers(0, len(algs) - 1), label="algebra")]
    n = alg.dim
    full = alg.full_space()
    subs = {"g": full, "[g, g]": alg.derived}
    actings = {"g": None}
    if not alg.derived_series[-1].dim:
        nil = nilradical(alg)
        subs.update({"n": nil, "[g, n]": bracket_spans(alg, full, nil)})
        actings["n"] = nil
    entries = st.one_of(st.just(ZERO), st.fractions(min_value=-4, max_value=4, max_denominator=5))
    vectors = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=3))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    z = center(alg).vectors
    vectors.append([sum((c * v[i] for c, v in zip(coeffs, z)), ZERO) for i in range(n)])
    subs["random"] = subspace_from_spanning(n, vectors)
    sub = subs[data.draw(st.sampled_from(sorted(subs)), label="sub")]
    acting = actings[data.draw(st.sampled_from(sorted(actings)), label="acting")]
    assert centralizer(alg, sub, acting) == naive_centralizer(alg, sub, acting)


def test_every_nilradical_is_an_ideal():
    """``nilradical`` no longer certifies that its result is an ideal:
    containing [g, g] makes it one. The Fraction bracket span [g, n]
    lies in n on every solvable reduce-pool algebra and on seeded
    double extensions."""
    with gzip.open(POOL) as fh:
        pool = json.load(fh)
    algs = [document_to_algebra(parse_document(entry["doc"]))[0] for entry in pool]
    algs += [m.algebra for m in criterion3_family(30)] + [m.algebra for m in iterated_family(6)]
    assert len(algs) == 247
    for alg in algs:
        nil = nilradical(alg)
        span = naive_bracket_span(alg, naive_identity(alg.dim), nil.vectors)
        assert all(nil.contains(v) for v in span)


def random_semidirect(rng):
    """R^d acting on the abelian ideal R^m by commuting maps P D_j P^-1:
    P unit upper triangular and D_j block diagonal, with blocks (a) or
    [[a, -b], [b, a]] of small integers shared by every j, so the weights
    are real or complex and often agree at y = sum_j c_j."""
    d, m = rng.randint(2, 3), rng.randint(2, 5)
    sizes = []
    while sum(sizes) < m:
        sizes.append(1 if sum(sizes) == m - 1 or rng.random() < 0.6 else 2)
    p = tuple(
        tuple(Fraction(1 if r == c else (rng.randint(-2, 2) if c > r else 0)) for c in range(m))
        for r in range(m)
    )
    p_inv = la.inverse(p)
    brackets = {}
    for j in range(d):
        block = [[ZERO] * m for _ in range(m)]
        at = 0
        for size in sizes:
            a = Fraction(rng.randint(-2, 2))
            block[at][at] = a
            if size == 2:
                b = Fraction(rng.choice((-2, -1, 1, 2)))
                block[at + 1][at + 1] = a
                block[at][at + 1], block[at + 1][at] = -b, b
            at += size
        act = la.mat_mul(la.mat_mul(p, tuple(map(tuple, block))), p_inv)
        for q in range(m):
            brackets[(j, d + q)] = (ZERO,) * d + tuple(act[r][q] for r in range(m))
    return LieAlgebra(d + m, tuple(f"b{i}" for i in range(d + m)), brackets)


def reference_nilradical_vectors(alg):
    """The kernel of tr(ad(b_i) B) over the associative closure of the
    integer matrices L ad(b_i), by dense Fraction elimination."""
    n = alg.dim
    dense = [[[row.get(q, 0) for q in range(n)] for row in ad_i] for ad_i in alg.int_ad]
    rows = tuple(
        tuple(
            Fraction(sum(a[p][q] * b[q][p] for p in range(n) for q in range(n)))
            for a in dense
        )
        for b in reference_associative_closure(dense)
    )
    return naive_kernel(rows)


def test_nilradical_matches_the_associative_closure(monkeypatch):
    rng = random.Random(8109)
    algs = [alg for alg, _ in pool_algebras(per_dim=30)]
    algs += [random_solvable_metric(rng, 5, 2).algebra for _ in range(40)]
    algs += [random_semidirect(rng) for _ in range(40)]
    real = SubspaceBasis.kernel
    tries = []

    def counted(cls, nc, rows):
        tries[-1] += 1
        return real(nc, rows)

    monkeypatch.setattr(SubspaceBasis, "kernel", classmethod(counted))
    cases = 0
    for alg in algs:
        # nilpotency is read off the nilradical, so its solve runs here
        tries.append(0)
        rep = alg.series_report
        if not rep.is_solvable or rep.is_nilpotent:
            tries.pop()
            continue
        cases += 1
        solves = tries[-1]
        assert nilradical(alg).vectors == reference_nilradical_vectors(alg)
        assert tries[-1] == solves  # the kept nilradical is not solved again
    assert cases >= 250
    # t = 1 is not generic for some of them, and each retry is covered
    assert max(tries) >= 2 and sum(t > 1 for t in tries) >= 5


def test_nilradical_retries_are_bounded(monkeypatch):
    alg = random_semidirect(random.Random(8110))
    n, d = alg.dim, alg.dim - alg.series_report.derived.dim
    assert d >= 2 and not alg.series_report.is_nilpotent
    # a fresh copy keeps no nilradical yet, so its solve runs under the patch:
    # every candidate is all of g: it contains [g, g] and is an ideal,
    # but is not nilpotent, so every t up to the bound is tried
    alg = LieAlgebra(alg.dim, alg.basis_names, alg.brackets)
    calls = []

    def whole(cls, nc, rows):
        calls.append(nc)
        return cls(nc, naive_identity(nc))

    monkeypatch.setattr(SubspaceBasis, "kernel", classmethod(whole))
    with pytest.raises(CertificateError, match="not a nilpotent ideal"):
        nilradical(alg)
    assert len(calls) == (d - 1) * n * (n + 1) // 2 + 1


def test_nilradical_is_solved_once_per_algebra(monkeypatch, tmp_path, capsys):
    """``analyze`` on a document with a nilradical hint, and
    ``bounds_certificate`` on example42, decide nilpotency and then read
    the nilradical, yet run the trace-row solve once per algebra."""
    solve = core._nilradical
    solves: Counter = Counter()
    seen = []

    def counted(alg):
        seen.append(alg)  # keeps each algebra alive, so no id is reused
        solves[id(alg)] += 1
        return solve(alg)

    monkeypatch.setattr(core, "_nilradical", counted)
    m = build_example42()
    obj = emit_document(algebra_to_document(m.algebra, m.form, "ex"))
    obj["hints"] = {"nilradical": [[int(i == j) for j in range(6)] for i in range(1, 6)]}
    path = tmp_path / "ex.json"
    path.write_text(json.dumps(obj))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["nilpotent"], results["nilradical_dim"]) == (False, 5)
    assert list(solves.values()) == [1]
    solves.clear()
    fresh = LieAlgebra(m.dim, m.algebra.basis_names, m.algebra.brackets)
    assert bounds_certificate(MetricLieAlgebra(fresh, m.form)).dim_nilradical == 5
    assert solves == {id(fresh): 1}


def test_is_nilpotent_matches_the_lower_central_series():
    """``is_nilpotent``, read off the nilradical, is the verdict of the
    Fraction lower central series on every reduce-pool document, heis3,
    sl2 and seeded iterated double extensions; both verdicts occur."""
    with gzip.open(POOL) as fh:
        pool = json.load(fh)
    algs = [document_to_algebra(parse_document(entry["doc"]))[0] for entry in pool]
    assert len(algs) == 211
    algs += [heis3(), sl2().algebra] + [m.algebra for m in iterated_family(12)]
    verdicts = Counter()
    for alg in algs:
        _, lower = fraction_series(alg)
        nilpotent = len(lower[-1]) == 0
        assert alg.series_report.is_nilpotent == nilpotent
        verdicts[nilpotent] += 1
    assert verdicts == {True: 13, False: 212}


def tiny_algebras():
    """The zero algebra and the one-dimensional algebra."""
    return [LieAlgebra(0, (), {}), LieAlgebra(1, ("x",), {})]


def semisimple_sums():
    """sl2, su2, their four sums of two summands and two sums of three."""
    simple = {"sl2": sl2(), "su2": su2()}
    algs = [m.algebra for m in simple.values()]
    algs += [direct_sum(simple[a], simple[b]).algebra for a in simple for b in simple]
    for a, b, c in (("sl2", "su2", "sl2"), ("su2", "su2", "su2")):
        algs.append(direct_sum(direct_sum(simple[a], simple[b]), simple[c]).algebra)
    return algs


def test_bracket_matches_fraction_code():
    rng = random.Random(5113)
    for alg in algebra_family() + semisimple_sums() + tiny_algebras():
        n = alg.dim
        vecs = random_vectors(rng, 4, n) + [la.zeros_vec(n)]
        vecs += [la.unit_vec(n, i) for i in range(n)]
        for x in vecs:
            for y in vecs:
                got = alg.bracket(x, y)
                assert got == reference_bracket(alg, x, y)
                assert all(type(c) is Fraction for c in got)


def test_commutant_of_adjoint_matches_fraction_code():
    algs = semisimple_sums() + tiny_algebras() + [heis3()]
    algs += [alg for alg, _ in pool_algebras(per_dim=1) if alg.dim <= 7]
    for alg in algs:
        n = alg.dim
        # the kernel's flattened vectors as matrices
        got = tuple(
            tuple(v[i * n : (i + 1) * n] for i in range(n)) for v in naive_commutant(alg).vectors
        )
        assert got == reference_commutant_of_adjoint(alg)


# ---------------------------------------------------------------------------
# forms: signature and the inverse of a diagonal form
# ---------------------------------------------------------------------------


def test_signature_matches_diagonalization():
    seen_zero_diag = seen_radical = 0
    for form in signature_forms():
        sig = signature(form)
        assert (sig.p, sig.q, sig.r) == fraction_signature(form)
        pivots = _congruence(form)[0]
        assert len(pivots) == form.dim
        assert max((abs(d).bit_length() for d in pivots), default=0) <= pivot_bits_bound(form)
        m = form.matrix
        seen_zero_diag += form.dim > 1 and all(m[i][i] == 0 for i in range(form.dim)) and not form.is_zero()
        seen_radical += sig.r > 0
    assert seen_zero_diag >= 30 and seen_radical >= 50


def test_signature_pivots_stay_small():
    # with the content divided out after every step, the pivots of
    # 2 I are 2, 1, 1, ...; without it they would square at every step
    form = SymBilinearForm(naive_mat_scale(2, naive_identity(12)))
    assert _congruence(form)[0] == [2] + [1] * 11
    # a zero diagonal needs the hyperbolic step before any pivot
    hyp = SymBilinearForm(((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    assert signature(hyp) == signature(SymBilinearForm(((1, 0, 0), (0, -1, 0), (0, 0, 0))))
    assert (signature(hyp).p, signature(hyp).q, signature(hyp).r) == (1, 1, 1)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.one_of(
                    st.just(ZERO),
                    st.just(ZERO),
                    st.fractions(min_value=-9, max_value=9, max_denominator=10**6),
                ),
                min_size=n * n,
                max_size=n * n,
            ),
            st.booleans(),
        )
    )
)
def test_signature_matches_diagonalization_hypothesis(case):
    n, entries, zero_diagonal = case
    g = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = entries[i * n + j]
        if zero_diagonal:
            g[i][i] = ZERO
    form = SymBilinearForm(tuple(map(tuple, g)))
    sig = signature(form)
    assert (sig.p, sig.q, sig.r) == fraction_signature(form)
    pivots = _congruence(form)[0]
    assert max((abs(d).bit_length() for d in pivots), default=0) <= pivot_bits_bound(form)


def test_diagonalize_symmetric_matches_the_fraction_reference():
    """The integer diagonalization returns the very vectors and diagonal
    of the ``Fraction`` one, which pick ``isotropic_vector``'s witness:
    seeded forms of every kind for n = 0..8, including degenerate ones
    and ones whose diagonal is zero (the hyperbolic step), and the
    forms of the pool documents."""
    rng = random.Random(8107)
    forms = [
        SymBilinearForm(random_symmetric(rng, n, kind))
        for kind in KINDS
        for n in range(9)
        for _ in range(6)
    ]
    forms += [SymBilinearForm(((0,) * n,) * n) for n in range(4)]
    forms += [form for _, form in pool_algebras(per_dim=10) if form is not None]
    seen, dims = Counter(), set()
    for form in forms:
        vecs, diag = diagonalize_symmetric(form)
        assert (vecs, diag) == reference_diagonalize_symmetric(form)
        assert all(isinstance(x, Fraction) for v in vecs for x in v)
        assert all(isinstance(d, Fraction) for d in diag)
        m = form.matrix
        dims.add(form.dim)
        seen["zero_diag"] += form.dim > 1 and not form.is_zero() and all(m[i][i] == 0 for i in range(form.dim))
        seen["radical"] += 0 in diag
    assert dims >= set(range(9))
    assert seen["zero_diag"] >= 40 and seen["radical"] >= 40


def test_isotropic_vector_matches_the_fraction_reference():
    """The bounded search on the integer diagonal returns the very vector
    of the ``Fraction`` search (it picks the reduction line that
    ``complete-reduce`` prints): seeded diagonal forms for n = 2..6 and
    the form of every pool document."""
    rng = random.Random(2410)
    forms = []
    for n in range(2, 7):
        for _ in range(40):
            diag = [
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4)) if rng.random() < 0.9 else ZERO
                for _ in range(n)
            ]
            forms.append(SymBilinearForm(tuple(tuple(diag[i] if i == j else ZERO for j in range(n)) for i in range(n))))
    pool = [form for _, form in pool_algebras(per_dim=31)]
    assert len(pool) == 211
    searched = found = 0
    for form in forms + pool:
        v = isotropic_vector(form)
        assert v == reference_isotropic_vector(form)
        if v is not None:
            found += 1
            assert apply_form(form, v, v) == 0 and any(v)
        # a diagonal form's search combines at least three basis vectors
        searched += form in forms and v is not None and sum(map(bool, v)) >= 3
    assert searched >= 20 and found >= 150


def test_diagonal_inverse_matches_elimination():
    rng = random.Random(8106)
    for _ in range(80):
        n = rng.randint(0, 8)
        diag = [
            Fraction(rng.choice((-1, 1))) if rng.random() < 0.5 else rand_fraction(rng, 5, 7) or Fraction(1)
            for _ in range(n)
        ]
        form = SymBilinearForm(
            tuple(tuple(diag[i] if i == j else ZERO for j in range(n)) for i in range(n))
        )
        assert form.inverse == la.inverse(form.matrix) == naive_inverse(form.matrix)
    singular = SymBilinearForm(((1, 0), (0, 0)))
    with pytest.raises(ValueError, match="singular"):
        singular.inverse
    with pytest.raises(ValueError, match="singular"):
        la.inverse(singular.matrix)
    hyperbolic = SymBilinearForm(((0, 1), (1, 0)))
    assert hyperbolic.inverse == la.inverse(hyperbolic.matrix) == hyperbolic.matrix
