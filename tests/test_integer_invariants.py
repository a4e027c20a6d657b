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
from metriclie.catalog import direct_sum, heis3, sl2, su2
from metriclie.core import (
    LieAlgebra,
    SubspaceBasis,
    bracket_spans,
    center,
    derived_subalgebra,
    killing_matrix,
    nilradical,
    series,
    subspace_from_spanning,
)
from metriclie.documents import document_to_algebra, parse_document
from metriclie.errors import CertificateError
from metriclie.forms import (
    SymBilinearForm,
    _congruence_pivots,
    diagonalize_symmetric,
    signature,
)
from metriclie.reduction import build_example42
from metriclie.semisimple import _commutant_of_adjoint

from conftest import (
    naive_basis_bracket,
    naive_in_span,
    naive_inverse,
    naive_kernel,
    naive_mat_scale,
    naive_rank,
    naive_row_space_basis,
    rand_fraction,
    random_solvable_metric,
    reference_associative_closure,
    reference_bracket,
    reference_commutant_of_adjoint,
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


def fraction_bracket_spans(alg, u, v):
    """Basis of [u, v] from every Fraction bracket of the basis vectors."""
    return naive_row_space_basis([alg.bracket(x, y) for x in u for y in v])


def fraction_series(alg):
    """(derived series, lower central series) as tuples of bases."""
    full = la.identity(alg.dim)
    first = fraction_bracket_spans(alg, full, full)
    derived, nxt = [full], first
    while len(nxt) < len(derived[-1]):
        derived.append(nxt)
        nxt = fraction_bracket_spans(alg, nxt, nxt)
    lower, nxt = [full], first
    while len(nxt) < len(lower[-1]):
        lower.append(nxt)
        nxt = fraction_bracket_spans(alg, full, nxt)
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
    """(p, q, r) counted on the diagonal of ``diagonalize_symmetric``."""
    _, diag = diagonalize_symmetric(form)
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
        assert la.rational_span(vectors, n).basis() == naive_row_space_basis(vectors)


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
    assert la.rational_span(vectors, len(rows[0])).basis() == naive_row_space_basis(vectors)


def test_int_span_membership_and_empty_kernel():
    rng = random.Random(8103)
    for _ in range(100):
        n = rng.randint(1, 8)
        vectors = random_vectors(rng, rng.randint(1, 6), n, 0.5)
        span = la.IntSpan(n)
        grew = [span.add(la.int_row(v)) for v in vectors]
        assert grew == [
            naive_rank(tuple(vectors[: i + 1])) > naive_rank(tuple(vectors[:i]))
            for i, v in enumerate(vectors)
        ]
        # the pivot rows are primitive and reduced against each other
        for lead, r in span.pivots.items():
            assert min(r) == lead and math.gcd(*r.values()) == 1
            assert all(lead not in other for p, other in span.pivots.items() if p != lead)
        for probe in random_vectors(rng, 4, n, 0.5) + vectors:
            assert (not span.reduce(la.int_row(probe))) == naive_in_span(vectors, probe)
    for n in range(6):
        assert la.sparse_kernel([], n) == la.identity(n)
        assert la.sparse_kernel([{}, {}], n) == la.identity(n)
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
        meet_raw = la.intersect_spans(la.rational_span(raw_u, n), la.rational_span(raw_v, n))
        assert meet_raw.basis() == fraction_intersect_spans(raw_u, raw_v)
        assert u.contains_subspace(v) == all(naive_in_span(u.vectors, x) for x in v.vectors)
        assert u.same_span(v) == (naive_row_space_basis(u.vectors) == naive_row_space_basis(v.vectors))
        assert u.same_span(u) and u.contains_subspace(meet) and v.contains_subspace(meet)
        for probe in random_vectors(rng, 3, n) + list(v.vectors):
            assert u.contains(probe) == naive_in_span(u.vectors, probe)
    with pytest.raises(ValueError, match="dependent"):
        SubspaceBasis(3, ((1, 2, 3), (Fraction(1, 2), 1, Fraction(3, 2))))


def test_full_space_runs_no_elimination(monkeypatch):
    # the unit rows are the RREF of Q^n already
    alg = LieAlgebra(3, ("x", "y", "z"), {(0, 1): (0, 0, 1)})
    eliminations = []
    real = la.rational_span

    def counted(rows, nc):
        eliminations.append(nc)
        return real(rows, nc)

    monkeypatch.setattr(la, "rational_span", counted)
    full = alg.full_space()
    assert full.vectors == la.identity(3)
    assert full.int_span.pivots == {i: {i: 1} for i in range(3)}
    assert all(alg.full_space() is full for _ in range(3))
    assert eliminations == []


def test_subspace_from_span_keeps_the_elimination(monkeypatch):
    rng = random.Random(8107)
    for _ in range(150):
        n = rng.randint(0, 8)
        k = rng.randint(0, 5) if n else 0
        vectors = random_vectors(rng, k, n, density=rng.choice((0.3, 0.6, 1.0)))
        span = la.rational_span(vectors, n)
        sub = SubspaceBasis.from_span(span)
        ref = SubspaceBasis(n, span.basis())
        assert (sub.ambient_dim, sub.vectors) == (ref.ambient_dim, ref.vectors)
        assert sub == ref and sub.int_span is span
        assert sub.int_span.pivots == ref.int_span.pivots
        assert all(type(x) is Fraction for v in sub.vectors for x in v)
    zero = SubspaceBasis.from_span(la.IntSpan(4))
    assert zero.vectors == () and zero.dim == 0 and zero == SubspaceBasis(4, ())
    # the subspaces built from an elimination run no second one
    alg = build_example42().algebra
    full = alg.full_space()
    u = subspace_from_spanning(6, (la.unit_vec(6, 1), la.unit_vec(6, 2)))
    eliminations = []
    real = la.rational_span

    def counted(rows, nc):
        eliminations.append(nc)
        return real(rows, nc)

    monkeypatch.setattr(la, "rational_span", counted)
    derived = bracket_spans(alg, full, full)
    derived.intersect(u)
    assert eliminations == []
    subspace_from_spanning(6, derived.vectors + u.vectors)
    assert eliminations == [6]
    with pytest.raises(ValueError, match="ambient dimension"):
        subspace_from_spanning(3, ((1, 2),))


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
        assert tuple(s.vectors for s in rep.lower_central_series) == lower
        assert rep.is_solvable == (len(derived[-1]) == 0)
        assert rep.is_nilpotent == (len(lower[-1]) == 0)
        assert alg.series_report is alg.series_report  # computed once
        assert alg.series_report == rep
        assert rep.derived.vectors == derived_subalgebra(alg).vectors
        assert center(alg).vectors == fraction_center(alg)
        full = alg.full_space()
        subs = [full, rep.derived, center(alg)]
        subs += [subspace_from_spanning(n, random_vectors(rng, rng.randint(1, 3), n)) for _ in range(2)]
        for u in subs:
            for v in subs:
                assert bracket_spans(alg, u, v).vectors == fraction_bracket_spans(
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
    real = la.sparse_kernel
    tries = []

    def counted(rows, nc):
        tries[-1] += 1
        return real(rows, nc)

    monkeypatch.setattr(la, "sparse_kernel", counted)
    cases = 0
    for alg in algs:
        rep = alg.series_report
        if not rep.is_solvable or rep.is_nilpotent:
            continue
        cases += 1
        tries.append(0)
        assert nilradical(alg).vectors == reference_nilradical_vectors(alg)
    assert cases >= 250
    # t = 1 is not generic for some of them, and each retry is covered
    assert max(tries) >= 2 and sum(t > 1 for t in tries) >= 5


def test_nilradical_retries_are_bounded(monkeypatch):
    alg = random_semidirect(random.Random(8110))
    n, d = alg.dim, alg.dim - alg.series_report.derived.dim
    assert d >= 2 and not alg.series_report.is_nilpotent
    # every candidate is all of g: it contains [g, g] and is an ideal,
    # but is not nilpotent, so every t up to the bound is tried
    calls = []

    def whole(rows, nc):
        calls.append(nc)
        return la.identity(nc)

    monkeypatch.setattr(la, "sparse_kernel", whole)
    with pytest.raises(CertificateError, match="not a nilpotent ideal"):
        nilradical(alg)
    assert len(calls) == (d - 1) * n * (n + 1) // 2 + 1


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
        # the integer kernel (L, w) as the rational matrices w / L
        got = tuple(
            tuple(tuple(Fraction(w.get(i * n + j, 0), l) for j in range(n)) for i in range(n))
            for l, w in _commutant_of_adjoint(alg)
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
        pivots = _congruence_pivots(form)
        assert len(pivots) == form.dim
        assert max((abs(d).bit_length() for d in pivots), default=0) <= pivot_bits_bound(form)
        m = form.matrix
        seen_zero_diag += form.dim > 1 and all(m[i][i] == 0 for i in range(form.dim)) and not form.is_zero()
        seen_radical += sig.r > 0
    assert seen_zero_diag >= 30 and seen_radical >= 50


def test_signature_pivots_stay_small():
    # with the content divided out after every step, the pivots of
    # 2 I are 2, 1, 1, ...; without it they would square at every step
    form = SymBilinearForm(naive_mat_scale(2, la.identity(12)))
    assert _congruence_pivots(form) == [2] + [1] * 11
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
    pivots = _congruence_pivots(form)
    assert max((abs(d).bit_length() for d in pivots), default=0) <= pivot_bits_bound(form)


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
