"""Shared builders for randomized test families.

Everything is seeded explicitly so failures reproduce.
"""

from __future__ import annotations

import gzip
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from metriclie import forms
from metriclie import linalg as la
from metriclie.core import (
    LieAlgebra,
    SubspaceBasis,
    _int_rows_of,
    ad,
    derived_subalgebra,
    jordan_chevalley,
    subspace_from_spanning,
)
from metriclie.documents import document_to_algebra, parse_document
from metriclie.einstein import EigenvalueData
from metriclie.forms import MetricLieAlgebra, SymBilinearForm
from metriclie.obstruction import RelationBasis, obstruction_verdict
from metriclie.quadratic import Quadratic, field_of, irreducible_factors, same_field
from metriclie.reduction import (
    build_ab,
    build_example42,
    iterated_double_extension,
    random_double_extension,
)


def rand_fraction(rng: random.Random, bound: int = 3, max_denominator: int = 3) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, max_denominator))


def rand_matrix(rng: random.Random, n: int, bound: int = 3) -> la.Mat:
    return tuple(
        tuple(rand_fraction(rng, bound) for _ in range(n)) for _ in range(n)
    )


def random_abelian_base(rng: random.Random, max_dim: int = 6):
    n = rng.randint(1, max_dim)
    s = rng.randint(0, n)
    return build_ab(n, s)


def random_solvable_metric(rng: random.Random, max_base_dim: int = 5, max_steps: int = 2):
    """A random solvable metric Lie algebra built by extending an
    abelian base one or two times."""
    base = random_abelian_base(rng, max_base_dim)
    steps = rng.randint(1, max_steps)
    return iterated_double_extension(rng, base, steps)


POOL = Path(__file__).parents[1] / "perfbench" / "pool" / "reduce.json.gz"


def pool_metrics(step=5):
    """Every step-th reduce-pool document of each dimension, and example42."""
    with gzip.open(POOL) as fh:
        pool = json.load(fh)
    by_dim = {}
    for entry in pool:
        by_dim.setdefault(entry["dim"], []).append(entry)
    out = [build_example42()]
    for _, entries in sorted(by_dim.items()):
        for entry in entries[::step]:
            alg, form, _ = document_to_algebra(parse_document(entry["doc"]))
            out.append(MetricLieAlgebra(alg, form))
    return out


def random_vector(rng: random.Random, n: int, bound: int = 3) -> la.Vec:
    v = tuple(rand_fraction(rng, bound) for _ in range(n))
    if la.is_zero_vec(v):
        return la.unit_vec(n, rng.randrange(n))
    return v


def naive_zeros(r: int, c: int) -> la.Mat:
    return tuple((la.ZERO,) * c for _ in range(r))


def naive_identity(n: int) -> la.Mat:
    return tuple(la.unit_vec(n, i) for i in range(n))


def naive_mat_add(a, b) -> la.Mat:
    return tuple(la.vec_add(r, s) for r, s in zip(a, b))


def naive_mat_scale(c, a) -> la.Mat:
    c = la.frac(c)
    return tuple(tuple(c * x for x in r) for r in a)


# ---------------------------------------------------------------------------
# dense Fraction elimination: the reference for every ``la`` elimination
# ---------------------------------------------------------------------------


def naive_rref(a):
    """Dense Gauss-Jordan elimination, every entry updated."""
    rows = [list(r) for r in a]
    nr, nc = len(rows), (len(rows[0]) if rows else 0)
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(x) for x in rows), tuple(pivots)


def naive_rank(a):
    return len(naive_rref(a)[1])


def naive_row_space_basis(vectors):
    """The non-zero rows of the RREF."""
    if not vectors:
        return ()
    reduced, pivots = naive_rref(tuple(vectors))
    return reduced[: len(pivots)]


def naive_kernel(a):
    """One null vector per free column of the RREF; a dense matrix
    without rows has no column count, and its kernel is ()."""
    nc = len(a[0]) if a else 0
    reduced, pivots = naive_rref(a)
    out = []
    for fc in (c for c in range(nc) if c not in pivots):
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][fc]
        out.append(tuple(v))
    return tuple(out)


def naive_solve_lex(a, b):
    """The solution of a x = b with free variables zero, read off the
    RREF of [a | b]; None if the last column is a pivot."""
    nc = len(a[0]) if a else 0
    reduced, pivots = naive_rref(tuple(tuple(row) + (bi,) for row, bi in zip(a, b)))
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for i, pc in enumerate(pivots):
        x[pc] = reduced[i][nc]
    return tuple(x)


def rational_solve_lex(a, b):
    """``la.int_solve_lex`` of the rational system a x = b, read as
    rationals: the integer rows of [a | b] in, the solution row out."""
    nc = len(a[0]) if a else 0
    _, rows = la.to_int_rows(tuple(row) + (bi,) for row, bi in zip(a, b))
    sol = la.int_solve_lex(nc, map(dict, rows))
    return None if sol is None else la.mat_over(la.dense((sol[1],), nc), sol[0])[0]


def naive_inverse(a):
    """The right half of the RREF of [a | I]; None if a is singular."""
    n = len(a)
    reduced, pivots = naive_rref(tuple(tuple(row) + la.unit_vec(n, i) for i, row in enumerate(a)))
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in reduced)


def naive_in_span(vectors, v):
    if not any(v):
        return True
    return bool(vectors) and naive_rank(tuple(vectors)) == naive_rank(tuple(vectors) + (v,))


def naive_mat_pow(a, k):
    """a^k as k - 1 dense products; the identity for k = 0."""
    out = naive_identity(len(a))
    for _ in range(k):
        out = la.mat_mul(out, a)
    return out


def naive_trace(a):
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def reference_charpoly(a):
    """The dense ``Fraction`` Faddeev-LeVerrier recursion: M_0 = I,
    c_k = -tr(A M_(k-1)) / k, M_k = A M_(k-1) + c_k I. The reference for
    the integer ``la.charpoly``."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("characteristic polynomial of non-square matrix")
    coeffs = [Fraction(1)]
    m = naive_identity(n)
    for k in range(1, n + 1):
        am = la.mat_mul(a, m)
        ck = -naive_trace(am) / k
        coeffs.append(ck)
        m = naive_mat_add(am, naive_mat_scale(ck, naive_identity(n)))
    return tuple(coeffs)


def reference_poly_eval_mat(p, a):
    """p(A) by dense ``Fraction`` Horner steps. The reference for the
    integer ``la.poly_eval_mat``."""
    n = len(a)
    out = naive_zeros(n, n)
    for c in p:
        out = la.mat_mul(out, a) if not la.is_zero_mat(out) else out
        if c != 0:
            out = naive_mat_add(out, naive_mat_scale(c, naive_identity(n)))
    return out


def naive_poly_mul(a, b):
    """The product of two polynomials in descending coefficient order."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return la.poly_trim(out)


def reference_skew_residual(a, b):
    """a^T b + b a as two dense Fraction products: zero exactly when a
    is skew for the bilinear form b. The reference for the integer
    skewness kernel ``forms._skew_pairing``."""
    return naive_mat_add(la.mat_mul(la.transpose(a), b), la.mat_mul(b, a))


@pytest.fixture
def rng():
    return random.Random(20260823)


def reference_random_skew_map(rng, form, bound=2, max_denominator=4):
    """The Fraction draw of random_skew_map before it drew in integers:
    K built entry by entry as Fractions, then B^{-1} K as a product."""
    n = form.dim
    k = [[la.ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.randint(1, max_denominator)
            c = Fraction(rng.randint(-bound * den, bound * den), den)
            k[i][j] = c
            k[j][i] = -c
    return la.mat_mul(form.inverse, tuple(tuple(r) for r in k))


def reference_random_skew_numerators(rng, form, bound=2, max_denominator=4):
    """random_skew_numerators as it drew on ``rng.randint``, before it
    drew on ``getrandbits``: the reference that pins the random stream."""
    n = form.dim
    lcm = math.lcm(*range(1, max_denominator + 1))
    k = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.randint(1, max_denominator)
            c = rng.randint(-bound * den, bound * den) * (lcm // den)
            k[i][j] = c
            k[j][i] = -c
    m, inv_rows = form.int_inverse
    out = []
    for inv_row in inv_rows:
        acc = [0] * n
        for r, x in inv_row:
            for q, y in enumerate(k[r]):
                acc[q] += x * y
        out.append(acc)
    return lcm * m, out


def reference_killing_sums(alg):
    """killing_sums as the dense trace loop it replaced: for each pair
    j >= i, tr(A_i A_j) summed over every entry of A_i = L ad(b_i)
    against the entries of A_j, read on ``int_ad``."""
    n = alg.dim
    den, _ = alg.int_table
    ads = alg.int_ad
    k = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ad_j = ads[j]
            k[i][j] = k[j][i] = sum(
                t * ad_j[m].get(l, 0) for l, row in enumerate(ads[i]) for m, t in row.items()
            )
    return den * den, k


def draw_forms():
    """Diagonal ±1 forms of dimension 1-8, the non-diagonal forms of
    example42 and of a hyperbolic plane, and forms with non-unit and
    non-integer entries."""
    forms = [build_ab(n, s).form for n in range(1, 9) for s in range(n + 1)]
    forms.append(build_example42().form)
    forms.append(SymBilinearForm(((0, 1), (1, 0))))
    forms.append(SymBilinearForm(((2, 0), (0, -3))))
    half = Fraction(1, 2)
    forms.append(SymBilinearForm(((half, 1, 0), (1, 0, 0), (0, 0, Fraction(-5, 3)))))
    return forms


# ---------------------------------------------------------------------------
# Fraction subspaces: the reference for ``SubspaceBasis`` on integer rows
# and for the rescaling ``la.to_int_rows`` that replaced ``la.int_row``
# ---------------------------------------------------------------------------


def reference_int_row(v):
    """v scaled by the least common denominator of its entries, as the
    sparse integer row {column: non-zero value}; it spans the same line."""
    den = math.lcm(*(x.denominator for x in v if x))
    return {c: x.numerator * (den // x.denominator) for c, x in enumerate(v) if x}


def reference_rational_span(rows, nc):
    """The ``la.IntSpan`` of rational rows, each fed as its
    ``reference_int_row``."""
    span = la.IntSpan(nc)
    for r in rows:
        span.add(reference_int_row(r))
    return span


def reference_span_basis(span):
    """The RREF basis of an ``la.IntSpan`` as Fraction vectors, by
    leading column."""
    out = []
    for lead in sorted(span.pivots):
        r = span.pivots[lead]
        v = [la.ZERO] * span.nc
        for c, x in r.items():
            v[c] = Fraction(x, r[lead])
        out.append(tuple(v))
    return tuple(out)


def reference_sparse_kernel(rows, nc):
    """The kernel basis of sparse integer rows, one Fraction vector per
    free column (e_fc minus the RREF entries in column fc)."""
    span = la.IntSpan(nc)
    for row in rows:
        span.add(row)
    basis = []
    for fc in range(nc):
        if fc in span.pivots:
            continue
        v = [la.ZERO] * nc
        v[fc] = Fraction(1)
        for pc, r in span.pivots.items():
            if fc in r:
                v[pc] = Fraction(-r[fc], r[pc])
        basis.append(tuple(v))
    return tuple(basis)


@dataclass(frozen=True)
class ReferenceSubspaceBasis:
    """The ``SubspaceBasis`` that held its ``Fraction`` vectors, with
    equality and hash on them."""

    ambient_dim: int
    vectors: tuple

    def __post_init__(self):
        vecs = tuple(la.vec(v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if any(len(v) != self.ambient_dim for v in vecs):
            raise ValueError("vector length does not match ambient dimension")
        if self.int_span.dim != len(vecs):
            raise ValueError("basis vectors are linearly dependent")

    @property
    def int_span(self):
        return reference_rational_span(self.vectors, self.ambient_dim)

    @property
    def dim(self):
        return len(self.vectors)

    def contains(self, v):
        return not self.int_span.reduce(reference_int_row(la.vec(v)))

    def intersect(self, other):
        meet = la.intersect_spans(self.int_span, other.int_span)
        return ReferenceSubspaceBasis(self.ambient_dim, reference_span_basis(meet))


def reference_subspace(n, vectors):
    """``subspace_from_spanning`` on ``Fraction`` vectors: the RREF basis."""
    return ReferenceSubspaceBasis(n, reference_span_basis(reference_rational_span(vectors, n)))


# ---------------------------------------------------------------------------
# skew derivations in the n^2 entries of D: the reference for the solve on
# the invariant 3-form, whose basis must be this one row for row
# ---------------------------------------------------------------------------


def reference_skew_derivations(base):
    """The skew derivations as the ``SubspaceBasis.kernel`` of sparse
    integer rows in the entries d_pq at column p n + q, of the skewness
    of D for the form and of the derivation identity: identity on the
    free columns of that system."""
    n = base.dim
    _, b_rows = base.form.int_rows
    _, table = base.algebra.int_table
    eqs = []

    def add(row, col, x):
        row[col] = row.get(col, 0) + x

    # skewness: sum_p d_{pk} B_{pl} + B_{kp} d_{pl} = 0; symmetric in
    # (k, l), so k <= l only
    for k in range(n):
        for l in range(k, n):
            row = {}
            for p, x in b_rows[l]:
                add(row, p * n + k, x)
            for p, x in b_rows[k]:
                add(row, p * n + l, x)
            eqs.append(row)
    # derivation: d([e_i,e_j]) = [d e_i, e_j] + [e_i, d e_j], component k
    for i in range(n):
        for j in range(i + 1, n):
            rows = {}
            for mth, c in table[i][j]:
                for k in range(n):
                    add(rows.setdefault(k, {}), k * n + mth, c)
            for p in range(n):
                for k, c in table[p][j]:
                    add(rows.setdefault(k, {}), p * n + i, -c)
                for k, c in table[i][p]:
                    add(rows.setdefault(k, {}), p * n + j, -c)
            eqs.extend(rows.values())
    return SubspaceBasis.kernel(n * n, eqs)


# ---------------------------------------------------------------------------
# Fraction structure-constant code: the reference for ``bracket`` and the
# centroid system, which now run on the integer structure table
# ---------------------------------------------------------------------------


def naive_basis_bracket(alg, i, j):
    """[b_i, b_j] read off the rational ``brackets`` view."""
    if i < j:
        return alg.brackets.get((i, j), la.zeros_vec(alg.dim))
    if i > j:
        return la.vec_scale(-1, alg.brackets.get((j, i), la.zeros_vec(alg.dim)))
    return la.zeros_vec(alg.dim)


def reference_bracket(alg, x, y):
    """sum_ij x_i y_j [b_i, b_j] on the Fraction ``brackets`` dict."""
    out = [la.ZERO] * alg.dim
    y_support = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in y_support:
            if i < j:
                coeffs = alg.brackets.get((i, j))
                c = xi * yj
            elif i > j:
                coeffs = alg.brackets.get((j, i))
                c = -xi * yj
            else:
                continue
            if coeffs is None:
                continue
            for k, ck in enumerate(coeffs):
                if ck:
                    out[k] += c * ck
    return tuple(out)


def naive_subalgebra_on(alg, sub):
    """The bracket restricted to a subspace closed under it, on the
    basis ``sub.vectors``: each coordinate vector solved densely."""
    k = sub.dim
    brackets = {}
    for i in range(k):
        for j in range(i + 1, k):
            w = alg.bracket(sub.vectors[i], sub.vectors[j])
            brackets[(i, j)] = naive_solve_lex(la.transpose(sub.vectors), w)
    return LieAlgebra(k, tuple(f"u{i}" for i in range(k)), brackets)


def naive_commutant(alg):
    """The centroid {M : M ad(x) = ad(x) M}, M flattened row by row, from
    its n^3 commutation equations, the reference for
    ``semisimple._centroid``: the kernel of the integer rows
    (M A - A M)_kl for A = L ad(b_i), n^2 unknowns."""
    n = alg.dim
    _, rows = alg.int_table
    eqs = []
    for row_i, ad_i in zip(rows, alg.int_ad):
        # (M A - A M)_kl = sum_p M_kp A_pl - A_kp M_pl; column l of A is
        # rows[i][l] and row k of A is int_ad[i][k]
        for k in range(n):
            for l in range(n):
                eq = {k * n + p: t for p, t in row_i[l]}
                for p, t in ad_i[k].items():
                    eq[p * n + l] = eq.get(p * n + l, 0) - t
                eqs.append(eq)
    return SubspaceBasis.kernel(n * n, eqs)


def reference_commutant_of_adjoint(alg):
    """{M : M ad(x) = ad(x) M} from dense Fraction rows of the ``ad``
    matrices, n^2 rows of width n^2 per basis vector."""
    n = alg.dim
    ads = [ad(alg, la.unit_vec(n, i)).matrix for i in range(n)]
    rows = []
    for a in ads:
        # (M a - a M)_{kl} = sum_p M_{kp} a_{pl} - a_{kp} M_{pl}
        for k in range(n):
            for l in range(n):
                row = [la.ZERO] * (n * n)
                for p in range(n):
                    row[k * n + p] += a[p][l]
                    row[p * n + l] -= a[k][p]
                rows.append(tuple(row))
    sols = la.kernel(tuple(rows))
    return tuple(
        tuple(tuple(s[i * n + j] for j in range(n)) for i in range(n)) for s in sols
    )


def reference_associative_closure(generators):
    """Basis of the (non-unital) associative matrix algebra generated by
    the given integer matrices: the span of the words in the generators,
    each new element multiplied on the left by the kept generators until
    no product enlarges the span, decided on the flattened matrices by
    ``la.IntSpan``. Its trace rows are the reference for the nilradical
    from the powers of one generic element."""
    if not generators:
        return []
    n = len(generators[0])

    def int_mul(a, b):
        b_support = [[(j, y) for j, y in enumerate(row) if y] for row in b]
        out = []
        for r in a:
            acc = [0] * n
            for x, support in zip(r, b_support):
                if x:
                    for j, y in support:
                        acc[j] += x * y
            out.append(acc)
        return out

    basis = []
    tracker = la.IntSpan(n * n)

    def try_add(mm):
        flat = {p * n + q: x for p, row in enumerate(mm) for q, x in enumerate(row) if x}
        if not tracker.add(flat):
            return False
        basis.append(mm)
        return True

    for g in generators:
        try_add(g)
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


# ---------------------------------------------------------------------------
# dense Fraction form code: the reference for the integer Gram kernel
# ``SymBilinearForm.int_gram`` and for ``reduction.change_basis`` on the integer table
# ---------------------------------------------------------------------------


def apply_form(form, u, v):
    """<u, v> for rational vectors, on the integer Gram kernel: the body
    of the former ``SymBilinearForm.apply``, which no library code read."""
    den, (left, right) = _int_rows_of(form.dim, (u, v))
    return Fraction(form.int_gram((left,), (right,))[0][0], form.int_rows[0] * den * den)


def restrict_form(form, vectors):
    """The Gram form B(v_i, v_j) of rational vectors: the body of the
    former ``SymBilinearForm.restrict``."""
    return form.restrict_rows(*_int_rows_of(form.dim, vectors))


def reference_bilinear(b, u, v):
    """u^T B v as a dense Fraction product. A v of the wrong length
    raises ``ValueError``; a u of the wrong length is cut by ``zip``."""
    return sum((x * y for x, y in zip(u, la.mat_vec(b, v))), Fraction(0))


def reference_gram(form, vectors):
    """The Gram matrix B(v_i, v_j) entry by entry."""
    vecs = [la.vec(v) for v in vectors]
    return tuple(tuple(reference_bilinear(form.matrix, u, v) for v in vecs) for u in vecs)


def reference_diagonalize_symmetric(form):
    """The ``Fraction`` congruence diagonalization, the reference for the
    integer ``forms.diagonalize_symmetric``: pivot on the first vector
    with B(v, v) != 0, else add the second vector of the first pair with
    B(v_i, v_j) != 0 to the first; project the rest off the pivot."""
    b = form.matrix
    vecs = [la.unit_vec(form.dim, i) for i in range(form.dim)]
    out_vecs, out_diag = [], []
    while vecs:
        pivot = next((i for i, v in enumerate(vecs) if reference_bilinear(b, v, v) != 0), None)
        if pivot is None:
            pair = next(
                (
                    (i, j)
                    for i in range(len(vecs))
                    for j in range(i + 1, len(vecs))
                    if reference_bilinear(b, vecs[i], vecs[j]) != 0
                ),
                None,
            )
            if pair is None:
                # the remaining vectors span the radical
                out_vecs.extend(vecs)
                out_diag.extend([Fraction(0)] * len(vecs))
                break
            i, j = pair
            vecs[i] = la.vec_add(vecs[i], vecs[j])
            pivot = i
        v = vecs.pop(pivot)
        d = reference_bilinear(b, v, v)
        vecs = [la.vec_sub(u, la.vec_scale(reference_bilinear(b, u, v) / d, v)) for u in vecs]
        out_vecs.append(v)
        out_diag.append(d)
    return tuple(out_vecs), tuple(out_diag)


def reference_isotropic_vector(form):
    """``forms.isotropic_vector`` with its bounded search summing
    ``Fraction(c * c) * d_i`` on the rational diagonal."""
    n = form.dim
    _, rows = form.int_rows
    for i, row in enumerate(rows):
        if row and all(q != i for q, _ in row):  # B e_i != 0 = B_ii
            return la.unit_vec(n, i)
    basis, diag = forms.diagonalize_symmetric(form)
    for i in range(n):
        if diag[i] == 0:
            continue
        for j in range(i + 1, n):
            if diag[j] == 0 or (diag[i] > 0) == (diag[j] > 0):
                continue
            ratio = -diag[i] / diag[j]
            num, den = ratio.numerator, ratio.denominator
            rn, rd = forms._isqrt_exact(num), forms._isqrt_exact(den)
            if rn is not None and rd is not None:
                # d_i + ratio d_j = 0 with ratio = (rn/rd)^2
                return la.vec_add(
                    la.vec_scale(rd, basis[i]), la.vec_scale(rn, basis[j])
                )
    nonzero = [(basis[i], diag[i]) for i in range(n) if diag[i] != 0]
    for size in (3, 4):
        if len(nonzero) < size:
            break
        for combo in itertools.combinations(range(len(nonzero)), size):
            for coeffs in itertools.product(range(0, 4), repeat=size):
                if all(c == 0 for c in coeffs):
                    continue
                val = sum(
                    Fraction(c * c) * nonzero[idx][1]
                    for c, idx in zip(coeffs, combo)
                )
                if val == 0:
                    return forms._lift(coeffs, [nonzero[idx][0] for idx in combo], n)
    return None


def reference_is_totally_isotropic(form, sub):
    for u in sub.vectors:
        for v in sub.vectors:
            if reference_bilinear(form.matrix, u, v) != 0:
                return False, (u, v)
    return True, None


def reference_orthogonal_complement(form, sub):
    """The kernel of the dense rows B u."""
    if sub.dim == 0:
        return naive_identity(form.dim)
    return la.kernel(tuple(la.mat_vec(form.matrix, u) for u in sub.vectors))


def reference_pairing_duals(form, u):
    """The pairing system [B u_j | d_ij] on dense Fraction rows, re-solved
    for each dual with the duals found before as rows [B v*_j | 0]."""
    k = len(u)
    duals = []
    for i in range(k):
        rows = [la.mat_vec(form.matrix, uj) for uj in u]
        rows += [la.mat_vec(form.matrix, d) for d in duals]
        rhs = la.vec([1 if j == i else 0 for j in range(k)] + [0] * len(duals))
        y = naive_solve_lex(tuple(rows), rhs)
        if y is None:
            return None
        y = la.vec_sub(y, la.vec_scale(reference_bilinear(form.matrix, y, y) / 2, u[i]))
        duals.append(y)
    return tuple(duals)


def reference_change_basis(m, columns, names):
    """Each bracket of the new basis as a Fraction bracket mapped by the
    dense T^{-1}, and the Gram matrix entry by entry."""
    cols = tuple(la.vec(c) for c in columns)
    n = m.dim
    t_inv = la.inverse(la.transpose(cols))
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            brackets[(i, j)] = la.mat_vec(t_inv, reference_bracket(m.algebra, cols[i], cols[j]))
    gram = SymBilinearForm(reference_gram(m.form, cols))
    return MetricLieAlgebra(LieAlgebra(n, tuple(names), brackets), gram)


# ---------------------------------------------------------------------------
# the Fraction Q[x] layer: the reference for linalg's integer polynomials
# (euclidean remainders on monic ``Fraction`` tuples)
# ---------------------------------------------------------------------------


def naive_poly_deg(p):
    p = la.poly_trim(p)
    return len(p) - 1 if any(p) else -1


def naive_poly_monic(p):
    p = la.poly_trim(p)
    return tuple(c / p[0] for c in p) if any(p) else p


def naive_poly_divmod(num, den):
    num = list(la.poly_trim(num))
    den = la.poly_trim(den)
    if not any(den):
        raise ZeroDivisionError("polynomial division by zero")
    dd = len(den) - 1
    q = [la.ZERO] * max(len(num) - dd, 1)
    while len(num) - 1 >= dd and any(num):
        shift = len(num) - 1 - dd
        coeff = num[0] / den[0]
        q[len(q) - 1 - shift] = coeff
        for i, dc in enumerate(den):
            num[i] -= coeff * dc
        num.pop(0)
        if not num:
            num = [la.ZERO]
    return la.poly_trim(q), la.poly_trim(num)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = (la.ZERO,) * (n - len(a)) + tuple(a)
    b = (la.ZERO,) * (n - len(b)) + tuple(b)
    return la.poly_trim(tuple(x - y for x, y in zip(a, b)))


def _poly_gcdex(a, b):
    """(s, t, g) with s a + t b = g, the monic gcd of a and b (not both
    zero), by the extended Euclidean algorithm."""
    r0, r1 = la.poly_trim(a), la.poly_trim(b)
    s0, s1, t0, t1 = (la.ONE,), (la.ZERO,), (la.ZERO,), (la.ONE,)
    while any(r1):
        q, r = naive_poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, la.poly_mul(q, s1))
        t0, t1 = t1, _poly_sub(t0, la.poly_mul(q, t1))
    lead = r0[0]
    return tuple(c / lead for c in s0), tuple(c / lead for c in t0), naive_poly_monic(r0)


def reference_poly_gcd(a, b):
    a, b = la.poly_trim(a), la.poly_trim(b)
    while any(b):
        _, r = naive_poly_divmod(a, b)
        a, b = b, r
    return naive_poly_monic(a)


def reference_poly_squarefree_part(p):
    g = reference_poly_gcd(p, la.poly_deriv(p))
    q, r = naive_poly_divmod(p, g)
    assert not any(r)
    return naive_poly_monic(q)


def reference_graeffe_fraction(p):
    """prod (y - z^2) over the roots z of the monic p, as (-1)^n (E(y)^2
    - y O(y)^2) for p(x) = E(x^2) + x O(x^2), on ``Fraction``s."""
    p = la.poly_trim(p)
    ascending = p[::-1]
    even = ascending[0::2][::-1]
    odd = ascending[1::2][::-1] or (la.ZERO,)
    g = _poly_sub(la.poly_mul(even, even), la.poly_mul(odd, odd) + (la.ZERO,))
    return tuple(-c for c in g) if (len(p) - 1) % 2 else g


def reference_sturm_sequence(q):
    """q, q', -rem(q, q'), ... over Q by euclidean remainders."""
    seq = [q]
    r = la.poly_deriv(q)
    while any(r):
        seq.append(r)
        r = tuple(-c for c in naive_poly_divmod(seq[-2], seq[-1])[1])
    return seq


def reference_poly_sturm_counts(p):
    """(negative, positive, real) distinct real roots of p by the Sturm
    sequence of its monic square-free part, a root at 0 divided out."""

    def changes(values):
        signs = [x > 0 for x in values if x]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    q = reference_poly_squarefree_part(p)
    at_zero = len(q) > 1 and q[-1] == 0
    seq = reference_sturm_sequence(q[:-1] if at_zero else q)
    at_neg_inf = changes(s[0] if len(s) % 2 else -s[0] for s in seq)
    at_origin = changes(s[-1] for s in seq)
    at_pos_inf = changes(s[0] for s in seq)
    negative, positive = at_neg_inf - at_origin, at_origin - at_pos_inf
    return negative, positive, negative + positive + at_zero


def reference_poly_squarefree_decomposition(p):
    """Yun's decomposition over Q on monic ``Fraction`` polynomials."""
    p = naive_poly_monic(p)
    dp = la.poly_deriv(p)
    a = reference_poly_gcd(p, dp)
    b = naive_poly_divmod(p, a)[0]
    d = _poly_sub(naive_poly_divmod(dp, a)[0], la.poly_deriv(b))
    out = []
    k = 1
    while len(b) > 1:
        a = reference_poly_gcd(b, d)
        b = naive_poly_divmod(b, a)[0]
        d = _poly_sub(naive_poly_divmod(d, a)[0], la.poly_deriv(b))
        if len(a) > 1:
            out.append((a, k))
        k += 1
    return out


def reference_poly_factor(p):
    """``la.poly_factor`` on the monic ``Fraction`` parts of
    ``reference_poly_squarefree_decomposition``, each rescaled to the
    monic integer S(y) = D^m s(y / D) by its common denominator D."""
    out = []
    for s, k in reference_poly_squarefree_decomposition(p):
        if s[-1] == 0:
            out.append(((la.ONE, la.ZERO), k))
            s = s[:-1]
        den = math.lcm(*(c.denominator for c in s))
        rest = [int(c * den**i) for i, c in enumerate(s)]
        pieces = []
        if len(rest) == 3:
            t = rest[1] ** 2 - 4 * rest[2]
            root = math.isqrt(t) if t >= 0 else -1
            roots = [(-rest[1] - root) // 2, (-rest[1] + root) // 2] if root * root == t else []
        else:
            roots = la._integer_roots(rest) if len(rest) > 1 else []
        for r in roots or ():
            rest = la._int_divmod(rest, [1, -r])[0]
            pieces.append([1, -r])
        while roots is not None and len(rest) > 4:
            quad = la._quadratic_factor(rest)
            if quad is None:
                break
            rest = la._int_divmod(rest, quad)[0]
            pieces.append(quad)
        if len(rest) > 1:
            pieces.append(rest)
        out.extend((tuple(Fraction(c, den**i) for i, c in enumerate(f)), k) for f in pieces)
    return out


# ---------------------------------------------------------------------------
# the sympy spectrum code: the reference for the owned Q[x] / Q(sqrt d)
# layer (linalg's polynomial functions, quadratic, obstruction._decide)
# ---------------------------------------------------------------------------


def to_sympy_poly(p):
    """A ``la.Poly`` as a ``sympy.Poly`` over QQ in the symbol x."""
    import sympy as sp

    return sp.Poly([sp.Rational(c.numerator, c.denominator) for c in p], sp.Symbol("x"), domain="QQ")


def from_sympy_poly(p):
    """The coefficients of a ``sympy.Poly`` as a ``la.Poly``."""
    return tuple(Fraction(int(c.p), int(c.q)) for c in p.all_coeffs())


def reference_graeffe(p):
    """prod (y - z^2) over the roots z of the monic sympy Poly p, as
    (-1)^n (E(y)^2 - y O(y)^2) for p(x) = E(x^2) + x O(x^2)."""
    import sympy as sp

    x = p.gen
    ascending = p.all_coeffs()[::-1]
    even = sp.Poly(ascending[0::2][::-1], x, domain="QQ")
    odd = sp.Poly(ascending[1::2][::-1] or [0], x, domain="QQ")
    g = even**2 - sp.Poly(x, x, domain="QQ") * odd**2
    return -g if p.degree() % 2 else g


def reference_has_root(p, sign):
    """Whether the sympy Poly p has a real root of the given sign, by
    sympy's Sturm count on its square-free part."""
    q = p.sqf_part()
    at_zero = 1 if q.all_coeffs()[-1] == 0 else 0
    closed = q.count_roots(0, None) if sign > 0 else q.count_roots(None, 0)
    return closed - at_zero > 0


def reference_all_roots_real(p):
    q = p.sqf_part()
    return q.count_roots() == q.degree()


def reference_decide(p, n):
    """``obstruction._decide`` on a monic sympy Poly, with sympy's
    Graeffe transform, composition, gcd and root counts."""
    import sympy as sp

    from metriclie.errors import CertificateError, PreconditionError

    c = list(from_sympy_poly(p)) + [Fraction(0)] * 2
    checks = {"non_nilpotent": any(c[1:])}
    if not checks["non_nilpotent"]:
        return "nilpotent", checks
    residual = c[1] ** 2 - 2 * c[2]
    if residual != 0:
        raise PreconditionError(f"eigenvalue trace identity violated (residual {residual})")
    checks["trace_identity"] = True
    if n >= 6:
        return "out_of_scope_n_gt_5", checks
    checks["closed_under_negation"] = not any(c[1 : p.degree() + 1 : 2])
    if not checks["closed_under_negation"]:
        raise CertificateError("spectrum not closed under negation; no certified case applies")
    x = p.gen
    squares = reference_graeffe(p)
    if reference_has_root(reference_graeffe(squares), -1):
        checks["real_part_squared_equals_imaginary_part_squared"] = True
        tag = "case1_nonzero_real_part"
    elif reference_all_roots_real(squares) and reference_has_root(
        squares.gcd(squares.compose(sp.Poly(-x, x, domain="QQ"))), 1
    ):
        checks["real_eigenvalue_squared_equals_rotation_squared"] = True
        tag = "case2_imaginary_pair"
    else:
        raise CertificateError("spectrum matches no certified case")
    checks["exp_pattern_power_i_closed"] = True
    return tag, checks


def reference_factor_list(p):
    """sympy's ``factor_list`` of a ``la.Poly``: its monic irreducible
    factors and multiplicities, in sympy's order."""
    return [(from_sympy_poly(f.monic()), k) for f, k in to_sympy_poly(p).factor_list()[1]]


def random_rational_poly(rng: random.Random, max_degree: int = 6):
    """A monic rational polynomial of degree <= max_degree: a product of
    random linear, quadratic and cubic factors, some repeated, or one
    with random coefficients throughout."""
    def coeff():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    if rng.random() < 0.25:
        return (Fraction(1),) + tuple(coeff() for _ in range(rng.randint(0, max_degree)))
    p = (Fraction(1),)
    while True:
        f = (Fraction(1),) + tuple(coeff() for _ in range(rng.choice((1, 1, 2, 2, 3))))
        g = f
        while rng.random() < 0.3:
            g = la.poly_mul(g, f)
        if len(p) + len(g) - 2 > max_degree:
            return p
        p = la.poly_mul(p, g)


# ---------------------------------------------------------------------------
# the mpmath interval probe: the reference for the fixed-point probe
# ---------------------------------------------------------------------------


def reference_probe(boxes, t, precision_bits):
    """The coefficient intervals of prod (X - e^(t lambda)) for the
    eigenvalue boxes, in mpmath's interval context at precision_bits
    (relative, mpmath's meaning), and whether they exclude integrality.
    Each interval is ((re_lo, re_hi), (im_lo, im_hi)) with exact
    ``Fraction`` endpoints, and the integer test is decided on those."""
    from mpmath import iv
    from mpmath.libmp import to_rational

    def interval(lo, hi):
        # exact integer endpoints divided in interval arithmetic keep the
        # outward rounding certified
        lo_iv = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
        hi_iv = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
        return iv.mpf([lo_iv.a, hi_iv.b])

    def endpoints(x):
        return tuple(Fraction(*to_rational(e)) for e in x._mpi_)

    old_prec = iv.prec
    iv.prec = precision_bits
    try:
        tv = interval(t, t)
        coeffs = [(iv.mpf(1), iv.mpf(0))]
        for (rl, rh), (il, ih) in boxes:
            scale = iv.exp(interval(rl, rh) * tv)
            y = interval(il, ih) * tv
            wr, wi = scale * iv.cos(y), scale * iv.sin(y)
            nxt = coeffs + [(iv.mpf(0), iv.mpf(0))]
            for i, (cr, ci) in enumerate(coeffs):
                ar, ai = nxt[i + 1]
                nxt[i + 1] = (ar - (cr * wr - ci * wi), ai - (cr * wi + ci * wr))
            coeffs = nxt
        out = [(endpoints(cr), endpoints(ci)) for cr, ci in coeffs]
    finally:
        iv.prec = old_prec
    excluded = any(
        math.floor(re_hi) < math.ceil(re_lo) or not im_lo <= 0 <= im_hi
        for (re_lo, re_hi), (im_lo, im_hi) in out
    )
    return excluded, out


# ---------------------------------------------------------------------------
# the Jordan-Chevalley restriction and the centroid idempotents: the
# references for the obstruction and the simple ideals read off one
# characteristic or minimal polynomial
# ---------------------------------------------------------------------------


def reference_restricted_obstruction(m, element):
    """``restricted_obstruction`` on the matrix of ad(a) restricted to the
    image of its Jordan-Chevalley semisimple part, read on the RREF basis
    of that image."""
    phi = ad(m.algebra, element)
    sigma = jordan_chevalley(phi).semisimple.matrix
    image = subspace_from_spanning(m.dim, la.transpose(sigma))
    # a vector of the image has its RREF coordinates at the pivot columns
    leads = sorted(image.int_span.pivots)
    if not leads:
        return obstruction_verdict(EigenvalueData())
    cols = []
    for v in image.vectors:
        w = phi(v)
        assert image.contains(w), "the image is not ad(a)-invariant"
        cols.append(tuple(w[p] for p in leads))
    return obstruction_verdict(la.transpose(tuple(cols)))


def reference_simple_ideals(alg):
    """``semisimple._simple_ideals`` by centroid idempotents: for each
    irreducible factor f of the minimal polynomial mu of a generic
    centroid element C, e = u (mu / f) with u (mu / f) = 1 mod f by
    extended Euclid, and the ideal is the column space of e(C)."""
    n = alg.dim
    commutant = naive_commutant(alg)
    den, rows = commutant.int_rows
    for attempt in range(1, 8):
        flat = [0] * (n * n)
        for i, w in enumerate(rows):
            c = (attempt * (i + 1)) % 11 + i
            for k, x in w:
                flat[k] += c * x
        generic = la.mat_over((flat[k : k + n] for k in range(0, n * n, n)), den)
        mu = la.minimal_polynomial(generic)
        if len(mu) - 1 == commutant.dim:
            break
    else:
        raise AssertionError("no generating element of the centroid")
    ideals = []
    for fac, mult in irreducible_factors(mu):
        assert mult == 1, "centroid minimal polynomial is not squarefree"
        cofactor, rem = naive_poly_divmod(mu, fac)
        assert not any(rem)
        u, _, gcd = _poly_gcdex(cofactor, fac)
        assert gcd == (la.ONE,), "centroid factors are not coprime"
        e = la.poly_eval_mat(la.poly_mul(u, cofactor), generic)
        assert la.mat_mul(e, e) == e, "centroid element is not idempotent"
        ideals.append(subspace_from_spanning(n, la.transpose(e)))
    return tuple(ideals)


def naive_qlinear_relations(values):
    """The reference for the owned path of
    ``obstruction.qlinear_relations``, on numbers of one field: the
    kernel of the ``Fraction`` coordinates, each relation and sum x^2
    evaluated in ``Quadratic`` arithmetic."""
    if not values:
        return RelationBasis((), 1, True)
    numbers = [x if isinstance(x, Quadratic) else Quadratic(x) for x in values]
    d = field_of(numbers)
    assert all(same_field(x.d, d) for x in numbers if x.v)
    relations = la.kernel(la.transpose(tuple(x.coords(d) for x in numbers)))
    for rel in relations:
        assert not sum((c * x for c, x in zip(rel, numbers)), Quadratic())
    quad = sum((x * x for x in numbers), Quadratic())
    return RelationBasis(relations, 1 if d == 1 else 2, not quad)


def naive_center(alg):
    """z(g) as ``center`` formed it before ``centralizer``: the kernel of
    all n^2 rows of ad, the rows of every L ad(b_i) in ``int_ad``."""
    return SubspaceBasis.kernel(alg.dim, (r for ad_i in alg.int_ad for r in ad_i))


def naive_centralizer(alg, sub, acting=None):
    """{x in sub : [y, x] = 0 for y in acting}: ``naive_center`` for
    acting = g, else the kernel of the stacked Fraction matrices ad(y)
    over the basis vectors y of acting, either one intersected with sub."""
    if acting is None:
        return naive_center(alg).intersect(sub)
    stacked = [row for y in acting.vectors for row in ad(alg, y).matrix]
    kernel = naive_kernel(tuple(stacked)) if stacked else naive_identity(alg.dim)
    return subspace_from_spanning(alg.dim, kernel).intersect(sub)


def naive_bracket_span(alg, u, v):
    """Basis of [u, v] from every Fraction bracket of the basis vectors."""
    return naive_row_space_basis([alg.bracket(x, y) for x in u for y in v])


def reference_reduction_line(alg):
    """The line ``complete_reduction`` took on a non-abelian algebra
    before it formed z(g) ∩ [g, g] as [g, g] ∩ [g, g]^⊥: the first RREF
    row of ``naive_center`` ∩ [g, g]."""
    den, rows = naive_center(alg).intersect(derived_subalgebra(alg)).int_rows
    return SubspaceBasis.from_rows(alg.dim, den, rows[:1])


def reference_nilinvariance_probe(m, seed, samples):
    """The random probe ``forms.nilinvariance`` replaced: skewness of the
    form for the nilpotent Jordan part of ad(y), for every basis y and
    ``samples`` random rational y. A failure is conclusive, a pass is
    evidence only. It returns (passed, witness), the witness (y, e_i, e_j)
    with <phi e_i, e_j> + <e_i, phi e_j> != 0 for phi = (ad y)_n."""
    alg, form = m.algebra, m.form
    n = alg.dim
    rng = random.Random(seed)
    candidates = list(naive_identity(n))
    candidates += [
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        for _ in range(samples)
    ]
    for y in candidates:
        phi_n = jordan_chevalley(ad(alg, y)).nilpotent.matrix
        _, _, witness = forms._map_pairing(phi_n, form)
        if witness is not None:
            return False, (y, *(la.unit_vec(n, i) for i in witness))
    return True, None


def _reference_rotation_boost(rotations, boost):
    """blockdiag(rot b for b in rotations, [[0, boost], [boost, 0]]) as
    a Fraction matrix: skew for diag(1, ..., 1, -1)."""
    n = 2 * len(rotations) + 2
    m = [[la.ZERO] * n for _ in range(n)]
    for i, b in enumerate(rotations):
        m[2 * i][2 * i + 1], m[2 * i + 1][2 * i] = Fraction(-b), Fraction(b)
    m[n - 2][n - 1] = m[n - 1][n - 2] = Fraction(boost)
    return tuple(map(tuple, m))


def reference_sharpness_search(dim_range, index_range, budget, seed=0):
    """``sharpness_search``'s loop as it was before two-step samples were
    filtered on tr(delta_2^2) and first steps memoised: every sample is
    drawn as a Fraction map (``reference_random_skew_map``) or through
    ``random_double_extension``, built fresh by ``build_ko1`` or
    ``random_double_extension`` and recorded by ``_record``, with no memo
    and no filter but the one-step trace test on the Fraction map."""
    from metriclie.einstein import SearchResult, _record
    from metriclie.reduction import build_ko1

    dim_lo, dim_hi = dim_range
    idx_lo, idx_hi = index_range
    rng = random.Random(seed)
    hits = []
    for step in range(budget):
        roll = rng.random()
        rec = None
        if dim_lo <= 6 <= dim_hi and idx_lo <= 2 <= idx_hi and roll < 0.003:
            b = rng.randint(1, 9)
            rec = _record(build_ko1(6, 2, _reference_rotation_boost((b,), b)), "rotation-boost dim 6")
        elif dim_lo <= 8 <= dim_hi and idx_lo <= 2 <= idx_hi and roll < 0.005:
            k = rng.randint(1, 3)
            delta = _reference_rotation_boost((3 * k, 4 * k), 5 * k)
            rec = _record(build_ko1(8, 2, delta), "rotation-boost dim 8")
        elif roll < 0.035:
            d = rng.randint(max(dim_lo, 5), dim_hi) if dim_hi >= 5 else 0
            one_step = [s for s in range(1, d) if idx_lo <= min(d - s, s) <= idx_hi]
            choices = [s for s in one_step if 2 <= s <= d - 3] if d else []
            if not choices:
                continue
            s = rng.choice(choices)
            g = random_double_extension(rng, build_ab(d - 4, s - 2))
            g = random_double_extension(rng, g)
            rec = _record(g, f"iterated-2 dim {d}")
        else:
            d = rng.randint(dim_lo, dim_hi)
            choices = [s for s in range(1, d) if idx_lo <= min(d - s, s) <= idx_hi]
            if not choices:
                continue
            s = rng.choice(choices)
            delta = reference_random_skew_map(rng, build_ab(d - 2, s - 1).form)
            if la.trace_product(delta, delta):
                continue
            rec = _record(build_ko1(d, s, delta), f"random one-step dim {d} minus {s}")
        if rec is not None:
            hit = dict(rec, sample=step)
            hit["signature"] = list(hit["signature"])
            hits.append(hit)
    return SearchResult(budget, tuple(hits))
