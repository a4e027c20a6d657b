"""Symmetric bilinear forms on Lie algebras.

A form is stored by one canonical integer matrix M B over its least
common denominator M; the rational matrix is a view of it. Signature
and Witt machinery is exact over Q. Orthogonal bases keep their
rational diagonal entries; only the signs are normalized (square roots
would leave the rationals).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import linalg as la
from .core import (
    Frozen,
    LieAlgebra,
    SubspaceBasis,
    _ad_columns,
    bracket_spans,
    centralizer,
    nilradical,
)
from .errors import CertificateError, PreconditionError
from .linalg import Mat, Vec


def _int_images(rows, b_rows: tuple[la.IntRow, ...]) -> list[list[int]]:
    """x^T (M B) = (M B x)^T, summed in ``int``, for each sparse integer
    row x of pairs (p, x_p); (M, ``b_rows``) is ``form.int_rows``."""
    images = []
    for row in rows:
        acc = [0] * len(b_rows)
        for p, x in row:
            for q, b in b_rows[p]:
                acc[q] += x * b
        images.append(acc)
    return images


class SymBilinearForm(Frozen):
    """A symmetric form B, stored only as ``int_rows`` = (M, rows):
    ``rows[p]`` the pairs (q, M B_pq), q increasing, canonical by
    ``la.normalised``, so equal forms have equal rows. The constructor
    validates a rational matrix; ``from_rows`` takes integer rows from a
    writer that holds them and vouches for their symmetry."""

    _fields = ("dim", "int_rows")
    dim: int
    int_rows: tuple[int, tuple[la.IntRow, ...]]

    def __init__(self, matrix: Mat):
        m = la.mat(matrix)
        if m != la.transpose(m):
            raise ValueError("form matrix is not symmetric")
        self._store(len(m), *la.to_int_rows(m))

    @classmethod
    def from_rows(cls, dim: int, den: int, rows) -> "SymBilinearForm":
        form = object.__new__(cls)
        form._store(dim, den, rows)
        return form

    def _store(self, dim: int, den: int, rows) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "int_rows", la.normalised(den, rows))

    def int_gram(self, left, right) -> list[list[int]]:
        """The one Gram kernel: P[i][j] = M <u_i, v_j> for the sparse
        integer rows u_i of ``left`` and v_j of ``right``, the
        ``_int_images`` of the u_i paired with every v_j."""
        images = _int_images(left, self.int_rows[1])
        return [[sum(y[q] * z for q, z in r) for r in right] for y in images]

    def restrict_rows(self, den: int, rows) -> "SymBilinearForm":
        """The Gram matrix of the vectors rows[i] / den, ``int_gram``
        over M den^2."""
        gram = self.int_gram(rows, rows)
        scale = self.int_rows[0] * den * den
        return SymBilinearForm.from_rows(len(gram), scale, map(enumerate, gram))

    def is_zero(self) -> bool:
        return not any(self.int_rows[1])

    @functools.cached_property
    def matrix(self) -> Mat:
        """The rational Gram matrix, a view of ``int_rows``."""
        den, rows = self.int_rows
        return la.mat_over(la.dense(rows, self.dim), den)

    @functools.cached_property
    def int_inverse(self) -> tuple[int, tuple[la.IntRow, ...]]:
        """B^{-1} held as ``int_rows`` holds B (``la.int_inverse``);
        ``ValueError`` for a degenerate form."""
        return la.int_inverse(*self.int_rows, self.dim)

    @functools.cached_property
    def skew_square_table(self) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
        """The quadratic form T of tr((P C)^2) = sum_{e,f} T_ef c_e c_f,
        with P the integer rows of ``int_inverse`` and C skew-symmetric
        with upper entries c_e, e = (i, j), i < j, in lexicographic
        order: (diag, off), diag[e] = T_ee and off the triples (e, f,
        2 T_ef) of the non-zero T_ef with e < f.

        T_ef = P_jk P_li - P_jl P_ki - P_ik P_lj + P_il P_kj for f = (k,
        l); it is 2 (Y_e)_lk for the skew Y_e = P (E_ij - E_ji) P = p_i
        p_j^T - p_j p_i^T, so it is read off the pairs of the sparse rows
        i and j of P. A diagonal form has T_ee = -2 p_i p_j and no
        off-diagonal term."""
        n = self.dim
        rows = self.int_inverse[1]
        index = {pair: e for e, pair in enumerate(itertools.combinations(range(n), 2))}
        diag = [0] * len(index)
        off = []
        for (i, j), e in index.items():
            y_e: dict[tuple[int, int], int] = {}
            for a, x in rows[i]:
                for b, z in rows[j]:
                    # x z = P_ia P_jb sits at (a, b) of Y_e and -x z at (b, a)
                    if a > b:
                        y_e[b, a] = y_e.get((b, a), 0) + 2 * x * z
                    elif a < b:
                        y_e[a, b] = y_e.get((a, b), 0) - 2 * x * z
            for pair, t in y_e.items():
                f = index[pair]
                if f == e:
                    diag[e] = t
                elif f > e and t:
                    off.append((e, f, 2 * t))
        return tuple(diag), tuple(off)

    def skew_square_trace(self, entries: Sequence[int]) -> int:
        """tr((P C)^2) = sum_{e,f} T_ef c_e c_f for the upper entries
        c_e of C, read on ``skew_square_table``."""
        diag, off = self.skew_square_table
        trace = sum(map(operator.mul, diag, map(operator.mul, entries, entries)))
        for e, f, t in off:
            trace += t * entries[e] * entries[f]
        return trace

    @functools.cached_property
    def inverse(self) -> Mat:
        """B^{-1}, the rational view of ``int_inverse``."""
        den, rows = self.int_inverse
        return la.mat_over(la.dense(rows, self.dim), den)


class Signature(NamedTuple):
    p: int
    q: int
    r: int

    @property
    def n(self) -> int:
        return self.p + self.q + self.r

    @property
    def is_nondegenerate(self) -> bool:
        return self.r == 0

    @property
    def is_definite(self) -> bool:
        return self.r == 0 and (self.p == 0 or self.q == 0)

    @property
    def witt_index(self) -> int:
        return min(self.p, self.q)


class MetricLieAlgebra(Frozen):
    _fields = ("algebra", "form")

    def __init__(self, algebra: LieAlgebra, form: SymBilinearForm):
        if form.dim != algebra.dim:
            raise ValueError("form dimension does not match the algebra")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "form", form)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @functools.cached_property
    def invariance(self) -> InvarianceReport:
        """Whether <[x,y1],y2> = -<y1,[x,y2]> on all basis triples,
        decided once per algebra.

        For each basis x, ``int_table[x]`` holds the columns of L ad(b_x),
        whose skewness ``_skew_pairing`` decides in ``int``; the witness is
        the first (x, y1, y2) in lexicographic order.
        """
        _, rows = self.algebra.int_table
        _, b_rows = self.form.int_rows
        for x, cols in enumerate(rows):
            _, witness = _skew_pairing(cols, b_rows)
            if witness is not None:
                return InvarianceReport(False, (x, *witness))
        return InvarianceReport(True, None)

    @functools.cached_property
    def skew_derivations(self) -> SubspaceBasis:
        """The derivations of the algebra that are skew for the form, in
        Q^(n n) with d_pq at column p n + q, solved once per algebra (so
        the memoised ``build_ab`` bases share it). The form must be
        invariant and non-degenerate (``PreconditionError`` otherwise).

        It is solved for S = B D. Let c be the structure constants and
        phi(x, y, w) = <[x, y], w>.
        - D is skew for B iff S is skew-symmetric, so the unknowns are
          the upper entries s_e = S_ab, e = (a, b), a < b, in
          lexicographic order: n (n - 1) / 2 of them.
        - For a skew D, D is a derivation iff phi(Dx, y, w) +
          phi(x, Dy, w) + phi(x, y, Dw) = 0 for all x, y, w: the sum is
          <D[x, y] - [Dx, y] - [x, Dy], w> once skewness moves D off w,
          and B is non-degenerate.
        - B is invariant, so phi is alternating, and so is the sum (the
          action of D on a 3-form). The triples e_i, e_j, e_k with
          i < j < k are enough.
        - phi(D e_i, e_j, e_k) = phi(e_j, e_k, D e_i) = <[e_j, e_k],
          D e_i> = sum_q c_jk^q S_qi, and cyclically for the others.
        So the system is E_ijk = sum_q (S_qi c_jk^q + S_qj c_ki^q +
        S_qk c_ij^q) = 0 for i < j < k (``_skew_three_form_equations``),
        read off ``int_table`` with no form. For n <= 2 it has no rows
        and every skew map is a derivation.

        Each kernel vector S is mapped to D = P S, P the integer rows of
        ``form.int_inverse``, and ``SubspaceBasis.in_kernel_order`` gives
        the basis of a solve on the n^2 entries of D, on which
        ``reduction.random_skew_derivation`` draws one coefficient each.
        """
        _require_invariant(self)
        try:
            _, p_rows = self.form.int_inverse
        except ValueError:
            raise PreconditionError("skew derivations need a non-degenerate form") from None
        n = self.dim
        pairs = list(itertools.combinations(range(n), 2))
        _, solutions = la.IntSpan(len(pairs), _skew_three_form_equations(self)).int_kernel()
        ds = []
        for sol in solutions:
            # S_ab = s and S_ba = -s add P_pa s at (p, b) and -P_pb s at (p, a)
            d: dict[int, int] = {}
            for e, s in sol:
                a, b = pairs[e]
                for p, x in p_rows[a]:
                    d[p * n + b] = d.get(p * n + b, 0) + x * s
                for p, x in p_rows[b]:
                    d[p * n + a] = d.get(p * n + a, 0) - x * s
            ds.append(d)
        return SubspaceBasis.in_kernel_order(n * n, ds)


def _skew_three_form_equations(m: MetricLieAlgebra) -> list[dict[int, int]]:
    """The rows E_ijk, i < j < k, of ``MetricLieAlgebra.skew_derivations``
    in the upper entries s_e of S = B D, scaled by the table's L: S_qi
    is s_(q, i) for q < i, -s_(i, q) for q > i and 0 for q = i."""
    _, table = m.algebra.int_table
    index = {pair: e for e, pair in enumerate(itertools.combinations(range(m.dim), 2))}
    eqs = []
    for i, j, k in itertools.combinations(range(m.dim), 3):
        row: dict[int, int] = {}
        for col, terms in ((i, table[j][k]), (j, table[k][i]), (k, table[i][j])):
            for q, c in terms:
                if q < col:
                    row[index[q, col]] = row.get(index[q, col], 0) + c
                elif q > col:
                    row[index[col, q]] = row.get(index[col, q], 0) - c
        if row:
            eqs.append(row)
    return eqs


class WittBasis(NamedTuple):
    """Basis v_1..v_k, w_1..w_{n-2k}, v*_1..v*_k with <v_i, v*_j> = d_ij,
    v and v* totally isotropic, w orthogonal to both, and the w part
    orthogonal with recorded diagonal values (signs only, not unit)."""

    v: tuple[Vec, ...]
    w: tuple[Vec, ...]
    v_star: tuple[Vec, ...]
    w_diagonal: tuple[Fraction, ...]


class InvarianceReport(NamedTuple):
    passed: bool
    witness: tuple[int, int, int] | None

    def __bool__(self) -> bool:
        return self.passed


def diagonalize_symmetric(b: SymBilinearForm) -> tuple[tuple[Vec, ...], tuple[Fraction, ...]]:
    """Vectors t_i = U / S with B(t_i, t_j) = d_i delta_ij, the tracked
    ``_congruence``, and d_i = U^T (M B) U / (M S^2): exact congruence
    diagonalization, with hyperbolic pairs for zero diagonals, whose
    rationals are formed only here."""
    m = b.int_rows[0]
    vecs, diag = [], []
    for s, row in _congruence(b, track=True)[1]:
        sparse = tuple((q, t) for q, t in enumerate(row) if t)
        vecs.append(la.mat_over((row,), s)[0])
        diag.append(Fraction(b.int_gram((sparse,), (sparse,))[0][0], m * s * s))
    return tuple(vecs), tuple(diag)


def _congruence(b: SymBilinearForm, track: bool = False) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """Congruence diagonalization of B by fraction-free elimination on
    the integer rows M B (Bareiss, *Math. Comp.* 22, 1968): the diagonal
    up to positive factors and, with ``track``, the vectors.

    With pivot d = A_kk != 0 and c = row k, the complement of e_k is
    spanned by d e_i - c_i e_k, on which the form is d (d A - c c^T);
    dividing by |d| leaves sgn(d) (d A_ij - c_i c_j). Without a non-zero
    diagonal entry, the first pair (k, j) with A_kj != 0 takes the
    hyperbolic step e_k <- e_k + e_j, which makes A_kk = 2 A_kj non-zero.
    After each step the remaining matrix is divided by its (positive)
    content, so A stays a positive multiple of the Gram matrix of the
    current vectors: the pivots have the signs of the diagonal
    (Sylvester), with 0 for each vector of the radical.

    ``track`` keeps the vectors as integer rows U_i over one denominator
    S, their content divided out: a step sets U_i <- d U_i - c_i U_k over
    d S. It returns (S, U_k) per pivot in order, then for the radical.
    """
    n = b.dim
    a = la.dense(b.int_rows[1], n)
    u = [[int(i == j) for j in range(n)] for i in range(n)] if track else []
    s = 1
    rest = list(range(n))
    pivots: list[int] = []
    vectors: list[tuple[int, list[int]]] = []
    while rest:
        k = next((i for i in rest if a[i][i]), None)
        if k is None:
            pair = next(
                ((i, j) for t, i in enumerate(rest) for j in rest[t + 1 :] if a[i][j]),
                None,
            )
            if pair is None:
                pivots.extend([0] * len(rest))
                break
            k, j = pair
            d = 2 * a[k][j] + a[j][j]
            for c in rest:
                a[k][c] = a[c][k] = a[k][c] + a[j][c]
            a[k][k] = d
            if track:
                u[k] = [x + y for x, y in zip(u[k], u[j])]
        rest.remove(k)
        d = a[k][k]
        col = a[k]
        for t, i in enumerate(rest):
            row_i = a[i]
            for j in rest[t:]:
                x = d * row_i[j] - col[i] * col[j]
                row_i[j] = a[j][i] = x if d > 0 else -x
        g = math.gcd(*(a[i][j] for t, i in enumerate(rest) for j in rest[t:]))
        if g > 1:
            for i in rest:
                row_i = a[i]
                for j in rest:
                    row_i[j] //= g
        if track:
            vectors.append((s, u[k]))
            for i in rest:
                u[i] = [d * x - col[i] * y for x, y in zip(u[i], u[k])]
            g = math.gcd(s * d, *(x for i in rest for x in u[i]))
            s = s * d // g
            for i in rest:
                u[i] = [x // g for x in u[i]]
        pivots.append(d)
    if track:
        vectors += [(s, u[i]) for i in rest]
    return pivots, vectors


def signature(b: SymBilinearForm) -> Signature:
    """Inertia (p, q, r): the signs of the ``_congruence`` pivots."""
    pivots, _ = _congruence(b)
    p = sum(1 for d in pivots if d > 0)
    q = sum(1 for d in pivots if d < 0)
    return Signature(p, q, len(pivots) - p - q)


def metric_radical(m: MetricLieAlgebra | SymBilinearForm) -> SubspaceBasis:
    form = m.form if isinstance(m, MetricLieAlgebra) else m
    return SubspaceBasis.kernel(form.dim, map(dict, form.int_rows[1]))


def _skew_pairing(cols, b_rows: tuple[la.IntRow, ...]) -> tuple[list[list[int]], tuple[int, int] | None]:
    """The one skewness kernel: P = A^T (M B) and the first (y, z) in
    row-major order with P[y][z] + P[z][y] != 0, or None when A is skew.

    A is an integer map by its sparse columns, ``cols[y]`` the pairs
    (p, A_py), and (M, ``b_rows``) is ``form.int_rows``: P[y][z] is
    <A y, z> up to a positive scale. P + P^T is symmetric, so its first
    non-zero entry has z >= y.
    """
    pairing = _int_images(cols, b_rows)
    for y, row in enumerate(pairing):
        for z in range(y, len(b_rows)):
            if row[z] + pairing[z][y]:
                return pairing, (y, z)
    return pairing, None


def _map_pairing(a: Mat, form: SymBilinearForm) -> tuple[int, list[list[int]], tuple[int, int] | None]:
    """``_skew_pairing`` of a rational map: (D, P, witness) with
    P / D = a^T B, the columns of a scaled to integers first."""
    den, cols = la.to_int_rows(la.transpose(a))
    m, b_rows = form.int_rows
    pairing, witness = _skew_pairing(cols, b_rows)
    return den * m, pairing, witness


def is_invariant(m: MetricLieAlgebra) -> InvarianceReport:
    """Check <[x,y1],y2> = -<y1,[x,y2]> on all basis triples: the
    verdict m keeps as ``invariance``."""
    return m.invariance


def _require_invariant(m: MetricLieAlgebra) -> None:
    """Raise ``PreconditionError`` unless the form is invariant, on the
    kept ``is_invariant`` verdict."""
    inv = is_invariant(m)
    if not inv.passed:
        raise PreconditionError(f"form is not invariant; witness triple {inv.witness}")


def _first_non_skew_ad(alg: LieAlgebra, rows, form: SymBilinearForm) -> tuple[int, tuple[int, int]] | None:
    """The first index k of the sparse integer rows x_k of ``rows`` for
    which the form is not skew for ad(x_k), with the ``_skew_pairing``
    witness (y, z) of the columns L [x_k, b_y]; None when it is skew for
    every ad(x_k), hence for ad of their span."""
    _, b_rows = form.int_rows
    for k, x in enumerate(rows):
        cols = [c.items() for c in _ad_columns(alg, dict(x))]
        _, witness = _skew_pairing(cols, b_rows)
        if witness is not None:
            return k, witness
    return None


def nilinvariance(m: MetricLieAlgebra) -> InvarianceReport:
    """Decide whether the form of a solvable metric algebra is
    nil-invariant: skew for every nilpotent element of the algebraic
    hull of ad(g). For solvable g that is invariance, so the verdict
    and its witness (x, y1, y2) are ``is_invariant``'s:
    - invariant => nil-invariant: the maps skew for the form make up an
      algebraic Lie algebra, that of the group preserving the form,
      degenerate or not. It contains ad(g), so it contains the hull.
    - nil-invariant => invariant: every nil-invariant symmetric bilinear
      form on a solvable Lie algebra is invariant (Baues and Globke,
      "Rigidity of compact pseudo-Riemannian homogeneous spaces for
      solvable Lie groups", *IMRN* 2018, no. 10; arXiv:1507.02575).
      The theorem covers degenerate forms, because the form that
      M = G/H induces on g has h in its radical.
    A failed verdict is certified by the triple, on which
    <[x, y1], y2> + <y1, [x, y2]> != 0, and this theorem.
    """
    if not m.algebra.is_solvable:
        raise PreconditionError(
            "nil-invariance is decided for solvable algebras only; "
            "the algebraic hull of a Levi factor is out of scope"
        )
    return is_invariant(m)


def is_totally_isotropic(form: SymBilinearForm, sub: SubspaceBasis) -> tuple[bool, tuple[Vec, Vec] | None]:
    """Whether sub is totally isotropic, with the first pair of basis
    vectors in row-major order that is not orthogonal."""
    if sub.ambient_dim != form.dim:
        raise ValueError("vector length does not match ambient dimension")
    rows = sub.int_rows[1]
    gram = form.int_gram(rows, rows)
    pair = next(((i, j) for i, row in enumerate(gram) for j, x in enumerate(row) if x), None)
    if pair is None:
        return True, None
    return False, (sub.vectors[pair[0]], sub.vectors[pair[1]])


def _require_isotropic(form: SymBilinearForm, sub: SubspaceBasis, error: type, what: str) -> None:
    """Raise ``error`` unless sub is totally isotropic, naming the first
    pair that is not orthogonal as rationals."""
    ok, pair = is_totally_isotropic(form, sub)
    if not ok:
        u, v = map(la.vec_text, pair)
        raise error(f"{what}; witness pair ({u}, {v})")


def orthogonal_complement(form: SymBilinearForm, sub: SubspaceBasis) -> SubspaceBasis:
    """{x : <x, u> = 0 for all u in sub}, the kernel of the rows M B u;
    needs no non-degeneracy."""
    if sub.ambient_dim != form.dim:
        raise ValueError("vector length does not match ambient dimension")
    images = _int_images(sub.int_rows[1], form.int_rows[1])
    return SubspaceBasis.kernel(form.dim, (dict(enumerate(y)) for y in images))


def witt_basis(m: MetricLieAlgebra | SymBilinearForm, isotropic: SubspaceBasis) -> WittBasis:
    """Witt decomposition relative to a totally isotropic subspace.

    Dual vectors and the complement w come from
    ``_duals_and_complement``; w is orthogonalized exactly.
    """
    form = m.form if isinstance(m, MetricLieAlgebra) else m
    n = form.dim
    if not signature(form).is_nondegenerate:
        raise PreconditionError("Witt decomposition requires a non-degenerate form")
    _require_isotropic(form, isotropic, PreconditionError, "subspace is not totally isotropic")
    duals, w = _duals_and_complement(form, isotropic)
    w_coord_vecs, w_diag = diagonalize_symmetric(form.restrict_rows(*w.int_rows))
    if any(d == 0 for d in w_diag):
        raise CertificateError("degenerate complement in Witt decomposition")
    w_vectors = tuple(_lift(cv, w.vectors, n) for cv in w_coord_vecs)
    return WittBasis(isotropic.vectors, w_vectors, duals.vectors, w_diag)


def _duals_and_complement(
    form: SymBilinearForm, u: SubspaceBasis
) -> tuple[SubspaceBasis, SubspaceBasis]:
    """The duals u* of a totally isotropic u (``_pairing_duals``) and
    the kernel-basis orthogonal complement of u + u*."""
    duals = _pairing_duals(form, u)
    both = SubspaceBasis.from_rows(form.dim, *la.common_rows(u.int_rows, duals.int_rows))
    return duals, orthogonal_complement(form, both)


def _pairing_duals(form: SymBilinearForm, u: SubspaceBasis) -> SubspaceBasis:
    """Isotropic, mutually orthogonal duals <u_i, v*_j> = d_ij of a
    totally isotropic u, on the integer rows U_i / D of u.

    v*_i starts as y = Y / E, the lexicographically-smallest pivot
    solution (``la.int_solve_lex``) of the pairing system
    [M D B u_j | M D d_ij] together with [B v*_j | 0] for the earlier
    duals. Then v*_i = y - <y, y> / 2 u_i keeps the pairings and is
    isotropic; over 2 M E^2 D it is the integer row 2 M E D Y - q U_i
    with q = M E^2 <y, y>."""
    m, b_rows = form.int_rows
    d, urows = u.int_rows
    n = form.dim
    system = _int_images(urows, b_rows)
    duals = []
    for i, ui in enumerate(urows):
        rows = ({**dict(enumerate(r)), n: m * d if j == i else 0} for j, r in enumerate(system))
        sol = la.int_solve_lex(n, rows)
        if sol is None:
            raise CertificateError("pairing system unsolvable for a non-degenerate form")
        e, yrow = sol
        q = form.int_gram((yrow,), (yrow,))[0][0]
        dual = {c: 2 * m * e * d * x for c, x in yrow}
        for c, x in ui:
            dual[c] = dual.get(c, 0) - q * x
        row = tuple(sorted(dual.items()))
        duals.append((2 * m * e * e * d, (row,)))
        system += _int_images((row,), b_rows)
    return SubspaceBasis.from_rows(form.dim, *la.common_rows(*duals))


def j0_ideal(m: MetricLieAlgebra) -> SubspaceBasis:
    """The characteristic ideal z(n) ∩ [g, n] for the nilradical n.

    Totally isotropic whenever the form is invariant (asserted)."""
    alg = m.algebra
    if not alg.is_solvable:
        raise PreconditionError("j0 is defined here for solvable algebras only")
    _require_invariant(m)
    nil = nilradical(alg)
    # [g, n] lies in n, so z(n) ∩ [g, n] is the centralizer of n in [g, n]
    j0 = centralizer(alg, bracket_spans(alg, alg.full_space(), nil), acting=nil)
    _require_isotropic(
        m.form, j0, CertificateError, "j0 not totally isotropic under an invariant form"
    )
    return j0


def _lift(coords: Vec, basis: tuple[Vec, ...], n: int) -> Vec:
    out = la.zeros_vec(n)
    for c, b in zip(coords, basis):
        out = la.vec_add(out, la.vec_scale(c, b))
    return out


def central_isotropic_ideal(m: MetricLieAlgebra) -> SubspaceBasis | None:
    """The central ideal z(g) ∩ [g, g] of a solvable algebra, or None
    for an abelian one.

    It is central, so it is an ideal. It is totally isotropic: for z
    central, <z, [x, y]> = -<[x, z], y> = 0 by invariance, so
    z(g) ⊥ [g, g]. It is non-zero for a non-abelian g with a
    non-degenerate form: then x ⊥ [g, g] gives <[y, x], w> =
    -<x, [y, w]> = 0 for all y, w, so [g, x] = 0 and z(g) = [g, g]^⊥.
    A zero intersection would make g = [g, g] ⊕ z(g), hence
    [g, g] = [[g, g], [g, g]], which a solvable algebra allows only
    for [g, g] = 0.

    Non-degeneracy of the form is not required: the computation only
    uses invariance, and degenerate invariant forms are accepted (some
    small nilpotent algebras admit no invariant scalar product at all).
    A zero intersection can only come from a degenerate form.
    """
    alg = m.algebra
    if not alg.is_solvable:
        raise PreconditionError("central isotropic ideal requires a solvable algebra")
    if alg.is_abelian:
        return None
    _require_invariant(m)
    cand = centralizer(alg, alg.derived)
    if cand.dim == 0:
        raise PreconditionError(
            "z(g) ∩ [g, g] is zero for a non-abelian solvable algebra, so the "
            "invariant form is degenerate"
        )
    what = "z(g) ∩ [g, g] not totally isotropic under an invariant form"
    _require_isotropic(m.form, cand, CertificateError, what)
    return cand


def isotropic_vector(form: SymBilinearForm) -> Vec | None:
    """A non-zero rational isotropic vector of an indefinite form, if one
    can be found.

    Strategy: isotropic basis vectors, hyperbolic pairs, sign-matched
    diagonal pairs (-d_i/d_j a rational square), then a bounded search
    over small-coefficient combinations of the diagonalizing basis.
    Rational quadratic forms can be indefinite yet anisotropic, so None
    is a legitimate answer.
    """
    n = form.dim
    _, rows = form.int_rows
    for i, row in enumerate(rows):
        if row and all(q != i for q, _ in row):  # B e_i != 0 = B_ii
            return la.unit_vec(n, i)
    basis, diag = diagonalize_symmetric(form)
    if len({d > 0 for d in diag if d}) < 2:
        return None  # semi-definite: no combination of the d_i vanishes
    for i in range(n):
        if diag[i] == 0:
            continue
        for j in range(i + 1, n):
            if diag[j] == 0 or (diag[i] > 0) == (diag[j] > 0):
                continue
            ratio = -diag[i] / diag[j]
            num, den = ratio.numerator, ratio.denominator
            rn, rd = _isqrt_exact(num), _isqrt_exact(den)
            if rn is not None and rd is not None:
                # d_i + ratio d_j = 0 with ratio = (rn/rd)^2
                return la.vec_add(
                    la.vec_scale(rd, basis[i]), la.vec_scale(rn, basis[j])
                )
    # the non-zero diagonal entries as integers over one common denominator
    _, (row,) = la.to_int_rows((diag,))
    nonzero = [(basis[i], d) for i, d in row]
    for size in (3, 4):
        if len(nonzero) < size:
            break
        for combo in itertools.combinations(range(len(nonzero)), size):
            for coeffs in itertools.product(range(0, 4), repeat=size):
                if any(coeffs) and not sum(c * c * nonzero[idx][1] for c, idx in zip(coeffs, combo)):
                    return _lift(coeffs, [nonzero[idx][0] for idx in combo], n)
    return None


def _isqrt_exact(x: int) -> int | None:
    if x < 0:
        return None
    r = math.isqrt(x)
    return r if r * r == x else None
