"""Structure-level computations on finite-dimensional Lie algebras.

A Lie algebra is stored by one canonical integer table of its structure
constants, and a subspace by the canonical integer rows of its basis,
each over a common denominator (or, built from an elimination, by that
elimination until its rows are read); rational brackets and vectors are
views.
All operations here are pure; every returned object is immutable.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from . import linalg as la
from .errors import CertificateError, PreconditionError
from .linalg import Mat, Vec


class Frozen:
    """An immutable value: assignment and deletion raise
    ``AttributeError``, and ``==``, ``hash`` and ``repr`` read the
    attributes named in ``_fields``, ``==`` only between values of one
    class. Constructors store with ``object.__setattr__``, and
    ``functools.cached_property`` writes the instance dict directly."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class LinearMap(Frozen):
    """A matrix of a linear map.

    ``matrix[i][j]`` is the coefficient of the i-th target basis vector
    in the image of the j-th source basis vector.
    """

    _fields = ("matrix",)

    def __init__(self, matrix: Mat):
        object.__setattr__(self, "matrix", la.mat(matrix))

    def __call__(self, v: Vec) -> Vec:
        return la.mat_vec(self.matrix, v)


def _int_rows_of(n: int, vectors) -> tuple[int, tuple[la.IntRow, ...]]:
    """``la.to_int_rows`` of rational vectors given from outside, after
    the one check that each has length n (``ValueError`` otherwise)."""
    vecs = tuple(map(la.vec, vectors))
    if any(len(v) != n for v in vecs):
        raise ValueError("vector length does not match ambient dimension")
    return la.to_int_rows(vecs)


class SubspaceBasis(Frozen):
    """Linearly independent coordinate vectors in Q^n, read as
    ``int_rows`` = (D, rows): vector i is ``rows[i]`` / D, its pairs
    (c, D v_c) with non-zero entry in increasing c. The rows are
    canonical by ``la.normalised``, so equal bases have equal rows, and
    ``==`` and ``hash`` compare (ambient_dim, int_rows); ``vectors`` is
    the rational view.

    ``SubspaceBasis(n, vectors)`` validates rational vectors; writers
    that hold integer rows use ``from_rows`` (rows they vouch are
    independent), ``kernel`` (the solutions of integer equations) or
    ``in_kernel_order`` (any span, on the basis ``kernel`` gives), and
    ``from_span`` keeps only an ``IntSpan``, whose RREF basis becomes
    ``int_rows`` on first read.
    """

    _fields = ("ambient_dim", "int_rows")
    ambient_dim: int

    def __init__(self, ambient_dim: int, vectors: Sequence[Vec]):
        self._store(ambient_dim, *_int_rows_of(ambient_dim, vectors))
        if self.int_span.dim != self.dim:
            raise ValueError("basis vectors are linearly dependent")

    @classmethod
    def from_rows(cls, n: int, den: int, rows) -> "SubspaceBasis":
        sub = object.__new__(cls)
        sub._store(n, den, rows)
        return sub

    def _store(self, n: int, den: int, rows) -> None:
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "int_rows", la.normalised(den, rows))

    @classmethod
    def from_span(cls, span: la.IntSpan) -> "SubspaceBasis":
        """The span of an ``IntSpan``, kept as the ``int_span``, so no
        second elimination runs and no rows are formed until read."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "ambient_dim", span.nc)
        object.__setattr__(sub, "int_span", span)
        return sub

    @classmethod
    def kernel(cls, n: int, equations) -> "SubspaceBasis":
        """{x : sum_c e_c x_c = 0 for every equation e}, the equations
        given sparsely as {column: integer}, on the basis of
        ``IntSpan.int_kernel``. No equations leave all of Q^n."""
        return cls.from_rows(n, *la.IntSpan(n, equations).int_kernel())

    @classmethod
    def in_kernel_order(cls, n: int, rows) -> "SubspaceBasis":
        """The span of the integer rows {column: int} on the basis that
        ``kernel`` gives, row for row, for any equations it solves.

        ``kernel`` gives one w_f per free column f of the equations'
        RREF, e_f minus the RREF entries in column f, which sit on leading
        columns before f: 1 at f, 0 at the other free columns and 0 after
        f. A solution x is sum_f x_f w_f, so no other basis of the span is
        1 at its own f and 0 at the other free columns. On the reversed
        columns c -> n - 1 - c, w_f leads at n - 1 - f with 1 and vanishes
        on the other leading columns: it is a row of that RREF, read back
        and listed by increasing f. Both bases are ``la.normalised``."""
        last = n - 1
        den, reversed_rows = la.IntSpan(n, ({last - c: x for c, x in r.items()} for r in rows)).rref()
        return cls.from_rows(n, den, ([(last - c, x) for c, x in r[::-1]] for r in reversed_rows[::-1]))

    @functools.cached_property
    def int_rows(self) -> tuple[int, tuple[la.IntRow, ...]]:
        """``int_span.rref()``, stored through ``la.normalised`` as by every
        constructor; formed here only for a subspace built ``from_span``."""
        return la.normalised(*self.int_span.rref())

    @functools.cached_property
    def vectors(self) -> tuple[Vec, ...]:
        den, rows = self.int_rows
        return la.mat_over(la.dense(rows, self.ambient_dim), den)

    @functools.cached_property
    def int_span(self) -> la.IntSpan:
        """The span eliminated fraction-free from the rows. Its pivot rows
        span the subspace, so spans and brackets can be formed on them."""
        return la.IntSpan(self.ambient_dim, map(dict, self.int_rows[1]))

    @property
    def dim(self) -> int:
        rows = self.__dict__.get("int_rows")
        return self.int_span.dim if rows is None else len(rows[1])

    def contains(self, v: Vec) -> bool:
        _, (row,) = _int_rows_of(self.ambient_dim, (v,))
        return not self.int_span.reduce(dict(row))

    def contains_subspace(self, other: "SubspaceBasis") -> bool:
        span = self.int_span
        return all(not span.reduce(r) for r in other.int_span.pivots.values())

    def same_span(self, other: "SubspaceBasis") -> bool:
        return (
            self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and self.contains_subspace(other)
        )

    def intersect(self, other: "SubspaceBasis") -> "SubspaceBasis":
        return SubspaceBasis.from_span(la.intersect_spans(self.int_span, other.int_span))


def subspace_from_spanning(n: int, vectors: Sequence[Vec]) -> SubspaceBasis:
    return span_of(n, _int_rows_of(n, vectors)[1])


def span_of(n: int, rows) -> SubspaceBasis:
    """The RREF basis of the span of sparse integer rows of pairs."""
    return SubspaceBasis.from_span(la.IntSpan(n, map(dict, rows)))


class LieAlgebra(Frozen):
    """Structure constants c_{ij}^k, [b_i, b_j] = sum_k c_{ij}^k b_k,
    stored only as the integer table ``int_table`` = (L, rows):
    ``rows[i][j]`` the pairs (k, L c_{ij}^k) with non-zero entry, in
    increasing k, for every i and j (empty for i = j). It is canonical,
    L > 0 and gcd(L, entries) = 1, so equal algebras have equal tables.

    ``LieAlgebra(dim, names, brackets)`` validates rational brackets
    {(i, j): c_ij}, i < j; ``from_rows`` takes integer rows from a writer
    that holds them. Jacobi, invariance and the Killing form are
    homogeneous in the constants, so they are decided in ``int`` on the
    rows and scaled back by a power of L where a value is returned.
    """

    _fields = ("dim", "basis_names", "int_table")
    dim: int
    basis_names: tuple[str, ...]
    int_table: tuple[int, tuple[tuple[la.IntRow, ...], ...]]

    def __init__(
        self, dim: int, basis_names: Sequence[str], brackets: Mapping[tuple[int, int], Vec] | None = None
    ):
        if len(basis_names) != dim:
            raise ValueError("need one basis name per dimension")
        vecs: dict[tuple[int, int], Vec] = {}
        for (i, j), coeffs in dict(brackets or {}).items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            vecs[(i, j)] = v = la.vec(coeffs)
            if len(v) != dim:
                raise ValueError("bracket coefficient vector has wrong length")
        den, rows = la.to_int_rows(vecs.values())
        self._store(dim, basis_names, den, dict(zip(vecs, rows)))

    @classmethod
    def from_rows(
        cls, dim: int, basis_names: Sequence[str], den: int, upper: Mapping
    ) -> "LieAlgebra":
        """[b_i, b_j] = sum_k t_k / den b_k over the pairs (k, t_k), in
        increasing k, of ``upper[(i, j)]`` for i < j; den > 0, and zero
        entries are allowed. The writer vouches for the indices."""
        alg = object.__new__(cls)
        alg._store(dim, basis_names, den, upper)
        return alg

    def _store(self, dim: int, basis_names: Sequence[str], den: int, upper: Mapping) -> None:
        """The one normalisation, ``la.normalised`` of the rows i < j,
        each then mirrored with opposite sign."""
        den, normal = la.normalised(den, upper.values())
        rows = [[()] * dim for _ in range(dim)]
        for (i, j), row in zip(upper, normal):
            rows[i][j] = row
            rows[j][i] = tuple((k, -t) for k, t in row)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis_names", tuple(basis_names))
        object.__setattr__(self, "int_table", (den, tuple(map(tuple, rows))))

    @functools.cached_property
    def brackets(self) -> Mapping[tuple[int, int], Vec]:
        """The non-zero [b_i, b_j], i < j, as a read-only rational view
        of the table."""
        den, rows = self.int_table
        out = {}
        for i, row_i in enumerate(rows):
            for j in range(i + 1, self.dim):
                if row_i[j]:
                    out[(i, j)] = la.mat_over(la.dense((row_i[j],), self.dim), den)[0]
        return MappingProxyType(out)

    @property
    def is_abelian(self) -> bool:
        return not any(map(any, self.int_table[1]))

    @functools.cached_property
    def int_ad(self) -> tuple[tuple[dict[int, int], ...], ...]:
        """The structure table by output index: ``int_ad[i][p]`` is
        {q: L c_{iq}^p} over the non-zero entries, row p of the integer
        matrix L ad(b_i). Every reader of ad(b_i) by rows reads this."""
        n = self.dim
        _, rows = self.int_table
        out = []
        for row_i in rows:
            by_p: list[dict[int, int]] = [{} for _ in range(n)]
            for q, row in enumerate(row_i):
                for p, t in row:
                    by_p[p][q] = t
            out.append(tuple(by_p))
        return tuple(out)

    @functools.cached_property
    def series_report(self) -> "SeriesReport":
        """``series(self)``, computed on first use and kept, so every
        caller that needs the series or [g, g] reads the same report."""
        return series(self)

    @functools.cached_property
    def nilradical(self) -> SubspaceBasis:
        """``_nilradical(self)``, solved and certified on first read and
        kept; a non-solvable g raises ``PreconditionError`` on every read."""
        return _nilradical(self)

    @functools.cached_property
    def derived(self) -> SubspaceBasis:
        """[g, g], built once per algebra: ``series`` and every reader of
        [g, g] share it."""
        return derived_subalgebra(self)

    @functools.cached_property
    def derived_series(self) -> tuple[SubspaceBasis, ...]:
        """g, [g, g], ... up to the first term its successor equals; g is
        solvable exactly when the last term is 0. Kept, and read by
        ``series`` and the nilradical."""
        terms = [self.full_space()]
        nxt = self.derived
        while nxt.dim < terms[-1].dim:
            terms.append(nxt)
            nxt = bracket_spans(self, nxt, nxt)
        return tuple(terms)

    @property
    def is_solvable(self) -> bool:
        return not self.derived_series[-1].dim

    def bracket(self, x: Vec, y: Vec) -> Vec:
        """sum_ij x_i y_j [b_i, b_j], summed over the non-zero x_i, y_j
        on the rows of the structure table and divided by L once."""
        den, rows = self.int_table
        out = [la.ZERO] * self.dim
        y_support = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            row_i = rows[i]
            for j, yj in y_support:
                c = xi * yj
                for k, t in row_i[j]:
                    out[k] += c * t
        return tuple(v / den if v else v for v in out)

    def name_index(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise KeyError(f"no basis vector named {name!r}") from None

    def full_space(self) -> SubspaceBasis:
        """All of Q^dim, built once per algebra."""
        return self._full_space

    @functools.cached_property
    def _full_space(self) -> SubspaceBasis:
        return SubspaceBasis.from_span(la.IntSpan.full(self.dim))


class ValidationReport(NamedTuple):
    passed: bool
    violations: tuple[tuple[int, int, int, Vec], ...]

    def __bool__(self) -> bool:
        return self.passed


class JordanPair(NamedTuple):
    """Additive Jordan decomposition A = S + N with S semisimple over
    the rationals (squarefree minimal polynomial), N nilpotent, SN=NS,
    and both polynomials in A."""

    semisimple: LinearMap
    nilpotent: LinearMap


def validate_structure(alg: LieAlgebra) -> ValidationReport:
    """Check the Jacobi identity on all basis triples i<j<k.

    The residual [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] is
    quadratic in the constants, so L^2 times it is summed in ``int`` on
    the structure table and divided by L^2 only when it is non-zero.
    """
    violations = []
    n = alg.dim
    den, rows = alg.int_table
    den2 = den * den
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = [0] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, t in rows[a][b]:
                        for l, u in rows[m][c]:
                            acc[l] += t * u
                if any(acc):
                    violations.append((i, j, k, tuple(Fraction(x, den2) for x in acc)))
    return ValidationReport(not violations, tuple(violations))


def _require_jacobi(alg: LieAlgebra) -> None:
    """Raise ``PreconditionError`` unless the structure constants
    satisfy the Jacobi identity."""
    rep = validate_structure(alg)
    if not rep.passed:
        raise PreconditionError(
            f"structure constants violate the Jacobi identity "
            f"({len(rep.violations)} basis triples)"
        )


def ad(alg: LieAlgebra, x: Vec) -> LinearMap:
    """Matrix of y -> [x, y] on the defining basis: entry (p, q) is
    sum_i x_i c_{iq}^p, read off the structure table."""
    x = la.vec(x)
    n = alg.dim
    if len(x) != n:
        raise PreconditionError(
            f"ad argument has length {len(x)}, algebra dimension is {n}"
        )
    den, rows = alg.int_table
    out = [[la.ZERO] * n for _ in range(n)]
    for i, xi in enumerate(x):
        if not xi:
            continue
        xi /= den
        for q, row in enumerate(rows[i]):
            for p, t in row:
                out[p][q] += xi * t
    return LinearMap(tuple(tuple(r) for r in out))


def _int_bracket(
    rows: tuple[tuple[la.IntRow, ...], ...], x: dict[int, int], y: dict[int, int]
) -> dict[int, int]:
    """L [x, y] for integer vectors x, y given sparsely, on the rows of
    the structure table."""
    acc: dict[int, int] = {}
    for i, xi in x.items():
        row_i = rows[i]
        for j, yj in y.items():
            c = xi * yj
            for k, t in row_i[j]:
                acc[k] = acc.get(k, 0) + c * t
    return acc


def _ad_columns(alg: LieAlgebra, x: dict[int, int]) -> list[dict[int, int]]:
    """The columns L [x, b_y] of L ad(x) for a sparse integer x, on the
    rows of the structure table."""
    _, rows = alg.int_table
    return [_int_bracket(rows, x, {y: 1}) for y in range(alg.dim)]


def bracket_spans(alg: LieAlgebra, u: SubspaceBasis, v: SubspaceBasis) -> SubspaceBasis:
    """Span of [u, v], spanned by the brackets of the integer pivot
    rows of u and v on the structure table (for u = v, one bracket per
    unordered pair)."""
    _, rows = alg.int_table
    xs = list(u.int_span.pivots.values())
    ys = list(v.int_span.pivots.values())
    span = la.IntSpan(alg.dim)
    for a, x in enumerate(xs):
        for y in ys[a + 1 :] if u is v else ys:
            span.add(_int_bracket(rows, x, y))
    return SubspaceBasis.from_span(span)


def derived_subalgebra(alg: LieAlgebra) -> SubspaceBasis:
    full = alg.full_space()
    return bracket_spans(alg, full, full)


def centralizer(
    alg: LieAlgebra, sub: SubspaceBasis, acting: SubspaceBasis | None = None
) -> SubspaceBasis:
    """{x in sub : [y, x] = 0 for every y in acting}, acting all of g
    by default: the one builder of commutator equations.

    The unknowns are the coefficients c_k of x = sum_k c_k x_k on the
    integer pivot rows x_k of sub. Each pivot row y of acting gives the
    equations sum_k c_k L [y, x_k]_p = 0, one per component p, read off
    the structure table; the solutions, mapped back onto the x_k, span
    the result, returned as its canonical RREF basis."""
    _, rows = alg.int_table
    xs = list(sub.int_span.pivots.values())
    ys = (alg.full_space() if acting is None else acting).int_span.pivots.values()
    eqs: dict[tuple[int, int], dict[int, int]] = {}
    for a, y in enumerate(ys):
        for k, x in enumerate(xs):
            for p, t in _int_bracket(rows, y, x).items():
                eqs.setdefault((a, p), {})[k] = t
    _, sols = la.IntSpan(len(xs), eqs.values()).int_kernel()
    span = la.IntSpan(alg.dim)
    for sol in sols:
        acc: dict[int, int] = {}
        for k, c in sol:
            for col, v in xs[k].items():
                acc[col] = acc.get(col, 0) + c * v
        span.add(acc)
    return SubspaceBasis.from_span(span)


def center(alg: LieAlgebra) -> SubspaceBasis:
    """z(g), the centralizer of g in g."""
    return centralizer(alg, alg.full_space())


def _rebased(alg: LieAlgebra, den: int, cols, names: Sequence[str]) -> LieAlgebra:
    """The algebra on the basis of the integer columns c_i = cols[i] / den:
    each L den^2 [c_i, c_j] is formed on ``int_table`` and mapped by
    T^{-1}, whose columns are the rows of (T^T)^{-1} = ``la.int_inverse``
    over E, and the integer coordinates over E L den^2 are the new table."""
    n = alg.dim
    inv_den, inv_rows = la.int_inverse(den, cols, n)
    lden, table = alg.int_table
    ints = [dict(c) for c in cols]
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = _int_bracket(table, ints[i], ints[j])
            if w:
                acc = [0] * n
                for q, x in w.items():
                    for k, t in inv_rows[q]:
                        acc[k] += x * t
                upper[(i, j)] = list(enumerate(acc))
    return LieAlgebra.from_rows(n, names, inv_den * lden * den * den, upper)


class SeriesReport(NamedTuple):
    derived_series: tuple[SubspaceBasis, ...]
    is_solvable: bool
    is_nilpotent: bool
    is_abelian: bool

    @property
    def derived(self) -> SubspaceBasis:
        """[g, g]; the series stops at g itself when g = [g, g]."""
        return self.derived_series[min(1, len(self.derived_series) - 1)]


def series(alg: LieAlgebra) -> SeriesReport:
    """The derived series and the solvable, nilpotent and abelian
    verdicts. Callers read the report kept on the algebra,
    ``alg.series_report``, which calls this once; the derived series and
    the nilradical are the algebra's own.

    g is nilpotent exactly when it is solvable and its nilradical is g,
    and both verdicts are certified by the nilradical's solve:
    - nilpotent: the nilradical K = g was certified by its lower central
      series [K, C^k], which is g's, reaching 0;
    - not nilpotent (and solvable): K is smaller than g, so some trace
      row is non-zero, and as the rows vanish on [g, g], some generator
      c outside [g, g] has tr(ad(c) Y^k) != 0. That cannot happen when
      every ad(x) is nilpotent: Engel's theorem then makes ad(g) strictly
      triangular in one basis, and with it every ad(c) Y^k.
    """
    is_nilpotent = alg.is_solvable and alg.nilradical.dim == alg.dim
    return SeriesReport(alg.derived_series, alg.is_solvable, is_nilpotent, alg.is_abelian)


def killing_sums(alg: LieAlgebra) -> tuple[int, list[list[int]]]:
    """(L^2, K) with K the integer Killing sums: kappa = K / L^2.

    kappa(x,y) = tr(ad x ad y), so with A_i = L ad(b_i),
    K_ij = sum_{p,q} (A_i)_pq (A_j)_qp. The table entries
    (A_i)_pq = L c_{iq}^p are grouped by position into the sparse
    vectors u_pq = {i: (A_i)_pq}, and K is the sum of the outer products
    u_pq u_qp^T, in ``int``.
    """
    n = alg.dim
    den, rows = alg.int_table
    us: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, row_i in enumerate(rows):
        for q, row in enumerate(row_i):
            for p, t in row:
                us.setdefault((p, q), []).append((i, t))
    k = [[0] * n for _ in range(n)]
    for (p, q), u in us.items():
        v = us.get((q, p))
        if v:
            for i, x in u:
                k_i = k[i]
                for j, y in v:
                    k_i[j] += x * y
    return den * den, k


def killing_matrix(alg: LieAlgebra) -> Mat:
    """Gram matrix of the Killing form: ``killing_sums`` divided by L^2."""
    den2, k = killing_sums(alg)
    return la.mat_over(k, den2)


def killing_form(alg: LieAlgebra):
    """Killing form as a SymBilinearForm (see forms module), written
    from ``killing_sums``."""
    from .forms import SymBilinearForm

    den2, k = killing_sums(alg)
    return SymBilinearForm.from_rows(alg.dim, den2, map(enumerate, k))


def jordan_chevalley(a: LinearMap | Mat) -> JordanPair:
    """Additive Jordan decomposition over Q, without field extensions.

    Newton iteration on the squarefree part q of the characteristic
    polynomial: S <- S - q(S) q'(S)^{-1}, starting at S = A. Every
    iterate is a polynomial in A, and the iteration reaches q(S) = 0 in
    at most ceil(log2(n)) + 1 steps.
    """
    m = a.matrix if isinstance(a, LinearMap) else la.mat(a)
    n = la.nrows(m)
    if n != la.ncols(m):
        raise PreconditionError("Jordan decomposition needs a square matrix")
    if n == 0:
        return JordanPair(LinearMap(()), LinearMap(()))
    p = la.charpoly(m)
    q = la.poly_squarefree_part(p)
    dq = la.poly_deriv(q)
    s = m
    for _ in range(n + 1):
        qs = la.poly_eval_mat(q, s)
        if la.is_zero_mat(qs):
            break
        s = la.mat_sub(s, la.mat_mul(qs, la.inverse(la.poly_eval_mat(dq, s))))
    else:
        raise CertificateError("Jordan-Chevalley Newton iteration did not terminate")
    nilp = la.mat_sub(m, s)
    if not la.is_nilpotent(nilp):
        raise CertificateError("Jordan-Chevalley produced a non-nilpotent remainder")
    return JordanPair(LinearMap(s), LinearMap(nilp))


def _power_trace_rows(
    ads: Mapping[int, tuple[dict[int, int], ...]], y: list[dict[int, int]]
) -> list[dict[int, int]]:
    """The rows {i: tr(L ad(b_i) P)} over the generators i of ``ads``
    (i -> the rows of L ad(b_i)) for the powers P = Y, ..., Y^n of the
    n x n integer matrix Y (``y[p]`` = {q: Y_pq}), up to the first P = 0,
    whose row and those of all later powers are zero. By Cayley-Hamilton
    Y^(n+1) is a combination of Y, ..., Y^n, so they span every power."""
    n = len(y)
    rows = []
    power = [{p: 1} for p in range(n)]
    for _ in range(n):
        nxt = []
        for row in y:
            acc: dict[int, int] = {}
            for q, x in row.items():
                for c, z in power[q].items():
                    acc[c] = acc.get(c, 0) + x * z
            nxt.append(acc)
        if not any(x for acc in nxt for x in acc.values()):
            break
        power = nxt
        # tr(A P) = sum_p sum_q A_pq P_qp
        rows.append(
            {
                i: sum(t * power[q].get(p, 0) for p, row in enumerate(ad_i) for q, t in row.items())
                for i, ad_i in ads.items()
            }
        )
    return rows


def nilradical(alg: LieAlgebra, hint: SubspaceBasis | None = None) -> SubspaceBasis:
    """Largest nilpotent ideal of a solvable Lie algebra: the kept
    ``alg.nilradical``, which must span the same space as the hint if
    one is given."""
    result = alg.nilradical
    if hint is not None and not hint.same_span(result):
        raise PreconditionError("supplied nilradical hint does not span the nilradical")
    return result


def _nilradical(alg: LieAlgebra) -> SubspaceBasis:
    """The nilradical n of a solvable g, solved from trace rows and
    certified; read it as ``alg.nilradical``.

    For solvable g over Q the nilradical n is {x : ad(x) nilpotent}: the
    common kernel of the weights lambda_1..lambda_dim of ad, which vanish
    on [g, g] (Lie's theorem over C). For y in g and every k >= 1,

        tr(ad(x) ad(y)^k) = sum_j lambda_j(x) lambda_j(y)^k,

    so the trace rows of the powers of Y = L ad(y) vanish on n, and
    their kernel K contains n. If y is generic (distinct weights take
    distinct values at y, and non-zero weights non-zero values), the
    Vandermonde matrix of the distinct non-zero values leaves
    lambda_j(x) = 0 for every weight, so K = n (de Graaf, *Lie Algebras:
    Theory and Algorithms*, 2000). The rows are solved in ``int`` by
    ``SubspaceBasis.kernel``.

    Every trace row T vanishes on [g, g]: over C, ad(g) is triangular in
    some basis, so for x in [g, g] ad(x) is strictly triangular and so
    is ad(x) Y^k. Only the entries T[c] at the d free columns c, the
    generators outside [g, g], are traced; on each pivot row r_p of the
    integer RREF of [g, g], led by r_p[p], the row vanishes, which gives

        T[p] = -sum_f r_p[f] T[f] / r_p[p]

    over the free columns f, an exact division. The completed rows are
    the full trace rows, so K and its basis are the same.

    y is y_t = sum_j t^j c_j for t = 1, 2, ..., the c_j the unit vectors
    on the d free columns of the RREF of [g, g], which span a complement
    of it. Two distinct weights, or a weight and 0, differ on some c_j,
    so they agree at y_t for at most d - 1 values of t: at most
    (d - 1) dim(dim + 1)/2 values of t are not generic.

    Each K is certified exactly: it contains [g, g], so it is an ideal
    ([g, K] ⊆ [g, g] ⊆ K), and its lower central series [K, C^k]
    reaches 0 on ``bracket_spans``, so it is a nilpotent ideal, K lies
    in n, and K = n. A t that is not generic gives a K larger than n,
    which is not nilpotent, and the next t is tried; if every t up to
    the bound fails, the certificate fails. For nilpotent g every trace
    row vanishes (Engel: ad(g) is strictly triangular in one basis), so
    K = g at t = 1, certified by g's own lower central series.
    """
    if not alg.is_solvable:
        raise PreconditionError("nilradical requires a solvable Lie algebra")
    n = alg.dim
    derived = alg.derived
    pivots = derived.int_span.pivots
    gens = {c: ad_c for c, ad_c in enumerate(alg.int_ad) if c not in pivots}
    for t in range(1, (len(gens) - 1) * n * (n + 1) // 2 + 2):
        # L ad(y_t) = sum_j t^j L ad(b_c) over the free columns c
        y: list[dict[int, int]] = [{} for _ in range(n)]
        for j, ad_c in enumerate(gens.values()):
            for p, row in enumerate(ad_c):
                for q, x in row.items():
                    y[p][q] = y[p].get(q, 0) + t**j * x
        rows = _power_trace_rows(gens, y)
        for row in rows:
            for p, r in pivots.items():
                row[p] = -sum(x * row[f] for f, x in r.items() if f != p) // r[p]
        result = SubspaceBasis.kernel(n, rows)
        if not result.contains_subspace(derived):
            raise CertificateError("nilradical candidate does not contain [g, g]")
        # only K = g has dimension n, and then [K, K] is the kept [g, g]
        term = result
        while term.dim and (
            nxt := derived if term.dim == n else bracket_spans(alg, result, term)
        ).dim < term.dim:
            term = nxt
        if not term.dim:
            return result
    raise CertificateError("nilradical candidate is not a nilpotent ideal")
