"""Structure-level computations on finite-dimensional Lie algebras.

A Lie algebra is stored by its structure constants over exact rationals.
All operations here are pure; every returned object is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg as la
from .errors import CertificateError, PreconditionError
from .linalg import Mat, Vec


@dataclass(frozen=True)
class LinearMap:
    """A matrix with designated source/target dimensions.

    ``matrix[i][j]`` is the coefficient of the i-th target basis vector
    in the image of the j-th source basis vector.
    """

    matrix: Mat

    def __post_init__(self):
        object.__setattr__(self, "matrix", la.mat(self.matrix))

    @property
    def target_dim(self) -> int:
        return la.nrows(self.matrix)

    @property
    def source_dim(self) -> int:
        return la.ncols(self.matrix)

    def __call__(self, v: Vec) -> Vec:
        return la.mat_vec(self.matrix, v)

    def compose(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(la.mat_mul(self.matrix, other.matrix))

    def is_zero(self) -> bool:
        return la.is_zero_mat(self.matrix)


@dataclass(frozen=True)
class SubspaceBasis:
    """A list of linearly independent coordinate vectors in Q^n."""

    ambient_dim: int
    vectors: tuple[Vec, ...]

    def __post_init__(self):
        vecs = tuple(la.vec(v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if any(len(v) != self.ambient_dim for v in vecs):
            raise ValueError("vector length does not match ambient dimension")
        if vecs and la.rank(vecs) != len(vecs):
            raise ValueError("basis vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, v: Vec) -> bool:
        return la.in_span(self.vectors, la.vec(v))

    def contains_subspace(self, other: "SubspaceBasis") -> bool:
        return all(self.contains(v) for v in other.vectors)

    def canonical(self) -> "SubspaceBasis":
        return SubspaceBasis(self.ambient_dim, la.row_space_basis(self.vectors))

    def same_span(self, other: "SubspaceBasis") -> bool:
        return la.span_eq(self.vectors, other.vectors)

    def intersect(self, other: "SubspaceBasis") -> "SubspaceBasis":
        return SubspaceBasis(
            self.ambient_dim, la.intersect_spans(self.vectors, other.vectors)
        )


def subspace_from_spanning(n: int, vectors: Sequence[Vec]) -> SubspaceBasis:
    return SubspaceBasis(n, la.row_space_basis(tuple(la.vec(v) for v in vectors)))


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants c_{ij}^k with i<j, defining [b_i,b_j] = sum_k c_{ij}^k b_k."""

    dim: int
    basis_names: tuple[str, ...]
    brackets: Mapping[tuple[int, int], Vec] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.basis_names) != self.dim:
            raise ValueError("need one basis name per dimension")
        clean: dict[tuple[int, int], Vec] = {}
        for (i, j), coeffs in dict(self.brackets).items():
            if not (0 <= i < j < self.dim):
                raise ValueError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            v = la.vec(coeffs)
            if len(v) != self.dim:
                raise ValueError("bracket coefficient vector has wrong length")
            if not la.is_zero_vec(v):
                clean[(i, j)] = v
        object.__setattr__(self, "brackets", clean)

    def basis_bracket(self, i: int, j: int) -> Vec:
        if i == j:
            return la.zeros_vec(self.dim)
        if i < j:
            return self.brackets.get((i, j), la.zeros_vec(self.dim))
        return la.vec_scale(-1, self.brackets.get((j, i), la.zeros_vec(self.dim)))

    def bracket(self, x: Vec, y: Vec) -> Vec:
        """sum_ij x_i y_j [b_i, b_j], over the non-zero x_i, y_j and
        the non-zero stored coefficients only."""
        out = [la.ZERO] * self.dim
        brackets = self.brackets
        y_support = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in y_support:
                if i < j:
                    coeffs = brackets.get((i, j))
                    c = xi * yj
                elif i > j:
                    coeffs = brackets.get((j, i))
                    c = -xi * yj
                else:
                    continue
                if coeffs is None:
                    continue
                for k, ck in enumerate(coeffs):
                    if ck:
                        out[k] += c * ck
        return tuple(out)

    def name_index(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise KeyError(f"no basis vector named {name!r}") from None

    def full_space(self) -> SubspaceBasis:
        return SubspaceBasis(self.dim, la.identity(self.dim))

    def zero_space(self) -> SubspaceBasis:
        return SubspaceBasis(self.dim, ())


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[tuple[int, int, int, Vec], ...]

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class JordanPair:
    """Additive Jordan decomposition A = S + N with S semisimple over
    the rationals (squarefree minimal polynomial), N nilpotent, SN=NS,
    and both polynomials in A."""

    semisimple: LinearMap
    nilpotent: LinearMap


def validate_structure(alg: LieAlgebra) -> ValidationReport:
    """Check the Jacobi identity on all basis triples i<j<k."""
    violations = []
    n = alg.dim
    for i in range(n):
        ei = la.unit_vec(n, i)
        for j in range(i + 1, n):
            ej = la.unit_vec(n, j)
            for k in range(j + 1, n):
                ek = la.unit_vec(n, k)
                residual = la.vec_add(
                    la.vec_add(
                        alg.bracket(alg.bracket(ei, ej), ek),
                        alg.bracket(alg.bracket(ej, ek), ei),
                    ),
                    alg.bracket(alg.bracket(ek, ei), ej),
                )
                if not la.is_zero_vec(residual):
                    violations.append((i, j, k, residual))
    return ValidationReport(not violations, tuple(violations))


def ad(alg: LieAlgebra, x: Vec) -> LinearMap:
    """Matrix of y -> [x, y] on the defining basis."""
    x = la.vec(x)
    if len(x) != alg.dim:
        raise PreconditionError(
            f"ad argument has length {len(x)}, algebra dimension is {alg.dim}"
        )
    cols = [alg.bracket(x, la.unit_vec(alg.dim, j)) for j in range(alg.dim)]
    return LinearMap(la.transpose(tuple(cols)))


def bracket_spans(alg: LieAlgebra, u: SubspaceBasis, v: SubspaceBasis) -> SubspaceBasis:
    """Span of [u, v]."""
    products = [alg.bracket(x, y) for x in u.vectors for y in v.vectors]
    return subspace_from_spanning(alg.dim, products)


def derived_subalgebra(alg: LieAlgebra) -> SubspaceBasis:
    full = alg.full_space()
    return bracket_spans(alg, full, full)


def center(alg: LieAlgebra) -> SubspaceBasis:
    """{x : [x, g] = 0}, the kernel of all ad(b_i) stacked."""
    if alg.dim == 0:
        return alg.zero_space()
    stacked: list[Vec] = []
    for i in range(alg.dim):
        stacked.extend(ad(alg, la.unit_vec(alg.dim, i)).matrix)
    return SubspaceBasis(alg.dim, la.kernel(tuple(stacked)))


@dataclass(frozen=True)
class SeriesReport:
    derived_series: tuple[SubspaceBasis, ...]
    lower_central_series: tuple[SubspaceBasis, ...]
    is_solvable: bool
    is_nilpotent: bool
    is_abelian: bool


def series(alg: LieAlgebra) -> SeriesReport:
    full = alg.full_space()
    # [g, g] opens both series
    first = bracket_spans(alg, full, full)

    derived = [full]
    nxt = first
    while nxt.dim < derived[-1].dim:
        derived.append(nxt)
        nxt = bracket_spans(alg, nxt, nxt)

    lower = [full]
    nxt = first
    while nxt.dim < lower[-1].dim:
        lower.append(nxt)
        nxt = bracket_spans(alg, full, nxt)

    is_solvable = derived[-1].dim == 0
    is_nilpotent = lower[-1].dim == 0
    # exact: LieAlgebra keeps only the non-zero brackets
    is_abelian = not alg.brackets
    return SeriesReport(tuple(derived), tuple(lower), is_solvable, is_nilpotent, is_abelian)


def killing_matrix(alg: LieAlgebra) -> Mat:
    """Gram matrix of the Killing form kappa(x,y) = tr(ad x ad y)."""
    n = alg.dim
    ads = [ad(alg, la.unit_vec(n, i)).matrix for i in range(n)]
    # kappa is symmetric: pair j >= i only and mirror
    rows = [[la.ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = la.trace_product(ads[i], ads[j])
    return tuple(tuple(row) for row in rows)


def killing_form(alg: LieAlgebra):
    """Killing form as a SymBilinearForm (see forms module)."""
    from .forms import SymBilinearForm

    return SymBilinearForm(killing_matrix(alg))


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
    if not la.is_zero_mat(la.mat_pow(nilp, n)):
        raise CertificateError("Jordan-Chevalley produced a non-nilpotent remainder")
    return JordanPair(LinearMap(s), LinearMap(nilp))


def _associative_closure(generators: Sequence[Mat]) -> tuple[Mat, ...]:
    """Basis of the (non-unital) associative matrix algebra generated by
    the given matrices.

    Each generator is rescaled to integer entries first (this does not
    change the spanned algebra) so the product chains run on plain
    integers instead of normalized rationals.
    """
    if not generators:
        return ()
    n = la.nrows(generators[0])

    def to_int(mm: Mat) -> list[list[int]] | None:
        den = 1
        for row in mm:
            for x in row:
                den = den * x.denominator // math.gcd(den, x.denominator)
        out = [[int(x * den) for x in row] for row in mm]
        return out if any(any(r) for r in out) else None

    def int_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
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

    basis: list[list[list[int]]] = []
    tracker = la.SpanTracker()

    def try_add(mm: list[list[int]] | None) -> bool:
        if mm is None or not any(any(r) for r in mm):
            return False
        if not tracker.add(tuple(Fraction(x) for row in mm for x in row)):
            return False
        basis.append(mm)
        return True

    for g in generators:
        try_add(to_int(g))
    frontier = list(basis)
    while frontier:
        new: list[list[list[int]]] = []
        for b in frontier:
            for c in list(basis):
                for prod in (int_mul(b, c), int_mul(c, b)):
                    if try_add(prod):
                        new.append(prod)
            if len(basis) == n * n:
                return tuple(la.mat(b_) for b_ in basis)
        frontier = new
    return tuple(la.mat(b_) for b_ in basis)


def nilradical(alg: LieAlgebra, hint: SubspaceBasis | None = None) -> SubspaceBasis:
    """Largest nilpotent ideal of a solvable Lie algebra.

    For solvable g over Q the nilradical is {x : ad(x) nilpotent}, and
    ad(x) is nilpotent exactly when it lies in the trace-form radical of
    the associative algebra A generated by ad(g) (all of ad(g) is
    simultaneously triangularizable, so the nilpotent elements of A form
    its radical). This gives a linear characterization:

        x in n  <=>  tr(ad(x) B) = 0 for every B in a basis of A.

    The result is re-certified exactly: each basis vector x satisfies
    ad(x)^n = 0, the subspace is an ideal, and it contains [g, g].
    """
    rep = series(alg)
    if not rep.is_solvable:
        raise PreconditionError("nilradical requires a solvable Lie algebra")
    n = alg.dim
    if rep.is_nilpotent:
        result = alg.full_space()
    else:
        ads = [ad(alg, la.unit_vec(n, i)).matrix for i in range(n)]
        assoc = _associative_closure(ads)
        rows = tuple(
            tuple(la.trace_product(adi, b) for adi in ads) for b in assoc
        )
        result = SubspaceBasis(n, la.kernel(rows))

    # exact certificates
    for x in result.vectors:
        if not la.is_zero_mat(la.mat_pow(ad(alg, x).matrix, n)):
            raise CertificateError("nilradical candidate vector is not ad-nilpotent")
    if not result.contains_subspace(derived_subalgebra(alg)):
        raise CertificateError("nilradical candidate does not contain [g, g]")
    if not result.contains_subspace(bracket_spans(alg, alg.full_space(), result)):
        raise CertificateError("nilradical candidate is not an ideal")

    if hint is not None and not hint.same_span(result):
        raise PreconditionError("supplied nilradical hint does not span the nilradical")
    return result


def is_ideal(alg: LieAlgebra, sub: SubspaceBasis) -> tuple[bool, tuple[Vec, Vec] | None]:
    """Check [g, sub] contained in sub; returns a witness bracket on failure."""
    for i in range(alg.dim):
        ei = la.unit_vec(alg.dim, i)
        for v in sub.vectors:
            w = alg.bracket(ei, v)
            if not sub.contains(w):
                return False, (ei, v)
    return True, None


def quotient_by_ideal(
    alg: LieAlgebra, ideal: SubspaceBasis
) -> tuple[LieAlgebra, LinearMap]:
    """Quotient algebra on the first ambient basis vectors completing
    the ideal to a basis (in index order), plus the projection map."""
    ok, witness = is_ideal(alg, ideal)
    if not ok:
        raise PreconditionError(f"not an ideal; witness bracket on {witness}")
    n = alg.dim
    comp_idx = la.extend_to_basis(ideal.vectors, n)
    comp = [la.unit_vec(n, i) for i in comp_idx]
    m = len(comp)
    # change of basis: columns are complement vectors then ideal vectors
    t = la.transpose(tuple(comp) + ideal.vectors)
    t_inv = la.inverse(t)

    def project(v: Vec) -> Vec:
        return la.mat_vec(t_inv, v)[:m]

    brackets = {}
    for a_ in range(m):
        for b_ in range(a_ + 1, m):
            w = project(alg.bracket(comp[a_], comp[b_]))
            brackets[(a_, b_)] = w
    names = tuple(alg.basis_names[i] for i in comp_idx)
    quotient = LieAlgebra(m, names, brackets)
    proj_cols = [project(la.unit_vec(n, j)) for j in range(n)]
    return quotient, LinearMap(la.transpose(tuple(proj_cols)))


def subalgebra_on(alg: LieAlgebra, sub: SubspaceBasis, names: Sequence[str] | None = None) -> LieAlgebra:
    """Restrict the bracket to a subspace that is closed under it."""
    k = sub.dim
    brackets = {}
    for i in range(k):
        for j in range(i + 1, k):
            w = alg.bracket(sub.vectors[i], sub.vectors[j])
            coords = la.coords_in(sub.vectors, w)
            if coords is None:
                raise PreconditionError("subspace is not closed under the bracket")
            brackets[(i, j)] = coords
    if names is None:
        names = tuple(f"u{i}" for i in range(k))
    return LieAlgebra(k, tuple(names), brackets)
