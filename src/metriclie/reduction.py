"""Reduction by central isotropic ideals and its inverse, the double
extension construction.

The public functions certify their input once. Every reduction step
then certifies itself by rebuilding the input from the extracted data
and comparing structure constants exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import NamedTuple, Sequence

from . import linalg as la
from .core import (
    Frozen,
    LieAlgebra,
    SubspaceBasis,
    _rebased,
    _require_jacobi,
    centralizer,
    subspace_from_spanning,
    validate_structure,
)
from .errors import CertificateError, PreconditionError
from .forms import (
    MetricLieAlgebra,
    SymBilinearForm,
    _duals_and_complement,
    _require_invariant,
    _require_isotropic,
    _skew_pairing,
    is_invariant,
    isotropic_vector,
    signature,
)
from .linalg import Mat, Vec


class DoubleExtensionSpec(Frozen):
    """Data (base, delta, xi) of a double extension by an abelian a.

    ``int_deltas[i]`` = (D_i, cols) holds the action delta_i of the i-th
    extending vector on the base, skew for the base form, by its columns:
    ``cols[y]`` the pairs (p, D_i delta_py). ``int_xi`` = (X, rows) holds
    xi: [a_i, a_j] -> a*, ``rows[r]`` the pairs (k, X xi(a_i, a_j)_k) for
    the r-th pair of ``itertools.combinations(range(s), 2)``. Both are
    ``la.normalised``. The constructor takes rational delta matrices and
    xi = 0, ``from_columns`` integer data from a writer that vouches for
    its size; ``deltas`` is the rational view.

    a is abelian: ``_reduce_step``, the inverse, splits g along a central
    j, so [g, g] lies in j^perp and a = g / j^perp, as its extraction checks.
    """

    _fields = ("base", "int_deltas", "int_xi")
    base: MetricLieAlgebra
    int_deltas: tuple[tuple[int, tuple[la.IntRow, ...]], ...]
    int_xi: tuple[int, tuple[la.IntRow, ...]]

    def __init__(self, base: MetricLieAlgebra, deltas: Sequence[Mat]):
        cols = []
        for d in map(la.mat, deltas):
            if la.nrows(d) != base.dim or la.ncols(d) != base.dim:
                raise PreconditionError("delta matrix size does not match the base")
            cols.append(la.to_int_rows(la.transpose(d)))
        self._store(base, cols, None)

    @classmethod
    def from_columns(cls, base: MetricLieAlgebra, int_deltas, int_xi=None) -> "DoubleExtensionSpec":
        spec = object.__new__(cls)
        spec._store(base, int_deltas, int_xi)
        return spec

    def _store(self, base, int_deltas, int_xi) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "int_deltas", tuple(la.normalised(*d) for d in int_deltas))
        xi = int_xi or (1, [()] * math.comb(self.a_dim, 2))
        object.__setattr__(self, "int_xi", la.normalised(*xi))

    @functools.cached_property
    def deltas(self) -> tuple[Mat, ...]:
        return tuple(la.mat_over(la.transpose(la.dense(c, len(c))), d) for d, c in self.int_deltas)

    @property
    def a_dim(self) -> int:
        return len(self.int_deltas)


class ReductionStep(NamedTuple):
    original: MetricLieAlgebra
    ideal: SubspaceBasis
    duals: SubspaceBasis
    complement: SubspaceBasis
    base: MetricLieAlgebra
    spec: DoubleExtensionSpec


class ReductionChain(NamedTuple):
    steps: tuple[ReductionStep, ...]
    final: MetricLieAlgebra

    @property
    def isotropic_rank(self) -> int:
        return sum(step.ideal.dim for step in self.steps)


def change_basis(m: MetricLieAlgebra, columns: Sequence[Vec], names: Sequence[str]) -> MetricLieAlgebra:
    """Rewrite a metric Lie algebra on a new basis given by coordinate
    vectors in the old one: ``_change_basis`` on the columns scaled to
    integers."""
    cols = tuple(la.vec(c) for c in columns)
    if len(cols) != m.dim or any(len(c) != m.dim for c in cols):
        raise PreconditionError("change of basis needs exactly dim vectors of length dim")
    return _change_basis(m, *la.to_int_rows(cols), names)


def _change_basis(m: MetricLieAlgebra, den: int, cols, names: Sequence[str]) -> MetricLieAlgebra:
    """``change_basis`` on the integer columns cols[i] / den (``core._rebased``)."""
    return MetricLieAlgebra(_rebased(m.algebra, den, cols, names), m.form.restrict_rows(den, cols))


def double_extend(spec: DoubleExtensionSpec) -> MetricLieAlgebra:
    """Build g = a + base + a* with the invariant extended scalar product.

    Brackets: [a_i, a_j] = xi(a_i, a_j), [a_i, x] = delta_i x, [x, y] =
    [x, y]_base + omega(x, y) with omega(x, y)(a_i) = <delta_i x, y>; a*
    is central. The output is validated for Jacobi and invariance.
    """
    out = _assemble(spec)
    rep = validate_structure(out.algebra)
    if not rep.passed:
        i, j, k, _ = rep.violations[0]
        raise CertificateError(
            f"double extension violates the Jacobi identity on triple ({i},{j},{k}); "
            "check that the deltas commute compatibly with the extending algebra"
        )
    inv = is_invariant(out)
    if not inv.passed:
        raise CertificateError(
            f"double extension form is not invariant; witness triple {inv.witness}"
        )
    return out


def _assemble(spec: DoubleExtensionSpec) -> MetricLieAlgebra:
    """``double_extend`` without its output certificates. The table is
    written over one common L, the lcm of the base's L, of D_i M for
    each delta and of xi's X."""
    base = spec.base
    s = spec.a_dim
    m = base.dim
    if s == 0:
        raise PreconditionError("double extension needs at least one extending vector")
    mden, b_rows = base.form.int_rows
    # omega_i(x, y) = <delta_i x, y> is the pairing P / (D_i M) that
    # decides the skewness of delta_i
    deltas = []
    for den, cols in spec.int_deltas:
        pairing, witness = _skew_pairing(cols, b_rows)
        if witness is not None:
            raise PreconditionError("delta is not skew with respect to the base form")
        deltas.append((den, cols, pairing))
    bden, table = base.algebra.int_table
    xden, xi_rows = spec.int_xi
    big = math.lcm(bden, xden, *(den * mden for den, _, _ in deltas))

    # the blocks (a | x | z) start at the offsets 0, s and zo = s + m
    n, zo = 2 * s + m, s + m
    upper: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (i, j), row in zip(itertools.combinations(range(s), 2), xi_rows):
        upper[(i, j)] = [(zo + k, t * (big // xden)) for k, t in row]
    for i, (den, cols, _) in enumerate(deltas):
        for k in range(m):
            upper[(i, s + k)] = [(s + l, t * (big // den)) for l, t in cols[k]]
    for k in range(m):
        for l in range(k + 1, m):
            upper[(s + k, s + l)] = [(s + p, t * (big // bden)) for p, t in table[k][l]] + [
                (zo + i, p[k][l] * (big // (den * mden))) for i, (den, _, p) in enumerate(deltas)
            ]

    a_names = tuple(f"a{i}" for i in range(s))
    z_names = tuple(f"z{j}" for j in range(s))
    mid = base.algebra.basis_names
    if set(mid) & (set(a_names) | set(z_names)):
        mid = tuple(f"x{k}" for k in range(m))
    alg = LieAlgebra.from_rows(n, a_names + mid + z_names, big, upper)

    # <a_i, z_i> = 1 and the base form on the x-block, over M
    gram = [((zo + i, mden),) for i in range(s)]
    gram += [tuple((s + q, t) for q, t in row) for row in b_rows]
    gram += [((i, mden),) for i in range(s)]
    form = SymBilinearForm.from_rows(n, mden, gram)
    return MetricLieAlgebra(alg, form)


def reduce_by_ideal(m: MetricLieAlgebra, ideal: SubspaceBasis | None = None) -> ReductionStep:
    """Split g along a central totally isotropic ideal j and recover the
    double-extension data (base, delta, omega, xi) exactly.

    The complement carrying the base algebra is the deterministic
    kernel-basis orthogonal complement of j + j*, so reducing a freshly
    built double extension returns the base with identical structure
    constants. The input is certified once: Jacobi identity,
    non-degeneracy, invariance, then total isotropy, centrality and
    non-vanishing of j. The step is certified by rebuilding the input.
    Without an ideal, g must be solvable, and j is ``_reduction_line``.
    """
    _certify_metric(m, solvable=ideal is None)
    if ideal is None:
        return _reduce_step(m, _reduction_line(m))
    _require_isotropic(m.form, ideal, PreconditionError, "subspace is not totally isotropic")
    # a central subspace is an ideal
    if centralizer(m.algebra, ideal).dim != ideal.dim:
        raise PreconditionError("ideal is not central")
    if ideal.dim == 0:
        raise PreconditionError("reduction by the zero ideal is trivial")
    return _reduce_step(m, ideal)


def _certify_metric(m: MetricLieAlgebra, solvable: bool = False) -> None:
    """Jacobi identity, non-degeneracy and invariance of the input, and
    if asked solvability, on the derived series alone (a perfect g
    leaves [g, g]^⊥ = 0 and no line to reduce along)."""
    _require_jacobi(m.algebra)
    if not signature(m.form).is_nondegenerate:
        raise PreconditionError("reduction requires a non-degenerate form")
    _require_invariant(m)
    if solvable and not m.algebra.is_solvable:
        raise PreconditionError("reduction along central lines requires a solvable algebra")


def _reduction_line(m: MetricLieAlgebra) -> SubspaceBasis:
    """The central isotropic line to reduce a certified solvable m along.

    While g is non-abelian it is the first RREF row of z(g) ∩ [g, g],
    the centralizer of g in the algebra's kept [g, g], as in
    ``central_isotropic_ideal``: central by construction, and non-zero
    and totally isotropic for these algebras.
    An abelian g with an indefinite form is reduced along a rational
    isotropic vector when one can be found; a definite form has none.
    """
    alg = m.algebra
    if alg.is_abelian:
        v = isotropic_vector(m.form)
        if v is None:
            kind = "definite" if signature(m.form).is_definite else "indefinite, perhaps anisotropic"
            raise PreconditionError(f"abelian algebra, {kind} form: no rational isotropic vector")
        line = subspace_from_spanning(m.dim, (v,))
    else:
        cand = centralizer(alg, alg.derived)
        if cand.dim == 0:
            raise CertificateError(
                "z(g) ∩ [g, g] is zero for a non-abelian solvable algebra "
                "with a non-degenerate invariant form"
            )
        den, rows = cand.int_rows
        line = SubspaceBasis.from_rows(m.dim, den, rows[:1])
    _require_isotropic(m.form, line, CertificateError, "reduction line not totally isotropic")
    return line


def _reduce_step(m: MetricLieAlgebra, ideal: SubspaceBasis) -> ReductionStep:
    """``reduce_by_ideal`` on certified input. The rebuild needs no
    Jacobi or invariance certificate of its own, and the complement no
    diagonalization: the round trip shows the rebuild equals the
    certified input in another basis, so the base form is
    non-degenerate. It certifies [x_k, x_l] whole as well: ``_assemble``
    writes no a-part there and its z-part as <delta_i x_k, x_l>."""
    s = ideal.dim
    mdim = m.dim - 2 * s
    duals, w = _duals_and_complement(m.form, ideal)
    base_names = tuple(f"x{k}" for k in range(mdim))
    names = (
        tuple(f"a{i}" for i in range(s)) + base_names + tuple(f"z{j}" for j in range(s))
    )
    # the input on the basis a_i = u*_i, x_k = w_k, z_j = u_j; every
    # bracket below is read off it and split into its (a | x | z) blocks
    split = _change_basis(m, *la.common_rows(duals.int_rows, w.int_rows, ideal.int_rows), names)
    den, rows = split.algebra.int_table

    def blocks(i: int, j: int) -> tuple[list, list, list]:
        """The pairs of L [b_i, b_j] in the (a | x | z) blocks, each
        indexed from 0."""
        parts: tuple[list, list, list] = ([], [], [])
        for k, t in rows[i][j]:
            block = (k >= s) + (k >= s + mdim)
            parts[block].append((k - (0, s, s + mdim)[block], t))
        return parts

    # the x-parts of [x_k, x_l]; the round trip checks the rest
    base_rows = {
        (k, l): blocks(s + k, s + l)[1] for k in range(mdim) for l in range(k + 1, mdim)
    }
    # the base form is the x-block of the split's form
    gden, gram = split.form.int_rows
    base_gram = ([(q - s, t) for q, t in row if s <= q < s + mdim] for row in gram[s : s + mdim])
    base = MetricLieAlgebra(
        LieAlgebra.from_rows(mdim, base_names, den, base_rows),
        SymBilinearForm.from_rows(mdim, gden, base_gram),
    )

    # delta_i by its integer columns over L
    delta_cols = []
    for i in range(s):
        delta_cols.append([])
        for k in range(mdim):
            a_part, x_part, z_part = blocks(i, s + k)
            if a_part or z_part:
                _extraction_failed(s, "dual action does not preserve the complement")
            delta_cols[i].append(x_part)

    xi_rows = []
    for i, j in itertools.combinations(range(s), 2):
        a_part, x_part, z_part = blocks(i, j)
        if a_part or x_part:
            _extraction_failed(s, "dual vectors do not close up to the ideal")
        xi_rows.append(z_part)

    spec = DoubleExtensionSpec.from_columns(base, [(den, c) for c in delta_cols], (den, xi_rows))
    rebuilt = _assemble(spec)
    if (
        rebuilt.algebra.int_table != split.algebra.int_table
        or rebuilt.form.int_rows != split.form.int_rows
    ):
        raise CertificateError("reduction round-trip failed to rebuild the input")

    return ReductionStep(
        original=m,
        ideal=ideal,
        duals=duals,
        complement=w,
        base=base,
        spec=spec,
    )


def _extraction_failed(ideal_dim: int, reason: str) -> None:
    """Raise for a split that is not a double extension with abelian a.

    A line always extracts, so there the failure is a bug. An ideal of
    dimension >= 2 need not split this way: reducing by it in one step
    needs the general quadratic extension (Kath-Olbrich 2006), so the
    input is outside what this step handles."""
    if ideal_dim >= 2:
        raise PreconditionError(
            f"{reason}: reducing by a central isotropic ideal of dimension "
            f"{ideal_dim} needs the general quadratic extension (Kath-Olbrich "
            "2006); reduce by a one-dimensional central ideal instead"
        )
    raise CertificateError(f"{reason}; this is a bug")


def complete_reduction(m: MetricLieAlgebra) -> ReductionChain:
    """Reduce by one-dimensional central isotropic ideals until the base
    is abelian with a definite form, each step along ``_reduction_line``.

    The input is certified once (Jacobi, non-degeneracy, invariance,
    solvability, the last on the derived series alone) and each base
    inherits all four. A step's round trip shows the rebuild equals the
    certified input in the split basis; the base is its x-block with
    the z's central, and its Gram matrix
    [[0, 0, 1], [0, B, 0], [1, 0, 0]] is non-degenerate only if B is.
    The base is a subquotient, so it is solvable. Each step takes 2 off
    the dimension, so dim // 2 + 1 steps bound the loop.
    """
    _certify_metric(m, solvable=True)
    steps: list[ReductionStep] = []
    current = m
    for _ in range(m.dim // 2 + 1):
        if current.algebra.is_abelian and signature(current.form).is_definite:
            break
        step = _reduce_step(current, _reduction_line(current))
        steps.append(step)
        current = step.base
    else:
        raise CertificateError("reduction did not terminate within the step budget")
    return ReductionChain(tuple(steps), current)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def build_ab(n: int, s: int) -> MetricLieAlgebra:
    """Abelian algebra of dimension n with diagonal form of index s.

    Memoised: each (n, s) is built once per process and the same frozen
    object is returned on every call, so the integer rows, inverse and
    structure table it derives on first use are shared by all callers."""
    if not (0 <= s <= n):
        raise PreconditionError("index must satisfy 0 <= s <= n")
    gram = (((i, 1 if i < n - s else -1),) for i in range(n))
    names = tuple(f"e{i}" for i in range(n))
    return MetricLieAlgebra(LieAlgebra(n, names, {}), SymBilinearForm.from_rows(n, 1, gram))


def build_ko1(n: int, s: int, delta: Mat) -> MetricLieAlgebra:
    """Solvable double extension of the abelian algebra of dimension n-2
    and index s-1 by a single vector acting through ``delta``.

    The result has dimension n, index s, brackets [a, x] = delta(x) and
    [x, y] = <delta x, y> z, with <a, z> = 1.
    """
    if n < 2 or s < 1 or s > n - 1:
        raise PreconditionError("need n >= 2 and 1 <= s <= n-1")
    base = build_ab(n - 2, s - 1)
    return double_extend(DoubleExtensionSpec(base=base, deltas=(la.mat(delta),)))


def build_example42() -> MetricLieAlgebra:
    """A 6-dimensional solvable metric Lie algebra of signature (4, 2)
    whose Killing form vanishes identically. Basis (a, b, x1, x2, y, z)
    with [a,b]=b, [a,x1]=x2, [a,x2]=-x1, [a,y]=-y, [b,y]=z, [x1,x2]=z
    and pairings <a,z> = <b,y> = <x1,x1> = <x2,x2> = 1.
    """
    names = ("a", "b", "x1", "x2", "y", "z")
    upper = {
        (0, 1): [(1, 1)],
        (0, 2): [(3, 1)],
        (0, 3): [(2, -1)],
        (0, 4): [(4, -1)],
        (1, 4): [(5, 1)],
        (2, 3): [(5, 1)],
    }
    gram = (((5, 1),), ((4, 1),), ((2, 1),), ((3, 1),), ((1, 1),), ((0, 1),))
    return MetricLieAlgebra(
        LieAlgebra.from_rows(6, names, 1, upper), SymBilinearForm.from_rows(6, 1, gram)
    )


# ---------------------------------------------------------------------------
# randomized generators (seeded, for searches and property tests)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _skew_draw_table(bound: int, max_denominator: int) -> tuple[int, int, tuple]:
    """(L, bit length of max_denominator, per den: the numerator's width
    w, its bit length, its offset and L / den) for ``_draw_skew_entries``,
    built once per range."""
    if bound < 0 or max_denominator < 1:
        raise ValueError(f"empty draw range: bound {bound}, max_denominator {max_denominator}")
    lcm = math.lcm(*range(1, max_denominator + 1))
    widths = [2 * bound * den + 1 for den in range(1, max_denominator + 1)]
    draws = tuple((w, w.bit_length(), bound * den, lcm // den) for den, w in enumerate(widths, 1))
    return lcm, max_denominator.bit_length(), draws


def _draw_skew_entries(
    rng: random.Random, n: int, bound: int = 2, max_denominator: int = 4
) -> tuple[int, list[int]]:
    """The draw of an n x n skew-symmetric K: (L, c) with L = lcm(1..
    max_denominator) and c the integers L K_ij, i < j in lexicographic
    order. For each entry in turn, a denominator den is drawn from
    [1, max_denominator], then a numerator from [-bound den, bound den],
    and K_ij is their quotient. An empty range (bound < 0 or
    max_denominator < 1) raises ``ValueError`` before any draw.

    Each draw is the one ``rng.randint(a, b)`` makes on a
    ``random.Random``: a + r, with r = ``getrandbits(k)`` for k the bit
    length of w = b - a + 1, drawn again while r >= w. So the stream is
    the same, without randint's wrapper layers.
    """
    lcm, k_den, draws = _skew_draw_table(bound, max_denominator)
    bits = rng.getrandbits
    entries = []
    for _ in range(n * (n - 1) // 2):
        r = bits(k_den)
        while r >= max_denominator:
            r = bits(k_den)
        w, k_num, offset, scale = draws[r]
        t = bits(k_num)
        while t >= w:
            t = bits(k_num)
        entries.append((t - offset) * scale)
    return lcm, entries


def _skew_numerators(
    form: SymBilinearForm, lcm: int, entries: Sequence[int]
) -> tuple[int, list[list[int]]]:
    """(L M, R) for R = P C the integer product, with (M, rows of P) =
    ``form.int_inverse`` and C the skew-symmetric matrix whose upper
    entries, i < j in lexicographic order, are the given integers L K_ij
    (``_draw_skew_entries``): B^{-1} K = R / (L M)."""
    n = form.dim
    k = [[0] * n for _ in range(n)]
    for (i, j), c in zip(itertools.combinations(range(n), 2), entries):
        k[i][j] = c
        k[j][i] = -c
    out = []
    for inv_row in form.int_inverse[1]:
        acc = [0] * n
        for r, x in inv_row:
            for q, y in enumerate(k[r]):
                acc[q] += x * y
        out.append(acc)
    return lcm * form.int_inverse[0], out


def random_skew_numerators(
    rng: random.Random,
    form: SymBilinearForm,
    bound: int = 2,
    max_denominator: int = 4,
) -> tuple[int, list[list[int]]]:
    """The draw of ``random_skew_map`` in integers: (D, R) with R an
    integer matrix and B^{-1} K = R / D.

    K is skew-symmetric, its upper entries drawn by ``_draw_skew_entries``
    as the integers L K_ij over L = lcm(1..max_denominator). With (M,
    rows) = ``form.int_inverse``, R is the product of the rows M B^{-1}
    with L K (``_skew_numerators``), and D = L M. Its trace
    tr(R^2) is the quadratic form ``form.skew_square_trace`` of the
    drawn entries, so a caller that needs only traceless draws can
    decide before any product (``einstein._traceless_skew_map``).
    """
    return _skew_numerators(form, *_draw_skew_entries(rng, form.dim, bound, max_denominator))


def random_skew_map(
    rng: random.Random,
    form: SymBilinearForm,
    bound: int = 2,
    max_denominator: int = 4,
) -> Mat:
    """A random map skew with respect to the given non-degenerate form,
    built as B^{-1} K with K skew-symmetric and entries in [-bound,
    bound] with bounded denominator: the integer draw
    ``random_skew_numerators`` over D = L M, read as rationals."""
    den, rows = random_skew_numerators(rng, form, bound, max_denominator)
    return la.mat_over(rows, den)


def skew_derivation_space(base: MetricLieAlgebra) -> tuple[Mat, ...]:
    """Basis of the derivations of the base algebra that are skew with
    respect to the base form (the valid one-dimensional extension data):
    the base's kept ``skew_derivations``, solved on the invariant 3-form
    and put in kernel order (``SubspaceBasis.in_kernel_order``). The base
    form must be invariant and non-degenerate."""
    n = base.dim
    sols = base.skew_derivations.vectors
    return tuple(
        tuple(tuple(sol[p * n + q] for q in range(n)) for p in range(n))
        for sol in sols
    )


def random_skew_derivation(rng: random.Random, base: MetricLieAlgebra) -> tuple[int, tuple]:
    """The draw of ``random_double_extension``: the basis of
    ``skew_derivation_space`` combined, in one pass, with coefficients
    drawn from [-2, 2], one ``rng.randint`` per basis vector (the zero
    map if the base admits no other). The basis, the base's kept
    ``skew_derivations``, is read in integers over its common
    denominator L, in its order (``SubspaceBasis.in_kernel_order``, so
    the coefficients fall on the vectors of a kernel solve in the d_pq),
    and the sum of c_i w_i, the columns of L delta, is returned as
    ``la.normalised`` integer columns (D, cols)."""
    n = base.dim
    den, rows = base.skew_derivations.int_rows
    acc: dict[int, int] = {}
    for w in rows:
        c = rng.randint(-2, 2)
        for col, x in w:
            acc[col] = acc.get(col, 0) + c * x
    # delta_pq sits at column p n + q; column q of delta holds (p, L delta_pq)
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for col in sorted(acc):
        p, q = divmod(col, n)
        cols[q].append((p, acc[col]))
    return la.normalised(den, cols)


def random_double_extension(rng: random.Random, base: MetricLieAlgebra) -> MetricLieAlgebra:
    """One-dimensional double extension of the base by a random skew
    derivation: ``double_extend`` of the draw ``random_skew_derivation``."""
    return double_extend(DoubleExtensionSpec.from_columns(base, [random_skew_derivation(rng, base)]))


def iterated_double_extension(
    rng: random.Random, base: MetricLieAlgebra, steps: int
) -> MetricLieAlgebra:
    current = base
    for _ in range(steps):
        current = random_double_extension(rng, current)
    return current
