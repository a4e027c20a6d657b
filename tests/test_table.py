"""The canonical integer structure table and form rows, the one stored
form of a ``LieAlgebra`` and of a ``SymBilinearForm``.

Every writer of a table (documents, ``double_extend``, ``change_basis``,
the base of a reduction step) is checked against the validated
constructor rebuilt from the rational ``brackets`` view, and every
table is checked to be canonical: gcd(L, entries) = 1, so L is the
least common denominator of the view. Every writer of form rows
(documents, ``restrict``, ``_assemble``, the base of a reduction step,
``build_ab``, ``build_example42``, ``killing_form``, ``direct_sum``) is
checked the same way against ``SymBilinearForm(form.matrix)``.
"""

import gzip
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from metriclie import cli, documents
from metriclie import linalg as la
from metriclie.catalog import direct_sum, heis3, sl2, su2
from metriclie.core import LieAlgebra, killing_form, killing_matrix
from metriclie.documents import (
    algebra_to_document,
    document_to_algebra,
    emit_document,
    parse_document,
)
from metriclie.einstein import _extension_record, sharpness_search
from metriclie.errors import PreconditionError
from metriclie.forms import MetricLieAlgebra, SymBilinearForm
from metriclie.reduction import (
    DoubleExtensionSpec,
    _reduce_step,
    build_ab,
    build_example42,
    change_basis,
    complete_reduction,
    double_extend,
    iterated_double_extension,
)

from conftest import naive_identity, naive_rank, rand_matrix, random_abelian_base, restrict_form

POOL = Path(__file__).parents[1] / "perfbench" / "pool" / "reduce.json.gz"


def assert_canonical(alg: LieAlgebra) -> None:
    """The table is canonical, mirrored and sparse, and equals the table
    of the validated constructor on the rational view."""
    den, rows = alg.int_table
    n = alg.dim
    assert len(rows) == n and all(len(r) == n for r in rows)
    entries = [t for r in rows for row in r for _, t in row]
    assert den > 0 and math.gcd(den, *entries) == 1
    view = alg.brackets
    assert den == math.lcm(*(c.denominator for v in view.values() for c in v))
    for i in range(n):
        assert rows[i][i] == ()
        for j in range(n):
            ks = [k for k, _ in rows[i][j]]
            assert ks == sorted(set(ks)) and all(isinstance(t, int) and t for _, t in rows[i][j])
            assert rows[j][i] == tuple((k, -t) for k, t in rows[i][j])
    rebuilt = LieAlgebra(n, alg.basis_names, view)
    assert rebuilt.int_table == alg.int_table
    assert rebuilt == alg and hash(rebuilt) == hash(alg)


def assert_canonical_form(form: SymBilinearForm) -> None:
    """The rows are canonical, sorted, sparse and symmetric, and equal
    the rows of the validated constructor on the rational view."""
    den, rows = form.int_rows
    n = form.dim
    assert len(rows) == n
    entries = [t for row in rows for _, t in row]
    assert den > 0 and math.gcd(den, *entries) == 1
    assert den == math.lcm(*(x.denominator for row in form.matrix for x in row))
    for p, row in enumerate(rows):
        qs = [q for q, _ in row]
        assert qs == sorted(set(qs)) and all(0 <= q < n for q in qs)
        assert all(isinstance(t, int) and t for _, t in row)
        assert all((p, t) in rows[q] for q, t in row)
    rebuilt = SymBilinearForm(form.matrix)
    assert rebuilt.int_rows == form.int_rows
    assert rebuilt == form and hash(rebuilt) == hash(form)


def assert_canonical_spec(spec: DoubleExtensionSpec) -> None:
    """Each delta's columns and xi's rows are canonical, the columns equal
    the ones the rational constructor writes from the ``deltas`` view,
    and xi, compared on the integer side, completes that rebuild."""
    for den, rows in (*spec.int_deltas, spec.int_xi):
        assert den > 0 and math.gcd(den, *(t for row in rows for _, t in row)) == 1
        assert all(t and isinstance(t, int) for row in rows for _, t in row)
    assert all(len(cols) == spec.base.dim for _, cols in spec.int_deltas)
    assert len(spec.int_xi[1]) == math.comb(spec.a_dim, 2)
    rebuilt = DoubleExtensionSpec(spec.base, spec.deltas)
    assert rebuilt.int_deltas == spec.int_deltas and rebuilt.deltas == spec.deltas
    assert DoubleExtensionSpec.from_columns(spec.base, rebuilt.int_deltas, spec.int_xi) == spec


def pool_algebras():
    with gzip.open(POOL) as fh:
        pool = json.load(fh)
    assert len(pool) == 211
    return [document_to_algebra(parse_document(entry["doc"]))[:2] for entry in pool]


def test_document_tables_are_canonical_and_match_the_rational_view():
    for alg, _ in pool_algebras():
        assert_canonical(alg)


def test_document_and_killing_forms_are_canonical():
    for alg, form in pool_algebras():
        assert_canonical_form(form)
        kappa = killing_form(alg)
        assert_canonical_form(kappa)
        assert kappa.matrix == killing_matrix(alg)
        assert kappa.is_zero() == la.is_zero_mat(kappa.matrix)


def test_reduction_tables_are_canonical_and_match_the_rational_view():
    # every step of every pool chain: the split written by change_basis,
    # the base read off its rows and the input rebuilt by _assemble
    steps = 0
    for alg, form in pool_algebras()[::3]:
        for step in complete_reduction(MetricLieAlgebra(alg, form)).steps:
            steps += 1
            assert_canonical(step.base.algebra)
            assert_canonical_form(step.base.form)
            assert_canonical_spec(step.spec)
            rebuilt = double_extend(step.spec)
            assert_canonical(rebuilt.algebra)
            assert_canonical_form(rebuilt.form)
            split = change_basis(
                step.original,
                step.duals.vectors + step.complement.vectors + step.ideal.vectors,
                rebuilt.algebra.basis_names,
            )
            assert_canonical_form(split.form)
            assert split.algebra == rebuilt.algebra and split.form == rebuilt.form
            assert _reduce_step(step.original, step.ideal).base == step.base
    assert steps >= 100


def test_seeded_writers_are_canonical_and_match_the_rational_view():
    rng = random.Random(1607)
    for _ in range(60):
        m = iterated_double_extension(rng, random_abelian_base(rng, 5), rng.randint(1, 3))
        assert_canonical(m.algebra)
        assert_canonical_form(m.form)
        n = m.dim
        while True:
            cols = rand_matrix(rng, n)
            if naive_rank(cols) == n:
                break
        moved = change_basis(m, cols, [f"c{i}" for i in range(n)])
        assert_canonical(moved.algebra)
        assert_canonical_form(moved.form)
        # and back: the same algebra and form, so the same table and rows
        back = change_basis(moved, la.inverse(cols), m.algebra.basis_names)
        assert back.algebra == m.algebra and back.form == m.form
        # restrict to a random, possibly dependent, family of vectors
        vecs = rand_matrix(rng, n)[: rng.randint(0, n)]
        assert_canonical_form(restrict_form(moved.form, vecs))


def test_from_rows_normalises_in_one_place():
    upper = {(0, 1): [(0, 0), (2, 8)], (0, 2): [(1, -4)], (1, 2): []}
    alg = LieAlgebra.from_rows(3, "xyz", 12, upper)
    rows = (((), ((2, 2),), ((1, -1),)), (((2, -2),), (), ()), (((1, 1),), (), ()))
    assert alg.int_table == (3, rows)
    assert alg.basis_names == ("x", "y", "z")
    third = Fraction(1, 3)
    assert alg == LieAlgebra(3, ("x", "y", "z"), {(0, 1): (0, 0, 2 * third), (0, 2): (0, -third, 0)})
    abelian = LieAlgebra.from_rows(2, "ab", 7, {(0, 1): [(0, 0)]})
    assert abelian.int_table == (1, (((), ()), ((), ())))
    assert abelian.is_abelian and not alg.is_abelian and abelian.brackets == {}


def test_brackets_is_a_read_only_view():
    alg = build_example42().algebra
    assert alg.brackets[(0, 1)] == la.unit_vec(6, 1)
    with pytest.raises(TypeError):
        alg.brackets[(0, 1)] = la.unit_vec(6, 2)
    assert type(alg)._fields == ("dim", "basis_names", "int_table")


@pytest.mark.parametrize("bad", [{(1, 0): (1, 0)}, {(0, 2): (1, 0)}, {(0, 1): (1,)}])
def test_the_validated_constructor_keeps_its_errors(bad):
    with pytest.raises(ValueError):
        LieAlgebra(2, ("a", "b"), bad)
    with pytest.raises(ValueError, match="one basis name per dimension"):
        LieAlgebra(2, ("a",), {})


def test_each_document_rational_is_parsed_once(monkeypatch, tmp_path):
    """Loading a document reads each rational once (``read_rational``),
    builds a ``Fraction`` only for a string that is not a plain integer,
    formats nothing and builds the form once from integer rows, never by
    the rational constructor."""
    m = build_example42()
    obj = emit_document(algebra_to_document(m.algebra, m.form, "ex"))
    obj["brackets"][0]["coeffs"]["0"] = "0/3"  # a zero entry is read, then dropped
    obj["hints"] = {"nilradical": [[int(i == j) for j in range(6)] for i in range(1, 6)]}
    expected = Counter(
        [f"brackets[{p}].coeffs[{k}]" for p, e in enumerate(obj["brackets"]) for k in e["coeffs"]]
        + [f"form[{i}][{j}]" for i in range(6) for j in range(6)]
        + [f"hints.nilradical[{v}][{c}]" for v in range(5) for c in range(6)]
    )
    assert len(expected) == 6 + 1 + 36 + 30
    path = tmp_path / "ex.json"
    path.write_text(json.dumps(obj))
    read, from_rows = documents.read_rational, SymBilinearForm.from_rows
    calls: Counter = Counter()
    slow: list = []
    builders: Counter = Counter()

    def counted(raw, where):
        calls[where] += 1
        return read(raw, where)

    def counted_fraction(*args):
        slow.append(args)
        return Fraction(*args)

    def counted_rows(*args):
        builders[sys._getframe(1).f_code.co_name] += 1
        return from_rows(*args)

    def no_form(self, matrix):
        raise AssertionError("the rational form constructor ran")

    monkeypatch.setattr(documents, "read_rational", counted)
    monkeypatch.setattr(documents, "Fraction", counted_fraction)
    monkeypatch.setattr(documents, "format_rational", None)  # not on the load path
    monkeypatch.setattr(SymBilinearForm, "from_rows", counted_rows)
    monkeypatch.setattr(SymBilinearForm, "__init__", no_form)
    alg, form, hint, _ = cli._load_algebra(str(path))
    assert calls == expected
    assert slow == [("0/3",)]
    assert builders == {"document_to_algebra": 1}
    assert alg == m.algebra and form == m.form and hint.dim == 5


def test_builders_and_direct_sums_write_canonical_forms():
    for n in range(7):
        for s in range(n + 1):
            m = build_ab(n, s)
            assert_canonical_form(m.form)
            assert m.form.matrix == tuple(
                tuple((1 if i < n - s else -1) if i == j else 0 for j in range(n)) for i in range(n)
            )
    ex = build_example42()
    assert_canonical_form(ex.form)
    partners = (5, 4, 2, 3, 1, 0)
    assert ex.form.int_rows == (1, tuple(((q, 1),) for q in partners))
    for alg in (heis3(), sl2().algebra, su2().algebra, ex.algebra):
        assert_canonical_form(killing_form(alg))
    # a summand with non-unit table and form denominators
    cols = tuple(tuple(Fraction(i + j + 1, 1 + (i * j) % 3) for j in range(6)) for i in range(6))
    moved = change_basis(ex, cols, [f"c{i}" for i in range(6)])
    assert moved.algebra.int_table[0] > 1 and moved.form.int_rows[0] > 1
    pairs = [(sl2(), su2()), (direct_sum(sl2(), su2()), sl2()), (build_ab(3, 1), ex)]
    pairs += [(ex, build_ab(2, 1)), (moved, sl2()), (su2(), moved), (build_ab(0, 0), ex)]
    for left, right in pairs:
        got = direct_sum(left, right)
        assert_canonical(got.algebra)
        assert_canonical_form(got.form)
        # the reference: rational brackets and a block-diagonal Gram matrix
        n1, n = left.dim, left.dim + right.dim
        brackets = {key: v + (0,) * right.dim for key, v in left.algebra.brackets.items()}
        for (i, j), v in right.algebra.brackets.items():
            brackets[(n1 + i, n1 + j)] = (0,) * n1 + v
        gram = [[0] * n for _ in range(n)]
        for off, part in ((0, left), (n1, right)):
            for i, row in enumerate(part.form.matrix):
                gram[off + i][off : off + len(row)] = row
        assert got.algebra == LieAlgebra(n, got.algebra.basis_names, brackets)
        assert got.form == SymBilinearForm(gram)


def test_from_rows_normalises_the_form_in_one_place():
    form = SymBilinearForm.from_rows(3, 12, [[(0, 6), (1, 0)], [], [(2, -4)]])
    assert form.int_rows == (6, (((0, 3),), (), ((2, -2),)))
    third = Fraction(1, 3)
    assert form == SymBilinearForm(((Fraction(1, 2), 0, 0), (0, 0, 0), (0, 0, -third)))
    zero = SymBilinearForm.from_rows(2, 5, [[(0, 0)], []])
    assert zero.int_rows == (1, ((), ())) and zero.is_zero() and not form.is_zero()
    empty = restrict_form(build_ab(3, 1).form, ())
    assert empty.dim == 0 and empty.int_rows == (1, ()) and empty.matrix == ()
    assert type(form)._fields == ("dim", "int_rows")
    assert form.matrix is form.matrix
    before = form.matrix
    with pytest.raises(AttributeError):
        form.matrix = naive_identity(3)
    assert form.matrix is before and form.int_rows == (6, (((0, 3),), (), ((2, -2),)))


@pytest.mark.parametrize("bad", [((1, 2), (3, 1)), ((1, 2),), ((1, 0), (0,)), ((0, 1, 0),) * 2])
def test_the_form_constructor_keeps_its_errors(bad):
    with pytest.raises(ValueError):
        SymBilinearForm(bad)


def test_double_extension_specs_hold_integer_columns():
    base = build_ab(2, 1)
    half = Fraction(1, 2)
    spec = DoubleExtensionSpec(base, (((0, half), (half, 0)),))
    assert type(spec)._fields == ("base", "int_deltas", "int_xi")
    assert spec.int_xi == (1, ()) and not hasattr(spec, "a_bracket")
    assert spec.int_deltas == ((2, (((1, 1),), ((0, 1),))),)
    assert spec.deltas == (((0, half), (half, 0)),) and spec.a_dim == 1
    same = DoubleExtensionSpec.from_columns(base, [(4, [[(1, 2)], [(0, 2)]])])
    assert same == spec and double_extend(same) == double_extend(spec)
    with pytest.raises(PreconditionError, match="delta matrix size does not match the base"):
        DoubleExtensionSpec(base, (naive_identity(3),))
    with pytest.raises(PreconditionError, match="not skew with respect to the base form"):
        double_extend(DoubleExtensionSpec(base, (naive_identity(2),)))


def test_extend_errors_keep_their_messages(capsys, tmp_path):
    not_skew = tmp_path / "not_skew.json"
    not_skew.write_text(json.dumps([[1, 0], [0, 1]]))
    wrong_size = tmp_path / "wrong_size.json"
    wrong_size.write_text(json.dumps([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    expected = {
        not_skew: "error: delta is not skew with respect to the base form\n",
        wrong_size: f"error: {wrong_size}: delta must be a 2x2 matrix\n",
    }
    for path, err in expected.items():
        assert cli.main(["extend", "--base", "ab(2,1)", "--delta", str(path)]) == 2
        assert capsys.readouterr() == ("", err)


def test_the_rational_form_constructor_never_runs_on_the_cli_path(monkeypatch, capsys, tmp_path):
    """On ``analyze`` and ``complete-reduce`` of a pool document, the
    loaded form is built once from the document's integer rows, the
    validated ``SymBilinearForm`` and rational ``DoubleExtensionSpec``
    constructors never run, and ``la.to_int_rows`` rescales only the
    rational vectors given from outside (``_int_rows_of``: the reduction
    line of ``complete_reduction``). Documents, subspaces, Gram matrices,
    basis changes, diagonalizations and the pairing system's solution
    are never rescaled."""
    with gzip.open(POOL) as fh:
        pool = json.load(fh)
    counts: Counter = Counter()
    callers: Counter = Counter()
    form_init, form_rows, spec_init, to_int_rows = (
        SymBilinearForm.__init__,
        SymBilinearForm.from_rows,
        DoubleExtensionSpec.__init__,
        la.to_int_rows,
    )

    def counted_form(self, matrix):
        counts["form"] += 1
        form_init(self, matrix)

    def counted_rows(*args):
        counts[f"from_rows:{sys._getframe(1).f_code.co_name}"] += 1
        return form_rows(*args)

    def counted_spec(self, *args, **kwargs):
        counts["spec"] += 1
        spec_init(self, *args, **kwargs)

    def recorded(rows):
        callers[sys._getframe(1).f_code.co_qualname] += 1
        return to_int_rows(rows)

    monkeypatch.setattr(SymBilinearForm, "__init__", counted_form)
    monkeypatch.setattr(SymBilinearForm, "from_rows", counted_rows)
    monkeypatch.setattr(DoubleExtensionSpec, "__init__", counted_spec)
    monkeypatch.setattr(la, "to_int_rows", recorded)
    reductions = 0
    for entry in pool[::20]:
        path = tmp_path / f"{entry['id']}.json"
        path.write_text(json.dumps(entry["doc"]))
        for command in ("analyze", "complete-reduce"):
            counts.clear()
            callers.clear()
            assert cli.main([command, str(path), "--format", "json"]) == 0
            out = json.loads(capsys.readouterr().out)["results"]
            assert counts["from_rows:document_to_algebra"] == 1
            assert not {"form", "spec"} & set(counts)
            assert set(callers) <= {"_int_rows_of"}
            reductions += command == "complete-reduce" and out["steps"] > 0
    assert reductions >= 10


def _stack_names() -> set[str]:
    """The names of the functions on the stack above the caller."""
    frame, names = sys._getframe(2), set()
    while frame is not None:
        names.add(frame.f_code.co_name)
        frame = frame.f_back
    return names


def test_the_write_path_makes_no_fraction_round_trip(monkeypatch):
    """Over the search workload's arguments every sample, one-step or
    two-step, enters its extension as integer columns, never through the
    rational spec constructor, and neither ``_traceless_skew_map`` nor
    ``einstein_check`` converts anything with ``la.mat_over``; nor does
    ``_reduce_step`` on the pool's chains. The extension memo is cleared
    first, so every distinct one-step sample is built under the counters."""
    _extension_record.cache_clear()
    spec_callers: Counter = Counter()
    converters: Counter = Counter()
    spec_init, mat_over = DoubleExtensionSpec.__init__, la.mat_over

    def counted_spec(self, *args, **kwargs):
        spec_callers[sys._getframe(1).f_code.co_name] += 1
        spec_init(self, *args, **kwargs)

    def counted_mat_over(rows, den):
        converters.update(_stack_names() & {"einstein_check", "_reduce_step", "_traceless_skew_map"})
        return mat_over(rows, den)

    monkeypatch.setattr(DoubleExtensionSpec, "__init__", counted_spec)
    monkeypatch.setattr(la, "mat_over", counted_mat_over)
    kinds = Counter(
        hit["spec"].split(" dim")[0]
        for seed in range(1, 31)
        for hit in sharpness_search((3, 8), (1, 2), 20, seed).hits
    )
    assert kinds["random one-step"] > 0 and kinds["iterated-2"] > 0
    assert spec_callers == Counter()
    steps = 0
    for alg, form in pool_algebras():
        steps += len(complete_reduction(MetricLieAlgebra(alg, form)).steps)
    assert steps > 200 and converters == {}
