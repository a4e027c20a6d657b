"""The canonical integer structure table, the one stored form of a
``LieAlgebra``.

Every writer of a table (documents, ``double_extend``, ``change_basis``,
the base of a reduction step) is checked against the validated
constructor rebuilt from the rational ``brackets`` view, and every
table is checked to be canonical: gcd(L, entries) = 1, so L is the
least common denominator of the view.
"""

import dataclasses
import gzip
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from metriclie import cli, documents
from metriclie import linalg as la
from metriclie.core import LieAlgebra
from metriclie.documents import (
    algebra_to_document,
    document_to_algebra,
    emit_document,
    parse_document,
)
from metriclie.forms import MetricLieAlgebra
from metriclie.reduction import (
    _reduce_step,
    build_example42,
    change_basis,
    complete_reduction,
    double_extend,
    iterated_double_extension,
)

from conftest import naive_rank, rand_matrix, random_abelian_base

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


def pool_algebras():
    with gzip.open(POOL) as fh:
        pool = json.load(fh)
    assert len(pool) == 211
    return [document_to_algebra(parse_document(entry["doc"]))[:2] for entry in pool]


def test_document_tables_are_canonical_and_match_the_rational_view():
    for alg, _ in pool_algebras():
        assert_canonical(alg)


def test_reduction_tables_are_canonical_and_match_the_rational_view():
    # every step of every pool chain: the split written by change_basis,
    # the base read off its rows and the input rebuilt by _assemble
    steps = 0
    for alg, form in pool_algebras()[::3]:
        for step in complete_reduction(MetricLieAlgebra(alg, form)).steps:
            steps += 1
            assert_canonical(step.base.algebra)
            rebuilt = double_extend(step.spec)
            assert_canonical(rebuilt.algebra)
            split = change_basis(
                step.original,
                step.duals + step.complement + step.ideal.vectors,
                rebuilt.algebra.basis_names,
            )
            assert split.algebra == rebuilt.algebra
            assert _reduce_step(step.original, step.ideal).base == step.base
    assert steps >= 100


def test_seeded_writers_are_canonical_and_match_the_rational_view():
    rng = random.Random(1607)
    for _ in range(60):
        m = iterated_double_extension(rng, random_abelian_base(rng, 5), rng.randint(1, 3))
        assert_canonical(m.algebra)
        n = m.dim
        while True:
            cols = rand_matrix(rng, n)
            if naive_rank(cols) == n:
                break
        moved = change_basis(m, cols, [f"c{i}" for i in range(n)])
        assert_canonical(moved.algebra)
        # and back: the same algebra, so the same table
        back = change_basis(moved, la.inverse(cols), m.algebra.basis_names)
        assert back.algebra == m.algebra


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
    assert [f.name for f in dataclasses.fields(alg)] == ["dim", "basis_names", "int_table"]


@pytest.mark.parametrize("bad", [{(1, 0): (1, 0)}, {(0, 2): (1, 0)}, {(0, 1): (1,)}])
def test_the_validated_constructor_keeps_its_errors(bad):
    with pytest.raises(ValueError):
        LieAlgebra(2, ("a", "b"), bad)
    with pytest.raises(ValueError, match="one basis name per dimension"):
        LieAlgebra(2, ("a",), {})


def test_each_document_rational_is_parsed_once(monkeypatch, tmp_path):
    m = build_example42()
    obj = emit_document(algebra_to_document(m.algebra, m.form, "ex"))
    obj["brackets"][0]["coeffs"]["0"] = "0"  # a zero entry is parsed, then dropped
    obj["hints"] = {"nilradical": [[int(i == j) for j in range(6)] for i in range(1, 6)]}
    expected = Counter(
        [f"brackets[{p}].coeffs[{k}]" for p, e in enumerate(obj["brackets"]) for k in e["coeffs"]]
        + [f"form[{i}][{j}]" for i in range(6) for j in range(6)]
        + [f"hints.nilradical[{v}][{c}]" for v in range(5) for c in range(6)]
    )
    assert len(expected) == 6 + 1 + 36 + 30
    path = tmp_path / "ex.json"
    path.write_text(json.dumps(obj))
    real = documents.parse_rational
    calls: Counter = Counter()

    def counted(raw, where):
        calls[where] += 1
        return real(raw, where)

    monkeypatch.setattr(documents, "parse_rational", counted)
    monkeypatch.setattr(documents, "format_rational", None)  # not on the load path
    alg, form, hint, _ = cli._load_algebra(str(path))
    assert calls == expected
    assert alg == m.algebra and form == m.form and hint.dim == 5
