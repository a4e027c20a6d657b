import json
import sys
from fractions import Fraction

import pytest

from metriclie import cli, core, semisimple
from metriclie import linalg as la
from metriclie.catalog import direct_sum, heis3, sl2, su2
from metriclie.core import killing_matrix
from metriclie.errors import PreconditionError
from metriclie.forms import MetricLieAlgebra, SymBilinearForm
from metriclie.semisimple import (
    compact_split,
    simple_decomposition,
    split_form_report,
)


def _sum_with_form(c: Fraction) -> MetricLieAlgebra:
    """su2 + sl2 with the positive definite form on su2 and c * Killing
    on sl2."""
    g = direct_sum(su2(), sl2()).algebra
    ksl2 = killing_matrix(sl2().algebra)
    rows = []
    for i in range(6):
        row = [Fraction(0)] * 6
        if i < 3:
            row[i] = Fraction(1)
        else:
            for j in range(3, 6):
                row[j] = c * ksl2[i - 3][j - 3]
        rows.append(tuple(row))
    return MetricLieAlgebra(g, SymBilinearForm(tuple(rows)))


def test_simple_algebras_are_single_ideals():
    assert [i.dim for i in simple_decomposition(su2().algebra)] == [3]
    assert [i.dim for i in simple_decomposition(sl2().algebra)] == [3]


def test_degenerate_killing_rejected():
    with pytest.raises(PreconditionError):
        simple_decomposition(heis3())


def test_su2_is_compact_sl2_is_not():
    s = compact_split(su2().algebra)
    assert s.compact_part.dim == 3 and s.noncompact_part.dim == 0
    s = compact_split(sl2().algebra)
    assert s.compact_part.dim == 0 and s.noncompact_part.dim == 3


def test_direct_sum_splits_into_both_ideals():
    g = direct_sum(su2(), sl2()).algebra
    ideals = simple_decomposition(g)
    assert sorted(i.dim for i in ideals) == [3, 3]
    split = compact_split(g)
    assert split.compact_part.dim == 3
    assert split.noncompact_part.dim == 3
    # the compact part is the su2 block (first three coordinates)
    for v in split.compact_part.vectors:
        assert all(v[j] == 0 for j in range(3, 6))
    for v in split.noncompact_part.vectors:
        assert all(v[j] == 0 for j in range(3))


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(2), Fraction(-3)])
def test_split_form_report_recovers_constant(c):
    m = _sum_with_form(c)
    rep = split_form_report(m, compact_split(m.algebra))
    assert rep.s_invariant
    assert rep.k_perp_s
    assert rep.s_cap_radical_zero
    assert rep.ideal_constants == (c,)
    assert rep.uniform_constant == c


def test_split_form_report_rejects_non_invariant_form():
    m = _sum_with_form(Fraction(1))
    bad = [list(r) for r in m.form.matrix]
    bad[3][4] = bad[4][3] = Fraction(1)
    broken = MetricLieAlgebra(m.algebra, SymBilinearForm(tuple(tuple(r) for r in bad)))
    with pytest.raises(PreconditionError):
        split_form_report(broken, compact_split(broken.algebra))


def test_split_form_report_flags_radical_overlap():
    # form vanishing identically on the noncompact part
    g = direct_sum(su2(), sl2()).algebra
    rows = []
    for i in range(6):
        row = [Fraction(0)] * 6
        if i < 3:
            row[i] = Fraction(1)
        rows.append(tuple(row))
    rep = split_form_report(MetricLieAlgebra(g, SymBilinearForm(tuple(rows))), compact_split(g))
    assert not rep.s_cap_radical_zero


def test_split_semisimple_decomposes_once(monkeypatch, capsys):
    calls = []
    real = semisimple.compact_split

    def counted(alg):
        calls.append(alg.dim)
        return real(alg)

    monkeypatch.setattr(semisimple, "compact_split", counted)
    monkeypatch.setattr(cli, "compact_split", counted)
    assert cli.main(["split-semisimple", "sl2", "--format", "json"]) == 0
    assert "form_report" in json.loads(capsys.readouterr().out)["results"]
    assert calls == [3]


def test_compact_split_forms_no_ad_matrix(monkeypatch):
    def no_ad(*args):
        raise AssertionError("ad called inside compact_split")

    real = core.ad
    for module in list(sys.modules.values()):
        if module.__name__.startswith("metriclie") and getattr(module, "ad", None) is real:
            monkeypatch.setattr(module, "ad", no_ad)
    split = compact_split(direct_sum(su2(), sl2()).algebra)
    assert split.compact_part.dim == 3 and split.noncompact_part.dim == 3


def test_split_form_report_forms_no_ad_matrix(monkeypatch):
    m = _sum_with_form(Fraction(2))
    bad = [list(r) for r in m.form.matrix]
    bad[3][4] = bad[4][3] = Fraction(1)
    broken = MetricLieAlgebra(m.algebra, SymBilinearForm(tuple(tuple(r) for r in bad)))
    split = compact_split(m.algebra)

    def forbidden(*args):
        raise AssertionError("dense ad matrix or residual formed")

    real = core.ad
    for module in list(sys.modules.values()):
        if module.__name__.startswith("metriclie") and getattr(module, "ad", None) is real:
            monkeypatch.setattr(module, "ad", forbidden)
    monkeypatch.setattr(la, "mat_sub", forbidden)
    rep = split_form_report(m, split)
    assert rep.s_invariant and rep.ideal_constants == (Fraction(2),)
    # the first witness in row-major order, with x printed as rationals
    with pytest.raises(PreconditionError, match=r"witness \(x, e4, e5\) with x = \[0, 0, 0, 1, 0, 0\]$"):
        split_form_report(broken, split)
