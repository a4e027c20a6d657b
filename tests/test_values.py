"""Value semantics of the package's result types, and what importing
the package loads.

Plain records are ``typing.NamedTuple``s, whose ``_fields`` fix the
positional constructor order. The classes that keep cached data or
validate on construction derive from ``core.Frozen``: assignment and
deletion raise ``AttributeError``, and ``==``, ``hash`` and ``repr``
read their ``_fields``, ``==`` only between values of one class.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from metriclie import core, documents, einstein, forms, obstruction, reduction, semisimple
from metriclie.core import Frozen, LieAlgebra, LinearMap, SubspaceBasis
from metriclie.einstein import EinsteinReport, TorusLeaf, TriangularNode
from metriclie.forms import MetricLieAlgebra, SymBilinearForm
from metriclie.reduction import DoubleExtensionSpec

ROOT = Path(__file__).resolve().parents[1]

RECORD_FIELDS = {
    core.ValidationReport: ("passed", "violations"),
    core.JordanPair: ("semisimple", "nilpotent"),
    core.SeriesReport: ("derived_series", "is_solvable", "is_nilpotent", "is_abelian"),
    documents.AlgebraDocument: ("name", "dim", "basis", "brackets", "form", "hints"),
    einstein.EigenvalueData: ("reals", "complex_pairs"),
    einstein.TraceIdentityReport: ("value", "holds", "spectrum_value"),
    einstein.TorusLeaf: ("rotations", "padding"),
    einstein.BoundsCertificate: (
        "element", "semisimple_part", "w0", "w1", "nilrad", "central_ideal",
        "isotropic_line", "isotropic_subspace", "dim", "dim_nilradical", "witt_index",
    ),
    einstein.SearchResult: ("examined", "hits"),
    forms.Signature: ("p", "q", "r"),
    forms.WittBasis: ("v", "w", "v_star", "w_diagonal"),
    forms.InvarianceReport: ("passed", "witness"),
    obstruction.AlgebraicNumber: ("value", "minpoly", "enclosure"),
    obstruction.ObstructionReport: (
        "input_spectrum", "n", "case_tag", "exp_eigenvalue_patterns", "verdict",
        "rule_cited", "hypothesis_checks",
    ),
    obstruction.RelationBasis: ("relations", "field_degree", "quadratic_identity_holds"),
    obstruction.ProbePoint: ("t", "trivially_integral", "integrality_excluded"),
    obstruction.ProbeReport: ("points", "precision_bits"),
    reduction.ReductionStep: ("original", "ideal", "duals", "complement", "base", "spec"),
    reduction.ReductionChain: ("steps", "final"),
    semisimple.SplitResult: ("simple_ideals", "compact_part", "noncompact_part", "killing"),
    semisimple.SplitFormReport: (
        "s_invariant", "k_perp_s", "s_cap_radical_zero", "ideal_constants", "uniform_constant",
    ),
}


def test_records_are_named_tuples_with_fixed_fields():
    for cls, fields in RECORD_FIELDS.items():
        assert issubclass(cls, tuple) and cls._fields == fields, cls.__name__
    # the verdict records are false when their check failed
    for cls in (core.ValidationReport, forms.InvarianceReport):
        assert cls(True, ()) and not cls(False, ())
    assert einstein.TorusLeaf() == ((), 0)
    assert einstein.TraceIdentityReport(0, True).spectrum_value is None
    assert documents.AlgebraDocument("g", 0, (), (1, ()))[4:] == (None, None)


HALF = Fraction(1, 2)


def _base() -> MetricLieAlgebra:
    return MetricLieAlgebra(LieAlgebra(2, ("p", "q")), SymBilinearForm(((0, 1), (1, 0))))


# each factory makes a fresh value from the same data, with its repr
FROZEN = {
    LinearMap: (
        lambda: LinearMap(((1, HALF), (0, 2))),
        "LinearMap(matrix=((Fraction(1, 1), Fraction(1, 2)), (Fraction(0, 1), Fraction(2, 1))))",
    ),
    SubspaceBasis: (
        lambda: SubspaceBasis(3, [(2, 0, 0), (0, HALF, HALF)]),
        "SubspaceBasis(ambient_dim=3, int_rows=(2, (((0, 4),), ((1, 1), (2, 1)))))",
    ),
    LieAlgebra: (
        lambda: LieAlgebra(3, ("x", "y", "z"), {(0, 1): (0, 0, HALF)}),
        "LieAlgebra(dim=3, basis_names=('x', 'y', 'z'), "
        "int_table=(2, (((), ((2, 1),), ()), (((2, -1),), (), ()), ((), (), ()))))",
    ),
    SymBilinearForm: (
        lambda: SymBilinearForm(((0, 1), (1, 0))),
        "SymBilinearForm(dim=2, int_rows=(1, (((1, 1),), ((0, 1),))))",
    ),
    MetricLieAlgebra: (
        _base,
        "MetricLieAlgebra(algebra=LieAlgebra(dim=2, basis_names=('p', 'q'), "
        "int_table=(1, (((), ()), ((), ())))), "
        "form=SymBilinearForm(dim=2, int_rows=(1, (((1, 1),), ((0, 1),)))))",
    ),
    DoubleExtensionSpec: (
        lambda: DoubleExtensionSpec(_base(), (((HALF, 0), (0, -HALF)),)),
        "DoubleExtensionSpec(base=MetricLieAlgebra(algebra=LieAlgebra(dim=2, "
        "basis_names=('p', 'q'), int_table=(1, (((), ()), ((), ())))), "
        "form=SymBilinearForm(dim=2, int_rows=(1, (((1, 1),), ((0, 1),))))), "
        "int_deltas=((2, (((0, 1),), ((1, -1),))),), int_xi=(1, ()))",
    ),
    EinsteinReport: (
        lambda: EinsteinReport((4, [[0, 1], [1, 0]]), True, Fraction(-1, 8)),
        "EinsteinReport(killing=(4, ((0, 1), (1, 0))), einstein=True, constant=Fraction(-1, 8))",
    ),
    TriangularNode: (
        lambda: TriangularNode(((HALF,),), TorusLeaf((2,), 1)),
        "TriangularNode(a_block=((Fraction(1, 2),),), inner=TorusLeaf(rotations=(2,), padding=1))",
    ),
}


def _twin(value: Frozen) -> Frozen:
    """A value of another ``Frozen`` class holding the same fields."""
    twin = object.__new__(type("Twin", (Frozen,), {"_fields": type(value)._fields}))
    for name in type(value)._fields:
        object.__setattr__(twin, name, getattr(value, name))
    return twin


@pytest.mark.parametrize("cls", list(FROZEN), ids=lambda cls: cls.__name__)
def test_frozen_values(cls):
    make, text = FROZEN[cls]
    value, same = make(), make()
    assert type(value) is cls and issubclass(cls, Frozen) and value is not same
    assert repr(value) == text
    assert value == same and not value != same
    assert hash(value) == hash(same)
    twin = _twin(value)
    assert value != twin and twin != value and repr(twin).startswith("Twin(")
    for name in cls._fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "extra")
    assert value == same and repr(value) == text


def test_import_leaves_out_dataclasses_inspect_and_difflib():
    code = (
        "import json, sys\n"
        "import metriclie, metriclie.cli\n"
        "print(json.dumps(sorted(m for m in ('dataclasses', 'inspect', 'difflib') if m in sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
