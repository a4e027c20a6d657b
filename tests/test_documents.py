import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclie.documents import (
    AlgebraDocument,
    algebra_to_document,
    document_to_algebra,
    emit_document,
    load_document,
    parse_document,
    parse_rational,
)
from metriclie.errors import DocumentError
from metriclie.reduction import build_example42


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
).map(lambda f: str(Fraction(f)))


@st.composite
def documents(draw):
    dim = draw(st.integers(min_value=0, max_value=5))
    basis = [f"e{i}" for i in range(dim)]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    brackets = []
    for (i, j) in sorted(chosen):
        ks = draw(
            st.lists(st.integers(min_value=0, max_value=dim - 1), unique=True)
        )
        coeffs = {}
        for k in ks:
            c = draw(rationals)
            if Fraction(c) != 0:
                coeffs[str(k)] = c
        brackets.append({"i": i, "j": j, "coeffs": coeffs})
    form = None
    if draw(st.booleans()) and dim > 0:
        half = [[draw(rationals) for _ in range(dim)] for _ in range(dim)]
        form = [
            [half[min(i, j)][max(i, j)] for j in range(dim)] for i in range(dim)
        ]
    return {
        "name": draw(st.text(min_size=1, max_size=8)),
        "dim": dim,
        "basis": basis,
        "brackets": brackets,
        "form": form,
    }


@given(documents())
@settings(max_examples=120, deadline=None)
def test_parse_emit_round_trip(doc_obj):
    doc = parse_document(doc_obj)
    assert parse_document(emit_document(doc)) == doc
    # and through actual JSON text
    assert parse_document(json.loads(json.dumps(emit_document(doc)))) == doc


def test_parse_rational_shorthands():
    assert parse_rational(3, "x") == Fraction(3)
    assert parse_rational("-2", "x") == Fraction(-2)
    assert parse_rational(" 3/4 ", "x") == Fraction(3, 4)
    with pytest.raises(DocumentError):
        parse_rational(1.5, "x")
    with pytest.raises(DocumentError):
        parse_rational(True, "x")


def test_algebra_document_round_trip_example42():
    m = build_example42()
    doc = algebra_to_document(m.algebra, m.form, name="example42")
    alg, form, hint = document_to_algebra(doc)
    assert alg.dim == m.algebra.dim
    assert alg.brackets == m.algebra.brackets
    assert form.matrix == m.form.matrix
    assert hint is None
    assert algebra_to_document(alg, form, name="example42") == doc


def test_nilradical_hint_parsed():
    m = build_example42()
    doc_obj = emit_document(algebra_to_document(m.algebra, m.form, "ex"))
    doc_obj["hints"] = {
        "nilradical": [
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ]
    }
    _, _, hint = document_to_algebra(parse_document(doc_obj))
    assert hint is not None and hint.dim == 5


@pytest.mark.parametrize(
    "mutation,fragment",
    [
        (lambda d: d.pop("dim"), "missing required field"),
        (lambda d: d.__setitem__("dim", -1), "non-negative"),
        (lambda d: d["basis"].pop(), "list of dim strings"),
        (
            lambda d: d["brackets"].append({"i": 1, "j": 1, "coeffs": {}}),
            "0 <= i < j",
        ),
        (
            lambda d: d["brackets"].append({"i": 0, "j": 1, "coeffs": {"9": "1"}}),
            "out of range",
        ),
        (
            lambda d: d.__setitem__("form", [["1", "2"], ["0", "1"]]),
            "not symmetric",
        ),
    ],
)
def test_parse_errors_are_located(mutation, fragment):
    doc = {
        "name": "t",
        "dim": 2,
        "basis": ["a", "b"],
        "brackets": [],
        "form": None,
    }
    mutation(doc)
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert fragment in str(err.value)


def _three_dim_doc(*brackets):
    return {"name": "t", "dim": 3, "basis": ["a", "b", "c"], "brackets": list(brackets)}


def test_a_bracket_given_twice_is_rejected():
    once = {"i": 0, "j": 1, "coeffs": {"2": "1"}}
    assert parse_document(_three_dim_doc(once)).brackets == ((0, 1, ((2, Fraction(1)),)),)
    twice = _three_dim_doc(once, {"i": 0, "j": 1, "coeffs": {"2": "5"}})
    with pytest.raises(DocumentError, match=r"brackets\[1\]: bracket \(0,1\) is given twice"):
        parse_document(twice)
    # the repeat is found whatever the order, and even with zero data
    with pytest.raises(DocumentError, match="given twice"):
        parse_document(_three_dim_doc({"i": 1, "j": 2}, once, {"i": "0", "j": 1, "coeffs": {}}))


def test_a_coefficient_index_given_twice_is_rejected():
    # "2" and "02" name one index after int(); a zero value still counts
    for first in ("5", "0"):
        doc = _three_dim_doc({"i": 0, "j": 1, "coeffs": {"2": first, "02": "7"}})
        with pytest.raises(DocumentError, match=r"brackets\[0\]\.coeffs: index 2 is given twice"):
            parse_document(doc)
    distinct = _three_dim_doc({"i": 0, "j": 1, "coeffs": {"2": "5", "01": "7"}})
    assert parse_document(distinct).brackets == ((0, 1, ((1, Fraction(7)), (2, Fraction(5)))),)


# JSON text, since a Python dict cannot hold a repeated key
REPEATED_COEFF = (
    '{"name": "t", "dim": 3, "basis": ["a", "b", "c"], '
    '"brackets": [{"i": 0, "j": 1, "coeffs": {"2": "5", "2": "7"}}]}'
)
REPEATED_FORM = (
    '{"name": "t", "dim": 2, "basis": ["a", "b"], "brackets": [], '
    '"form": [["1", "0"], ["0", "1"]], "form": [["0", "1"], ["1", "0"]]}'
)


def test_a_key_repeated_in_one_object_is_rejected(tmp_path):
    for text, key in ((REPEATED_COEFF, "'2'"), (REPEATED_FORM, "'form'")):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(DocumentError, match=f"key {key} is given twice in one object"):
            load_document(str(path))
    # the same key in two different objects is no repeat
    path.write_text(REPEATED_COEFF.replace('"2": "7"', '"1": "7"'))
    assert load_document(str(path)).brackets == ((0, 1, ((1, Fraction(7)), (2, Fraction(5)))),)
