import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclie import linalg as la
from metriclie.documents import (
    AlgebraDocument,
    algebra_to_document,
    document_to_algebra,
    emit_document,
    load_document,
    parse_document,
    read_rational,
)
from metriclie.errors import DocumentError
from metriclie.reduction import build_example42


def _spellings(f: Fraction):
    """Ways a document may write f: canonical, padded, unreduced, and a
    JSON integer when f is one."""
    ways = [st.just(str(f)), st.just(f" {f}\t"), st.just(f"{3 * f.numerator}/{3 * f.denominator}")]
    if f.denominator == 1:
        ways += [st.just(f.numerator), st.just(f"+{f.numerator}".replace("+-", "-"))]
    return st.one_of(ways)


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6).flatmap(_spellings)


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
    hints = None
    if draw(st.booleans()) and dim > 0:
        vectors = st.lists(st.lists(rationals, min_size=dim, max_size=dim), max_size=3)
        hints = {"nilradical": draw(vectors), "note": "kept"}
    return {
        "name": draw(st.text(min_size=1, max_size=8)),
        "dim": dim,
        "basis": basis,
        "brackets": brackets,
        "form": form,
        "hints": hints,
    }


def _value(raw) -> Fraction:
    return Fraction(raw.strip()) if isinstance(raw, str) else Fraction(raw)


@given(documents())
@settings(max_examples=120, deadline=None)
def test_parse_emit_round_trip(doc_obj):
    doc = parse_document(doc_obj)
    assert parse_document(emit_document(doc)) == doc
    # and through actual JSON text
    assert parse_document(json.loads(json.dumps(emit_document(doc)))) == doc
    # the integer rows hold the values the document wrote
    alg, form, _ = document_to_algebra(doc)
    for entry in doc_obj["brackets"]:
        expected = [0] * doc.dim
        for k, raw in entry["coeffs"].items():
            expected[int(k)] = _value(raw)
        got = alg.brackets.get((entry["i"], entry["j"]), (0,) * doc.dim)
        assert list(got) == expected
    if doc_obj["form"] is not None:
        assert form.matrix == tuple(tuple(map(_value, row)) for row in doc_obj["form"])
    if doc_obj["hints"] is not None:
        den, rows = doc.hints["nilradical"]
        written = [[_value(raw) for raw in v] for v in doc_obj["hints"]["nilradical"]]
        assert [list(v) for v in la.mat_over(la.dense(rows, doc.dim), den)] == written
        assert emit_document(doc)["hints"]["note"] == "kept"


def _fraction_reference(raw):
    """``Fraction(raw.strip())`` for a string and ``Fraction(raw)`` for
    an int that is no bool, with the message ``read_rational`` must give
    when ``Fraction`` raises; the message alone for any other type."""
    if isinstance(raw, bool):
        return None, "x: boolean is not a rational"
    if isinstance(raw, int):
        return Fraction(raw), None
    if not isinstance(raw, str):
        return None, f"x: rationals must be strings like '3/4' or integers, got {type(raw).__name__}"
    try:
        return Fraction(raw.strip()), None
    except (ValueError, ZeroDivisionError) as exc:
        return None, f"x: bad rational {raw!r} ({exc})"


# the grammar of Fraction strings, with its near misses: signs, spaces,
# leading zeros, underscores, decimals, exponents, p/0, non-ASCII digits
_spaces = st.sampled_from(["", " ", "  ", "\t", "\n ", "\xa0", "\u2003"])
_digits = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=6),
    st.sampled_from(["0", "00", "007", "1_000", "1__0", "_1", "1_", "٣", "١٢", "１２", "²", "1٣"]),
)
_numbers = st.one_of(
    _digits,
    st.builds(lambda a, b: f"{a}.{b}", st.sampled_from(["", "0", "12", "1_2"]), st.sampled_from(["", "5", "25", "0_5"])),
    st.builds(lambda m, e, x: f"{m}{e}{x}", _digits, st.sampled_from(["e", "E", "e+", "e-", "e--"]), _digits),
)
rational_strings = st.builds(
    lambda lead, sign, num, slash, trail: f"{lead}{sign}{num}{slash}{trail}",
    _spaces,
    st.sampled_from(["", "+", "-", "+-", "--", " -", "- "]),
    _numbers,
    st.one_of(
        st.just(""),
        st.builds(lambda s, d: f"/{s}{d}", st.sampled_from(["", "-", "+", " "]), _digits),
        st.sampled_from(["/0", "/00", "/", "/1.5", "/ 3"]),
    ),
    _spaces,
)
integer_strings = st.builds(
    lambda lead, sign, digits, trail: f"{lead}{sign}{digits}{trail}",
    _spaces,
    st.sampled_from(["", "+", "-"]),
    st.text(alphabet="0123456789", min_size=1, max_size=30),
    _spaces,
)
raw_values = st.one_of(
    rational_strings,
    integer_strings,
    st.text(max_size=8),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.booleans(),
    st.floats(allow_nan=False),
    st.sampled_from([None, [], {}, ["1"], "1" * 5000, "-" + "1" * 5000, "1/" + "2" * 5000]),
)


@given(raw_values)
@settings(max_examples=1500, deadline=None)
def test_read_rational_matches_fraction(raw):
    value, message = _fraction_reference(raw)
    if message is None:
        assert read_rational(raw, "x") == (value.numerator, value.denominator)
    else:
        with pytest.raises(DocumentError) as err:
            read_rational(raw, "x")
        assert str(err.value) == message


def test_parse_rational_shorthands():
    assert read_rational(3, "x") == (3, 1)
    assert read_rational("-2", "x") == (-2, 1)
    assert read_rational(" 3/4 ", "x") == (3, 4)
    assert read_rational("6/4", "x") == (3, 2)
    with pytest.raises(DocumentError):
        read_rational(1.5, "x")
    with pytest.raises(DocumentError):
        read_rational(True, "x")


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


def test_form_symmetry_compares_values():
    doc = {"name": "t", "dim": 3, "basis": ["a", "b", "c"], "brackets": []}
    # equal numerators over other denominators are no mirror image
    doc["form"] = [["1", "1/2", "0"], ["1/3", "1", "0"], ["0", "0", "1"]]
    with pytest.raises(DocumentError, match=r"^form: not symmetric at \(0,1\)$"):
        parse_document(doc)
    # the first asymmetric pair in row-major order is named
    doc["form"] = [[0, 1, 2], [1, 0, 4], [5, 3, 0]]
    with pytest.raises(DocumentError, match=r"^form: not symmetric at \(0,2\)$"):
        parse_document(doc)
    # equal values spelled differently are symmetric
    doc["form"] = [["1", "2/4", 0], [" 0.5 ", "1", "-3"], [0, "-6/2", "1e0"]]
    form = document_to_algebra(parse_document(doc))[1]
    half = Fraction(1, 2)
    assert form.matrix == ((1, half, 0), (half, 1, -3), (0, -3, 1))
    assert parse_document(doc).form == (2, (((0, 2), (1, 1)), ((0, 1), (1, 2), (2, -6)), ((1, -6), (2, 2))))


def _three_dim_doc(*brackets):
    return {"name": "t", "dim": 3, "basis": ["a", "b", "c"], "brackets": list(brackets)}


def test_a_bracket_given_twice_is_rejected():
    once = {"i": 0, "j": 1, "coeffs": {"2": "1"}}
    assert parse_document(_three_dim_doc(once)).brackets == (1, ((0, 1, ((2, 1),)),))
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
    assert parse_document(distinct).brackets == (1, ((0, 1, ((1, 7), (2, 5))),))


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
    assert load_document(str(path)).brackets == (1, ((0, 1, ((1, 7), (2, 5))),))
