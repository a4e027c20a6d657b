import json
from fractions import Fraction

import pytest

from metriclie import linalg as la
from metriclie.cli import main
from metriclie.core import LieAlgebra
from metriclie.documents import (
    algebra_to_document,
    emit_document,
)
from metriclie.forms import SymBilinearForm
from metriclie.reduction import build_example42


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out.strip() else None, err


def test_analyze_example42(capsys):
    code, report, _ = run_json(capsys, "analyze", "example42")
    assert code == 0
    r = report["results"]
    assert r["killing_is_zero"]
    assert all(x == "0" for row in r["killing"] for x in row)
    assert r["signature"] == [4, 2, 0]
    assert r["nilradical_dim"] == 5
    assert r["solvable"] and not r["nilpotent"]


def test_validate_exit_codes(capsys, tmp_path):
    code, report, _ = run_json(capsys, "validate", "heis3")
    assert code == 0 and report["results"]["passed"]
    bad = {
        "name": "bad",
        "dim": 3,
        "basis": ["x", "y", "z"],
        "brackets": [
            {"i": 0, "j": 1, "coeffs": {"2": "1"}},
            {"i": 0, "j": 2, "coeffs": {"0": "1"}},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, report, _ = run_json(capsys, "validate", str(path))
    assert code == 2
    assert not report["results"]["passed"]
    assert report["results"]["violations"]


def test_signature_command(capsys):
    code, report, _ = run_json(capsys, "signature", "ab(4,1)")
    assert code == 0
    assert report["results"]["signature"] == [3, 1, 0]
    assert report["results"]["witt_index"] == 1


def test_signature_without_form_fails(capsys):
    code, out, err = run(capsys, "signature", "heis3")
    assert code == 2
    assert "no bilinear form" in err


def test_unknown_catalog_name_suggests(capsys):
    code, out, err = run(capsys, "analyze", "exampel42")
    assert code == 2
    assert "did you mean" in err and "example42" in err


def test_reduce_by_named_ideal(capsys):
    code, report, _ = run_json(capsys, "reduce", "example42", "--ideal", "z")
    assert code == 0
    r = report["results"]
    assert r["base"]["dim"] == 4
    assert r["base"]["brackets"] == []  # abelian quotient
    assert len(r["delta"]) == 1 and len(r["delta"][0]) == 4


def test_reduce_bad_ideal_is_precondition_error(capsys):
    code, out, err = run(capsys, "reduce", "example42", "--ideal", "y")
    assert code == 2


def test_complete_reduce(capsys):
    code, report, _ = run_json(capsys, "complete-reduce", "example42")
    assert code == 0
    r = report["results"]
    assert r["steps"] == 2
    assert r["final"]["dim"] == 2
    assert r["final_abelian"]
    assert r["final_signature"][1] == 0 and r["final_signature"][2] == 0


def test_extend_round_trips_reduce(capsys, tmp_path):
    delta = [
        ["0", "1", "0", "0"],
        ["-1", "0", "0", "0"],
        ["0", "0", "0", "1"],
        ["0", "0", "1", "0"],
    ]
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(delta))
    code, report, _ = run_json(
        capsys, "extend", "--base", "ab(4,1)", "--delta", str(path)
    )
    assert code == 0
    doc = report["results"]["document"]
    assert doc["dim"] == 6
    assert report["results"]["signature"] == [4, 2, 0]


def test_einstein_command(capsys):
    code, report, _ = run_json(capsys, "einstein", "example42")
    assert code == 0
    assert report["results"]["einstein"] is True
    assert report["results"]["constant"] == "0"


def test_certify_bounds(capsys):
    code, report, _ = run_json(capsys, "certify-bounds", "example42")
    assert code == 0
    r = report["results"]
    assert (r["dim"], r["dim_nilradical"], r["witt_index"]) == (6, 5, 2)
    assert r["bounds_hold"]


def test_certify_bounds_precondition_failure(capsys):
    code, out, err = run(capsys, "certify-bounds", "ab(6,2)")
    assert code == 2


def test_obstruct_example42(capsys):
    code, report, _ = run_json(capsys, "obstruct", "example42", "--element", "a")
    assert code == 0
    r = report["results"]
    assert r["case_tag"] == "case2_imaginary_pair"
    assert r["verdict"] == "obstructed"
    assert r["rule_cited"] == "gelfond-schneider"


def test_relations_command(capsys):
    code, report, _ = run_json(capsys, "relations", "example42", "--element", "a")
    assert code == 0
    r = report["results"]
    assert r["field_degree"] >= 1
    assert r["relations"]


def test_probe_command(capsys):
    code, report, _ = run_json(
        capsys, "probe", "example42", "--element", "a", "--times", "0,1"
    )
    assert code == 0
    r = report["results"]
    assert r["any_excluded"]
    assert r["points"][0]["trivially_integral"]


def test_probe_non_integer_precision_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("METRIC_LIE_PRECISION", "abc")
    code, out, err = run(
        capsys, "probe", "example42", "--element", "a", "--times", "0,1"
    )
    assert code == 2
    assert out == ""
    assert "METRIC_LIE_PRECISION" in err and "'abc'" in err


def test_split_semisimple(capsys):
    code, report, _ = run_json(capsys, "split-semisimple", "sl2")
    assert code == 0
    r = report["results"]
    assert r["ideal_dims"] == [3]
    assert r["noncompact_dim"] == 3
    assert r["form_report"]["uniform_constant"] == "1"


def test_search_emits_json_lines(capsys):
    code, out, err = run(
        capsys,
        "search",
        "--min-dim",
        "3",
        "--max-dim",
        "3",
        "--budget",
        "30",
        "--seed",
        "9",
        "--format",
        "json",
    )
    assert code == 0
    lines = out.strip().splitlines()
    # hits stream first as single JSON lines, then the indented summary
    split = lines.index("{")
    hits = [json.loads(line) for line in lines[:split]]
    summary = json.loads("\n".join(lines[split:]))
    assert summary["results"]["examined"] == 30
    assert summary["results"]["hits"] == len(hits)
    for hit in hits:
        assert hit["einstein"]
        assert isinstance(hit["einstein_constant"], str)


def test_document_input_path(capsys, tmp_path):
    m = build_example42()
    doc = emit_document(algebra_to_document(m.algebra, m.form, name="ex"))
    path = tmp_path / "ex.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "analyze", str(path))
    assert code == 0
    assert report["results"]["signature"] == [4, 2, 0]


def test_malformed_document_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "line" in err


def test_global_flags_accepted_before_subcommand(capsys):
    code, out, err = run(capsys, "--format", "json", "signature", "sl2")
    assert code == 0
    assert json.loads(out)["results"]["signature"] == [2, 1, 0]


def _write_doc(tmp_path, name, alg, form):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(emit_document(algebra_to_document(alg, form, name=name))))
    return str(path)


def test_reduction_preconditions_exit_2(capsys, tmp_path):
    # [a, b] = b with the zero form: invariant, but z(g) ∩ [g, g] = 0
    alg = LieAlgebra(2, ("a", "b"), {(0, 1): (0, 1)})
    zero = _write_doc(tmp_path, "zero", alg, SymBilinearForm(la.zeros(2, 2)))
    for argv in (("complete-reduce", zero), ("reduce", zero)):
        code, out, err = run(capsys, *argv)
        assert code == 2, err
        assert "certificate failure" not in err
    ex = build_example42()
    ident = _write_doc(tmp_path, "ident", ex.algebra, SymBilinearForm(la.identity(6)))
    for argv in (("complete-reduce", ident), ("reduce", ident)):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "not invariant; witness triple" in err
