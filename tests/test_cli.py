import gzip
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from metriclie import cli
from metriclie import linalg as la
from metriclie.catalog import sl2
from metriclie.cli import main
from metriclie.core import LieAlgebra
from metriclie.einstein import SearchResult
from metriclie.documents import (
    algebra_to_document,
    emit_document,
)
from metriclie.forms import (
    MetricLieAlgebra,
    SymBilinearForm,
    _central_derived,
    central_isotropic_ideal,
)
from metriclie.reduction import build_example42, complete_reduction

from conftest import naive_zeros


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


# [x, y] = z, [x, z] = x violates the Jacobi identity
NON_JACOBI_DOC = {
    "name": "bad",
    "dim": 3,
    "basis": ["x", "y", "z"],
    "brackets": [
        {"i": 0, "j": 1, "coeffs": {"2": "1"}},
        {"i": 0, "j": 2, "coeffs": {"0": "1"}},
    ],
}


def test_validate_exit_codes(capsys, tmp_path):
    code, report, _ = run_json(capsys, "validate", "heis3")
    assert code == 0 and report["results"]["passed"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(NON_JACOBI_DOC))
    code, report, _ = run_json(capsys, "validate", str(path))
    assert code == 2
    assert not report["results"]["passed"]
    assert report["results"]["violations"]


def test_a_repeated_json_key_exits_2(capsys, tmp_path):
    path = tmp_path / "repeat.json"
    path.write_text(
        '{"name": "t", "dim": 3, "basis": ["a", "b", "c"], '
        '"brackets": [{"i": 0, "j": 1, "coeffs": {"2": "5", "2": "7"}}]}'
    )
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: key '2' is given twice in one object\n"


def test_closed_stdout_keeps_the_exit_code(tmp_path):
    """A reader that closes the pipe before the CLI writes (as `| head`
    may) gets no traceback on stderr, and the exit code is the
    command's own; search writes its hits from its handler."""
    import os
    import subprocess
    import sys

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(NON_JACOBI_DOC))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    search = ("search", "--min-dim", "3", "--max-dim", "3", "--budget", "30", "--seed", "9")
    for argv, expected in (
        (("signature", "example42"), 0),
        (("validate", str(bad)), 2),
        (search, 0),
        (("--format", "json", *search), 0),
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "metriclie.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=300,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        assert proc.returncode == expected, (argv, proc.stderr)


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
    # the extending algebra is always abelian, so no bracket key is reported
    assert set(r) == {"ideal", "base", "delta"}


def test_auto_reduce_on_pool_documents(capsys, monkeypatch, tmp_path):
    # every fifth reduce-pool document of each dimension, and the abelian ones
    with gzip.open(Path(__file__).parents[1] / "perfbench" / "pool" / "reduce.json.gz") as fh:
        pool = json.load(fh)
    by_dim = {}
    for entry in pool:
        by_dim.setdefault(entry["dim"], []).append(entry)
    picked = [e for _, entries in sorted(by_dim.items()) for e in entries[::5]]
    picked += [e for e in pool if not e["doc"]["brackets"] and e not in picked]
    assert len(picked) >= 40
    lines = {1: 0, 2: 0}
    abelian = 0
    for entry in picked:
        path = tmp_path / f"{entry['id']}.json"
        path.write_text(json.dumps(entry["doc"]))
        code, out, err = run(capsys, "reduce", str(path), "--format", "json")
        alg, form = cli._load_algebra(str(path))[:2]
        assert code == 0, (entry["id"], err)
        if not entry["doc"]["brackets"]:
            # abelian and indefinite: the line complete_reduction takes first
            results = json.loads(out)["results"]
            assert results["base"]["dim"] == entry["dim"] - 2, entry["id"]
            first = complete_reduction(MetricLieAlgebra(alg, form)).steps[0]
            assert results["ideal"] == [[str(x) for x in v] for v in first.ideal.vectors]
            abelian += 1
            continue
        dim = _central_derived(alg).dim
        lines[min(dim, 2)] += 1
        if dim == 1:
            # reducing along all of z(g) ∩ [g, g] is the same reduction
            with monkeypatch.context() as mp:
                mp.setattr(cli, "_pick_ideal", lambda m, raw: central_isotropic_ideal(m))
                assert run(capsys, "reduce", str(path), "--format", "json") == (0, out, err)
    # both kinds of intersection occur in the sample, and abelian documents
    assert lines[1] and lines[2] and abelian


def test_auto_reduce_abelian_without_isotropic_line_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "reduce", "ab(4,0)")
    assert code == 2 and "definite form" in err
    # x^2 + y^2 - 3 z^2 is indefinite but anisotropic over Q
    form = SymBilinearForm(((1, 0, 0), (0, 1, 0), (0, 0, -3)))
    doc = algebra_to_document(LieAlgebra(3, ("e0", "e1", "e2"), {}), form, name="aniso")
    path = tmp_path / "aniso.json"
    path.write_text(json.dumps(emit_document(doc)))
    code, _, err = run(capsys, "reduce", str(path))
    assert code == 2 and "no rational isotropic vector" in err


def test_reduce_bad_ideal_is_precondition_error(capsys):
    code, out, err = run(capsys, "reduce", "example42", "--ideal", "y")
    assert code == 2


def test_reduce_by_the_zero_vector_is_a_precondition_error(capsys):
    code, out, err = run(capsys, "reduce", "example42", "--ideal", "0,0,0,0,0,0")
    assert code == 2 and out == ""
    assert err == "error: reduction by the zero ideal is trivial\n"
    assert "Traceback" not in err


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


def _doc_path(tmp_path, alg, form, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(emit_document(algebra_to_document(alg, form, name=name))))
    return str(path)


def test_einstein_on_the_zero_form(capsys, tmp_path):
    path = _doc_path(tmp_path, sl2().algebra, SymBilinearForm(naive_zeros(3, 3)), "sl2_zero")
    code, report, _ = run_json(capsys, "einstein", path)
    assert code == 0
    assert report["results"]["einstein"] is False
    assert report["results"]["constant"] is None


def test_witness_vectors_print_as_rationals(capsys, tmp_path):
    path = _doc_path(tmp_path, sl2().algebra, SymBilinearForm(la.identity(3)), "sl2_identity")
    code, _, err = run(capsys, "split-semisimple", path)
    assert code == 2
    assert "not s-invariant" in err and "with x = [" in err
    assert "Fraction(" not in err
    code, _, err = run(capsys, "reduce", "ab(2,1)", "--ideal", "e0")
    assert code == 2
    assert "witness pair ([1, 0], [1, 0])" in err
    assert "Fraction(" not in err


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


@pytest.mark.parametrize("times", ["1/0", "abc", ""])
def test_probe_malformed_times_exits_2(capsys, times):
    code, out, err = run(
        capsys, "probe", "example42", "--element", "a", "--times", times
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad --times value") and "Traceback" not in err


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


@pytest.mark.parametrize(
    "flags",
    [
        ("--min-dim", "9", "--max-dim", "3"),
        ("--min-index", "3", "--max-index", "1"),
        ("--budget", "-1"),
    ],
)
def test_search_empty_range_or_negative_budget_exits_2(capsys, flags):
    code, out, err = run(capsys, "search", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: empty search") and "Traceback" not in err


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


def test_repeated_bracket_data_exits_2(capsys, tmp_path):
    base = {"name": "t", "dim": 3, "basis": ["a", "b", "c"]}
    once = {"i": 0, "j": 1, "coeffs": {"2": "1"}}
    cases = {
        "bracket": ([once, {"i": 0, "j": 1, "coeffs": {"2": "5", "02": "7"}}], "is given twice"),
        "index": ([{"i": 0, "j": 1, "coeffs": {"2": "5", "02": "7"}}], "index 2 is given twice"),
    }
    for name, (brackets, fragment) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**base, "brackets": brackets}))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == "" and fragment in err and err.startswith("error: ")
    path = tmp_path / "once.json"
    path.write_text(json.dumps({**base, "brackets": [once]}))
    assert run(capsys, "analyze", str(path))[0] == 0


def test_global_flags_accepted_before_subcommand(capsys):
    code, out, err = run(capsys, "--format", "json", "signature", "sl2")
    assert code == 0
    assert json.loads(out)["results"]["signature"] == [2, 1, 0]


def test_successive_main_calls_share_one_parser_without_leaks(capsys, monkeypatch):
    seen = []

    def fake_search(dims, index, budget, seed):
        seen.append((dims, budget, seed))
        return SearchResult(0, ())

    monkeypatch.setattr(cli, "sharpness_search", fake_search)
    # (argv, format the report must come in, dims, budget and seed the
    # search must get); the flags go before and after the subcommand
    search = [
        (("--format", "json", "--seed", "5", "search", "--budget", "2"), "json", (3, 8), 2, 5),
        (("search",), "text", (3, 8), 1000, 0),
        (("search", "--min-dim", "4", "--seed", "7", "--format", "json"), "json", (4, 8), 1000, 7),
        (("search", "--budget", "3"), "text", (3, 8), 3, 0),
        (("--seed", "3", "search"), "text", (3, 8), 1000, 3),
        (("--format", "json", "search"), "json", (3, 8), 1000, 0),
    ]
    for argv, fmt, dims, budget, seed in search:
        seen.clear()
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert seen == [(dims, budget, seed)], argv
        if fmt == "json":
            assert json.loads(out)["command"] == "search"
        else:
            assert out.startswith("command: search"), argv
    for argv, fmt in (
        (("signature", "sl2", "--format", "json"), "json"),
        (("signature", "sl2"), "text"),
        (("--format", "json", "signature", "sl2"), "json"),
        (("--format", "text", "signature", "sl2"), "text"),
        (("--format", "text", "signature", "sl2", "--format", "json"), "json"),
        (("signature", "sl2"), "text"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if fmt == "json":
            assert json.loads(out)["results"]["signature"] == [2, 1, 0]
        else:
            assert out.startswith("command: signature"), argv
    # main parses with the one parser built at import and builds none
    monkeypatch.setattr(cli, "build_parser", None)
    assert run(capsys, "signature", "sl2")[0] == 0


def test_reduce_outputs_match_reference_digests(capsys, tmp_path):
    # analyze and complete-reduce on three reduce-pool documents per
    # dimension 4-10, against the benchmark's reference digests
    root = Path(__file__).parents[1] / "perfbench"
    with gzip.open(root / "pool" / "reduce.json.gz") as fh:
        pool = json.load(fh)
    reference = json.loads((root / "reference" / "digests.json").read_text())["reduce"]
    by_dim = {}
    for entry in pool:
        if entry["id"] != "example42":
            by_dim.setdefault(entry["dim"], []).append(entry)
    assert sorted(by_dim) == list(range(4, 11))
    checked = 0
    for dim, entries in sorted(by_dim.items()):
        for entry in entries[::10][:3]:
            path = tmp_path / f"{entry['id']}.json"
            path.write_text(json.dumps(entry["doc"]))
            for kind in ("analyze", "complete-reduce"):
                code, report, err = run_json(capsys, kind, str(path))
                assert code == 0, (entry["id"], err)
                text = json.dumps(report["results"], sort_keys=True, separators=(",", ":"))
                digest = hashlib.sha256(text.encode()).hexdigest()[:16]
                assert digest == reference[f"{kind}:{entry['id']}"], (kind, entry["id"])
                checked += 1
    assert checked == 42


def _write_doc(tmp_path, name, alg, form):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(emit_document(algebra_to_document(alg, form, name=name))))
    return str(path)


def test_reduction_preconditions_exit_2(capsys, tmp_path):
    # [a, b] = b with the zero form: invariant, but z(g) ∩ [g, g] = 0
    alg = LieAlgebra(2, ("a", "b"), {(0, 1): (0, 1)})
    zero = _write_doc(tmp_path, "zero", alg, SymBilinearForm(naive_zeros(2, 2)))
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
    # solvable with an invariant form, but Jacobi fails on (0, 2, 3)
    e = lambda *terms: tuple(sum(c for c, k in terms if k == i) for i in range(6))
    non_jacobi = LieAlgebra(
        6,
        tuple(f"e{i}" for i in range(6)),
        {
            (0, 1): e((2, 0)),
            (0, 5): e((-2, 4)),
            (1, 2): e((1, 3)),
            (1, 3): e((-1, 2)),
            (1, 5): e((2, 5)),
            (2, 3): e((-2, 0), (1, 4)),
            (2, 5): e((2, 3)),
            (3, 5): e((-2, 2)),
        },
    )
    gram = [[0] * 6 for _ in range(6)]
    for i, j in ((0, 5), (5, 0), (1, 4), (4, 1), (2, 2), (3, 3)):
        gram[i][j] = 1
    bad = _write_doc(tmp_path, "non_jacobi", non_jacobi, SymBilinearForm(la.mat(gram)))
    code, out, err = run(capsys, "analyze", bad)
    assert code == 2
    for argv in (("complete-reduce", bad), ("reduce", bad)):
        code, out, err = run(capsys, *argv)
        assert code == 2, err
        assert "certificate failure" not in err
        assert "Jacobi identity" in err
