import contextlib
import gzip
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from metriclie import core
from metriclie import linalg as la
from metriclie.cli import main
from metriclie.core import ad
from metriclie.einstein import EigenvalueData, _rotation_boost_columns, trace_identity
from metriclie.errors import CertificateError, PreconditionError
from metriclie.documents import document_to_algebra, parse_document
from metriclie.forms import MetricLieAlgebra
from metriclie.obstruction import (
    _OUTCOMES,
    RULE_GS,
    RULE_SCHANUEL,
    ObstructionReport,
    _decide,
    _exp_charpoly,
    _may_be_integer,
    _spectrum_poly,
    exact_eigenvalues,
    integer_exponential_probe,
    obstruction_verdict,
    qlinear_relations,
    restricted_obstruction,
    spectrum_data,
)
from metriclie.quadratic import Quadratic
from metriclie.reduction import DoubleExtensionSpec, build_ab, build_example42, double_extend

from conftest import (
    naive_qlinear_relations,
    naive_rank,
    naive_trace,
    naive_zeros,
    rand_matrix,
    random_solvable_metric,
    random_vector,
    reference_decide,
    reference_probe,
    reference_restricted_obstruction,
    to_sympy_poly,
)


def _companion(coeffs):
    """Companion matrix of a monic polynomial in descending coefficients."""
    n = len(coeffs) - 1
    f = Fraction
    m = [[f(0)] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = f(1)
    for i in range(n):
        m[i][n - 1] = -f(coeffs[n - i])
    return tuple(tuple(r) for r in m)


# --- exact eigenvalue extraction ------------------------------------------


def test_exact_eigenvalues_rotation():
    f = Fraction
    rot = ((f(0), f(-1)), (f(1), f(0)))
    eigs = exact_eigenvalues(rot)
    assert len(eigs) == 2
    for e in eigs:
        assert not e.is_real
        assert e.value * e.value + 1 == 0
    # one root in each half-plane
    signs = sorted(1 if e.enclosure[1][0] > 0 else -1 for e in eigs)
    assert signs == [-1, 1]


def test_exact_eigenvalues_sqrt2():
    # x^2 - 2
    eigs = exact_eigenvalues(_companion([1, 0, -2]))
    assert len(eigs) == 2
    for e in eigs:
        assert e.is_real
        assert e.value * e.value - 2 == 0
        (lo, hi), (ilo, ihi) = e.enclosure
        assert ilo <= 0 <= ihi
        # the real enclosure pins down +-sqrt(2) to the certified box
        assert (lo > 1 and hi < 2) or (lo > -2 and hi < -1)


def _rand_int_matrix(rng, n, bound=2):
    return tuple(
        tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
        for _ in range(n)
    )


def test_exact_eigenvalue_enclosures_well_formed():
    rng = random.Random(51)
    for _ in range(10):
        n = rng.randint(2, 3)
        m = _rand_int_matrix(rng, n)
        eigs = exact_eigenvalues(m)
        assert len(eigs) == n
        # pairwise disjointness per irreducible factor is certified
        # internally; spot-check that the boxes are proper intervals
        for e in eigs:
            (lo, hi), (ilo, ihi) = e.enclosure
            assert lo <= hi and ilo <= ihi


def test_eigenvalue_enclosures_bracket_the_trace():
    # sum of the real-part enclosures must contain tr(m)
    rng = random.Random(52)
    for _ in range(8):
        n = rng.randint(1, 3)
        m = _rand_int_matrix(rng, n)
        eigs = exact_eigenvalues(m)
        lo = sum(e.enclosure[0][0] for e in eigs)
        hi = sum(e.enclosure[0][1] for e in eigs)
        tr = naive_trace(m)
        assert lo <= sp.Rational(tr.numerator, tr.denominator) <= hi


# --- verdict fixtures -------------------------------------------------------


def test_case1_fixture_obstructed():
    # eigenvalues alpha(+-1 +- i) with alpha = 1
    data = EigenvalueData(reals=(), complex_pairs=((1, 1), (-1, 1)))
    rep = obstruction_verdict(data)
    assert rep.case_tag == "case1_nonzero_real_part"
    assert rep.verdict == "obstructed"
    assert rep.rule_cited == RULE_GS
    assert rep.exp_eigenvalue_patterns == (
        "e^{alpha(1+i)}",
        "e^{alpha(1-i)}",
        "e^{alpha(-1+i)}",
        "e^{alpha(-1-i)}",
    )
    assert all(rep.hypothesis_checks.values())


def test_case2_fixture_obstructed():
    data = EigenvalueData(reals=(1, -1), complex_pairs=((0, 1),))
    rep = obstruction_verdict(data)
    assert rep.case_tag == "case2_imaginary_pair"
    assert rep.verdict == "obstructed"
    assert rep.rule_cited == RULE_GS
    assert rep.exp_eigenvalue_patterns == (
        "e^{lambda}",
        "e^{-lambda}",
        "e^{i lambda}",
        "e^{-i lambda}",
    )
    assert all(rep.hypothesis_checks.values())


def test_spiral_spectrum_is_schanuel_conditional():
    # lambda = sqrt(b1^2 + b2^2) with (b1, b2) = (3, 4): lambda = 5, n = 6
    data = EigenvalueData(reals=(5, -5), complex_pairs=((0, 3), (0, 4)))
    rep = obstruction_verdict(data)
    assert rep.n == 6
    assert rep.case_tag == "out_of_scope_n_gt_5"
    assert rep.verdict == "schanuel_conditional"
    assert rep.rule_cited == RULE_SCHANUEL
    assert rep.hypothesis_checks["trace_identity"]


def test_spiral_spectrum_irrational_lambda():
    lam = sp.sqrt(2 + 9)  # b1 = sqrt(2), b2 = 3
    data = EigenvalueData(
        reals=(lam, -lam), complex_pairs=((0, sp.sqrt(2)), (0, 3))
    )
    rep = obstruction_verdict(data)
    assert rep.verdict == "schanuel_conditional"


def test_nilpotent_spectrum_inapplicable():
    data = EigenvalueData(reals=(0, 0), complex_pairs=((0, 0),))
    rep = obstruction_verdict(data)
    assert rep.case_tag == "nilpotent"
    assert rep.verdict == "inapplicable"
    assert rep.rule_cited == ""


def test_verdict_rejects_trace_identity_violation():
    data = EigenvalueData(reals=(1,), complex_pairs=())
    with pytest.raises(PreconditionError):
        obstruction_verdict(data)


def test_restricted_obstruction_example42():
    m = build_example42()
    rep = restricted_obstruction(m, la.unit_vec(6, 0))  # a
    assert rep.n == 4
    assert rep.case_tag == "case2_imaginary_pair"
    assert rep.verdict == "obstructed"


def test_restricted_obstruction_central_element():
    m = build_example42()
    rep = restricted_obstruction(m, la.unit_vec(6, 5))  # z, ad(z) = 0
    assert rep.verdict == "inapplicable"


def _obstruct_outcome(f, m, element):
    """The report of f, or the type and message of its precondition or
    certificate failure."""
    try:
        return f(m, element).to_jsonable()
    except (PreconditionError, CertificateError) as exc:
        return type(exc).__name__, str(exc)


def _rotation_boost_algebras():
    """The rotation-boost algebras of ``sharpness_search``: dimension 6,
    b = 1..3, and the Pythagorean dimension 8, k = 1."""
    for base, delta in [
        *((build_ab(4, 1), _rotation_boost_columns((b,), b)) for b in (1, 2, 3)),
        (build_ab(6, 1), _rotation_boost_columns((3, 4), 5)),
    ]:
        yield double_extend(DoubleExtensionSpec.from_columns(base, (delta,)))


def test_restricted_obstruction_matches_the_jordan_chevalley_restriction():
    rng = random.Random(26)
    algebras = [build_example42(), *_rotation_boost_algebras()]
    algebras += [random_solvable_metric(rng) for _ in range(20)]
    tags = set()
    for m in algebras:
        basis = [la.unit_vec(m.dim, i) for i in range(m.dim)]
        for a in basis + [random_vector(rng, m.dim) for _ in range(3)]:
            got = _obstruct_outcome(restricted_obstruction, m, a)
            assert got == _obstruct_outcome(reference_restricted_obstruction, m, a)
            if isinstance(got, dict):
                tags.add((got["n"], got["case_tag"]))
    # the central z of example42 restricts to nothing, and the
    # dimension-8 boost acts on six dimensions
    assert {(0, "nilpotent"), (4, "case2_imaginary_pair"), (6, "out_of_scope_n_gt_5")} <= tags


def test_restricted_obstruction_never_splits_jordan_chevalley(monkeypatch):
    def no_split(*args):
        raise AssertionError("jordan_chevalley called on the obstruct path")

    real = core.jordan_chevalley
    for module in list(sys.modules.values()):
        if module.__name__.startswith("metriclie") and getattr(module, "jordan_chevalley", None) is real:
            monkeypatch.setattr(module, "jordan_chevalley", no_split)
    assert restricted_obstruction(build_example42(), la.unit_vec(6, 0)).verdict == "obstructed"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["obstruct", "example42", "--element", "a"]) == 0


def test_report_to_jsonable_round_trips_through_json():
    import json

    m = build_example42()
    rep = restricted_obstruction(m, la.unit_vec(6, 0))
    payload = json.dumps(rep.to_jsonable())
    back = json.loads(payload)
    assert back["verdict"] == "obstructed"
    assert back["rule_cited"] == "gelfond-schneider"


# --- rational relations ------------------------------------------------------


def test_qlinear_relations_rational_spectrum():
    eigs = exact_eigenvalues(_companion([1, 0, -1]))  # x^2 - 1 -> 1, -1
    basis = qlinear_relations(eigs)
    assert len(basis.relations) == 1
    (rel,) = basis.relations
    assert rel in ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)))
    total = rel[0] * 1 + rel[1] * (-1)
    # verify annihilation against the actual root ordering
    vals = [e.value for e in eigs]
    assert sum(Fraction(c) * v for c, v in zip(rel, vals)) == 0
    assert basis.quadratic_identity_holds is False


def test_qlinear_relations_sqrt2_pair():
    eigs = exact_eigenvalues(_companion([1, 0, -2]))
    basis = qlinear_relations(eigs)
    assert basis.field_degree == 2
    assert len(basis.relations) == 1
    vals = [sp.sympify(e.value) for e in eigs]
    (rel,) = basis.relations
    assert sp.simplify(sum(sp.Rational(c.numerator, c.denominator) * v for c, v in zip(rel, vals))) == 0


def test_qlinear_relations_independent_set():
    # 1 and sqrt(2) are Q-linearly independent
    eigs = exact_eigenvalues(_companion([1, 0, -2])) + exact_eigenvalues(
        _companion([1, -1])
    )
    basis = qlinear_relations(eigs)
    # only relation: sqrt2 + (-sqrt2) = 0
    assert len(basis.relations) == 1


def test_qlinear_quadratic_identity_detection():
    # spectrum 1, -1, i, -i has sum of squares 1 + 1 - 1 - 1 = 0
    f = Fraction
    m = naive_zeros(4, 4)
    m = (
        (f(1), f(0), f(0), f(0)),
        (f(0), f(-1), f(0), f(0)),
        (f(0), f(0), f(0), f(-1)),
        (f(0), f(0), f(1), f(0)),
    )
    basis = qlinear_relations(exact_eigenvalues(m))
    assert basis.quadratic_identity_holds is True


def _blockdiag(*blocks):
    n = sum(len(b) for b in blocks)
    m = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                m[at + i][at + j] = Fraction(x)
        at += len(b)
    return la.mat(m)


def test_qlinear_relations_pick_each_radical_sign_from_its_enclosure():
    # +-sqrt 2, +-2 sqrt 2, 1 +- sqrt 3, 1 +- 2i, +-i, +-3i: the
    # relations tie roots of different factors, so each root's sign counts
    m = _blockdiag(
        _companion([1, 0, -2]),
        _companion([1, 0, -8]),
        _companion([1, -2, -2]),
        _companion([1, -2, 5]),
        ((0, -1), (1, 0)),
        ((0, -3), (3, 0)),
    )
    eigs = exact_eigenvalues(m)
    basis = qlinear_relations(eigs)
    assert basis.field_degree == 8
    assert len(basis.relations) == len(eigs) - 4
    for rel in basis.relations:
        for axis in (0, 1):
            mids = [sum(e.enclosure[axis]) / 2 for e in eigs]
            assert abs(sum(c * x for c, x in zip(rel, mids))) < Fraction(1, 10**6)


# the values of d each field's numbers are written on: d < 0, d > 0,
# their squares multiples, and 1031^2 1033, whose square factor lies
# beyond the trial division of ``quadratic._strip_squares`` and stays
_FIELDS = [(1,), (-1, -4), (-3, -12), (5, 20), (1033, 1031**2 * 1033), (-1033, -(1031**2) * 1033)]


@st.composite
def _owned_numbers(draw):
    """Ints, ``Fraction``s and ``Quadratic``s of one field, rational
    ones among them, with zeros and repeats."""
    reps = draw(st.sampled_from(_FIELDS))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    number = st.one_of(
        st.integers(-2, 2),
        small,
        st.builds(Quadratic, small, small, st.sampled_from(reps)),
    )
    return draw(st.lists(number, max_size=7))


@settings(max_examples=300, deadline=None)
@given(_owned_numbers())
@example([])
@example([0, Fraction(0), Quadratic()])
@example([1, -1, Quadratic(0, 1, -1), Quadratic(0, -1, -1)])
# (sqrt(-1031^2 1033))^2 + (1031 sqrt(-1033))^2 + 1031^2 (35^2 + 29^2) = 0
@example([Quadratic(0, 1, -(1031**2) * 1033), Quadratic(0, 1031, -1033), 1031 * 35, 1031 * 29])
def test_owned_qlinear_relations_match_quadratic_arithmetic(values):
    assert qlinear_relations(values) == naive_qlinear_relations(values)


def test_owned_qlinear_relations_reject_a_corrupted_kernel(monkeypatch):
    real = la.IntSpan.int_kernel

    def corrupted(self):
        den, rows = real(self)
        (q, t), *rest = rows[0]
        return den, [((q, t + 1), *rest), *rows[1:]]

    monkeypatch.setattr(la.IntSpan, "int_kernel", corrupted)
    with pytest.raises(CertificateError, match="relation fails"):
        qlinear_relations([2, 1, Quadratic(0, 1, -1), Quadratic(3, 2, -1)])


def test_relations_run_without_quadratic_arithmetic(tmp_path, monkeypatch):
    paths = _pool_documents(tmp_path, "rb")

    def outputs():
        out = {}
        for name in ("rb6-3", "rb8-2"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(["relations", str(paths[name]), "--element", "a0", "--format", "json"]) == 0
            out[name] = buf.getvalue()
        return out

    before = outputs()

    def forbidden(*args):
        raise AssertionError("Quadratic arithmetic on the relations path")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Quadratic, name, forbidden)
    assert outputs() == before


def test_qlinear_relations_keep_cubic_and_raw_generators():
    # a cubic root stays a CRootOf generator and a raw irrational is its
    # own; the expected relations and degrees are those of converting
    # every number into the field one by one. The cubic is cyclic, so
    # its splitting field has degree 3 (that of x^3 - 2 has degree 6 and
    # takes minutes to build).
    cubic = _companion([1, 0, -3, 1])  # x^3 - 3x + 1
    r = sp.CRootOf(sp.Symbol("x") ** 3 - 2, 0)
    cases = [
        (exact_eigenvalues(cubic), [["1", "1", "1"]], 3),
        (
            exact_eigenvalues(_blockdiag(_companion([1, 0, -2]), cubic)),
            [["1", "1", "0", "0", "0"], ["0", "0", "1", "1", "1"]],
            6,
        ),
        ([sp.sqrt(2), -sp.sqrt(2)], [["1", "1"]], 2),
        ([sp.sqrt(2), 3, sp.sqrt(8), sp.Rational(1, 2)], [["-2", "0", "1", "0"], ["0", "-1/6", "0", "1"]], 2),
        ([r, 2 * r, 1, r**2], [["-2", "1", "0", "0"]], 3),
        (
            [r, sp.sqrt(2), -3 * r, sp.sqrt(2) / 2, 5],
            [["3", "0", "1", "0", "0"], ["0", "-1/2", "0", "1", "0"]],
            6,
        ),
    ]
    for eigs, relations, degree in cases:
        basis = qlinear_relations(eigs)
        assert [[str(c) for c in rel] for rel in basis.relations] == relations
        assert basis.field_degree == degree
        assert basis.quadratic_identity_holds is False


# --- certified probe ---------------------------------------------------------


def test_probe_example42_excludes_integrality():
    m = build_example42()
    a = la.unit_vec(6, 0)
    rep = integer_exponential_probe(m, a, (Fraction(0), Fraction(1), Fraction(1, 2)))
    by_t = {p.t: p for p in rep.points}
    assert by_t[Fraction(0)].trivially_integral
    assert not by_t[Fraction(0)].integrality_excluded
    assert by_t[Fraction(1)].integrality_excluded
    assert by_t[Fraction(1, 2)].integrality_excluded


def test_probe_nilpotent_direction_trivially_integral():
    m = build_example42()
    z = la.unit_vec(6, 5)
    rep = integer_exponential_probe(m, z, (Fraction(1),))
    assert rep.points[0].trivially_integral
    assert not rep.points[0].integrality_excluded


def _pool_documents(tmp_path, prefix):
    """The spectra-pool documents whose ids start with prefix, written
    to tmp_path; the pool file is only read."""
    pool_file = Path(__file__).parents[1] / "perfbench" / "pool" / "spectra.json.gz"
    with gzip.open(pool_file) as fh:
        entries = [e for e in json.load(fh) if e["id"].startswith(prefix)]
    paths = {}
    for e in entries:
        paths[e["id"]] = tmp_path / f"{e['id']}.json"
        paths[e["id"]].write_text(json.dumps(e["doc"]))
    return paths


def test_probe_decides_coefficients_beyond_double_precision(tmp_path):
    """rb8-2 (eigenvalues +-10, 0, 0, +-6i, +-8i) at t = 7: the x^7
    coefficient lies within 2^-100 of -2515438670919167006265781174255.0194,
    above 2^53, and its interval holds no integer."""
    path = _pool_documents(tmp_path, "rb8-2")["rb8-2"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["probe", str(path), "--element", "a0", "--times", "7", "--format", "json"]) == 0
    res = json.loads(out.getvalue())["results"]
    assert res["precision_bits"] == 256
    assert res["points"] == [{"t": "7", "trivially_integral": False, "integrality_excluded": True}]


def _owned_probe(boxes, t, precision_bits):
    """Whether the fixed-point probe excludes integrality, and its
    coefficient intervals as exact ((re_lo, re_hi), (im_lo, im_hi))."""
    g, coeffs = _exp_charpoly(boxes, t, precision_bits)
    excluded = not all(_may_be_integer(c, g) for c in coeffs)
    ulp = Fraction(1, 2**g)
    return excluded, [((ulp * (a - r), ulp * (a + r)), (ulp * (b - r), ulp * (b + r))) for a, b, r in coeffs]


def _overlap(x, y) -> bool:
    return max(x[0], y[0]) <= min(x[1], y[1])


def test_probe_matches_mpmath_reference_on_spectra_workload(tmp_path):
    """Every probe op the spectra benchmark can draw (both rotation-boost
    families, grids 1, 1/2 and 0,1) decides as the mpmath probe at 256
    bits."""
    paths = _pool_documents(tmp_path, "rb")
    assert len(paths) == 12
    width = Fraction(1, 2**256)
    compared = 0
    for name, path in sorted(paths.items()):
        doc = json.loads(path.read_text())
        m = MetricLieAlgebra(*document_to_algebra(parse_document(doc))[:2])
        a = la.unit_vec(m.dim, m.algebra.basis_names.index("a0"))
        boxes = [e.box(width) for e in exact_eigenvalues(ad(m.algebra, a))]
        for grid in ((Fraction(1),), (Fraction(1, 2),), (Fraction(0), Fraction(1))):
            for point in integer_exponential_probe(m, a, grid).points:
                if point.t == 0:
                    assert point.trivially_integral and not point.integrality_excluded
                    continue
                assert point.integrality_excluded == reference_probe(boxes, point.t, 256)[0], (name, point.t)
                compared += 1
    assert compared == 36


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    p=st.sampled_from([p for p in range(-40, 41) if p]),
    q=st.integers(1, 12),
)
def test_probe_is_sound_against_mpmath_reference_hypothesis(seed, p, q):
    """Spectra of conjugated rational and quadratic blocks, t = p/q: at
    16, 53, 128 and 256 bits each fixed-point coefficient interval
    overlaps the mpmath interval at precision + 256 bits. Where the
    decisions differ from mpmath's at the same precision, the fixed-point
    probe excludes, on a coefficient whose mpmath interval is the wider:
    absolute bits resolve a large coefficient that mpmath's relative bits
    leave wider than 1. This happens at 16 and 53 bits, and at 128 bits
    for exact eigenvalues (zero-width boxes) whose exponentials exceed
    2^128."""
    rng = random.Random(seed)
    shapes = ("case1", "case2", "spiral", "unclosed", "arbitrary")
    m, _ = _conjugated(rng, _random_blocks(rng, shapes[seed % len(shapes)]))
    eigs = exact_eigenvalues(m)
    if all(e.is_zero for e in eigs):
        return
    t = Fraction(p, q)
    for bits in (16, 53, 128, 256):
        boxes = [e.box(Fraction(1, 2**bits)) for e in eigs]
        excluded, owned = _owned_probe(boxes, t, bits)
        fine = [e.box(Fraction(1, 2 ** (bits + 256))) for e in eigs]
        for (o_re, o_im), (r_re, r_im) in zip(owned, reference_probe(fine, t, bits + 256)[1], strict=True):
            assert _overlap(o_re, r_re) and _overlap(o_im, r_im), (bits, t)
        ref_excluded, ref = reference_probe(boxes, t, bits)
        if excluded != ref_excluded:
            assert excluded, (bits, t, [str(e.value) for e in eigs])
            assert any(
                math.floor(o_hi) < math.ceil(o_lo) and r_hi - r_lo > o_hi - o_lo
                for ((o_lo, o_hi), _), ((r_lo, r_hi), _) in zip(owned, ref)
            ), (bits, t)
            event(f"only the fixed-point probe excludes, at {bits} bits")


# --- differential test against the element-wise decider ---------------------
#
# The reference below is the decider obstruction_verdict used before the
# verdicts moved onto the rational characteristic polynomial. It compares
# eigenvalues one by one with sympy's zero tests, whose fallback
# Expr.equals samples the expression at random float points.


def _ref_is_zero(expr) -> bool:
    expr = sp.sympify(expr)
    if expr.is_zero is not None:
        return bool(expr.is_zero)
    verdict = sp.simplify(expr).equals(0)
    if verdict is None:
        raise PreconditionError(f"could not decide whether {expr} vanishes")
    return verdict


def _ref_equal(a, b) -> bool:
    return _ref_is_zero(sp.sympify(a) - sp.sympify(b))


def _ref_closed_under_negation(data: EigenvalueData) -> bool:
    spectrum = [sp.sympify(r) for r in data.reals]
    for alpha, beta in data.complex_pairs:
        z = sp.sympify(alpha) + sp.I * sp.sympify(beta)
        spectrum.extend([z, sp.conjugate(z)])
    remaining = list(spectrum)
    for e in spectrum:
        match = next((i for i, f in enumerate(remaining) if _ref_equal(f, -e)), None)
        if match is None:
            return False
        remaining.pop(match)
    return True


def _reference_verdict(spec: EigenvalueData):
    """(verdict, case_tag, hypothesis_checks) by element-wise comparison."""
    n = len(spec.reals) + 2 * len(spec.complex_pairs)
    checks = {}
    all_zero = all(_ref_is_zero(r) for r in spec.reals) and all(
        _ref_is_zero(a) and _ref_is_zero(b) for a, b in spec.complex_pairs
    )
    checks["non_nilpotent"] = not all_zero
    if all_zero:
        return "inapplicable", "nilpotent", checks
    residual = sum(sp.sympify(lam) ** 2 for lam in spec.reals) + sum(
        2 * sp.sympify(a) ** 2 - 2 * sp.sympify(b) ** 2 for a, b in spec.complex_pairs
    )
    if not _ref_is_zero(sp.expand(sp.simplify(residual))):
        raise PreconditionError("eigenvalue trace identity violated")
    checks["trace_identity"] = True
    if n >= 6:
        return "schanuel_conditional", "out_of_scope_n_gt_5", checks
    checks["closed_under_negation"] = _ref_closed_under_negation(spec)
    if not checks["closed_under_negation"]:
        raise CertificateError("spectrum not closed under negation")
    if any(
        not _ref_is_zero(a) and _ref_equal(sp.sympify(a) ** 2, sp.sympify(b) ** 2)
        for a, b in spec.complex_pairs
    ):
        checks["real_part_squared_equals_imaginary_part_squared"] = True
        checks["exp_pattern_power_i_closed"] = True
        return "obstructed", "case1_nonzero_real_part", checks
    case2 = any(
        _ref_equal(sp.sympify(lam) ** 2, sp.sympify(beta) ** 2)
        for lam in spec.reals
        if not _ref_is_zero(lam)
        for _, beta in spec.complex_pairs
    )
    if case2 and all(_ref_is_zero(a) for a, _ in spec.complex_pairs):
        checks["real_eigenvalue_squared_equals_rotation_squared"] = True
        checks["exp_pattern_power_i_closed"] = True
        return "obstructed", "case2_imaginary_pair", checks
    raise CertificateError("no certified case")


def _outcome(decide, arg):
    try:
        rep = decide(arg)
    except (PreconditionError, CertificateError) as exc:
        return type(exc)
    if isinstance(rep, ObstructionReport):
        return rep.verdict, rep.case_tag, rep.hypothesis_checks
    return rep


def _block(kind, *params):
    """A block of D with its eigenvalues as (reals, complex pairs):
    a rational real, a rotation [[a, -b], [b, a]] with b != 0, or the
    companion matrix of x^2 - d."""
    if kind == "real":
        (r,) = params
        return ((r,),), (r,), ()
    if kind == "rot":
        a, b = params
        return ((a, -b), (b, a)), (), ((a, b),)
    (d,) = params
    root = sp.sqrt(sp.Rational(d.numerator, d.denominator))
    eigs = ((root, -root), ()) if d >= 0 else ((), ((0, sp.im(root)),))
    return _companion([1, 0, -d]), *eigs


def _random_blocks(rng: random.Random, shape: str):
    def q():
        return Fraction(rng.randint(1, 4), rng.randint(1, 3))

    def zeros(n_now, cap):
        # pad with zero reals or nilpotent companion blocks up to cap
        out = []
        while n_now < cap and rng.random() < 0.5:
            if n_now + 2 <= cap and rng.random() < 0.5:
                out.append(_block("comp", Fraction(0)))
                n_now += 2
            else:
                out.append(_block("real", Fraction(0)))
                n_now += 1
        return out

    if shape == "case1":
        a = q() * rng.choice((1, -1))
        blocks = [_block("rot", a, a), _block("rot", -a, a * rng.choice((1, -1)))]
        return blocks + zeros(4, rng.choice((5, 7)))
    if shape == "case2":
        if rng.random() < 0.5:
            lam = q()
            blocks = [_block("real", lam), _block("real", -lam), _block("rot", 0, lam)]
        else:
            d = Fraction(rng.choice((2, 3, 5, 6, 7)), rng.choice((1, 2, 3)))
            blocks = [_block("comp", d), _block("comp", -d)]
        return blocks + zeros(4, rng.choice((5, 7)))
    if shape == "spiral":
        b1, b2 = q(), q()
        blocks = [_block("rot", 0, b1), _block("rot", 0, b2), _block("comp", b1 * b1 + b2 * b2)]
        return blocks + zeros(6, 7)
    if shape == "nilpotent":
        return zeros(0, rng.randint(0, 7)) or [_block("comp", Fraction(0))]
    if shape == "unclosed":
        lam = q()
        return [_block("real", lam), _block("real", lam), _block("rot", 0, lam)] + zeros(4, 5)
    # an arbitrary spectrum, which mostly breaks the trace identity
    blocks, n = [], 0
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("real", "rot", "comp"))
        if kind == "real" and n + 1 <= 7:
            blocks.append(_block("real", q() * rng.choice((1, -1, 0))))
            n += 1
        elif n + 2 <= 7:
            if kind == "rot":
                blocks.append(_block("rot", q() * rng.choice((1, -1, 0)), q()))
            else:
                blocks.append(_block("comp", q() * rng.choice((1, -1))))
            n += 2
    return blocks


def _conjugated(rng: random.Random, blocks):
    """P D P^-1 for D = blockdiag(blocks) and a random invertible integer
    P, with the spectrum of D."""
    d = _blockdiag(*(mat for mat, _, _ in blocks))
    n = la.nrows(d)
    while True:
        p = tuple(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n)
        )
        if naive_rank(p) == n:
            break
    m = la.mat_mul(la.mat_mul(p, d), la.inverse(p))
    spec = EigenvalueData(
        reals=tuple(r for _, reals, _ in blocks for r in reals),
        complex_pairs=tuple(c for _, _, pairs in blocks for c in pairs),
    )
    return m, spec


def _decide_matrix(m):
    """The decider on the characteristic polynomial of m, without the
    spectrum listing of the report."""
    tag, checks = _decide(la.charpoly(m), la.nrows(m))
    return _OUTCOMES[tag][0], tag, checks


def test_polynomial_decider_matches_elementwise_reference():
    rng = random.Random(6006)
    shapes = ("case1", "case2", "spiral", "nilpotent", "unclosed", "arbitrary")
    seen = set()
    for i in range(240):
        m, spec = _conjugated(rng, _random_blocks(rng, shapes[i % len(shapes)]))
        expected = _outcome(_reference_verdict, spec)
        assert _outcome(_decide_matrix, m) == expected, (m, spec)
        assert _outcome(obstruction_verdict, spec) == expected, spec
        seen.add(expected if isinstance(expected, type) else expected[1])
    assert seen == {
        "nilpotent",
        "case1_nonzero_real_part",
        "case2_imaginary_pair",
        "out_of_scope_n_gt_5",
        PreconditionError,
        CertificateError,
    }


def test_decide_matches_sympy_reference():
    """``_decide`` on ``la.Poly`` against the sympy code it replaced, on
    the cases of the element-wise test above and the criterion-6
    fixtures, the latter given both as ints and as sympy numbers."""
    rng = random.Random(6006)
    shapes = ("case1", "case2", "spiral", "nilpotent", "unclosed", "arbitrary")
    polys = []
    for i in range(240):
        m, _ = _conjugated(rng, _random_blocks(rng, shapes[i % len(shapes)]))
        polys.append(la.charpoly(m))
    fixtures = [
        ((), ((1, 1), (-1, 1))),
        ((1, -1), ((0, 1),)),
        ((5, -5), ((0, 3), (0, 4))),
        ((0,), ((0, 0),)),
    ]
    for reals, pairs in fixtures:
        owned = _spectrum_poly(EigenvalueData(reals, pairs))
        symbolic = EigenvalueData(
            tuple(sp.sqrt(r * r) * (1 if r >= 0 else -1) for r in reals),
            tuple((sp.Integer(a), sp.sqrt(b * b)) for a, b in pairs),
        )
        assert _spectrum_poly(symbolic) == owned
        polys.append(owned)
    tags = set()
    for p in polys:
        n = len(p) - 1
        ours = _outcome(lambda q: _decide(q, n), p)
        assert ours == _outcome(lambda q: reference_decide(to_sympy_poly(q), n), p), p
        tags.add(ours if isinstance(ours, type) else ours[0])
    assert tags == {"nilpotent", "case1_nonzero_real_part", "case2_imaginary_pair",
                    "out_of_scope_n_gt_5", PreconditionError, CertificateError}


def test_irrational_spectrum_must_have_rational_charpoly():
    with pytest.raises(PreconditionError, match="not the spectrum of a rational matrix"):
        obstruction_verdict(EigenvalueData(reals=(sp.sqrt(2), sp.sqrt(2))))
    with pytest.raises(PreconditionError):
        obstruction_verdict(EigenvalueData(reals=(sp.pi, -sp.pi)))


# --- no float decides anything ----------------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("a float evaluation took part in an exact decision")


def _rationals_only(evalf):
    # sympy evaluates rationals internally (sign tests in sqrt, say);
    # those are exact, so only an irrational argument is refused
    def guarded(self, *args, **kwargs):
        if not self.is_Rational:
            _refuse()
        return evalf(self, *args, **kwargs)

    return guarded


def test_verdicts_and_relations_never_evaluate_numerically(monkeypatch, tmp_path):
    from sympy.core.cache import clear_cache
    from sympy.polys.rootoftools import ComplexRootOf

    clear_cache()
    monkeypatch.setattr(sp.Expr, "equals", _refuse)
    monkeypatch.setattr(ComplexRootOf, "_eval_evalf", _refuse)
    monkeypatch.setattr(sp.Expr, "evalf", _rationals_only(sp.Expr.evalf))
    monkeypatch.setattr(sp.Expr, "n", _rationals_only(sp.Expr.n))
    pool_file = Path(__file__).parents[1] / "perfbench" / "pool" / "spectra.json.gz"
    with gzip.open(pool_file) as fh:
        docs = {e["id"]: e["doc"] for e in json.load(fh) if e["id"] in ("rb6-3", "rb8-2")}
    targets = [("example42", "a")]
    for name, doc in sorted(docs.items()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        targets.append((str(path), "a0"))
    assert len(targets) == 3
    outputs = {}
    for target, element in targets:
        for command in ("obstruct", "relations"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([command, target, "--element", element, "--format", "json"]) == 0
            outputs[command, Path(target).stem] = json.loads(out.getvalue())["results"]
    # the vectors of the field Q(i) on the eigenvalues 10, -10, 0, 0,
    # -6i, 6i, -8i, 8i: the roots of the two factors are tied with signs
    rb8 = outputs["relations", "rb8-2"]
    assert rb8["field_degree"] == 2 and rb8["quadratic_identity_holds"]
    assert rb8["relations"] == [
        ["1", "1", "0", "0", "0", "0", "0", "0"],
        ["0", "0", "1", "0", "0", "0", "0", "0"],
        ["0", "0", "0", "1", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "1", "1", "0", "0"],
        ["0", "0", "0", "0", "-4/3", "0", "1", "0"],
        ["0", "0", "0", "0", "4/3", "0", "0", "1"],
    ]
    assert outputs["obstruct", "rb8-2"]["case_tag"] == "out_of_scope_n_gt_5"
    assert outputs["obstruct", "rb6-3"]["case_tag"] == "case2_imaginary_pair"
    lam = sp.sqrt(3**2 + 4**2)
    fixtures = {
        ((), ((1, 1), (-1, 1))): "case1_nonzero_real_part",
        ((1, -1), ((0, 1),)): "case2_imaginary_pair",
        ((lam, -lam), ((0, 3), (0, 4))): "out_of_scope_n_gt_5",
        ((0,), ((0, 0),)): "nilpotent",
    }
    for (reals, pairs), tag in fixtures.items():
        assert obstruction_verdict(EigenvalueData(reals, pairs)).case_tag == tag
    # the listed spectrum of ad(a), whose pair is (0, 1)
    listed = spectrum_data(ad(build_example42().algebra, la.unit_vec(6, 0)))
    assert obstruction_verdict(listed).case_tag == "out_of_scope_n_gt_5"
    assert trace_identity(listed).holds is True


def test_verdict_on_listed_spectra_of_matrices():
    # spectrum_data lists quadratic roots in radicals, and the pair
    # 1 +- i as (1, 1)
    cases = (
        _blockdiag(((1, -1), (1, 1)), ((-1, -1), (1, -1))),  # +-1 +- i
        _blockdiag(((0, 2), (1, 0)), ((0, -2), (1, 0))),  # +-sqrt 2, +-i sqrt 2
        _blockdiag(((2,),), ((-2,),), ((0, -2), (2, 0))),  # +-2, +-2i
    )
    for m in cases:
        listed, direct = obstruction_verdict(spectrum_data(m)), obstruction_verdict(m)
        assert listed.case_tag == direct.case_tag != "out_of_scope_n_gt_5"
        assert listed.hypothesis_checks == direct.hypothesis_checks
        assert trace_identity(spectrum_data(m)).value == 0
    with pytest.raises(PreconditionError, match="trace identity violated"):
        obstruction_verdict(spectrum_data(((0, -4), (1, 0))))
