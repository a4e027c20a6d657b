"""The owned Q[x] / Q(sqrt d) layer against the sympy code it replaced
(``conftest.reference_*``), and the gates that keep sympy off the
import path of every spectrum of degree <= 2."""

import json
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclie import linalg as la
from metriclie.errors import CertificateError
from metriclie.obstruction import (
    _all_roots_real,
    _has_root,
    exact_eigenvalues,
    obstruction_verdict,
    qlinear_relations,
    spectrum_data,
)
from metriclie.quadratic import Quadratic, field_sum, irreducible_factors, quadratic_roots

from conftest import (
    from_sympy_poly,
    random_rational_poly,
    reference_all_roots_real,
    reference_factor_list,
    reference_graeffe,
    reference_has_root,
    to_sympy_poly,
)

ROOT = Path(__file__).resolve().parents[1]


def _sympy_counts(p):
    """(negative, positive, all) distinct real roots by sympy."""
    q = to_sympy_poly(p).sqf_part()
    at_zero = 1 if q.all_coeffs()[-1] == 0 else 0
    return q.count_roots(None, 0) - at_zero, q.count_roots(0, None) - at_zero, q.count_roots()


def _check_against_sympy(p, q):
    x = sp.Symbol("x")
    sp_p, sp_q = to_sympy_poly(p), to_sympy_poly(q)
    assert la.poly_sturm_counts(p) == _sympy_counts(p)
    assert [_has_root(p, 1), _has_root(p, -1)] == [reference_has_root(sp_p, 1), reference_has_root(sp_p, -1)]
    assert _all_roots_real(p) == reference_all_roots_real(sp_p)
    assert la.poly_graeffe(p) == from_sympy_poly(reference_graeffe(sp_p))
    assert la.poly_reflect(p) == from_sympy_poly(sp_p.compose(sp.Poly(-x, x, domain="QQ")))
    s, t, g = la.poly_gcdex(p, q)
    ref = sp.gcdex(sp_p.as_expr(), sp_q.as_expr(), x)
    assert (s, t, g) == tuple(from_sympy_poly(sp.Poly(e, x, domain="QQ")) for e in ref)
    assert la.poly_mul(p, q) == from_sympy_poly(sp_p * sp_q)
    # poly_factor splits off every factor of degree <= 2; sympy's factors
    # of degree >= 3 with one multiplicity are its unsplit rest
    ref_factors = reference_factor_list(p)
    own = sorted(la.poly_factor(p), key=lambda fk: (fk[1], fk[0]))
    expected = [(f, k) for f, k in ref_factors if len(f) <= 3]
    for k in sorted({k for f, k in ref_factors if len(f) > 3}):
        rest = (la.ONE,)
        for f, j in ref_factors:
            if len(f) > 3 and j == k:
                rest = la.poly_mul(rest, f)
        expected.append((rest, k))
    assert own == sorted(expected, key=lambda fk: (fk[1], fk[0]))
    assert irreducible_factors(p) == ref_factors


def test_qx_layer_matches_sympy_on_seeded_polynomials():
    rng = random.Random(1919)
    seen_cubic = seen_quadratic_pair = 0
    for _ in range(150):
        p, q = random_rational_poly(rng), random_rational_poly(rng)
        _check_against_sympy(p, q)
        factors = reference_factor_list(p)
        seen_cubic += any(len(f) > 3 for f, _ in factors)
        seen_quadratic_pair += sum(len(f) == 3 for f, _ in factors) >= 2
    assert seen_cubic >= 10 and seen_quadratic_pair >= 5


_coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(st.lists(_coeff, max_size=6), st.lists(_coeff, max_size=6))
def test_qx_layer_matches_sympy_hypothesis(tail_p, tail_q):
    _check_against_sympy((Fraction(1), *tail_p), (Fraction(1), *tail_q))


def test_factoring_splits_products_of_quadratics():
    # no rational root: the rest is split into its quadratic factors by
    # the divisor search, including one with a rational scale
    quads = [(1, 0, 9), (1, 0, 16), (1, -2, 5), (1, Fraction(4, 3), Fraction(8, 9)), (1, 0, -2)]
    quads = [tuple(map(Fraction, f)) for f in quads]
    p = (la.ONE,)
    for f in quads:
        p = la.poly_mul(p, f)
    assert sorted(la.poly_factor(p)) == sorted((f, 1) for f in quads)
    # a quartic without factors of degree <= 2 stays whole
    quartic = tuple(map(Fraction, (1, 0, 0, 0, -2)))
    assert la.poly_factor(la.poly_mul(quartic, quads[0])) == [(quads[0], 1), (quartic, 1)]


def test_quadratic_arithmetic_matches_sympy():
    rng = random.Random(2024)

    def rand_q():
        d = rng.choice((2, 3, 5, 8, 12, -1, -3, -4, -8, 1, 9))
        return Quadratic(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-3, 3), rng.randint(1, 3)), d)

    for _ in range(200):
        a, b = rand_q(), rand_q()
        sa, sb = sp.sympify(a), sp.sympify(b)
        # the canonical form reads back as the same number
        assert sp.sympify(str(a)) == sa
        try:
            results = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb)]
        except ValueError:
            # two fields: sqrt(d) sqrt(e) is irrational
            assert not sp.sqrt(a.d * b.d).is_rational
            continue
        for ours, theirs in results:
            assert sp.expand(sp.radsimp(sp.sympify(ours) - theirs)) == 0
        assert (a == b) == (sp.expand(sa - sb) == 0)
        if a == b:
            assert hash(a) == hash(b)
        # certified boxes of the requested width contain the number
        width = Fraction(1, 2 ** rng.randint(0, 40))
        (rlo, rhi), (ilo, ihi) = a.box(width)
        assert rhi - rlo <= width and ihi - ilo <= width
        re, im = sp.re(sa), sp.im(sa)
        assert sp.Rational(rlo) <= re <= sp.Rational(rhi) and sp.Rational(ilo) <= im <= sp.Rational(ihi)


def test_quadratic_canonical_form():
    assert str(Quadratic(3)) == "3"
    assert str(Quadratic(Fraction(-2, 3), Fraction(2, 3), -1)) == "-2/3 + 2*I/3"
    assert str(Quadratic(1, -1, 12)) == "1 - 2*sqrt(3)"
    assert str(Quadratic(0, Fraction(3, 2), -8)) == "3*sqrt(2)*I"
    assert Quadratic(0, 1, 8) == Quadratic(0, 2, 2) and Quadratic(5, 2, 9) == 11
    # a square of a prime above the trial-division limit is found too
    assert str(Quadratic(0, 1, 2 * 1031**2)) == "1031*sqrt(2)" and Quadratic(1, 1, 1031**2) == 1032
    assert field_sum([Quadratic(0, 1, 2), Quadratic(0, 1, 3), Quadratic(0, -1, 2)]) == Quadratic(0, 1, 3)
    assert field_sum([Quadratic(0, 1, 2), Quadratic(0, 1, 3)]) is None


def test_roots_of_9x2_12x_8_return_exactly():
    """The companion of 9x^2 + 12x + 8, roots -2/3 +- 2i/3, on which
    sympy's complex root isolation never returned: each call returns
    within 1 s with the exact roots, in a fresh interpreter so that a
    hang fails the test instead of stalling it."""
    code = textwrap.dedent(
        """
        import json, time
        from fractions import Fraction
        from metriclie.errors import CertificateError
        from metriclie.obstruction import exact_eigenvalues, obstruction_verdict, qlinear_relations, spectrum_data

        m = ((Fraction(0), Fraction(-8, 9)), (Fraction(1), Fraction(-4, 3)))
        out = {}
        for name, call in (
            ("exact_eigenvalues", lambda: [str(e.value) for e in exact_eigenvalues(m)]),
            ("spectrum_data", lambda: [[str(a), str(b)] for a, b in spectrum_data(m).complex_pairs]),
            ("qlinear_relations", lambda: [[str(c) for c in r] for r in qlinear_relations(exact_eigenvalues(m)).relations]),
        ):
            t = time.process_time()
            result = call()
            out[name] = (result, time.process_time() - t)
        t = time.process_time()
        try:
            obstruction_verdict(m)
            result = "returned"
        except CertificateError as exc:
            result = str(exc)
        out["obstruction_verdict"] = (result, time.process_time() - t)
        print(json.dumps(out))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert all(seconds < 1 for _, seconds in out.values()), out
    assert out["exact_eigenvalues"][0] == ["-2/3 - 2*I/3", "-2/3 + 2*I/3"]
    assert out["spectrum_data"][0] == [["-2/3", "2/3"]]
    assert out["qlinear_relations"][0] == []
    # the trace identity holds, but the spectrum is not closed under negation
    assert "not closed under negation" in out["obstruction_verdict"][0]


def test_exact_eigenvalues_of_9x2_12x_8_in_process():
    m = ((Fraction(0), Fraction(-8, 9)), (Fraction(1), Fraction(-4, 3)))
    lower, upper = exact_eigenvalues(m)
    assert (lower.value, upper.value) == quadratic_roots((la.ONE, Fraction(4, 3), Fraction(8, 9)))
    assert upper.value == Quadratic(Fraction(-2, 3), Fraction(2, 3), -1)
    assert lower.minpoly == upper.minpoly == (la.ONE, Fraction(4, 3), Fraction(8, 9))
    assert qlinear_relations((lower, upper)).field_degree == 2
    assert spectrum_data(m).complex_pairs == ((Fraction(-2, 3), Fraction(2, 3)),)
    with pytest.raises(CertificateError, match="not closed under negation"):
        obstruction_verdict(m)


def test_spectra_path_never_imports_sympy(tmp_path):
    """obstruct, relations, probe and split-semisimple on pool inputs, an
    obstruction verdict on a fixture, analyze and complete-reduce on
    example42 and one sharpness search, all in one fresh interpreter:
    none of them imports sympy or mpmath."""
    code = textwrap.dedent(
        """
        import contextlib, gzip, io, json, sys
        from pathlib import Path
        from metriclie.cli import main
        from metriclie.einstein import EigenvalueData, sharpness_search
        from metriclie.obstruction import obstruction_verdict

        root, work = Path(sys.argv[1]), Path(sys.argv[2])
        with gzip.open(root / "perfbench" / "pool" / "spectra.json.gz") as fh:
            pool = {e["id"]: e["doc"] for e in json.load(fh)}
        paths = {}
        for name in ("rb6-3", "rb8-2", "sl2+su2", "sl2+sl2+su2"):
            paths[name] = work / f"{name}.json"
            paths[name].write_text(json.dumps(pool[name]))
        argvs = [["obstruct", "example42", "--element", "a"]]
        for name in ("rb6-3", "rb8-2"):
            argvs += [
                ["obstruct", str(paths[name]), "--element", "a0"],
                ["relations", str(paths[name]), "--element", "a0"],
                ["probe", str(paths[name]), "--element", "a0", "--times", "0,1/2"],
            ]
        argvs += [["split-semisimple", str(paths[n])] for n in ("sl2+su2", "sl2+sl2+su2")]
        argvs += [["analyze", "example42"], ["complete-reduce", "example42"]]
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv + ["--format", "json"]) == 0, argv
        assert obstruction_verdict(EigenvalueData((1, -1), ((0, 1),))).verdict == "obstructed"
        assert sharpness_search((3, 8), (1, 2), 20, seed=1).examined == 20
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("sympy", "mpmath"))))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
