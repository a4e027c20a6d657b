"""Workload definitions: the ops each workload runs, derived from a seed,
and the checks their outputs must pass.

Standard library only. Nothing here imports metriclie: the ops are plain
data that ``worker.py`` executes, and the inputs come from the committed
pools under ``pool/`` (see ``make_pool.py``), so every commit is measured
on the same inputs.

An op is a dict with
  id      stable name of the input; keys the reference digests
  call    "cli" (argv for metriclie.cli.main), "search" (args for
          sharpness_search) or "verdict" (an EigenvalueData fixture)
  expect  what the correctness check compares the output against
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("search", "reduce", "spectra")
DEFAULT_SEED = 1
# Not used while tuning any change; re-check a claimed gain on it.
HELD_OUT_SEED = 9973

# Every run, traced or not, executes exactly this many rounds after the
# first op. Rounds hold 10 search, 14 reduce and 9 spectra ops, so a run
# times 100, 42 and 36 loop ops. More would not fit: a run of each
# workload takes about 25, 45 and 55 s on 2 vCPUs, and the whole set of
# 70 runs a comparison makes must end within an hour.
ROUNDS = {"search": 10, "reduce": 3, "spectra": 4}
# first_op_s is the median over this many fresh interpreters; one for
# spectra, whose first op alone takes ~25 s of CPU time.
FIRST_OP_SAMPLES = {"search": 5, "reduce": 3, "spectra": 1}
# op_tail_s is the latency at this percentile: the highest one that keeps
# at least ten samples beyond it in ROUNDS rounds.
TAIL_PERCENTILE = {"search": 90, "reduce": 76, "spectra": 72}

SEARCH_DIMS = (3, 8)
SEARCH_INDEX = (1, 2)
SEARCH_BUDGET = 20
SEARCH_POOL = 1500  # op seeds 1..SEARCH_POOL
SEARCH_FIRST_SEED = 0

REDUCE_KINDS = ("analyze", "complete-reduce")
PROBE_GRIDS = ("1", "1/2", "0,1")
FIXTURES = {
    # acceptance criterion 6; the spiral's lambda = sqrt(3^2 + 4^2) = 5
    "case1": ((), ((1, 1), (-1, 1)), "case1_nonzero_real_part", "obstructed"),
    "case2": ((1, -1), ((0, 1),), "case2_imaginary_pair", "obstructed"),
    "spiral": ((5, -5), ((0, 3), (0, 4)), "out_of_scope_n_gt_5", "schanuel_conditional"),
    "nilpotent": ((0,), ((0, 0),), "nilpotent", "inapplicable"),
}


def load_pool(name: str) -> list:
    with gzip.open(HERE / "pool" / f"{name}.json.gz") as fh:
        return json.load(fh)


def write_docs(docdir: Path) -> None:
    """Write every pool document to docdir/<id>.json for the CLI ops."""
    docdir.mkdir(parents=True, exist_ok=True)
    for pool in ("reduce", "spectra"):
        for entry in load_pool(pool):
            (docdir / f"{entry['id']}.json").write_text(json.dumps(entry["doc"]))


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# op builders
# ---------------------------------------------------------------------------


def _cli(op_id: str, argv: list[str], expect: dict) -> dict:
    return {"id": op_id, "call": "cli", "argv": argv + ["--format", "json"], "expect": expect}


def _search(seed: int) -> dict:
    args = {
        "dim_range": list(SEARCH_DIMS),
        "index_range": list(SEARCH_INDEX),
        "budget": SEARCH_BUDGET,
        "seed": seed,
    }
    op_id = f"search:{SEARCH_DIMS[0]}-{SEARCH_DIMS[1]}:{SEARCH_INDEX[0]}-{SEARCH_INDEX[1]}:{SEARCH_BUDGET}:{seed}"
    return {"id": op_id, "call": "search", "args": args, "expect": {}}


def _reduce(kind: str, entry: dict, docdir: Path) -> dict:
    p, q, r = entry["signature"]
    expect = {"dim": entry["dim"], "signature": [p, q, r], "witt": min(p, q)}
    return _cli(f"{kind}:{entry['id']}", [kind, str(docdir / f"{entry['id']}.json")], expect)


def _obstruct(target: str, element: str, path: str, dim: int) -> dict:
    if dim == 8:
        expect = {"case_tag": "out_of_scope_n_gt_5", "verdict": "schanuel_conditional", "n": 6}
    else:
        expect = {"case_tag": "case2_imaginary_pair", "verdict": "obstructed", "n": 4}
    return _cli(f"obstruct:{target}", ["obstruct", path, "--element", element], expect)


def _relations(target: str, path: str, dim: int) -> dict:
    # the spectrum spans Q + Qi, so dim - 2 independent rational relations
    expect = {"eigenvalues": dim, "relations": dim - 2, "field_degree": 2}
    return _cli(f"relations:{target}", ["relations", path, "--element", "a0"], expect)


def _probe(target: str, path: str, grid: str) -> dict:
    expect = {"times": [str(Fraction(t)) for t in grid.split(",")]}
    return _cli(
        f"probe:{target}:{grid}",
        ["probe", path, "--element", "a0", "--times", grid],
        expect,
    )


def _verdict(name: str) -> dict:
    reals, pairs, tag, verdict = FIXTURES[name]
    return {
        "id": f"verdict:{name}",
        "call": "verdict",
        "fixture": {"reals": list(reals), "complex_pairs": [list(p) for p in pairs]},
        "expect": {"case_tag": tag, "verdict": verdict},
    }


def _split(combo: tuple[str, ...], docdir: Path) -> dict:
    name = "+".join(combo)
    expect = {"copies": len(combo), "compact": 3 * combo.count("su2"), "noncompact_ideals": combo.count("sl2")}
    return _cli(f"split-semisimple:{name}", ["split-semisimple", str(docdir / f"{name}.json")], expect)


def first_op(workload: str, docdir: Path) -> dict:
    """The fixed op every run starts with in its fresh interpreter."""
    if workload == "search":
        return _search(SEARCH_FIRST_SEED)
    if workload == "reduce":
        entry = next(e for e in load_pool("reduce") if e["id"] == "example42")
        return _reduce("complete-reduce", entry, docdir)
    return _obstruct("example42", "a", "example42", 6)


def _streams(workload: str, docdir: Path) -> list[list[dict]]:
    """The op slots of a round: each round runs one op of every stream."""
    if workload == "search":
        # the cost strata of make_pool.py
        return [[_search(seed) for seed in stratum] for stratum in load_pool("search")]
    if workload == "reduce":
        by_dim: dict[int, list[dict]] = {}
        for entry in load_pool("reduce"):
            if entry["id"] != "example42":
                by_dim.setdefault(entry["dim"], []).append(entry)
        return [
            [_reduce(kind, entry, docdir) for entry in entries]
            for _, entries in sorted(by_dim.items())
            for kind in REDUCE_KINDS
        ]
    targets = {
        e["id"]: (str(docdir / f"{e['id']}.json"), e["dim"])
        for e in load_pool("spectra")
        if e["id"].startswith("rb")
    }
    streams = []
    for family in ("rb6", "rb8"):
        members = sorted(t for t in targets if t.startswith(family))
        streams.append([_obstruct(t, "a0", *targets[t]) for t in members])
        streams.append([_relations(t, *targets[t]) for t in members])
        streams.append([_probe(t, targets[t][0], grid) for t in members for grid in PROBE_GRIDS])
    streams.append([_verdict(name) for name in sorted(FIXTURES)])
    combos = [tuple(e["id"].split("+")) for e in load_pool("spectra") if not e["id"].startswith("rb")]
    for copies in (2, 3):
        streams.append([_split(c, docdir) for c in combos if len(c) == copies])
    return streams


def _stratified(rng: random.Random, items: list, n: int) -> list:
    """n of the items, which are sorted by cost: every item once per
    whole pass through them, then one from each of the equal cost strata
    that the rest needs, in seeded order. So every seed draws the same
    mix of cheap and costly ops, and no item twice unless n exceeds them."""
    picks = []
    while n >= len(items):
        picks += items
        n -= len(items)
    size = len(items)
    picks += [rng.choice(items[i * size // n : (i + 1) * size // n]) for i in range(n)]
    rng.shuffle(picks)
    return picks


def seeded_rounds(workload: str, seed: int, docdir: Path, n: int) -> list[list[dict]]:
    """n rounds (lists of ops) for one workload, determined by the seed.
    Every round holds one op of each stream in seeded order, and each
    stream is drawn stratified by the op costs in pool/costs.json.gz, so
    runs on different seeds measure comparable work."""
    rng = random.Random(f"{workload}:{seed}")
    costs = load_pool("costs")
    columns = [
        _stratified(rng, sorted(stream, key=lambda op: costs.get(op["id"], 0.0)), n)
        for stream in _streams(workload, docdir)
    ]
    return [rng.sample(ops, len(ops)) for ops in zip(*columns)]


def universe(workload: str, docdir: Path) -> list[dict]:
    """Every op a run can draw, first op first."""
    return [first_op(workload, docdir)] + [op for s in _streams(workload, docdir) for op in s]


# ---------------------------------------------------------------------------
# correctness checks: each returns a list of problems, empty when correct
# ---------------------------------------------------------------------------


def check(op: dict, output) -> list[str]:
    if not isinstance(output, dict):
        return ["output is not a JSON object"]
    try:
        if op["call"] == "search":
            return _check_search(op, output)
        if op["call"] == "verdict":
            return _check_verdict(op["expect"], output)
        command = op["argv"][0]
        return _CLI_CHECKS[command](op["expect"], output)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def _check_search(op: dict, out: dict) -> list[str]:
    """The constraints acceptance criterion 7 certifies on every hit."""
    args = op["args"]
    lo, hi = args["dim_range"]
    ilo, ihi = args["index_range"]
    problems = []
    if out["examined"] != args["budget"]:
        problems.append(f"examined {out['examined']} of budget {args['budget']}")
    for h in out["hits"]:
        p, q, r = h["signature"]
        where = f"hit at sample {h['sample']}"
        if not (h["einstein"] and lo <= h["dim"] <= hi and ilo <= h["index"] <= ihi):
            problems.append(f"{where}: outside the searched ranges or not Einstein")
        if p + q + r != h["dim"] or r != 0 or h["index"] != min(p, q):
            problems.append(f"{where}: signature {h['signature']} does not match")
        if h["index"] == 1 and not h["abelian"]:
            problems.append(f"{where}: index-1 Einstein hit is not abelian")
        if h["dim"] <= 5 and not h["nilpotent"]:
            problems.append(f"{where}: non-nilpotent Einstein hit below dimension 6")
        if h["abelian"] and not h["nilpotent"]:
            problems.append(f"{where}: abelian but not nilpotent")
        if h["nilpotent"] and h["dim_nilradical"] != h["dim"]:
            problems.append(f"{where}: nilpotent but nilradical is smaller")
        if (h["dim"], h["index"]) == (6, 2) and not h["nilpotent"] and h["dim_nilradical"] != 5:
            problems.append(f"{where}: tight dim-6 hit with nilradical {h['dim_nilradical']}")
    return problems


def _check_verdict(expect: dict, out: dict) -> list[str]:
    problems = []
    for key in ("case_tag", "verdict", "n"):
        if key in expect and out[key] != expect[key]:
            problems.append(f"{key} {out[key]!r}, expected {expect[key]!r}")
    if out["verdict"] == "obstructed" and not all(out["hypothesis_checks"].values()):
        problems.append("obstructed verdict with a failed hypothesis check")
    return problems


def _check_analyze(expect: dict, out: dict) -> list[str]:
    problems = []
    p, q, r = expect["signature"]
    if out["dim"] != expect["dim"]:
        problems.append(f"dim {out['dim']}, expected {expect['dim']}")
    if out["signature"] != [p, q, r] or out["witt_index"] != expect["witt"]:
        problems.append(f"signature {out['signature']}, expected {[p, q, r]}")
    if not (out["solvable"] and out["form_invariant"] and out["form_nondegenerate"]):
        problems.append("double extension of an abelian base reported as not solvable metric")
    if out["abelian"] and out["nilradical_dim"] != out["dim"]:
        problems.append("abelian algebra with a proper nilradical")
    return problems


def _check_complete_reduce(expect: dict, out: dict) -> list[str]:
    problems = []
    fp, fq, fr = out["final_signature"]
    final_dim = out["final"]["dim"]
    if not out["final_abelian"]:
        problems.append("final algebra is not abelian")
    if fr != 0 or (fp and fq):
        problems.append(f"final form {out['final_signature']} is not definite")
    if final_dim != expect["dim"] - 2 * expect["witt"] or fp + fq + fr != final_dim:
        problems.append(f"final dim {final_dim}, expected {expect['dim']} - 2*{expect['witt']}")
    if out["steps"] != expect["witt"]:
        problems.append(f"{out['steps']} steps, expected {expect['witt']}")
    return problems


def _check_relations(expect: dict, out: dict) -> list[str]:
    problems = []
    if len(out["eigenvalues"]) != expect["eigenvalues"]:
        problems.append(f"{len(out['eigenvalues'])} eigenvalues, expected {expect['eigenvalues']}")
    if len(out["relations"]) != expect["relations"]:
        problems.append(f"{len(out['relations'])} relations, expected {expect['relations']}")
    if out["field_degree"] != expect["field_degree"]:
        problems.append(f"field degree {out['field_degree']}, expected {expect['field_degree']}")
    for rel in out["relations"]:
        if len(rel) != expect["eigenvalues"] or all(Fraction(c) == 0 for c in rel):
            problems.append(f"relation {rel} is zero or has the wrong length")
    if not out["quadratic_identity_holds"]:
        problems.append("the quadratic trace identity fails")
    return problems


def _check_probe(expect: dict, out: dict) -> list[str]:
    problems = []
    times = [pt["t"] for pt in out["points"]]
    if times != expect["times"]:
        problems.append(f"probed {times}, expected {expect['times']}")
    for pt in out["points"]:
        zero = Fraction(pt["t"]) == 0
        # exp(t ad a) has eigenvalue e^{bt}, transcendental for t != 0
        if pt["trivially_integral"] != zero or pt["integrality_excluded"] == zero:
            problems.append(f"t={pt['t']}: integrality not decided as expected")
    if out["any_excluded"] != any(Fraction(t) != 0 for t in expect["times"]):
        problems.append("any_excluded disagrees with the points")
    return problems


def _check_split(expect: dict, out: dict) -> list[str]:
    problems = []
    n = 3 * expect["copies"]
    if sorted(out["ideal_dims"]) != [3] * expect["copies"]:
        problems.append(f"simple ideals {out['ideal_dims']}, expected {expect['copies']} of dim 3")
    if out["compact_dim"] != expect["compact"] or out["noncompact_dim"] != n - expect["compact"]:
        problems.append(f"compact/noncompact {out['compact_dim']}/{out['noncompact_dim']}")
    rep = out["form_report"]
    if not (rep["s_invariant"] and rep["k_perp_s"] and rep["s_cap_radical_zero"]):
        problems.append("split form report fails a certificate")
    # the pool carries the Killing form itself: constant 1 on each sl2
    # ideal, and no constant without a noncompact ideal
    sl2_count = expect["noncompact_ideals"]
    if rep["ideal_constants"] != ["1"] * sl2_count:
        problems.append(f"ideal constants {rep['ideal_constants']}, expected {sl2_count} of 1")
    if rep["uniform_constant"] != ("1" if sl2_count else None):
        problems.append(f"uniform constant {rep['uniform_constant']}")
    return problems


_CLI_CHECKS = {
    "analyze": _check_analyze,
    "complete-reduce": _check_complete_reduce,
    "obstruct": _check_verdict,
    "relations": _check_relations,
    "probe": _check_probe,
    "split-semisimple": _check_split,
}
