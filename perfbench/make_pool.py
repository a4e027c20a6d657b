"""Regenerate the committed input pools under perfbench/pool/.

The pools are generated once with the library and committed, so every
commit is measured on byte-identical inputs even when a later change
alters how the library's own random builders draw their samples.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/make_pool.py

The reduce and spectra documents are deterministic. The search strata
and the reduce and spectra op costs come from timing every op once
(about 4 and 8 minutes on 2 vCPUs), so they can differ between
regenerations. Regenerating the pools changes
the workloads: measure the baseline and record the reference digests
(perfbench/run.py --record-reference) again afterwards.
"""

from __future__ import annotations

import gzip
import json
import random
import shutil
import time
from fractions import Fraction
from pathlib import Path

import run
import workloads
from metriclie import documents
from metriclie.catalog import direct_sum, sl2, su2
from metriclie.einstein import sharpness_search
from metriclie.reduction import (
    DoubleExtensionSpec,
    build_ab,
    build_example42,
    double_extend,
    iterated_double_extension,
)

POOL_DIR = Path(__file__).resolve().parent / "pool"
REDUCE_DIMS = range(4, 11)
REDUCE_PER_DIM = 30
POOL_SEED = 20161126


def _doc(m, name: str) -> dict:
    return documents.emit_document(
        documents.algebra_to_document(m.algebra, m.form, name=name)
    )


def _reduce_pool() -> list[dict]:
    """Iterated double extensions of abelian bases ab(n, s).

    The signature is recorded from the construction, not from the
    library: ab(n, s) has signature (n - s, s) and every one-dimensional
    double extension adds one hyperbolic plane.
    """
    rng = random.Random(POOL_SEED)
    out = [
        {
            "id": "example42",
            "dim": 6,
            "signature": [4, 2, 0],
            "doc": _doc(build_example42(), "example42"),
        }
    ]
    for dim in REDUCE_DIMS:
        for i in range(REDUCE_PER_DIM):
            steps = rng.choice([t for t in (1, 2, 3) if dim - 2 * t >= 1])
            n = dim - 2 * steps
            s = rng.randint(0, n)
            m = iterated_double_extension(rng, build_ab(n, s), steps)
            name = f"r{dim:02d}-{i:02d}"
            out.append(
                {
                    "id": name,
                    "dim": dim,
                    "signature": [n - s + steps, s + steps, 0],
                    "doc": _doc(m, name),
                }
            )
    return out


def _rotation_boost(rotations: tuple[int, ...], boost: int):
    """One-step double extension of ab(2r + 2, 1) by blockdiag(rotation
    blocks, boost block): the rotation-boost Einstein families."""
    m = 2 * len(rotations) + 2
    d = [[Fraction(0)] * m for _ in range(m)]
    for i, b in enumerate(rotations):
        d[2 * i][2 * i + 1] = Fraction(-b)
        d[2 * i + 1][2 * i] = Fraction(b)
    d[m - 2][m - 1] = Fraction(boost)
    d[m - 1][m - 2] = Fraction(boost)
    delta = tuple(tuple(r) for r in d)
    return double_extend(DoubleExtensionSpec(base=build_ab(m, 1), deltas=(delta,)))


def _spectra_pool() -> list[dict]:
    out = []
    for b in range(1, 10):
        out.append(
            {"id": f"rb6-{b}", "dim": 6, "doc": _doc(_rotation_boost((b,), b), f"rb6_{b}")}
        )
    for k in range(1, 4):
        out.append(
            {
                "id": f"rb8-{k}",
                "dim": 8,
                "doc": _doc(_rotation_boost((3 * k, 4 * k), 5 * k), f"rb8_{k}"),
            }
        )
    simple = {"sl2": sl2, "su2": su2}
    combos = [(a, b) for a in simple for b in simple]
    combos += [(a, b, c) for a in simple for b in simple for c in simple]
    for combo in combos:
        m = simple[combo[0]]()
        for name in combo[1:]:
            m = direct_sum(m, simple[name]())
        out.append(
            {"id": "+".join(combo), "dim": 3 * len(combo), "doc": _doc(m, "_".join(combo))}
        )
    return out


def _search_strata() -> list[list[int]]:
    """The search op seeds 1..SEARCH_POOL in ten strata by the CPU time
    of their op here, cheapest first. A search round draws one seed from
    each stratum, so every run gets the same mix of cheap and costly ops;
    seeds drawn at random would put the median op on the boundary
    between searches with and without an iterated extension."""
    costs = {}
    for seed in range(1, workloads.SEARCH_POOL + 1):
        t = time.process_time()
        sharpness_search(
            workloads.SEARCH_DIMS, workloads.SEARCH_INDEX, workloads.SEARCH_BUDGET, seed=seed
        )
        costs[seed] = time.process_time() - t
    order = sorted(costs, key=costs.__getitem__)
    n = len(order)
    return [sorted(order[i * n // 10 : (i + 1) * n // 10]) for i in range(10)]


def _op_costs() -> dict[str, float]:
    """Calibrated time of every reduce and spectra op, each run once in
    a fresh worker. seeded_rounds draws the ops of each stream
    stratified by these costs."""
    work = run.ROOT / ".perfbench_work" / "make_pool"
    workloads.write_docs(work / "docs")
    costs = {}
    try:
        for workload in ("reduce", "spectra"):
            res = run._worker(work, workload, 0, ["--universe"], workload, time.monotonic() + 3600)
            costs.update((rec["id"], rec["time_s"]) for rec in res["ops"][1:])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return costs


def _write(name: str, entries) -> None:
    data = json.dumps(entries, sort_keys=True, separators=(",", ":")).encode()
    # mtime=0 keeps the archive byte-identical across regenerations
    with gzip.GzipFile(POOL_DIR / f"{name}.json.gz", "wb", mtime=0) as fh:
        fh.write(data)


def main() -> None:
    POOL_DIR.mkdir(exist_ok=True)
    _write("reduce", _reduce_pool())
    _write("spectra", _spectra_pool())
    _write("search", _search_strata())
    _write("costs", _op_costs())


if __name__ == "__main__":
    main()
