"""Self-test of the benchmark on a tiny input.

    python3 perfbench/selftest.py

Runs the `search` benchmark (its fixed ten rounds, about 20 s), then
one round of `search` ops (10) and one of `reduce` ops (14). Checks
that their real outputs pass, then feeds the checker deliberately wrong
outputs and requires each to be flagged. A changed digest must be
counted, not failed. Exits 0 when every case behaves; takes about a
minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import os
import time

import run
import workloads


def _bench_line() -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "search"],
        capture_output=True, text=True, check=True, timeout=170,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    assert line["correct"] and line["failed"] == 0, line
    assert set(line["metrics"]) == set(run.END_TO_END), line["metrics"]
    return line


def _mutations(rec: dict):
    """(label, wrong output) pairs for one correct op record."""
    op, out = rec["op"], rec["output"]
    cmd = op["argv"][0] if op["call"] == "cli" else op["call"]
    if cmd == "complete-reduce":
        yield "non-abelian final algebra", {**out, "final_abelian": False}
        yield "indefinite final form", {**out, "final_signature": [1, 1, 0]}
        yield "missed reduction step", {**out, "steps": out["steps"] - 1}
    elif cmd == "analyze":
        yield "wrong signature", {**out, "signature": out["signature"][::-1] + [1]}
    elif cmd == "search":
        bad = copy.deepcopy(out)
        bad["hits"].append({
            "spec": "forged", "dim": 6, "index": 1, "signature": [5, 1, 0],
            "dim_nilradical": 5, "einstein": True, "einstein_constant": "0",
            "nilpotent": False, "abelian": False, "sample": 0,
        })
        yield "index-1 non-abelian Einstein hit", bad
        yield "short budget", {**out, "examined": out["examined"] - 1}


def _spectra_cases():
    path = "example42"
    good = {"n": 4, "case_tag": "case2_imaginary_pair", "verdict": "obstructed",
            "hypothesis_checks": {"trace_identity": True}}
    op = workloads._obstruct("example42", "a", path, 6)
    assert not workloads.check(op, good)
    yield "wrong case tag", op, {**good, "case_tag": "case1_nonzero_real_part"}
    yield "failed hypothesis", op, {**good, "hypothesis_checks": {"trace_identity": False}}
    op8 = workloads._obstruct("rb8-1", "a0", path, 8)
    yield "dim-8 verdict not conditional", op8, good
    probe = workloads._probe("rb6-1", path, "0,1")
    yield "integrality not excluded at t=1", probe, {"any_excluded": False, "points": [
        {"t": "0", "trivially_integral": True, "integrality_excluded": False},
        {"t": "1", "trivially_integral": False, "integrality_excluded": False}]}


def main() -> int:
    line = _bench_line()
    print(f"search: {line['attempted']} ops, all correct")

    work = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        workloads.write_docs(work / "docs")
        recs = []
        for workload in ("search", "reduce"):
            res = run._worker(work, workload, workloads.DEFAULT_SEED, ["--rounds", "1"], workload,
                              time.monotonic() + 170)
            recs += res["ops"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    failures = 0
    for rec in recs:
        assert not rec["error"] and not workloads.check(rec["op"], rec["output"]), rec["id"]
        for label, wrong in _mutations(rec):
            if workloads.check(rec["op"], wrong):
                print(f"flagged: {label} ({rec['id']})")
            else:
                print(f"MISSED: {label} ({rec['id']})")
                failures += 1
    for label, op, wrong in _spectra_cases():
        if workloads.check(op, wrong):
            print(f"flagged: {label} ({op['id']})")
        else:
            print(f"MISSED: {label} ({op['id']})")
            failures += 1

    # a changed digest is counted, never failed
    fake_reference = {rec["id"]: "0" * 16 for rec in recs}
    counted = run._assess([{"ops": recs}], fake_reference)
    if counted["failed"] or counted["digests"]["changed"] != len(recs):
        print(f"MISSED: changed digests should be counted, got {counted['digests']}")
        failures += 1
    else:
        print(f"counted: {len(recs)} changed digests, 0 failures")
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
