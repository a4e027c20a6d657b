"""The metriclie benchmark.

    python3 perfbench/run.py --workload search|reduce|spectra|all \
        [--seed N] [--trace 0|1]
    python3 perfbench/run.py --record-reference

Run from a checkout of the repository; the library is imported from
./src. Each run
  1. writes the committed pool documents to a scratch directory in the
     checkout (input generation is the benchmark's own work and is not
     timed),
  2. times `import metriclie, metriclie.cli` in SETUP_REPEATS fresh
     interpreters, each right after a reference import in another one
     (setup_s is the median of their ratios, scaled to seconds),
  3. runs worker.py in one more fresh, single-threaded interpreter: the
     workload's fixed first op, then a closed loop of the workload's
     fixed number of seeded rounds of ops (workloads.ROUNDS); first_op_s
     is the median first op over this and FIRST_OP_SAMPLES - 1 more
     interpreters,
  4. checks every op's output (workloads.check) and compares its digest
     with reference/digests.json,
  5. prints the metrics: end-to-end with --trace 0; per-layer with
     --trace 1, from a worker that runs the same ops traced.

A run always measures the same ops for a seed, so two commits run the
same length; --seconds is accepted and ignored (a run takes 20-60 s).

Every time metric but setup_s is calibrated CPU time (clock.py): the
measured process's CPU time, corrected for the host's momentary speed
by timing a fixed reference slice every 0.05 s. setup_s is corrected
against a fixed standard-library import instead (REFERENCE_IMPORT). The
report line carries the raw CPU and wall-clock figures as well.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is a JSON report with
the environment, sample counts, percentiles and digest counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
DEADLINE_S = 170.0
REFERENCE = HERE / "reference" / "digests.json"
# setup_s is the import of metriclie in units of a fixed import of
# standard-library modules, timed in its own fresh interpreter right
# before each setup probe, times that import's CPU time on the reference
# machine of clock.py.
REFERENCE_IMPORT = (
    "asyncio, email.parser, http.client, xml.dom.minidom, decimal, unittest, argparse, "
    "logging, multiprocessing, concurrent.futures, tarfile, zipfile, pydoc, csv"
)
REF_IMPORT_S = 0.08


def _import_probe(modules: str) -> str:
    return f"import time\nt = time.process_time()\nimport {modules}\nprint(repr(time.process_time() - t))\n"


IMPORT_PROBE = _import_probe("metriclie, metriclie.cli")
REFERENCE_PROBE = _import_probe(REFERENCE_IMPORT)

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "first_op_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """The benchmark could not produce a result (not a wrong output)."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # sympy iterates sets in hash order, which changes the work it does
    env["PYTHONHASHSEED"] = "0"
    return env


def _call(argv: list[str], deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out: {' '.join(argv[1:3])}")
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _setup_times(deadline: float) -> list[tuple[float, float]]:
    """(metriclie import, reference import) CPU times, each pair from two
    fresh interpreters run back to back. The import is not corrected by
    the clock.py slice: it spends its time unmarshalling code and
    touching fresh memory, which the host's speed changes slow much less
    than the slice, but about as much as the reference import."""

    def cpu(probe: str) -> float:
        return float(_call([sys.executable, "-c", probe], deadline).strip().splitlines()[-1])

    pairs = []
    for _ in range(SETUP_REPEATS):
        ref = cpu(REFERENCE_PROBE)
        pairs.append((cpu(IMPORT_PROBE), ref))
    return pairs


def _worker(workdir: Path, workload: str, seed: int, mode: list[str], tag: str, deadline: float) -> dict:
    out = workdir / f"{tag}.json"
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--docdir", str(workdir / "docs"), "--out", str(out),
    ] + mode
    _call(argv, deadline)
    return json.loads(out.read_text())


def _assess(runs: list[dict], reference: dict) -> dict:
    """Check every op of the given worker runs; count digests."""
    attempted = failed = 0
    digests = {"matched": 0, "changed": 0, "unreferenced": 0}
    problems = []
    for run in runs:
        for rec in run["ops"]:
            attempted += 1
            found = [rec["error"]] if rec["error"] else []
            if not found:
                found = workloads.check(rec["op"], rec["output"])
            if found:
                failed += 1
                problems.append({"op": rec["id"], "problems": found})
                continue
            ref = reference.get(rec["id"])
            if ref is None:
                digests["unreferenced"] += 1
            elif ref == workloads.digest(rec["output"]):
                digests["matched"] += 1
            else:
                digests["changed"] += 1
    return {"attempted": attempted, "failed": failed, "digests": digests, "problems": problems[:20]}


def run_workload(workload: str, seed: int, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Returns (result line, report)."""
    deadline = time.monotonic() + DEADLINE_S
    workloads.write_docs(workdir / "docs")
    reference = _load_reference().get(workload, {})
    setup = _setup_times(deadline)
    main = _worker(workdir, workload, seed, ["--trace"] if trace else [], "main", deadline)
    # cold first ops in further fresh interpreters; --rounds 0 stops after the first op
    firsts = [
        _worker(workdir, workload, seed, ["--rounds", "0"], f"first{i}", deadline)
        for i in range(0 if trace else workloads.FIRST_OP_SAMPLES[workload] - 1)
    ]
    runs = [main] + firsts
    loop = main["ops"][1:]
    report = {
        "workload": workload,
        "seed": seed,
        "env": main["env"],
        "setup_cpu_s": [m for m, _ in setup],
        "reference_import_cpu_s": [r for _, r in setup],
        "worker_import_s": main["import_s"],
        "loop_ops": len(loop),
        "speed_samples": main["speed_samples"],
        "median_slice_s": main["median_slice_s"],
        "sampling_cpu_s": main["sampling_cpu_s"],
    }
    checked = _assess(runs, reference)
    report.update(checked)
    report["failed_frac"] = checked["failed"] / checked["attempted"]

    if trace:
        metrics = {}
        for name, rec in main["layers"].items():
            metrics[f"{name}.calls"] = (rec["calls"], "count")
            metrics[f"{name}.self_s"] = (rec["self_s"], "s")
            metrics[f"{name}.errors"] = (rec["errors"], "count")
        examined = hits = 0
        for rec in main["ops"]:
            if rec["id"].startswith("search:") and rec["output"]:
                examined += rec["output"]["examined"]
                hits += len(rec["output"]["hits"])
        metrics["einstein.hit_ratio"] = (hits / examined if examined else 0.0, "ratio")
        # spans times the cost of one wrapper, measured in the traced worker
        metrics["trace.overhead_s"] = (main["spans"] * main["span_cost_s"], "s")
        report["spans"] = main["spans"]
        report["span_cost_s"] = main["span_cost_s"]
        report["missing_functions"] = main["missing_functions"]
    else:
        if not loop:
            raise BenchError("the timed loop completed no op")
        pct = workloads.TAIL_PERCENTILE[workload]
        k = max(1, math.ceil(pct / 100 * len(loop)))  # nearest rank
        if len(loop) - k < 10:
            raise BenchError(f"only {len(loop) - k} samples beyond p{pct}")
        report["op_tail_percentile"] = pct
        report["samples_beyond_tail"] = len(loop) - k

        def latency_metrics(clock: str, loop_s: float) -> dict:
            lat = sorted(r[clock] for r in loop)
            return {
                "ops_per_s": len(lat) / loop_s,
                "op_p50_s": statistics.median(lat),
                "op_tail_s": lat[k - 1],
                "first_op_s": statistics.median(r["ops"][0][clock] for r in runs),
            }

        values = latency_metrics("time_s", main["loop_s"])
        values["setup_s"] = statistics.median(m * REF_IMPORT_S / r for m, r in setup)
        values["peak_rss_mib"] = main["peak_rss_kib"] / 1024
        metrics = {name: (v, END_TO_END[name]) for name, v in values.items()}
        report["raw_cpu"] = latency_metrics("cpu_s", main["loop_cpu_s"])
        report["raw_cpu"]["setup_s"] = statistics.median(m for m, _ in setup)
        report["wall_clock"] = latency_metrics("wall_s", main["loop_wall_s"])
    line = {
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return line, report


def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def record_reference(names: tuple[str, ...], workdir: Path) -> None:
    """Run every op of the named workloads that has a reference digest
    once and rewrite their part of reference/digests.json. Refuses to
    record an output that fails its correctness check."""
    workloads.write_docs(workdir / "docs")
    reference = _load_reference()
    for workload in names:
        run = _worker(workdir, workload, 0, ["--universe"], workload, time.monotonic() + 3600)
        digests = {}
        for rec in run["ops"]:
            found = [rec["error"]] if rec["error"] else workloads.check(rec["op"], rec["output"])
            if found:
                raise BenchError(f"{rec['id']}: {found}")
            digests[rec["id"]] = workloads.digest(rec["output"])
        reference[workload] = digests
        print(f"{workload}: {len(run['ops'])} ops recorded", flush=True)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    ap.add_argument(
        "--seed",
        type=int,
        default=workloads.DEFAULT_SEED,
        help=f"workload seed; re-check a claimed gain on the held-out seed {workloads.HELD_OUT_SEED}",
    )
    ap.add_argument("--seconds", type=float, help="ignored: a run measures a fixed number of rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "metriclie" / "__init__.py").is_file():
        print(f"error: no metriclie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{os.getpid()}"
    try:
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        if args.record_reference:
            record_reference(names, workdir)
            return 0
        lines = []
        for name in names:
            line, report = run_workload(name, args.seed, bool(args.trace), workdir)
            for metric, m in line["metrics"].items():
                print(f"{name:8s} {metric:44s} {m['value']:.6g} {m['unit']}")
            lines.append((name, line, report))
        if len(lines) == 1:
            print(json.dumps({"report": lines[0][2]}))
            print(json.dumps(lines[0][1]))
        else:
            print(json.dumps({"report": {name: report for name, _, report in lines}}))
            print(json.dumps({
                "correct": all(line["correct"] for _, line, _ in lines),
                "attempted": sum(line["attempted"] for _, line, _ in lines),
                "failed": sum(line["failed"] for _, line, _ in lines),
                "metrics": {
                    f"{name}.{k}": v for name, line, _ in lines for k, v in line["metrics"].items()
                },
            }))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = workdir.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
