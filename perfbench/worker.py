"""One workload process: a fresh interpreter that imports metriclie, runs
the workload's fixed first op, then a closed loop of seeded ops with one
client (each op starts when the previous one returns). The loop runs
the workload's ROUNDS rounds, or --rounds of them.

    python3 perfbench/worker.py --workload reduce --seed 1 \
        --docdir DIR --out FILE [--rounds N | --universe] [--trace]

Writes one JSON object to --out: the import time, every op's calibrated
time (clock.py), CPU time, wall time, exit code and output, the same
three times for the whole loop, peak RSS, the environment and, with
--trace, the per-layer span summary. run.py checks the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from clock import CalibratedClock


def _execute(op: dict, mods: dict):
    """Run one op; returns (exit code, output). Output is the JSON
    result, or raw CLI stdout to be parsed after the clock stops."""
    call = op["call"]
    if call == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = mods["cli"].main(op["argv"])
            except SystemExit as exc:  # argparse rejecting the argv
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue() if code == 0 else err.getvalue()
    if call == "search":
        a = op["args"]
        res = mods["einstein"].sharpness_search(
            tuple(a["dim_range"]), tuple(a["index_range"]), a["budget"], seed=a["seed"]
        )
        return 0, {"examined": res.examined, "hits": list(res.hits)}
    fx = op["fixture"]
    data = mods["einstein"].EigenvalueData(
        reals=tuple(fx["reals"]),
        complex_pairs=tuple(tuple(p) for p in fx["complex_pairs"]),
    )
    return 0, mods["obstruction"].obstruction_verdict(data).to_jsonable()


def _run(op: dict, mods: dict, clock: CalibratedClock, tracer, index: int) -> dict:
    if tracer is not None:
        tracer.current_op = index
    w0, c0, t0 = time.perf_counter(), clock.raw(), clock()
    try:
        code, raw = _execute(op, mods)
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        code, raw, error = None, None, f"{type(exc).__name__}: {exc}"
    t, cpu, wall = clock() - t0, clock.raw() - c0, time.perf_counter() - w0
    rec = {
        "id": op["id"], "op": op, "time_s": t, "cpu_s": cpu, "wall_s": wall,
        "code": code, "error": error, "output": None,
    }
    if code == 0 and isinstance(raw, str):
        try:
            rec["output"] = json.loads(raw)["results"]
        except (ValueError, KeyError, TypeError) as exc:
            rec["error"] = f"unparsable CLI output: {exc}"
    elif code == 0:
        rec["output"] = raw
    elif code is not None:
        rec["error"] = f"exit code {code}: {raw.strip()[-300:]}"
    return rec


def _environment(sympy, mpmath) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "mpmath": mpmath.__version__,
        "ground_types": GROUND_TYPES,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "METRIC_LIE_PRECISION": os.environ.get("METRIC_LIE_PRECISION", "unset (default 256)"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--docdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--rounds", type=int, help="default: the workload's ROUNDS")
    mode.add_argument("--universe", action="store_true")
    args = ap.parse_args()

    if args.universe:
        first, *rest = workloads.universe(args.workload, args.docdir)
        rounds = [rest]
    else:
        first = workloads.first_op(args.workload, args.docdir)
        n = workloads.ROUNDS[args.workload] if args.rounds is None else args.rounds
        rounds = workloads.seeded_rounds(args.workload, args.seed, args.docdir, n)

    t0 = time.process_time()
    import metriclie
    import metriclie.cli
    import_s = time.process_time() - t0

    mods = {name: sys.modules[f"metriclie.{name}"] for name in ("cli", "einstein", "obstruction")}
    clock = CalibratedClock()
    tracer = None
    missing: list[str] = []
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(clock)
        missing = tracing.install(tracer)

    clock.start()
    ops = [_run(first, mods, clock, tracer, 0)]
    w0, c0, t0 = time.perf_counter(), clock.raw(), clock()
    for batch in rounds:
        ops.extend(_run(op, mods, clock, tracer, len(ops)) for op in batch)
    loop_s, loop_cpu_s, loop_wall_s = clock() - t0, clock.raw() - c0, time.perf_counter() - w0
    span_cost = tracing.span_cost(clock) if tracer is not None else None
    clock.stop()

    import mpmath
    import sympy

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": import_s,
        "loop_s": loop_s,
        "loop_cpu_s": loop_cpu_s,
        "loop_wall_s": loop_wall_s,
        "ops": ops,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": _environment(sympy, mpmath),
        "speed_samples": len(clock.slices),
        "sampling_cpu_s": clock.sampling_s,
        "median_slice_s": statistics.median(clock.slices),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = len(tracer.start)
        result["span_cost_s"] = span_cost
        result["missing_functions"] = missing
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
