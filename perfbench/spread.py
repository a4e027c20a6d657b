"""Run the benchmark several times and record the spread of each metric.

    python3 perfbench/spread.py [--workload NAME ...] [--runs 10] [--same-seed] [--out FILE]

For every workload: `--runs` untraced runs on seeds 1..runs (or, with
--same-seed, all on the default seed), then one traced run on the
default seed. For each end-to-end metric it records the values, median,
quartiles (statistics.quantiles, n=4) and spread = (q3 - q1) / median,
and for each run its wall time. baseline.json was written with seeds
1..10 and baseline_repeat.json with --same-seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run
import workloads


def _bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    report["run_wall_s"] = time.monotonic() - t0
    return report, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS, default=list(workloads.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--same-seed", action="store_true", help="repeat the default seed")
    ap.add_argument("--out")
    args = ap.parse_args()

    result = {}
    for name in args.workload:
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        reports = []
        seeds = [workloads.DEFAULT_SEED] * args.runs if args.same_seed else range(1, args.runs + 1)
        for seed in seeds:
            report, line = _bench(name, seed, 0)
            if not line["correct"]:
                raise SystemExit(f"{name} seed {seed}: incorrect output {report['problems']}")
            keys = ("seed", "loop_ops", "samples_beyond_tail", "digests", "run_wall_s")
            reports.append({k: report[k] for k in keys})
            for metric, m in line["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            for metric, v in report["raw_cpu"].items():
                raw.setdefault(metric, []).append(v)
        summary = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {
                "median": statistics.median(vals),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals),
                "values": vals,
            }
            line = (f"{name:8s} {metric:14s} median {summary[metric]['median']:.4g}"
                    f"  spread {summary[metric]['spread']:.3f}")
            if metric in raw:
                # the same metric in uncalibrated CPU time, for comparison
                r1, _, r3 = statistics.quantiles(raw[metric], n=4)
                summary[metric]["raw_cpu_spread"] = (r3 - r1) / statistics.median(raw[metric])
                line += f"  (raw CPU {summary[metric]['raw_cpu_spread']:.3f})"
            print(line, flush=True)
        traced_report, traced = _bench(name, workloads.DEFAULT_SEED, 1)
        result[name] = {
            "end_to_end": summary,
            "runs": reports,
            "env": traced_report["env"],
            "per_layer_default_seed": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    seeds = f"{workloads.DEFAULT_SEED} x {args.runs}" if args.same_seed else f"1..{args.runs}"
    out = {"recorded": time.strftime("%Y-%m-%d"), "seeds": seeds, "workloads": result}
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
