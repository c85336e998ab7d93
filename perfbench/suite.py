"""Run every workload, each in its own process, and record the results.

    python3 perfbench/suite.py                      # one run per workload
    python3 perfbench/suite.py --runs 10 --out perfbench/results/BENCH_0.json

Each untraced run uses base seed `--seed + r * SEED_STRIDE`, so runs never
share an operation seed.  After the untraced runs, one traced run per
workload prints the per-layer metrics; its untraced operations repeat the
first run's seeds, so its digest must equal that run's digest (the
byte-identical-report check across processes).

For each end-to-end metric the summary gives the median over runs, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, which is
the interquartile distance as a share of the median.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

SEED_STRIDE = 100_000
RUN_TIMEOUT = 900  # seconds; a run normally ends in well under 180


def bench(workload, seed, seconds, trace):
    """One run.py process; returns its result line and its results file."""
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT,
                          cwd=run.ROOT, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    path = next(ln.split("results -> ")[1] for ln in lines if "results -> " in ln)
    return json.loads(lines[-1]), json.loads((run.ROOT / path).read_text())


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="write the summary JSON here")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    summary = {
        "provenance": {
            "commit": run.git_commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "base_seed": args.seed, "seed_stride": SEED_STRIDE,
            "seconds": seconds, "runs": args.runs,
        },
        "workloads": {},
    }
    ok = True
    for wl in workloads.WORKLOADS:
        name = wl.name
        runs = []
        for r in range(args.runs):
            seed = args.seed + r * SEED_STRIDE
            result, detail = bench(name, seed, seconds, 0)
            runs.append({"seed": seed, "digest": detail["digest"],
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": detail["metrics"]})
            ok &= result["correct"] and result["failed"] == 0
            print(f"{name} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in detail["metrics"].items()),
                  flush=True)
        entry = {"params": list(wl.params),
                 "ops_per_run": [x["attempted"] for x in runs], "runs": runs}
        if args.runs >= 2:
            entry["summary"] = {}
            for metric, unit in workloads.END_TO_END.items():
                s = spread([x["metrics"][metric]["value"] for x in runs])
                s.update(unit=unit, bound=bound.get(metric))
                entry["summary"][metric] = s
                if metric not in bound:
                    flag = "  (not gated)"
                elif s["spread"] <= bound[metric] / 3:
                    flag = f"  (bound {bound[metric]})"
                else:
                    flag = f"  (bound {bound[metric]})  <-- above bound/3"
                print(f"  {metric:<14} median {s['median']:.6g} {unit}  "
                      f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}{flag}",
                      flush=True)
        result, detail = bench(name, args.seed, seconds, 1)
        entry["trace"] = {"seed": args.seed, "digest": detail["digest"], **result}
        same = detail["digest"] == runs[0]["digest"]
        ok &= result["correct"] and same
        print(f"  traced run: correct {result['correct']}, digest "
              f"{'matches' if same else 'DIFFERS from'} the untraced run", flush=True)
        for metric, v in result["metrics"].items():
            print(f"    {metric:<30} {v['value']:>14.6g} {v['unit']}")
        summary["workloads"][name] = entry
    summary["correct"] = ok
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"summary -> {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
