"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. BENCHMARK.json names exactly the workloads and metrics run.py prints.
2. Smoke mode: every workload runs on a tiny instance, traced and
   untraced; each prints every metric of its kind with its unit, reports
   no failure, and two processes with the same seed print the same digest.
3. Failure path: a corrupted answer block, or a flipped privacy verdict,
   is counted in ops_failed, in the plain and in the traced loop.
4. Without `src/` the benchmark exits non-zero and prints no result.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys

import run
import workloads

BARE = run.OUT / "bare"


def check(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
    return cond


def run_cli(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600,
                          check=False)


def test_spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ok = check([w["name"] for w in spec["workloads"]]
               == [w.name for w in workloads.WORKLOADS if w.gated],
               "BENCHMARK.json lists exactly the gated workloads")
    gated = {k: workloads.END_TO_END[k] for k in workloads.GATED}
    for key, table in (("end_to_end", gated), ("per_layer", workloads.PER_LAYER)):
        ok &= check({m["name"]: m["unit"] for m in spec[key]} == table,
                    f"BENCHMARK.json {key} names and units match run.py")
    return ok


def test_smoke(name):
    ok = True
    digests = []
    for trace in (0, 0, 1):
        proc = run_cli(run.ROOT, "--workload", name, "--seed", "7", "--seconds", "0.5",
                       "--trace", str(trace), "--smoke")
        lines = proc.stdout.splitlines()
        if not check(proc.returncode == 0 and lines, f"{name} smoke trace {trace} exits 0"):
            sys.stderr.write(proc.stderr)
            return False
        result = json.loads(lines[-1])
        table = workloads.PER_LAYER if trace else workloads.END_TO_END
        on_line = table if trace else {k: table[k] for k in workloads.GATED}
        ok &= check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{name} smoke trace {trace}: correct, {result['attempted']} ops, none failed")
        ok &= check({k: v["unit"] for k, v in result["metrics"].items()} == on_line,
                    f"{name} smoke trace {trace}: result line holds its metrics with units")
        ok &= check(all(f" {k} " in proc.stdout for k in table),
                    f"{name} smoke trace {trace}: every metric printed by name")
        if not trace:
            ok &= check(all(v["value"] > 0 for v in result["metrics"].values()),
                        f"{name} smoke: every gated metric is above 0")
        digests.append(next(ln.split("sha256:")[1].split()[0]
                            for ln in lines if "sha256:" in ln))
    return ok & check(len(set(digests)) == 1,
                      f"{name} smoke: same seed gives the same digest in 3 processes")


def corrupt_first_answer(answer_bundle):
    def wrapper(store, bundle):
        answers = answer_bundle(store, bundle)
        block = answers[0][0]
        answers[0][0] = bytes([block[0] ^ 0x01]) + block[1:]
        return answers
    return wrapper


def flip_verdict(oracle):
    def wrapper(*args, **kwargs):
        report = oracle(*args, **kwargs)
        return dataclasses.replace(report, equal=not report.equal)
    return wrapper


def test_failures_counted(name):
    wl = workloads.BY_NAME[name]
    m = run.load_mupir()
    if wl.kind == "privacy":
        m.audit.demand_distribution_oracle = flip_verdict(m.audit.demand_distribution_oracle)
    else:
        m.harness.answer_bundle = corrupt_first_answer(m.harness.answer_bundle)
    args = argparse.Namespace(seed=7, seconds=0)
    records, *_ = run.measure(m, wl, wl.smoke_params, args, workloads.OPS[wl.kind])
    failed = sum(error is not None for *_, error in records)
    ok = check(failed == len(records) > 0,
               f"{name}: corrupted output fails {failed} of {len(records)} ops")
    _, _, _, errors, _ = run.measure(m, wl, wl.smoke_params, args, workloads.OPS[wl.kind],
                               workloads.TRACED_OPS[wl.kind])
    return ok & check(len(errors) >= wl.min_ops,
                      f"{name}: corrupted traced run fails {len(errors)} ops")


def test_bare_directory():
    shutil.rmtree(BARE, ignore_errors=True)
    (BARE / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", BARE)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, BARE / "perfbench")
    proc = run_cli(BARE, "--workload", "su_pir", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    shutil.rmtree(BARE)
    return check(proc.returncode != 0 and '"correct"' not in proc.stdout,
                 f"without src/ the run exits {proc.returncode} and prints no result")


def main():
    sys.path.insert(0, str(run.SRC))
    ok = test_spec()
    for w in workloads.WORKLOADS:
        ok &= test_smoke(w.name)
        ok &= test_failures_counted(w.name)
    ok &= test_bare_directory()
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
