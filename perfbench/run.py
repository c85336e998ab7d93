"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload mu_bulk --seed 1 --seconds 30 --trace 0

The program under test is imported from `src/` next to this directory; the
run fails (exit 2, no result line) when it is not there.  One client runs a
closed loop, one operation at a time, for at least `--seconds` seconds and
at least the workload's `min_ops` operations; operation i uses seed
`--seed + i`.  Every output is checked and failures are counted.

Between operations the loop times a fixed reference computation for a tenth
of the last operation's time.  On a shared machine, neighbour load slows
operation and reference alike for seconds at a time, so an operation's time
multiplied by the reference rate around it (`op_ref`, in reference units)
moves far less from run to run than its time in seconds.  The rate around an
operation is taken over the reference windows next to it, widened to about
REF_SPAN seconds of operations when operations are short.  For the same
reason `setup_s` is the set-up time scaled to a nominal reference rate of
REF_PER_S chunks per second; the wall-clock set-up time is printed as well.

With `--trace 0` the last stdout line holds the gated end-to-end metrics;
with `--trace 1` each operation is run once more, traced, with the same
seed, and the last line holds the per-layer metrics.  Each run writes
every metric and its provenance to `perfbench/out/`.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import workloads
from workloads import END_TO_END, GATED, PER_LAYER, STAGES, Outcome, Spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3              # set-ups per untraced run; setup_s is their median
WARMUP_SEED_OFFSET = 10**6  # warm-up seeds stay clear of the measured ones
REF_SHARE = 0.1             # reference time after an op, as a share of the op's time
REF_SPAN = 0.5              # seconds of neighbouring ops whose references rate an op
REF_PER_S = 1000            # nominal reference rate; setup_s is in seconds at this rate
_REF_BLOCKS = [random.Random(i).randbytes(65536) for i in range(4)]


def reference_chunk():
    """Fixed work that loads the interpreter the way mupir does: dict and
    small-int updates plus 64 KiB bytes<->int XOR round trips."""
    acc = 0
    for block in _REF_BLOCKS:
        acc ^= int.from_bytes(block, "big")
        acc.to_bytes(65536, "big")
    table = {}
    for i in range(2000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) ^ i
    return acc


def reference(window):
    """Run reference chunks for at least one chunk and `window` seconds;
    returns (chunks, seconds)."""
    n = 0
    t0 = time.perf_counter()
    while True:
        reference_chunk()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= window:
            return n, elapsed


def rates_around(times, refs):
    """Reference rate around each op.  refs[i] ran just before op i and
    refs[i + 1] just after it; op i is rated over the 2k windows nearest to
    it, with k ops spanning about REF_SPAN seconds."""
    k = max(1, round(REF_SPAN / statistics.median(times)))
    rates = []
    for i in range(len(times)):
        near = refs[max(0, i + 1 - k):i + 1 + k]
        rates.append(sum(n for n, _ in near) / sum(t for _, t in near))
    return rates


def load_mupir():
    """Import mupir afresh from SRC (dropping any earlier import) and return
    its modules."""
    for name in [n for n in sys.modules if n == "mupir" or n.startswith("mupir.")]:
        del sys.modules[name]
    mupir = importlib.import_module("mupir")
    if Path(mupir.__file__).resolve().parent != SRC / "mupir":
        raise ImportError(f"mupir imported from {mupir.__file__}, not from {SRC}")
    return SimpleNamespace(**{
        name: sys.modules["mupir." + name]
        for name in ("harness", "core", "protocol", "single_user", "audit", "params")
    })


def attempt(fn, *args):
    """Run one operation; an exception is a failed operation, never a crash."""
    try:
        return fn(*args)
    except Exception as exc:  # the loop must go on and count the failure
        traceback.print_exc(file=sys.stderr)
        return Outcome(None, 0, f"{type(exc).__name__}: {exc}")


def tail(values):
    """The highest percentile with at least 10 operations beyond it, never
    below the median; returns (value, percentile)."""
    q = max(0.5, 1 - 10 / len(values))
    xs = sorted(values)
    h = (len(xs) - 1) * q
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo]), 100 * q


def same_output(m, a, b):
    if a.bundle is None:
        return a.report == b.report
    return m.core.canonical_form(a.bundle) == m.core.canonical_form(b.bundle)


def cache_counts(m):
    infos = [m.protocol.qset1_schedule.cache_info(), m.protocol.qset2_schedule.cache_info()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance(args, wl, params):
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "base_seed": args.seed,
        "seconds": args.seconds,
        "workload": wl.name,
        "params": list(params),
        "smoke": args.smoke,
        "trace": args.trace,
    }


def measure(m, wl, params, args, run_op, traced_op=None, first_window=0.01):
    """The closed loop.  Returns (records, reference windows, digest, extra
    errors, per-op layer values); a record is (seed, seconds, items, error)."""
    records, errors, layers = [], [], []
    digest = hashlib.sha256()
    t_phase = time.perf_counter()
    refs = [reference(first_window)]
    i = 0
    while i < wl.min_ops or time.perf_counter() - t_phase < args.seconds:
        seed = args.seed + i
        flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        out = attempt(run_op, m, params, seed)
        dt = time.perf_counter() - t0
        flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0
        refs.append(reference(REF_SHARE * dt))
        records.append((seed, dt, out.items, out.error))
        if i < wl.min_ops:
            digest.update(m.harness.to_json(out.report).encode())
        if traced_op is not None:
            sp = Spans()
            hits0, miss0 = cache_counts(m)
            t1 = time.perf_counter()
            traced = attempt(traced_op, m, params, seed, sp)
            traced_dt = time.perf_counter() - t1
            hits1, miss1 = cache_counts(m)
            v = sp.values
            v["protocol.schedule_cache_hits"] = hits1 - hits0
            v["protocol.schedule_cache_misses"] = miss1 - miss0
            v["proc.minflt_per_op"] = flt
            v["trace.overhead_s"] = traced_dt - dt
            layers.append(v)
            if traced.error:
                errors.append(f"seed {seed}: traced run: {traced.error}")
            elif out.error is None and not same_output(m, out, traced):
                errors.append(f"seed {seed}: traced run output differs")
            if v["harness.self_s"] < 0:
                errors.append(f"seed {seed}: stage spans overlap "
                              f"(self time {v['harness.self_s']:.6f} s)")
        i += 1
    return records, refs, digest.hexdigest(), errors, layers


def end_to_end(wl, records, rates, setups):
    """Every end-to-end metric's value, with a note on how it was taken."""
    n = len(records)
    times = [dt for _, dt, _, _ in records]
    op_ref = [dt * rate for dt, rate in zip(times, rates)]
    s_tail, s_pct = tail(times)
    r_tail, r_pct = tail(op_ref)
    item = "assignments" if wl.kind == "privacy" else "blocks"
    return {
        "op_ref.p50": (statistics.median(op_ref), f"median of {n} ops"),
        "op_ref.tail": (r_tail, f"p{r_pct:.1f} of {n} ops"),
        "op_s.p50": (statistics.median(times), f"median of {n} ops"),
        "op_s.tail": (s_tail, f"p{s_pct:.1f} of {n} ops"),
        "items_per_s": (sum(items for _, _, items, _ in records) / sum(times),
                        f"{item}_per_s: {item} checked per second of operation time"),
        "ref_chunk_s": (statistics.median(1 / rate for rate in rates),
                        "median reference chunk time; rises with neighbour load"),
        "setup_s": (statistics.median(t * rate for t, rate in setups) / REF_PER_S,
                    f"median of {len(setups)} set-ups (import + warm-up op), "
                    f"scaled to {REF_PER_S} reference chunks/s"),
        "setup_wall_s": (statistics.median(t for t, _ in setups),
                         f"median of {len(setups)} set-ups, wall clock"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "peak RSS of this process"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the workload's tiny instance (for the self-test)")
    args = ap.parse_args(argv)
    wl = workloads.BY_NAME[args.workload]
    params = wl.smoke_params if args.smoke else wl.params
    if not (SRC / "mupir" / "__init__.py").is_file():
        print(f"error: the program is not here: {SRC / 'mupir'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_op = workloads.OPS[wl.kind]
    traced_op = workloads.TRACED_OPS[wl.kind] if args.trace else None

    errors, setups = [], []
    for r in range(1 if args.trace else SETUP_REPS):
        t0 = time.perf_counter()
        m = load_mupir()
        t1 = time.perf_counter()
        warm = attempt(run_op, m, params, args.seed + WARMUP_SEED_OFFSET + r)
        t2 = time.perf_counter()
        n, t = reference(REF_SHARE * (t2 - t0))
        setups.append((t2 - t0, n / t))
        if warm.error:
            errors.append(f"warm-up {r}: {warm.error}")

    records, refs, digest, loop_errors, layers = measure(
        m, wl, params, args, run_op, traced_op, first_window=REF_SHARE * (t2 - t1))
    errors += loop_errors
    rates = rates_around([dt for _, dt, _, _ in records], refs)
    attempted = len(records)
    failed = sum(error is not None for *_, error in records)
    errors += [f"seed {seed}: {error}" for seed, *_, error in records if error]

    if args.trace:
        units = PER_LAYER
        values = {k: statistics.median(v[k] for v in layers) for k in PER_LAYER}
        notes = {"harness.session_s": f"median of {len(layers)} traced ops",
                 "harness.self_s": "session minus " + ", ".join(
                     s for s in STAGES if values[s])}
        on_line = PER_LAYER
    else:
        units = END_TO_END
        taken = end_to_end(wl, records, rates, setups)
        values = {k: v for k, (v, _) in taken.items()}
        notes = {k: note for k, (_, note) in taken.items()}
        on_line = GATED
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    correct = not errors

    print(f"workload {wl.name} params {params} base seed {args.seed} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    for err in errors:
        print(f"  FAIL {err}")
    print(f"  ops_attempted {attempted}  ops_failed {failed}")
    print(f"  digest sha256:{digest} over the first {wl.min_ops} reports")
    for k, unit in units.items():
        note = f"  ({notes[k]})" if k in notes else ""
        gate = " [gated]" if k in GATED else ""
        print(f"  {k:<30} {values[k]:>14.6g} {unit}{note}{gate}")

    OUT.mkdir(exist_ok=True)
    tag = "-smoke" if args.smoke else ""
    path = OUT / f"{wl.name}{tag}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "provenance": provenance(args, wl, params),
        "correct": correct, "attempted": attempted, "failed": failed,
        "errors": errors, "digest": digest, "metrics": metrics, "notes": notes,
        "ops": [{"seed": s, "seconds": dt, "ref_per_s": rate, "ok": error is None}
                for (s, dt, _, error), rate in zip(records, rates)],
        "setups": [{"seconds": t, "ref_per_s": rate} for t, rate in setups],
    }, indent=1) + "\n")
    print(f"  results -> {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: metrics[k] for k in on_line}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
