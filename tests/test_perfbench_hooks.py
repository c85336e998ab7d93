"""The names the benchmark's traced runs wrap must stay where it looks.

`perfbench/workloads.py` times a session by rebinding the functions the
harness module looks up (`SESSION_STAGES`, `SESSION_RUNS`, and
`decode_user`, which it calls with `run_oracle=False`), and the privacy
workload by rebinding `generate_alg3` and `canonical_form` in the audit
module.  A rename or fold that drops one of them breaks the
traced run; this pins them without running the benchmark.  The privacy
hooks are also pinned to one call per oracle branch, the work the traced
`protocol.generate_s` and `core.canonical_form_s` are read as.  And
`perfbench/run.py::load_mupir` reads its modules from `sys.modules` after
`import mupir`, so each must be one the package imports, and
`perfbench/run.py::cache_counts` reads both schedule caches' `cache_info()`
on every traced op.  The correctness gate's mismatch counts and the traced
XOR count are pinned on real sessions too.
"""
import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from mupir import audit, harness, protocol

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_session_names_exist_in_harness(monkeypatch):
    workloads = load_workloads(monkeypatch)
    names = {name for stages in workloads.SESSION_STAGES.values() for name in stages}
    names |= set(workloads.SESSION_RUNS.values()) | {"decode_user"}
    assert sorted(n for n in names if not callable(getattr(harness, n, None))) == []
    # the traced mupir session splits peeling from the oracle with
    # decode_user(..., run_oracle=False); the keyword must be a real parameter
    bound = inspect.signature(harness.decode_user).bind_partial(run_oracle=False)
    assert bound.arguments == {"run_oracle": False}


def test_traced_privacy_names_exist_in_audit():
    for name in ("generate_alg3", "canonical_form", "demand_distribution_oracle"):
        assert callable(getattr(audit, name, None)), name


def test_traced_privacy_hooks_run_once_per_branch(monkeypatch):
    # (2, 2, 3) has 72 branches (demands, base set, P); the traced run times
    # one generate_alg3 and one canonical_form call per branch
    calls = Counter()

    def counted(name):
        real = getattr(audit, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("generate_alg3", "canonical_form"):
        monkeypatch.setattr(audit, name, counted(name))
    report = audit.demand_distribution_oracle(2, 2, K=3, scheme="mupir")
    assert report.assignments == 1152
    assert calls == {"generate_alg3": 72, "canonical_form": 72}


def test_traced_schedule_caches_exist_in_protocol():
    # perfbench/run.py::cache_counts reads both schedule caches on every
    # traced op
    for name in ("qset1_schedule", "qset2_schedule"):
        info = getattr(protocol, name).cache_info()
        assert info.hits >= 0 and info.misses >= 0, name


def load_mupir_modules():
    """The module names `load_mupir` in perfbench/run.py reads, taken from
    the tuple its loop walks (not copied here, so they cannot drift)."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "load_mupir")
    names = [ast.literal_eval(node.iter) for node in ast.walk(fn)
             if isinstance(node, ast.comprehension) and isinstance(node.iter, ast.Tuple)]
    assert len(names) == 1, names
    return names[0]


def test_import_mupir_loads_every_module_the_benchmark_reads():
    # in a fresh interpreter: this one has imported every module already
    names = load_mupir_modules()
    assert "single_user" in names
    src = str(Path(audit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mupir; print(*sorted(sys.modules))"],
        capture_output=True, text=True, timeout=60, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert [n for n in names if "mupir." + n not in loaded] == []


def test_correctness_gate_reads_sessions(monkeypatch):
    # the benchmark's outputs_incorrect check counts decoded blocks that
    # differ from the store, and its XOR count reads each query's atoms; a
    # format change must not leave either reading nothing
    workloads = load_workloads(monkeypatch)
    report, art = harness.run_mupir_session(2, 2, 3, 1, seed=0)
    store, decoded, sub = art["store"], art["decoded"], 2
    assert workloads._mupir_mismatches(store, report["demand"], decoded, 3, sub) == 0
    flipped = {u: dict(out) for u, out in decoded.items()}
    flipped[2][(3, sub)] ^= 1
    assert workloads._mupir_mismatches(store, report["demand"], flipped, 3, sub) >= 1

    report, art = harness.run_single_session(3, 3, 1, seed=0)
    store, decoded, sub, d = art["store"], art["decoded"], 9, report["demand"][0]
    assert workloads._single_mismatches(store, d, decoded, sub) == 0
    assert workloads._single_mismatches(store, d, {**decoded, 5: decoded[5] ^ 1}, sub) >= 1

    for art in (harness.run_mupir_session(2, 2, 3, 1, seed=0)[1], art):
        sp = workloads.Spans()
        workloads._count_answer_work(sp, art["bundle"], 4)
        xors = sum(len(q.atoms) - 1 for queries in art["bundle"].per_db for q in queries)
        assert xors > 0
        assert sp.values["core.answer_xors"] == xors
        assert sp.values["core.xor_bytes_computed"] == 4 * xors
        assert sp.values["core.answer_queries"] == art["bundle"].total_queries()
