"""The benchmark's workloads: what one operation is, how its output is
checked, and a traced run of it that times every public call it makes.

Every function here takes `m`, the namespace of freshly imported mupir
modules (see `run.load_mupir`), so that a re-import during set-up is seen by
all later calls.  Nothing here touches mupir internals: sessions go through
`harness.run_mupir_session` / `run_single_session`, and a traced op runs the
same call with the functions the harness looks up wrapped by timers.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

# End-to-end metrics, printed with tracing off.  `op_ref` is an operation's
# time multiplied by the reference rate around it (see run.py), in units of
# one reference chunk.
END_TO_END = {
    "op_ref.p50": "ref",
    "op_ref.tail": "ref",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "items_per_s": "1/s",
    "ref_chunk_s": "s",
    "setup_s": "s",
    "setup_wall_s": "s",
    "peak_rss_mb": "MB",
}
# The ones BENCHMARK.json gates, and the only ones on the result line.  Over
# 10 runs per workload on a shared machine, wall times and the throughput
# derived from them spread by 0.06-0.35 (interquartile share of the median)
# and the normalised tail by up to 0.14; the normalised median by 0.02-0.06
# with 30 s runs.
GATED = ("op_ref.p50", "setup_s", "peak_rss_mb")

# Per-layer metrics, printed by the traced run.  Must match BENCHMARK.json.
# A layer a workload bypasses reads 0.
PER_LAYER = {
    "harness.session_s": "s",
    "harness.self_s": "s",
    "core.build_file_store_s": "s",
    "core.answer_bundle_s": "s",
    "core.answer_queries": "count",
    "core.answer_xors": "count",
    "core.xor_bytes_computed": "bytes",
    "core.canonical_form_s": "s",
    "params.scheme_params_s": "s",
    "protocol.placement_s": "s",
    "protocol.generate_s": "s",
    "protocol.resolve_s": "s",
    "protocol.peel_s": "s",
    "protocol.schedule_cache_hits": "count",
    "protocol.schedule_cache_misses": "count",
    "gf2.oracle_s": "s",
    "single_user.generate_s": "s",
    "single_user.decode_s": "s",
    "audit.check_structure_s": "s",
    "audit.verify_replay_s": "s",
    "audit.distribution_oracle_s": "s",
    "audit.assignments": "count",
    "proc.minflt_per_op": "count",
    "trace.overhead_s": "s",
}

# Session stages: they never overlap, and with harness.self_s they add up to
# harness.session_s.
STAGES = (
    "core.build_file_store_s", "core.answer_bundle_s", "params.scheme_params_s",
    "protocol.placement_s", "protocol.generate_s", "protocol.resolve_s",
    "protocol.peel_s", "gf2.oracle_s", "single_user.generate_s",
    "single_user.decode_s", "audit.check_structure_s", "audit.verify_replay_s",
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "mupir" | "single" | "privacy"
    params: tuple        # arguments after the scheme, as the op function takes them
    smoke_params: tuple  # a tiny instance of the same kind, for the self-test
    min_ops: int         # ops every run makes; the run digest covers exactly these
    gated: bool = True   # listed in BENCHMARK.json


WORKLOADS = (
    Workload(
        # Not gated: with two or three 8-15 s operations per run its op_ref.p50
        # spread 0.04-0.12 over 10 runs, and 22 runs of 65-90 s each do not
        # fit the benchmark's time budget.
        "mu_oracle", "mupir", (3, 5, 8, 1), (2, 3, 4, 1), 1, gated=False,
    ),
    Workload("mu_bulk", "mupir", (3, 4, 4, 65536), (2, 3, 3, 64), 3),
    # The expected verdict is the documented N=2 leak: equal=False.
    Workload("privacy_audit", "privacy", (2, 2, 3, False, 1152), (2, 2, 3, False, 1152), 5),
    Workload("su_pir", "single", (4, 5, 1), (2, 3, 1), 20),
)
BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass
class Outcome:
    """One operation's checked result."""

    report: Optional[dict]   # JSON-able; harness.to_json of it feeds the digest
    items: int               # demanded blocks checked, or assignments enumerated
    error: Optional[str]     # None when every check passed
    bundle: object = None    # the session's QueryBundle, for the traced comparison


class Spans:
    """Per-layer wall times and counts of one traced operation."""

    def __init__(self):
        self.values = dict.fromkeys(PER_LAYER, 0)

    @contextmanager
    def span(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.values[name] += time.perf_counter() - t0

    def timed(self, name, fn):
        """Wrap fn so that every call adds its wall time to `name`."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper


def _session_error(report, mismatched):
    errors = []
    if report["decode_ok"] is not True:
        errors.append("decode_ok is not true")
    if report["audit_ok"] is not True:
        errors.append("audit_ok is not true")
    if mismatched:
        errors.append(f"{mismatched} decoded blocks differ from the store")
    return "; ".join(errors) or None


def _mupir_mismatches(store, demands, decoded, K, sub):
    return sum(
        decoded[u][(j, x)] != store.block(d, j, x)
        for u, d in enumerate(demands, start=1)
        for j in range(1, K + 1)
        for x in range(1, sub + 1)
    )


def _single_mismatches(store, d, decoded, sub):
    return sum(decoded[x] != store.block(d, 1, x) for x in range(1, sub + 1))


def mupir_op(m, params, seed):
    S, N, K, block_bytes = params
    report, art = m.harness.run_mupir_session(S, N, K, block_bytes, seed)
    sub = S ** (N - 1)
    bad = _mupir_mismatches(art["store"], report["demand"], art["decoded"], K, sub)
    return Outcome(report, K * K * sub, _session_error(report, bad), art["bundle"])


def single_op(m, params, seed):
    S, N, block_bytes = params
    report, art = m.harness.run_single_session(S, N, block_bytes, seed)
    sub = S ** (N - 1)
    bad = _single_mismatches(art["store"], report["demand"][0], art["decoded"], sub)
    return Outcome(report, sub, _session_error(report, bad), art["bundle"])


def privacy_op(m, params, seed):
    """One exhaustive verdict; it draws no randomness, so `seed` is unused."""
    S, N, K, want_equal, want_assignments = params
    r = m.audit.demand_distribution_oracle(S, N, K, scheme="mupir")
    report = {"S": S, "N": N, "K": K, "scheme": r.scheme, "equal": r.equal,
              "assignments": r.assignments, "mismatch": r.mismatch}
    errors = []
    if r.equal is not want_equal:
        errors.append(f"verdict equal={r.equal}, expected {want_equal}")
    if r.assignments != want_assignments:
        errors.append(f"assignments={r.assignments}, expected {want_assignments}")
    return Outcome(report, r.assignments, "; ".join(errors) or None)


# The harness names a traced session wraps, and the stage each call's time
# goes to.  decode_user is wrapped apart (see traced_session).
SESSION_STAGES = {
    "mupir": {
        "build_file_store": "core.build_file_store_s",
        "sample_permutation": "protocol.generate_s",
        "placement": "protocol.placement_s",
        "h_value": "params.scheme_params_s",
        "choose_base_and_rho": "protocol.generate_s",
        "generate_alg2": "protocol.generate_s",
        "generate_alg3": "protocol.generate_s",
        "answer_bundle": "core.answer_bundle_s",
        "resolve_symbols": "protocol.resolve_s",
        "check_structure": "audit.check_structure_s",
        "verify_replay": "audit.verify_replay_s",
    },
    "single": {
        "build_file_store": "core.build_file_store_s",
        "sample_permutation": "single_user.generate_s",
        "generate_alg1": "single_user.generate_s",
        "answer_bundle": "core.answer_bundle_s",
        "decode_single": "single_user.decode_s",
        "check_structure": "audit.check_structure_s",
        "verify_replay": "audit.verify_replay_s",
        "pir_rate": "params.scheme_params_s",
    },
}
SESSION_RUNS = {"mupir": "run_mupir_session", "single": "run_single_session"}


@contextmanager
def patched(module, replacements):
    """Bind `module`'s names to `replacements` for the duration."""
    saved = {name: getattr(module, name) for name in replacements}
    for name, fn in replacements.items():
        setattr(module, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def _count_answer_work(sp, bundle, block_bytes):
    xors = sum(len(q.atoms) - 1 for queries in bundle.per_db for q in queries)
    sp.values["core.answer_queries"] = bundle.total_queries()
    sp.values["core.answer_xors"] = xors
    sp.values["core.xor_bytes_computed"] = xors * block_bytes


def traced_session(kind, m, params, seed, sp):
    """The same session op, with every function the harness session calls
    timed by wrapping the name the harness module looks it up under.

    decode_user is run once more with run_oracle=False before each real
    call; that extra call gives protocol.peel_s, the difference gives
    gf2.oracle_s, and its time is left out of harness.session_s.
    """
    h = m.harness
    wraps = {name: sp.timed(stage, getattr(h, name))
             for name, stage in SESSION_STAGES[kind].items()}
    timed_answer = wraps["answer_bundle"]

    def answer_bundle(store, bundle):
        _count_answer_work(sp, bundle, store.block_bytes)
        return timed_answer(store, bundle)

    wraps["answer_bundle"] = answer_bundle
    peel_only = []
    if kind == "mupir":
        decode_user = h.decode_user

        def split_decode(*args, **kwargs):
            t0 = time.perf_counter()
            decode_user(*args, **{**kwargs, "run_oracle": False})
            t1 = time.perf_counter()
            decoded = decode_user(*args, **kwargs)
            t2 = time.perf_counter()
            peel_only.append(t1 - t0)
            sp.values["protocol.peel_s"] += t1 - t0
            sp.values["gf2.oracle_s"] += (t2 - t1) - (t1 - t0)
            return decoded

        wraps["decode_user"] = split_decode
    run = SESSION_RUNS[kind]
    wraps[run] = sp.timed("harness.session_s", getattr(h, run))
    with patched(h, wraps):
        out = OPS[kind](m, params, seed)
    session = sp.values["harness.session_s"] - sum(peel_only)
    sp.values["harness.session_s"] = session
    sp.values["harness.self_s"] = session - sum(sp.values[s] for s in STAGES)
    return out


def traced_privacy(m, params, seed, sp):
    """The same oracle call, with generate_alg3 and canonical_form timed per
    call by wrapping the names the audit module looks them up under."""
    audit = m.audit
    with patched(audit, {
        "generate_alg3": sp.timed("protocol.generate_s", audit.generate_alg3),
        "canonical_form": sp.timed("core.canonical_form_s", audit.canonical_form),
    }):
        with sp.span("audit.distribution_oracle_s"):
            out = privacy_op(m, params, seed)
    sp.values["audit.assignments"] = out.items
    return out


OPS = {"mupir": mupir_op, "single": single_op, "privacy": privacy_op}
TRACED_OPS = {
    "mupir": functools.partial(traced_session, "mupir"),
    "single": functools.partial(traced_session, "single"),
    "privacy": traced_privacy,
}
