"""Session driver, parameter sweeps and report serialization.

Reports are JSON (machine) and CSV (tables).  Exact rationals are
serialized as "num/den" strings next to their decimals so the strict
dominance margins survive a round trip.
"""
from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction

from .audit import check_structure, count_rate, verify_replay
from .core import (
    build_file_store,
    answer_bundle,
    sample_permutation,
    validate_demands,
)
from .errors import ConfigError, RegimeError
from .gf2 import AnswerSystem
from .params import (
    SchemeParams,
    cache_fraction,
    h_value,
    pd_rate,
    pir_rate,
    proposed_rate,
    q_value,
    rate_dominance_check,
)
from .protocol import (
    choose_base_and_rho,
    decode_user,
    generate_alg2,
    generate_alg3,
    placement,
    resolve_symbols,
)
from .single_user import decode_single, generate_alg1

_CONFIG_KEYS = {
    "scheme": str,
    "S": int,
    "N": int,
    "K": int,
    "block_bytes": int,
    "seed": int,
    "demands": str,
}
_DEFAULTS = {"K": 1, "block_bytes": 1, "seed": 0, "demands": "random-valid"}


def parse_config(text: str) -> dict:
    """Parse a plain-text key=value config with line-level diagnostics."""
    cfg = dict(_DEFAULTS)
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown field {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate field {key!r}")
        seen.add(key)
        caster = _CONFIG_KEYS[key]
        try:
            cfg[key] = caster(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: field {key!r} needs {caster.__name__}, got {value!r}"
            ) from None
    for required in ("scheme", "S", "N"):
        if required not in cfg:
            raise ConfigError(f"missing required field {required!r}")
    if cfg["scheme"] not in ("single", "mupir"):
        raise ConfigError(f"field 'scheme' must be single or mupir, got {cfg['scheme']!r}")
    return cfg


def _parse_demands(spec, scheme, N, K):
    """The config's demands: a valid vector of K files for the multi-user
    scheme, exactly one file index in [1, N] for the single-user one."""
    if isinstance(spec, (list, tuple)):
        demands = tuple(spec)
    else:
        try:
            demands = tuple(int(part) for part in str(spec).split(","))
        except ValueError:
            raise ConfigError(f"field 'demands': cannot parse {spec!r}") from None
    if scheme == "mupir":
        return validate_demands(demands, N, K)
    if len(demands) != 1 or not 1 <= demands[0] <= N:
        raise ConfigError(
            f"field 'demands': the single-user scheme needs one file in [1,{N}], got {spec!r}"
        )
    return demands


def random_valid_demands(N, K, rng):
    """Uniform-ish valid demand vector: a permutation for N=K, a covering
    vector for N<K."""
    if N == K:
        d = list(range(1, N + 1))
        rng.shuffle(d)
        return tuple(d)
    d = list(range(1, N + 1)) + [rng.randrange(1, N + 1) for _ in range(K - N)]
    rng.shuffle(d)
    return tuple(d)


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den or 1))


def dec(x, digits: int = 6) -> float:
    return round(float(x), digits)


def rng_streams(seed):
    """Named, independent RNG streams for each random object of a session."""
    return {
        name: random.Random(f"{seed}:{name}")
        for name in ("demand", "slots", "perms", "base", "shuffle")
    }


def _user_perms(K, N, sub, rng, tail_fixed=lambda c, i: None) -> dict:
    """{user c -> {file i -> permutation of [sub]}}, drawn in user then file
    order; tail_fixed(c, i) is H where the permutation must fix the tail."""
    return {
        c: {i: sample_permutation(sub, rng, tail_fixed=tail_fixed(c, i))
            for i in range(1, N + 1)}
        for c in range(1, K + 1)
    }


def _audit_and_report(scheme, params, bundle, transcript, decode_ok, artifacts):
    """The tail both schemes share: structure audit, replay check, measured
    rate and the report."""
    S, N, K = transcript.S, transcript.N, transcript.K
    audit = check_structure(bundle, S, N)
    replay_ok = verify_replay(bundle, transcript)
    rate = count_rate(bundle, S, N, K)
    report = {
        "scheme": scheme,
        "params": params,
        "demand": list(transcript.demand),
        "seed": transcript.seed,
        "per_db_query_counts": list(bundle.counts()),
        "rate_exact": frac_str(rate),
        "rate_dec": dec(rate),
        "decode_ok": decode_ok,
        "audit_ok": audit.ok and replay_ok,
    }
    artifacts.update(bundle=bundle, transcript=transcript, audit=audit)
    return report, artifacts


def run_single_session(S, N, block_bytes, seed, demand=None):
    """End-to-end single-user session; returns (report, artifacts)."""
    streams = rng_streams(seed)
    store = build_file_store(N, 1, S, block_bytes, seed)
    d = demand if demand is not None else streams["demand"].randrange(1, N + 1)
    perms = _user_perms(1, N, store.subpackets, streams["perms"])[1]
    bundle, transcript = generate_alg1(S, N, perms, d, shuffle_rng=streams["shuffle"],
                                       seed=seed)
    answers = answer_bundle(store, bundle)
    decoded = decode_single(transcript, bundle, answers, d)
    decode_ok = all(decoded[x] == store.block(d, 1, x)
                    for x in range(1, store.subpackets + 1))
    params = {
        "S": S, "N": N, "K": 1, "block_bytes": block_bytes,
        "subpackets": store.subpackets,
        "R_pir": frac_str(pir_rate(S, N)), "R_pir_dec": dec(pir_rate(S, N)),
    }
    return _audit_and_report("single", params, bundle, transcript, decode_ok,
                             {"store": store, "answers": answers, "decoded": decoded})


def run_mupir_session(S, N, K, block_bytes, seed, demand=None):
    """End-to-end multi-user session; decodes every user against the store."""
    if N > K:
        raise RegimeError(f"unsupported regime N={N} > K={K}")
    streams = rng_streams(seed)
    store = build_file_store(N, K, S, block_bytes, seed)
    demands = (validate_demands(demand, N, K) if demand is not None
               else random_valid_demands(N, K, streams["demand"]))
    P = sample_permutation(K, streams["slots"])
    broadcast, caches = placement(store, P)
    H = h_value(S, N)
    sub = store.subpackets
    # qset1 users (every user when N = K, the base users otherwise) draw
    # their demanded file's permutation with its tail fixed
    if N == K:
        base, rho = range(1, K + 1), None
    else:
        base, rho = choose_base_and_rho(demands, N, K, streams["base"])
    user_perms = _user_perms(
        K, N, sub, streams["perms"],
        lambda c, i: H if c in base and i == demands[c - 1] else None)
    if N == K:
        bundle, transcript = generate_alg2(S, N, K, demands, P, user_perms,
                                           shuffle_rng=streams["shuffle"], seed=seed)
    else:
        bundle, transcript = generate_alg3(S, N, K, demands, P, base, rho, user_perms,
                                           shuffle_rng=streams["shuffle"], seed=seed)
    answers = answer_bundle(store, bundle)
    symbols = resolve_symbols(transcript, bundle, answers)
    system = AnswerSystem(bundle, answers, K, sub)
    decode_ok = True
    decoded_all = {}
    for u in range(1, K + 1):
        got = decode_user(u, transcript, bundle, answers, caches[u], symbols=symbols,
                          system=system)
        decoded_all[u] = got
        d = demands[u - 1]
        for j in range(1, K + 1):
            for x in range(1, sub + 1):
                if got[(j, x)] != store.block(d, j, x):
                    decode_ok = False
    params = SchemeParams.compute(S, N, K)
    report_params = {
        "S": S, "N": N, "K": K, "block_bytes": block_bytes,
        "q": params.q, "H": params.H,
        "M_exact": frac_str(params.M), "M_dec": dec(params.M),
        "R_exact": frac_str(params.R_proposed), "R_dec": dec(params.R_proposed),
    }
    return _audit_and_report("mupir", report_params, bundle, transcript, decode_ok, {
        "store": store, "answers": answers, "caches": caches, "broadcast": broadcast,
        "decoded": decoded_all, "symbols": symbols,
    })


def run_session(config: dict):
    """Drive one session from a parsed config; returns (report, artifacts)."""
    scheme = config["scheme"]
    S, N = config["S"], config["N"]
    K = 1 if scheme == "single" else config.get("K", N)
    block_bytes = config.get("block_bytes", 1)
    seed = config.get("seed", 0)
    spec = config.get("demands", "random-valid")
    demands = None if spec == "random-valid" else _parse_demands(spec, scheme, N, K)
    if scheme == "single":
        demand = None if demands is None else demands[0]
        return run_single_session(S, N, block_bytes, seed, demand=demand)
    return run_mupir_session(S, N, K, block_bytes, seed, demand=demands)


SWEEP_COLUMNS = ["S", "N", "K", "q", "H", "M_exact", "M_dec", "R_exact", "R_dec",
                 "RPD_dec", "margin_dec", "lemma41", "lemma43"]


def sweep(S_values, N_values, K_max) -> list:
    """One row per (S, N, K) with N <= K <= K_max, deterministic order."""
    rows = []
    for S in sorted(S_values):
        for N in sorted(N_values):
            for K in range(N, K_max + 1):
                q = q_value(S, N)
                H = h_value(S, N)
                M = cache_fraction(S, N, K)
                R = proposed_rate(S, N, K)
                rpd = pd_rate(S, N, K, M)
                dom = rate_dominance_check(S, N, K)
                rows.append({
                    "S": S, "N": N, "K": K, "q": q, "H": H,
                    "M_exact": frac_str(M), "M_dec": dec(M),
                    "R_exact": frac_str(R), "R_dec": dec(R),
                    "RPD_dec": dec(rpd),
                    "margin_dec": dec(dom.envelope_margin),
                    "lemma41": dom.slack_nsq > 0,
                    "lemma43": dom.envelope_margin > 0,
                })
    return rows


def rates_report(S, N, K) -> dict:
    """Closed-form quantities for one parameter triple."""
    p = SchemeParams.compute(S, N, K)
    dom = rate_dominance_check(S, N, K)
    rpd = pd_rate(S, N, K, p.M)
    return {
        "S": S, "N": N, "K": K, "q": p.q, "H": p.H,
        "M_exact": frac_str(p.M), "M_dec": dec(p.M),
        "R_exact": frac_str(p.R_proposed), "R_dec": dec(p.R_proposed),
        "R_pir_exact": frac_str(p.R_pir), "R_pir_dec": dec(p.R_pir),
        "RPD_exact": frac_str(rpd), "RPD_dec": dec(rpd),
        "margin_exact": frac_str(dom.envelope_margin),
        "margin_dec": dec(dom.envelope_margin),
        "lemma41": dom.slack_nsq > 0,
        "lemma42": all(m > 0 for m in dom.chord_margins),
        "lemma43": dom.envelope_margin > 0,
    }


def to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def rows_to_csv(rows, columns=None) -> str:
    columns = columns or SWEEP_COLUMNS
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row[c] for c in columns})
    return buf.getvalue()


def reverify_sweep_rows(rows) -> bool:
    """Round-trip check: exact fields of each row re-verify on load."""
    for row in rows:
        S, N, K = int(row["S"]), int(row["N"]), int(row["K"])
        if int(row["q"]) != q_value(S, N) or int(row["H"]) != h_value(S, N):
            return False
        if parse_frac(row["M_exact"]) != cache_fraction(S, N, K):
            return False
        if parse_frac(row["R_exact"]) != proposed_rate(S, N, K):
            return False
    return True
