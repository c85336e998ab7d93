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
    collector_paused,
    sample_permutation,
    shuffle,
    validate_demands,
)
from .errors import ConfigError, RegimeError, TooLargeInstanceError
from .params import SchemeParams, h_value, pir_rate
from .protocol import (
    assemble_bundle,
    check_decoded,
    choose_base_and_rho,
    decode_user,
    generate_alg1,
    generate_alg2,
    generate_alg3,
    placement,
    resolve_symbols,
)
from .single_user import decode_single

CONFIG_KEYS = {
    "scheme": str,
    "S": int,
    "N": int,
    "K": int,
    "block_bytes": int,
    "seed": int,
    "demands": str,
}
_DEFAULTS = {"block_bytes": 1, "seed": 0, "demands": "random-valid"}
# The largest file store, in bytes, that `run_session` builds: N*K*S^(N-1)
# blocks of block_bytes each (K = 1 for a single-user session).
STORE_BUDGET_BYTES = 1 << 27


def parse_config(text: str) -> dict:
    """Parse a plain-text key=value config with line-level diagnostics; the
    result holds only the fields the text sets."""
    cfg = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown field {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate field {key!r}")
        seen.add(key)
        caster = CONFIG_KEYS[key]
        try:
            cfg[key] = caster(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: field {key!r} needs {caster.__name__}, got {value!r}"
            ) from None
    for required in ("scheme", "S", "N"):
        if required not in cfg:
            raise ConfigError(f"missing required field {required!r}")
    return cfg


def _parse_demands(spec, scheme, N, K):
    """The config's demands, a string of comma-separated file indices: a
    valid vector of K files for the multi-user scheme, exactly one file
    index in [1, N] for the single-user one."""
    try:
        demands = tuple(int(part) for part in spec.split(","))
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
    d = list(range(1, N + 1)) + [rng.randrange(1, N + 1) for _ in range(K - N)]
    shuffle(d, rng)
    return tuple(d)


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


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


def _audit_and_report(scheme, params, seed, bundle, transcript, decode_ok, artifacts):
    """The tail both schemes share: structure audit, replay check, measured
    rate and the report."""
    audit = check_structure(bundle)
    replay_ok = verify_replay(bundle, transcript)
    rate = count_rate(bundle)
    report = {
        "scheme": scheme,
        "params": params,
        "demand": list(transcript.demand),
        "seed": seed,
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
    with collector_paused():
        streams = rng_streams(seed)
        store = build_file_store(N, 1, S, block_bytes, seed)
        d = demand if demand is not None else streams["demand"].randrange(1, N + 1)
        perms = _user_perms(1, N, store.subpackets, streams["perms"])[1]
        transcript = generate_alg1(S, N, perms, d)
        bundle = assemble_bundle(transcript, streams["shuffle"])
        answers = answer_bundle(store, bundle)
        decoded = decode_single(transcript, bundle, answers)
        decode_ok = all(decoded[x] == store.block(d, 1, x)
                        for x in range(1, store.subpackets + 1))
        R_pir = pir_rate(S, N)
        params = {
            "S": S, "N": N, "K": 1, "block_bytes": block_bytes,
            "subpackets": store.subpackets, "R_pir": frac_str(R_pir), "R_pir_dec": dec(R_pir),
        }
        return _audit_and_report("single", params, seed, bundle, transcript, decode_ok,
                                 {"store": store, "answers": answers, "decoded": decoded})


def run_mupir_session(S, N, K, block_bytes, seed, demand=None):
    """End-to-end multi-user session; decodes every user against the store."""
    with collector_paused():
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
            transcript = generate_alg2(S, N, K, demands, P, user_perms)
        else:
            transcript = generate_alg3(S, N, K, demands, P, base, rho, user_perms)
        bundle = assemble_bundle(transcript, streams["shuffle"])
        answers = answer_bundle(store, bundle)
        symbols = resolve_symbols(transcript, bundle, answers)
        decoded_all = {
            u: decode_user(u, transcript, bundle, answers, caches[u], symbols=symbols,
                           run_oracle=False)
            for u in range(1, K + 1)
        }
        check_decoded(bundle, answers, demands, caches, decoded_all)
        decode_ok = all(
            got[(j, x)] == store.block(demands[u - 1], j, x)
            for u, got in decoded_all.items()
            for j in range(1, K + 1) for x in range(1, sub + 1))
        closed = rates_report(S, N, K)
        report_params = {"S": S, "N": N, "K": K, "block_bytes": block_bytes, **{
            key: closed[key] for key in ("q", "H", "M_exact", "M_dec", "R_exact", "R_dec")}}
        return _audit_and_report("mupir", report_params, seed, bundle, transcript, decode_ok, {
            "store": store, "answers": answers, "caches": caches, "broadcast": broadcast,
            "decoded": decoded_all, "symbols": symbols,
        })


def run_session(config: dict):
    """Drive one session from a config, parsed or built by hand; returns
    (report, artifacts).  Every session starts here, and this is where
    defaults apply: a field the config leaves out takes its `_DEFAULTS`
    value, and K takes N (a single-user session has K = 1, and refuses any
    other).  A field outside `CONFIG_KEYS` or not of its type there (a bool
    is not an int), or a session whose store would pass
    `STORE_BUDGET_BYTES`, is refused before anything is built."""
    for key, value in config.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown field {key!r}")
        kind = CONFIG_KEYS[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"field {key!r} needs {kind.__name__}, got {value!r}")
    cfg = {**_DEFAULTS, **config}
    scheme, S, N, spec = cfg["scheme"], cfg["S"], cfg["N"], cfg["demands"]
    if scheme not in ("single", "mupir"):
        raise ConfigError(f"field 'scheme' must be single or mupir, got {scheme!r}")
    if scheme == "single" and cfg.get("K", 1) != 1:
        raise ConfigError(f"field 'K': a single-user session has K = 1, got {cfg['K']!r}")
    K = 1 if scheme == "single" else cfg.get("K", N)
    block_bytes = cfg["block_bytes"]
    # past the budget's bit length, S^(N-1) passes it at any S >= 2 (N < 2
    # is left for build_file_store to refuse)
    sub = S ** min(max(N - 1, 0), STORE_BUDGET_BYTES.bit_length())
    if N * K * sub * block_bytes > STORE_BUDGET_BYTES:
        raise TooLargeInstanceError(
            f"the store of N*K*S^(N-1) = {N}*{K}*{S}^{N - 1} blocks of {block_bytes} "
            f"bytes passes the {STORE_BUDGET_BYTES}-byte session budget")
    demands = None if spec == "random-valid" else _parse_demands(spec, scheme, N, K)
    if scheme == "single":
        demand = None if demands is None else demands[0]
        return run_single_session(S, N, block_bytes, cfg["seed"], demand=demand)
    return run_mupir_session(S, N, K, block_bytes, cfg["seed"], demand=demands)


SWEEP_COLUMNS = ["S", "N", "K", "q", "H", "M_exact", "M_dec", "R_exact", "R_dec",
                 "RPD_dec", "margin_dec", "lemma41", "lemma43"]


def sweep(S_values, N_values, K_max) -> list:
    """One row per (S, N, K) with N <= K <= K_max, deterministic order: the
    SWEEP_COLUMNS of that triple's `rates_report`."""
    rows = []
    for S in sorted(S_values):
        for N in sorted(N_values):
            for K in range(N, K_max + 1):
                report = rates_report(S, N, K)
                rows.append({c: report[c] for c in SWEEP_COLUMNS})
    return rows


def rates_report(S, N, K) -> dict:
    """Closed-form quantities for one parameter triple."""
    p = SchemeParams.compute(S, N, K)
    return {
        "S": S, "N": N, "K": K, "q": p.q, "H": p.H,
        "M_exact": frac_str(p.M), "M_dec": dec(p.M),
        "R_exact": frac_str(p.R_proposed), "R_dec": dec(p.R_proposed),
        "R_pir_exact": frac_str(p.R_pir), "R_pir_dec": dec(p.R_pir),
        "RPD_exact": frac_str(p.R_pd), "RPD_dec": dec(p.R_pd),
        "margin_exact": frac_str(p.envelope_margin), "margin_dec": dec(p.envelope_margin),
        "lemma41": p.slack_nsq > 0,
        "lemma42": all(m > 0 for m in p.chord_margins),
        "lemma43": p.envelope_margin > 0,
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
    """Round-trip check: every SWEEP_COLUMNS field of each row, as it reads
    in memory or after a CSV round trip, equals the triple's `rates_report`."""
    for row in rows:
        report = rates_report(int(row["S"]), int(row["N"]), int(row["K"]))
        if any(str(row[c]) != str(report[c]) for c in SWEEP_COLUMNS):
            return False
    return True
