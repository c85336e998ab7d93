"""Command-line interface.

Subcommands: pir (single-user session), mupir (multi-user session), rates
(closed forms for one triple), sweep (rate tables), audit (structure checks
or the exhaustive distribution oracle).

Exit codes: 0 success, 2 config error, 3 decode failure, 4 audit failure.
"""
from __future__ import annotations

import argparse
import sys

from .audit import ORACLE_GUARD, demand_distribution_oracle
from .errors import ConfigError
from .harness import (
    CONFIG_KEYS,
    parse_config,
    rates_report,
    rows_to_csv,
    run_session,
    sweep,
    to_json,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DECODE = 3
EXIT_AUDIT = 4


def _add_common(p):
    p.add_argument("--out", type=str, default=None, help="write output to this file")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _add_session(p, users=True):
    """The flags that fix a session, named as its config fields.  Each is
    None when unset, so that a typed one can be told apart; -S and -N then
    take 2, and every other takes the default a config file gets (K takes N)."""
    p.add_argument("-S", type=int, help="number of databases (default: 2)")
    p.add_argument("-N", type=int, help="number of files (default: 2)")
    if users:
        p.add_argument("-K", type=int, help="number of users (default: N)")
    p.add_argument("--block-bytes", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)


def _emit(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_record(record, args, row=None):
    """The record as JSON or, with --format csv, as one CSV row: `row` when
    given, else the record; a `params` dict is flattened in after the rest."""
    if args.format == "csv":
        row = dict(row or record)
        row.update(row.pop("params", {}))
        _emit(rows_to_csv([row], columns=list(row)), args.out)
    else:
        _emit(to_json(record), args.out)


def _exit_code(report) -> int:
    """A session's exit code: a decode failure outranks an audit failure."""
    if not report["decode_ok"]:
        return EXIT_DECODE
    if not report["audit_ok"]:
        return EXIT_AUDIT
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mupir",
        description="Cache-aided multi-user private retrieval simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pir", help="run one single-user session")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--demand", dest="demands", help="the demanded file index")
    _add_session(p, users=False)

    p = sub.add_parser("mupir", help="run one multi-user session")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--demands", help="comma-separated file indices or 'random-valid'")
    _add_session(p)

    p = sub.add_parser("rates", help="closed-form quantities for one triple")
    p.add_argument("-S", type=int, required=True)
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-K", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("sweep", help="rate/memory table over a parameter grid")
    p.add_argument("--S-values", type=str, default="2,3,4")
    p.add_argument("--N-values", type=str, default="2,3")
    p.add_argument("--K-max", type=int, default=6)
    _add_common(p)

    p = sub.add_parser("audit", help="structure audit or distribution oracle")
    p.add_argument("--mode", choices=["structure", "distribution"], default="structure")
    p.add_argument("--scheme", choices=["single", "mupir"], default="mupir")
    p.add_argument("--guard", type=int, help=f"oracle assignment limit (default: {ORACLE_GUARD})")
    _add_session(p)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        # every error mupir raises for bad input is a ValueError: bad
        # parameters, config files, demand vectors, regimes or oracle guards;
        # a --config or --out path that cannot be opened is an OSError;
        # genuine protocol failures (RuntimeError) are left to crash loudly
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


_SESSION_FLAGS = tuple(k for k in CONFIG_KEYS if k != "scheme")


def _typed(args, keys) -> dict:
    """The flags among `keys` the user typed: an unset flag is None."""
    return {k: v for k in keys if (v := getattr(args, k, None)) is not None}


def _refuse_typed(args, keys, why):
    """Exit 2, naming each flag among `keys` the user typed, if any."""
    typed = _typed(args, keys)
    if typed:
        # pir spells the demands field --demand
        names = ["--demand" if k == "demands" and args.command == "pir"
                 else ("-" if len(k) == 1 else "--") + k.replace("_", "-") for k in typed]
        raise ConfigError(f"{why}: {', '.join(names)}")


def _session_config(args, scheme):
    """The session's config: read from --config, or else made of the flags
    the user set, so that `run_session` fills in the rest either way.  A
    config file fixes the whole session, so a session flag typed next to it
    is refused, not dropped."""
    if getattr(args, "config", None):
        _refuse_typed(args, _SESSION_FLAGS, "--config sets the whole session; remove")
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        if cfg["scheme"] != scheme:
            raise ConfigError(
                f"config scheme {cfg['scheme']!r} does not match subcommand {scheme!r}"
            )
        return cfg
    return {"S": 2, "N": 2, **_typed(args, _SESSION_FLAGS), "scheme": scheme}


def _dispatch(args) -> int:
    if args.command in ("pir", "mupir"):
        scheme = "single" if args.command == "pir" else "mupir"
        report, _ = run_session(_session_config(args, scheme))
        row = {k: report[k] for k in ("scheme", "seed", "demand", "rate_exact", "rate_dec",
                                      "decode_ok", "audit_ok", "params")}
        row["demand"] = " ".join(str(d) for d in report["demand"])
        _emit_record(report, args, row)
        return _exit_code(report)

    if args.command == "rates":
        _emit_record(rates_report(args.S, args.N, args.K), args)
        return EXIT_OK

    if args.command == "sweep":
        s_vals = [int(x) for x in args.S_values.split(",")]
        n_vals = [int(x) for x in args.N_values.split(",")]
        rows = sweep(s_vals, n_vals, args.K_max)
        if args.format == "csv":
            _emit(rows_to_csv(rows), args.out)
        else:
            _emit(to_json(rows), args.out)
        return EXIT_OK

    if args.command == "audit":
        # each mode refuses the flags it does not read
        cfg = _session_config(args, args.scheme)
        if args.mode == "distribution":
            _refuse_typed(args, ("block_bytes", "seed"), "audit --mode distribution does not read")
            guard = ORACLE_GUARD if args.guard is None else args.guard
            report = demand_distribution_oracle(cfg["S"], cfg["N"], K=cfg.get("K"),
                                                scheme=args.scheme, guard=guard)
            payload = {
                "mode": "distribution", "scheme": report.scheme,
                "S": cfg["S"], "N": cfg["N"], "K": report.K,
                "assignments": report.assignments,
                "equal": report.equal, "mismatch": report.mismatch,
            }
            _emit_record(payload, args)
            return EXIT_OK if report.equal else EXIT_AUDIT
        _refuse_typed(args, ("guard",), "audit --mode structure does not read")
        report, _ = run_session(cfg)
        payload = {
            "mode": "structure", "scheme": report["scheme"],
            "params": report["params"],
            "audit_ok": report["audit_ok"], "decode_ok": report["decode_ok"],
        }
        _emit_record(payload, args)
        return _exit_code(payload)

    raise ConfigError(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
