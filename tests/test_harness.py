"""Harness: config parsing, sessions, sweeps, serialization, CLI."""
import csv
import io
import json

import pytest

from mupir import harness
from mupir.cli import EXIT_AUDIT, EXIT_DECODE, main
from mupir.errors import ConfigError, TooLargeInstanceError
from mupir.harness import (
    dec,
    frac_str,
    parse_config,
    rates_report,
    reverify_sweep_rows,
    rows_to_csv,
    run_mupir_session,
    run_session,
    sweep,
    to_json,
)

from test_golden import BLOCK_BYTES, GOLDEN, SEED


class TestConfig:
    def test_parse_round_trip(self):
        cfg = parse_config(
            "# session\nscheme = mupir\nS = 3\nN = 3\nK = 5\nseed = 7\n"
            "demands = 2,3,2,1,3\n"
        )
        assert cfg["scheme"] == "mupir"
        assert cfg["K"] == 5
        assert cfg["demands"] == "2,3,2,1,3"

    def test_line_diagnostics(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("scheme = mupir\nbogus line\n")
        with pytest.raises(ConfigError, match="line 3.*unknown field"):
            parse_config("scheme = mupir\nS = 2\nT = 9\n")
        with pytest.raises(ConfigError, match="needs int"):
            parse_config("scheme = mupir\nS = two\nN = 2\n")
        with pytest.raises(ConfigError, match="missing required"):
            parse_config("S = 2\nN = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("scheme = mupir\nS = 2\nS = 3\nN = 2\n")


class TestRunSession:
    def test_mupir_example_report(self):
        report, _ = run_session({
            "scheme": "mupir", "S": 3, "N": 3, "K": 3,
            "block_bytes": 1, "seed": 42, "demands": "2,1,3",
        })
        assert report["rate_exact"] == "23/9"
        assert report["decode_ok"] and report["audit_ok"]
        assert report["params"]["q"] == 23 and report["params"]["H"] == 5

    @pytest.mark.parametrize("dims", [d for scheme, *d in sorted(GOLDEN) if scheme == "mupir"],
                             ids=lambda d: "-".join(map(str, d)))
    def test_mupir_params_are_the_rates_report(self, dims):
        # a session states no closed form of its own; its params keep their
        # key order, which the CLI's CSV columns follow
        params = run_mupir_session(*dims, BLOCK_BYTES, SEED)[0]["params"]
        assert list(params) == ["S", "N", "K", "block_bytes", "q", "H",
                                "M_exact", "M_dec", "R_exact", "R_dec"]
        assert params.pop("block_bytes") == BLOCK_BYTES
        report = rates_report(*dims)
        assert params == {k: report[k] for k in params}

    def test_single_report(self):
        report, _ = run_session({"scheme": "single", "S": 4, "N": 3, "seed": 3})
        assert report["rate_exact"] == "21/16"
        assert report["decode_ok"]

    def test_single_with_explicit_demand(self):
        report, _ = run_session({"scheme": "single", "S": 4, "N": 3,
                                 "seed": 3, "demands": "2"})
        assert report["demand"] == [2]
        assert report["decode_ok"]
        for demands in ("9", "2,3"):
            with pytest.raises(ConfigError):
                run_session({"scheme": "single", "S": 4, "N": 3, "demands": demands})

    def test_unknown_scheme_is_refused(self):
        with pytest.raises(ConfigError, match="must be single or mupir, got 'foo'"):
            run_session({"scheme": "foo", "S": 2, "N": 2, "K": 2})

    def test_demands_must_be_a_string(self):
        for demands in ([1, 2], (1, 2), 2):
            with pytest.raises(ConfigError, match="field 'demands' needs str, got"):
                run_session({"scheme": "mupir", "S": 2, "N": 2, "demands": demands})

    @pytest.mark.parametrize("field,value,kind", [
        ("S", "3", "int"), ("N", 3.0, "int"), ("K", True, "int"), ("seed", "x", "int"),
        ("block_bytes", None, "int"), ("scheme", b"mupir", "str"),
    ])
    def test_a_field_of_the_wrong_type_is_refused_before_building(
            self, monkeypatch, field, value, kind):
        # a hand-built config skips parse_config's casts, so run_session
        # checks each field's type, worded as parse_config words it; a bool
        # is not an int
        def no_store(*args):
            raise AssertionError("store built for a refused config")

        monkeypatch.setattr(harness, "build_file_store", no_store)
        with pytest.raises(ConfigError) as exc:
            run_session({"scheme": "mupir", "S": 3, "N": 3, field: value})
        assert str(exc.value) == f"field {field!r} needs {kind}, got {value!r}"

    def test_misspelled_field_is_refused_before_building(self, monkeypatch):
        # a hand-built config skips parse_config, so run_session checks keys
        def no_store(*args):
            raise AssertionError("store built for a refused config")

        monkeypatch.setattr(harness, "build_file_store", no_store)
        for scheme in ("mupir", "single"):
            with pytest.raises(ConfigError, match="unknown field 'sead'"):
                run_session({"scheme": scheme, "S": 2, "N": 2, "sead": 5})
        with pytest.raises(ConfigError, match="unknown field 'blockbytes'"):
            run_session({"scheme": "mupir", "S": 2, "N": 2, "blockbytes": 4})

    def test_defaults_apply_once(self):
        # a config's missing fields take the defaults table, and K takes N
        assert parse_config("scheme = mupir\nS = 2\nN = 3\n") == {
            "scheme": "mupir", "S": 2, "N": 3}
        bare, _ = run_session({"scheme": "mupir", "S": 2, "N": 3})
        full, _ = run_session({"scheme": "mupir", "S": 2, "N": 3, "K": 3,
                               "block_bytes": 1, "seed": 0, "demands": "random-valid"})
        assert to_json(bare) == to_json(full)
        assert bare["params"]["K"] == 3

    def test_random_valid_demands(self):
        report, _ = run_session({
            "scheme": "mupir", "S": 2, "N": 2, "K": 5, "seed": 9,
        })
        assert sorted(set(report["demand"])) == [1, 2]
        assert report["decode_ok"]


class TestSweep:
    def test_golden_row(self):
        rows = sweep([3], [3], 3)
        row = next(r for r in rows if (r["S"], r["N"], r["K"]) == (3, 3, 3))
        assert row["q"] == 23 and row["H"] == 5
        assert row["M_exact"] == "4/27"
        assert row["R_exact"] == "23/9"
        assert abs(row["RPD_dec"] - 2.769547) < 1e-5
        assert row["margin_dec"] > 0
        assert row["lemma41"] and row["lemma43"]

    def test_closed_form_row(self):
        rows = sweep([2], [4], 5)
        assert all(r["q"] == 31 for r in rows)

    def test_all_margins_positive(self):
        rows = sweep([2, 3], [2, 3], 6)
        assert all(r["margin_dec"] > 0 for r in rows)

    def test_deterministic_order_and_roundtrip(self):
        rows = sweep([3, 2], [3, 2], 4)
        keys = [(r["S"], r["N"], r["K"]) for r in rows]
        assert keys == sorted(keys)
        parsed = list(csv.DictReader(io.StringIO(rows_to_csv(rows))))
        assert reverify_sweep_rows(parsed)

    @pytest.mark.parametrize("column,value", [
        ("lemma43", False), ("margin_dec", -1.0), ("RPD_dec", 0)])
    def test_roundtrip_rejects_an_edited_dominance_column(self, column, value):
        rows = sweep([3], [3], 4)
        assert reverify_sweep_rows(rows)
        parsed = list(csv.DictReader(io.StringIO(rows_to_csv(rows))))
        assert reverify_sweep_rows(parsed)
        for edited in (rows, parsed):
            edited[0] = {**edited[0], column: value}
            assert not reverify_sweep_rows(edited)
            edited[0] = {**edited[0], column: str(value)}
            assert not reverify_sweep_rows(edited)


class TestSerialization:
    def test_frac_round_trip(self):
        from fractions import Fraction

        # Fraction parses frac_str's "num/den" itself
        for x in (Fraction(41, 15), Fraction(3), Fraction(-7, 4)):
            assert Fraction(frac_str(x)) == x

    def test_json_deterministic(self):
        report1, _ = run_session({"scheme": "mupir", "S": 2, "N": 2, "K": 2, "seed": 5})
        report2, _ = run_session({"scheme": "mupir", "S": 2, "N": 2, "K": 2, "seed": 5})
        assert to_json(report1) == to_json(report2)
        report3, _ = run_session({"scheme": "mupir", "S": 2, "N": 2, "K": 2, "seed": 6})
        assert to_json(report1) != to_json(report3)


class TestCli:
    def test_rates(self, capsys):
        assert main(["rates", "-S", "3", "-N", "3", "-K", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["q"] == 23 and out["R_exact"] == "23/9"

    def test_mupir_session(self, capsys):
        rc = main(["mupir", "-S", "3", "-N", "3", "-K", "3",
                   "--demands", "2,1,3", "--seed", "42"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rate_exact"] == "23/9"

    def test_pir_session(self, capsys):
        assert main(["pir", "-S", "4", "-N", "3", "--demand", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rate_exact"] == "21/16"

    def test_regime_error_exit_code(self, capsys):
        rc = main(["mupir", "-S", "3", "-N", "3", "-K", "2"])
        assert rc == 2

    def test_bad_demands_exit_code(self, capsys):
        for argv in (["mupir", "-S", "2", "-N", "2", "-K", "2", "--demands", "1,1"],
                     ["mupir", "-S", "2", "-N", "2", "-K", "2", "--demands", "1,x"],
                     ["pir", "-N", "3", "--demand", "9"]):
            assert main(argv) == 2, argv
        assert "field 'demands': cannot parse '1,x'" in capsys.readouterr().err

    def test_sweep_csv(self, capsys, tmp_path):
        out_file = tmp_path / "table.csv"
        rc = main(["sweep", "--S-values", "3", "--N-values", "3", "--K-max", "3",
                   "--format", "csv", "--out", str(out_file)])
        assert rc == 0
        text = out_file.read_text()
        assert text.splitlines()[0].startswith("S,N,K,q,H,M_exact")
        assert "23/9" in text

    def test_audit_distribution(self, capsys):
        rc = main(["audit", "--mode", "distribution", "--scheme", "mupir",
                   "-S", "2", "-N", "2", "-K", "2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["equal"] is True

    def test_audit_distribution_leak_exit(self, capsys):
        rc = main(["audit", "--mode", "distribution", "--scheme", "mupir",
                   "-S", "2", "-N", "2", "-K", "3"])
        assert rc == EXIT_AUDIT
        out = json.loads(capsys.readouterr().out)
        assert out["equal"] is False
        assert out["assignments"] == 1152
        assert out["mismatch"] == "database 1: demand (1, 1, 2) vs (1, 2, 2) differ"

    def test_audit_structure(self, capsys):
        rc = main(["audit", "--mode", "structure", "--scheme", "mupir",
                   "-S", "2", "-N", "2", "-K", "3"])
        assert rc == 0

    def test_audit_structure_decode_failure_exit(self, capsys, monkeypatch):
        # a session that fails to decode exits 3 even when its audit passes
        def failing(*args, **kwargs):
            report, art = run_mupir_session(*args, **kwargs)
            return {**report, "decode_ok": False}, art

        monkeypatch.setattr(harness, "run_mupir_session", failing)
        rc = main(["audit", "--mode", "structure", "--scheme", "mupir",
                   "-S", "2", "-N", "2", "-K", "3"])
        assert rc == EXIT_DECODE
        out = json.loads(capsys.readouterr().out)
        assert out["decode_ok"] is False and out["audit_ok"] is True

    def test_audit_csv(self, capsys):
        # one CSV row per audit, the session's params flattened in last
        rc = main(["audit", "--mode", "structure", "--scheme", "mupir",
                   "-S", "2", "-N", "2", "-K", "3", "--format", "csv"])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        assert list(rows[0]) == ["mode", "scheme", "audit_ok", "decode_ok", "S", "N", "K",
                                 "block_bytes", "q", "H", "M_exact", "M_dec",
                                 "R_exact", "R_dec"]
        assert rows[0]["mode"] == "structure" and rows[0]["R_exact"] == "5/3"
        rc = main(["audit", "--mode", "distribution", "--scheme", "mupir",
                   "-S", "2", "-N", "2", "-K", "3", "--format", "csv"])
        assert rc == EXIT_AUDIT
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows == [{"mode": "distribution", "scheme": "mupir", "S": "2", "N": "2",
                         "K": "3", "assignments": "1152", "equal": "False",
                         "mismatch": "database 1: demand (1, 1, 2) vs (1, 2, 2) differ"}]

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text("scheme = mupir\nS = 3\nN = 3\nK = 3\nseed = 42\n"
                       "demands = 2,1,3\n")
        rc = main(["mupir", "--config", str(cfg)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rate_exact"] == "23/9"

    def test_a_config_of_the_wrong_type_exits_2(self, capsys, tmp_path, monkeypatch):
        # a config reader that leaves every value a string hands run_session
        # a config it refuses, which the CLI reports as a config error
        cfg = tmp_path / "session.cfg"
        cfg.write_text("scheme = mupir\nS = 3\nN = 3\n")
        uncast = lambda text: dict(line.split(" = ") for line in text.splitlines())
        monkeypatch.setattr("mupir.cli.parse_config", uncast)
        assert main(["mupir", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: field 'S' needs int, got '3'\n"

    def test_config_without_k_runs_k_equal_n(self, capsys, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text("scheme = mupir\nS = 2\nN = 3\n")
        assert "K" not in parse_config(cfg.read_text())
        rc = main(["mupir", "--config", str(cfg)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["K"] == 3 and len(out["demand"]) == 3

    def test_audit_structure_single(self, capsys):
        rc = main(["audit", "--mode", "structure", "--scheme", "single",
                   "-S", "3", "-N", "3"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["scheme"] == "single" and out["params"]["K"] == 1
        assert out["audit_ok"] is True and out["decode_ok"] is True

    def test_sweep_json(self, capsys):
        rc = main(["sweep", "--S-values", "3", "--N-values", "3", "--K-max", "4",
                   "--format", "json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == sweep([3], [3], 4)

    def test_audit_failure_exit(self, capsys, monkeypatch):
        # a session that decodes but fails its audit exits 4
        monkeypatch.setattr(harness, "verify_replay", lambda bundle, transcript: False)
        rc = main(["mupir", "-S", "2", "-N", "2", "-K", "2"])
        assert rc == EXIT_AUDIT
        out = json.loads(capsys.readouterr().out)
        assert out["decode_ok"] is True and out["audit_ok"] is False

    def test_config_error_exit(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scheme = mupir\nS = two\nN = 2\n")
        assert main(["mupir", "--config", str(cfg)]) == 2

    def test_config_bad_demands_exit(self, capsys, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("scheme = mupir\nS = 2\nN = 2\nK = 2\ndemands = 1,1\n")
        assert main(["mupir", "--config", str(cfg)]) == 2
        cfg.write_text("scheme = single\nS = 2\nN = 3\ndemands = 2,3\n")
        assert main(["pir", "--config", str(cfg)]) == 2

    def test_unopenable_config_or_out_path_exits_2(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.cfg")
        for argv in (["pir", "--config", missing], ["mupir", "--config", missing],
                     ["rates", "-S", "3", "-N", "3", "-K", "3",
                      "--out", str(tmp_path / "no" / "x.json")]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("config error: "), argv

    @pytest.mark.parametrize("dims", [("-S", "1", "-N", "2"), ("-S", "2", "-N", "1")])
    def test_single_oracle_refuses_one_database_or_file(self, capsys, dims):
        # the oracle refuses what a `pir` session refuses, with exit code 2
        assert main(["pir", *dims]) == 2
        capsys.readouterr()
        assert main(["audit", "--mode", "distribution", "--scheme", "single", *dims]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs S >= 2 and N >= 2" in captured.err

    def test_oracle_guard_exit(self, capsys):
        rc = main(["audit", "--mode", "distribution", "--scheme", "mupir",
                   "-S", "3", "-N", "3", "-K", "3"])
        assert rc == 2


class TestFrontDoor:
    """Flags, config files and Python callers all start sessions through
    `run_session`, with the same defaults."""

    @pytest.mark.parametrize("argv", [
        ["mupir", "-S", "2", "-N", "3"],
        ["audit", "--mode", "structure", "-S", "2", "-N", "3"],
    ])
    def test_k_defaults_to_n(self, capsys, argv):
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["params"]["K"] == 3

    @pytest.mark.parametrize("argv,text", [
        (["pir", "-S", "4", "-N", "3", "--demand", "2", "--seed", "5"],
         "scheme = single\nS = 4\nN = 3\ndemands = 2\nseed = 5\n"),
        (["mupir", "-S", "3", "-N", "3", "-K", "5", "--block-bytes", "2",
          "--demands", "2,3,2,1,3", "--seed", "42"],
         "scheme = mupir\nS = 3\nN = 3\nK = 5\nblock_bytes = 2\n"
         "demands = 2,3,2,1,3\nseed = 42\n"),
    ], ids=["pir", "mupir"])
    def test_flags_and_config_file_print_the_same(self, capsys, tmp_path, argv, text):
        assert main(argv) == 0
        from_flags = capsys.readouterr().out
        cfg = tmp_path / "session.cfg"
        cfg.write_text(text)
        assert main([argv[0], "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == from_flags

    @pytest.mark.parametrize("argv", [["rates", "-S", "3", "-N", "3", "-K", "3"],
                                      ["sweep"]], ids=["rates", "sweep"])
    def test_seed_only_on_session_commands(self, capsys, argv):
        assert main(argv) == 0
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2

    def test_distribution_oracle_k_defaults_to_n(self, capsys):
        argv = ["audit", "--mode", "distribution", "--scheme", "mupir", "-S", "2", "-N", "2"]
        assert main(argv) == 0
        without_k = capsys.readouterr().out
        assert main(argv + ["-K", "2"]) == 0
        assert capsys.readouterr().out == without_k


class TestRefusals:
    """A flag the command would not read is refused with exit 2 and named,
    never silently dropped."""

    SESSION = "scheme = mupir\nS = 3\nN = 3\nK = 5\nseed = 42\ndemands = 2,3,2,1,3\n"

    @pytest.mark.parametrize("command,text,flags,names", [
        ("mupir", SESSION, ["--seed", "9", "-K", "7"], "-K, --seed"),
        ("mupir", SESSION, ["-S", "2", "-N", "2", "--block-bytes", "4",
                            "--demands", "1,2"], "-S, -N, --block-bytes, --demands"),
        ("pir", "scheme = single\nS = 4\nN = 3\n", ["--demand", "2"], "--demand"),
    ], ids=["mupir-seed-k", "mupir-all", "pir-demand"])
    def test_session_flags_next_to_config(self, capsys, tmp_path, command, text, flags,
                                          names):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)] + flags) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --config sets the whole session; remove: {names}\n"

    def test_format_and_out_still_combine_with_config(self, capsys, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(self.SESSION)
        out = tmp_path / "report.csv"
        assert main(["mupir", "--config", str(cfg), "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().startswith("scheme,seed,demand,rate_exact")

    @pytest.mark.parametrize("mode,flags,names", [
        ("distribution", ["--seed", "9"], "--seed"),
        ("distribution", ["--seed", "9", "--block-bytes", "4"], "--block-bytes, --seed"),
        ("structure", ["--guard", "5"], "--guard"),
    ], ids=["distribution-seed", "distribution-both", "structure-guard"])
    def test_audit_mode_refuses_flags_it_does_not_read(self, capsys, mode, flags, names):
        argv = ["audit", "--mode", mode, "-S", "2", "-N", "2"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + flags) == 2
        assert capsys.readouterr().err == (
            f"config error: audit --mode {mode} does not read: {names}\n")

    @pytest.mark.parametrize("argv", [
        ["audit", "--mode", "structure", "--scheme", "single", "-S", "2", "-N", "2", "-K", "3"],
        ["audit", "--mode", "distribution", "--scheme", "single", "-S", "2", "-N", "2",
         "-K", "3"],
    ], ids=["structure", "distribution"])
    def test_single_scheme_refuses_k_but_one(self, capsys, argv):
        assert main(argv) == 2
        assert "has K = 1, got 3\n" in capsys.readouterr().err
        argv[-1] = "1"
        assert main(argv) == 0

    def test_single_session_refuses_k_but_one(self, capsys, tmp_path):
        base = {"scheme": "single", "S": 2, "N": 2, "seed": 3}
        assert run_session({**base, "K": 1})[0] == run_session(base)[0]
        with pytest.raises(ConfigError, match="single-user session has K = 1, got 2"):
            run_session({**base, "K": 2})
        cfg = tmp_path / "single.cfg"
        cfg.write_text("scheme = single\nS = 2\nN = 2\nK = 3\n")
        assert main(["pir", "--config", str(cfg)]) == 2


class TestSessionBudget:
    """`run_session` refuses a session whose store, N*K*S^(N-1) blocks of
    block_bytes each, passes `STORE_BUDGET_BYTES`, before it builds it."""

    @pytest.fixture
    def no_store(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_file_store called")
        monkeypatch.setattr(harness, "build_file_store", refuse)

    @pytest.fixture
    def ran(self, monkeypatch):
        # stand-ins for the two sessions: what run_session passes on
        calls = []
        for name in ("run_single_session", "run_mupir_session"):
            monkeypatch.setattr(harness, name, lambda *args, **kw: calls.append(args))
        return calls

    @pytest.mark.parametrize("argv", [
        ["pir", "-S", "10", "-N", "9"],
        ["mupir", "-S", "10", "-N", "9"],
        ["audit", "--mode", "structure", "--scheme", "single", "-S", "10", "-N", "9"],
        ["mupir", "-S", "2", "-N", "10000000000"],
    ], ids=["pir", "mupir", "audit", "huge-N"])
    def test_oversize_session_exits_2_without_a_store(self, capsys, no_store, argv):
        assert main(argv) == 2
        assert "session budget" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"scheme": "mupir", "S": 3, "N": 4, "K": 4, "block_bytes": 65536},
        {"scheme": "mupir", "S": 4, "N": 7},
        {"scheme": "mupir", "S": 5, "N": 6},
        {"scheme": "single", "S": 2, "N": 2, "block_bytes": harness.STORE_BUDGET_BYTES // 4},
        {"scheme": "mupir", "S": 2, "N": 2, "block_bytes": harness.STORE_BUDGET_BYTES // 8},
    ], ids=["mu_bulk", "4-7-7", "5-6-6", "single-at-budget", "mupir-at-budget"])
    def test_sizes_within_the_budget_run(self, ran, config):
        run_session(config)
        assert len(ran) == 1

    @pytest.mark.parametrize("config", [
        {"scheme": "single", "S": 2, "N": 2, "block_bytes": harness.STORE_BUDGET_BYTES // 4 + 1},
        {"scheme": "mupir", "S": 2, "N": 2, "block_bytes": harness.STORE_BUDGET_BYTES // 8 + 1},
    ], ids=["single", "mupir"])
    def test_one_byte_per_block_over_is_refused(self, ran, config):
        with pytest.raises(TooLargeInstanceError, match="session budget"):
            run_session(config)
        assert ran == []
