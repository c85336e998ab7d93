"""Harness: config parsing, sessions, sweeps, serialization, CLI."""
import json

import pytest

from mupir.cli import main
from mupir.errors import ConfigError
from mupir.harness import (
    dec,
    frac_str,
    parse_config,
    parse_frac,
    reverify_sweep_rows,
    rows_to_csv,
    run_session,
    sweep,
    to_json,
)


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
        csv_text = rows_to_csv(rows)
        import csv as _csv
        import io

        parsed = list(_csv.DictReader(io.StringIO(csv_text)))
        assert reverify_sweep_rows(parsed)


class TestSerialization:
    def test_frac_round_trip(self):
        from fractions import Fraction

        x = Fraction(41, 15)
        assert parse_frac(frac_str(x)) == x

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
        rc = main(["mupir", "-S", "2", "-N", "2", "-K", "2", "--demands", "1,1"])
        assert rc == 2

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

    def test_audit_structure(self, capsys):
        rc = main(["audit", "--mode", "structure", "--scheme", "mupir",
                   "-S", "2", "-N", "2", "-K", "3"])
        assert rc == 0

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text("scheme = mupir\nS = 3\nN = 3\nK = 3\nseed = 42\n"
                       "demands = 2,1,3\n")
        rc = main(["mupir", "--config", str(cfg)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rate_exact"] == "23/9"

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

    def test_oracle_guard_exit(self, capsys):
        rc = main(["audit", "--mode", "distribution", "--scheme", "mupir",
                   "-S", "3", "-N", "3", "-K", "3"])
        assert rc == 2
