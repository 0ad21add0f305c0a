import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from macdonald import TestFunctionSpec
from macdonald.cli import build_parser, main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json").read_text()
)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_cli_json(args, capsys):
    code, out = run_cli(args + ["--format", "json"], capsys)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


class TestEval:
    def test_basic_record(self, capsys):
        code, doc = run_cli_json(["eval", "--nu", "1", "--x", "1"], capsys)
        assert code == 0
        row = doc["rows"][0]
        assert row["value"] == pytest.approx(0.28942803702599213, rel=1e-12)
        assert row["method"] == "series-combination"
        assert row["abs_err_estimate"] >= 0.0

    def test_grid_sorted(self, capsys):
        code, doc = run_cli_json(["eval", "--nu", "2,1", "--x", "3,1"], capsys)
        coords = [(r["nu"], r["x"]) for r in doc["rows"]]
        assert coords == sorted(coords)

    def test_usage_error_on_bad_abscissa(self, capsys):
        code, _ = run_cli(["eval", "--nu", "1", "--x", "-3"], capsys)
        assert code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["eval", "--nu", "1", "--x", "1", "--bogus", "2"])
        assert exc_info.value.code == 2


class TestGamma:
    def test_pass(self, capsys):
        code, doc = run_cli_json(["gamma", "--nu", "0.5,1,2"], capsys)
        assert code == 0 and doc["pass"] is True

    def test_tolerance_override_failure(self, capsys):
        code, doc = run_cli_json(["gamma", "--nu", "1", "--tol", "1e-30"], capsys)
        assert code == 1 and doc["pass"] is False


class TestIdentityCheck:
    def test_example_invocation(self, capsys):
        code, doc = run_cli_json(
            ["identity-check", "--nu", "1", "--nu2", "2", "--xi", "0.1"], capsys
        )
        assert code == 0
        row = doc["rows"][0]
        assert row["abs_diff"] <= 1e-8
        assert row["pass"] is True


class TestOrthoScan:
    def test_rows_and_diagonal(self, capsys):
        code, doc = run_cli_json(
            [
                "ortho-scan",
                "--nu", "1",
                "--xi", "1e-4",
                "--nu2-min", "0.5",
                "--nu2-max", "1.5",
                "--n", "11",
            ],
            capsys,
        )
        assert code == 0
        assert len(doc["rows"]) == 11
        methods = {r["method"] for r in doc["rows"]}
        assert methods == {"boundary-term", "diagonal-limit"}


class TestDeltaTest:
    def test_example_invocation(self, capsys):
        code, doc = run_cli_json(
            ["delta-test", "--nu", "1", "--xi", "1e-2,1e-4,1e-6", "--phi", "gaussian:1,0.2"],
            capsys,
        )
        assert code == 0
        weak = [r for r in doc["rows"] if r["kind"] == "weak-limit"]
        errs = [r["abs_error"] for r in weak]
        assert errs == sorted(errs, reverse=True)
        reflected = [r for r in doc["rows"] if r["kind"] == "reflected-bound"]
        assert len(reflected) == 1

    def test_compact_phi_parses(self):
        args = build_parser().parse_args(
            ["delta-test", "--nu", "1", "--xi", "1e-2", "--phi", "compact:1,0.3"]
        )
        assert args.phi == TestFunctionSpec("smooth-compact-bump", 1.0, 0.3)

    def test_unknown_phi_kind_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["delta-test", "--nu", "1", "--xi", "1e-2", "--phi", "bump:1,0.1"])
        assert exc_info.value.code == 2


class TestAsymCheck:
    def test_example_invocation(self, capsys):
        code, doc = run_cli_json(
            ["asym-check", "--nu", "1", "--nu2", "1.5", "--xi", "1e-3,5e-4,2.5e-4"], capsys
        )
        assert code == 0 and doc["pass"] is True

    @pytest.mark.parametrize("band", ["1", "1,2,3", "0,1", "1.25,0.75", "1,inf", "nan,1"])
    def test_bad_ratio_band_is_usage_error(self, band):
        argv = ["asym-check", "--nu", "1", "--nu2", "1.3", "--xi", "0.01,0.005"]
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--ratio-band", band])
        assert exc_info.value.code == 2


class TestSerialization:
    def test_csv_header_and_roundtrip(self, capsys):
        code, out = run_cli(
            ["eval", "--nu", "1", "--x", "1", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert set(rows[0]) == {"nu", "x", "value", "abs_err_estimate", "method"}
        # 17 significant digits round-trip binary64 exactly
        from macdonald import besselk_imag

        assert float(rows[0]["value"]) == besselk_imag(1.0, 1.0).value

    def test_reports_are_byte_identical(self):
        cmd = [
            sys.executable, "-m", "macdonald.cli",
            "identity-check", "--nu", "1", "--nu2", "2", "--xi", "0.1",
        ]
        a = subprocess.run(cmd, capture_output=True, check=True).stdout
        b = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert a == b
