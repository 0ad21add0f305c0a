import contextlib
import csv
import io
import json
import math
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from macdonald import FunctionValue, TestFunctionSpec, besselk_imag
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

    @pytest.mark.parametrize("nu, x, reason", [("0", "1e-310", "46/x"), ("1", "5e-324", "x/2")])
    def test_subnormal_abscissa_is_range_error(self, nu, x, reason, capsys):
        code = main(["eval", "--nu", nu, "--x", x])
        assert code == 2 and reason in capsys.readouterr().err

    def test_infinite_error_estimate_is_no_pass(self, capsys, monkeypatch):
        import macdonald.cli as cli

        # injected: subnormal orders, which gave one, now take the nu = 0 route
        fv = FunctionValue(besselk_imag(1.0, 1.0).value, math.inf, "series-combination")
        monkeypatch.setattr(cli, "besselk_imag", lambda nu, x: fv)
        code, doc = run_cli_json(["eval", "--nu", "1", "--x", "1"], capsys)
        assert math.isinf(doc["rows"][0]["abs_err_estimate"])
        assert code == 1 and doc["pass"] is False

    def test_subnormal_order_takes_the_order_zero_route(self, capsys):
        code, doc = run_cli_json(["eval", "--nu", "5e-324", "--x", "1"], capsys)
        row = doc["rows"][0]
        assert row["value"] == besselk_imag(0.0, 1.0).value  # K_0(1) = 0.42102443824070834
        assert row["method"] == "integral-representation"
        assert code == 0 and doc["pass"] is True


class TestGamma:
    def test_pass(self, capsys):
        code, doc = run_cli_json(["gamma", "--nu", "0.5,1,2"], capsys)
        assert code == 0 and doc["pass"] is True

    def test_tolerance_override_failure(self, capsys):
        code, doc = run_cli_json(["gamma", "--nu", "1", "--tol", "1e-30"], capsys)
        assert code == 1 and doc["pass"] is False

    def test_default_tolerance_reported(self, capsys):
        _, doc = run_cli_json(["gamma", "--nu", "1"], capsys)
        assert doc["parameters"] == {"nu": [1.0], "tol": 1e-12}

    def test_tiny_nu(self, capsys):
        # nu sinh(pi nu) underflows at nu = 1e-170; |Gamma(i nu)| = 1/nu
        code, doc = run_cli_json(["gamma", "--nu", "1e-170"], capsys)
        assert code == 0 and doc["rows"][0]["abs_gamma"] == pytest.approx(1e170, rel=1e-15)


class TestIdentityCheck:
    def test_example_invocation(self, capsys):
        code, doc = run_cli_json(
            ["identity-check", "--nu", "1", "--nu2", "2", "--xi", "0.1"], capsys
        )
        assert code == 0
        row = doc["rows"][0]
        assert row["abs_diff"] <= 1e-8
        assert row["pass"] is True
        assert doc["parameters"]["tol"] == 1e-8

    def test_tiny_cutoff_passes(self, capsys):
        # (nu + nu') ln(U/xi) / pi ~ 660 half-periods: more first-partition panels
        # than the 400 bisections the quadrature allows
        code, doc = run_cli_json(
            ["identity-check", "--nu", "1", "--nu2", "2", "--xi", "1e-300"], capsys
        )
        assert code == 0 and doc["pass"] is True


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

    def test_phi_reported_as_kind_center_width(self, capsys):
        _, doc = run_cli_json(
            ["delta-test", "--nu", "1", "--xi", "1e-2", "--phi", "compact:1,0.3"], capsys
        )
        assert doc["parameters"]["phi"] == "smooth-compact-bump:1.0,0.3"

    def test_tiny_nu_is_domain_error(self, capsys):
        # the weight pi^2/(2 nu sinh pi nu) overflows binary64 at nu = 1e-170
        code = main(["delta-test", "--nu", "1e-170", "--xi", "1e-2,1e-3", "--phi", "gaussian:1,0.1"])
        assert code == 2 and "not representable" in capsys.readouterr().err

    def test_vanishing_target_is_domain_error(self, capsys):
        code = main(["delta-test", "--nu", "2", "--xi", "1e-2,1e-3", "--phi", "compact:1,0.5"])
        assert code == 2 and "vanishes" in capsys.readouterr().err

    def test_unknown_phi_kind_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["delta-test", "--nu", "1", "--xi", "1e-2", "--phi", "bump:1,0.1"])
        assert exc_info.value.code == 2

    def test_single_cutoff_is_no_pass(self, capsys):
        # one cutoff gives one error and nothing for it to fall from
        code, doc = run_cli_json(
            ["delta-test", "--nu", "1", "--xi", "1e-2", "--phi", "gaussian:1,0.2"], capsys
        )
        assert code == 1 and doc["pass"] is False
        assert [r["kind"] for r in doc["rows"]] == ["weak-limit", "reflected-bound"]


class TestAsymCheck:
    def test_example_invocation(self, capsys):
        code, doc = run_cli_json(
            ["asym-check", "--nu", "1", "--nu2", "1.5", "--xi", "1e-3,5e-4,2.5e-4"], capsys
        )
        assert code == 0 and doc["pass"] is True

    @pytest.mark.parametrize("xi", ["1e-3,0", "1e-3,-1e-3"])
    def test_non_positive_cutoff_is_domain_error(self, xi, capsys):
        code = main(["asym-check", "--nu", "1", "--nu2", "1.5", "--xi", xi])
        assert code == 2 and "cutoff xi" in capsys.readouterr().err

    def test_injected_non_finite_envelope_is_no_pass(self, capsys, monkeypatch):
        import macdonald.cli as cli

        monkeypatch.setattr(cli, "asymptotic_envelope", lambda nu, nu2, xi: math.inf)
        code, out = run_cli(["asym-check", "--nu", "1", "--nu2", "1.5", "--xi", "1e-3"], capsys)
        doc = json.loads(out)
        assert math.isinf(doc["rows"][0]["envelope"])
        assert doc["rows"][0]["pass"] is False
        assert code == 1 and doc["pass"] is False

    @pytest.mark.parametrize("xi", ["1e-3", "1e-150"])
    def test_single_cutoff_is_no_pass(self, xi, capsys):
        # one cutoff gives one envelope and no ratio to check
        code, doc = run_cli_json(["asym-check", "--nu", "1", "--nu2", "1.5", "--xi", xi], capsys)
        assert math.isfinite(doc["rows"][0]["envelope"])
        assert code == 1 and doc["pass"] is False

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


def readme_examples():
    """The `macdonald ...` lines of README.md's sh blocks, each as the argv after `macdonald`."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    return [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("macdonald ")
    ]


README_EXAMPLES = readme_examples()


def test_readme_shows_every_subcommand():
    commands = ["eval", "gamma", "identity-check", "ortho-scan", "delta-test", "asym-check"]
    assert [argv[0] for argv in README_EXAMPLES] == commands


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=lambda argv: argv[0])
def test_readme_example_runs(argv, capsys):
    # the README and the CLI agree: each example passes with a valid JSON report
    code, out = run_cli(argv, capsys)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert code == 0
    assert doc["command"] == argv[0]


_SCAN = ["ortho-scan", "--nu", "1", "--xi", "1e-4", "--nu2-min", "0.5", "--nu2-max", "1.5"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--nu", ",", "--x", "1"],
        ["eval", "--nu", ",", "--x", "1", "--format", "csv"],
        ["gamma", "--nu", ","],
        ["identity-check", "--nu", "1", "--nu2", "2", "--xi", ","],
        ["asym-check", "--nu", "1", "--nu2", "1.5", "--xi", ","],
        _SCAN + ["--n", "0"],
        _SCAN + ["--n=-3"],
    ],
)
def test_report_that_checks_nothing_is_usage_error(argv, capsys):
    # an empty list or no scan points would give a report with no rows, "pass": true
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    captured = capsys.readouterr()
    assert exc_info.value.code == 2
    assert captured.out == "" and "Traceback" not in captured.err


# Exit-code contract: whatever argv holds, main returns 0, 1 or 2, or
# argparse exits with 2; any other exception is a traceback and fails.
_EDGES = [0.0, -1.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]
_TYPICAL = [1e-4, 1e-3, 1e-2, 0.2, 1.0, 1.5]  # reach the checks, not only the refusals
_NUMBERS = st.one_of(st.sampled_from(_EDGES), st.sampled_from(_TYPICAL), st.floats(1e-4, 3.0))
_NUMBER = _NUMBERS.map(repr)
_LIST = st.lists(_NUMBERS, min_size=1, max_size=3).map(lambda xs: ",".join(map(repr, xs)))
_CUTOFFS = st.one_of(_LIST, st.sampled_from(["1e-2", "1e-2,1e-3", "4e-3,2e-3,1e-3"]))


def _opt(name, values, required=True):
    flag = values.map(lambda v: [f"--{name}={v}"])  # "=" lets "-inf" through as a value
    return flag if required else st.one_of(st.just([]), flag)


def _argv(command, *options):
    return st.tuples(st.sampled_from(["json", "csv"]), *options).map(
        lambda t: [command, "--format", t[0]] + [a for opt in t[1:] for a in opt]
    )


_PHI = st.one_of(
    st.just("gaussian:1,0.2"),
    st.tuples(st.sampled_from(["gaussian", "compact"]), _NUMBER, _NUMBER).map(
        lambda t: f"{t[0]}:{t[1]},{t[2]}"
    ),
)
_ARGVS = st.one_of(
    _argv("eval", _opt("nu", _LIST), _opt("x", _LIST)),
    _argv("gamma", _opt("nu", _LIST), _opt("tol", _NUMBER, False)),
    _argv("identity-check", _opt("nu", _NUMBER), _opt("nu2", _NUMBER), _opt("xi", _LIST),
          _opt("tol", _NUMBER, False)),
    _argv("ortho-scan", _opt("nu", _NUMBER), _opt("xi", _NUMBER), _opt("nu2-min", _NUMBER),
          _opt("nu2-max", _NUMBER), _opt("n", st.integers(-1, 4))),
    _argv("delta-test", _opt("nu", _NUMBER), _opt("xi", _CUTOFFS), _opt("phi", _PHI),
          _opt("slack", _NUMBER, False)),
    _argv("asym-check", _opt("nu", _NUMBER), _opt("nu2", _NUMBER), _opt("xi", _CUTOFFS),
          _opt("ratio-band", st.tuples(_NUMBER, _NUMBER).map(",".join), False)),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_ARGVS)
def test_exit_code_contract(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy and quad warnings are not part of the contract
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                return
    assert code in (0, 1, 2), argv
