"""Batch command-line front end.

Subcommands map one-to-one onto library operations and emit
machine-readable reports (JSON or CSV) on standard output.  Exit codes:
0 all checks passed, 1 a check failed or a reported number is not
finite, 2 usage or domain error.  Numeric fields are serialized with 17
significant digits so binary64 values round-trip.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Any, Sequence

from . import __version__
from .bessel_im import besselk_imag
from .errors import MacdonaldError
from .gamma_core import abs_gamma_imag, arg_gamma_imag, log_gamma
from .ortho_verify import (
    PairSpec,
    TestFunctionSpec,
    asymptotic_envelope,
    diagonal_limit,
    kernel_boundary,
    kernel_quadrature,
    weak_limit_test,
)

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2


def _fmt(x: Any) -> Any:
    """Serialize floats with 17 significant digits (binary64 round-trip)."""
    if isinstance(x, bool) or not isinstance(x, float):
        return x
    return float(f"{x:.17g}")


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from exc
    if not values:  # a report with no rows would check nothing
        raise argparse.ArgumentTypeError(f"empty numeric list {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
    if n <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _ratio_band(text: str) -> list[float]:
    band = _float_list(text)
    if not (len(band) == 2 and all(map(math.isfinite, band)) and 0.0 < band[0] <= band[1]):
        raise argparse.ArgumentTypeError(
            f"bad ratio band {text!r}; expected two finite values lo,hi with 0 < lo <= hi"
        )
    return band


def _parse_phi(text: str) -> TestFunctionSpec:
    kinds = {"gaussian": "gaussian-bump", "compact": "smooth-compact-bump"}
    try:
        name, params = text.split(":", 1)
        center, width = (float(t) for t in params.split(","))
        kind = kinds[name]
    except (ValueError, KeyError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad test function {text!r}; expected e.g. gaussian:1,0.2"
        ) from exc
    return TestFunctionSpec(kind=kind, center=center, width=width)


def _emit(command: str, parameters: dict, rows: list[dict], passed: bool, fmt: str) -> None:
    if fmt == "json":
        doc = {
            "command": command,
            "parameters": {k: _fmt(v) for k, v in parameters.items()},
            "rows": [{k: _fmt(v) for k, v in row.items()} for row in rows],
            "pass": passed,
        }
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: (f"{v:.17g}" if isinstance(v, float) else v) for k, v in row.items()})
    sys.stdout.write(buf.getvalue())


def _cmd_eval(args) -> tuple[list[dict], bool]:
    rows = []
    for nu in sorted(args.nu):
        for x in sorted(args.x):
            fv = besselk_imag(nu, x)
            rows.append(
                {
                    "nu": nu,
                    "x": x,
                    "value": fv.value,
                    "abs_err_estimate": fv.abs_err_estimate,
                    "method": fv.method,
                }
            )
    return rows, True


def _cmd_gamma(args) -> tuple[list[dict], bool]:
    rows = []
    for nu in sorted(args.nu):
        ge = log_gamma(complex(0.0, nu))
        closed = abs_gamma_imag(nu)
        diff = abs(math.exp(ge.log_modulus) - closed) / closed
        rows.append(
            {
                "nu": nu,
                "abs_gamma": closed,
                "arg_gamma": arg_gamma_imag(nu),
                "log_modulus": ge.log_modulus,
                "cross_check_rel_diff": diff,
                "pass": diff <= args.tol,
            }
        )
    return rows, all(row["pass"] for row in rows)


def _cmd_identity_check(args) -> tuple[list[dict], bool]:
    rows = []
    for xi in sorted(args.xi):
        pair = PairSpec(args.nu, args.nu2, xi)
        b = kernel_boundary(pair)
        q = kernel_quadrature(pair)
        diff = abs(b.value - q.value)
        allowed = args.tol + args.tol * abs(b.value)
        rows.append(
            {
                "nu": args.nu,
                "nu2": args.nu2,
                "xi": xi,
                "boundary": b.value,
                "quadrature": q.value,
                "abs_diff": diff,
                "allowed": allowed,
                "pass": diff <= allowed,
            }
        )
    return rows, all(row["pass"] for row in rows)


def _cmd_ortho_scan(args) -> tuple[list[dict], bool]:
    rows = []
    n = args.n
    for i in range(n):
        nu2 = args.nu2_min + (args.nu2_max - args.nu2_min) * i / max(n - 1, 1)
        if abs(nu2 - args.nu) < 1e-6:
            value = diagonal_limit(args.nu, args.xi)
            method = "diagonal-limit"
        else:
            value = kernel_boundary(PairSpec(args.nu, nu2, args.xi)).value
            method = "boundary-term"
        rows.append({"nu": args.nu, "nu2": nu2, "xi": args.xi, "value": value, "method": method})
    return rows, True


def _cmd_delta_test(args) -> tuple[list[dict], bool]:
    report = weak_limit_test(args.nu, args.xi, args.phi)
    rows = []
    for xi, a, s, e in zip(
        report.xi_sequence, report.a_sequence, report.smeared_values, report.errors
    ):
        rows.append(
            {
                "kind": "weak-limit",
                "nu": report.nu,
                "xi": xi,
                "a": a,
                "smeared": s,
                "target": report.target,
                "abs_error": e,
                "rel_error": e / abs(report.target),
            }
        )
    # errors must decrease along the sequence; tolerate one small
    # oscillatory backstep below the slack fraction.  One cutoff has no
    # error to fall, so it checks nothing and does not pass.
    backsteps = [
        later / earlier - 1.0
        for earlier, later in zip(report.errors, report.errors[1:])
        if later > earlier
    ]
    ok = len(report.errors) > 1 and len(backsteps) <= 1 and all(b < args.slack for b in backsteps)
    rows.append(
        {
            "kind": "reflected-bound",
            "nu": report.nu,
            "xi": min(report.xi_sequence),
            "a": max(report.a_sequence),
            "smeared": report.reflected_term_bound,
            "target": report.target,
            "abs_error": report.reflected_term_bound,
            "rel_error": report.reflected_term_bound / abs(report.target),
        }
    )
    return rows, ok


def _cmd_asym_check(args) -> tuple[list[dict], bool]:
    lo, hi = args.ratio_band
    xis = sorted(args.xi, reverse=True)
    envs = [asymptotic_envelope(args.nu, args.nu2, xi) for xi in xis]
    rows = []
    for i, (xi, env) in enumerate(zip(xis, envs)):
        ratio = envs[i - 1] / env if i > 0 else None
        row_ok = True
        if ratio is not None:
            # halving xi should shrink the envelope ~4x; rescale other steps
            step = xis[i - 1] / xi
            expected = step * step
            row_ok = lo <= ratio / expected <= hi
        rows.append(
            {
                "nu": args.nu,
                "nu2": args.nu2,
                "xi": xi,
                "envelope": env,
                "ratio_from_previous": ratio,
                "pass": row_ok,
            }
        )
    # one cutoff has no ratio to check, so it does not pass
    return rows, len(rows) > 1 and all(row["pass"] for row in rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macdonald",
        description=(
            "Evaluate Macdonald functions of imaginary order and run the "
            "orthogonality identity and convergence checks."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("eval", help="evaluate K_{i nu}(x) on a (nu, x) grid")
    p.add_argument("--nu", type=_float_list, required=True, help="comma-separated orders")
    p.add_argument("--x", type=_float_list, required=True, help="comma-separated abscissas")
    add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gamma", help="|Gamma(i nu)| and arg Gamma(i nu) with cross-check")
    p.add_argument("--nu", type=_float_list, required=True)
    p.add_argument("--tol", type=float, default=1e-12, help="cross-check tolerance (default 1e-12)")
    add_common(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser(
        "identity-check", help="boundary-term vs quadrature for the truncated integral"
    )
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--nu2", type=float, required=True)
    p.add_argument("--xi", type=_float_list, required=True)
    p.add_argument("--tol", type=float, default=1e-8, help="agreement tolerance (default 1e-8)")
    add_common(p)
    p.set_defaults(func=_cmd_identity_check)

    p = sub.add_parser("ortho-scan", help="scan the truncated kernel over a nu' grid")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--nu2-min", type=float, required=True)
    p.add_argument("--nu2-max", type=float, required=True)
    p.add_argument("--n", type=_positive_int, default=101)
    add_common(p)
    p.set_defaults(func=_cmd_ortho_scan)

    p = sub.add_parser("delta-test", help="smeared weak-limit convergence study")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--xi", type=_float_list, required=True, help="decreasing cutoffs")
    p.add_argument("--phi", type=_parse_phi, required=True, help="e.g. gaussian:1,0.2")
    p.add_argument(
        "--slack", type=float, default=0.1, help="allowed fraction for one non-monotone step"
    )
    add_common(p)
    p.set_defaults(func=_cmd_delta_test)

    p = sub.add_parser("asym-check", help="xi^2 shrinkage of the sinc-form discrepancy")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--nu2", type=float, required=True)
    p.add_argument("--xi", type=_float_list, required=True)
    p.add_argument(
        "--ratio-band",
        type=_ratio_band,
        default=[0.75, 1.25],
        help="accepted band for ratio/expected (default 0.75,1.25)",
    )
    add_common(p)
    p.set_defaults(func=_cmd_asym_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rows, ok = args.func(args)
    except MacdonaldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "func", "format")}
    if "phi" in parameters:  # the one parameter that is not a number, a list or a string
        parameters["phi"] = f"{args.phi.kind}:{args.phi.center},{args.phi.width}"
    for row in rows:
        # a report that holds a non-finite number is no pass, whatever its check said
        if not all(math.isfinite(v) for v in row.values() if isinstance(v, float)):
            ok = False
            if "pass" in row:
                row["pass"] = False
    _emit(args.command, parameters, rows, ok, args.format)
    return EXIT_PASS if ok else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
