"""What the package loads, and what it computes in.

scipy is a test dependency only.  numpy is loaded on first use, through
the lazy handle `macdonald._numpy`: `import macdonald`, `import
macdonald.cli`, `gamma` and a series-path `eval` run on the standard library
alone, and no `numpy.*` module is loaded until an array form is first
called.  Whether numpy was loaded before the package or not, every
subcommand prints the same bytes, and the scalar/array dispatch of
`_x_switch` and `_arg_gamma_one_plus_imag` keeps each input type on its
branch.  A numpy scalar argument is computed in binary64, as the Python
float of its value is.
"""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import macdonald
from macdonald import PairSpec, TestFunctionSpec, ortho_verify
from macdonald.bessel_im import _x_switch
from macdonald.gamma_core import _arg_gamma_one_plus_imag

EVAL = ["eval", "--nu", "1", "--x", "1"]
# one small run of each subcommand; the second eval point takes the integral path
SUBCOMMANDS = [
    ["eval", "--nu", "0.5,1.3", "--x", "0.7,6.5"],
    ["gamma", "--nu", "0.3,2.5,17"],
    ["identity-check", "--nu", "1.2", "--nu2", "1.6", "--xi", "0.01"],
    ["ortho-scan", "--nu", "1.2", "--xi", "0.01", "--nu2-min", "0.6", "--nu2-max", "1.8", "--n", "5"],
    ["delta-test", "--nu", "1", "--xi", "0.01,0.001", "--phi", "gaussian:1,0.2"],
    ["asym-check", "--nu", "1", "--nu2", "1.5", "--xi", "0.01,0.005"],
]
RUN_MAIN = "from macdonald.cli import main; sys.exit(main(sys.argv[1:]))"


def numpy_modules_code(*steps: str) -> str:
    """Python code that runs each step and prints the numpy.* modules loaded after it, one JSON line each."""
    report = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy.'))))"
    return "import contextlib, io, json, sys\n" + "".join(f"{step}\n{report}\n" for step in steps)


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, macdonald.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_eval_runs_with_scipy_blocked():
    blocked = (
        "import sys; sys.modules['scipy'] = None; "  # any import of scipy now raises ImportError
        "from macdonald.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    normal = subprocess.run([sys.executable, "-m", "macdonald.cli", *EVAL], capture_output=True)
    without = subprocess.run([sys.executable, "-c", blocked, *EVAL], capture_output=True)
    assert without.returncode == normal.returncode == 0, without.stderr
    assert without.stdout == normal.stdout and normal.stdout


def test_integrate_resolves_on_first_access():
    # perfbench/tracer.py rebinds ortho_verify.integrate.quad
    from scipy import integrate

    assert ortho_verify.integrate is integrate
    with pytest.raises(AttributeError):
        ortho_verify.no_such_name


def test_import_gamma_and_series_eval_load_no_numpy():
    quiet = "with contextlib.redirect_stdout(io.StringIO()): assert main({}) == 0"
    code = numpy_modules_code(
        "import macdonald",
        "import macdonald.cli; from macdonald.cli import main",
        quiet.format(["gamma", "--nu", "0.3,2.5,17"]),
        quiet.format(EVAL),  # x <= max(2, nu): the series path
        quiet.format(["eval", "--nu", "1", "--x", "6.5"]),  # the integral path takes numpy
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    *scalar, integral = (json.loads(line) for line in run.stdout.splitlines())
    assert scalar == [[], [], [], []]
    assert integral


def test_import_fails_with_numpy_blocked():
    code = "import sys; sys.modules['numpy'] = None; import macdonald"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 1 and "ModuleNotFoundError" in run.stderr


def test_numpy_handle_is_numpy():
    from macdonald._numpy import np as handle

    assert handle is np and handle.ndarray is np.ndarray


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=[argv[0] for argv in SUBCOMMANDS])
def test_stdout_same_with_numpy_loaded_first(argv):
    lazy = subprocess.run([sys.executable, "-m", "macdonald.cli", *argv], capture_output=True)
    eager = subprocess.run(
        [sys.executable, "-c", f"import sys, numpy; {RUN_MAIN}", *argv], capture_output=True
    )
    assert lazy.returncode == eager.returncode == 0, lazy.stderr + eager.stderr
    assert lazy.stdout == eager.stdout and lazy.stdout.startswith(b"{")


# What each dispatch returned before numpy became lazy, at orders 1, 7 and 45 (below, between
# and above the clamps of _x_switch): the result's type per input type, and the values.
KINDS = {"int": int, "float64": np.float64, "float32": np.float32, "int64": np.int64, "0-d": np.array}
SWITCH_TYPES = {
    "int": ("float", "int", "float"),
    "float64": ("float", "float64", "float"),
    "float32": ("float", "float32", "float"),
    "int64": ("float", "int64", "float"),
    "0-d": ("float64", "float64", "float64"),
}
ARG_GAMMA_1_7_45 = ("-0x1.34e1333e40878p-2", "0x1.d945535a19d18p+2", "0x1.fc555be235693p+6")


@pytest.mark.parametrize("kind", KINDS)
def test_dispatch_keeps_each_type_on_its_branch(kind):
    args = [KINDS[kind](v) for v in (1, 7, 45)]
    switch = [_x_switch(a) for a in args]
    assert [type(s).__name__ for s in switch] == list(SWITCH_TYPES[kind])
    assert [float(s) for s in switch] == [2.0, 7.0, 30.0]
    phase = [_arg_gamma_one_plus_imag(a) for a in args]
    want = "ndarray" if kind == "0-d" else "float"
    assert all(type(p).__name__ == want and np.ndim(p) == 0 for p in phase)
    assert tuple(float(p).hex() for p in phase) == ARG_GAMMA_1_7_45


def bits(obj):
    """obj with every number replaced by its type name and exact bits, dataclasses by their fields."""
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, [bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    if isinstance(obj, (tuple, list)):
        return type(obj).__name__, [bits(v) for v in obj]
    if isinstance(obj, complex):
        return type(obj).__name__, obj.real.hex(), obj.imag.hex()
    if isinstance(obj, float):
        return type(obj).__name__, obj.hex()
    return obj if isinstance(obj, str) else (type(obj).__name__, repr(obj))  # a numpy scalar


PHI = TestFunctionSpec
# every public scalar function, as a function of its float arguments, at a point of its domain
SCALAR_CALLS = {
    "log_gamma": (macdonald.log_gamma, (0.7,)),
    "reciprocal_gamma": (macdonald.reciprocal_gamma, (0.7,)),
    "abs_gamma_imag": (macdonald.abs_gamma_imag, (1.3,)),
    "arg_gamma_imag": (macdonald.arg_gamma_imag, (1.3,)),
    "besseli_imag": (macdonald.besseli_imag, (1.3, 0.7)),
    "besselk_imag": (macdonald.besselk_imag, (1.3, 0.7)),
    "besselk_imag-integral": (macdonald.besselk_imag, (1.3, 6.5)),
    "besselk_dx": (macdonald.besselk_dx, (1.3, 0.7)),
    "besselk_smallx_approx": (macdonald.besselk_smallx_approx, (1.3, 0.7)),
    "besselk_largex_approx": (macdonald.besselk_largex_approx, (1.3, 6.5)),
    "combination_imag_residue": (macdonald.combination_imag_residue, (1.3, 0.7)),
    "ode_residual": (macdonald.ode_residual, (1.3, 0.7)),
    "ode_residual-I": (lambda nu, x: macdonald.ode_residual(nu, x, "I"), (1.3, 0.7)),
    "smallx_error_envelope": (macdonald.smallx_error_envelope, (1.3, 0.01)),
    "kernel_boundary": (lambda *a: macdonald.kernel_boundary(PairSpec(*a)), (1.3, 1.7, 0.01)),
    "kernel_quadrature": (lambda *a: macdonald.kernel_quadrature(PairSpec(*a)), (1.3, 1.7, 0.5)),
    "kernel_asymptotic": (lambda *a: macdonald.kernel_asymptotic(PairSpec(*a)), (1.3, 1.7, 0.01)),
    "kl_weight": (macdonald.kl_weight, (1.3,)),
    "phase_function": (macdonald.phase_function, (1.3, 0.2)),
    "delta_model": (macdonald.delta_model, (3.0, 0.2)),
    "delta_model-f": (lambda a, eta: macdonald.delta_model(a, eta, lambda e: 0.1 * e), (3.0, 0.2)),
    "diagonal_limit": (macdonald.diagonal_limit, (1.3, 0.01)),
    "weak_limit_test": (
        lambda nu, xi1, xi2, c, w: macdonald.weak_limit_test(nu, (xi1, xi2), PHI("gaussian-bump", c, w)),
        (1.3, 0.01, 0.005, 1.3, 0.2),
    ),
    "asymptotic_envelope": (macdonald.asymptotic_envelope, (1.3, 1.7, 0.01)),
    "TestFunctionSpec": (lambda v: PHI("smooth-compact-bump", 1.0, 0.5)(v), (1.3,)),
}


@pytest.mark.parametrize("name", SCALAR_CALLS)
def test_float32_argument_computes_as_its_float(name):
    fn, point = SCALAR_CALLS[name]
    for i in range(len(point)):
        single = np.float32(point[i])
        given = fn(*point[:i], single, *point[i + 1 :])
        as_float = fn(*point[:i], float(single), *point[i + 1 :])
        assert bits(given) == bits(as_float), f"argument {i}"
