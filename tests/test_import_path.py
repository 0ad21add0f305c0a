"""The package runs on numpy and the standard library: scipy is a test dependency only."""

import subprocess
import sys

import pytest

from macdonald import ortho_verify

EVAL = ["eval", "--nu", "1", "--x", "1"]


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
