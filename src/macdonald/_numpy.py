"""numpy as `np`, executed on its first attribute access, so that a scalar call never loads it.

An imported numpy is reused; a missing or blocked one (sys.modules["numpy"] = None) raises
ModuleNotFoundError at import.  Take it as `from ._numpy import np`: an `import numpy`
statement reads its __spec__, which executes it at once."""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")  # None when missing or blocked
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
