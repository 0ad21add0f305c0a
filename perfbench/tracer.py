"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` replaces every public function of gamma_core, bessel_im,
ortho_verify and cli, and `ortho_verify.integrate.quad`, by a wrapper that
records one span per call: name, start, end, parent span and op id.  The
wrapper is bound under every name that pointed at the original, in all of
the package's modules, so calls between modules (ortho_verify ->
besselk_imag, bessel_im -> reciprocal_gamma, cli -> weak_limit_test) and
within one (arg_gamma_imag -> log_gamma) are all seen.  Nothing under
src/ is edited.

Spans live in flat arrays in memory and are saved with `save` at the end;
`summarize` turns them into the per-layer metrics.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("gamma_core", "bessel_im", "ortho_verify", "cli")
QUAD = "quad.scipy_integrate_quad"  # as bound in ortho_verify
K_FUNCS = ("bessel_im.besselk_imag", "bessel_im.besselk_dx")
METHOD_TAGS = {"series-combination": 1, "integral-representation": 2}
KERNEL_FUNCS = ("ortho_verify.kernel_boundary", "ortho_verify.kernel_quadrature")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("b")  # method tag of a returned FunctionValue
        # arguments and result of every K call, for the estimate-honesty sample
        self.k_span = array("i")
        self.k_args = array("d")  # nu, x, value, abs_err_estimate per call
        self.op_id = 0
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        start, end, names, parent = self.start, self.end, self.name, self.parent
        ops, tag = self.op, self.tag
        stack = self._stack
        clock = time.perf_counter
        is_k = name in K_FUNCS

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            names.append(nid)
            ops.append(self.op_id)
            tag.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if is_k:
                tag[idx] = METHOD_TAGS.get(result.method, 0)
                self.k_span.append(idx)
                nu = args[0] if args else kwargs["nu"]
                x = args[1] if len(args) > 1 else kwargs["x"]
                self.k_args.extend((abs(float(nu)), float(x), result.value, result.abs_err_estimate))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every loaded layer module of `package`."""
        qualified = (f"{package.__name__}.{layer}" for layer in LAYERS)
        modules = [sys.modules[m] for m in qualified if m in sys.modules]
        holders = [package, *modules]
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            public = [
                (attr, fn)
                for attr, fn in vars(mod).items()
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__
            ]
            for attr, fn in public:
                traced = self.wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)
        ov = sys.modules.get(f"{package.__name__}.ortho_verify")
        if ov is not None:
            ov.integrate = types.SimpleNamespace(quad=self.wrap(QUAD, ov.integrate.quad))

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "tag": np.frombuffer(self.tag, dtype=np.int8),
            "k_span": np.frombuffer(self.k_span, dtype=np.int32),
            "k_args": np.frombuffer(self.k_args, dtype=np.float64).reshape(-1, 4),
        }


def save(path: str, spans: dict) -> None:
    np.savez(path, **spans)


def load(path: str) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def merge(parts: list[dict]) -> dict:
    """Concatenate span sets (one per cold CLI process), re-basing indices and op ids."""
    names = sorted({str(n) for p in parts for n in p["names"]})
    ids = {n: i for i, n in enumerate(names)}
    out = {k: [] for k in ("start", "end", "name", "parent", "op", "tag", "k_span", "k_args")}
    base = 0
    for op_id, p in enumerate(parts):
        remap = np.array([ids[str(n)] for n in p["names"]], dtype=np.int32)
        out["start"].append(p["start"])
        out["end"].append(p["end"])
        out["name"].append(remap[p["name"]] if len(p["name"]) else p["name"])
        out["parent"].append(np.where(p["parent"] >= 0, p["parent"] + base, -1))
        out["op"].append(np.full(len(p["start"]), op_id, dtype=np.int32))
        out["tag"].append(p["tag"])
        out["k_span"].append(p["k_span"] + base)
        out["k_args"].append(p["k_args"].reshape(-1, 4))
        base += len(p["start"])
    merged = {k: np.concatenate(v) if v else np.zeros(0) for k, v in out.items()}
    merged["names"] = np.array(names)
    return merged


def summarize(spans: dict, n_ops: int) -> dict:
    """Per-op counts and self times by layer and by function.

    Self time is a span's duration minus the durations of its direct
    children.  gamma_core.calls counts the spans entered from another layer
    or from the benchmark, so arg_gamma_imag -> log_gamma is one call.
    """
    names = [str(n) for n in spans["names"]]
    layers = [*LAYERS, layer_of(QUAD)]
    name = spans["name"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    layer_ids = np.array([layers.index(layer_of(nm)) for nm in names], dtype=np.int64)
    span_layer = layer_ids[name] if names else name
    parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
    per_op = 1.0 / max(n_ops, 1)

    def count(func: str) -> float:
        return float(np.sum(name == names.index(func))) * per_op if func in names else 0.0

    out = {}
    for i, layer in enumerate(layers):
        out[f"{layer}.self_s"] = float(self_time[span_layer == i].sum()) * per_op
    gamma = layers.index("gamma_core")
    out["gamma_core.calls"] = float(np.sum((span_layer == gamma) & (parent_layer != gamma))) * per_op

    k_mask = np.isin(name, [names.index(f) for f in K_FUNCS if f in names])
    for label, tag in (("series", 1), ("integral", 2)):
        mask = k_mask & (spans["tag"] == tag)
        out[f"bessel_im.{label}_calls"] = float(mask.sum()) * per_op
        out[f"bessel_im.{label}_us_per_call"] = float(dur[mask].mean()) * 1e6 if mask.any() else 0.0
    out["bessel_im.k_calls"] = float(k_mask.sum()) * per_op

    kernels = sum(count(f) for f in KERNEL_FUNCS)
    from_kernels = np.isin(parent_layer, [layers.index("ortho_verify"), layers.index(layer_of(QUAD))])
    k_for_kernels = float(np.sum(k_mask & from_kernels))
    out["ortho_verify.k_calls_per_kernel"] = k_for_kernels * per_op / kernels if kernels else 0.0
    out["ortho_verify.boundary_calls"] = count("ortho_verify.kernel_boundary")
    out["ortho_verify.quadrature_calls"] = count("ortho_verify.kernel_quadrature")
    out["ortho_verify.diagonal_calls"] = count("ortho_verify.diagonal_limit")
    out["ortho_verify.quad_calls"] = count(QUAD)
    return out
