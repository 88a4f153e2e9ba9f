"""Span recording around levybarrier's public functions, installed from outside.

``install`` rebinds every public function of the traced modules, in every
``levybarrier`` module that holds a reference to it, to a wrapper that
records a span ``[name, start, end, parent, attrs]``.  It also wraps
``JumpSpec.sample`` and the callables of the CostSpecs that the CLI's
``builtin_cost`` returns.  Spans stay in memory (``Recorder.spans``) until
the caller writes them out.  Calls must stay in one process: traced runs
use one worker.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time

import numpy as np

from metrics import LAYERS

_COST_FIELDS = {
    "f": "cost_model.f",
    "f_prime_plus": "cost_model.fprime",
    "f_prime_minus": "cost_model.fprime_minus",
    "f_double_prime": "cost_model.fsecond",
}


class Recorder:
    """In-memory span list with a call stack giving each span its parent."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, kwargs, result)`` adds counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced


def _arguments(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _attr_makers(fn, name):
    """Counts recorded per call, for the functions the per-layer metrics read."""
    bound = _arguments(fn)
    if name == "map_reduce_paths":
        def attrs(a, k, r):
            cfg = bound(a, k)["cfg"]
            return {"n_paths": cfg.n_paths, "n_steps": cfg.n_steps}
    elif name == "reflect_arrays":
        def attrs(a, k, r):
            return {"elems": int(np.size(bound(a, k)["values"]))}
    elif name == "sample_sup_at_exp_time":
        def attrs(a, k, r):
            return {"samples": bound(a, k)["cfg"].n_paths, "rejection_rate": float(r[1])}
    elif name == "solve_barrier":
        def attrs(a, k, r):
            return {"n_paths": bound(a, k)["cfg"].n_paths, "iterations": r.iterations}
    else:
        return None
    return attrs


def _evals(args, kwargs, result):
    return {"evals": int(np.size(args[0]))}


def _timed_cost(rec: Recorder, spec):
    fields = {
        field: rec.wrap(name, getattr(spec, field), _evals)
        for field, name in _COST_FIELDS.items()
        if getattr(spec, field) is not None
    }
    return dataclasses.replace(spec, **fields)


def install(rec: Recorder) -> None:
    """Route the public functions of every traced layer through ``rec``."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"levybarrier.{layer}")
        names = getattr(mod, "__all__", None) or ["main"]
        for name in names:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrapped[obj] = rec.wrap(f"{layer}.{name}", obj, _attr_makers(obj, name))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "levybarrier" and not mod_name.startswith("levybarrier."):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])

    levy_model = sys.modules["levybarrier.levy_model"]
    jump_spec = levy_model.JumpSpec
    jump_spec.sample = rec.wrap(
        "levy_model.jump_sample", jump_spec.sample, lambda a, k, r: {"size": int(a[2])}
    )

    cli = sys.modules["levybarrier.cli"]
    build = cli.builtin_cost
    cli.builtin_cost = functools.wraps(build)(lambda *a, **k: _timed_cost(rec, build(*a, **k)))
