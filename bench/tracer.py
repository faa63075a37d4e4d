"""Spans around the package's public entry points, installed from outside.

``install`` wraps every public function and every public method (plain,
class- or static-) defined in the named ``mfrn`` modules, then re-points every
``mfrn`` module attribute that still names an original function, so that
``from .fvm import solve_transport`` call sites are traced too.  Nothing in the
package is edited and nothing is wrapped unless a traced run asks for it.

Each call records a span ``(name, start, end, parent, attrs)`` in memory; the
spans are written out once, by ``dump``.  Entry points called several times
per time step (``HOT``) would flood the span list, so they only add to a
per-name call count and inclusive time.  The span stack is not thread-safe;
the benchmark runs its children with ``MFRN_THREADS=1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

HOT = frozenset({
    "core.ControlPath.eval_w",
    "core.ControlPath.eval_b",
    "core.Activation.value",
    "core.Activation.derivative",
    "fvm.DriftSpec.speed",
    "fvm.llf_flux",
})


def _solve_attrs(a: dict) -> dict:
    return {"cells": int(a["f0"].grid.n_cells), "steps": int(a["grid"].n_steps),
            "reversed": bool(a["drift"].time_reversed)}


def _ode_attrs(a: dict) -> dict:
    return {"particles": int(a["ens"].size), "steps": round(a["t_final"] / a["dt"])}


# Call arguments the per-layer metrics need, read through the signature so a
# renamed parameter shows up as a missing metric, not as a wrong one.
ATTRS = {"fvm.solve_transport": _solve_attrs, "particle.ode_integrate": _ode_attrs}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.hot: dict[str, list] = {}
        self.wrapped: list[str] = []

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx, name, t0, parent, attrs) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans[idx] = (name, t0, t1, parent, attrs)

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """A span opened by the benchmark itself, e.g. around one part."""
        attrs = dict(attrs or {})
        hot0 = {k: v[0] for k, v in self.hot.items()}
        idx, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            attrs["hot_calls"] = {k: v[0] - hot0.get(k, 0) for k, v in self.hot.items()}
            self._close(idx, name, t0, parent, attrs)

    def wrap(self, name: str, fn):
        self.wrapped.append(name)
        if name in HOT:
            cell = self.hot.setdefault(name, [0, 0.0])
            clock = time.perf_counter

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cell[0] += 1
                    cell[1] += clock() - t0

            return counted

        extract = ATTRS.get(name)
        sig = inspect.signature(fn) if extract else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            attrs = None
            if extract is not None:
                try:
                    attrs = extract(sig.bind(*args, **kwargs).arguments)
                except (TypeError, KeyError, AttributeError, ValueError):
                    attrs = None
            idx, parent = self._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, t0, parent, attrs)

        return spanned

    def install(self, package: str, layers) -> None:
        replaced = {}
        for layer in layers:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(f"{layer}.{name}", obj)
                    setattr(mod, name, replaced[obj])
                elif inspect.isclass(obj):
                    self._install_methods(obj, f"{layer}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])

    def _install_methods(self, cls, prefix: str) -> None:
        for name, obj in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{prefix}.{name}"
            if inspect.isfunction(obj):
                setattr(cls, name, self.wrap(qual, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, name, type(obj)(self.wrap(qual, obj.__func__)))

    def dump(self, path) -> None:
        """One header line (hot counters, wrapped names), then one span a line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"hot": self.hot, "wrapped": self.wrapped}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def load(path) -> tuple[dict, list[str], list]:
    with open(path) as fh:
        head = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh if line.strip()]
    return head["hot"], head["wrapped"], spans
