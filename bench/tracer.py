"""Spans around dynheights' public functions, installed from outside the package.

Each named function is wrapped once, and every attribute of every loaded
dynheights module (the package re-exports included) that holds the same
function object is rebound to the wrapper, so calls between modules are
seen too.  A function that a version of the package no longer has is
reported as absent and its metrics read 0.

Spans (name, start, end, parent) are kept in memory and written out at the
end.  Self time is a span's duration minus the time covered by its traced
children, accumulated on a stack as spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from fractions import Fraction

#: (module, function) pairs that get spans, in report order
TRACED = (
    ("arith", "prime_factors_abs"),
    ("arith", "bareiss_det"),
    ("maps_core", "conjugate"),
    ("maps_core", "apply_map"),
    ("reduction", "ord_res_at"),
    ("reduction", "minimal_resultant_ord"),
    ("reduction", "bad_places"),
    ("reduction", "h_res"),
    ("local_heights", "step_error_constants"),
    ("local_heights", "hom_local_height"),
    ("local_heights", "green_pairing"),
    ("canonical", "canonical_height"),
    ("census", "orbit"),
    ("census", "energy_sum"),
    ("census", "small_height_census"),
    ("cli", "main"),
)


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in TRACED]
        self.absent = []
        self.calls = [0] * len(TRACED)
        self.incl = [0.0] * len(TRACED)
        self.self_s = [0.0] * len(TRACED)
        self.spans = []  # (name index, start, end, parent span index or -1)
        self._stack = []  # [span index, child time] of open spans
        self.arch_calls = 0
        self.padic_calls = 0
        self.height_keys = set()
        self.descent_drop = 0

    def install(self) -> None:
        importlib.import_module("dynheights.cli")  # loads every module
        modules = [
            m for n, m in sys.modules.items() if n == "dynheights" or n.startswith("dynheights.")
        ]
        for k, (mod_name, fn_name) in enumerate(TRACED):
            mod = sys.modules.get(f"dynheights.{mod_name}")
            orig = getattr(mod, fn_name, None) if mod is not None else None
            if orig is None:
                self.absent.append(self.names[k])
                continue
            wrapper = self._wrap(k, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)

    def _wrap(self, k, fn):
        name = self.names[k]
        observe = {
            "local_heights.hom_local_height": self._observe_height,
            "reduction.minimal_resultant_ord": self._observe_descent,
        }.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                spans[idx] = (k, t0, t1, parent[0] if parent is not None else -1)
                self.calls[k] += 1
                self.incl[k] += dur
                self.self_s[k] += dur - frame[1]
            if observe is not None:
                observe(sig.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def _observe_height(self, arguments, out):
        """Arguments as named in hom_local_height(F, xt, v, n_iter)."""
        F, xt, v = arguments["F"], arguments["xt"], arguments["v"]
        if v.prime is None:
            self.arch_calls += 1
        else:
            self.padic_calls += 1
        key = (F.coefficient_vector(), Fraction(xt[0]), Fraction(xt[1]), v.prime,
               arguments.get("n_iter"))
        self.height_keys.add(key)

    def _observe_descent(self, arguments, out):
        self.descent_drop += out.ord_start - out.ord_min

    def report(self) -> dict:
        """Per-layer totals over everything traced so far."""
        calls = dict(zip(self.names, self.calls))
        selfs = dict(zip(self.names, self.self_s))
        incl = dict(zip(self.names, self.incl))
        evals = calls["reduction.ord_res_at"]
        h_calls = calls["local_heights.hom_local_height"]
        metrics = {
            "maps_core.conjugate.calls": (calls["maps_core.conjugate"], "count"),
            "maps_core.conjugate.self_s": (selfs["maps_core.conjugate"], "s"),
            "maps_core.apply_map.calls": (calls["maps_core.apply_map"], "count"),
            "reduction.ord_res_at.calls": (evals, "count"),
            "reduction.descent.drop_per_eval": (
                self.descent_drop / evals if evals else 0.0, "ratio"),
            "reduction.minimal_resultant_ord.incl_s": (
                incl["reduction.minimal_resultant_ord"], "s"),
            "reduction.h_res.incl_s": (incl["reduction.h_res"], "s"),
            "local_heights.hom_local_height.calls_arch": (self.arch_calls, "count"),
            "local_heights.hom_local_height.calls_padic": (self.padic_calls, "count"),
            "local_heights.hom_local_height.self_s": (
                selfs["local_heights.hom_local_height"], "s"),
            "local_heights.hom_local_height.distinct_share": (
                len(self.height_keys) / h_calls if h_calls else 0.0, "ratio"),
            "local_heights.step_error_constants.calls": (
                calls["local_heights.step_error_constants"], "count"),
            "local_heights.step_error_constants.incl_s": (
                incl["local_heights.step_error_constants"], "s"),
            "local_heights.green_pairing.calls": (calls["local_heights.green_pairing"], "count"),
            "arith.prime_factors_abs.calls": (calls["arith.prime_factors_abs"], "count"),
            "arith.prime_factors_abs.self_s": (selfs["arith.prime_factors_abs"], "s"),
            "arith.bareiss_det.calls": (calls["arith.bareiss_det"], "count"),
            "canonical.canonical_height.incl_s": (incl["canonical.canonical_height"], "s"),
            "census.orbit.incl_s": (incl["census.orbit"], "s"),
            "census.energy_sum.incl_s": (incl["census.energy_sum"], "s"),
            "census.small_height_census.incl_s": (incl["census.small_height_census"], "s"),
            "cli.main.self_s": (selfs["cli.main"], "s"),
        }
        return {"absent": self.absent, "spans": len(self.spans), "metrics": metrics}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names}, fh)
            fh.write("\n")
            for k, t0, t1, parent in self.spans:
                fh.write(f"{k} {t0:.9f} {t1:.9f} {parent}\n")
