"""Spans around calls into each library module, recorded from outside it.

`Tracer.install` replaces every public function of the package (and
specfun's tail-integral helper, which entropy calls across the module
boundary) at each module attribute a caller looks it up through, with a
wrapper that records a span: name, start, end, parent.  `uninstall` puts
the originals back; `assert_pristine` checks that nothing is left wrapped.
Spans stay in memory in flat integer columns and are written out once.

A span's self time is its duration minus the durations of its children.
Module self times, plus the benchmark's own share of each op's root span,
add up to the traced op time exactly.
"""

from __future__ import annotations

import math
import sys
import time
import types
import warnings
from array import array

import numpy as np

import unitgompertz
from unitgompertz import orders
from unitgompertz.errors import CancellationWarning

MODULES = ("specfun", "oracle", "distribution", "reliability", "inequality",
           "entropy", "order_stats", "orders", "cli")
ROOT = "bench.op"
_EXTRA = {"specfun": ("_log_sq_tail_scaled",)}  # private, but called across modules
_GAMMA = {"specfun.upper_inc_gamma", "specfun.upper_inc_gamma_scaled",
          "specfun.exp_integral_e1"}
# Regime tags, in the dispatch order documented in specfun's docstring.
REGIMES = ("cf", "series", "e1", "recurrence")
_MARK = "_perfbench_original"
# Spans kept in memory before the traced pass stops early (26 bytes each on disk).
SPAN_CAP = 1_000_000


def _regime(s: float, x: float) -> int:
    if x >= 1.0 and x >= s + 1.0:
        return 1
    if s > 0.0:
        return 2
    if s == 0.0:
        return 3
    return 4


def _package_modules():
    return [unitgompertz] + [sys.modules[f"unitgompertz.{m}"] for m in MODULES]


def _targets() -> dict[int, tuple[types.FunctionType, str]]:
    """id(function) -> (function, span name) for every traced function."""
    out = {}
    for short in MODULES:
        module = sys.modules[f"unitgompertz.{short}"]
        for name, value in vars(module).items():
            if not isinstance(value, types.FunctionType) or value.__module__ != module.__name__:
                continue
            if name.startswith("_") and name not in _EXTRA.get(short, ()):
                continue
            out[id(value)] = (value, f"{short}.{name}")
    return out


def assert_pristine() -> None:
    """Raise unless every package function is the library's own."""
    for module in _package_modules():
        for name, value in vars(module).items():
            if hasattr(value, _MARK):
                raise RuntimeError(f"{module.__name__}.{name} is still wrapped")


class Tracer:
    """Records spans while installed; one per traced pass."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.name_col = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.tag = array("q")  # gamma regime, or quadrature panels
        self.stack = [-1]
        self.cancellations = 0
        self._restore: list[tuple[object, str, object]] = []
        self._saved_showwarning = None

    def full(self) -> bool:
        """True once SPAN_CAP spans are held; the traced pass stops there."""
        return len(self.start) >= SPAN_CAP

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # -- spans ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        names, starts, ends, parents, tags = (
            self.name_col, self.start, self.end, self.parent, self.tag)
        stack, clock = self.stack, time.perf_counter_ns
        nid = self._name_id(name)

        gamma = name in _GAMMA
        panels = name == "oracle.integrate"
        kind_ids = ({k: self._name_id(f"orders.{k}") for k in orders.ORDER_KINDS}
                    if name == "orders.check_order" else None)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(kind_ids[args[0]] if kind_ids else nid)
            parents.append(stack[-1])
            ends.append(0)
            if gamma:  # classified before the call, so calls that raise count too
                tags.append(_regime(0.0, args[0]) if len(args) == 1 else _regime(*args[:2]))
            else:
                tags.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if panels:
                tags[idx] = result.subdivisions
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = fn.__name__
        return wrapper

    def op(self, call, op):
        """Run one op under a root span; returns (output, exception, ns)."""
        idx = len(self.start)
        self.name_col.append(0)
        self.parent.append(-1)
        self.end.append(0)
        self.tag.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            out, exc = call(op), None
        except Exception as e:  # an op that raises is a failed op, not a crash
            out, exc = None, e
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.stack.pop()
        return out, exc, self.end[idx] - self.start[idx]

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in _targets().items()}
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, name, value))
                    setattr(module, name, wrapper)
        self._saved_showwarning = warnings.showwarning
        warnings.simplefilter("always", CancellationWarning)
        warnings.showwarning = self._count_warning

    def uninstall(self) -> None:
        for module, name, value in reversed(self._restore):
            setattr(module, name, value)
        self._restore.clear()
        warnings.showwarning = self._saved_showwarning
        warnings.filters[:] = [f for f in warnings.filters
                               if not (f[0] == "always" and f[2] is CancellationWarning)]

    def _count_warning(self, message, category, *args, **kwargs):
        if issubclass(category, CancellationWarning):
            self.cancellations += 1
        else:
            self._saved_showwarning(message, category, *args, **kwargs)

    # -- output --------------------------------------------------------

    def save(self, path: str) -> None:
        start = np.asarray(self.start)
        np.savez(path, names=np.array(self.names),
                 name=np.asarray(self.name_col).astype(np.uint16),
                 parent=np.asarray(self.parent).astype(np.int32),
                 tag=np.asarray(self.tag).astype(np.int32),
                 start_ns=start - (start[0] if len(start) else 0),
                 duration_ns=np.asarray(self.end) - start)

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics from the recorded spans."""
        name = np.frombuffer(self.name_col, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        tag = np.frombuffer(self.tag, dtype=np.int64)
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = dur - child

        mods = ["bench"] + list(MODULES)
        mod_of_name = np.array([mods.index(n.split(".")[0]) for n in self.names])
        mod = mod_of_name[name]
        parent_mod = np.where(has_parent, mod[np.maximum(parent, 0)], -1)
        entry = parent_mod != mod
        ids = {n: i for i, n in enumerate(self.names)}

        per_op = 1.0 / max(n_ops, 1)
        ms = 1e-6 * per_op
        out: dict[str, tuple[float, str]] = {}

        def by_name(span_name):
            return name == ids.get(span_name, -1)

        for m in MODULES:
            in_mod = mod == mods.index(m)
            if m != "oracle":  # integrate is its only traced entry point; see below
                out[f"{m}.self_ms"] = (float(self_ns[in_mod].sum()) * ms, "ms/op")
            if m not in ("oracle", "orders", "cli"):
                out[f"{m}.calls"] = (float(np.sum(in_mod & entry)) * per_op, "calls/op")

        # specfun regimes: gamma entry calls, classified by (s, x); a call with
        # an oracle.integrate span below it is a quadrature fallback.
        gamma = entry & np.isin(name, [ids[n] for n in _GAMMA if n in ids])
        fallback = np.zeros(len(name), dtype=bool)
        specfun_mod = mods.index("specfun")
        for idx in np.nonzero(by_name("oracle.integrate"))[0]:
            up = parent[idx]
            while up >= 0 and mod[up] == specfun_mod and not entry[up]:
                up = parent[up]
            if up >= 0 and gamma[up]:
                fallback[up] = True
        for code, regime in enumerate(REGIMES, start=1):
            hits = np.sum(gamma & ~fallback & (tag == code))
            out[f"specfun.{regime}.calls"] = (float(hits) * per_op, "calls/op")
        out["specfun.quad_fallback.calls"] = (float(fallback.sum()) * per_op, "calls/op")
        n_gamma = int(gamma.sum())
        out["specfun.fallback_frac"] = (
            float(fallback.sum()) / n_gamma if n_gamma else 0.0, "frac")

        integ = by_name("oracle.integrate")
        out["oracle.integrate.calls"] = (float(integ.sum()) * per_op, "calls/op")
        out["oracle.integrate.panels"] = (float(tag[integ].sum()) * per_op, "panels/op")
        out["oracle.integrate.self_ms"] = (float(self_ns[integ].sum()) * ms, "ms/op")

        out["distribution.sample.ms"] = (float(dur[by_name("distribution.sample")].sum()) * ms, "ms/op")
        for fn in ("mrl", "eit"):
            out[f"reliability.{fn}.calls"] = (
                float(by_name(f"reliability.{fn}").sum()) * per_op, "calls/op")
        out["order_stats.cancellation_fallbacks"] = (self.cancellations * per_op, "count/op")
        for kind in orders.SUITE_ORDER_KINDS:
            out[f"orders.{kind}.ms"] = (float(dur[by_name(f"orders.{kind}")].sum()) * ms, "ms/op")

        root = mod == 0
        out["bench.self_ms"] = (float(self_ns[root].sum()) * ms, "ms/op")
        out["trace.op_ms"] = (float(dur[root].sum()) * ms, "ms/op")
        return out


def overhead_frac(traced_ns: float, plain_ns: float) -> float:
    """Traced op time over untraced op time for the same ops, minus one."""
    return traced_ns / plain_ns - 1.0 if plain_ns > 0 else math.nan
