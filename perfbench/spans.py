"""Span tracer that wraps qturan entry points from outside the package.

Each wrapped call is one span.  Spans are aggregated per thread, in memory,
while the workload runs, and merged only when ``Tracer.layers`` is read at
the end.  A span's self time is its elapsed time minus the elapsed time of
the spans it encloses on the same thread; its busy time is the same split
taken on the thread CPU clock, and wait is elapsed minus busy.

Targets are resolved by name at install time.  A target that no longer
exists is recorded in ``Tracer.absent`` and its layer reads zero, so the
benchmark keeps running across refactors of the package.  A function is
rebound wherever a qturan module holds it under any name (``from x import
f`` makes a second binding), so callers that imported it by name are
traced too.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

_perf = time.perf_counter
_thread_cpu = time.thread_time


class _ThreadState:
    def __init__(self, is_main: bool):
        self.is_main = is_main
        self.stack = []
        self.layers = {}  # layer -> [calls, self_s, busy_s]
        self.extra = {}  # layer -> dict of counters / samples from hooks
        self.root_elapsed = 0.0
        self.root_cpu = 0.0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []  # (owner, attribute, original)
        self.absent = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.current_thread() is threading.main_thread())
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def _wrap(self, layer, fn, hook):
        state = self._state

        def traced(*args, **kwargs):
            st = state()
            frame = [0.0, 0.0]  # elapsed and CPU of enclosed spans
            st.stack.append(frame)
            t0 = _perf()
            c0 = _thread_cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1 = _thread_cpu()
                t1 = _perf()
                st.stack.pop()
                elapsed = t1 - t0
                cpu = c1 - c0
                agg = st.layers.get(layer)
                if agg is None:
                    agg = st.layers[layer] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed - frame[0]
                agg[2] += cpu - frame[1]
                if st.stack:
                    parent = st.stack[-1]
                    parent[0] += elapsed
                    parent[1] += cpu
                else:
                    st.root_elapsed += elapsed
                    st.root_cpu += cpu
            if hook is not None:
                hook(st.extra.setdefault(layer, {}), result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layer: str, target: str, hook=None) -> None:
        """Trace ``target`` ("module:attr" or "module:Class.attr") as ``layer``."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        traced = self._wrap(layer, original, hook)
        if isinstance(owner, type):
            self._patch(owner, attr, original, traced)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qturan" or mod_name.startswith("qturan.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, original, traced)

    def _patch(self, owner, attr, original, traced):
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layers(self) -> dict:
        """Merged per-layer totals: {layer: {calls, self_s, busy_s, extra}}."""
        out = {}
        for st in self._threads:
            for layer, (calls, self_s, busy_s) in st.layers.items():
                agg = out.setdefault(
                    layer, {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "extra": {}}
                )
                agg["calls"] += calls
                agg["self_s"] += self_s
                agg["busy_s"] += busy_s
            for layer, extra in st.extra.items():
                merged = out.setdefault(
                    layer, {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "extra": {}}
                )["extra"]
                for key, value in extra.items():
                    if isinstance(value, list):
                        merged.setdefault(key, []).extend(value)
                    else:
                        merged[key] = merged.get(key, 0) + value
        return out

    def worker_wait_s(self) -> float:
        """Summed root-span time minus thread CPU on threads other than main."""
        return sum(
            st.root_elapsed - st.root_cpu for st in self._threads if not st.is_main
        )
