"""Span tracer that wraps nullvar's public functions from outside the package.

Every traced function is replaced at every place that holds a reference to
it: the defining module, every module that copied it with ``from .x import
y``, module-level dispatch tables such as ``exterior._OPS``, and the class
that owns a method.  Patching only ``linalg.rref`` would miss the copies in
``algebra``, ``exterior`` and the rest, and a missed copy reads as "0 s".

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out once at the end of the run; all spans of one run share the
tracer's run id.  Self time (span time minus the time covered by child
spans), call counts and inclusive totals are aggregated as spans close.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        # (parent name id, child name id) -> direct child span count
        self.child_calls: dict[tuple[int, int], int] = {}
        self.counters: dict[str, float] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [span index, name id, time covered by child spans]
        self._stack: list[list] = []
        self._t0 = time.perf_counter()

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, name: str, fn, observe=None):
        """Traced copy of ``fn``; ``observe(args, result)`` runs after the span closes."""
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_s, total_s, child_calls = self.calls, self.self_s, self.total_s, self.child_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                key = (parent[1], nid)
                child_calls[key] = child_calls.get(key, 0) + 1
                parent_index = parent[0]
            else:
                parent_index = -1
            index = len(span_name)
            span_name.append(nid)
            span_parent.append(parent_index)
            span_end.append(0.0)
            frame = [index, nid, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[index] = end
                dur = end - start
                calls[nid] += 1
                total_s[nid] += dur
                self_s[nid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    # -- patching -----------------------------------------------------------

    def patch_function(self, name: str, module, attr: str, observe=None) -> None:
        """Wrap ``module.attr`` and rebind every reference to it in the package."""
        original = getattr(module, attr)
        _rebind(original, self.wrap(name, original, observe), module.__name__.split(".")[0])

    def patch_method(self, name: str, cls, attr: str, observe=None) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], observe))

    # -- results ------------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        out = {}
        for nid, name in enumerate(self.names):
            out[name] = {"calls": self.calls[nid], "self_s": self.self_s[nid], "total_s": self.total_s[nid]}
        return out

    def direct_children(self, parent: str, child: str) -> int:
        ids = {name: nid for nid, name in enumerate(self.names)}
        return self.child_calls.get((ids[parent], ids[child]), 0)

    def write_spans(self, path) -> None:
        """Write every span as parallel arrays; times are seconds from tracer start."""
        t0 = self._t0
        payload = {
            "run_id": self.run_id,
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": [round(t - t0, 7) for t in self.span_start],
            "end": [round(t - t0, 7) for t in self.span_end],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _rebind(original, wrapper, package: str) -> None:
    """Replace ``original`` by ``wrapper`` in every module of ``package``.

    Covers module globals and one level of module-level dicts whose values
    are the function or tuples holding it (dispatch tables).
    """
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper
                    elif isinstance(v, tuple) and any(x is original for x in v):
                        value[k] = tuple(wrapper if x is original else x for x in v)
