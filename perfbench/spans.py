"""In-memory spans for the benchmark's traced run.

A span records one call into a layer: name, start, end, parent span
and run id. Spans are kept in memory and written out once, when the run
ends. Layers are timed from outside: `Tracer.wrap` wraps a module's
public function, and `patched` swaps the wrapper into the module for
the duration of one call, so calls the program makes internally (for
example `build_state` calling `collect_input_reductions`) are recorded
as child spans without changing the program.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        # a pool thread the program starts has no open span of its own:
        # its calls belong to the innermost span open on the main thread
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None
        )
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": parent,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[int, float]:
        """Span id → duration minus the part of it that child spans
        cover (children on pool threads may overlap each other, so the
        covered part is the union of their intervals)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered, cur_a, cur_b = 0.0, None, None
            for a, b in sorted(children.get(s["id"], [])):
                a, b = max(a, s["start"]), min(b, s["end"])
                if b <= a:
                    continue
                if cur_b is None or a > cur_b:
                    if cur_b is not None:
                        covered += cur_b - cur_a
                    cur_a, cur_b = a, b
                else:
                    cur_b = max(cur_b, b)
            if cur_b is not None:
                covered += cur_b - cur_a
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def self_total(self, name: str) -> float:
        st = self.self_times()
        return sum(st[s["id"]] for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        st = self.self_times()
        t0 = min((s["start"] for s in self.spans), default=0.0)
        rows = [
            {
                **s,
                "start": s["start"] - t0,
                "end": s["end"] - t0,
                "self": st[s["id"]],
            }
            for s in sorted(self.spans, key=lambda s: s["start"])
        ]
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": rows}, f, indent=1)


@contextlib.contextmanager
def patched(*replacements):
    """Temporarily set `module.attr = value` for each
    (module, attr, value) triple; the originals come back on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
