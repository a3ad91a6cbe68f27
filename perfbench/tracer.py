"""In-process span tracer for fogsched, installed from outside the package.

The tracer wraps named functions of the fogsched modules and records one
span per call: (span id, parent span id, name, start, end, info).  A
function imported by name into another module (``from .schedule import
_core_eval``) is a separate binding there, so every loaded ``fogsched``
module whose attribute is the original object is rebound; classes are traced
by wrapping ``__init__`` on the class itself.  Spans stay in memory until the
run ends; ``restore`` puts every original binding back.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter


class Tracer:
    def __init__(self):
        # span: [id, parent, name, start, end, info]
        self.spans: list[list] = []
        self._stack: list[int] = [0]
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        span = [len(self.spans) + 1, self._stack[-1], name, _now(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _exit(self, span: list) -> None:
        span[4] = _now()
        self._stack.pop()

    def wrap(self, fn, name: str, info=None, call=None):
        """Wrap `fn` so each call records a span named `name`.

        `info(args, kwargs, result)` may store a small value on the span;
        `call(fn, span, args, kwargs)` replaces the plain call when the
        wrapper has to pass extra arguments or inspect an exception.
        """
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._enter(name)
            try:
                if call is not None:
                    result = call(fn, span, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
                if info is not None:
                    span[5] = info(args, kwargs, result)
                return result
            finally:
                tracer._exit(span)

        return traced

    # -- installing --------------------------------------------------------

    def trace_function(self, module, attr: str, name: str, info=None, call=None) -> None:
        """Rebind `module.attr` in every loaded fogsched module that holds it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self.wrap(original, name, info=info, call=call)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fogsched" or mod_name.startswith("fogsched.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def trace_init(self, cls, name: str, info=None) -> None:
        """Record a span for each construction of `cls` (info sees `self`)."""
        original = cls.__dict__["__init__"]
        tracer = self

        def traced_init(obj, *args, **kwargs):
            span = tracer._enter(name)
            try:
                original(obj, *args, **kwargs)
                if info is not None:
                    span[5] = info(obj)
            finally:
                tracer._exit(span)

        self._saved.append((cls, "__init__", original))
        cls.__init__ = traced_init

    def restore(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- reading -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds).

        Self time is the span's duration minus the durations of its direct
        children, which lie inside it because spans nest by construction.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s[1]:
                child_time[s[1]] += s[4] - s[3]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            d = s[4] - s[3]
            agg = out[s[2]]
            agg[0] += 1
            agg[1] += d
            agg[2] += d - child_time[s[0]]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, info in self.spans:
                rec = {"id": sid, "parent": parent, "name": name,
                       "start": start - t0, "end": end - t0}
                if info is not None:
                    rec["info"] = info
                fh.write(json.dumps(rec) + "\n")
