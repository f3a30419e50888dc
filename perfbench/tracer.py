"""In-memory span tracer that wraps a package's functions from outside.

Tracer.wrap(module, name) replaces the function wherever the same object is
bound in any module of the package, so both `from .gmm import fit` in one
module and a plain global lookup inside the defining module reach the
wrapper. Each call records a span [name, start, end, parent] on
perf_counter; spans nest on a stack because the engine is single threaded.
Counters and samples are filled by per-function observers. Nothing is
written until dump().
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def sample(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    def wrap(self, module_name: str, func_name: str, observer=None) -> None:
        """Trace module.func under the span name '<module>.<func>'.

        observer(tracer, args, kwargs) runs before the call and may return a
        callable taking the result, which runs after a successful call.
        """
        module = sys.modules[f"{self.package}.{module_name}"]
        target = getattr(module, func_name)
        name_id = len(self.names)
        self.names.append(f"{module_name}.{func_name}")
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(target)
        def traced(*args, **kwargs):
            done = observer(self, args, kwargs) if observer else None
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if done is not None:
                done(result)
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == self.package or mod_name.startswith(self.package + ".")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, attr, traced)
                    self._patched.append((mod, attr, target))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counters": self.counters,
            "samples": self.samples,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
