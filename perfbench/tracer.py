"""In-memory span tracer that wraps piobs functions from the outside.

``Tracer.install`` replaces every public function of the traced piobs
modules with a recording wrapper, in *every* piobs module that binds it (the
package namespace re-exports most of them, ``sim`` imports
``augmented_matrix`` from ``design``, and so on), and only in the current
process. A span is ``[name, start, end, parent, op]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``op`` the operation id
the workload set. Recursive calls of one function (``dumps_doc``) collapse
into their outermost span, and nothing is recorded while ``paused`` is set.
Spans stay in memory until ``write``.
"""

import inspect
import json
import sys
import time

#: The modules whose public functions are wrapped, as layer names. The
#: ``systems`` module defines no public functions; its validation runs in
#: ``linalg`` calls and in the caller's self time.
LAYERS = ("linalg", "systems", "analysis", "design", "sim", "_kernels", "reportio", "cli")


def span_name(module_name, func_name):
    layer = module_name.rsplit(".", 1)[-1].lstrip("_")
    return f"{layer}.{func_name}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.paused = False  # set while the benchmark's own checks run
        self._stack = []
        self._originals = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        tracer, spans, stack = self, self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if tracer.paused or (parent >= 0 and spans[parent][0] == name):
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, parent, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap the public functions of every layer module, wherever they are bound."""
        import piobs  # noqa: F401  (make sure every submodule is loaded)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"piobs.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(span_name(module.__name__, attr), obj))
        piobs_modules = [m for key, m in list(sys.modules.items())
                         if key == "piobs" or key.startswith("piobs.")]
        for module in piobs_modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._originals.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class SpanStats:
    """Per-function call counts, total and self time (seconds) of a span list."""

    def __init__(self, spans):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls, self.total, self.self_time = {}, {}, {}
        for i, (name, start, end, _, _) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + (end - start)
            self.self_time[name] = self.self_time.get(name, 0.0) + (end - start - child_time[i])

    def count(self, name):
        return self.calls.get(name, 0)

    def mean_ms(self, name):
        calls = self.calls.get(name, 0)
        return 1e3 * self.total[name] / calls if calls else 0.0

    def self_ms(self, name):
        return 1e3 * self.self_time.get(name, 0.0)

    def layer_self_ms(self, layer):
        prefix = layer + "."
        return 1e3 * sum(t for name, t in self.self_time.items() if name.startswith(prefix))
