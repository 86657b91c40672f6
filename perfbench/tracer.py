"""In-memory span tracer that wraps the program's public functions.

The tracer replaces every public function of the listed modules, and the
public methods of the listed classes, with a wrapper that records one
span per call: an id, the id of the span that was open when it started,
the function's name, and its start and end times.  A function imported by
name into another module (``cli.kottler_build``, ``static_compare.
kottler_build``, the package ``__init__``) is replaced there too, so every
route into it is seen.  ``restore`` puts every original back.

Self time is a span's duration minus the time covered by its direct
children; it is accumulated as calls return, so totals need no span list.
The span list itself is kept only while ``keep_spans`` is set.
"""

from __future__ import annotations

import collections
import inspect
import sys
import time

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, modules, classes=(), hooks=None, probes=None):
        """Plan the patches; nothing is replaced until ``install``.

        hooks maps a qualified name to ``f(tracer, result, args, kwargs)``,
        called after that function returns.  probes maps ``(module,
        attribute)`` to ``f(tracer, result)`` for a foreign function the
        program calls by name; probes count but record no span, so the
        caller's self time keeps the probed call.
        """
        self.calls = collections.Counter()
        self.self_s = collections.Counter()
        self.errors = collections.Counter()
        self.counts = collections.Counter()
        self.spans = []
        self.keep_spans = False
        self._hooks = dict(hooks or {})
        self._probes = dict(probes or {})
        self._stack = []
        self._next_id = 0
        self._patched = []  # (owner, attribute, original)
        self._targets = []  # (owner, attribute, qualified name)
        for module in modules:
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    self._targets.append((module, attr, f"{_short(module)}.{attr}"))
        for cls in classes:
            for attr, obj in vars(cls).items():
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    self._targets.append((cls, attr, f"{cls.__name__}.{attr}"))

    @property
    def names(self) -> list[str]:
        return [name for _, _, name in self._targets]

    def reset(self) -> None:
        for counter in (self.calls, self.self_s, self.errors, self.counts):
            counter.clear()
        self.spans = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "alhflow" or name.startswith("alhflow."))]
        for owner, attr, name in self._targets:
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, self._hooks.get(name))
            self._replace(owner, attr, original, wrapper)
            if inspect.ismodule(owner):
                for module in package:
                    for other, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._replace(module, other, original, wrapper)
        for (owner, attr), probe in self._probes.items():
            original = getattr(owner, attr)
            self._replace(owner, attr, original, self._probe(original, probe))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, hook):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if tracer.keep_spans:
                    tracer.spans.append((span_id, parent, name, start, end))
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _probe(self, fn, probe):
        tracer = self

        def probed(*args, **kwargs):
            result = fn(*args, **kwargs)
            probe(tracer, result)
            return result

        probed.__wrapped__ = fn
        return probed

    def write_spans(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            f.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                f.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f}\n")


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]
