"""In-memory span tracer that instruments the uwbpol layers from outside.

Every public function and public method defined in a layer module is
replaced, in every uwbpol namespace that names it, by a wrapper. The wrapper
is chosen by the module that defines the function, so a function that a
later change adds or renames still lands in its layer.

- Every call is counted, and every exception it raises is counted by type.
- A call that crosses into another layer (the innermost open span belongs
  to a different layer, or no span is open) also records a span: name,
  start, end, parent span and the session id (workload, seed, attempt).
  Calls inside one layer pass through without a span, which keeps the
  trace small on the ranging hot path.
- Observers registered by name see the arguments and result of every call,
  and the span's duration when the call recorded one.

Spans stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from enum import Enum
from types import ModuleType
from typing import Callable, Optional

LAYERS = ("uwb", "geo", "ledger", "pol", "sim")
ATTEMPT_MARKER = "pol.run_session"  # each call starts the op's next attempt


class Tracer:
    def __init__(self):
        # (span id, name, start ns, end ns, parent span id, session id)
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()  # (name, exception class) -> count
        self.values: defaultdict = defaultdict(list)  # filled by observers
        self.observers: dict[str, Callable] = {}
        self.workload = ""
        self.seed = 0
        self.attempt = -1
        self._stack: list[tuple[int, str]] = []  # open spans: (id, layer)
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- sessions and bench-side spans --

    def begin_op(self, workload: str, seed: int) -> None:
        self.workload, self.seed, self.attempt = workload, seed, -1

    def run_span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn under a span named `layer.what` opened by the benchmark."""
        layer = name.split(".", 1)[0]
        return self._spanned(name, layer, fn, args, kwargs)

    def _spanned(self, name, layer, fn, args, kwargs):
        if name == ATTEMPT_MARKER:
            self.attempt += 1
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        session = (self.workload, self.seed, self.attempt)
        self._stack.append((span_id, layer))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, session))

    # -- instrumentation --

    def instrument(self, package: str) -> None:
        """Wrap the public callables of each `package.<layer>` module.

        Register observers before calling this; each wrapper looks its
        observer up once.
        """
        targets: dict[int, tuple[str, str]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    targets[id(obj)] = (f"{layer}.{obj.__qualname__}", layer)
                elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                    self._instrument_class(obj, layer, mod)
        wrappers = {}
        for mod_name, mod in list(sys.modules.items()):
            if not isinstance(mod, ModuleType) or not (
                mod_name == package or mod_name.startswith(package + ".")
            ):
                continue
            for attr, obj in list(vars(mod).items()):
                target = targets.get(id(obj))
                if target is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, *target)
                self._patch(mod, attr, wrappers[id(obj)])

    def _instrument_class(self, cls, layer: str, mod: ModuleType) -> None:
        source = getattr(mod, "__file__", None)
        for attr, member in list(vars(cls).items()):
            if not inspect.isfunction(member):
                continue
            # Dataclass-generated __init__ is compiled from a string; only a
            # hand-written constructor is layer work worth a span.
            handwritten_init = (attr == "__init__"
                                and member.__code__.co_filename == source)
            if attr.startswith("_") and not handwritten_init:
                continue
            self._patch(cls, attr, self._wrap(member, f"{layer}.{member.__qualname__}", layer))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        stack, spans, calls, raised = self._stack, self.spans, self.calls, self.raised
        observer = self.observers.get(name)
        spanned = self._spanned

        def traced(*args, **kwargs):
            calls[name] += 1
            crossed = not stack or stack[-1][1] != layer
            try:
                if crossed:
                    result = spanned(name, layer, fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            except Exception as exc:
                raised[(name, type(exc))] += 1
                raise
            if observer is not None:
                # The span a crossing call just closed is the last one stored.
                span_ns = spans[-1][3] - spans[-1][2] if crossed else None
                observer(args, kwargs, result, span_ns)
            return result

        return functools.wraps(fn)(traced)

    # -- analysis --

    def durations(self, name: str) -> list[int]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def self_ns_by_layer(self) -> dict[str, int]:
        return self._self_ns(lambda name: name.split(".", 1)[0])

    def self_ns_of(self, name: str) -> int:
        """Self time of the spans named `name` alone."""
        return self._self_ns(lambda n: n).get(name, 0)

    def _self_ns(self, key: Callable[[str], str]) -> dict[str, int]:
        """A span's self time is its duration minus what its children cover;
        summed by key(span name)."""
        child_ns: Counter = Counter()
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: Counter = Counter()
        for span_id, name, start, end, _, _ in self.spans:
            out[key(name)] += (end - start) - child_ns[span_id]
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, session in self.spans:
                fh.write(json.dumps([span_id, name, start, end, parent, list(session)]) + "\n")


def argument(args: tuple, kwargs: dict, name: str, position: int) -> Optional[object]:
    """The argument passed as `name`, by keyword or at `position`."""
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None
