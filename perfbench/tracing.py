"""Per-layer spans recorded from outside the library.

:class:`Tracer` replaces a library function or method, at the name its
caller looks it up by, with a wrapper that records calls, inclusive
seconds and self seconds (inclusive time minus the time of wrapped
calls made inside it). Spans are kept as counters in memory and only
while a scope (the kind of work the benchmark is doing, such as
``"tree"``) is set; outside a scope the wrapper calls straight through.

A target that no longer exists is recorded in :attr:`Tracer.missing`
instead of raising, so a later change that renames or replaces a kernel
shows up as a missing metric rather than a crash or a zero.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Tracer:
    """Wraps library functions and accumulates span statistics per scope.

    Statistics are keyed by ``(scope, name)``: ``calls`` and ``seconds``
    by wrapped function name, ``self_seconds`` by layer, and ``counts``
    and ``maxima`` by whatever names the observers use.
    """

    def __init__(self):
        self.scope: str | None = None
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []

    def wrap(self, owner, attr: str, layer: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``observe(tracer, scope, args, result)`` runs after each recorded
        call that returned, so it can count what the call produced.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            scope = tracer.scope
            if scope is None:
                return original(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.calls[scope, name] += 1
                tracer.seconds[scope, name] += elapsed
                tracer.self_seconds[scope, layer] += elapsed - frame[0]
            if observe is not None:
                observe(tracer, scope, args, result)
            return result

        setattr(owner, attr, traced)

    def count(self, scope: str, name: str, amount: float = 1) -> None:
        self.counts[scope, name] += amount

    def record_max(self, scope: str, name: str, value: float) -> None:
        key = (scope, name)
        self.maxima[key] = max(self.maxima.get(key, value), value)
