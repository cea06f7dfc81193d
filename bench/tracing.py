"""In-memory spans and call counters for the benchmark's traced run.

Spans are recorded around the benchmark's own calls into mapcones; the
counting wrappers replace library entry points (``numpy.linalg.eigh`` and
friends) for the duration of a ``with tracer.patched(...)`` block and put the
originals back afterwards.  Nothing is written until the run ends.
``CallLog`` uses the same wrappers to keep every call's duration; the verify
workload times each verifier check with it, traced or not.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.add(self.name, perf_counter() - self.start)
        return False


class Tracer:
    """Call counts and summed wall time per name."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        self.calls[name] += calls
        self.seconds[name] += seconds

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, name: str, fn):
        add = self.add

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                add(name, perf_counter() - start)

        return counted

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace ``module.attr`` by a counting wrapper for each
        ``(module, attr, name)`` in ``targets``; several attributes may share
        one name."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for module, attr, name in targets:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


class CallLog(Tracer):
    """Keeps each call's name and duration in call order instead of totals."""

    def __init__(self):
        super().__init__()
        self.entries: list[tuple[str, float]] = []

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        self.entries.append((name, seconds))


class NullTracer:
    """Tracing off: spans cost one attribute lookup and record nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        pass
