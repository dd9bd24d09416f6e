"""Call-site spans around the public functions of each feasgame layer.

A ``Tracer`` replaces module attributes with timing wrappers for the
duration of a ``with`` block and restores them on exit.  Each wrapper is
installed where the layer is *called* (the caller module's binding), so a
function can be traced from one caller and left alone from another: the
scalar ``evaluate`` and ``gradient`` are wrapped only where ``descent``
calls them, never inside ``core.residuals``.

Spans nest through a stack.  A span's self time is its duration minus the
durations of the wrapped spans it directly contains, so the self times of
one call tree add up exactly to the duration of its root span.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple


class Site(NamedTuple):
    """Wrap ``module.attr`` and book its time under ``span``.

    ``observe(args, result, counts)`` may add layer counters taken from the
    arguments and the return value.
    """

    module: str
    attr: str
    span: str
    observe: Callable | None = None


class Tracer:
    """Per-span call counts, self time in ns, and extra counters."""

    def __init__(self, sites: Iterable[Site]):
        self.sites = tuple(sites)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []  # [start_ns, child_ns] per open span
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.counts.clear()

    def _wrap(self, fn: Callable, span: str, observe: Callable | None) -> Callable:
        stack = self._stack
        calls, self_ns, counts = self.calls, self.self_ns, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self_ns[span] += dur - frame[1]
                calls[span] += 1
            if observe is not None:
                observe(args, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        try:
            for site in self.sites:
                module = importlib.import_module(site.module)
                original = getattr(module, site.attr)
                self._saved.append((module, site.attr, original))
                setattr(module, site.attr, self._wrap(original, site.span, site.observe))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self._stack.clear()
