"""Per-layer timing taken from outside the program.

A :class:`Tracer` wraps public functions of the ``repro`` layers and
replaces them wherever they are reachable: on the defining module or
class, and on every loaded ``repro`` module that bound the same object
by name at import (``from repro.core.full_view import
is_full_view_covered`` leaves a second reference in the consumer).  The
program's own code is not changed.

Each wrapped name accumulates calls, busy seconds and optional work
counters.  Only the outermost call per thread is timed, so a layer
that calls itself (or another entry point of the same layer) is not
counted twice.  Names flagged ``keep_spans`` also record one span per
outermost call, kept in memory and written out by :meth:`write_spans`
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "interval_union"]

#: ``(args, kwargs, result) -> {counter: amount}`` for work counters, or
#: ``-> {attr: value}`` for span attributes.
Measure = Callable[[tuple, dict, Any], Dict[str, Any]]


class Tracer:
    """Wrappers, counters and in-memory spans for one traced run."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        #: ``(name, start, end, thread_id, attrs)`` per kept span.
        self.spans: List[Tuple[str, float, float, int, Dict[str, Any]]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _depths(self) -> Dict[str, int]:
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = {}
        return depths

    def record(
        self,
        name: str,
        start: float,
        end: float,
        counts: Optional[Dict[str, float]] = None,
        span: Optional[Dict[str, Any]] = None,
        busy: Optional[float] = None,
    ) -> None:
        """Add one outermost call of ``name`` (thread-safe).

        ``busy`` overrides ``end - start`` as the call's busy seconds
        (a generator is busy only while it runs, not while suspended).
        """
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.seconds[name] = self.seconds.get(name, 0.0) + (
                end - start if busy is None else busy
            )
            for key, value in (counts or {}).items():
                self.counts[key] = self.counts.get(key, 0.0) + value
            if span is not None:
                self.spans.append((name, start, end, threading.get_ident(), span))

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        measure: Optional[Measure] = None,
        keep_spans: bool = False,
        span_attrs: Optional[Measure] = None,
    ) -> Callable:
        """A wrapper timing outermost calls of ``fn`` under ``name``.

        ``measure`` adds work counters per call; ``keep_spans`` (implied
        by ``span_attrs``) keeps one span per call, with the attributes
        ``span_attrs`` derives from the call.
        """
        tracer = self
        keep_spans = keep_spans or span_attrs is not None

        def finish(start: float, end: float, args: tuple, kwargs: dict, result: Any) -> None:
            extra = measure(args, kwargs, result) if measure else None
            attrs = None
            if keep_spans:
                attrs = span_attrs(args, kwargs, result) if span_attrs else {}
            tracer.record(name, start, end, extra, attrs)
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                start = time.perf_counter()
                result = await fn(*args, **kwargs)
                finish(start, time.perf_counter(), args, kwargs, result)
                return result

            return traced_async
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                # Time spent inside the generator only: the consumer's
                # work between batches is not the layer's.
                gen = fn(*args, **kwargs)
                busy = 0.0
                first = last = time.perf_counter()
                try:
                    while True:
                        start = time.perf_counter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            last = time.perf_counter()
                            busy += last - start
                        yield item
                finally:
                    gen.close()
                    tracer.record(
                        name, first, last, span={} if keep_spans else None, busy=busy
                    )

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depths = tracer._depths()
            depth = depths.get(name, 0)
            if depth:
                return fn(*args, **kwargs)
            depths[name] = 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                depths[name] = 0
            finish(start, end, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install_function(self, module: str, attr: str, name: str, **options) -> None:
        """Wrap ``module.attr`` and every ``repro`` binding of the same object."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(name, original, **options)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def install_method(self, module: str, cls: str, attr: str, name: str, **options) -> None:
        """Wrap a method on the class that defines it (subclasses inherit)."""
        owner = getattr(sys.modules[module], cls)
        original = owner.__dict__[attr]
        self._set(owner, attr, self.wrap(name, original, **options))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as JSON lines (one object per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, thread, attrs in self.spans:
                row = {"name": name, "start": start, "end": end, "thread": thread}
                row.update(attrs)
                handle.write(json.dumps(row) + "\n")


def interval_union(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total
