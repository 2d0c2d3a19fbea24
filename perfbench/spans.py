"""Per-layer tracing from outside the program: wrap functions where they
are looked up, record spans with self time, and count calls.

A span is one call of a wrapped function.  Its *self time* is its
duration minus the time its child spans (wrapped calls made inside it,
on the same thread) cover, so the self times of all spans add up to the
traced wall time that falls inside any span.  Spans are kept as running
totals per name in memory and read out with :meth:`Tracer.snapshot`.

Names must be patched where callers look them up: a module that did
``from repro.twig.product import product`` holds its own reference, so
wrapping ``repro.twig.product.product`` alone would time nothing.  Each
span therefore lists every site it is installed at.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict


def resolve(site: str) -> tuple[object, str]:
    """``"pkg.module:Class.attr"`` or ``"pkg.module.attr"``: (owner, attr)."""
    if ":" in site:
        module_name, path = site.split(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr
    module_name, attr = site.rsplit(".", 1)
    return importlib.import_module(module_name), attr


class Tracer:
    """Span and counter totals for one process."""

    def __init__(self) -> None:
        #: Recording switch: installed wrappers pass straight through
        #: while this is false.
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> list[int]:
        frame = [time.perf_counter_ns(), 0]
        self._stack().append(frame)
        return frame

    def _exit(self, name: str, frame: list[int], *, call: bool) -> None:
        duration = time.perf_counter_ns() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += duration
        with self._lock:
            self.self_ns[name] += duration - frame[1]
            self.total_ns[name] += duration
            if call:
                self.calls[name] += 1

    def add(self, name: str, amount: int = 1) -> None:
        """Add to a plain counter (bytes, events)."""
        with self._lock:
            self.counts[name] += amount

    # -- wrappers --------------------------------------------------------
    def wrap(self, name: str, fn, kind: str = "call", *, post=None,
             on_error=None):
        """A wrapper recording ``fn`` under ``name``.

        ``kind`` is ``call`` (time one call), ``iter`` (time creating an
        iterator, then every ``next()`` on it: a stream is busy only
        while its consumer pulls), ``async`` (time an awaited coroutine
        as waiting, kept off the self-time stack because other tasks run
        on the thread meanwhile) or ``count`` (count calls only).
        ``post(result)`` runs after a successful recorded call and
        ``on_error(exc)`` after a failed one; both run outside the
        span, so their own cost is not charged to the layer.
        """
        tracer = self
        if kind == "call":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                frame = tracer._enter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    tracer._exit(name, frame, call=True)
                    if on_error is not None:
                        on_error(exc)
                    raise
                tracer._exit(name, frame, call=True)
                if post is not None:
                    post(result)
                return result
        elif kind == "iter":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                frame = tracer._enter()
                try:
                    iterator = iter(fn(*args, **kwargs))
                finally:
                    tracer._exit(name, frame, call=True)
                return tracer._timed_iter(name, iterator)
        elif kind == "async":
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                start = time.perf_counter_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    waited = time.perf_counter_ns() - start
                    with tracer._lock:
                        tracer.total_ns[name] += waited
                        tracer.calls[name] += 1
        elif kind == "count":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.enabled:
                    with tracer._lock:
                        tracer.calls[name] += 1
                return fn(*args, **kwargs)
        else:
            raise ValueError(f"unknown span kind {kind!r}")
        return wrapper

    def _timed_iter(self, name: str, iterator):
        """Re-yield ``iterator``, timing each ``next()`` as part of ``name``.

        Closing this generator closes the wrapped one, so an abandoned
        stream releases what it holds exactly as it would unwrapped.
        """
        try:
            while True:
                frame = self._enter()
                try:
                    item = next(iterator)
                except StopIteration:
                    self._exit(name, frame, call=False)
                    return
                except BaseException:
                    self._exit(name, frame, call=False)
                    raise
                self._exit(name, frame, call=False)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # -- installation ----------------------------------------------------
    def install(self, spans, *, prefix: str = "", hooks=None) -> None:
        """Patch every site of every ``(name, kind, sites)`` span.

        ``hooks`` maps a span name to ``{"post": fn, "on_error": fn}``.
        Static and class methods are re-wrapped as such.
        """
        hooks = hooks or {}
        for name, kind, sites in spans:
            for site in sites:
                owner, attr = resolve(site)
                raw = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
                if isinstance(raw, staticmethod):
                    patched = staticmethod(self.wrap(
                        prefix + name, raw.__func__, kind,
                        **hooks.get(name, {})))
                elif isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(
                        prefix + name, raw.__func__, kind,
                        **hooks.get(name, {})))
                else:
                    patched = self.wrap(prefix + name, raw, kind,
                                        **hooks.get(name, {}))
                setattr(owner, attr, patched)
                self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every patched site, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- read-out --------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, float]]:
        """Running totals: self and total milliseconds, calls, counters."""
        with self._lock:
            return {
                "self_ms": {k: v / 1e6 for k, v in self.self_ns.items()},
                "total_ms": {k: v / 1e6 for k, v in self.total_ns.items()},
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }


def diff(after: dict, before: dict) -> dict:
    """Per-section difference of two :meth:`Tracer.snapshot` results."""
    return {section: {k: v - before.get(section, {}).get(k, 0)
                      for k, v in values.items()}
            for section, values in after.items()}
