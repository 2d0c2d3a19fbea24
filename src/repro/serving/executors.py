"""Pluggable shard executors for the batch evaluation service.

The :class:`~repro.serving.evaluator.BatchEvaluator` turns a workload
into shard-chunk tasks and hands them to an executor; the executor only
decides *where* the chunks run.  Both implementations preserve task
order, so batch answers are deterministic regardless of scheduling:

:class:`SerialExecutor`
    Runs chunks inline against the caller's engine.  The zero-overhead
    default — batching still wins by amortising per-call work (query
    canonicalisation, answer materialisation) across a shard.

:class:`ProcessExecutor`
    A persistent process pool for picklable shard tasks
    (:class:`~repro.serving.evaluator.ShardTask`).  Workers evaluate
    against their own process-local engine and ship identity-free answers
    back (pre-order positions, vertex pairs, booleans); the parent maps
    them onto its own objects.  Uses the ``fork`` start method where
    available — ``spawn``/``forkserver`` re-import ``__main__`` in every
    worker, which breaks REPL/stdin-driven callers and re-executes
    unguarded scripts — and **spawns its workers at construction time**:
    forking from a process whose threads (say, a server's event loop or
    its offloaded shard evaluations) hold an engine or cache lock would
    snapshot the held lock into the child and deadlock it, so the fork
    happens before this executor can possibly be part of such work.
    Callers who start their own threads before constructing executors
    should construct the ``ProcessExecutor`` first, or pass
    ``start_method="forkserver"`` (requires an importable ``__main__``).

Besides the batch-shaped ``map``, every executor exposes ``submit`` — one
task in, a :class:`concurrent.futures.Future` out — which is the seam the
streaming paths build on (:meth:`BatchEvaluator.run_stream
<repro.serving.evaluator.BatchEvaluator.run_stream>` and the
:class:`~repro.serving.async_evaluator.AsyncBatchEvaluator`): shard
answers surface as each future completes instead of waiting on the whole
``map``.  In-process executors (``isolated = False``) run the task inline
and return an already-completed future, so callers that want inline work
off their own thread (the asyncio facade) must offload the ``submit``
call itself; the process executor hands it to its workers.

Executors are context managers; ``close()`` tears the pool down, and a
closed executor refuses further ``map`` calls (construct a new one).
The serial executor constructs for free; the process executor pays its
worker fork up front, by design.  An explicit ``max_workers`` must be
positive — a zero or negative width raises :class:`ValueError` instead of
silently falling back to the default.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from collections.abc import Callable, Sequence
from typing import Any


def _resolve_width(max_workers: int | None, default: int) -> int:
    """Validate an explicit pool width; ``None`` means the default."""
    if max_workers is None:
        return default
    if max_workers < 1:
        raise ValueError(
            f"max_workers must be a positive integer, got {max_workers!r}")
    return max_workers


class ShardExecutor:
    """Order-preserving ``map`` (and one-task ``submit``) over shard tasks."""

    #: True when tasks cross a process boundary and must be picklable;
    #: such an executor's submit() hands the task to background workers,
    #: while an in-process one runs it inline on the calling thread.
    isolated = False
    name = "abstract"

    def parallelism(self) -> int:
        """How many chunks are worth creating (the scheduling width)."""
        return 1

    def map(self, fn: Callable[[Any], Any],
            tasks: Sequence[Any]) -> list[Any]:
        raise NotImplementedError

    def submit(self, fn: Callable[..., Any],
               *args: Any) -> concurrent.futures.Future:
        """Run one task, exposing its result as a future.

        The default (used by :class:`SerialExecutor` and any custom
        executor that only implements ``map``) runs inline and returns a
        completed future, so streaming degrades gracefully to
        one-shard-at-a-time evaluation.
        """
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - future carries it
            future.set_exception(exc)
        return future

    def close(self) -> None:
        """Release the executor's workers (idempotent)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} width={self.parallelism()}>"


class SerialExecutor(ShardExecutor):
    """Run every chunk inline, in order."""

    name = "serial"

    def map(self, fn: Callable[[Any], Any],
            tasks: Sequence[Any]) -> list[Any]:
        return [fn(t) for t in tasks]


def _noop() -> None:
    """Picklable no-op used to force worker spawn at construction."""


class ProcessExecutor(ShardExecutor):
    """Run picklable chunks on a persistent process pool."""

    isolated = True
    name = "process"

    def __init__(self, max_workers: int | None = None,
                 start_method: str | None = None) -> None:
        self.max_workers = _resolve_width(
            max_workers, max(2, os.cpu_count() or 1))
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self._pool: concurrent.futures.ProcessPoolExecutor | None = \
            concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context(self.start_method))
        # Fork the workers NOW (ProcessPoolExecutor spawns them on first
        # submit, hence the no-op): at construction time no batch of ours
        # can be mid-flight in another thread, so no engine/cache lock
        # can be snapshotted in a held state into the children.
        self._pool.submit(_noop).result()

    def parallelism(self) -> int:
        return self.max_workers

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            raise RuntimeError("executor is closed; construct a new one")
        return self._pool

    def map(self, fn: Callable[[Any], Any],
            tasks: Sequence[Any]) -> list[Any]:
        return list(self._ensure_pool().map(fn, tasks))

    def submit(self, fn: Callable[..., Any],
               *args: Any) -> concurrent.futures.Future:
        return self._ensure_pool().submit(fn, *args)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
