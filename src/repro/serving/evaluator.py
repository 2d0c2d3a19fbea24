"""The batched, sharded evaluation service on top of the engine.

:class:`BatchEvaluator` evaluates whole workloads — one hypothesis over
many instances, one instance under many queries, or any mix — by slicing
the workload into per-instance shards and running shard chunks on a
pluggable :class:`~repro.serving.executors.ShardExecutor`.

Correctness contracts (enforced by the parity and concurrency suites):

* **Answer parity.**  ``run(workload).answers[i]`` equals the serial
  ``engine.evaluate_twig`` / ``evaluate_rpq`` / ``accepts`` call for item
  ``i`` — for twig items, the *same node objects* in document order, on
  every executor.  Process workers never return node copies: they ship
  pre-order positions, and the parent maps positions onto its own index
  snapshot (positions are stable for a fixed tree version).
* **Shard snapshot consistency.**  Each shard resolves its instance's
  index exactly once, so a concurrent mutation (plus ``invalidate()``)
  lands either entirely before or entirely after any given shard — a
  batch never mixes two versions of one instance within a shard.  The
  process executor cannot re-resolve a worker's snapshot, so it pins the
  parent-side snapshot at submission and *raises* if the instance version
  moved before decode, rather than risking positions mapped across
  versions.
* **Deterministic merge.**  Shard answers merge back by item position;
  scheduling order can never reorder results.

Two consumption shapes share those contracts: :meth:`BatchEvaluator.run`
materialises the whole position-aligned result, and
:meth:`BatchEvaluator.run_stream` yields each shard's answers the moment
its future completes (``executor.submit`` per shard, lazily windowed to
the executor's width) — the sessions' streaming classification loops and
the async/network front-end (:mod:`repro.serving.async_evaluator`,
:mod:`repro.serving.net`) are built on it.  Streaming only changes *when*
answers become visible, never what they are.

Batching also does strictly less work than the serial loop: canonical
query forms are hoisted once per workload (not recomputed per call), and
each shard resolves its instance's index once for all of its items.
The membership shapes learners call (``selects*``, ``accepts*``) live
once, on :class:`~repro.learning.backend.EvaluationBackend`, on top of
these two primitives.
"""

from __future__ import annotations

import concurrent.futures
from collections import OrderedDict
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from repro.engine import Engine, get_engine, instance_version
from repro.serving.executors import SerialExecutor, ShardExecutor
from repro.serving.wire import instance_fingerprint
from repro.serving.workload import (
    ItemKind,
    Shard,
    ShardAnswer,
    Word,
    Workload,
    WorkloadResult,
)
from repro.xmltree.tree import XNode, XTree


@dataclass(frozen=True)
class ShardTask:
    """A picklable shard: everything a process worker needs, nothing more.

    ``payload`` is the instance in transfer form — the document's root
    :class:`~repro.xmltree.tree.XNode` (plain structure, no caches or
    id-keyed maps) or the :class:`~repro.graphdb.graph.Graph` itself;
    acceptance shards carry no instance.  ``digest`` is the instance's
    structural content address
    (:func:`~repro.serving.wire.instance_fingerprint`): a worker keeps a
    small digest-keyed cache of reconstructed instances, so repeated
    rounds over the same instance reuse the worker's warm index instead
    of rebuilding it per batch (positions are structural, so answers off
    the cached copy are identical).  Answers come back identity-free
    (positions / vertex pairs / booleans), ready for the parent to decode
    against its own objects.
    """

    kind: ItemKind
    payload: object
    queries: tuple
    words: tuple[Word, ...] | None = None
    sources: tuple = ()
    digest: str | None = None


#: Per-worker-process digest -> reconstructed instance (LRU by count).
#: Strong references on purpose: they keep the worker engine's weak-keyed
#: indexes alive between batches.  A plain OrderedDict rather than
#: :class:`~repro.engine.cache.LRUCache` because the drift check below
#: needs per-key removal, which LRUCache does not expose.
_WORKER_INSTANCE_CAP = 64
_worker_instances: "OrderedDict[str, object]" = OrderedDict()


def _worker_instance(task: ShardTask, rebuild: Callable[[], object]) -> object:
    """The worker's canonical instance for a task (digest-cached).

    Entries are *content-verified* both entering and leaving the cache:
    ``task.digest`` was computed at task construction, but the payload
    can drift past it — an in-process "isolated" executor hands the
    parent's live objects straight to this function, and a real pool's
    feeder thread pickles the payload after submission — so a payload
    whose digest no longer matches evaluates uncached, and a cached
    entry whose content drifted (the parent mutated the live object it
    lent us) is dropped and rebuilt instead of silently answering for a
    structure the caller no longer has.  The hit-path check is one memo
    lookup (:func:`~repro.serving.wire.instance_fingerprint` caches per
    instance version); only an actual mutation pays a re-encode.
    """
    if task.digest is None:
        return rebuild()
    instance = _worker_instances.get(task.digest)
    if instance is not None \
            and instance_fingerprint(instance)[0] != task.digest:
        del _worker_instances[task.digest]
        instance = None
    if instance is None:
        instance = rebuild()
        if instance_fingerprint(instance)[0] != task.digest:
            return instance
        _worker_instances[task.digest] = instance
        while len(_worker_instances) > _WORKER_INSTANCE_CAP:
            _worker_instances.popitem(last=False)
    else:
        _worker_instances.move_to_end(task.digest)
    return instance


def _run_shard_task(task: ShardTask) -> tuple:
    """Evaluate one shard in a worker process (identity-free answers)."""
    engine = get_engine()  # the worker process's own engine
    if task.kind is ItemKind.TWIG:
        # The cached tree is a *copy*: in-process isolated executors hand
        # over the parent's live root, whose later mutations a fresh
        # XTree wrapper (version 0) would hide from the hit-path digest
        # check — a frozen snapshot cannot drift under its digest.  One
        # O(n) copy per (digest, worker), amortised across every batch
        # that hits the warm index.
        tree = _worker_instance(task, lambda: XTree(task.payload.copy()))
        doc_index = engine.document(tree)
        return tuple(doc_index.evaluate_indices(q) for q in task.queries)
    if task.kind is ItemKind.RPQ:
        graph = _worker_instance(task, lambda: task.payload)
        graph_index = engine.graph(graph)
        return tuple(graph_index.evaluate_rpq(q, sources)
                     for q, sources in zip(task.queries, task.sources))
    return tuple(engine.accepts(task.queries[0], word)
                 for word in task.words or ())


def _run_task_chunk(chunk: tuple[ShardTask, ...]) -> tuple:
    """Worker entry point: one pickle round-trip per chunk, not per shard."""
    return tuple(_run_shard_task(task) for task in chunk)


def _pin_preorder(tree: XTree) -> tuple[int, list[XNode]]:
    """The tree's (version, pre-order node list) in one cheap traversal.

    ``XNode.iter`` pre-order is the order of
    :class:`~repro.engine.document.IndexedDocument` (and of the worker's
    rebuilt copy), so worker positions map onto these node objects
    directly.
    """
    return instance_version(tree), list(tree.nodes())


def _chunks(seq: Sequence, width: int) -> list[tuple]:
    """Split into at most ``width`` contiguous, size-balanced chunks."""
    n = len(seq)
    width = max(1, min(width, n))
    base, extra = divmod(n, width)
    out, start = [], 0
    for i in range(width):
        size = base + (1 if i < extra else 0)
        out.append(tuple(seq[start:start + size]))
        start += size
    return out


class BatchEvaluator:
    """Evaluate workloads over the engine seam, shard by shard."""

    def __init__(self, *, engine: Engine | None = None,
                 executor: ShardExecutor | None = None) -> None:
        self.engine = engine if engine is not None else get_engine()
        self.executor = executor if executor is not None else SerialExecutor()

    # ------------------------------------------------------------------
    # The service entry point
    # ------------------------------------------------------------------
    def run(self, workload: Workload) -> WorkloadResult:
        """Evaluate every item; answers aligned with item order."""
        shards = workload.shards()
        if not shards:
            return WorkloadResult(workload, (), self.executor.name, 0)
        if self.executor.isolated:
            shard_answers = self._run_isolated(shards)
        else:
            shard_answers = self._run_shared(shards)
        answers: list = [None] * len(workload)
        for shard, shard_ans in zip(shards, shard_answers):
            for position, answer in zip(shard.indices, shard_ans):
                answers[position] = answer
        return WorkloadResult(workload, tuple(answers), self.executor.name,
                              len(shards))

    # ------------------------------------------------------------------
    # Streaming: per-shard futures, answers in completion order
    # ------------------------------------------------------------------
    def run_stream(self, workload: Workload, *,
                   positions_native: bool = False,
                   ) -> Iterator[ShardAnswer]:
        """Yield each shard's answers as soon as that shard completes.

        Shards are submitted one future each (``executor.submit``),
        lazily windowed to the executor's width, and surfaced in
        *completion* order — the first answers arrive while later shards
        are still evaluating (or, on an in-process executor, before later
        shards have even been submitted).  Every yielded answer is
        value-identical to the corresponding :meth:`run` answer;
        reassembling by ``ShardAnswer.indices`` reproduces
        ``run(workload).answers`` exactly.

        ``positions_native=True`` keeps twig answers as the engine's
        pre-order position tuples instead of materialising node lists —
        the shape a transport that re-encodes answers as positions anyway
        (the wire codec) consumes directly.  RPQ / acceptance answers are
        identity-free either way and are unaffected.
        """
        shards = workload.shards()
        if not shards:
            return
        submit, decode = self._shard_plan(
            shards, positions_native=positions_native)
        for i, raw in self._stream_futures(submit, len(shards)):
            yield ShardAnswer(i, shards[i].indices, decode(i, raw))

    def _stream_futures(
        self, submit: Callable[[int], concurrent.futures.Future],
        count: int,
    ) -> Iterator[tuple[int, Any]]:
        """Lazily-windowed completion-order drive of ``count`` futures.

        Submissions are capped at the executor's width, so a width-1
        executor yields its first result before later tasks are even
        submitted; abandoning the iterator cancels whatever is still
        pending.  The single loop behind every synchronous streaming API.
        """
        width = max(1, self.executor.parallelism())
        pending: dict[concurrent.futures.Future, int] = {}
        next_task = 0
        try:
            while next_task < count or pending:
                while next_task < count and len(pending) < width:
                    pending[submit(next_task)] = next_task
                    next_task += 1
                done, _ = concurrent.futures.wait(
                    pending, return_when=concurrent.futures.FIRST_COMPLETED)
                for future in done:
                    yield pending.pop(future), future.result()
        finally:
            for future in pending:
                future.cancel()

    def _shard_plan(self, shards: list[Shard], *,
                    positions_native: bool = False) -> tuple[
            Callable[[int], concurrent.futures.Future],
            Callable[[int, tuple], tuple]]:
        """Per-shard ``(submit, decode)`` callables for the streaming paths.

        Mirrors the batch paths exactly: the shared plan hoists canonical
        twig forms once and evaluates against the caller's engine; the
        isolated plan pins pre-order snapshots *before* any submission and
        decodes worker positions against them (raising on a mid-flight
        mutation, same as :meth:`_run_isolated`).

        With ``positions_native=True`` twig answers stay position tuples:
        the shared plan evaluates via ``evaluate_indices`` (no node lists
        built at all), and the isolated plan pins only the instance
        *version* — worker positions pass through untouched, still
        refusing to cross a mid-flight mutation.
        """
        if self.executor.isolated:
            tasks = [self._make_task(shard) for shard in shards]

            def submit(i: int) -> concurrent.futures.Future:
                return self.executor.submit(_run_shard_task, tasks[i])

            if positions_native:
                versions = {
                    i: instance_version(shard.items[0].instance)
                    for i, shard in enumerate(shards)
                    if shard.kind is ItemKind.TWIG
                }

                def decode(i: int, raw: tuple) -> tuple:
                    if shards[i].kind is ItemKind.TWIG:
                        self._check_version(shards[i], versions[i])
                    return raw
            else:
                snapshots = {
                    i: _pin_preorder(shard.items[0].instance)
                    for i, shard in enumerate(shards)
                    if shard.kind is ItemKind.TWIG
                }

                def decode(i: int, raw: tuple) -> tuple:
                    return self._decode(shards[i], raw, snapshots.get(i))

            return submit, decode

        twig_keys = self._hoist_twig_keys(shards)
        engine = self.engine

        def submit_shared(i: int) -> concurrent.futures.Future:
            return self.executor.submit(
                self._eval_shard, engine, shards[i], twig_keys,
                positions_native)

        def decode_shared(i: int, raw: tuple) -> tuple:
            return raw

        return submit_shared, decode_shared

    @staticmethod
    def _hoist_twig_keys(shards: list[Shard]) -> dict[int, tuple]:
        # Canonicalise each distinct twig query once per batch — the
        # serial loop pays this on every single call.
        twig_keys: dict[int, tuple] = {}
        for shard in shards:
            if shard.kind is ItemKind.TWIG:
                for item in shard.items:
                    if id(item.query) not in twig_keys:
                        twig_keys[id(item.query)] = item.query.canonical()
        return twig_keys

    # ------------------------------------------------------------------
    # Shared-engine path (in-process executors)
    # ------------------------------------------------------------------
    def _run_shared(self, shards: list[Shard]) -> list[tuple]:
        twig_keys = self._hoist_twig_keys(shards)
        engine = self.engine
        return self.executor.map(
            lambda shard: self._eval_shard(engine, shard, twig_keys), shards)

    @staticmethod
    def _eval_shard(engine: Engine, shard: Shard,
                    twig_keys: dict[int, tuple],
                    positions_native: bool = False) -> tuple:
        # One index snapshot per shard: every item in the shard sees the
        # same version of its instance (mutation atomicity contract).
        if shard.kind is ItemKind.TWIG:
            doc_index = engine.document(shard.items[0].instance)
            if positions_native:
                return tuple(
                    doc_index.evaluate_indices(item.query,
                                               twig_keys[id(item.query)])
                    for item in shard.items)
            return tuple(
                doc_index.evaluate(item.query, twig_keys[id(item.query)])
                for item in shard.items)
        if shard.kind is ItemKind.RPQ:
            graph_index = engine.graph(shard.items[0].instance)
            return tuple(graph_index.evaluate_rpq(item.query, item.sources)
                         for item in shard.items)
        return tuple(engine.accepts(item.query, item.word)
                     for item in shard.items)

    # ------------------------------------------------------------------
    # Isolated path (process executor: picklable tasks in, positions out)
    # ------------------------------------------------------------------
    def _run_isolated(self, shards: list[Shard]) -> list[tuple]:
        # Pin each twig shard's (version, pre-order nodes) *before*
        # submission: worker positions decode against the structure that
        # was current when the batch left, and a mutation racing the
        # batch is detected (version moved past the pinned snapshot)
        # instead of silently mapping positions onto different nodes.
        # Deliberately NOT engine.document() — decode needs only the
        # node order, and building full parent-side indexes here would
        # duplicate exactly the work the batch ships to the workers.
        snapshots = {
            id(s): _pin_preorder(s.items[0].instance)
            for s in shards if s.kind is ItemKind.TWIG
        }
        tasks = [self._make_task(s) for s in shards]
        chunk_results = self.executor.map(
            _run_task_chunk, _chunks(tasks, self.executor.parallelism()))
        raw = [r for chunk in chunk_results for r in chunk]
        return [self._decode(shard, shard_raw, snapshots.get(id(shard)))
                for shard, shard_raw in zip(shards, raw)]

    @staticmethod
    def _make_task(shard: Shard) -> ShardTask:
        queries = tuple(item.query for item in shard.items)
        if shard.kind is ItemKind.TWIG:
            instance = shard.items[0].instance
            return ShardTask(shard.kind, instance.root, queries,
                             digest=instance_fingerprint(instance)[0])
        if shard.kind is ItemKind.RPQ:
            instance = shard.items[0].instance
            return ShardTask(shard.kind, instance, queries,
                             sources=tuple(item.sources
                                           for item in shard.items),
                             digest=instance_fingerprint(instance)[0])
        return ShardTask(shard.kind, None, (shard.items[0].query,),
                         words=tuple(item.word for item in shard.items))

    @staticmethod
    def _check_version(shard: Shard, pinned_version: int) -> None:
        """Refuse to hand out positions that crossed a mutation."""
        if pinned_version != instance_version(shard.items[0].instance):
            raise RuntimeError(
                "document mutated while a process batch was in flight; "
                "the process executor refuses to decode positions across "
                "versions — keep instances fixed for the duration of a "
                "run() or use an in-process executor")

    @staticmethod
    def _decode(shard: Shard, raw: tuple, snapshot) -> tuple:
        if shard.kind is not ItemKind.TWIG:
            return raw  # vertex pairs and booleans are identity-free
        version, nodes = snapshot
        BatchEvaluator._check_version(shard, version)
        return tuple([nodes[i] for i in indices] for indices in raw)

    def __repr__(self) -> str:
        return f"<BatchEvaluator executor={self.executor.name}>"
