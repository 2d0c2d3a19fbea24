"""The batched, sharded evaluation service on top of the engine.

:class:`BatchEvaluator` evaluates whole workloads — one hypothesis over
many instances, one instance under many queries, or any mix — by slicing
the workload into per-instance shards and evaluating each shard inline
against one index snapshot of its engine.

Correctness contracts (enforced by the parity and concurrency suites):

* **Answer parity.**  ``run(workload).answers[i]`` equals the serial
  ``engine.evaluate_twig`` / ``evaluate_rpq`` / ``accepts`` call for item
  ``i`` — for twig items, the *same node objects* in document order.
* **Shard snapshot consistency.**  Each shard resolves its instance's
  index exactly once, so a concurrent mutation (plus ``invalidate()``)
  lands either entirely before or entirely after any given shard — a
  batch never mixes two versions of one instance within a shard.
* **Deterministic merge.**  Shard answers merge back by item position.

Two consumption shapes share those contracts: :meth:`BatchEvaluator.run`
materialises the whole position-aligned result, and
:meth:`BatchEvaluator.run_stream` yields each shard's answers as soon as
that shard is evaluated, before later shards have started — the
sessions' streaming classification loops and the async/network
front-end (:mod:`repro.serving.async_evaluator`,
:mod:`repro.serving.net`) are built on it.  Streaming only changes
*when* answers become visible, never what they are.

Batching also does strictly less work than the serial loop: canonical
query forms are hoisted once per workload (not recomputed per call), and
each shard resolves its instance's index once for all of its items.
The membership shapes learners call (``selects*``, ``accepts*``) live
once, on :class:`~repro.learning.backend.EvaluationBackend`, on top of
these two primitives.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.engine import Engine, get_engine
from repro.serving.workload import (
    ItemKind,
    Shard,
    ShardAnswer,
    Workload,
    WorkloadResult,
)


class BatchEvaluator:
    """Evaluate workloads over the engine seam, shard by shard."""

    #: How shards run, as reported in ``WorkloadResult.executor`` and in
    #: a server's ``done`` and ``stats`` frames: inline, one at a time.
    name = "serial"

    def __init__(self, *, engine: Engine | None = None) -> None:
        self.engine = engine if engine is not None else get_engine()

    def run(self, workload: Workload) -> WorkloadResult:
        """Evaluate every item; answers aligned with item order."""
        answers: list = [None] * len(workload)
        n_shards = 0
        for shard_answer in self.run_stream(workload):
            n_shards += 1
            for position, answer in shard_answer:
                answers[position] = answer
        return WorkloadResult(workload, tuple(answers), self.name, n_shards)

    def run_stream(self, workload: Workload, *,
                   positions_native: bool = False,
                   ) -> Iterator[ShardAnswer]:
        """Yield each shard's answers as soon as that shard is evaluated.

        Shards evaluate lazily, in shard order: the first answers are
        yielded before later shards have been evaluated, and abandoning
        the iterator leaves the rest unevaluated.  Reassembling by
        ``ShardAnswer.indices`` reproduces ``run(workload).answers``
        exactly.

        ``positions_native=True`` keeps twig answers as the engine's
        pre-order position tuples instead of materialising node lists —
        the shape a transport that re-encodes answers as positions anyway
        (the wire codec) consumes directly.  RPQ / acceptance answers are
        identity-free either way and are unaffected.
        """
        shards = workload.shards()
        twig_keys = self._hoist_twig_keys(shards)
        for i, shard in enumerate(shards):
            yield ShardAnswer(i, shard.indices, self._eval_shard(
                shard, twig_keys, positions_native))

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

    def _eval_shard(self, shard: Shard, twig_keys: dict[int, tuple],
                    positions_native: bool = False) -> tuple:
        # One index snapshot per shard: every item in the shard sees the
        # same version of its instance (mutation atomicity contract).
        engine = self.engine
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

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
