"""The asyncio facade over the batch-evaluation service.

:class:`AsyncBatchEvaluator` accepts the same :class:`~repro.serving.workload.Workload`
objects as the synchronous :class:`~repro.serving.evaluator.BatchEvaluator`
and evaluates the same shards with the same shard evaluator — but from
inside an event loop, without ever blocking it on evaluation: each
shard's evaluation is offloaded to the loop's default thread pool via
``loop.run_in_executor``.

:meth:`AsyncBatchEvaluator.stream` is the primitive: an async generator
yielding :class:`~repro.serving.workload.ShardAnswer` records one shard
at a time, so its first shard is yielded before later shards have even
started.  :meth:`AsyncBatchEvaluator.run` consumes the stream and
reassembles the deterministic position-aligned
:class:`~repro.serving.workload.WorkloadResult`, so ``await run(w)`` is
answer-identical — same node objects, same order — to the synchronous
``BatchEvaluator.run(w)``.

This is the seam the network front-end (:mod:`repro.serving.net`) serves:
one TCP connection's workloads become one evaluator stream each, and
per-shard answers go out as frames the moment they exist.
"""

from __future__ import annotations

import asyncio
from collections.abc import AsyncIterator

from repro.engine import Engine
from repro.serving.evaluator import BatchEvaluator
from repro.serving.workload import ShardAnswer, Workload, WorkloadResult


class AsyncBatchEvaluator:
    """Evaluate workloads shard by shard from inside an event loop."""

    def __init__(self, *, engine: Engine | None = None,
                 evaluator: BatchEvaluator | None = None) -> None:
        if evaluator is not None:
            if engine is not None:
                raise ValueError(
                    "pass either a ready BatchEvaluator or an engine, "
                    "not both")
            self._sync = evaluator
        else:
            self._sync = BatchEvaluator(engine=engine)

    @property
    def engine(self) -> Engine:
        return self._sync.engine

    @property
    def name(self) -> str:
        """How shards run (the evaluator's ``name``)."""
        return self._sync.name

    # ------------------------------------------------------------------
    # The streaming primitive
    # ------------------------------------------------------------------
    async def stream(self, workload: Workload, *, gate=None, deadline=None,
                     positions_native: bool = False,
                     ) -> AsyncIterator[ShardAnswer]:
        """Yield per-shard answers one shard at a time, loop never blocked.

        ``positions_native=True`` keeps twig answers as pre-order
        position tuples (see
        :meth:`~repro.serving.evaluator.BatchEvaluator.run_stream`) — the
        network server streams in this mode and encodes the positions
        straight into shard frames, never materialising node objects
        server-side.

        ``gate`` is an optional admission limiter (the server's
        :class:`~repro.serving.net.ShardGate`).  Each shard acquires one
        slot before it evaluates — passing ``deadline``, so a request
        nobody waits for anymore is shed instead of queued — and
        releases it before its answer is yielded.  A stream therefore
        never holds more than one slot, and never holds one while its
        consumer is busy with an answer.
        """
        shards = workload.shards()
        twig_keys = self._sync._hoist_twig_keys(shards)
        loop = asyncio.get_running_loop()
        for i, shard in enumerate(shards):
            if gate is not None:
                await gate.acquire(deadline)
            try:
                answers = await loop.run_in_executor(
                    None, self._sync._eval_shard, shard, twig_keys,
                    positions_native)
            finally:
                if gate is not None:
                    gate.release()
            yield ShardAnswer(i, shard.indices, answers)

    # ------------------------------------------------------------------
    # Consumers of the stream
    # ------------------------------------------------------------------
    async def run(self, workload: Workload) -> WorkloadResult:
        """Deterministic ordered merge of the stream (parity with sync)."""
        answers: list = [None] * len(workload)
        n_shards = 0
        async for shard_answer in self.stream(workload):
            n_shards += 1
            for position, answer in shard_answer:
                answers[position] = answer
        return WorkloadResult(workload, tuple(answers), self.name, n_shards)

    async def first_answer(self, workload: Workload) -> ShardAnswer:
        """The first shard's answers (the streamed-latency probe); later
        shards are never evaluated."""
        stream = self.stream(workload)
        try:
            async for shard_answer in stream:
                return shard_answer
        finally:
            await stream.aclose()
        raise ValueError("workload has no shards")

    def __repr__(self) -> str:
        return f"<AsyncBatchEvaluator {self.name}>"
