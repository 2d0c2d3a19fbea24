"""The asyncio facade over the batch-evaluation service.

:class:`AsyncBatchEvaluator` accepts the same :class:`~repro.serving.workload.Workload`
objects as the synchronous :class:`~repro.serving.evaluator.BatchEvaluator`
and schedules the same per-shard work on the same pluggable executors —
but from inside an event loop, without ever blocking it on evaluation:

* the isolated process executor is driven through ``executor.submit``;
  the resulting :class:`concurrent.futures.Future` is bridged into the
  loop with :func:`asyncio.wrap_future`;
* in-process executors (serial, or any custom inline executor) would
  run the shard inline on the caller's thread, so their submission is
  offloaded to the loop's default thread pool via
  ``loop.run_in_executor`` instead.

:meth:`AsyncBatchEvaluator.stream` is the primitive: an async generator
yielding :class:`~repro.serving.workload.ShardAnswer` records in
*completion* order, with at most ``executor.parallelism()`` shards in
flight (lazy submission — a serial executor therefore yields its first
shard before later shards have even started).  :meth:`AsyncBatchEvaluator.run`
consumes the stream and reassembles the deterministic position-aligned
:class:`~repro.serving.workload.WorkloadResult`, so ``await run(w)`` is
answer-identical — same node objects, same order — to the synchronous
``BatchEvaluator.run(w)`` on the same executor.

This is the seam the network front-end (:mod:`repro.serving.net`) serves:
one TCP connection's workloads become one evaluator stream each, and
per-shard answers go out as frames the moment they exist.
"""

from __future__ import annotations

import asyncio
from collections.abc import AsyncIterator

from repro.engine import Engine
from repro.serving.evaluator import BatchEvaluator
from repro.serving.executors import ShardExecutor
from repro.serving.workload import ShardAnswer, Workload, WorkloadResult


class AsyncBatchEvaluator:
    """Evaluate workloads on the executor seam from inside an event loop."""

    def __init__(self, *, engine: Engine | None = None,
                 executor: ShardExecutor | None = None,
                 evaluator: BatchEvaluator | None = None) -> None:
        if evaluator is not None:
            if engine is not None or executor is not None:
                raise ValueError(
                    "pass either a ready BatchEvaluator or engine/executor "
                    "parts, not both")
            self._sync = evaluator
        else:
            self._sync = BatchEvaluator(engine=engine, executor=executor)

    @property
    def engine(self) -> Engine:
        return self._sync.engine

    @property
    def executor(self) -> ShardExecutor:
        return self._sync.executor

    @property
    def sync(self) -> BatchEvaluator:
        """The synchronous evaluator this facade schedules through."""
        return self._sync

    # ------------------------------------------------------------------
    # The streaming primitive
    # ------------------------------------------------------------------
    async def stream(self, workload: Workload, *, gate=None,
                     positions_native: bool = False,
                     ) -> AsyncIterator[ShardAnswer]:
        """Yield per-shard answers as they complete, loop never blocked.

        ``positions_native=True`` keeps twig answers as pre-order
        position tuples (see
        :meth:`~repro.serving.evaluator.BatchEvaluator.run_stream`) — the
        network server streams in this mode and encodes the positions
        straight into shard frames, never materialising node objects
        server-side.

        Completion order is scheduling-dependent; the payloads are not —
        each :class:`~repro.serving.workload.ShardAnswer` carries its item
        positions, and reassembling by position reproduces the
        synchronous batch answers exactly (the evaluator's parity and
        snapshot contracts hold unchanged, including the isolated path's
        refuse-to-decode-across-versions guard).

        ``gate`` is an optional admission limiter (``await acquire()`` /
        ``release()``, FIFO — the server's shard-admission semaphore):
        one slot is held per in-flight shard, acquired *before*
        submission so an over-limit workload queues instead of erroring.
        Each task releases its slot through a done-callback the moment
        it finishes (success, failure, or cancellation) — never from
        this consumer loop, which may itself be waiting on a slot while
        earlier shards complete: releasing from the loop would deadlock
        the whole server whenever the executor is wider than the gate.
        The pending acquisition is *raced* against shard completions,
        so a queued submission never delays the yield of an answer that
        already exists — gating bounds concurrency, not streaming
        latency.  Abandonment cancels the in-flight tasks (and releases
        an acquired-but-unused slot), so a dead request cannot leak
        admission slots.
        """
        shards = workload.shards()
        if not shards:
            return
        submit, decode = self._sync._shard_plan(
            shards, positions_native=positions_native)
        width = max(1, self.executor.parallelism())
        loop = asyncio.get_running_loop()
        isolated = self.executor.isolated

        async def run_one(i: int) -> tuple[int, tuple]:
            if isolated:
                raw = await asyncio.wrap_future(submit(i))
            else:
                # In-process executors evaluate inside submit(); keep that
                # off the event loop thread.
                future = await loop.run_in_executor(None, submit, i)
                # repro: allow[async-purity] inline executors complete the
                # future inside submit() itself, which just ran to the end
                # in the executor thread — result() is an immediate read.
                raw = future.result()
            return i, decode(i, raw)

        def launch(i: int) -> asyncio.Task:
            task = asyncio.ensure_future(run_one(i))
            if gate is not None:
                task.add_done_callback(lambda _t: gate.release())
            return task

        in_flight: set[asyncio.Task] = set()
        acquiring: asyncio.Task | None = None
        next_shard = 0
        try:
            while next_shard < len(shards) or in_flight or acquiring:
                if next_shard < len(shards) and len(in_flight) < width \
                        and acquiring is None:
                    if gate is None:
                        in_flight.add(launch(next_shard))
                        next_shard += 1
                        continue
                    acquiring = asyncio.ensure_future(gate.acquire())
                wait_for = in_flight | ({acquiring} if acquiring else set())
                done, _ = await asyncio.wait(
                    wait_for, return_when=asyncio.FIRST_COMPLETED)
                if acquiring is not None and acquiring.done():
                    done.discard(acquiring)
                    # repro: allow[async-purity] the task is .done(); this
                    # result() cannot wait, it only surfaces failures.
                    acquiring.result()
                    acquiring = None
                    in_flight.add(launch(next_shard))
                    next_shard += 1
                for task in done:
                    in_flight.discard(task)
                    # repro: allow[async-purity] asyncio.wait returned the
                    # task in its done set — result() is an immediate read.
                    i, answers = task.result()
                    yield ShardAnswer(i, shards[i].indices, answers)
        finally:
            if acquiring is not None and not acquiring.cancel() \
                    and not acquiring.cancelled() \
                    and acquiring.exception() is None:
                # The slot was acquired but its shard never launched.
                gate.release()
            for task in in_flight:
                task.cancel()

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
        return WorkloadResult(workload, tuple(answers), self.executor.name,
                              n_shards)

    async def first_answer(self, workload: Workload) -> ShardAnswer:
        """The earliest completed shard (the streamed-latency probe).

        Remaining in-flight shards are cancelled where possible; answers
        already computed are simply discarded.
        """
        stream = self.stream(workload)
        try:
            async for shard_answer in stream:
                return shard_answer
        finally:
            await stream.aclose()
        raise ValueError("workload has no shards")

    def __repr__(self) -> str:
        return f"<AsyncBatchEvaluator executor={self.executor.name}>"
