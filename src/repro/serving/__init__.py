"""repro.serving — the batched, sharded evaluation service atop the engine.

The paper's learners converge by re-evaluating an evolving hypothesis
against *fixed* instances after every user interaction; :mod:`repro.engine`
made one such evaluation cheap.  This package fans that seam out: because
per-instance indexes are independent, a workload — one hypothesis over many
documents or graphs, one instance under many queries, or any mix — slices
into per-instance **shards** that evaluate independently and merge back in
item order.  The interactive sessions route their per-interaction
re-evaluation loops through this service, and executors decide where the
shards run without changing a single answer.

Architecture
------------
:class:`~repro.serving.workload.Workload` /
:class:`~repro.serving.workload.WorkloadResult`
    An ordered, immutable batch of evaluation items and its
    position-aligned answers.  ``Workload.twig(query, documents)``,
    ``Workload.twig_queries(queries, document)``, ``Workload.rpq(...)``,
    ``Workload.accepts(...)`` build the common shapes; ``+`` concatenates.

:class:`~repro.serving.executors.SerialExecutor`,
:class:`~repro.serving.executors.ProcessExecutor`
    Pluggable, order-preserving shard runners: inline against the
    caller's engine, or a persistent process pool fed picklable
    :class:`~repro.serving.evaluator.ShardTask` records whose workers
    return identity-free answers (pre-order positions, vertex pairs,
    booleans).

:class:`~repro.serving.evaluator.BatchEvaluator`
    The service: shards a workload, hoists per-query work (canonical
    forms) out of the per-item loop, runs shard chunks on the executor,
    and decodes worker answers against its own engine's snapshots.
    ``run`` returns the position-aligned result and ``run_stream``
    surfaces answers shard-by-shard (completion order, position-tagged)
    instead of waiting on the whole batch.  The membership shapes the
    learners call (``selects*``, ``accepts*``, ``map*``) are built once
    on these two, by :class:`~repro.learning.backend.EvaluationBackend`.

:class:`~repro.serving.async_evaluator.AsyncBatchEvaluator`
    The asyncio facade: the same workloads, shards, and executors driven
    from an event loop without blocking it; ``stream()`` is an async
    generator of :class:`~repro.serving.workload.ShardAnswer` records and
    ``run()`` is the deterministic ordered merge.

:class:`~repro.serving.net.WorkloadServer` /
:class:`~repro.serving.net.ServerThread` /
:class:`~repro.serving.net.WorkloadClient`
    The network front-end: a pickle-free length-prefixed JSON protocol
    (:mod:`repro.serving.wire`) over ``asyncio.start_server``, streaming
    shard frames as they complete; the blocking client decodes answers
    onto its *own* instances (twig answers by pre-order position), so a
    remote run is answer-identical to a local one.

:class:`~repro.serving.instance_cache.InstanceStore`
    The server's content-addressed instance cache: decoded documents and
    graphs keyed by structural digest
    (:func:`~repro.serving.wire.instance_digest`), shared across
    connections, bounded LRU by encoded size.  Clients send ``ref``
    records for digests the server holds — the corpus ships once, its
    indexes stay warm, and an eviction is repaired by one
    ``need_instances`` round trip instead of an error.

Contracts
---------
* **Parity**: ``run(workload).answers[i]`` equals the serial engine call
  for item ``i`` — same node objects, same document order — on every
  executor.
* **Shard snapshot consistency**: each shard resolves its instance index
  once, so a concurrent mutation lands fully before or fully after any
  given shard, never inside it (the process executor, which cannot share
  snapshots with workers, detects a mid-batch mutation and raises instead
  of decoding positions across versions).
* **Determinism**: answers merge by item position; executor scheduling
  cannot reorder or change results, so sessions behave identically under
  any executor.

Typical use::

    from repro.serving import BatchEvaluator, ProcessExecutor, Workload

    with ProcessExecutor(max_workers=4) as executor:
        evaluator = BatchEvaluator(executor=executor)
        result = evaluator.run(Workload.twig(h1, docs)
                               + Workload.rpq(r, graphs))
        for shard_answer in evaluator.run_stream(Workload.twig(h2, docs)):
            ...  # per-shard answers, in completion order
"""

from repro.serving.async_evaluator import AsyncBatchEvaluator
from repro.serving.evaluator import BatchEvaluator, ShardTask
from repro.serving.faults import (
    ChaosProxy,
    KillAfter,
    Refuse,
    Stall,
    Truncate,
    periodic_plan,
    seeded_plan,
)
from repro.serving.fleet import Fleet, FleetRouter, RouterThread
from repro.serving.executors import (
    ProcessExecutor,
    SerialExecutor,
    ShardExecutor,
)
from repro.serving.instance_cache import InstanceStore
from repro.serving.net import (
    EndpointThread,
    ServerThread,
    ShardGate,
    WorkloadClient,
    WorkloadServer,
)
from repro.serving.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    ServiceUnavailable,
)
from repro.serving.ring import HashRing
from repro.serving.wire import (
    NeedInstances,
    ProtocolError,
    RemoteError,
    TransportError,
    WorkloadCodec,
    instance_digest,
)
from repro.serving.workload import (
    ItemKind,
    Shard,
    ShardAnswer,
    Workload,
    WorkloadItem,
    WorkloadResult,
)

__all__ = [
    "AsyncBatchEvaluator",
    "BatchEvaluator",
    "ChaosProxy",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "EndpointThread",
    "Fleet",
    "FleetRouter",
    "HashRing",
    "InstanceStore",
    "KillAfter",
    "RouterThread",
    "ItemKind",
    "NeedInstances",
    "ProcessExecutor",
    "ProtocolError",
    "Refuse",
    "RemoteError",
    "RetryPolicy",
    "SerialExecutor",
    "ServerThread",
    "ServiceUnavailable",
    "Shard",
    "ShardAnswer",
    "ShardExecutor",
    "ShardGate",
    "ShardTask",
    "Stall",
    "TransportError",
    "Truncate",
    "Workload",
    "WorkloadClient",
    "WorkloadCodec",
    "WorkloadItem",
    "WorkloadResult",
    "WorkloadServer",
    "instance_digest",
    "periodic_plan",
    "seeded_plan",
]
