"""repro.serving — the batched, sharded evaluation service atop the engine.

The paper's learners converge by re-evaluating an evolving hypothesis
against *fixed* instances after every user interaction; :mod:`repro.engine`
made one such evaluation cheap.  This package fans that seam out: because
per-instance indexes are independent, a workload — one hypothesis over many
documents or graphs, one instance under many queries, or any mix — slices
into per-instance **shards** that evaluate independently and merge back in
item order.  The interactive sessions route their per-interaction
re-evaluation loops through this service; in-process, on a
:class:`~repro.serving.net.WorkloadServer` or across a
:class:`~repro.serving.fleet.Fleet`, the same shard evaluator computes
every answer.

Architecture
------------
:class:`~repro.serving.workload.Workload` /
:class:`~repro.serving.workload.WorkloadResult`
    An ordered, immutable batch of evaluation items and its
    position-aligned answers.  ``Workload.twig(query, documents)``,
    ``Workload.twig_queries(queries, document)``, ``Workload.rpq(...)``,
    ``Workload.accepts(...)`` build the common shapes; ``+`` concatenates.

:class:`~repro.serving.evaluator.BatchEvaluator`
    The service: shards a workload, hoists per-query work (canonical
    forms) out of the per-item loop, and evaluates each shard inline
    against one index snapshot of its engine (``_eval_shard``).
    ``run`` returns the position-aligned result and ``run_stream``
    surfaces answers shard-by-shard (position-tagged) instead of
    waiting on the whole batch.  The membership shapes the
    learners call (``selects*``, ``accepts*``, ``map*``) are built once
    on these two, by :class:`~repro.learning.backend.EvaluationBackend`.

:class:`~repro.serving.async_evaluator.AsyncBatchEvaluator`
    The asyncio facade: the same workloads and shard evaluator driven
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
  for item ``i`` — same node objects, same document order — in-process,
  over a server and over a fleet.
* **Shard snapshot consistency**: each shard resolves its instance index
  once, so a concurrent mutation lands fully before or fully after any
  given shard, never inside it.
* **Determinism**: answers merge by item position; arrival order cannot
  reorder or change results, so sessions behave identically on every
  backend.

Typical use::

    from repro.serving import BatchEvaluator, Workload

    evaluator = BatchEvaluator()
    result = evaluator.run(Workload.twig(h1, docs) + Workload.rpq(r, graphs))
    for shard_answer in evaluator.run_stream(Workload.twig(h2, docs)):
        ...  # per-shard answers, one shard at a time
"""

from repro.serving.async_evaluator import AsyncBatchEvaluator
from repro.serving.evaluator import BatchEvaluator
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
    "ProtocolError",
    "Refuse",
    "RemoteError",
    "RetryPolicy",
    "ServerThread",
    "ServiceUnavailable",
    "Shard",
    "ShardAnswer",
    "ShardGate",
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
