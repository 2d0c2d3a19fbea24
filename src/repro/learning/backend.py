"""The pluggable evaluation seam every learner runs through.

The paper's learning algorithms are defined purely in terms of membership
answers — *which nodes does this hypothesis select?  does this path query
accept this word?* — so the learning layer never needs to know **where**
those answers are computed.  :class:`EvaluationBackend` is that seam: the
only way learning code evaluates a hypothesis, with two interchangeable
implementations:

:class:`LocalBackend`
    In-process evaluation on the caller's thread against one
    :class:`~repro.engine.core.Engine` (indexes and memos shared and
    warm), through a :class:`~repro.serving.evaluator.BatchEvaluator`:
    whole candidate generations shard per instance, and :meth:`stream`
    surfaces answers shard by shard.  The default of every learner and
    session.

:class:`RemoteBackend`
    Wraps a :class:`~repro.serving.net.WorkloadClient`, so any learner
    or interactive session runs **unmodified** against a
    :class:`~repro.serving.net.WorkloadServer` over TCP.  Remote
    answers decode by pre-order position onto the caller's own node
    objects, so they are object-identical to a local run — the
    backend-invariance contract the tests pin: the learned query, the
    question sequence, and the returned nodes are the same on every
    backend.

Every backend exposes the same surface: the workload primitives
(:meth:`~EvaluationBackend.evaluate_batch`, :meth:`~EvaluationBackend.stream`),
the membership shapes learners actually call (``selects*``, ``accepts*``),
an order-preserving :meth:`~EvaluationBackend.map` for non-engine scans
(join-predicate agreement sets, semijoin witness sets), hypothesis
*construction* helpers (:meth:`~EvaluationBackend.canonical_query`,
:meth:`~EvaluationBackend.words_between` — always computed client-side:
they build the hypothesis/pool from local data, they do not evaluate it),
and end-to-end observability: :meth:`~EvaluationBackend.stats` reports
batch/item counts plus backend-specific detail (shard counts and engine
cache hit rates locally, round-trips + bytes + live server-side engine
stats remotely).

The derived membership shapes are implemented **once**, here, on top of
one primitive, ``_stream`` — ``run`` assembles it — so answer grouping,
position alignment, and ``None``-hypothesis semantics are identical
across backends by construction, not by parallel re-implementation.
Every membership shape is one complete request: a caller reads a whole
response before it starts the next, so a backend needs one connection
and serves one thread at a time.  There is one shard evaluator,
:class:`~repro.serving.evaluator.BatchEvaluator`: :class:`LocalBackend`
runs it in-process, and a server runs it behind :class:`RemoteBackend`.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from typing import Any

from repro.engine import Engine, LRUCache, get_engine
from repro.engine.graph import query_key
from repro.graphdb.graph import Graph, VertexId
from repro.serving.evaluator import BatchEvaluator
from repro.serving.net import WorkloadClient
from repro.serving.resilience import CircuitBreaker, Deadline, RetryPolicy
from repro.serving.wire import (
    encode_path_query,
    encode_twig_query,
    instance_fingerprint,
)
from repro.serving.workload import (
    ItemKind,
    ShardAnswer,
    Workload,
    WorkloadItem,
    WorkloadResult,
)
from repro.twig.ast import TwigQuery
from repro.xmltree.tree import XNode, XTree

Word = tuple[str, ...]
Candidate = tuple[XTree, XNode]

__all__ = [
    "EvaluationBackend",
    "LocalBackend",
    "RemoteBackend",
    "Workload",
    "as_backend",
    "candidate_pair_flags",
    "candidate_workload",
    "distinct_documents",
]


def _group_by_document(
    candidates: Sequence[Candidate],
) -> tuple[list[XTree], dict[int, list[int]]]:
    """Distinct documents (first-occurrence order) plus, per document,
    the candidate positions living in it — the document-identity
    grouping of every ``selects*`` membership shape."""
    documents: list[XTree] = []
    positions: dict[int, list[int]] = {}
    for i, (tree, _) in enumerate(candidates):
        group = positions.get(id(tree))
        if group is None:
            positions[id(tree)] = group = []
            documents.append(tree)
        group.append(i)
    return documents, positions


def distinct_documents(candidates: Sequence[Candidate]) -> list[XTree]:
    """The distinct documents of ``(tree, node)`` pairs, in order."""
    return _group_by_document(candidates)[0]


def _classify(candidates: Sequence[Candidate], documents: Sequence[XTree],
              answers: Sequence[Sequence[XNode]]) -> list[bool]:
    """Per-candidate selection flags from per-document answer sets."""
    selected: dict[int, set[int]] = {
        id(doc): {id(n) for n in answer}
        for doc, answer in zip(documents, answers)
    }
    return [id(node) in selected[id(tree)] for tree, node in candidates]


def candidate_workload(queries: Sequence[TwigQuery],
                       documents: Sequence[XTree]) -> Workload:
    """One workload for a whole candidate generation: every query over
    every document, grouped per query — the answer for query ``k`` on
    document ``d`` sits at position ``k * len(documents) + d``.  Built
    in one linear pass (no quadratic ``Workload + Workload`` folding)
    and sharded per document by every backend.  Decode
    the result with :func:`candidate_pair_flags`, which owns the other
    half of the layout invariant."""
    return Workload(WorkloadItem(ItemKind.TWIG, query, doc)
                    for query in queries for doc in documents)


def candidate_pair_flags(answers: Sequence, n_queries: int,
                         documents: Sequence[XTree],
                         pairs: Sequence[Candidate]) -> list[list[bool]]:
    """Decode a :func:`candidate_workload` result into membership flags:
    ``flags[k][j]`` is whether candidate query ``k`` selects
    ``pairs[j]``.  The single consumer of the workload's query-major
    position layout — learners never index ``answers`` directly."""
    flags: list[list[bool]] = []
    for k in range(n_queries):
        block = answers[k * len(documents):(k + 1) * len(documents)]
        flags.append(_classify(pairs, documents, block))
    return flags


def _prefetch_key(item: WorkloadItem) -> str | None:
    """A value-based identity for one workload item, or ``None``.

    Keys pair the wire encoding of the query with the *content digest*
    of the instance (memoised per version by
    :func:`~repro.serving.wire.instance_fingerprint`), so a parked
    speculative answer can never serve a mutated instance — the digest
    changes with the version.  ``None`` means unkeyable (never parked,
    never served).
    """
    try:
        if item.kind is ItemKind.TWIG:
            payload: dict = {"k": "twig",
                             "q": encode_twig_query(item.query),
                             "i": instance_fingerprint(item.instance)[0]}
        elif item.kind is ItemKind.RPQ:
            payload = {"k": "rpq", "q": encode_path_query(item.query),
                       "i": instance_fingerprint(item.instance)[0],
                       "s": None if item.sources is None
                       else [repr(v) for v in item.sources]}
        else:
            payload = {"k": "accepts", "q": encode_path_query(item.query),
                       "w": list(item.word)}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except Exception:  # noqa: BLE001 - unkeyable item, not an error
        return None


class EvaluationBackend:
    """Where hypotheses get evaluated; the learning layer's only seam.

    Subclasses implement the one primitive ``_stream`` (and may override
    the acceptance probes with cheaper equivalents, as the remote
    backend does); everything else — ``run``, the selects / accepts
    membership shapes, ``map``, position-aligned grouping, ``None``
    hypothesis semantics — is derived here once, identically for every
    backend.  Backends are context managers; ``close()`` releases any
    resources the backend itself constructed.
    """

    name = "abstract"

    #: Bound on parked speculative answers; overflow ages out FIFO and
    #: counts as waste (a prefetch nobody asked about).
    PREFETCH_CAP = 1024

    def __init__(self, *, engine: Engine | None = None) -> None:
        #: Client-side engine for hypothesis *construction* (canonical
        #: queries, candidate-path enumeration) — never remote.
        self.engine = engine if engine is not None else get_engine()
        #: Content-addressing registry: digests of instances the
        #: backend's evaluation tier already holds.  The local backend
        #: evaluates in-process against the caller's own objects,
        #: so the registry stays empty (there is nothing to ship); the
        #: remote backend keeps it for its connection, which is what
        #: makes a session ship each instance once.
        self.known_digests: set[str] = set()
        self._batches = 0
        self._items = 0
        self._map_calls = 0
        #: Speculative answers parked by :meth:`prefetch`, keyed by
        #: value (:func:`_prefetch_key`), consumed once by the first
        #: matching :meth:`run`/:meth:`stream`.
        self._prefetched: "OrderedDict[str, object]" = OrderedDict()
        self._prefetch_counts = {"submitted": 0, "hits": 0, "wasted": 0}

    # ------------------------------------------------------------------
    # The primitive (subclass responsibility)
    # ------------------------------------------------------------------
    def _stream(self, workload: Workload) -> Iterable[ShardAnswer]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The workload surface
    # ------------------------------------------------------------------
    def run(self, workload: Workload) -> WorkloadResult:
        """Evaluate every item; answers aligned with item order."""
        return WorkloadResult.assemble(workload, self.stream(workload))

    def evaluate_batch(self, workload: Workload) -> WorkloadResult:
        """Protocol name for :meth:`run` — one candidate generation in,
        position-aligned answers out (sharded per instance)."""
        return self.run(workload)

    def stream(self, workload: Workload) -> Iterator[ShardAnswer]:
        """Per-shard answers in completion order.

        :class:`LocalBackend` yields each shard as it is evaluated;
        :class:`RemoteBackend` yields once the whole response has
        arrived.
        """
        self._batches += 1
        self._items += len(workload)
        served = self._serve_prefetched(workload)
        if served is not None:
            return iter(served)
        return iter(self._stream(workload))

    # ------------------------------------------------------------------
    # Speculative prefetch
    # ------------------------------------------------------------------
    def prefetch(self, workload: Workload) -> int:
        """Speculatively evaluate ``workload`` and park the answers.

        Sessions call this between interaction rounds with the
        evaluation the next round will most likely ask for (the current
        hypothesis over the still-pending candidates); a later
        :meth:`run`/:meth:`stream` whose items *all* match parked
        answers is served without touching the evaluation tier at all.
        Answers are consumed once and aged out FIFO above
        :attr:`PREFETCH_CAP` (counted as waste); keys carry the
        instance's content digest, so a mutation between prefetch and
        use can never serve stale answers.  Returns the number of items
        submitted.
        """
        if not len(workload):
            return 0
        self._prefetch_counts["submitted"] += len(workload)
        result = WorkloadResult.assemble(workload, self._stream(workload))
        for item, answer in zip(workload, result.answers):
            key = _prefetch_key(item)
            if key is None:
                continue
            self._prefetched[key] = answer
            self._prefetched.move_to_end(key)
        while len(self._prefetched) > self.PREFETCH_CAP:
            self._prefetched.popitem(last=False)
            self._prefetch_counts["wasted"] += 1
        return len(workload)

    def _serve_prefetched(self,
                          workload: Workload) -> list[ShardAnswer] | None:
        """Parked answers for the *whole* workload, shard-shaped, or
        ``None`` when any item misses (all-or-nothing: partial serves
        would still pay the evaluation round trip they exist to save)."""
        if not self._prefetched or not len(workload):
            return None
        keys = [_prefetch_key(item) for item in workload]
        if any(key is None or key not in self._prefetched for key in keys):
            return None
        self._prefetch_counts["hits"] += len(workload)
        answers = [self._prefetched[key] for key in keys]
        for key in set(keys):
            del self._prefetched[key]
        return [ShardAnswer(i, shard.indices,
                            tuple(answers[p] for p in shard.indices))
                for i, shard in enumerate(workload.shards())]

    # ------------------------------------------------------------------
    # Twig membership shapes
    # ------------------------------------------------------------------
    def evaluate_twig_batch(self, query: TwigQuery,
                            documents: Sequence[XTree]) -> list[list[XNode]]:
        """One hypothesis over many documents, in document order each."""
        return list(self.run(Workload.twig(query, documents)).answers)

    def selects(self, query: TwigQuery | None, tree: XTree,
                node: XNode) -> bool:
        """Does ``query`` select precisely ``node``?  (``None``: never.)"""
        if query is None:
            return False
        return self.selects_batch(query, [(tree, node)])[0]

    def selects_batch(self, query: TwigQuery | None,
                      candidates: Sequence[Candidate]) -> list[bool]:
        """Classify each ``(document, node)`` candidate against ``query``.

        The query is evaluated once per *distinct* document; all of a
        document's candidates classify against its answer id-set.
        """
        if query is None or not candidates:
            return [False] * len(candidates)
        documents = distinct_documents(candidates)
        answers = self.evaluate_twig_batch(query, documents)
        return _classify(candidates, documents, answers)

    def selects_any(self, query: TwigQuery | None,
                    candidates: Sequence[Candidate]) -> bool:
        """Does ``query`` select *some* candidate?  Short-circuiting
        one distinct document at a time (the learners' refutation probes
        usually die on an early document)."""
        if query is None:
            return False
        documents, positions = _group_by_document(candidates)
        return any(
            any(self.selects_batch(query,
                                   [candidates[i] for i in positions[id(doc)]]))
            for doc in documents)

    # ------------------------------------------------------------------
    # Path-query membership shapes
    # ------------------------------------------------------------------
    def evaluate_rpq_batch(
        self, query: object, graphs: Sequence[Graph], *,
        sources: Sequence[VertexId] | None = None,
    ) -> list[set[tuple[VertexId, VertexId]]]:
        """One path query over many graphs."""
        return list(self.run(Workload.rpq(query, graphs,
                                          sources=sources)).answers)

    def accepts(self, query: object, word: Sequence[str]) -> bool:
        """Does the query language contain ``word``?"""
        return self.engine.accepts(query, tuple(word))

    def accepts_batch(self, query: object,
                      words: Sequence[Sequence[str]]) -> list[bool]:
        """One path query probed with many words."""
        return list(self.run(Workload.accepts(query, words)).answers)

    def accepts_any(self, query: object,
                    words: Sequence[Sequence[str]]) -> bool:
        """Does the query language contain *some* word?  Short-circuiting."""
        return any(self.accepts(query, tuple(w)) for w in words)

    # ------------------------------------------------------------------
    # Order-preserving map for non-engine scans
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any],
            items: Sequence[Any]) -> list[Any]:
        """Order-preserving map for arbitrary pure per-item work."""
        self._map_calls += 1
        return [fn(item) for item in items]

    # ------------------------------------------------------------------
    # Hypothesis construction (always client-side)
    # ------------------------------------------------------------------
    def canonical_query(self, tree: XTree, node: XNode) -> TwigQuery:
        """Most specific twig selecting ``node``: a cached, read-only view
        shared with every other caller (copy it before rewriting it)."""
        return self.engine.canonical_query(tree, node)

    def words_between(self, graph: Graph, source: VertexId,
                      target: VertexId, *, max_length: int = 12,
                      limit: int | None = None) -> list[Word]:
        """Candidate-pool enumeration for the graph sessions (cached)."""
        return self.engine.words_between(graph, source, target,
                                         max_length=max_length, limit=limit)

    # ------------------------------------------------------------------
    # Content addressing (no-op except on the remote tier)
    # ------------------------------------------------------------------
    def warm_instances(self, instances: Sequence[object]) -> dict[str, int]:
        """Pre-register instances with the backend's evaluation tier.

        A remote backend ships the full records up front (one
        ``put_instances`` round trip), so the session's first evaluation
        round already sends refs; locally there is nothing to ship —
        indexes build lazily on first evaluation — and this is a no-op
        returning zero counters, keeping the call backend-invariant.
        """
        return {"shipped": 0, "bytes": 0}

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Backend-level counters; subclasses add their own detail."""
        return {"backend": self.name, "batches": self._batches,
                "items": self._items, "map_calls": self._map_calls,
                "prefetch": dict(self._prefetch_counts)}

    def reset_stats(self) -> None:
        self._batches = 0
        self._items = 0
        self._map_calls = 0
        self._prefetch_counts = {"submitted": 0, "hits": 0, "wasted": 0}

    def close(self) -> None:
        """Release resources this backend constructed (idempotent)."""

    def __enter__(self) -> "EvaluationBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name}>"


class LocalBackend(EvaluationBackend):
    """In-process evaluation on the caller's thread — every learner's
    and session's default.

    Each shard evaluates inline against one index snapshot of the
    caller's engine, through the same :class:`BatchEvaluator` shard
    evaluator a :class:`~repro.serving.net.WorkloadServer` runs.
    """

    name = "local"

    def __init__(self, engine: Engine | None = None) -> None:
        self.evaluator = BatchEvaluator(engine=engine)
        super().__init__(engine=self.evaluator.engine)
        self._shards = 0

    def _stream(self, workload: Workload) -> Iterator[ShardAnswer]:
        for shard_answer in self.evaluator.run_stream(workload):
            self._shards += 1
            yield shard_answer

    def stats(self) -> dict[str, object]:
        return {**super().stats(), "shards": self._shards,
                "engine": self.engine.stats()}

    def reset_stats(self) -> None:
        super().reset_stats()
        self._shards = 0


class RemoteBackend(EvaluationBackend):
    """Evaluate against a TCP serving tier through one workload client.

    All hypothesis *evaluation* crosses the wire; answers decode onto
    the caller's own objects, so learners see node identity exactly as
    they would locally.  Hypothesis construction (canonical queries,
    pool enumeration) and :meth:`map` closures stay client-side — they
    operate on local data and never serialise.

    The backend holds **one connection**, :attr:`client`: every session
    round is one complete request followed by its probes, and each
    request reads its whole response before it returns, so no request
    ever starts while another's response is still being read.

    Instances are **shipped once per backend**: the
    :attr:`~EvaluationBackend.known_digests` registry records what the
    server holds, so later rounds send content-addressed refs.  The
    registry is optimistic — a server-side eviction surfaces as one
    transparent ``need_instances`` re-ship, never an error — and
    :meth:`warm_instances` pre-ships a corpus so even the first round
    sends refs.  :meth:`stats` reports the bytes the refs saved.
    Speculative answers parked by :meth:`prefetch` serve the next
    matching round with no round trip, as on every backend.

    Single-word :meth:`accepts` probes are memoised client-side (they
    are pure in ``(query, word)``), so oracle-style repeated probes do
    not pay a round trip each; :meth:`accepts_any` sends one batch and
    memoises every verdict.

    Construct with ``RemoteBackend(host, port)`` of a
    :class:`~repro.serving.net.WorkloadServer`; ``close()`` closes the
    connection.

    The backend is **self-healing by default**: its connection carries a
    :class:`~repro.serving.resilience.RetryPolicy` (bounded backoff,
    seeded jitter), so a connection killed mid-round reconnects and
    replays transparently — and every reconnect clears
    :attr:`~EvaluationBackend.known_digests`, so a server that restarted
    with an empty store is re-shipped the corpus instead of being sent
    refs it cannot resolve (pass ``retry=None`` explicitly for the old
    fail-fast behaviour).  A request that stops before its response's
    terminal frame (a transport death, a reply that fails to decode, an
    expired deadline) leaves the connection broken; the next request
    re-dials it in place, so its counters stay in :meth:`stats`.  A
    :class:`~repro.serving.resilience.CircuitBreaker` guards every
    request and counts a request that left the connection broken as
    failed (a server ``error`` frame leaves it aligned, and counts as
    a success): after ``failure_threshold`` consecutive failed
    requests, requests fail fast with
    :class:`~repro.errors.ServiceUnavailable` instead of each paying the
    full dial-and-retry cost, and after its cooldown one request probes
    the peer with a ``ping`` first.  ``request_deadline`` (seconds) gives
    every round a per-request
    :class:`~repro.serving.resilience.Deadline` budget, flowing into
    socket timeouts and the wire ``deadline_ms`` field so the server can
    shed work nobody is waiting for.  :meth:`stats` reports
    ``retries``/``reconnects``/``replays`` and the breaker state.
    """

    name = "remote"

    #: Sentinel: "no retry argument given" (``None`` must mean *disable*).
    _DEFAULT_RETRY = object()

    def __init__(self, host: str, port: int, *,
                 engine: Engine | None = None,
                 timeout: float | None = 30.0,
                 retry: "RetryPolicy | None | object" = _DEFAULT_RETRY,
                 breaker: CircuitBreaker | None = None,
                 request_deadline: float | None = None) -> None:
        super().__init__(engine=engine)
        if retry is RemoteBackend._DEFAULT_RETRY:
            retry = RetryPolicy()
        policy: RetryPolicy | None = retry  # type: ignore[assignment]
        self._breaker = breaker if breaker is not None else CircuitBreaker()
        self._request_deadline = request_deadline
        self._peer = f"{host}:{port}"
        self.client = WorkloadClient(host, port, timeout=timeout,
                                     retry=policy,
                                     on_reconnect=self._note_reconnect)
        self._accepts_memo = LRUCache(8192)
        self._closed = False

    def _note_reconnect(self) -> None:
        """The connection re-dialed: distrust the digest registry.

        The reconnect may mean the server restarted with an empty store;
        clearing makes the next round ship full records (a *running*
        server that merely dropped one connection costs one redundant
        full ship, which the content-addressed store absorbs — the
        ``need_instances`` negotiation would also have covered it, one
        round trip slower).
        """
        self.known_digests.clear()

    def _deadline(self) -> "Deadline | None":
        if self._request_deadline is None:
            return None
        return Deadline.after(self._request_deadline)

    @contextmanager
    def _request(self) -> Iterator[WorkloadClient]:
        """The connection for one request, behind the circuit breaker.

        A broken connection is re-dialed in place first, and a
        half-open breaker pings the peer before the request goes out.
        Afterwards the breaker records a failure if the connection
        broke and a success otherwise.
        """
        if self._closed:
            raise RuntimeError("backend is closed; construct a new one")
        client = self.client
        probe = self._breaker.state == "half_open"
        self._breaker.guard(self._peer)
        try:
            if client._broken:
                client._reconnect()
            if probe:
                client.ping()
            yield client
        finally:
            if not self._closed:
                if client._broken:
                    self._breaker.record_failure()
                else:
                    self._breaker.record_success()

    def _stream(self, workload: Workload) -> list[ShardAnswer]:
        with self._request() as client:
            return client.stream(workload,
                                 known_digests=self.known_digests,
                                 deadline=self._deadline())

    def warm_instances(self, instances: Sequence[object]) -> dict[str, int]:
        """Ship a corpus to the server's store before the first round."""
        fresh: dict[str, int] = {}  # digest -> encoded size, deduplicated
        to_ship = []
        for instance in instances:
            digest, size = instance_fingerprint(instance)
            if digest not in self.known_digests and digest not in fresh:
                fresh[digest] = size
                to_ship.append(instance)
        if not to_ship:
            return {"shipped": 0, "bytes": 0}
        with self._request() as client:
            shipped = client.put_instances(
                to_ship, known_digests=self.known_digests)
        return {"shipped": len(shipped), "bytes": sum(fresh.values())}

    def accepts(self, query: object, word: Sequence[str]) -> bool:
        key = (query_key(query), tuple(word))
        cached = self._accepts_memo.get(key)
        if cached is None:
            cached = self.accepts_batch(query, [tuple(word)])[0]
            self._accepts_memo.put(key, cached)
        return cached

    def accepts_any(self, query: object,
                    words: Sequence[Sequence[str]]) -> bool:
        words = [tuple(w) for w in words]
        verdicts = self.accepts_batch(query, words)
        key = query_key(query)
        for word, accepted in zip(words, verdicts):
            self._accepts_memo.put((key, word), accepted)
        return any(verdicts)

    # The base ledger, bound here too: perfbench wraps RemoteBackend.prefetch.
    prefetch = EvaluationBackend.prefetch

    def stats(self) -> dict[str, object]:
        client = self.client
        out = {**super().stats(),
               "round_trips": client.requests,
               "bytes_sent": client.bytes_sent,
               "bytes_received": client.bytes_received,
               "instances_shipped": client.instances_shipped,
               "bytes_saved": client.bytes_saved,
               "retries": client.retries,
               "reconnects": client.reconnects,
               "replays": client.replays,
               "breaker": self._breaker.stats(),
               "breaker_state": self._breaker.state,
               "known_digests": len(self.known_digests)}
        try:
            with self._request() as client:
                out["server"] = client.stats()
        except Exception as exc:  # noqa: BLE001 - stats must stay best-effort
            out["server"] = {"error": str(exc)}
        return out

    def close(self) -> None:
        """Close the connection; further evaluation calls raise."""
        self._closed = True
        self.client.close()


def as_backend(backend: EvaluationBackend | None = None) -> EvaluationBackend:
    """Resolve the ``backend=`` parameter of every learner and session.

    A ready backend passes through, and ``None`` falls back to a
    :class:`LocalBackend` on the shared engine.
    """
    if backend is None:
        return LocalBackend()
    if isinstance(backend, EvaluationBackend):
        return backend
    raise TypeError(
        f"backend must be an EvaluationBackend, got {type(backend).__name__}")
