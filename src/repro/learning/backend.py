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
    whole candidate generations shard per instance, and streamed shapes
    surface answers shard-by-shard.  The default of every learner and
    session.

:class:`RemoteBackend`
    Wraps a :class:`~repro.serving.net.WorkloadClient`, so any learner
    or interactive session runs **unmodified** against a TCP serving
    tier — one :class:`~repro.serving.net.WorkloadServer` or a
    :class:`~repro.serving.fleet.Fleet` behind its router.  Remote
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
the ``run``/``stream`` primitives — so answer grouping, position
alignment, and ``None``-hypothesis semantics are identical across
backends by construction, not by parallel re-implementation.  There is
one shard evaluator, :class:`~repro.serving.evaluator.BatchEvaluator`:
:class:`LocalBackend` runs it in-process, and a server runs it behind
:class:`RemoteBackend`.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from collections.abc import Callable, Iterator, Sequence
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
    "LRUCache",
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

    Subclasses implement the primitives ``_run`` / ``_stream`` (and may
    override the acceptance probes with cheaper equivalents, as the
    remote backend does); everything else — the selects / accepts
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
        #: remote backend shares one registry across its whole connection
        #: pool, which is what makes a session ship each instance once.
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
    # Primitives (subclass responsibility)
    # ------------------------------------------------------------------
    def _run(self, workload: Workload) -> WorkloadResult:
        raise NotImplementedError

    def _stream(self, workload: Workload) -> Iterator[ShardAnswer]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The workload surface
    # ------------------------------------------------------------------
    def run(self, workload: Workload) -> WorkloadResult:
        """Evaluate every item; answers aligned with item order."""
        self._batches += 1
        self._items += len(workload)
        served = self._serve_prefetched(workload)
        if served is not None:
            answers: list = [None] * len(workload)
            for shard_answer in served:
                for position, answer in shard_answer:
                    answers[position] = answer
            return WorkloadResult(workload, tuple(answers), self.name,
                                  len(served))
        return self._run(workload)

    def evaluate_batch(self, workload: Workload) -> WorkloadResult:
        """Protocol name for :meth:`run` — one candidate generation in,
        position-aligned answers out (sharded per instance)."""
        return self.run(workload)

    def stream(self, workload: Workload) -> Iterator[ShardAnswer]:
        """Yield per-shard answers as they complete (completion order)."""
        self._batches += 1
        self._items += len(workload)
        served = self._serve_prefetched(workload)
        if served is not None:
            return iter(served)
        return self._stream(workload)

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
        result = self._run(workload)
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

    def selects_stream(
        self, query: TwigQuery | None, candidates: Sequence[Candidate],
    ) -> Iterator[list[tuple[int, bool]]]:
        """Stream :meth:`selects_batch` flags document-by-document.

        Yields ``[(candidate_position, selected), ...]`` groups as each
        document's shard completes; the union of groups covers every
        position exactly once with flags equal to :meth:`selects_batch`.
        Only group arrival order depends on the backend.
        """
        if not candidates:
            return
        if query is None:
            yield [(i, False) for i in range(len(candidates))]
            return
        documents, positions = _group_by_document(candidates)
        for shard_answer in self.stream(Workload.twig(query, documents)):
            out: list[tuple[int, bool]] = []
            for doc_position, answer in shard_answer:
                selected = {id(n) for n in answer}
                for i in positions[id(documents[doc_position])]:
                    out.append((i, id(candidates[i][1]) in selected))
            yield out

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

    def accepts_stream(
        self, query: object, words: Sequence[Sequence[str]],
    ) -> Iterator[list[tuple[int, bool]]]:
        """Stream :meth:`accepts_batch` flags sub-shard by sub-shard."""
        for shard_answer in self.stream(Workload.accepts(query, words)):
            yield list(shard_answer)

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

    def map_stream(self, fn: Callable[[Any], Any], items: Sequence[Any],
                   ) -> Iterator[list[tuple[int, Any]]]:
        """Stream :meth:`map` results group-at-a-time (position-tagged)."""
        self._map_calls += 1
        items = list(items)
        if not items:
            return
        n_groups = min(4, len(items))
        base, extra = divmod(len(items), n_groups)
        start = 0
        for g in range(n_groups):
            size = base + (1 if g < extra else 0)
            yield [(i, fn(items[i])) for i in range(start, start + size)]
            start += size

    # ------------------------------------------------------------------
    # Hypothesis construction (always client-side)
    # ------------------------------------------------------------------
    def canonical_query(self, tree: XTree, node: XNode) -> TwigQuery:
        """Most specific twig selecting ``node`` (cached, copied)."""
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

    def _run(self, workload: Workload) -> WorkloadResult:
        result = self.evaluator.run(workload)
        self._shards += result.n_shards
        return result

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
    """Evaluate against a TCP serving tier through workload clients.

    All hypothesis *evaluation* crosses the wire; answers decode onto
    the caller's own objects, so learners see node identity exactly as
    they would locally.  Hypothesis construction (canonical queries,
    pool enumeration) and :meth:`map` closures stay client-side — they
    operate on local data and never serialise.

    The backend keeps a small **connection pool**: each in-flight
    request checks a connection out and returns it when its response
    stream is consumed or abandoned.  The interactive sessions need this
    — they fire implied-negative probes *while* consuming a streamed
    classification round, i.e. nested requests during an active
    response, which one serial connection cannot interleave.  Pool size
    is bounded by the request nesting depth (two for every session in
    the library).

    Instances are **shipped once per backend**: one
    :attr:`~EvaluationBackend.known_digests` registry spans the whole
    pool, so whichever pooled connection carries a round, instances the
    server already holds travel as content-addressed refs.  The registry
    is optimistic — a server-side eviction surfaces as one transparent
    ``need_instances`` re-ship, never an error — and
    :meth:`warm_instances` pre-ships a corpus so even the first round
    sends refs.  :meth:`stats` reports the bytes the refs saved.

    Single-word :meth:`accepts` probes are memoised client-side (they
    are pure in ``(query, word)``), so oracle-style repeated probes do
    not pay a round trip each; :meth:`accepts_any` short-circuits by
    abandoning the response stream at the first accepted word (the
    protocol drains the remainder before that connection's next use).

    Construct with ``RemoteBackend(host, port)`` (owns its connections;
    ``close()`` closes them all) or ``RemoteBackend(client=...)`` to
    seed the pool with a caller-managed client — ``close()`` then closes
    only the extra connections the backend itself opened.

    The peer can be a single :class:`~repro.serving.net.WorkloadServer`
    **or** a :class:`~repro.serving.fleet.FleetRouter` — the router
    speaks the identical protocol, so pointing a backend at a fleet
    changes where shards evaluate and nothing else: same learned query,
    same question sequence, same node objects.  Fleet failover and
    member drains are invisible here too; at worst a round pays one
    extra ``need_instances`` re-ship for a digest that moved.

    The backend is **self-healing by default**: pool connections carry a
    :class:`~repro.serving.resilience.RetryPolicy` (bounded backoff,
    seeded jitter), so a connection killed mid-round reconnects and
    replays transparently — and every reconnect clears
    :attr:`~EvaluationBackend.known_digests`, so a server that restarted
    with an empty store is re-shipped the corpus instead of being sent
    refs it cannot resolve (pass ``retry=None`` explicitly for the old
    fail-fast behaviour).  A :class:`~repro.serving.resilience.CircuitBreaker`
    sits in front of the pool: after ``failure_threshold`` consecutive
    failed rounds, requests fail fast with
    :class:`~repro.errors.ServiceUnavailable` instead of each paying the
    full dial-and-retry cost, and after its cooldown one checkout probes
    the peer with a ``ping`` before the pool resumes.  ``request_deadline``
    (seconds) gives every round a per-request
    :class:`~repro.serving.resilience.Deadline` budget, flowing into
    socket timeouts and the wire ``deadline_ms`` field so the server can
    shed work nobody is waiting for.  Broken connections are evicted
    from the pool at check-in (their counters fold into :meth:`stats`,
    which also reports ``retries``/``reconnects``/``replays`` and the
    breaker state).
    """

    name = "remote"

    #: Sentinel: "no retry argument given" (``None`` must mean *disable*).
    _DEFAULT_RETRY = object()

    def __init__(self, host: str | None = None, port: int | None = None, *,
                 client: WorkloadClient | None = None,
                 engine: Engine | None = None,
                 timeout: float | None = 30.0,
                 retry: "RetryPolicy | None | object" = _DEFAULT_RETRY,
                 breaker: CircuitBreaker | None = None,
                 request_deadline: float | None = None) -> None:
        self._timeout = timeout
        if retry is RemoteBackend._DEFAULT_RETRY:
            retry = RetryPolicy()
        self._retry: RetryPolicy | None = retry  # type: ignore[assignment]
        self._breaker = breaker if breaker is not None else CircuitBreaker()
        self._request_deadline = request_deadline
        # Counters of evicted (broken) pool connections, folded into
        # stats() so eviction never under-reports traffic.
        self._retired = {"connections": 0, "requests": 0, "bytes_sent": 0,
                         "bytes_received": 0, "instances_shipped": 0,
                         "bytes_saved": 0, "retries": 0, "reconnects": 0,
                         "replays": 0}
        if client is not None:
            if host is not None or port is not None:
                raise ValueError("pass host/port or a ready client, not both")
            if client.closed:
                raise RuntimeError(
                    "client is closed; pass an open WorkloadClient")
            self.client = client
            self._own_primary = False
            peer = client._sock.getpeername()
            self._host, self._port = peer[0], peer[1]
            # Extra pool connections must behave like the seeded one: a
            # 30s default here would time out nested probes on servers
            # the caller deliberately gave a longer (or no) deadline.
            self._timeout = client._sock.gettimeout()
        else:
            if host is None or port is None:
                raise ValueError("RemoteBackend needs host and port "
                                 "(or a ready client)")
            self._host, self._port = host, port
            self.client = self._dial()
            self._own_primary = True
        super().__init__(engine=engine)
        self._accepts_memo = LRUCache(8192)
        self._closed = False
        # Every connection ever opened (for aggregate counters) and the
        # subset currently idle (for reuse).  The primary seeds the pool.
        self._clients: list[WorkloadClient] = [self.client]
        self._idle: list[WorkloadClient] = [self.client]

    # -- connection pool ------------------------------------------------
    def _dial(self, host: str | None = None,
              port: int | None = None) -> WorkloadClient:
        return WorkloadClient(
            host if host is not None else self._host,
            port if port is not None else self._port,
            timeout=self._timeout, retry=self._retry,
            on_reconnect=self._note_reconnect)

    def _note_reconnect(self) -> None:
        """A pool connection re-dialed: distrust the digest registry.

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

    def _checkout(self) -> WorkloadClient:
        if self._closed:
            raise RuntimeError("backend is closed; construct a new one")
        probe = False
        if self._breaker is not None:
            probe = self._breaker.state == "half_open"
            self._breaker.guard(f"{self._host}:{self._port}")
        try:
            client = None
            while self._idle:
                candidate = self._idle.pop()
                if not candidate.closed and not candidate._broken:
                    client = candidate
                    break
                self._evict(candidate)
            if client is None:
                client = self._dial()
                self._clients.append(client)
            if probe:
                # Half-open: prove the peer answers before letting the
                # round (and its retry budget) through.
                client.ping()
        except Exception:
            if self._breaker is not None:
                self._breaker.record_failure()
            raise
        if probe and self._breaker is not None:
            self._breaker.record_success()
        return client

    def _evict(self, client: WorkloadClient) -> None:
        """Drop a dead connection from the pool, keeping its counters."""
        if client in self._clients:
            self._clients.remove(client)
            self._retired["connections"] += 1
            self._retired["requests"] += client.requests
            self._retired["bytes_sent"] += client.bytes_sent
            self._retired["bytes_received"] += client.bytes_received
            self._retired["instances_shipped"] += client.instances_shipped
            self._retired["bytes_saved"] += client.bytes_saved
            self._retired["retries"] += client.retries
            self._retired["reconnects"] += client.reconnects
            self._retired["replays"] += client.replays
        if client is not self.client or self._own_primary:
            client.close()

    def _checkin(self, client: WorkloadClient) -> None:
        if self._breaker is not None and not self._closed:
            if client._broken or client.closed:
                self._breaker.record_failure()
            else:
                self._breaker.record_success()
        if client.closed:
            self._evict(client)
            return
        if client._broken:
            self._evict(client)
            return
        self._idle.append(client)

    def _run(self, workload: Workload) -> WorkloadResult:
        client = self._checkout()
        try:
            return client.run(workload, known_digests=self.known_digests,
                              deadline=self._deadline())
        finally:
            self._checkin(client)

    def _stream(self, workload: Workload) -> Iterator[ShardAnswer]:
        client = self._checkout()
        try:
            yield from client.stream(workload,
                                     known_digests=self.known_digests,
                                     deadline=self._deadline())
        finally:
            # Runs on completion, on abandonment (generator close), and
            # on error; an abandoned response drains on next checkout.
            self._checkin(client)

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
        client = self._checkout()
        try:
            shipped = client.put_instances(
                to_ship, known_digests=self.known_digests)
        finally:
            self._checkin(client)
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
        for group in self.accepts_stream(query, words):
            for position, accepted in group:
                self._accepts_memo.put(
                    (query_key(query), words[position]), accepted)
            if any(accepted for _, accepted in group):
                return True
        return False

    def prefetch(self, workload: Workload) -> int:
        """Ship the round prefetch-flagged instead of parking it locally.

        The server evaluates the flagged workload — warming its engine
        indexes and per-query caches — and parks the items' keys in its
        prefetch ledger.  The real round re-sends the same items, so the
        server's submitted/hits/wasted block (the wire ``stats`` frame
        and ``GET /stats``) stays truthful; answers are deliberately
        *not* parked client-side, since serving the real round locally
        would hide the hit from the server's ledger.
        """
        if not len(workload):
            return 0
        self._prefetch_counts["submitted"] += len(workload)
        client = self._checkout()
        try:
            client.run(workload, known_digests=self.known_digests,
                       prefetch=True)
        finally:
            self._checkin(client)
        return len(workload)

    def stats(self) -> dict[str, object]:
        retired = self._retired
        out = {**super().stats(),
               "connections": len(self._clients) + retired["connections"],
               "round_trips": retired["requests"] + sum(
                   c.requests for c in self._clients),
               "bytes_sent": retired["bytes_sent"] + sum(
                   c.bytes_sent for c in self._clients),
               "bytes_received": retired["bytes_received"] + sum(
                   c.bytes_received for c in self._clients),
               "instances_shipped": retired["instances_shipped"] + sum(
                   c.instances_shipped for c in self._clients),
               "bytes_saved": retired["bytes_saved"] + sum(
                   c.bytes_saved for c in self._clients),
               "retries": retired["retries"] + sum(
                   c.retries for c in self._clients),
               "reconnects": retired["reconnects"] + sum(
                   c.reconnects for c in self._clients),
               "replays": retired["replays"] + sum(
                   c.replays for c in self._clients),
               "evicted_connections": retired["connections"],
               "breaker": None if self._breaker is None
               else self._breaker.stats(),
               "breaker_state": None if self._breaker is None
               else self._breaker.state,
               "known_digests": len(self.known_digests)}
        try:
            client = self._checkout()
            try:
                out["server"] = client.stats()
            finally:
                self._checkin(client)
        except Exception as exc:  # noqa: BLE001 - stats must stay best-effort
            out["server"] = {"error": str(exc)}
        server = out["server"]
        if isinstance(server, dict) \
                and isinstance(server.get("prefetch"), dict):
            # Hit accounting lives server-side on this backend (the
            # ledger sees both the flagged and the real frames).
            out["prefetch"] = {**out["prefetch"],  # type: ignore[dict-item]
                               "hits": server["prefetch"].get("hits", 0),
                               "wasted": server["prefetch"].get("wasted", 0)}
        return out

    def close(self) -> None:
        """Close pooled connections; further evaluation calls raise.

        A caller-supplied primary client is left open (the caller owns
        it); every connection the backend dialled itself is closed.
        """
        self._closed = True
        for client in self._clients:
            if client is self.client and not self._own_primary:
                continue
            client.close()
        self._idle = []


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
