"""The TCP front-end: serve workloads over a socket, stream answers back.

The request/response cycle on one connection::

    client                                server
      |-- workload frame ----------------->|  decode, shard, evaluate
      |<---------------- shard frame ------|  (as each shard completes)
      |<---------------- shard frame ------|
      |<---------------- done frame -------|
      |-- workload frame (instance refs) ->|  content-addressed round
      |<-------- need_instances frame -----|  (only if a digest is gone)
      |-- put_instances frame ------------->|
      |<---------------- shard frame ------|
      ...

Frames are the length-prefixed JSON of :mod:`repro.serving.wire`; a
request that fails to decode or evaluate produces an ``error`` frame
(with the exception text) instead of killing the connection.  A
``{"type": "stats"}`` request frame is answered with one ``stats``
frame carrying the server engine's live cache/index statistics
(:meth:`repro.engine.core.Engine.stats`), the content-addressed
instance-cache counters, and the shard-admission state — the
observability endpoint a remote learner polls through
:meth:`WorkloadClient.stats` (and, when ``stats_port`` is set, a plain
``GET /stats`` HTTP endpoint serves the same JSON to scrapers).  The
server writes each shard frame as soon as the
:class:`~repro.serving.async_evaluator.AsyncBatchEvaluator` stream
yields it; the client reads the whole response, up to its ``done`` or
``error`` frame, before it returns any answer.  Every session round is
one complete request, so a replay after a transport failure re-asks the
whole request.

Instances are content-addressed across the whole tier
(:class:`~repro.serving.instance_cache.InstanceStore`): every decoded
document/graph is stored by structural digest and shared across
connections, so a session ships its corpus **once** — later rounds send
``ref`` records, the store resolves them to the *same* decoded objects,
and the engine serves their warm indexes instead of rebuilding per
round.  Eviction is negotiated, never fatal: a workload referencing an
evicted digest gets one ``need_instances`` frame, the client re-ships,
and the request proceeds.

:class:`WorkloadServer` is the asyncio endpoint (embed it in an existing
event loop via ``await start()`` / ``await aclose()``, or run it
standalone with :func:`serve`).  :class:`ServerThread` runs the same
endpoint on a background thread with its own loop — the harness the
tests, benchmarks, and blocking callers use.  :class:`WorkloadClient` is
the small blocking client: it keeps the original instances it sent, so
decoded twig answers are *its own* node objects in document order —
answer-identical to a local :class:`~repro.serving.evaluator.BatchEvaluator`
run.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from collections.abc import Sequence

from repro.errors import DeadlineExceeded
from repro.serving import timeouts
from repro.serving.async_evaluator import AsyncBatchEvaluator
from repro.serving.instance_cache import InstanceStore
from repro.serving.resilience import Deadline, RetryPolicy
from repro.serving.wire import (
    NeedInstances,
    ProtocolError,
    RemoteError,
    TransportError,
    WorkloadCodec,
    apply_delta_copy,
    apply_delta_to_instance,
    # Not called here: perfbench's traced run wraps delta shipping at
    # this lookup site too, and refuses to start when it is missing.
    delta_record_for,  # noqa: F401
    instance_digest,
    instance_fingerprint,
    read_frame,
    recv_frame_counted,
    send_frame_blocking,
    write_frame,
)
from repro.serving.workload import ShardAnswer, Workload, WorkloadResult


class ShardGate:
    """FIFO admission control: at most ``limit`` shards in flight.

    One gate per server, shared by every connection.  A connection's
    stream evaluates its shards one at a time, so it holds at most one
    slot; over-limit submissions *queue* on the semaphore (asyncio wakes
    waiters first-come-first-served) instead of erroring, and queued
    connections take turns shard by shard — the server's fairness floor.
    ``in_flight`` is observability only.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(
                f"max_inflight_shards must be positive, got {limit!r}")
        self.limit = limit
        # lock-free: mutated only from acquire()/release() on the server's
        # single event-loop thread; cross-thread readers (stats) tolerate
        # a stale read of one int — it is observability, not accounting.
        self.in_flight = 0
        #: Shard admissions refused because the request's deadline had
        #: already passed (at entry, or after queueing for a slot).
        # lock-free: mutated only from acquire() on the event-loop thread.
        self.deadline_sheds = 0
        self._semaphore = asyncio.Semaphore(limit)

    async def acquire(self, deadline: "Deadline | None" = None) -> None:
        if deadline is not None and deadline.expired:
            # Nobody is waiting for this shard anymore: shed it before
            # it queues (let alone occupies) a slot.
            self.deadline_sheds += 1
            raise DeadlineExceeded(
                "request deadline expired before shard admission")
        await self._semaphore.acquire()
        if deadline is not None and deadline.expired:
            # The deadline ran out while this submission was queued for
            # a slot: give the slot straight back and shed the shard.
            self._semaphore.release()
            self.deadline_sheds += 1
            raise DeadlineExceeded(
                "request deadline expired while queued for shard admission")
        self.in_flight += 1

    def release(self) -> None:
        self.in_flight -= 1
        self._semaphore.release()


class WorkloadServer:
    """An ``asyncio.start_server`` endpoint over an async evaluator.

    ``instance_store`` is the content-addressed instance cache (a
    default-sized :class:`~repro.serving.instance_cache.InstanceStore`
    when omitted; pass one to share a corpus across servers or to bound
    its budget).  ``max_inflight_shards`` bounds concurrently evaluating
    shards across *all* connections (queued FIFO over the limit, never
    an error); each connection holds at most one slot at a time.
    ``stats_port`` additionally serves ``GET /stats`` over plain HTTP on
    that port — the same JSON as the wire ``stats`` frame, scrapeable
    with stdlib tooling alone.

    ``ping`` answers ``ok`` — the health probe a client's circuit
    breaker sends before it lets requests through again.
    """

    def __init__(self, evaluator: AsyncBatchEvaluator | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 instance_store: InstanceStore | None = None,
                 max_inflight_shards: int | None = None,
                 stats_port: int | None = None) -> None:
        self.evaluator = evaluator if evaluator is not None \
            else AsyncBatchEvaluator()
        self.host = host
        self.port = port
        self.instance_store = instance_store if instance_store is not None \
            else InstanceStore()
        self._gate = None if max_inflight_shards is None \
            else ShardGate(max_inflight_shards)
        self.stats_port = stats_port
        self._server: asyncio.base_events.Server | None = None
        self._stats_server: asyncio.base_events.Server | None = None
        # lock-free: connection-handler tasks register/unregister on the
        # event-loop thread only; aclose() runs there too.
        self._conn_tasks: set[asyncio.Task] = set()
        # Digests in-flight requests currently evaluate against; the
        # in-place delta applier patches a *copy* while anyone still
        # holds the base.  lock-free: event-loop thread only (appliers
        # run during decode, which happens on the loop).
        self._active_refs: dict[str, int] = {}
        # Workload requests shed whole because their ``deadline_ms`` had
        # already expired on arrival (per-shard sheds are counted by the
        # gate).  lock-free: event-loop thread only.
        self._deadline_sheds = 0

    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        ``port=0`` (the default) binds an ephemeral port — read the
        actual one from the return value or :attr:`port`.  When
        ``stats_port`` was given, the HTTP stats endpoint binds too
        (``stats_port=0`` for an ephemeral one, re-read from
        :attr:`stats_port`).
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._accept(self._handle_connection), self.host, self.port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        if self.stats_port is not None:
            try:
                self._stats_server = await asyncio.start_server(
                    self._accept(self._handle_stats_http), self.host,
                    self.stats_port)
            except BaseException:
                # A failed stats bind must not leak the already-bound
                # workload listener (or leave start() unretryable).
                self._server.close()
                await self._server.wait_closed()
                self._server = None
                raise
            self.stats_port = \
                self._stats_server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    #: How long :meth:`aclose` waits for cancelled connection handlers
    #: to finish before giving up on them (they are daemons of the loop
    #: being torn down anyway — a bounded drain, never an unbounded one).
    #: The number lives in :mod:`repro.serving.timeouts`; this attribute
    #: exists so callers and tests can override it per instance.
    CLOSE_DRAIN_TIMEOUT = timeouts.CLOSE_DRAIN_TIMEOUT

    async def aclose(self, *, drain_timeout: float | None = None) -> None:
        """Stop listening and tear down in-flight connection handlers.

        The listeners (workload and stats) stop accepting first, then
        every live connection-handler task is *cancelled* and awaited for
        at most ``drain_timeout`` seconds (:attr:`CLOSE_DRAIN_TIMEOUT` by
        default) — one stuck client blocked mid-read can therefore never
        hang the close (on 3.12+ ``Server.wait_closed`` waits on
        handlers, which used to wedge forever behind exactly such a
        client).  Every connection a listener accepted is closed, even
        one accepted in the same loop tick as the close.
        """
        if drain_timeout is None:
            drain_timeout = self.CLOSE_DRAIN_TIMEOUT
        listeners = [listener for listener in (self._server,
                                               self._stats_server)
                     if listener is not None]
        self._server = self._stats_server = None
        if not listeners:
            return
        # Stop accepting, then let connections already accepted attach
        # before the listeners close: CPython's ``Server._attach``
        # asserts the server is open, and a connection that trips it
        # keeps its socket open.
        loop = asyncio.get_running_loop()
        for listener in listeners:
            for sock in listener.sockets:
                loop.remove_reader(sock.fileno())
        await asyncio.sleep(0)
        for listener in listeners:
            listener.close()
        # One more tick: their ``connection_made`` starts (and records)
        # the handler tasks cancelled below.
        await asyncio.sleep(0)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.wait(set(self._conn_tasks), timeout=drain_timeout)
        for listener in listeners:
            try:
                await asyncio.wait_for(listener.wait_closed(), drain_timeout)
            except asyncio.TimeoutError:
                # A handler survived cancellation within the budget; the
                # listening socket is closed regardless, and the loop is
                # about to be torn down with whatever is left.
                pass

    # ------------------------------------------------------------------
    def _accept(self, handler):
        """The listener callback that runs ``handler`` per connection.

        A plain callback, not a coroutine, so each handler task is
        recorded before its first step: :meth:`aclose` cancels even a
        handler that never ran, and the done-callback closes the writer
        however the handler ended.
        """

        def accept(reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter) -> None:
            task = asyncio.get_running_loop().create_task(
                handler(reader, writer))
            self._conn_tasks.add(task)

            def finished(task: asyncio.Task) -> None:
                self._conn_tasks.discard(task)
                writer.close()

            task.add_done_callback(finished)

        return accept

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except ProtocolError as exc:
                    # Framing is gone; report and drop the connection.
                    write_frame(writer, {"type": "error",
                                         "message": str(exc)})
                    await writer.drain()
                    break
                if frame is None:
                    break
                await self._serve_request(frame, reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # Loop teardown cancelled the close handshake after the
                # request cycle already finished; the transport is being
                # dropped with the loop, so completing quietly beats
                # surfacing a cancellation nobody can act on.
                pass

    def _delta_applier_for(self, codec: WorkloadCodec):
        """The server's delta applier, bound to one request's codec.

        When nothing else references the base — no in-flight request,
        and not even an earlier record of this same request — the diff
        is replayed *onto the stored instance*: its tracked mutators
        keep the edit log flowing, so the engine patches the warm
        columnar index instead of rebuilding, and the store entry is
        rekeyed from the old digest to the new one.  A contended base
        is patched as a structural copy instead (the default applier),
        leaving concurrent evaluations their consistent snapshot.
        """

        def apply(base: object, delta: dict) -> object:
            from_digest = delta["from"]
            if self._active_refs.get(from_digest, 0) > 0 \
                    or from_digest in codec.resolved_digests():
                return apply_delta_copy(base, delta)
            try:
                apply_delta_to_instance(base, delta)
                digest = instance_digest(base)
                if digest != delta["to"]:
                    raise ProtocolError(
                        f"delta digest mismatch: patched instance hashes "
                        f"to {digest!r}, delta promised {delta['to']!r}")
                return base
            finally:
                # Patched or torn, the stored object no longer matches
                # its old digest; later refs to it must renegotiate.
                self.instance_store.pop(from_digest)

        return apply

    def _stats_payload(self) -> dict:
        """Live server state — one dict, JSON-encodable end to end."""
        out = {
            "engine": self.evaluator.engine.stats(),
            "instance_cache": self.instance_store.stats(),
            "admission": {
                "max_inflight_shards":
                    None if self._gate is None else self._gate.limit,
                "in_flight":
                    0 if self._gate is None else self._gate.in_flight,
            },
            "resilience": {
                "deadline_sheds": self._deadline_sheds + (
                    0 if self._gate is None else self._gate.deadline_sheds),
            },
        }
        return out

    async def _decode_negotiated(self, frame: dict, codec: WorkloadCodec,
                                 reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter,
                                 ) -> Workload | None:
        """Decode a workload frame, negotiating missing instances.

        A decode that trips on unknown digests answers with one
        ``need_instances`` frame and expects exactly one ``put_instances``
        reply; a second miss after the put is the client's bug and
        surfaces as a server error frame (``None`` return means the
        connection is gone and the request cycle is over).
        """
        try:
            return codec.decode_workload(frame, store=self.instance_store)
        except NeedInstances as exc:
            write_frame(writer, {"type": "need_instances",
                                 "digests": exc.digests})
            await writer.drain()
            reply = await read_frame(reader)
            if reply is None:
                return None
            if not (isinstance(reply, dict)
                    and reply.get("type") == "put_instances"):
                raise ProtocolError(
                    f"expected a put_instances frame after need_instances, "
                    f"got {reply!r}")
            codec.decode_put_instances(reply, self.instance_store)
            # One negotiation round only: missing again means the client
            # could not (or refused to) supply the digests it referenced.
            return codec.decode_workload(frame, store=self.instance_store)

    async def _serve_request(self, frame: object,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        kind = frame.get("type") if isinstance(frame, dict) else None
        if kind == "stats":
            # Observability probe: no evaluation, one reply frame with
            # the live engine counters (cache hit rates, index builds),
            # instance-cache counters, and admission state.
            write_frame(writer, {"type": "stats", **self._stats_payload()})
            await writer.drain()
            return
        if kind == "ping":
            # Health probe: alive and reading frames — that is the answer.
            write_frame(writer, {"type": "ok"})
            await writer.drain()
            return
        if kind == "put_instances":
            # Proactive corpus warm-up: store the records, acknowledge.
            try:
                stored = WorkloadCodec().decode_put_instances(
                    frame, self.instance_store)
                write_frame(writer, {"type": "ok", "stored": len(stored)})
            except Exception as exc:  # noqa: BLE001 - surfaced to the peer
                write_frame(writer, {"type": "error", "message": str(exc)})
            await writer.drain()
            return
        if kind is not None:
            # Tagged frames are exhaustively handled above; an unknown
            # tag must not be mistaken for a (type-less) workload frame.
            write_frame(writer, {"type": "error",
                                 "message": f"unsupported request frame "
                                            f"type {kind!r}"})
            await writer.drain()
            return
        # Positions end to end: the evaluator streams pre-order position
        # tuples and the codec copies them straight into shard frames —
        # the server never materialises answer nodes, never enumerates a
        # pre-order snapshot, and never builds an id -> position map per
        # request.  Nodes exist only on the client side of the socket.
        deadline = None
        if isinstance(frame, dict):
            budget_ms = frame.get("deadline_ms")
            if isinstance(budget_ms, (int, float)) and budget_ms >= 0:
                deadline = Deadline.after(budget_ms / 1000.0)
        if deadline is not None and deadline.expired:
            # The budget was spent in transit/queueing: shed the whole
            # request before decoding a single instance.
            self._deadline_sheds += 1
            write_frame(writer, {
                "type": "error", "code": "deadline_exceeded",
                "message": "deadline expired before evaluation began; "
                           "request shed"})
            await writer.drain()
            return
        codec = WorkloadCodec()
        codec.set_delta_applier(self._delta_applier_for(codec))
        stream = None
        held: frozenset[str] = frozenset()
        try:
            workload = await self._decode_negotiated(
                frame, codec, reader, writer)
            if workload is None:
                return
            # Pin this request's digests in the active-ref ledger: a
            # delta arriving on another connection then patches a copy
            # instead of mutating an instance mid-evaluation here.
            held = codec.resolved_digests()
            for digest in held:
                self._active_refs[digest] = \
                    self._active_refs.get(digest, 0) + 1
            n_shards = 0
            stream = self.evaluator.stream(workload, gate=self._gate,
                                           deadline=deadline,
                                           positions_native=True)
            async for shard_answer in stream:
                write_frame(writer, codec.encode_shard_answer(
                    workload, shard_answer))
                await writer.drain()
                n_shards += 1
            write_frame(writer, {"type": "done", "n_shards": n_shards})
        except DeadlineExceeded as exc:
            # Coded so the client surfaces DeadlineExceeded (and never
            # retries it — the time a retry needs is what ran out).
            write_frame(writer, {"type": "error",
                                 "code": "deadline_exceeded",
                                 "message": str(exc)})
        except Exception as exc:  # noqa: BLE001 - surfaced to the peer
            write_frame(writer, {"type": "error", "message": str(exc)})
        finally:
            for digest in held:
                remaining = self._active_refs.get(digest, 0) - 1
                if remaining <= 0:
                    self._active_refs.pop(digest, None)
                else:
                    self._active_refs[digest] = remaining
            if stream is not None:
                # A drain() that died on a disconnected peer abandons the
                # iteration mid-stream; closing the generator leaves the
                # request's remaining shards unevaluated.
                await stream.aclose()
        await writer.drain()

    # ------------------------------------------------------------------
    #: Whole-request read budget and header cap for the stats endpoint:
    #: a scraper is one short GET, so anything slow or bulky is a client
    #: bug (or a port scanner) and gets a 400, not a pinned coroutine.
    STATS_HTTP_TIMEOUT = 10.0
    STATS_HTTP_MAX_HEADERS = 256

    async def _handle_stats_http(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """One-shot ``GET /stats`` over plain HTTP/1.0 (stdlib only)."""

        async def read_request() -> bytes:
            request_line = await reader.readline()
            for _ in range(self.STATS_HTTP_MAX_HEADERS):
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            return request_line

        try:
            try:
                request_line = await asyncio.wait_for(
                    read_request(), self.STATS_HTTP_TIMEOUT)
            except (asyncio.TimeoutError, ValueError):
                # Stalled mid-request, or a line past the stream's
                # buffer limit (LimitOverrunError is a ValueError).
                status, body = "400 Bad Request", b'{"error":"bad request"}'
            else:
                parts = request_line.split()
                path = parts[1].decode("latin-1", "replace") \
                    if len(parts) >= 2 else ""
                if len(parts) >= 2 and parts[0] == b"GET" \
                        and path.partition("?")[0] == "/stats":
                    status, body = "200 OK", json.dumps(
                        self._stats_payload()).encode("utf-8")
                else:
                    status, body = "404 Not Found", b'{"error":"not found"}'
            writer.write(
                (f"HTTP/1.0 {status}\r\n"
                 f"Content-Type: application/json\r\n"
                 f"Content-Length: {len(body)}\r\n"
                 f"Connection: close\r\n\r\n").encode("ascii") + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass


async def serve(*, host: str = "127.0.0.1", port: int = 0,
                **server_options) -> None:
    """Run a workload server until cancelled (module-level entry point).

    Extra keyword options (``instance_store``, ``max_inflight_shards``,
    ``stats_port``) pass through to :class:`WorkloadServer`.
    """
    server = WorkloadServer(AsyncBatchEvaluator(),
                            host=host, port=port, **server_options)
    bound_host, bound_port = await server.start()
    print(f"serving workloads on {bound_host}:{bound_port}", flush=True)
    await server.serve_forever()


class ServerThread:
    """A :class:`WorkloadServer` on a dedicated thread and event loop.

    Lets blocking code (tests, benchmarks, a client process) stand up a
    real TCP server without owning an event loop.  Construction blocks
    until the socket is bound; ``close()`` (or the context manager exit)
    stops the loop and joins the thread with a **bounded** join — a
    close that cannot complete within its timeout raises instead of
    hanging the caller forever behind one stuck connection (the
    server's own ``aclose`` cancels its handlers, so in practice the
    join returns promptly).  Extra keyword options (``instance_store``,
    ``max_inflight_shards``, ``stats_port``) pass through to the
    underlying :class:`WorkloadServer`.
    """

    #: Default bound on the close() join (the number lives in
    #: :mod:`repro.serving.timeouts`; override per instance as needed).
    JOIN_TIMEOUT = timeouts.JOIN_TIMEOUT

    def __init__(self, evaluator: AsyncBatchEvaluator | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 **server_options) -> None:
        self.server = WorkloadServer(evaluator, host=host, port=port,
                                     **server_options)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopped: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serving-net")
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error

    @property
    def address(self) -> tuple[str, int]:
        return self.server.host, self.server.port

    @property
    def stats_address(self) -> tuple[str, int] | None:
        """The HTTP stats endpoint's ``(host, port)``, if one is bound."""
        if self.server.stats_port is None:
            return None
        return self.server.host, self.server.stats_port

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stopped = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:  # noqa: BLE001 - rethrown in ctor
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self._stopped.wait()
            await self.server.aclose()

        asyncio.run(main())

    def close(self, *, timeout: float | None = None) -> None:
        """Stop the loop and join the thread (bounded).  Idempotent.

        Raises :class:`RuntimeError` if the server thread is still
        alive after ``timeout`` seconds (:attr:`JOIN_TIMEOUT` default) —
        a close that silently hangs is strictly worse than one that
        fails loudly with the thread name in hand.
        """
        if timeout is None:
            timeout = self.JOIN_TIMEOUT
        loop, self._loop = self._loop, None
        if loop is not None and self._stopped is not None:
            try:
                loop.call_soon_threadsafe(self._stopped.set)
            except RuntimeError:
                pass  # loop already torn down (e.g. startup failed)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError(
                f"server thread {self._thread.name!r} did not exit "
                f"within {timeout}s of close()")

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class WorkloadClient:
    """The small blocking client of the workload protocol.

    One instance is one TCP connection (reusable across any number of
    requests, context-managed), and every request reads its whole
    response before it returns.  Answers decode against the *original*
    workload objects the caller passed in — twig answers come back as the
    caller's own node objects in document order, so a remote ``run`` is
    answer-identical to a local ``BatchEvaluator.run`` on the same
    workload.

    The client keeps per-connection observability counters —
    :attr:`requests`, :attr:`bytes_sent`, :attr:`bytes_received` — and
    :meth:`stats` asks the server for its live engine statistics (cache
    hit rates, index builds) over the ``stats`` frame.

    Failure behaviour: the connection counts as broken from a request's
    send until its terminal frame arrives.  A server-reported ``error``
    frame is terminal, so it leaves the connection aligned and reusable.
    Any other early exit — a framing failure (truncated frame,
    unexpected frame kind, socket error), a reply that fails to decode,
    an expired deadline, an interrupt — leaves it broken: further
    requests raise :class:`~repro.serving.wire.ProtocolError`
    immediately instead of reading leftover frames, and :meth:`close`
    stays safe and idempotent throughout.

    Passing ``retry=RetryPolicy(...)`` makes the client *self-healing*
    instead: every request runs under
    :meth:`~repro.serving.resilience.RetryPolicy.call`, and each attempt
    first re-dials a connection left broken.  A transport failure
    (connection killed, truncated frame, socket timeout) thus costs a
    bounded-backoff **reconnect** and a **replay** of the whole request
    on the fresh connection — refs-only, with the ``need_instances``
    negotiation re-shipping the corpus if the server restarted empty.
    Nothing reaches the caller before a response is complete, so every
    position is answered exactly once.  ``on_reconnect`` (if given)
    fires after each successful re-dial, before any replay — the hook
    :class:`~repro.learning.backend.RemoteBackend` uses to invalidate
    its digest bookkeeping.  Non-transport failures (server
    ``error`` frames, protocol desyncs, expired deadlines) are never
    retried.  The counters: :attr:`retries` (recovery attempts after a
    backoff), :attr:`reconnects` (successful re-dials), :attr:`replays`
    (workloads re-sent after an earlier send of them succeeded).

    A per-request ``deadline`` (:class:`~repro.serving.resilience.Deadline`)
    caps every blocking socket operation at ``min(remaining, timeout)``,
    travels to the server as the workload frame's ``deadline_ms`` (so
    admission control sheds shards nobody is waiting for), and bounds
    retry backoff — raising :class:`~repro.errors.DeadlineExceeded`
    when the budget runs out.
    """

    def __init__(self, host: str, port: int, *,
                 timeout: float | None = timeouts.REQUEST_TIMEOUT,
                 retry: "RetryPolicy | None" = None,
                 on_reconnect=None) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retry = retry
        self._on_reconnect = on_reconnect
        #: Recovery attempts made after a backoff (dial or replay).
        self.retries = 0
        #: Successful re-dials after a broken connection.
        self.reconnects = 0
        #: Workloads re-sent after an earlier send of them succeeded.
        self.replays = 0
        self._sock: socket.socket | None = None
        # Set from a request's send until its terminal frame arrives: a
        # request that stopped early left unread frames on the socket.
        # A failed re-dial leaves it set (and no socket), so the next
        # request re-dials again.
        self._broken = False
        # Set by close() alone.
        self._closed = False
        #: Requests sent on this connection (workloads and stats probes).
        self.requests = 0
        #: Bytes written to / read from the socket, frame prefixes included.
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Content-addressing counters: full instance records shipped,
        #: structural diffs shipped instead of full records, and the
        #: approximate encoded bytes that refs/deltas saved.
        self.instances_shipped = 0
        self.deltas_shipped = 0
        self.bytes_saved = 0
        if retry is None:
            self._connect()
        else:
            # The first dial is a request like any other: a peer that is
            # briefly down (a restarting server) costs backoff, not an
            # error.
            retry.call(self._connect, on_retry=self._count_retry)

    def _connect(self) -> None:
        self._sock = socket.create_connection((self._host, self._port),
                                              timeout=self._timeout)

    def _count_retry(self, exc: BaseException) -> None:
        self.retries += 1

    def _reconnect(self) -> None:
        """Drop the broken socket, dial fresh, reset alignment state."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        self._connect()
        self._broken = False
        self.reconnects += 1
        if self._on_reconnect is not None:
            self._on_reconnect()

    def close(self) -> None:
        """Close the connection.  Idempotent; safe after any error."""
        self._closed = True
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    @property
    def closed(self) -> bool:
        """Was :meth:`close` called?  A failed re-dial leaves the client
        broken, not closed."""
        return self._closed

    def __enter__(self) -> "WorkloadClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _send(self, payload: object) -> None:
        # The connection stays broken until the response's terminal
        # frame is read.
        self._broken = True
        self.bytes_sent += send_frame_blocking(self._sock, payload)

    def _recv(self, deadline: "Deadline | None" = None) -> object:
        """One counted frame, read within ``deadline`` if one is given."""
        self._apply_io_timeout(deadline)
        try:
            frame, n = recv_frame_counted(self._sock)
        except OSError as exc:
            if deadline is not None and deadline.expired:
                # The tightened socket timeout fired *because* the
                # budget ran out: surface the deadline, not the socket
                # plumbing underneath it.
                raise DeadlineExceeded(
                    "request deadline expired while awaiting the "
                    "response") from exc
            raise
        if frame is None:
            raise TransportError("server closed mid-response")
        self.bytes_received += n
        return frame

    @staticmethod
    def _server_error(frame: dict) -> Exception:
        """The exception for a server-reported ``error`` frame.

        Coded frames map to crisp types — ``deadline_exceeded`` to
        :class:`~repro.errors.DeadlineExceeded` (the server shed work
        this client stopped waiting for) — and everything else to
        :class:`~repro.serving.wire.RemoteError`, which is never
        retried: the peer *processed* the request and rejected it, so a
        replay would fail identically.
        """
        message = f"server error: {frame.get('message', 'unknown')}"
        error_code = frame.get("code")
        if error_code == "deadline_exceeded":
            return DeadlineExceeded(message)
        return RemoteError(message, code=error_code
                           if isinstance(error_code, str) else None)

    def _apply_io_timeout(self, deadline: "Deadline | None") -> None:
        """Cap the next blocking socket op at ``min(remaining, timeout)``.

        Raises :class:`~repro.errors.DeadlineExceeded` instead of
        issuing a blocking call with no budget left.
        """
        if deadline is None or self._sock is None:
            return
        self._sock.settimeout(deadline.io_timeout(self._timeout))

    # ------------------------------------------------------------------
    def _call(self, attempt, deadline: "Deadline | None" = None):
        """Run one request: ``attempt`` once, or under the retry policy.

        Under a policy each attempt first re-dials a broken connection,
        so a failed dial uses up the budget like any other failure.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        if self._retry is None and self._broken:
            raise ProtocolError(
                "connection is unrecoverable after a protocol error; "
                "open a new WorkloadClient")

        def healed():
            if self._broken:
                self._reconnect()
            return attempt()

        try:
            if self._retry is None:
                return attempt()
            return self._retry.call(healed, deadline=deadline,
                                    on_retry=self._count_retry)
        finally:
            if deadline is not None and not self._broken:
                # Deadlines tighten the socket timeout per operation;
                # leave the connection at its static default for the
                # next (deadline-less) request.
                self._sock.settimeout(self._timeout)

    def stream(self, workload: Workload, *,
               known_digests: set[str] | None = None,
               deadline: "Deadline | None" = None,
               ) -> list[ShardAnswer]:
        """Send one workload and read its whole response.

        Returns the decoded shard answers in the order their frames
        arrived; :meth:`run` merges them by position.

        ``known_digests`` is the caller's registry of instance digests
        the server is believed to hold: matching instances ship as refs,
        a *mutated* instance whose pre-mutation digest is registered
        ships as a structural ``delta`` record, and digests shipped in
        full (or as applied deltas) are added to the registry after the
        send (optimistically — a wrong entry only ever costs the one
        ``need_instances`` round trip this method answers transparently).

        The final ``done`` frame's shard count is cross-checked against
        the frames actually seen; an ``error`` frame raises
        :class:`~repro.serving.wire.ProtocolError` with the server's
        message.  With a retry policy configured, a transport death
        mid-response is healed transparently: reconnect and **replay**
        the whole workload on the fresh connection (refs-only;
        ``need_instances`` re-ships the corpus if the server restarted
        empty).
        """
        sent = False

        def attempt() -> list[ShardAnswer]:
            nonlocal sent
            codec = self._send_workload(workload, known_digests, deadline)
            if sent:
                self.replays += 1
            sent = True
            return self._stream_frames(codec, workload, deadline)

        return self._call(attempt, deadline)

    def _send_workload(self, workload: Workload,
                       known_digests: set[str] | None,
                       deadline: "Deadline | None") -> WorkloadCodec:
        """Encode and send one workload frame; returns its codec."""
        codec = WorkloadCodec()
        payload = codec.encode_workload(workload,
                                        known_digests=known_digests)
        self._apply_io_timeout(deadline)
        if deadline is not None:
            # The remaining budget travels with the request, so server-
            # side admission can shed shards nobody waits for anymore.
            payload["deadline_ms"] = deadline.ms()
        self._send(payload)
        self.requests += 1
        self.instances_shipped += len(codec.shipped_digests)
        self.deltas_shipped += len(codec.delta_digests)
        self.bytes_saved += codec.bytes_saved
        if known_digests is not None:
            known_digests.update(codec.shipped_digests)
            # Applied deltas leave the server holding the *new* digest;
            # a failed apply comes back as need_instances and re-ships
            # the full record mid-response, so the entry stays truthful.
            known_digests.update(codec.delta_digests)
        return codec

    def _stream_frames(self, codec: WorkloadCodec, workload: Workload,
                       deadline: "Deadline | None") -> list[ShardAnswer]:
        """Read one workload's response, up to its terminal frame."""
        answers: list[ShardAnswer] = []
        while True:
            frame = self._recv(deadline)
            kind = frame.get("type") if isinstance(frame, dict) else None
            if kind == "shard":
                answers.append(codec.decode_shard_answer(workload, frame))
            elif kind == "need_instances":
                # The server evicted digests we sent as refs; re-ship
                # those full records and keep reading — answers follow.
                digests = frame.get("digests", ())
                try:
                    payload = codec.encode_put_instances(digests)
                except ProtocolError as exc:
                    # A digest this request never encoded: peer bug.  The
                    # server is left awaiting a put we cannot produce.
                    raise ProtocolError(
                        f"server requested unknown digests: "
                        f"{exc}") from exc
                self._send(payload)
                self.instances_shipped += len(digests)
                self.bytes_saved -= sum(
                    instance_fingerprint(codec.instance_for(d))[1]
                    for d in digests)
            elif kind == "done":
                if frame.get("n_shards") != len(answers):
                    raise ProtocolError(
                        f"server announced {frame.get('n_shards')} "
                        f"shards but sent {len(answers)}")
                self._broken = False
                return answers
            elif kind == "error":
                self._broken = False
                raise self._server_error(frame)
            else:
                raise ProtocolError(f"unexpected frame {frame!r}")

    def put_instances(self, instances: Sequence[object], *,
                      known_digests: set[str] | None = None) -> list[str]:
        """Pre-ship instances to the server's content-addressed store.

        One ``put_instances`` request, acknowledged by an ``ok`` frame;
        returns the digests shipped and records them in
        ``known_digests`` so later workloads send refs immediately.
        Idempotent (the store is content-addressed), so a retry policy
        replays it wholesale after a transport failure.
        """
        codec = WorkloadCodec()
        digests: list[str] = []
        for instance in instances:
            digest = codec.register_instance(instance)
            if digest not in digests:
                digests.append(digest)
        self._request_reply(codec.encode_put_instances(digests),
                            expect="ok")
        if known_digests is not None:
            known_digests.update(digests)
        return digests

    def stats(self) -> dict:
        """The server's live engine statistics (one ``stats`` round trip).

        Returns the server's reply — ``{"engine": {...}, ...}`` with the
        engine dict exactly as :meth:`repro.engine.core.Engine.stats`
        reports it server-side (cache hit rates, index build counts).
        """
        return self._request_reply({"type": "stats"}, expect="stats")

    def _request_reply(self, payload: dict, *, expect: str) -> dict:
        """One request frame, one reply frame of kind ``expect``.

        Shared by the single-reply requests (``put_instances``, ``stats``
        and ``ping``), retried under the client's policy when one is
        configured.  A server ``error`` frame raises
        :class:`~repro.serving.wire.RemoteError` but leaves the
        connection aligned; any other unexpected frame breaks it.
        """

        def attempt() -> dict:
            self._send(payload)
            self.requests += 1
            # Only a put_instances frame carries (full) records.
            self.instances_shipped += len(payload.get("instances", ()))
            frame = self._recv()
            kind = frame.get("type") if isinstance(frame, dict) else None
            if kind not in (expect, "error"):
                raise ProtocolError(f"unexpected frame {frame!r}")
            self._broken = False
            if kind == "error":
                raise self._server_error(frame)
            return {k: v for k, v in frame.items() if k != "type"}

        return self._call(attempt)

    def ping(self) -> dict:
        """Liveness probe (an empty reply)."""
        return self._request_reply({"type": "ping"}, expect="ok")

    def run(self, workload: Workload, *,
            known_digests: set[str] | None = None,
            deadline: "Deadline | None" = None) -> WorkloadResult:
        """Remote evaluation with the deterministic position-aligned merge."""
        return WorkloadResult.assemble(
            workload, self.stream(workload, known_digests=known_digests,
                                  deadline=deadline))
