"""The digest-aware serving fleet: one router, N workload servers.

One :class:`~repro.serving.net.WorkloadServer` process is a hard
ceiling — one GIL, one :class:`~repro.serving.instance_cache.InstanceStore`.
:class:`FleetRouter` scales the tier out *without changing a single
answer*: it speaks the exact same wire protocol as a single server, so a
:class:`~repro.serving.net.WorkloadClient` (and therefore
:class:`~repro.learning.backend.RemoteBackend`) pointed at a router is
indistinguishable from one pointed at a server — same queries, same
questions, same node objects.

The routing key is the **content digest**.  Each incoming workload frame
is split — at the frame level, without ever decoding an instance — into
per-member sub-workloads: every instance record (full or ref) already
carries its structural digest, and
:meth:`~repro.serving.ring.HashRing.node_for` assigns that digest to
exactly one member.  A corpus therefore ships to exactly one shard
server, whose engine keeps the *warm* index for it; instance-free
acceptance items route by the digest of their query record so repeated
membership rounds stay sticky too.  Shard answer frames come back
per-member with sub-workload positions; the router remaps them onto the
original positions and merges all members onto one position-aligned
client stream.

Failure and elasticity reuse the content-addressed negotiation:

* the router keeps an :class:`~repro.serving.instance_cache.InstanceStore`
  of **encoded records** it has seen, so a member's ``need_instances``
  is usually answered from the router without bothering the client;
* a ``delta`` record in a workload frame is applied to the cached base
  record by the same code a server uses (decode, replay through the
  tracked mutators, verify the digest, re-encode), so a mutated instance
  that re-hashes to another member ships to it from the router;
* a member that dies mid-request (connection drop, kill -9) is removed
  from the ring and its *unanswered* positions are re-dispatched to the
  survivors — already-delivered answers are never re-sent, so delivery
  stays exactly-once and the client sees a complete, error-free stream;
* ``drain``/``undrain`` frames naming a member take it out of (back
  into) the ring without touching in-flight work, so a rolling restart
  never fails a session.

The cost model is the ring's: re-hashing after a membership change moves
only the departed member's digests, and each moved digest costs exactly
one re-ship (router cache first, client fallback) on its next use.

:class:`RouterThread` runs a router on a dedicated thread for blocking
callers; :class:`Fleet` is the whole harness — it forks N member server
processes, wires a router over them, and exposes kill/drain/restart for
failure injection and rolling restarts.
"""

from __future__ import annotations

import asyncio
import multiprocessing
from collections.abc import Mapping
from dataclasses import dataclass

from repro.serving import timeouts
from repro.serving.instance_cache import InstanceStore
from repro.serving.net import EndpointThread, WorkloadClient, WorkloadServer
from repro.serving.ring import DEFAULT_REPLICAS, HashRing
from repro.serving.wire import (
    ProtocolError,
    apply_delta_copy,
    checked_record_digest,
    decode_delta,
    decode_instance_record,
    encode_instance_record,
    instance_fingerprint,
    read_frame,
    record_digest,
    reinit_after_fork,
    write_frame,
)

#: Router-side record cache budget (encoded records, not decoded trees).
DEFAULT_RECORD_CACHE_BYTES = 256 * 1024 * 1024


@dataclass
class _Member:
    """Router-side view of one fleet member."""

    host: str
    port: int
    healthy: bool = True
    draining: bool = False


class _MemberDown(Exception):
    """A member could not be dialed; the caller rehashes and retries."""

    def __init__(self, member_id: str) -> None:
        super().__init__(f"fleet member {member_id!r} is unreachable")
        self.member_id = member_id


class _Dispatch:
    """One sub-workload in flight on one member.

    ``positions[j]`` is the original workload position of the
    sub-workload's item ``j`` — the remap table for the member's shard
    frames.  ``frames`` counts the shard frames received, cross-checked
    against the member's ``done`` announcement.
    """

    __slots__ = ("member", "positions", "frames")

    def __init__(self, member: str, positions: list[int]) -> None:
        self.member = member
        self.positions = positions
        self.frames = 0


class FleetRouter:
    """Consistent-hash workload router over N ``WorkloadServer`` members.

    Speaks the full workload protocol on its listening socket; dials
    members lazily, one upstream connection per (client connection,
    member) pair so concurrent client sessions never share an upstream
    byte stream.  All router state lives on the event loop thread — no
    locks, by construction.
    """

    #: Bound on the aclose() drain of in-flight connection handlers.
    #: (Number lives in :mod:`repro.serving.timeouts`; override per
    #: instance as needed.)
    CLOSE_DRAIN_TIMEOUT = timeouts.CLOSE_DRAIN_TIMEOUT
    #: Bound on dialing one member (from :mod:`repro.serving.timeouts`).
    CONNECT_TIMEOUT = timeouts.CONNECT_TIMEOUT

    def __init__(self, members: Mapping[str, tuple[str, int]], *,
                 host: str = "127.0.0.1", port: int = 0,
                 replicas: int = DEFAULT_REPLICAS,
                 record_cache_bytes: int = DEFAULT_RECORD_CACHE_BYTES,
                 ) -> None:
        if not members:
            raise ValueError("a fleet needs at least one member")
        self.host = host
        self.port = port
        self._members: dict[str, _Member] = {
            member_id: _Member(h, p)
            for member_id, (h, p) in members.items()
        }  # lock-free: membership is only touched on the event loop thread
        self._ring = HashRing(self._members, replicas=replicas)
        #: Encoded records seen by this router, digest-addressed.  Serves
        #: member ``need_instances`` without a client round trip, which is
        #: what makes failover re-ships router-local.
        self.record_store = InstanceStore(record_cache_bytes)
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()  # lock-free: loop only
        #: Observability counters (loop-thread only).
        self.requests = 0  # lock-free: only touched on the loop thread
        self.shards_forwarded = 0  # lock-free: loop thread only
        self.failovers = 0  # lock-free: loop thread only
        self.reships = 0  # lock-free: loop thread only
        self.deltas_patched = 0  # lock-free: loop thread only

    # ------------------------------------------------------------------
    # Lifecycle (same shape as WorkloadServer, so EndpointThread fits)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("router already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self, *, drain_timeout: float | None = None) -> None:
        """Stop listening, cancel in-flight handlers, bounded drain."""
        if drain_timeout is None:
            drain_timeout = self.CLOSE_DRAIN_TIMEOUT
        if self._server is not None:
            self._server.close()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.wait(set(self._conn_tasks),
                                   timeout=drain_timeout)
            try:
                await asyncio.wait_for(self._server.wait_closed(),
                                       drain_timeout)
            except asyncio.TimeoutError:
                pass  # the listener socket is closed regardless
            self._server = None

    # ------------------------------------------------------------------
    # Membership (loop-thread entry points; Fleet calls via run_coroutine)
    # ------------------------------------------------------------------
    async def set_member(self, member_id: str, host: str,
                         port: int) -> None:
        """Add or replace a member (restart = same id, new port).

        Because ring points depend only on the member *id*, replacing a
        member at a new address moves zero digests.
        """
        self._members[member_id] = _Member(host, port)
        self._ring.add(member_id)

    async def check_health(self) -> dict[str, bool]:
        """Ping every member; heal or fail them in the ring accordingly."""
        out: dict[str, bool] = {}
        for member_id, member in list(self._members.items()):
            alive = await self._ping_member(member)
            if alive:
                member.healthy = True
                if not member.draining:
                    self._ring.add(member_id)
            else:
                member.healthy = False
                self._ring.remove(member_id)
            out[member_id] = alive
        return out

    async def _ping_member(self, member: _Member) -> bool:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(member.host, member.port),
                self.CONNECT_TIMEOUT)
        except (OSError, asyncio.TimeoutError):
            return False
        try:
            write_frame(writer, {"type": "ping"})
            await writer.drain()
            reply = await read_frame(reader)
            return isinstance(reply, dict) and reply.get("type") == "ok"
        except (OSError, ProtocolError):
            return False
        finally:
            writer.close()

    def _mark_down(self, member_id: str,
                   upstreams: dict[str, tuple[asyncio.StreamReader,
                                              asyncio.StreamWriter]],
                   ) -> None:
        member = self._members.get(member_id)
        if member is not None:
            member.healthy = False
        self._ring.remove(member_id)
        pair = upstreams.pop(member_id, None)
        if pair is not None:
            pair[1].close()

    async def _upstream(self, member_id: str,
                        upstreams: dict[str, tuple[asyncio.StreamReader,
                                                   asyncio.StreamWriter]],
                        ) -> tuple[asyncio.StreamReader,
                                   asyncio.StreamWriter]:
        """This client connection's link to ``member_id`` (dial lazily)."""
        pair = upstreams.get(member_id)
        if pair is not None:
            return pair
        member = self._members.get(member_id)
        if member is None or not member.healthy:
            raise _MemberDown(member_id)
        try:
            pair = await asyncio.wait_for(
                asyncio.open_connection(member.host, member.port),
                self.CONNECT_TIMEOUT)
        except (OSError, asyncio.TimeoutError) as exc:
            raise _MemberDown(member_id) from exc
        upstreams[member_id] = pair
        return pair

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        # This client connection's private upstream links, dialed lazily.
        upstreams: dict[str, tuple[asyncio.StreamReader,
                                   asyncio.StreamWriter]] = {}
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except ProtocolError as exc:
                    write_frame(writer, {"type": "error",
                                         "message": str(exc)})
                    await writer.drain()
                    break
                if frame is None:
                    break
                await self._serve_request(frame, reader, writer, upstreams)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Only aclose() cancels handler tasks; exit cleanly so the
            # stream protocol's done-callback has nothing to log.
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            for _, up_writer in upstreams.values():
                up_writer.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                pass  # loop teardown mid-handshake; nothing left to do

    async def _serve_request(self, frame: object,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter,
                             upstreams: dict[str, tuple[
                                 asyncio.StreamReader,
                                 asyncio.StreamWriter]]) -> None:
        kind = frame.get("type") if isinstance(frame, dict) else None
        if kind == "stats":
            await self._serve_stats(writer, upstreams)
            return
        if kind == "ping":
            write_frame(writer, {"type": "ok"})
            await writer.drain()
            return
        if kind in ("drain", "undrain"):
            await self._serve_drain(kind, frame, writer)
            return
        if kind == "ring":
            write_frame(writer, self._ring_payload())
            await writer.drain()
            return
        if kind == "put_instances":
            await self._serve_put_instances(frame, writer, upstreams)
            return
        if kind is not None:
            write_frame(writer, {"type": "error",
                                 "message": f"unsupported request frame "
                                            f"type {kind!r}"})
            await writer.drain()
            return
        self.requests += 1
        try:
            await _WorkloadCall(self, frame, reader, writer,
                                upstreams).serve()
        except (ConnectionResetError, BrokenPipeError):
            raise
        except Exception as exc:  # noqa: BLE001 - surfaced to the peer
            write_frame(writer, {"type": "error", "message": str(exc)})
            await writer.drain()

    # ------------------------------------------------------------------
    # Control-plane frames
    # ------------------------------------------------------------------
    async def _serve_stats(self, writer: asyncio.StreamWriter,
                           upstreams: dict[str, tuple[
                               asyncio.StreamReader,
                               asyncio.StreamWriter]]) -> None:
        members: dict[str, dict] = {}
        for member_id, member in list(self._members.items()):
            if not member.healthy:
                members[member_id] = {"healthy": False}
                continue
            try:
                up_reader, up_writer = await self._upstream(member_id,
                                                            upstreams)
                write_frame(up_writer, {"type": "stats"})
                await up_writer.drain()
                reply = await read_frame(up_reader)
            except (_MemberDown, OSError, ProtocolError):
                self._mark_down(member_id, upstreams)
                members[member_id] = {"healthy": False}
                continue
            if isinstance(reply, dict) and reply.get("type") == "stats":
                members[member_id] = {
                    "healthy": True,
                    **{k: v for k, v in reply.items() if k != "type"}}
            else:
                self._mark_down(member_id, upstreams)
                members[member_id] = {"healthy": False}
        write_frame(writer, {
            "type": "stats",
            "executor": "fleet",
            "router": {
                "requests": self.requests,
                "shards_forwarded": self.shards_forwarded,
                "failovers": self.failovers,
                "reships": self.reships,
                "deltas_patched": self.deltas_patched,
                "members_live": len(self._ring),
                "record_cache": self.record_store.stats(),
            },
            "members": members,
        })
        await writer.drain()

    async def _serve_drain(self, kind: str, frame: dict,
                           writer: asyncio.StreamWriter) -> None:
        member_id = frame.get("member")
        member = self._members.get(member_id)
        if member is None:
            write_frame(writer, {
                "type": "error",
                "message": f"unknown fleet member {member_id!r}"})
            await writer.drain()
            return
        if kind == "drain":
            member.draining = True
            self._ring.remove(member_id)
        else:
            member.draining = False
            if member.healthy:
                self._ring.add(member_id)
        write_frame(writer, {"type": "ok", "member": member_id,
                             "draining": member.draining})
        await writer.drain()

    def _ring_payload(self) -> dict:
        return {
            "type": "ring",
            "replicas": self._ring.replicas,
            "members": [
                {"id": member_id, "host": member.host, "port": member.port,
                 "healthy": member.healthy, "draining": member.draining,
                 "in_ring": member_id in self._ring}
                for member_id, member in sorted(self._members.items())
            ],
        }

    async def _serve_put_instances(
            self, frame: dict, writer: asyncio.StreamWriter,
            upstreams: dict[str, tuple[asyncio.StreamReader,
                                       asyncio.StreamWriter]]) -> None:
        """Cache the records, then forward each to its ring owner."""
        try:
            records = self._checked_records(frame)
        except ProtocolError as exc:
            write_frame(writer, {"type": "error", "message": str(exc)})
            await writer.drain()
            return
        stored: list[str] = []
        remaining = records
        while remaining:
            if not len(self._ring):
                write_frame(writer, {"type": "error",
                                     "message": "no live fleet members"})
                await writer.drain()
                return
            assignment: dict[str, list[tuple[str, dict]]] = {}
            for digest, record in remaining:
                owner = self._ring.node_for(digest)
                assignment.setdefault(owner, []).append((digest, record))
            remaining = []
            for member_id, pairs in assignment.items():
                try:
                    up_reader, up_writer = await self._upstream(member_id,
                                                                upstreams)
                    write_frame(up_writer, {
                        "type": "put_instances",
                        "instances": [record for _, record in pairs]})
                    await up_writer.drain()
                    reply = await read_frame(up_reader)
                except (_MemberDown, OSError, ProtocolError):
                    self._mark_down(member_id, upstreams)
                    remaining.extend(pairs)
                    continue
                if not (isinstance(reply, dict)
                        and reply.get("type") == "ok"):
                    self._mark_down(member_id, upstreams)
                    remaining.extend(pairs)
                    continue
                stored.extend(digest for digest, _ in pairs)
        write_frame(writer, {"type": "ok", "stored": len(stored)})
        await writer.drain()

    def patch_record(self, delta: dict) -> dict | None:
        """The full record for a decoded delta's target digest, or ``None``.

        Decodes the cached base record and patches the instance with
        :func:`~repro.serving.wire.apply_delta_copy`, the applier a
        server uses on a contended base: it replays the ops through the
        tracked mutators and checks the promised target digest.  The
        re-encoded result is cached under that digest.  The base record
        stays cached too: it is still a correct encoding of the *old*
        state.
        Any failure — base unknown, inapplicable ops, digest mismatch —
        returns ``None`` and lets the member/client ``need_instances``
        negotiation repair the gap.
        """
        to_digest = delta["to"]
        cached = self.record_store.get(to_digest)
        if isinstance(cached, dict):
            return cached
        base = self.record_store.get(delta["from"])
        if not isinstance(base, dict):
            return None
        try:
            patched = apply_delta_copy(decode_instance_record(base), delta)
        except ProtocolError:
            return None
        record = {**encode_instance_record(patched), "digest": to_digest}
        self.record_store.put(to_digest, record,
                              instance_fingerprint(patched)[1])
        self.deltas_patched += 1
        return record

    def _checked_records(self, frame: dict) -> list[tuple[str, dict]]:
        """Digest-verify and cache every record of a ``put_instances``."""
        records = frame.get("instances")
        if not isinstance(records, list):
            raise ProtocolError("malformed put_instances frame")
        out: list[tuple[str, dict]] = []
        for record in records:
            if not isinstance(record, dict) or "digest" not in record:
                raise ProtocolError(
                    "put_instances records must carry a digest")
            digest, size = checked_record_digest(record)
            self.record_store.put(digest, record, size)
            out.append((digest, record))
        return out


class _WorkloadCall:
    """One workload request through the router, start to finish.

    Owns the split (original positions → per-member sub-workloads), the
    merge (sub-positions → original positions, exactly-once), the
    ``need_instances`` negotiation (router cache first, client second),
    and failover (re-dispatch a dead member's unanswered positions over
    the re-hashed ring).  Instantiated per request; all state is local
    to the router's event loop.
    """

    def __init__(self, router: FleetRouter, frame: dict,
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 upstreams: dict[str, tuple[asyncio.StreamReader,
                                            asyncio.StreamWriter]]) -> None:
        self.router = router
        self.frame = frame
        self.reader = reader
        self.writer = writer
        self.upstreams = upstreams
        self.queue: asyncio.Queue = asyncio.Queue()
        self.pumps: set[asyncio.Task] = set()
        #: Original positions whose answers have been delivered.
        self.answered: set[int] = set()
        #: Positions parked because their target member is mid-dispatch
        #: (one request per upstream connection at a time).
        self.waiting: dict[str, list[int]] = {}
        self.active_members: set[str] = set()
        self.pending = 0
        self.shards_out = 0
        # Filled by _parse():
        self.item_records: list[dict] = []
        self.query_records: list = []
        self.inst_digests: list[str] = []
        self.keys: list[str] = []
        #: digest → full record available router-side for this request
        #: (client-shipped this request, negotiated puts, cache hits).
        self.records: dict[str, dict] = {}
        #: Digests the client shipped in full *this request* — inlined
        #: into the first dispatch so the initial ship is one hop.
        self.shipped: set[str] = set()
        #: target digest → the ``delta`` record the client shipped for
        #: it this request, and target digest → its base digest.  The
        #: first dispatch forwards the delta itself when the target
        #: still hashes to the base's owner (warm in-place patch); a
        #: moved target gets the router-patched full record instead.
        self.delta_records: dict[str, dict] = {}
        self.delta_from: dict[str, str] = {}

    # ------------------------------------------------------------------
    async def serve(self) -> None:
        self._parse()
        ok = False
        try:
            await self._dispatch(list(range(len(self.item_records))),
                                 inline=True)
            while self.pending:
                message, dispatch, frame = await self.queue.get()
                if message == "shard":
                    await self._on_shard(dispatch, frame)
                elif message == "need":
                    await self._on_need(dispatch, frame)
                elif message == "done":
                    self._on_done(dispatch, frame)
                    await self._release_member(dispatch.member)
                elif message == "down":
                    await self._on_down(dispatch)
                else:  # a member-reported error fails the whole request
                    raise ProtocolError(
                        f"fleet member {dispatch.member}: "
                        f"{frame.get('message', 'unknown')}")
            write_frame(self.writer, {"type": "done",
                                      "n_shards": self.shards_out,
                                      "executor": "fleet"})
            await self.writer.drain()
            ok = True
        finally:
            for task in self.pumps:
                task.cancel()
            if self.pumps:
                await asyncio.gather(*self.pumps, return_exceptions=True)
            if not ok:
                # Abandoned mid-request: every upstream that served this
                # request may be desynced mid-response.  Drop them all;
                # the next request dials fresh.
                for member_id in list(self.upstreams):
                    self.upstreams.pop(member_id)[1].close()

    # ------------------------------------------------------------------
    def _parse(self) -> None:
        """Digest every instance, derive each item's routing key."""
        try:
            instance_records = self.frame["instances"]
            self.query_records = list(self.frame["queries"])
            self.item_records = list(self.frame["items"])
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed workload: {exc}") from exc
        for record in instance_records:
            kind = record.get("type") if isinstance(record, dict) else None
            if kind == "ref":
                digest = record.get("digest")
                if not isinstance(digest, str):
                    raise ProtocolError(
                        f"malformed instance ref {record!r}")
                self.inst_digests.append(digest)
                cached = self.router.record_store.get(digest)
                if isinstance(cached, dict):
                    self.records[digest] = cached
            elif kind == "delta":
                delta = decode_delta(record)
                digest = delta["to"]
                self.inst_digests.append(digest)
                self.delta_records[digest] = record
                self.delta_from[digest] = delta["from"]
                patched = self.router.patch_record(delta)
                if patched is not None:
                    self.records[digest] = patched
            elif kind in ("tree", "graph"):
                digest, size = checked_record_digest(record)
                if "digest" not in record:
                    record = {**record, "digest": digest}
                self.inst_digests.append(digest)
                self.records[digest] = record
                self.shipped.add(digest)
                self.router.record_store.put(digest, record, size)
            else:
                raise ProtocolError(f"unknown instance type {kind!r}")
        try:
            query_digests = [record_digest(q)[0]
                             for q in self.query_records]
        except TypeError as exc:
            raise ProtocolError(f"malformed workload query: {exc}") from exc
        for record in self.item_records:
            if not isinstance(record, dict):
                raise ProtocolError(f"malformed workload item {record!r}")
            query_index = record.get("query")
            if not isinstance(query_index, int) or not (
                    0 <= query_index < len(self.query_records)):
                raise ProtocolError(
                    f"dangling query reference {query_index!r}")
            instance_index = record.get("instance")
            if instance_index is None:
                # Instance-free item (acceptance): route by query digest
                # so one membership session stays on one member.
                self.keys.append(query_digests[query_index])
            elif isinstance(instance_index, int) and (
                    0 <= instance_index < len(self.inst_digests)):
                self.keys.append(self.inst_digests[instance_index])
            else:
                raise ProtocolError(
                    f"dangling instance reference {instance_index!r}")

    # ------------------------------------------------------------------
    def _subframe(self, positions: list[int], *, inline: bool) -> dict:
        """The sub-workload frame for ``positions``, indices remapped.

        First dispatch (``inline=True``) forwards the full records the
        client just shipped; re-dispatches send refs only and let the
        ``need_instances`` negotiation pull records from the router's
        cache — failover re-ships exactly the digests that moved.
        """
        sub_instances: list[dict] = []
        instance_slot: dict[str, int] = {}
        sub_queries: list = []
        query_slot: dict[int, int] = {}
        items: list[dict] = []
        for position in positions:
            record = dict(self.item_records[position])
            query_index = record["query"]
            if query_index not in query_slot:
                query_slot[query_index] = len(sub_queries)
                sub_queries.append(self.query_records[query_index])
            record["query"] = query_slot[query_index]
            instance_index = record.get("instance")
            if instance_index is not None:
                digest = self.inst_digests[instance_index]
                if digest not in instance_slot:
                    instance_slot[digest] = len(sub_instances)
                    if inline and digest in self.shipped:
                        sub_instances.append(self.records[digest])
                    elif inline and digest in self.delta_records:
                        sub_instances.append(self._delta_ship(digest))
                    else:
                        sub_instances.append({"type": "ref",
                                              "digest": digest})
                record["instance"] = instance_slot[digest]
            items.append(record)
        return {"instances": sub_instances, "queries": sub_queries,
                "items": items}

    def _delta_ship(self, digest: str) -> dict:
        """What the first dispatch sends for a client-shipped delta.

        The target digest's ring owner held the *base* only when the
        two digests hash to the same member — then the delta itself
        goes through and the member patches its warm copy in place.  A
        target that re-hashed onto a different member gets the
        router-patched full record directly (when the router could
        patch): warm-affinity loss costs one hop, not a client round
        trip.  With no patched record available the delta is forwarded
        anyway and the ``need_instances`` negotiation repairs the gap.
        """
        ring = self.router._ring
        if digest in self.records \
                and ring.node_for(digest) != ring.node_for(
                    self.delta_from[digest]):
            self.router.reships += 1
            return self.records[digest]
        return self.delta_records[digest]

    async def _dispatch(self, positions: list[int], *,
                        inline: bool) -> None:
        """Assign ``positions`` over the ring and start member pumps."""
        remaining = positions
        while remaining:
            if not len(self.router._ring):
                raise ProtocolError(
                    "no live fleet members remain for this workload")
            assignment: dict[str, list[int]] = {}
            for position in remaining:
                owner = self.router._ring.node_for(self.keys[position])
                assignment.setdefault(owner, []).append(position)
            remaining = []
            for member_id, member_positions in assignment.items():
                if member_id in self.active_members:
                    # One request per upstream connection at a time; park
                    # until the member's current dispatch completes.
                    self.waiting.setdefault(member_id, []).extend(
                        member_positions)
                    continue
                try:
                    _, up_writer = await self.router._upstream(
                        member_id, self.upstreams)
                    write_frame(up_writer, self._subframe(
                        member_positions, inline=inline))
                    await up_writer.drain()
                except (_MemberDown, OSError):
                    self.router._mark_down(member_id, self.upstreams)
                    self.router.failovers += 1
                    remaining.extend(member_positions)
                    continue
                dispatch = _Dispatch(member_id, member_positions)
                up_reader = self.upstreams[member_id][0]
                task = asyncio.ensure_future(
                    self._pump(dispatch, up_reader))
                self.pumps.add(task)
                self.active_members.add(member_id)
                self.pending += 1

    async def _pump(self, dispatch: _Dispatch,
                    reader: asyncio.StreamReader) -> None:
        """Forward one member's response frames onto the merge queue."""
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    await self.queue.put(("down", dispatch, None))
                    return
                kind = frame.get("type") if isinstance(frame, dict) \
                    else None
                if kind == "shard":
                    await self.queue.put(("shard", dispatch, frame))
                elif kind == "need_instances":
                    await self.queue.put(("need", dispatch, frame))
                elif kind == "done":
                    await self.queue.put(("done", dispatch, frame))
                    return
                elif kind == "error":
                    await self.queue.put(("member_error", dispatch, frame))
                    return
                else:
                    await self.queue.put((
                        "member_error", dispatch,
                        {"message": f"unexpected frame {frame!r}"}))
                    return
        except (OSError, ProtocolError):
            await self.queue.put(("down", dispatch, None))

    # ------------------------------------------------------------------
    async def _on_shard(self, dispatch: _Dispatch, frame: dict) -> None:
        """Remap a member shard frame onto original positions; forward."""
        try:
            sub_indices = frame["indices"]
            raw_answers = frame["answers"]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(
                f"fleet member {dispatch.member} sent a malformed shard "
                f"frame: {exc}") from exc
        dispatch.frames += 1
        indices: list[int] = []
        answers: list = []
        for sub_position, answer in zip(sub_indices, raw_answers):
            if not isinstance(sub_position, int) or not (
                    0 <= sub_position < len(dispatch.positions)):
                raise ProtocolError(
                    f"fleet member {dispatch.member} answered unknown "
                    f"position {sub_position!r}")
            position = dispatch.positions[sub_position]
            if position in self.answered:
                continue  # defensive: never double-deliver a position
            self.answered.add(position)
            indices.append(position)
            answers.append(answer)
        if not indices:
            return
        write_frame(self.writer, {"type": "shard",
                                  "shard": self.shards_out,
                                  "indices": indices, "answers": answers})
        await self.writer.drain()
        self.shards_out += 1
        self.router.shards_forwarded += 1

    async def _on_need(self, dispatch: _Dispatch, frame: dict) -> None:
        """Serve a member's missing digests: cache first, client second."""
        digests = frame.get("digests")
        if not isinstance(digests, list):
            raise ProtocolError(
                f"fleet member {dispatch.member} sent a malformed "
                f"need_instances frame")
        missing = [digest for digest in digests
                   if digest not in self.records]
        for digest in list(missing):
            cached = self.router.record_store.get(digest)
            if isinstance(cached, dict):
                self.records[digest] = cached
                missing.remove(digest)
        if missing:
            # The router has never seen these records: ask the client,
            # exactly as a single server would.
            write_frame(self.writer, {"type": "need_instances",
                                      "digests": missing})
            await self.writer.drain()
            reply = await read_frame(self.reader)
            if reply is None:
                raise ConnectionResetError(
                    "client closed mid-negotiation")
            if not (isinstance(reply, dict)
                    and reply.get("type") == "put_instances"):
                raise ProtocolError(
                    f"expected a put_instances frame after "
                    f"need_instances, got {reply!r}")
            for digest, record in self.router._checked_records(reply):
                self.records[digest] = record
            still = [digest for digest in missing
                     if digest not in self.records]
            if still:
                raise ProtocolError(
                    f"client could not supply instance digests {still!r}")
        pair = self.upstreams.get(dispatch.member)
        if pair is None:
            return  # member died while the request was queued
        write_frame(pair[1], {
            "type": "put_instances",
            "instances": [self.records[digest] for digest in digests]})
        await pair[1].drain()
        self.router.reships += len(digests)

    def _on_done(self, dispatch: _Dispatch, frame: dict) -> None:
        self.pending -= 1
        announced = frame.get("n_shards")
        if announced != dispatch.frames:
            raise ProtocolError(
                f"fleet member {dispatch.member} announced {announced} "
                f"shards but sent {dispatch.frames}")

    async def _release_member(self, member_id: str) -> None:
        """Dispatch positions parked behind the member's last request."""
        self.active_members.discard(member_id)
        parked = self.waiting.pop(member_id, None)
        if parked:
            await self._dispatch(parked, inline=False)

    async def _on_down(self, dispatch: _Dispatch) -> None:
        """Failover: rehash the dead member's unanswered positions."""
        self.pending -= 1
        self.router.failovers += 1
        self.router._mark_down(dispatch.member, self.upstreams)
        self.active_members.discard(dispatch.member)
        orphans = self.waiting.pop(dispatch.member, [])
        unanswered = [position for position in dispatch.positions
                      if position not in self.answered] + orphans
        if unanswered:
            await self._dispatch(unanswered, inline=False)


class RouterThread(EndpointThread):
    """A :class:`FleetRouter` on a dedicated thread and event loop.

    Construction blocks until the router socket is bound; ``close()``
    stops the loop with the bounded join.  Membership operations for
    blocking callers go through :meth:`EndpointThread.run_coroutine`.
    """

    def __init__(self, members: Mapping[str, tuple[str, int]],
                 **router_options) -> None:
        self.router = FleetRouter(members, **router_options)
        super().__init__(self.router, thread_name="repro-serving-fleet")

    def __enter__(self) -> "RouterThread":
        return self


def _member_main(conn, evaluator_factory, server_options) -> None:
    """Entry point of one fleet member process: serve until killed."""
    # The fork may have snapshotted another thread's hold on the wire
    # fingerprint lock; replace it before this process touches codecs.
    reinit_after_fork()

    async def main() -> None:
        if evaluator_factory is not None:
            evaluator = evaluator_factory()
        else:
            from repro.engine import Engine
            from repro.serving.async_evaluator import AsyncBatchEvaluator
            evaluator = AsyncBatchEvaluator(engine=Engine())
        server = WorkloadServer(evaluator, host="127.0.0.1", port=0,
                                **server_options)
        await server.start()
        conn.send(server.port)
        conn.close()
        await asyncio.Event().wait()  # serve until the process is killed

    asyncio.run(main())


class Fleet:
    """N ``WorkloadServer`` processes behind one router, blocking API.

    The whole serving fleet in one context manager: forks ``n_members``
    member server processes (each builds a **fresh** engine and
    evaluator in the child — no inherited lock state), waits for their
    ports, then stands up a :class:`FleetRouter` on a dedicated thread.
    Member processes are forked *before* the router thread starts: a
    fork snapshots every lock another thread holds into the child, held.

    ``evaluator_factory`` (called in the child) customises the member
    evaluator — benchmarks use it to install an instrumented
    :class:`~repro.serving.evaluator.BatchEvaluator` subclass;
    ``member_options`` pass through to each member's
    :class:`~repro.serving.net.WorkloadServer`
    (``max_inflight_shards``, ...).

    Failure injection and rolling restarts: :meth:`kill_member` is a
    hard SIGKILL (the router discovers the death on first contact and
    fails over); :meth:`drain_member`/:meth:`undrain_member` move a
    member out of/into the ring gracefully; :meth:`restart_member`
    forks a replacement under the same member id — same ring points, so
    zero digests move.
    """

    def __init__(self, n_members: int = 4, *,
                 evaluator_factory=None,
                 member_options: dict | None = None,
                 replicas: int = DEFAULT_REPLICAS,
                 record_cache_bytes: int = DEFAULT_RECORD_CACHE_BYTES,
                 start_method: str = "fork") -> None:
        if n_members < 1:
            raise ValueError(
                f"n_members must be a positive integer, got {n_members!r}")
        self._ctx = multiprocessing.get_context(start_method)
        self._evaluator_factory = evaluator_factory
        self._member_options = dict(member_options or {})
        self._processes: dict[str, object] = {}
        self._addresses: dict[str, tuple[str, int]] = {}
        try:
            for i in range(n_members):
                member_id = f"member-{i}"
                self._addresses[member_id] = self._spawn(member_id)
            self._thread = RouterThread(
                self._addresses, replicas=replicas,
                record_cache_bytes=record_cache_bytes)
        except BaseException:
            self._terminate_members()
            raise
        self.router = self._thread.router

    def _spawn(self, member_id: str) -> tuple[str, int]:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_member_main,
            args=(child_conn, self._evaluator_factory,
                  self._member_options),
            daemon=True, name=f"repro-fleet-{member_id}")
        process.start()
        child_conn.close()
        if not parent_conn.poll(timeouts.MEMBER_STARTUP_TIMEOUT):
            process.kill()
            raise RuntimeError(
                f"fleet member {member_id} did not report a port "
                f"within 30s")
        port = parent_conn.recv()
        parent_conn.close()
        self._processes[member_id] = process
        return ("127.0.0.1", port)

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The router's ``(host, port)`` — what clients connect to."""
        return self._thread.address

    def members(self) -> list[str]:
        return sorted(self._addresses)

    def client(self, **options) -> WorkloadClient:
        """A new blocking client connected to the router."""
        return WorkloadClient(*self.address, **options)

    # ------------------------------------------------------------------
    def kill_member(self, member_id: str) -> None:
        """Hard failure injection: SIGKILL, no goodbye to the router."""
        process = self._processes[member_id]
        process.kill()
        process.join()

    def drain_member(self, member_id: str) -> None:
        """Take a member out of the ring; in-flight work finishes."""
        with self.client() as admin:
            admin.drain(member=member_id)

    def undrain_member(self, member_id: str) -> None:
        """Put a drained member back into the ring."""
        with self.client() as admin:
            admin.undrain(member=member_id)

    def restart_member(self, member_id: str) -> None:
        """Fork a replacement under the same id (zero digests move)."""
        if member_id not in self._addresses:
            raise KeyError(f"unknown fleet member {member_id!r}")
        old = self._processes.get(member_id)
        if old is not None and old.is_alive():
            old.terminate()
            old.join()
        address = self._spawn(member_id)
        self._addresses[member_id] = address
        self._thread.run_coroutine(
            self.router.set_member(member_id, *address))

    def check_health(self) -> dict[str, bool]:
        """Ping every member through the router; heal/fail the ring."""
        return self._thread.run_coroutine(self.router.check_health())

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the router thread, then terminate every member."""
        try:
            self._thread.close()
        finally:
            self._terminate_members()

    def _terminate_members(self) -> None:
        for process in self._processes.values():
            if process.is_alive():
                process.terminate()
        for process in self._processes.values():
            process.join(timeout=timeouts.PROCESS_JOIN_TIMEOUT)
            if process.is_alive():
                process.kill()
                process.join(timeout=timeouts.PROCESS_JOIN_TIMEOUT)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<Fleet {len(self._addresses)} members "
                f"router={self.address[0]}:{self.address[1]}>")
