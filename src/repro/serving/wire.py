"""The pickle-free wire format of the serving network front-end.

Framing is length-prefixed JSON: every message is a 4-byte big-endian
unsigned length followed by that many bytes of UTF-8 JSON.  ``pickle``
never touches a socket — deserialising a peer's pickle executes
attacker-chosen code, so the protocol is JSON end to end, with small
tagged codecs for the structured values JSON lacks:

* **twig queries** — structural ``{label, selected, branches}`` records
  (branch axes as ``"/"``/``"//"``), round-tripping the exact pattern
  including which node is selected;
* **documents** — nested ``{label, text, children}`` records preserving
  child order, so pre-order positions on the server's rebuilt copy equal
  pre-order positions on the client's original;
* **path queries / regexes** — structural AST records (atoms with label
  sets and multiplicity symbols; ``concat``/``union``/``star`` nodes),
  not concrete syntax, so round-tripping never depends on printer/parser
  agreement;
* **graphs and vertex ids** — vertex/edge lists; ids may be JSON scalars
  or (nested) tuples, encoded as ``{"__tuple__": [...]}``.

Answers travel identity-free: twig answers as pre-order positions (the
client maps them onto *its own* node objects), RPQ answers as vertex-id
pairs, acceptance answers as booleans.  :class:`WorkloadCodec` serves
both ends: the client's codec holds the per-instance pre-order node
lists that decode positions, and the server's copies the engine's
positions straight into shard frames.

Instances are **content-addressed**: every full instance record carries a
structural digest (:func:`instance_digest` — SHA-256 over the canonical
JSON encoding, cached per instance version), and a client that knows the
server already holds a digest may send ``{"type": "ref", "digest": ...}``
instead of the full record.  The handshake is eviction-safe: a workload
referencing a digest the server no longer holds is answered with a
``need_instances`` frame listing the missing digests, the client replies
with one ``put_instances`` frame carrying the full records, and the
request proceeds — a stale client guess costs one extra round trip, never
an error.  ``put_instances`` is also a standalone request (answered with
an ``ok`` frame), so a session can pre-ship its corpus before the first
evaluation round.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import struct
import threading
import weakref
from collections.abc import Callable, Sequence
from typing import Any, Protocol

from repro.engine.version import instance_version
from repro.errors import ReproError
from repro.graphdb.graph import Graph, VertexId
from repro.graphdb.pathquery import PathAtom, PathQuery
from repro.graphdb.regex import Concat, Epsilon, Label, Regex, Star, Union
from repro.schema.multiplicity import Multiplicity
from repro.serving.workload import (
    ItemKind,
    ShardAnswer,
    Workload,
    WorkloadItem,
)
from repro.twig.ast import Axis, TwigNode, TwigQuery
from repro.xmltree.tree import XNode, XTree

#: Frame length prefix: 4-byte big-endian unsigned.
_LENGTH = struct.Struct(">I")

#: Refuse absurd frames before allocating for them (64 MiB).
MAX_FRAME_BYTES = 64 * 1024 * 1024

# The closed tag vocabularies of the protocol.  Every ``{"type": ...}`` /
# ``{"kind": ...}`` literal constructed or compared anywhere in the
# serving package must come from exactly one of these registries — the
# ``wire-codec`` analysis rule enforces it, so adding a frame type means
# adding it here first (and the registries stay the single place an
# exhaustiveness argument has to read).

#: Top-level frame ``"type"`` tags (workload request frames carry no
#: ``type`` key — any untagged dict frame is a workload).  ``ping`` is
#: the health probe (answered ``ok``) a circuit breaker sends before it
#: lets requests through again.
FRAME_TYPES = frozenset({
    "shard", "done", "error", "stats", "ok",
    "need_instances", "put_instances", "ping",
})

#: Instance/query record ``"type"`` tags inside workload frames.
#: ``delta`` is a structural diff keyed ``(from digest -> to digest)``;
#: it travels only in a workload frame's ``instances`` table.
RECORD_TYPES = frozenset({"tree", "graph", "ref", "path", "regex",
                          "delta"})

#: Workload item ``"kind"`` tags (the wire spelling of
#: :class:`~repro.serving.workload.ItemKind`).
ITEM_KINDS = frozenset({"twig", "rpq", "accepts"})


class ProtocolError(ReproError):
    """Malformed frame or unencodable/undecodable payload."""


class TransportError(ProtocolError):
    """The byte stream died mid-frame (reset, truncation, unexpected EOF).

    The *retryable* half of the protocol-error space: nothing is known
    about whether the request was processed, but evaluation purity and
    content-addressed instances make a replay safe, so the resilience
    layer (:func:`repro.serving.resilience.default_retryable`) treats
    these as transient.  Plain :class:`ProtocolError` — a peer speaking
    the protocol wrong — stays permanent.
    """


class RemoteError(ProtocolError):
    """The peer processed the request and reported failure (``error`` frame).

    Never retried: the request itself was rejected, so a replay would
    fail identically.  Carries the optional machine-readable ``code``
    from the frame (``deadline_exceeded``, ``unavailable``, ...).
    """

    def __init__(self, message: str, *, code: str | None = None) -> None:
        super().__init__(message)
        self.code = code


class NeedInstances(ProtocolError):
    """A workload references digests the decoder's store does not hold.

    Raised by :meth:`WorkloadCodec.decode_workload` when a ``ref`` record
    cannot be resolved; the server turns it into a ``need_instances``
    frame (negotiation), while a decode *without* a store surfaces it as
    the protocol error it then is.
    """

    def __init__(self, digests: list[str]) -> None:
        super().__init__(
            f"workload references {len(digests)} unknown instance "
            f"digest(s): {digests[:3]}{'...' if len(digests) > 3 else ''}")
        self.digests = list(digests)


class InstanceStoreLike(Protocol):
    """What workload decoding needs from a content-addressed store."""

    def get(self, digest: str) -> object | None:
        ...

    def put(self, digest: str, instance: object, size: int) -> None:
        ...


# ---------------------------------------------------------------------------
# Framing: length-prefixed JSON over asyncio streams and blocking sockets
# ---------------------------------------------------------------------------


def encode_frame(payload: Any) -> bytes:
    """One wire frame: length prefix + compact JSON."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds the "
                            f"{MAX_FRAME_BYTES} byte cap")
    return _LENGTH.pack(len(body)) + body


def decode_frame(data: bytes) -> Any:
    """Decode one complete in-memory frame (:func:`encode_frame` inverse).

    The stream and blocking readers decode incrementally off their
    transports; this is the transport-free inverse for frames held fully
    in memory (tests, recorded captures, loopback paths).
    """
    if len(data) < _LENGTH.size:
        raise ProtocolError("truncated frame: missing length prefix")
    length = _checked_length(data[:_LENGTH.size])
    body = data[_LENGTH.size:]
    if len(body) != length:
        raise ProtocolError(f"frame length mismatch: prefix announces "
                            f"{length} bytes, frame carries {len(body)}")
    return _decode_body(body)


# repro: allow[wire-codec] body-only half of the framing layer, shared by
# the stream/blocking readers; the frame-level inverse pair is
# encode_frame/decode_frame above.
def _decode_body(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc


def _checked_length(prefix: bytes) -> int:
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"announced frame of {length} bytes exceeds "
                            f"the {MAX_FRAME_BYTES} byte cap")
    return length


async def read_frame(reader: asyncio.StreamReader) -> Any | None:
    """Read one frame from an asyncio stream reader; ``None`` on clean EOF."""
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TransportError("connection closed mid-frame") from exc
    try:
        body = await reader.readexactly(_checked_length(prefix))
    except asyncio.IncompleteReadError as exc:
        raise TransportError("connection closed mid-frame") from exc
    return _decode_body(body)


def write_frame(writer: asyncio.StreamWriter, payload: Any) -> None:
    """Queue one frame on an asyncio stream writer (caller drains)."""
    writer.write(encode_frame(payload))


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n and not chunks:
                return b""
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame_blocking(sock: socket.socket, payload: Any) -> int:
    """Send one frame; returns the number of bytes written (prefix incl.)."""
    data = encode_frame(payload)
    sock.sendall(data)
    return len(data)


def recv_frame_counted(sock: socket.socket) -> tuple[Any | None, int]:
    """Read one frame plus its on-wire size (``(None, 0)`` on clean EOF).

    The byte count feeds the remote backend's observability (bytes per
    round trip); the payload is exactly :func:`recv_frame_blocking`'s.
    """
    prefix = _recv_exactly(sock, _LENGTH.size)
    if not prefix:
        return None, 0
    length = _checked_length(prefix)
    body = _recv_exactly(sock, length)
    return _decode_body(body), _LENGTH.size + length


def recv_frame_blocking(sock: socket.socket) -> Any | None:
    """Read one frame from a blocking socket; ``None`` on clean EOF."""
    payload, _ = recv_frame_counted(sock)
    return payload


# ---------------------------------------------------------------------------
# Value codecs
# ---------------------------------------------------------------------------


def _encode_vertex(v: VertexId) -> Any:
    if isinstance(v, tuple):
        return {"__tuple__": [_encode_vertex(x) for x in v]}
    if v is None or isinstance(v, (str, int, float, bool)):
        return v
    raise ProtocolError(
        f"vertex id {v!r} is not wire-encodable (scalars and tuples only)")


def _decode_vertex(obj: Any) -> VertexId:
    if isinstance(obj, dict):
        try:
            items = obj["__tuple__"]
        except KeyError:
            raise ProtocolError(f"malformed vertex id {obj!r}") from None
        return tuple(_decode_vertex(x) for x in items)
    return obj


def _encode_tree(node: XNode) -> dict:
    out: dict[str, Any] = {"label": node.label}
    if node.text is not None:
        out["text"] = node.text
    if node.children:
        out["children"] = [_encode_tree(c) for c in node.children]
    return out


def _decode_tree(obj: dict) -> XNode:
    try:
        node = XNode(obj["label"], text=obj.get("text"))
        for child in obj.get("children", ()):
            node.add(_decode_tree(child))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed document node: {exc}") from exc
    return node


def _encode_graph(graph: Graph) -> dict:
    vertices = [[_encode_vertex(v), graph.vertex_properties(v)]
                for v in graph.vertices()]
    edges = [[_encode_vertex(e.src), e.label, _encode_vertex(e.dst),
              dict(e.properties)] for e in graph.edges()]
    return {"vertices": vertices, "edges": edges}


def _decode_graph(obj: dict) -> Graph:
    graph = Graph()
    try:
        for vertex, properties in obj["vertices"]:
            graph.add_vertex(_decode_vertex(vertex), **properties)
        for src, label, dst, properties in obj["edges"]:
            graph.add_edge(_decode_vertex(src), label, _decode_vertex(dst),
                           **properties)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed graph: {exc}") from exc
    return graph


def encode_twig_query(query: TwigQuery) -> dict:
    return {"root_axis": query.root_axis.value,
            "root": _encode_twig_node(query.root, query.selected)}


# The twig node codecs are module-level and take their state as
# arguments: a recursive inner function would close over itself and keep
# the query it walks in a reference cycle on every request.
def _encode_twig_node(n: TwigNode, selected: TwigNode) -> dict:
    out: dict[str, Any] = {"label": n.label}
    if n is selected:
        out["selected"] = True
    if n.branches:
        out["branches"] = [[axis.value, _encode_twig_node(child, selected)]
                           for axis, child in n.branches]
    return out


def _decode_twig_node(o: dict, selected: list[TwigNode]) -> TwigNode:
    n = TwigNode(o["label"])
    if o.get("selected"):
        selected.append(n)
    for axis, child in o.get("branches", ()):
        n.add(Axis(axis), _decode_twig_node(child, selected))
    return n


def decode_twig_query(obj: dict) -> TwigQuery:
    selected: list[TwigNode] = []
    try:
        root = _decode_twig_node(obj["root"], selected)
        if len(selected) != 1:
            raise ProtocolError(
                f"twig query must mark exactly one selected node, "
                f"got {len(selected)}")
        return TwigQuery(Axis(obj["root_axis"]), root, selected[0])
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed twig query: {exc}") from exc


def _encode_regex(regex: Regex) -> dict:
    if isinstance(regex, Epsilon):
        return {"op": "epsilon"}
    if isinstance(regex, Label):
        return {"op": "label", "name": regex.name}
    if isinstance(regex, Concat):
        return {"op": "concat", "left": _encode_regex(regex.left),
                "right": _encode_regex(regex.right)}
    if isinstance(regex, Union):
        return {"op": "union", "left": _encode_regex(regex.left),
                "right": _encode_regex(regex.right)}
    if isinstance(regex, Star):
        return {"op": "star", "inner": _encode_regex(regex.inner)}
    raise ProtocolError(f"unencodable regex node {type(regex).__name__}")


def _decode_regex(obj: dict) -> Regex:
    try:
        op = obj["op"]
        if op == "epsilon":
            return Epsilon()
        if op == "label":
            return Label(obj["name"])
        if op == "concat":
            return Concat(_decode_regex(obj["left"]),
                          _decode_regex(obj["right"]))
        if op == "union":
            return Union(_decode_regex(obj["left"]),
                         _decode_regex(obj["right"]))
        if op == "star":
            return Star(_decode_regex(obj["inner"]))
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed regex: {exc}") from exc
    raise ProtocolError(f"unknown regex op {op!r}")


def encode_path_query(query: object) -> dict:
    """A path-shaped query: :class:`PathQuery` or raw :class:`Regex`."""
    if isinstance(query, PathQuery):
        return {"type": "path",
                "atoms": [[sorted(a.labels), a.multiplicity.value]
                          for a in query.atoms]}
    if isinstance(query, Regex):
        return {"type": "regex", "node": _encode_regex(query)}
    raise ProtocolError(
        f"unencodable path query of type {type(query).__name__}")


def decode_path_query(obj: dict) -> object:
    kind = obj.get("type")
    if kind == "path":
        try:
            return PathQuery(
                PathAtom(frozenset(labels), Multiplicity(mult))
                for labels, mult in obj["atoms"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed path query: {exc}") from exc
    if kind == "regex":
        return _decode_regex(obj["node"])
    raise ProtocolError(f"unknown path query type {kind!r}")


# ---------------------------------------------------------------------------
# Content-addressed instance records
# ---------------------------------------------------------------------------


def encode_instance_record(instance: object) -> dict:
    """The full wire record of one instance (no digest field)."""
    if isinstance(instance, XTree):
        return {"type": "tree", "root": _encode_tree(instance.root)}
    if isinstance(instance, Graph):
        return {"type": "graph", **_encode_graph(instance)}
    raise ProtocolError(f"unencodable instance {type(instance).__name__}")


def decode_instance_record(record: dict) -> object:
    """The instance a full wire record encodes (:func:`encode_instance_record`
    inverse; a ``digest`` field is ignored)."""
    kind = record.get("type")
    if kind == "tree":
        root = record.get("root")
        if not isinstance(root, dict):
            raise ProtocolError("malformed document record: no root node")
        return XTree(_decode_tree(root))
    if kind == "graph":
        return _decode_graph(record)
    raise ProtocolError(f"unknown instance type {kind!r}")


def _canonical_record_bytes(record: dict) -> bytes:
    """The digestable form: sorted-key compact JSON, ``digest`` excluded."""
    if "digest" in record:
        record = {k: v for k, v in record.items() if k != "digest"}
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def record_digest(record: dict) -> tuple[str, int]:
    """``(digest, encoded_size)`` of a wire instance record."""
    body = _canonical_record_bytes(record)
    return hashlib.sha256(body).hexdigest(), len(body)


def checked_record_digest(record: dict) -> tuple[str, int]:
    """:func:`record_digest` of a full record, verified against the
    ``digest`` the record announces (a record announcing none passes).

    Every peer runs this before a received record enters a shared cache,
    so a client bug can cost itself wrong refs but never poison another
    session's entry.
    """
    actual, size = record_digest(record)
    announced = record.get("digest", actual)
    if announced != actual:
        raise ProtocolError(
            f"instance digest mismatch: announced {announced!r}, "
            f"encoded body hashes to {actual!r}")
    return actual, size


# Per-instance ``version -> (digest, size)`` memo, weakly keyed so a dead
# corpus never pins its fingerprints.  A mutation that bumps the instance
# version (``XTree.invalidate()``, any ``Graph`` mutator) forces a
# re-encode on the next fingerprint, so the digest tracks structure; a
# version bump without a structural change recomputes to the same digest
# (and the server keeps serving its warm copy — correct either way).
_fingerprints: "weakref.WeakKeyDictionary[object, tuple[int, str, int]]" \
    = weakref.WeakKeyDictionary()
_fingerprint_lock = threading.Lock()

#: Per-instance ``[(version, digest, size), ...]`` of recently
#: fingerprinted versions (oldest first, bounded).  Delta shipping walks
#: it newest-first looking for a version the peer already holds whose
#: edit-log window is still replayable.  Guarded by
#: ``_fingerprint_lock`` like the memo above.
_digest_history: "weakref.WeakKeyDictionary[object, list[tuple[int, str, int]]]" \
    = weakref.WeakKeyDictionary()
_DIGEST_HISTORY_CAP = 8


def _fingerprint_with_record(
        instance: object) -> tuple[str, int, dict | None]:
    """``(digest, size, record)`` with at most one structural encode.

    On a memo hit the record is ``None`` (the memo deliberately does not
    pin encoded corpora in memory — callers encode only when they must
    ship); on a miss, the record built for hashing is returned so a
    cold full-ship never encodes the same instance twice.
    """
    version = instance_version(instance)
    with _fingerprint_lock:
        entry = _fingerprints.get(instance)
    if entry is not None and entry[0] == version:
        return entry[1], entry[2], None
    record = encode_instance_record(instance)
    digest, size = record_digest(record)
    with _fingerprint_lock:
        _fingerprints[instance] = (version, digest, size)
        history = _digest_history.setdefault(instance, [])
        if not history or history[-1][0] != version:
            history.append((version, digest, size))
            if len(history) > _DIGEST_HISTORY_CAP:
                del history[0]
    return digest, size, record


def instance_fingerprint(instance: object) -> tuple[str, int]:
    """``(digest, encoded_size)`` of an instance, cached per version."""
    digest, size, _ = _fingerprint_with_record(instance)
    return digest, size


def instance_digest(instance: object) -> str:
    """The stable structural digest of a document or graph."""
    return instance_fingerprint(instance)[0]


# ---------------------------------------------------------------------------
# Delta records: structural diffs keyed (old digest -> new digest)
# ---------------------------------------------------------------------------
#
# A mutation round used to cost a full re-ship; with the instances' edit
# logs (:mod:`repro.editlog`) it costs a ``delta`` record instead: the
# replayable ops taking the version the peer already holds to the
# current one.  The receiver applies the ops to its stored copy,
# verifies the resulting digest, and falls back to the ordinary
# ``need_instances`` negotiation on any mismatch — the delta path is an
# optimisation layered on the content-addressed protocol, never a
# correctness dependency.


def encode_delta(instance: object, from_digest: str, to_digest: str,
                 ops: Sequence[dict]) -> dict:
    """One ``delta`` record from an instance's local edit-log ops.

    Local ops carry live node references alongside their JSON-able
    fields; this strips them to the wire form (tree ops: child-index
    ``path`` plus snapshot records; graph ops: wire-encoded vertex ids).
    """
    wire_ops: list[dict] = []
    if isinstance(instance, XTree):
        target = "tree"
        for op in ops:
            name = op.get("op")
            if name == "insert":
                wire_ops.append({"op": "insert", "path": list(op["path"]),
                                 "index": op["index"],
                                 "node": op["record"]})
            elif name == "delete":
                wire_ops.append({"op": "delete", "path": list(op["path"])})
            elif name == "relabel":
                wire_ops.append({"op": "relabel", "path": list(op["path"]),
                                 "label": op["label"], "text": op["text"]})
            else:
                raise ProtocolError(f"unencodable tree edit op {name!r}")
    elif isinstance(instance, Graph):
        target = "graph"
        for op in ops:
            name = op.get("op")
            if name == "add_vertex":
                wire_ops.append({"op": "add_vertex",
                                 "v": _encode_vertex(op["v"]),
                                 "props": dict(op["props"])})
            elif name == "add_edge":
                wire_ops.append({"op": "add_edge",
                                 "src": _encode_vertex(op["src"]),
                                 "label": op["label"],
                                 "dst": _encode_vertex(op["dst"]),
                                 "props": dict(op["props"])})
            elif name == "remove_edge":
                wire_ops.append({"op": "remove_edge",
                                 "src": _encode_vertex(op["src"]),
                                 "label": op["label"],
                                 "dst": _encode_vertex(op["dst"])})
            elif name == "remove_vertex":
                wire_ops.append({"op": "remove_vertex",
                                 "v": _encode_vertex(op["v"])})
            else:
                raise ProtocolError(f"unencodable graph edit op {name!r}")
    else:
        raise ProtocolError(
            f"undiffable instance {type(instance).__name__}")
    return {"type": "delta", "target": target,
            "from": from_digest, "to": to_digest, "ops": wire_ops}


def decode_delta(record: dict) -> dict:
    """Validate a ``delta`` record; returns the normalised form the
    appliers below consume (ops keep wire-encoded vertex ids)."""
    try:
        target = record["target"]
        from_digest = record["from"]
        to_digest = record["to"]
        ops = record["ops"]
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed delta record: {exc}") from exc
    if target not in ("tree", "graph"):
        raise ProtocolError(f"unknown delta target {target!r}")
    if not isinstance(from_digest, str) or not isinstance(to_digest, str):
        raise ProtocolError("delta digests must be strings")
    if not isinstance(ops, list) \
            or not all(isinstance(op, dict) for op in ops):
        raise ProtocolError("delta ops must be a list of objects")
    return {"target": target, "from": from_digest, "to": to_digest,
            "ops": ops}


def apply_delta_to_instance(instance: object, delta: dict) -> None:
    """Replay a decoded delta through the instance's tracked mutators.

    Replaying through the mutators (not by hand) extends the receiving
    instance's *own* edit log, so the engine's incremental-reindex path
    and any onward delta shipping keep working from the patched copy.
    The caller verifies the resulting digest.
    """
    try:
        if delta["target"] == "tree":
            assert isinstance(instance, XTree)
            for op in delta["ops"]:
                name = op.get("op")
                if name == "insert":
                    instance.insert_subtree(
                        instance.node_at(op["path"]),
                        _decode_tree(op["node"]), op["index"])
                elif name == "delete":
                    instance.delete_subtree(instance.node_at(op["path"]))
                elif name == "relabel":
                    instance.relabel_node(
                        instance.node_at(op["path"]),
                        label=op["label"], text=op["text"])
                else:
                    raise ProtocolError(f"unknown tree edit op {name!r}")
        else:
            assert isinstance(instance, Graph)
            for op in delta["ops"]:
                name = op.get("op")
                if name == "add_vertex":
                    instance.add_vertex(_decode_vertex(op["v"]),
                                        **op.get("props", {}))
                elif name == "add_edge":
                    instance.add_edge(_decode_vertex(op["src"]),
                                      op["label"],
                                      _decode_vertex(op["dst"]),
                                      **op.get("props", {}))
                elif name == "remove_edge":
                    instance.remove_edge(_decode_vertex(op["src"]),
                                         op["label"],
                                         _decode_vertex(op["dst"]))
                elif name == "remove_vertex":
                    instance.remove_vertex(_decode_vertex(op["v"]))
                else:
                    raise ProtocolError(f"unknown graph edit op {name!r}")
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"delta does not apply: {exc}") from exc


def apply_delta_copy(base: object, delta: dict) -> object:
    """The default (safe) applier: patch a structural copy of ``base``,
    verify the resulting digest, and return the copy.

    Never mutates ``base`` — the conservative choice when the caller
    cannot prove no concurrent evaluation still references it.
    """
    copier = getattr(base, "copy", None)
    if copier is None:
        raise ProtocolError(
            f"cannot copy instance {type(base).__name__} for delta")
    patched = copier()
    apply_delta_to_instance(patched, delta)
    digest = instance_digest(patched)
    if digest != delta["to"]:
        raise ProtocolError(
            f"delta digest mismatch: patched instance hashes to "
            f"{digest!r}, delta promised {delta['to']!r}")
    return patched


def delta_record_for(instance: object, digest: str, size: int,
                     known_digests: set[str]) -> dict | None:
    """A ``delta`` record shipping ``instance`` against a version the
    peer already holds, or ``None`` when no profitable delta exists.

    Requires a surviving edit-log window from a fingerprinted older
    version whose digest is in ``known_digests``; gives up (full ship)
    when the delta would not be smaller than the record itself.
    """
    edits_since = getattr(instance, "edits_since", None)
    if edits_since is None or not known_digests:
        return None
    with _fingerprint_lock:
        history = list(_digest_history.get(instance) or ())
    for old_version, old_digest, _old_size in reversed(history):
        if old_digest == digest or old_digest not in known_digests:
            continue
        ops = edits_since(old_version)
        if ops is None:
            # The log no longer reaches this version; older history
            # entries need an even wider window, so stop looking.
            return None
        delta = encode_delta(instance, old_digest, digest, ops)
        _, delta_size = record_digest(delta)
        if delta_size >= size:
            return None
        return delta
    return None


# ---------------------------------------------------------------------------
# Workload codec
# ---------------------------------------------------------------------------


class WorkloadCodec:
    """Encode/decode whole workloads plus their identity-free answers.

    Object identity is part of workload semantics: items sharing a
    document share a shard and an index snapshot, and acceptance items
    sharing a query object group into the same sub-shards.  Instances
    *and queries* therefore travel once each, in ``instances`` /
    ``queries`` tables, and items reference them by index — the decoded
    workload shards exactly like the original.
    Twig answers travel as pre-order positions: the encoder takes the
    engine's position tuples (the server streams the evaluator with
    ``positions_native=True``) and the client decodes positions back onto
    its own node objects at the answer boundary, so no node object ever
    crosses the socket.

    Instances are content-addressed end to end.  Encoding with
    ``known_digests`` replaces instances the peer already holds with
    ``ref`` records (the codec tracks what it shipped, what it ref'd, and
    the bytes the refs saved); decoding with a ``store`` (any mapping
    with ``get(digest)``/``put(digest, instance, size)``) canonicalises
    every record by digest, so repeated rounds resolve to **the same
    decoded object** — which is exactly what lets the engine's weak-keyed
    index map serve a warm index instead of rebuilding one per round.
    """

    def __init__(self) -> None:
        self._instances: list[object] = []
        self._index_of: dict[int, int] = {}
        self._queries: list[object] = []
        self._query_index_of: dict[int, int] = {}
        self._preorder: dict[int, list[XNode]] = {}
        self._instance_by_digest: dict[str, object] = {}
        # Decode-side overlay: every digest this codec (= this request)
        # has resolved, pinned for the request's lifetime.  It makes one
        # negotiation round always sufficient — on a tiny store, putting
        # a missing instance can evict *another* instance the same
        # workload references, but the overlay still holds it — and it
        # keeps retried decodes of one frame resolving to the same
        # objects.
        self._resolved_by_digest: dict[str, object] = {}
        #: Digests shipped as full records by the last encode (in order).
        self.shipped_digests: list[str] = []
        #: Digests sent as refs by the last encode.
        self.ref_digests: list[str] = []
        #: Digests shipped as deltas by the last encode (the *new*
        #: digest of each; the peer holds it after a successful apply).
        self.delta_digests: list[str] = []
        #: Approximate encoded bytes the refs/deltas of the last encode
        #: saved vs full records.
        self.bytes_saved = 0
        # How this codec turns a delta record into an instance given its
        # base.  The default patches a structural copy (safe anywhere);
        # the server installs an in-place applier that reuses the stored
        # instance — and its warm index — when nothing else is using it.
        self._delta_applier: Callable[[object, dict], object] = \
            apply_delta_copy

    # -- encoding side ---------------------------------------------------
    def _instance_ref(self, instance: object) -> int:
        key = id(instance)
        if key not in self._index_of:
            self._index_of[key] = len(self._instances)
            self._instances.append(instance)
        return self._index_of[key]

    def _query_ref(self, query: object, kind: ItemKind) -> int:
        key = id(query)
        if key not in self._query_index_of:
            self._query_index_of[key] = len(self._queries)
            if kind is ItemKind.TWIG:
                encoded = {"codec": "twig",
                           "q": encode_twig_query(query)}
            else:
                encoded = {"codec": "path", "q": encode_path_query(query)}
            self._queries.append(encoded)
        return self._query_index_of[key]

    def encode_workload(self, workload: Workload, *,
                        known_digests: set[str] | None = None) -> dict:
        """Encode one workload; instances the peer holds become refs.

        ``known_digests`` is the caller's registry of digests the peer is
        *believed* to hold (a wrong guess is repaired by the
        ``need_instances`` negotiation).  Full records always carry their
        digest so the peer can store them.
        """
        items: list[dict] = []
        for item in workload:
            if item.kind is ItemKind.TWIG:
                items.append({
                    "kind": "twig",
                    "query": self._query_ref(item.query, item.kind),
                    "instance": self._instance_ref(item.instance),
                })
            elif item.kind is ItemKind.RPQ:
                record: dict[str, Any] = {
                    "kind": "rpq",
                    "query": self._query_ref(item.query, item.kind),
                    "instance": self._instance_ref(item.instance),
                }
                if item.sources is not None:
                    record["sources"] = [_encode_vertex(v)
                                         for v in item.sources]
                items.append(record)
            else:
                items.append({
                    "kind": "accepts",
                    "query": self._query_ref(item.query, item.kind),
                    "word": list(item.word or ()),
                })
        instances: list[dict] = []
        self.shipped_digests = []
        self.ref_digests = []
        self.delta_digests = []
        self.bytes_saved = 0
        for instance in self._instances:
            digest, size, record = _fingerprint_with_record(instance)
            self._instance_by_digest[digest] = instance
            if known_digests is not None and digest in known_digests:
                instances.append({"type": "ref", "digest": digest})
                self.ref_digests.append(digest)
                self.bytes_saved += size
                continue
            delta = None
            if known_digests is not None:
                delta = delta_record_for(instance, digest, size,
                                         known_digests)
            if delta is not None:
                instances.append(delta)
                self.delta_digests.append(digest)
                self.bytes_saved += size - record_digest(delta)[1]
                continue
            if record is None:  # warm fingerprint, cold ship
                record = encode_instance_record(instance)
            record["digest"] = digest
            instances.append(record)
            self.shipped_digests.append(digest)
        return {"instances": instances, "queries": self._queries,
                "items": items}

    def register_instance(self, instance: object) -> str:
        """Make ``instance`` addressable by digest for later encodes."""
        digest, _ = instance_fingerprint(instance)
        self._instance_by_digest[digest] = instance
        return digest

    def resolved_digests(self) -> frozenset[str]:
        """Digests this codec (= this request) has resolved so far."""
        return frozenset(self._resolved_by_digest)

    def set_delta_applier(
            self, applier: Callable[[object, dict], object]) -> None:
        """Install how this codec turns delta records into instances.

        The server seam: its applier patches the *stored* instance in
        place (keeping the warm index) when no in-flight request still
        references the base — a decision that needs the codec itself,
        so it cannot be closed over at construction time.
        """
        self._delta_applier = applier

    def instance_for(self, digest: str) -> object | None:
        """The instance this codec knows under ``digest``, if any."""
        return self._instance_by_digest.get(digest)

    def encode_put_instances(self, digests: Sequence[str]) -> dict:
        """One ``put_instances`` frame carrying the requested full records.

        Only digests of instances this codec has encoded (full or ref)
        can be produced — anything else is a protocol error.
        """
        records: list[dict] = []
        for digest in digests:
            instance = self._instance_by_digest.get(digest)
            if instance is None:
                raise ProtocolError(
                    f"peer requested unknown instance digest {digest!r}")
            record = encode_instance_record(instance)
            record["digest"] = digest
            records.append(record)
        return {"type": "put_instances", "instances": records}

    # -- decoding side ---------------------------------------------------
    def _resolve_record(self, record: dict,
                        store: InstanceStoreLike | None) -> object:
        """Decode one full record, canonicalised through ``store``.

        The digest is verified against the record body
        (:func:`checked_record_digest`) before anything enters the store.
        """
        digest = record.get("digest")
        if store is None or digest is None:
            return decode_instance_record(record)
        cached = self._resolved_by_digest.get(digest)
        if cached is None:
            cached = store.get(digest)
        if cached is not None:
            self._resolved_by_digest[digest] = cached
            return cached
        _, size = checked_record_digest(record)
        instance = decode_instance_record(record)
        store.put(digest, instance, size)
        self._resolved_by_digest[digest] = instance
        return instance

    def _resolve_delta(self, record: dict, store: InstanceStoreLike | None,
                       missing: list[str]) -> object | None:
        """Resolve one ``delta`` record to an instance.

        Resolution order: the *target* digest may already be held (a
        retried or concurrent request applied it first); otherwise the
        base is looked up and patched through the codec's applier.  Any
        failure — unknown base, inapplicable ops, digest mismatch —
        degrades to a ``need_instances`` negotiation for the target
        digest, exactly like an unresolvable ref.
        """
        delta = decode_delta(record)
        to_digest = delta["to"]
        instance = self._resolved_by_digest.get(to_digest)
        if instance is None and store is not None:
            instance = store.get(to_digest)
        if instance is not None:
            self._resolved_by_digest[to_digest] = instance
            return instance
        base = self._resolved_by_digest.get(delta["from"])
        if base is None and store is not None:
            base = store.get(delta["from"])
        if base is None:
            missing.append(to_digest)
            return None
        try:
            instance = self._delta_applier(base, delta)
        except ProtocolError:
            missing.append(to_digest)
            return None
        if store is not None:
            _, size = instance_fingerprint(instance)
            store.put(to_digest, instance, size)
        self._resolved_by_digest[to_digest] = instance
        return instance

    def decode_put_instances(self, obj: dict,
                             store: InstanceStoreLike | None) -> list[str]:
        """Store every record of a ``put_instances`` frame; the digests."""
        try:
            records = obj["instances"]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed put_instances: {exc}") from exc
        stored: list[str] = []
        for record in records:
            if not isinstance(record, dict) or "digest" not in record:
                raise ProtocolError(
                    "put_instances records must carry a digest")
            self._resolve_record(record, store)
            stored.append(record["digest"])
        return stored

    def decode_workload(self, obj: dict, *,
                        store: InstanceStoreLike | None = None) -> Workload:
        """Decode one workload frame, resolving refs through ``store``.

        Raises :class:`NeedInstances` (listing every missing digest at
        once) when a ``ref`` cannot be resolved — the server's cue to
        negotiate, re-raised as-is on a storeless decode.
        """
        try:
            instance_records = obj["instances"]
            query_records = obj["queries"]
            item_records = obj["items"]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed workload: {exc}") from exc
        self._instances = []
        missing: list[str] = []
        for record in instance_records:
            kind = record.get("type") if isinstance(record, dict) else None
            if kind == "ref":
                digest = record.get("digest")
                if not isinstance(digest, str):
                    raise ProtocolError(f"malformed instance ref {record!r}")
                instance = self._resolved_by_digest.get(digest)
                if instance is None and store is not None:
                    instance = store.get(digest)
                    if instance is not None:
                        self._resolved_by_digest[digest] = instance
                if instance is None:
                    missing.append(digest)
                self._instances.append(instance)
            elif kind == "delta":
                self._instances.append(
                    self._resolve_delta(record, store, missing))
            elif kind in ("tree", "graph"):
                self._instances.append(self._resolve_record(record, store))
            else:
                raise ProtocolError(f"unknown instance type {kind!r}")
        if missing:
            raise NeedInstances(missing)
        self._queries = []
        for record in query_records:
            codec = record.get("codec") if isinstance(record, dict) else None
            if codec == "twig":
                self._queries.append(decode_twig_query(record["q"]))
            elif codec == "path":
                self._queries.append(decode_path_query(record["q"]))
            else:
                raise ProtocolError(f"unknown query codec {codec!r}")
        items: list[WorkloadItem] = []
        for record in item_records:
            kind = record.get("kind")
            if kind == "twig":
                items.append(WorkloadItem(
                    ItemKind.TWIG, self._resolve_query(record["query"]),
                    self._resolve(record["instance"])))
            elif kind == "rpq":
                sources = record.get("sources")
                items.append(WorkloadItem(
                    ItemKind.RPQ, self._resolve_query(record["query"]),
                    self._resolve(record["instance"]),
                    sources=None if sources is None else tuple(
                        _decode_vertex(v) for v in sources)))
            elif kind == "accepts":
                items.append(WorkloadItem(
                    ItemKind.ACCEPTS, self._resolve_query(record["query"]),
                    word=tuple(record["word"])))
            else:
                raise ProtocolError(f"unknown item kind {kind!r}")
        return Workload(items)

    def _resolve(self, index: object) -> object:
        if not isinstance(index, int) or not (
                0 <= index < len(self._instances)):
            raise ProtocolError(f"dangling instance reference {index!r}")
        return self._instances[index]

    def _resolve_query(self, index: object) -> object:
        if not isinstance(index, int) or not (
                0 <= index < len(self._queries)):
            raise ProtocolError(f"dangling query reference {index!r}")
        return self._queries[index]

    # -- answers ---------------------------------------------------------
    def _preorder_nodes(self, instance: XTree) -> list[XNode]:
        key = id(instance)
        if key not in self._preorder:
            self._preorder[key] = list(instance.nodes())
        return self._preorder[key]

    def encode_shard_answer(self, workload: Workload,
                            shard_answer: ShardAnswer) -> dict:
        """Identity-free shard frame (positions / pairs / booleans).

        Twig answers must already be pre-order position tuples (a
        positions-native evaluator stream); they pass straight into the
        frame.
        """
        answers: list[Any] = []
        for position, answer in shard_answer:
            item = workload[position]
            if item.kind is ItemKind.TWIG:
                answers.append([int(p) for p in answer])
            elif item.kind is ItemKind.RPQ:
                answers.append(sorted(
                    ([_encode_vertex(s), _encode_vertex(t)]
                     for s, t in answer), key=repr))
            else:
                answers.append(bool(answer))
        return {"type": "shard", "shard": shard_answer.shard,
                "indices": list(shard_answer.indices), "answers": answers}

    def decode_shard_answer(self, workload: Workload,
                            obj: dict) -> ShardAnswer:
        """Map a shard frame back onto the local workload's objects."""
        try:
            indices = tuple(obj["indices"])
            raw_answers = obj["answers"]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed shard frame: {exc}") from exc
        if len(indices) != len(raw_answers):
            raise ProtocolError("shard frame indices/answers misaligned")
        answers: list[Any] = []
        for position, raw in zip(indices, raw_answers):
            if not isinstance(position, int) or not (
                    0 <= position < len(workload)):
                raise ProtocolError(f"dangling item position {position!r}")
            item = workload[position]
            if item.kind is ItemKind.TWIG:
                nodes = self._preorder_nodes(item.instance)
                try:
                    answers.append([nodes[p] for p in raw])
                except (IndexError, TypeError) as exc:
                    raise ProtocolError(
                        f"twig positions out of range: {exc}") from exc
            elif item.kind is ItemKind.RPQ:
                answers.append({(_decode_vertex(s), _decode_vertex(t))
                                for s, t in raw})
            else:
                answers.append(bool(raw))
        return ShardAnswer(int(obj.get("shard", -1)), indices,
                           tuple(answers))
