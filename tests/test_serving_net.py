"""The network front-end: pickle-free framing, codec round-trips, and the
TCP endpoint whose remote answers must be *identical* — same node objects,
same order — to a local serial :class:`BatchEvaluator` run.
"""

from __future__ import annotations

import socket
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from repro.engine import Engine
from repro.graphdb.graph import Graph
from repro.graphdb.pathquery import PathQuery
from repro.graphdb.regex import parse_regex
from repro.learning.backend import RemoteBackend
from repro.serving import (
    AsyncBatchEvaluator,
    BatchEvaluator,
    CircuitBreaker,
    ProtocolError,
    RetryPolicy,
    ServerThread,
    Workload,
    WorkloadClient,
    WorkloadCodec,
    WorkloadResult,
)
from repro.serving.wire import (
    decode_path_query,
    decode_twig_query,
    encode_frame,
    encode_path_query,
    encode_twig_query,
    recv_frame_blocking,
    send_frame_blocking,
)
from repro.twig.parse import parse_twig
from repro.xmltree.tree import XTree, node, trees_equal

from .conftest import identical_answers, twig_queries, xml, xnode_trees



def _geo_graph() -> Graph:
    g = Graph()
    g.add_vertex((0, 0), name="origin")
    g.add_edge((0, 0), "road", (1, 0), distance=3)
    g.add_edge((1, 0), "road", (2, 0))
    g.add_edge((1, 0), "rail", (0, 0))
    return g


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def test_blocking_frames_round_trip_over_socketpair():
    left, right = socket.socketpair()
    try:
        payloads = [{"hello": [1, 2.5, None, True]}, [], "plain", 7]
        for payload in payloads:
            send_frame_blocking(left, payload)
        for payload in payloads:
            assert recv_frame_blocking(right) == payload
        left.close()
        assert recv_frame_blocking(right) is None  # clean EOF
    finally:
        right.close()


def test_partial_frame_raises_protocol_error():
    left, right = socket.socketpair()
    try:
        left.sendall(encode_frame({"x": 1})[:-2])  # truncated body
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame_blocking(right)
    finally:
        right.close()


def test_oversized_frame_is_refused_before_allocation():
    left, right = socket.socketpair()
    try:
        left.sendall((2 ** 31 - 1).to_bytes(4, "big"))
        left.close()
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_frame_blocking(right)
    finally:
        right.close()


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(twig_queries(max_depth=3))
def test_twig_query_codec_round_trips(query):
    decoded = decode_twig_query(encode_twig_query(query))
    assert decoded == query  # canonical() equality marks the selected node


@settings(max_examples=40, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3))
def test_document_codec_round_trips(tree):
    codec = WorkloadCodec()
    workload = Workload.twig(parse_twig("//a"), [XTree(tree)])
    decoded = codec.decode_workload(codec.encode_workload(workload))
    assert trees_equal(decoded[0].instance.root, tree)
    # Sibling order is preserved exactly (positions must line up).
    assert [n.label for n in decoded[0].instance.nodes()] == \
        [n.label for n in tree.iter()]


def test_path_query_and_regex_codec_round_trip():
    pq = PathQuery.parse("road+.(rail|bus)?.ferry*")
    assert decode_path_query(encode_path_query(pq)) == pq
    empty = PathQuery()
    assert decode_path_query(encode_path_query(empty)) == empty
    for text in ("a", "a.b", "(a|b)*.c+", "a?.b"):
        regex = parse_regex(text)
        assert decode_path_query(encode_path_query(regex)) == regex


def test_graph_codec_round_trips_tuple_vertices_and_properties():
    g = _geo_graph()
    codec = WorkloadCodec()
    workload = Workload.rpq(parse_regex("road+"), [g],
                            sources=[(0, 0), (1, 0)])
    decoded = codec.decode_workload(codec.encode_workload(workload))
    g2 = decoded[0].instance
    assert sorted(g2.vertices(), key=repr) == sorted(g.vertices(), key=repr)
    assert g2.vertex_properties((0, 0)) == {"name": "origin"}
    assert g2.edge_properties((0, 0), "road", (1, 0)) == {"distance": 3}
    assert decoded[0].sources == ((0, 0), (1, 0))
    # The rebuilt graph answers identically.
    engine = Engine()
    assert engine.evaluate_rpq(decoded[0].query, g2) == \
        engine.evaluate_rpq(parse_regex("road+"), g)


def test_workload_codec_shares_instances_across_items():
    doc = xml("<a><b/></a>")
    workload = Workload.twig_queries(
        [parse_twig("//b"), parse_twig("/a")], doc)
    codec = WorkloadCodec()
    encoded = codec.encode_workload(workload)
    assert len(encoded["instances"]) == 1  # sent once, referenced twice
    decoded = WorkloadCodec().decode_workload(encoded)
    assert decoded[0].instance is decoded[1].instance  # one shard again
    assert len(decoded.shards()) == 1


@pytest.mark.parametrize("corrupt", [
    {"instances": [], "queries": [], "items": [{"kind": "nonsense"}]},
    {"instances": [], "queries": [],
     "items": [{"kind": "twig", "query": 0, "instance": 0}]},
    {"instances": [{"type": "alien"}], "queries": [], "items": []},
    {"instances": [], "queries": [{"codec": "alien", "q": {}}], "items": []},
    {"items": []},
    [1, 2, 3],
])
def test_malformed_workloads_raise_protocol_error(corrupt):
    with pytest.raises(ProtocolError):
        WorkloadCodec().decode_workload(corrupt)


def test_twig_codec_requires_exactly_one_selected_node():
    query = parse_twig("//b[c]")
    encoded = encode_twig_query(query)
    encoded["root"].pop("selected", None)

    def strip(node):
        node.pop("selected", None)
        for _, child in node.get("branches", ()):
            strip(child)

    strip(encoded["root"])
    with pytest.raises(ProtocolError, match="exactly one selected"):
        decode_twig_query(encoded)


def test_shard_answer_codec_is_identity_free_but_identity_restoring():
    docs = [xml("<a><b><c/></b><b/></a>")]
    query = parse_twig("//b")
    workload = Workload.twig(query, docs)
    evaluator = BatchEvaluator(engine=Engine())
    server_codec = WorkloadCodec()
    client_codec = WorkloadCodec()
    serial = evaluator.run(workload)
    for shard_answer in evaluator.run_stream(workload, positions_native=True):
        frame = server_codec.encode_shard_answer(workload, shard_answer)
        assert all(isinstance(p, int) for p in frame["answers"][0])
        decoded = client_codec.decode_shard_answer(workload, frame)
        for position, answer in decoded:
            assert identical_answers([answer], [serial.answers[position]])


# ---------------------------------------------------------------------------
# The TCP endpoint
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tcp_server():
    with ServerThread(AsyncBatchEvaluator()) as server:
        yield server


def _full_workload():
    docs = [xml("<a><b><c/></b><b/></a>"),
            xml("<a><d><b><c/></b></d><b/></a>"),
            xml("<a/>")]
    g = _geo_graph()
    return (Workload.twig(parse_twig("//b[c]"), docs)
            + Workload.rpq(parse_regex("road+"), [g])
            + Workload.accepts(PathQuery.parse("road+.rail?"),
                               [("road",), ("rail",), ("road", "rail")]))


def test_tcp_round_trip_identical_to_local_serial(tcp_server):
    """A workload served over TCP is answer-identical — same node
    objects, same order — to a local BatchEvaluator run."""
    workload = _full_workload()
    local = BatchEvaluator(engine=Engine()).run(workload)
    with WorkloadClient(*tcp_server.address) as client:
        remote = client.run(workload)
    assert remote.n_shards == len(workload.shards())
    assert identical_answers(remote.answers[:3], local.answers[:3])
    assert remote.answers[3] == local.answers[3]
    assert list(remote.answers[4:]) == list(local.answers[4:])


def test_tcp_connection_is_reusable_and_streams_shards(tcp_server):
    workload = _full_workload()
    with WorkloadClient(*tcp_server.address) as client:
        first_run = client.run(workload)
        shard_answers = list(client.stream(workload))  # second request
    assert len(shard_answers) == len(workload.shards())
    positions = sorted(p for sa in shard_answers for p, _ in sa)
    assert positions == list(range(len(workload)))
    merged = [None] * len(workload)
    for sa in shard_answers:
        for position, answer in sa:
            merged[position] = answer
    assert identical_answers(merged[:3], first_run.answers[:3])
    assert merged[3:] == list(first_run.answers[3:])


def test_tcp_thread_backend_and_graph_sources():
    """A ``ServerThread`` on its own engine answers RPQ workloads
    restricted to explicit source vertices."""
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        g = _geo_graph()
        workload = Workload.rpq(parse_regex("road+"), [g],
                                sources=[(0, 0)])
        local = BatchEvaluator(engine=Engine()).run(workload)
        with WorkloadClient(*server.address) as client:
            remote = client.run(workload)
        assert remote.answers == local.answers


def test_server_reports_errors_without_dropping_connection(tcp_server):
    host, port = tcp_server.address
    with socket.create_connection((host, port), timeout=30.0) as sock:
        send_frame_blocking(sock, {"instances": [], "queries": [],
                                   "items": [{"kind": "alien"}]})
        frame = recv_frame_blocking(sock)
        assert frame["type"] == "error"
        assert "alien" in frame["message"]
        # The connection survives for a well-formed follow-up.
        codec = WorkloadCodec()
        workload = Workload.twig(parse_twig("//b"), [xml("<a><b/></a>")])
        send_frame_blocking(sock, codec.encode_workload(workload))
        frames = []
        while True:
            frame = recv_frame_blocking(sock)
            frames.append(frame)
            if frame["type"] != "shard":
                break
        assert [f["type"] for f in frames] == ["shard", "done"]


def test_unsupported_request_types_get_one_error_frame_each(tcp_server):
    """``drain`` and ``ring`` are not protocol frames: each gets one
    ``error`` frame naming its type, and the same connection then serves
    a workload like the local run."""
    workload = _full_workload()
    local = BatchEvaluator(engine=Engine()).run(workload)
    with socket.create_connection(tcp_server.address, timeout=30.0) as sock:
        for request in ({"type": "drain", "member": "m0"},
                        {"type": "ring"}):
            send_frame_blocking(sock, request)
            reply = recv_frame_blocking(sock)
            assert reply["type"] == "error"
            assert (f"unsupported request frame type {request['type']!r}"
                    in reply["message"])
        codec = WorkloadCodec()
        send_frame_blocking(sock, codec.encode_workload(workload))
        shard_answers = []
        while (frame := recv_frame_blocking(sock))["type"] == "shard":
            shard_answers.append(codec.decode_shard_answer(workload, frame))
        assert frame["type"] == "done"
    remote = WorkloadResult.assemble(workload, shard_answers)
    assert identical_answers(remote.answers[:3], local.answers[:3])
    assert list(remote.answers[3:]) == list(local.answers[3:])


def test_client_surfaces_server_error_as_protocol_error(tcp_server):
    class Unencodable:
        pass

    workload = Workload.twig(parse_twig("//b"), [xml("<a><b/></a>")])
    with WorkloadClient(*tcp_server.address) as client:
        with pytest.raises(ProtocolError, match="server error"):
            # Corrupt the encoded form by sending a raw bad frame through
            # the client's socket, then reuse the public path.
            send_frame_blocking(client._sock, ["not", "a", "workload"])
            list(client.stream(workload))


def test_closed_client_refuses_requests(tcp_server):
    client = WorkloadClient(*tcp_server.address)
    client.close()
    with pytest.raises(RuntimeError, match="closed"):
        list(client.stream(Workload()))


def test_server_thread_rejects_bad_bind():
    with pytest.raises(OSError):
        ServerThread(AsyncBatchEvaluator(engine=Engine()),
                     host="203.0.113.1")  # TEST-NET, not routable locally


# ---------------------------------------------------------------------------
# Observability: the stats frame and client counters
# ---------------------------------------------------------------------------


def test_stats_frame_reports_live_server_engine_counters():
    engine = Engine()
    with ServerThread(AsyncBatchEvaluator(engine=engine)) as server:
        with WorkloadClient(*server.address) as client:
            before = client.stats()
            assert before["engine"]["document_builds"] == \
                engine.stats()["document_builds"]
            workload = Workload.twig(parse_twig("//b"),
                                     [xml("<a><b/></a>")])
            client.run(workload)
            after = client.stats()
            # Live server-side counters: the workload's decoded
            # document was indexed between the two probes.
            assert (after["engine"]["document_builds"] ==
                    before["engine"]["document_builds"] + 1)
            assert after["engine"] == engine.stats()


def test_client_counts_requests_and_bytes(tcp_server):
    workload = Workload.twig(parse_twig("//b"), [xml("<a><b/></a>")])
    with WorkloadClient(*tcp_server.address) as client:
        assert (client.requests, client.bytes_sent,
                client.bytes_received) == (0, 0, 0)
        client.run(workload)
        assert client.requests == 1
        sent_one, received_one = client.bytes_sent, client.bytes_received
        assert sent_one > 0 and received_one > 0
        client.stats()
        assert client.requests == 2
        assert client.bytes_sent > sent_one
        assert client.bytes_received > received_one


# ---------------------------------------------------------------------------
# Lifecycle: context managers, idempotent close, broken connections
# ---------------------------------------------------------------------------


def test_client_close_is_idempotent(tcp_server):
    client = WorkloadClient(*tcp_server.address)
    assert not client.closed
    client.close()
    assert client.closed
    client.close()  # second close is a no-op, not an error
    with pytest.raises(RuntimeError, match="closed"):
        client.stats()


def test_client_survives_server_error_frames(tcp_server):
    workload = Workload.twig(parse_twig("//b"), [xml("<a><b/></a>")])
    g = _geo_graph()
    # Decodes fine, fails during evaluation: unknown source vertex.
    failing = Workload.rpq(parse_regex("road"), [g], sources=[(9, 9)])
    with WorkloadClient(*tcp_server.address) as client:
        # A server-reported error keeps the connection aligned...
        with pytest.raises(ProtocolError, match="server error"):
            list(client.stream(failing))
        # ...and the very same client still serves requests and stats.
        assert len(client.run(workload)) == 1
        assert "engine" in client.stats()


# A twig shard answering a position past the end of ``<a><b/></a>``.
_OUT_OF_RANGE_SHARD = {"type": "shard", "shard": 0, "indices": [0],
                       "answers": [[99]]}
_DONE = {"type": "done", "n_shards": 1}


@contextmanager
def _scripted_server(replies):
    """A raw server that takes one connection per scripted reply: it
    reads one request frame, sends the reply's frames and hangs up."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        for reply in replies:
            conn, _ = listener.accept()
            with conn:
                recv_frame_blocking(conn)
                conn.sendall(b"".join(encode_frame(f) for f in reply))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        listener.close()


def test_client_marks_framing_failure_unrecoverable():
    workload = Workload.twig(parse_twig("//b"), [xml("<a><b/></a>")])
    broken_replies = [
        ([["what", "even", "is", "this"]], "unexpected frame"),
        # The shard fails to decode; the ``done`` behind it must never
        # be read as the answer to a later request.
        ([_OUT_OF_RANGE_SHARD, _DONE], "out of range"),
        # A Python list would take -1 as its last node and true as 1.
        ([{**_OUT_OF_RANGE_SHARD, "answers": [[-1]]}, _DONE],
         "out of range"),
        ([{**_OUT_OF_RANGE_SHARD, "answers": [[True]]}, _DONE],
         "out of range"),
    ]
    for reply, error in broken_replies:
        with _scripted_server([reply]) as address:
            client = WorkloadClient(*address)
            with pytest.raises(ProtocolError, match=error):
                list(client.stream(workload))
            traffic = (client.requests, client.bytes_received)
            # The byte stream cannot realign: further requests fail
            # fast, reading nothing...
            with pytest.raises(ProtocolError, match="unrecoverable"):
                list(client.stream(workload))
            with pytest.raises(ProtocolError, match="unrecoverable"):
                client.stats()
            assert (client.requests, client.bytes_received) == traffic
            # ...and close() stays safe and idempotent after the failure.
            client.close()
            client.close()


def test_malformed_reply_breaks_the_backend_connection():
    """A reply that fails to decode leaves ``RemoteBackend``'s connection
    broken: the breaker counts the request as failed, and the next
    request re-dials once and answers like the local run instead of
    reading the rest of the malformed response."""
    workload = Workload.twig(parse_twig("//b"), [xml("<a><b/></a>")])
    local = BatchEvaluator(engine=Engine()).run(workload)
    valid_shard = {**_OUT_OF_RANGE_SHARD, "answers": [[1]]}
    with _scripted_server([[_OUT_OF_RANGE_SHARD, _DONE],
                           [valid_shard, _DONE]]) as address:
        breaker = CircuitBreaker()
        with RemoteBackend(*address, breaker=breaker) as backend:
            with pytest.raises(ProtocolError, match="out of range"):
                backend.evaluate_batch(workload)
            assert breaker.stats()["consecutive_failures"] == 1
            result = backend.evaluate_batch(workload)
            assert backend.client.reconnects == 1
            assert identical_answers(result.answers, local.answers)
            assert breaker.stats()["consecutive_failures"] == 0


def test_failed_redial_is_retried_then_surfaces_crisply():
    """A re-dial that fails uses up retry budget like any other attempt:
    with nothing listening any more, each later attempt dials again, and
    the request ends in the dial's own error once the budget is spent."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = WorkloadClient(*listener.getsockname(), timeout=5.0,
                            retry=RetryPolicy(max_attempts=3,
                                              base_delay=0.01))
    conn, _ = listener.accept()
    listener.close()  # every re-dial is refused from here on
    conn.close()  # and the first request's connection dies
    workload = Workload.twig(parse_twig("//b"), [xml("<a><b/></a>")])
    with pytest.raises(OSError):
        client.run(workload)
    assert (client.retries, client.reconnects) == (2, 0)
    client.close()


def test_server_thread_close_is_idempotent():
    server = ServerThread(AsyncBatchEvaluator(engine=Engine()))
    with WorkloadClient(*server.address) as client:
        assert "engine" in client.stats()
    server.close()
    server.close()  # second close joins an already-finished thread


# ---------------------------------------------------------------------------
# Content-addressed instances: digests, ship-once, negotiation, coherence
# ---------------------------------------------------------------------------


def test_instance_digest_is_structural_and_version_tracking():
    from repro.serving import instance_digest

    a = xml("<a><b/><c/></a>")
    b = xml("<a><b/><c/></a>")
    c = xml("<a><b/><d/></a>")
    assert instance_digest(a) == instance_digest(b)  # structure, not id
    assert instance_digest(a) != instance_digest(c)
    before = instance_digest(a)
    a.root.add(a.root.children[0].copy())
    a.invalidate()  # the mutation protocol every engine consumer follows
    assert instance_digest(a) != before
    g1, g2 = _geo_graph(), _geo_graph()
    assert instance_digest(g1) == instance_digest(g2)
    g1.add_edge((2, 0), "rail", (0, 0))
    assert instance_digest(g1) != instance_digest(g2)


def test_known_digests_turn_repeat_instances_into_refs(tcp_server):
    """The ship-once contract at the client level: with a shared digest
    registry, the second request's workload frame carries only refs (and
    costs measurably fewer bytes), with identical answers."""
    workload = _full_workload()
    local = BatchEvaluator(engine=Engine()).run(workload)
    with WorkloadClient(*tcp_server.address) as client:
        registry: set[str] = set()
        first = client.run(workload, known_digests=registry)
        cold_bytes = client.bytes_sent
        assert client.instances_shipped == 4  # 3 docs + 1 graph
        assert len(registry) == 4
        second = client.run(workload, known_digests=registry)
        warm_bytes = client.bytes_sent - cold_bytes
        assert client.instances_shipped == 4  # nothing re-shipped
        # Instance payloads collapsed to refs: the warm request saved
        # their full encoded size (these test instances are tiny, so the
        # 5x wire-level ratio is the benchmark's assertion, not this
        # one's — here we pin the mechanism, not the magnitude).
        assert client.bytes_saved > 0
        assert warm_bytes < cold_bytes
    for run in (first, second):
        assert identical_answers(run.answers[:3], local.answers[:3])
        assert run.answers[3] == local.answers[3]
        assert list(run.answers[4:]) == list(local.answers[4:])


def test_eviction_triggers_need_instances_negotiation_not_error():
    from repro.serving import InstanceStore

    docs = [xml("<a><b/><b/></a>"), xml("<a><c><b/></c></a>")]
    query = parse_twig("//b")
    local = BatchEvaluator(engine=Engine()).run(Workload.twig(query, docs))
    store = InstanceStore(max_bytes=40)  # can never hold both documents
    with ServerThread(AsyncBatchEvaluator(engine=Engine()),
                      instance_store=store) as server:
        with WorkloadClient(*server.address) as client:
            registry: set[str] = set()
            for _ in range(3):  # every round re-negotiates at least one
                result = client.run(Workload.twig(query, docs),
                                    known_digests=registry)
                assert identical_answers(result.answers, local.answers)
    assert store.stats()["evictions"] > 0


def test_put_instances_preships_and_is_acknowledged():
    docs = [xml("<a><b/></a>"), xml("<a><b/><b/></a>")]
    query = parse_twig("//b")
    local = BatchEvaluator(engine=Engine()).run(Workload.twig(query, docs))
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        store = server.server.instance_store
        with WorkloadClient(*server.address) as client:
            registry: set[str] = set()
            digests = client.put_instances(docs, known_digests=registry)
            assert len(digests) == 2 and registry == set(digests)
            assert all(d in store for d in digests)
            baseline_shipped = client.instances_shipped
            result = client.run(Workload.twig(query, docs),
                                known_digests=registry)
            assert identical_answers(result.answers, local.answers)
            assert client.instances_shipped == baseline_shipped
        stats = store.stats()
        assert stats["instances"] == 2 and stats["hits"] >= 2


def test_stats_frame_reports_instance_cache_and_admission():
    with ServerThread(AsyncBatchEvaluator(engine=Engine()),
                      max_inflight_shards=3) as server:
        with WorkloadClient(*server.address) as client:
            client.run(Workload.twig(parse_twig("//b"),
                                     [xml("<a><b/></a>")]))
            stats = client.stats()
    cache = stats["instance_cache"]
    assert cache["instances"] == 1 and cache["misses"] >= 1
    assert cache["bytes"] > 0
    assert stats["admission"] == {"max_inflight_shards": 3, "in_flight": 0}


def test_http_stats_endpoint_serves_wire_stats_json():
    import json as json_module
    import urllib.error
    import urllib.request

    with ServerThread(AsyncBatchEvaluator(engine=Engine()),
                      stats_port=0) as server:
        with WorkloadClient(*server.address) as client:
            client.run(Workload.twig(parse_twig("//b"),
                                     [xml("<a><b/></a>")]))
            wire_stats = client.stats()
        host, port = server.stats_address
        with urllib.request.urlopen(f"http://{host}:{port}/stats",
                                    timeout=10) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/json"
            http_stats = json_module.load(response)
        # Same payload shape as the wire stats frame, scrapeable over
        # HTTP; counters can only have moved forward in between.
        assert set(http_stats) == set(wire_stats)
        assert http_stats["instance_cache"]["instances"] == \
            wire_stats["instance_cache"]["instances"]
        with pytest.raises(urllib.error.HTTPError) as not_found:
            urllib.request.urlopen(f"http://{host}:{port}/nope", timeout=10)
        assert not_found.value.code == 404
        not_found.value.close()  # the error holds the response's socket


def test_mutation_between_rounds_changes_digest_and_refetches():
    """Cache coherence: an in-place mutation (version bump via
    ``XTree.invalidate`` / graph mutators) changes the digest, the
    server fetches the new structure, and answers keep matching a
    local evaluation of the mutated instance."""
    from repro.serving import instance_digest

    doc = xml("<a><b/><c/></a>")
    graph = _geo_graph()
    twig_q = parse_twig("//b")
    rpq_q = parse_regex("road+")
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        with WorkloadClient(*server.address) as client:
            registry: set[str] = set()
            first = client.run(Workload.twig(twig_q, [doc])
                               + Workload.rpq(rpq_q, [graph]),
                               known_digests=registry)
            assert len(first.answers[0]) == 1
            tree_digest, graph_digest = sorted(registry)
            doc.root.add(doc.root.children[0].copy())
            doc.invalidate()
            graph.add_edge((2, 0), "road", (3, 0))
            assert instance_digest(doc) not in (tree_digest, graph_digest)
            assert instance_digest(graph) not in (tree_digest, graph_digest)
            shipped_before = client.instances_shipped
            second = client.run(Workload.twig(twig_q, [doc])
                                + Workload.rpq(rpq_q, [graph]),
                                known_digests=registry)
            # Both mutated instances were re-shipped under new digests...
            assert client.instances_shipped == shipped_before + 2
            assert len(registry) == 4
    # ...and the remote answers match a local run on the mutated objects.
    local = BatchEvaluator(engine=Engine()).run(
        Workload.twig(twig_q, [doc]) + Workload.rpq(rpq_q, [graph]))
    assert identical_answers([second.answers[0]], [local.answers[0]])
    assert second.answers[1] == local.answers[1]


def _mutation_doc(tag: str) -> XTree:
    """A document big enough that a one-node edit ships as a delta
    (delta records only ship when smaller than the full record)."""
    return XTree(node(
        "site",
        *[node("item", node("name", text=f"{tag}-{i}"),
               node("price", text=str(i))) for i in range(40)]))


def _edit_round(docs, doc) -> tuple[WorkloadResult, dict, dict, dict]:
    """Run a twig workload over ``docs`` twice on a fresh server, with a
    tracked edit of ``doc`` in between.  Returns the second round's
    result, the server's engine stats around it, and how many records
    the client shipped during it (full records and deltas)."""
    workload = Workload.twig(parse_twig("//item[price]/name"), docs)
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        with WorkloadClient(*server.address) as client:
            registry: set[str] = set()
            client.run(workload, known_digests=registry)
            shipped = (client.instances_shipped, client.deltas_shipped)
            before = client.stats()["engine"]
            doc.relabel_node(doc.root.children[0].children[1],
                             label="cost")
            result = client.run(workload, known_digests=registry)
            after = client.stats()["engine"]
            round_two = {
                "full": client.instances_shipped - shipped[0],
                "delta": client.deltas_shipped - shipped[1]}
    return result, before, after, round_two


def test_tracked_edit_between_rounds_patches_the_stored_instance():
    """A tracked edit between two rounds ships one delta record, and the
    server replays it onto its stored instance: the warm index is
    patched, not rebuilt, and the answers are the local run's nodes."""
    doc = _mutation_doc("in-place")
    result, before, after, shipped = _edit_round([doc], doc)
    assert shipped == {"full": 0, "delta": 1}
    assert after["document_patches"] == before["document_patches"] + 1
    # document_builds counts patched indexes too.
    assert (after["document_builds"] - after["document_patches"]
            == before["document_builds"] - before["document_patches"])
    local = BatchEvaluator(engine=Engine()).run(result.workload)
    assert len(local.answers[0]) == 39  # the edit changed the answer
    assert identical_answers(result.answers, local.answers)


@pytest.mark.parametrize("edited_first", [False, True],
                         ids=["copy-first", "edited-first"])
def test_tracked_edit_beside_an_unmodified_copy_of_its_base(edited_first):
    """The same request also refers to the delta's base (through an
    unmodified copy).  Copy first, the base is already in use, so the
    delta patches a structural copy: no patch, no re-ship.  Edited
    document first, it patches the stored base in place, and the copy's
    ref to the old digest renegotiates once."""
    doc = _mutation_doc("twin")
    twin = doc.copy()
    docs = [doc, twin] if edited_first else [twin, doc]
    result, before, after, shipped = _edit_round(docs, doc)
    patches = after["document_patches"] - before["document_patches"]
    if edited_first:
        assert (patches, shipped) == (1, {"full": 1, "delta": 1})
    else:
        assert (patches, shipped) == (0, {"full": 0, "delta": 1})
    local = BatchEvaluator(engine=Engine()).run(result.workload)
    assert identical_answers(result.answers, local.answers)


def test_instance_store_lru_accounting():
    from repro.serving import InstanceStore

    store = InstanceStore(max_bytes=100)
    store.put("a", "A", 40)
    store.put("b", "B", 40)
    assert store.get("a") == "A"      # touches a: LRU order is now b, a
    store.put("c", "C", 40)           # evicts b
    assert store.get("b") is None
    assert store.get("a") == "A" and store.get("c") == "C"
    stats = store.stats()
    assert stats == {"instances": 2, "bytes": 80, "max_bytes": 100,
                     "hits": 3, "misses": 1, "evictions": 1}
    store.put("a", "A2", 40)          # idempotent per digest: keeps "A"
    assert store.get("a") == "A"
    with pytest.raises(ValueError, match="positive"):
        InstanceStore(max_bytes=0)


def test_digest_mismatch_is_rejected_before_the_store():
    from repro.serving import InstanceStore, NeedInstances, WorkloadCodec
    from repro.serving.wire import encode_instance_record

    codec = WorkloadCodec()
    store = InstanceStore()
    doc = xml("<a><b/></a>")
    workload = Workload.twig(parse_twig("//b"), [doc])
    frame = codec.encode_workload(workload)
    frame["instances"][0]["digest"] = "0" * 64  # lie about the content
    with pytest.raises(ProtocolError, match="digest mismatch"):
        WorkloadCodec().decode_workload(frame, store=store)
    assert len(store) == 0
    # A storeless decode of a ref surfaces NeedInstances (a protocol
    # error: there is nobody to negotiate with).
    record = encode_instance_record(doc)
    ref_frame = codec.encode_workload(workload)
    ref_frame["instances"][0] = {"type": "ref",
                                 "digest": "f" * 64}
    with pytest.raises(NeedInstances):
        WorkloadCodec().decode_workload(ref_frame)
    assert record["type"] == "tree"


def test_http_stats_endpoint_rejects_oversized_requests():
    """A request line past the stream buffer limit gets a 400 response,
    not a silently crashed handler task (LimitOverrunError is handled),
    and the endpoint keeps serving normal scrapes afterwards."""
    import json as json_module
    import urllib.request

    with ServerThread(AsyncBatchEvaluator(engine=Engine()),
                      stats_port=0) as server:
        host, port = server.stats_address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET /" + b"x" * (128 * 1024) + b" HTTP/1.0\r\n")
            reply = sock.recv(65536)
        assert reply.startswith(b"HTTP/1.0 400")
        with urllib.request.urlopen(f"http://{host}:{port}/stats",
                                    timeout=10) as response:
            assert response.status == 200
            assert "engine" in json_module.load(response)


def test_failed_stats_bind_releases_the_workload_listener():
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    stats_port = blocker.getsockname()[1]
    main = socket.socket()
    main.bind(("127.0.0.1", 0))
    main_port = main.getsockname()[1]
    main.close()
    try:
        with pytest.raises(OSError):
            ServerThread(AsyncBatchEvaluator(engine=Engine()),
                         port=main_port, stats_port=stats_port)
        # The half-started server must not keep the workload port bound.
        retry = socket.socket()
        retry.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        retry.bind(("127.0.0.1", main_port))
        retry.close()
    finally:
        blocker.close()


def test_unknown_need_instances_digest_fails_fast():
    """A peer requesting digests this request never encoded is a protocol
    bug the connection cannot recover from (the server is left awaiting
    a put we cannot produce): the client must mark itself unrecoverable
    immediately instead of hanging the next request on the drain."""
    import threading

    bad = socket.socket()
    bad.bind(("127.0.0.1", 0))
    bad.listen(1)

    def serve_bogus_need():
        conn, _ = bad.accept()
        recv_frame_blocking(conn)  # the workload frame
        send_frame_blocking(conn, {"type": "need_instances",
                                   "digests": ["f" * 64]})
        conn.recv(65536)  # whatever the client does next
        conn.close()

    thread = threading.Thread(target=serve_bogus_need, daemon=True)
    thread.start()
    client = WorkloadClient(*bad.getsockname())
    workload = Workload.twig(parse_twig("//b"), [xml("<a><b/></a>")])
    with pytest.raises(ProtocolError, match="unknown digests"):
        list(client.stream(workload))
    with pytest.raises(ProtocolError, match="unrecoverable"):
        list(client.stream(workload))
    client.close()
    thread.join()
    bad.close()


# ---------------------------------------------------------------------------
# Request-lifecycle regressions: eager stream send, keyword-only put,
# prompt shutdown with stuck peers
# ---------------------------------------------------------------------------


def test_stream_sends_eagerly_before_first_iteration(tcp_server):
    """Regression: ``stream()`` used to be a lazy generator — nothing was
    sent until the first ``next()``, so counters lagged and interleaved
    requests could reorder.  The request frame must be on the wire (and
    counted) when ``stream()`` returns."""
    docs = [xml("<a><b/></a>"), xml("<a><b/><b/></a>")]
    workload = Workload.twig(parse_twig("//b"), docs)
    with WorkloadClient(*tcp_server.address) as client:
        stream = client.stream(workload)
        # Sent already: request + shipped instances counted pre-iteration.
        assert client.requests == 1
        assert client.instances_shipped == len(docs)
        assert list(stream)  # and the response still streams fine


def test_put_instances_requires_keyword_known_digests(tcp_server):
    docs = [xml("<a><b/></a>")]
    with WorkloadClient(*tcp_server.address) as client:
        with pytest.raises(TypeError):
            client.put_instances(docs, set())  # positional: rejected
        assert client.put_instances(docs, known_digests=set())


def test_server_thread_close_is_prompt_with_a_stuck_connection():
    """Regression: ``aclose()`` awaited ``wait_closed()`` without
    cancelling in-flight handlers and ``close()`` joined unboundedly —
    one idle peer (connected, never sending a frame) could hang
    shutdown forever.  Handlers are now cancelled with a bounded drain
    and the thread join has a timeout."""
    import time

    thread = ServerThread(AsyncBatchEvaluator(engine=Engine()))
    stuck = socket.create_connection(thread.address)
    try:
        # The handler is parked in read_frame() awaiting a frame that
        # will never come; close() must not wait for it.
        start = time.monotonic()
        thread.close()
        assert time.monotonic() - start < ServerThread.JOIN_TIMEOUT
    finally:
        stuck.close()


@pytest.mark.parametrize("endpoint", ["workload", "stats"])
def test_close_closes_a_connection_accepted_just_before(endpoint):
    """A connection made just before the server closes is closed with
    it: ten times over, a raw socket connects (to the workload or the
    HTTP stats port), the server closes at once, and the socket reads
    end-of-stream within a second."""
    for _ in range(10):
        thread = ServerThread(AsyncBatchEvaluator(engine=Engine()),
                              stats_port=0)
        address = thread.address if endpoint == "workload" \
            else thread.stats_address
        with socket.create_connection(address, timeout=5.0) as sock:
            thread.close()
            sock.settimeout(1.0)
            try:
                assert sock.recv(1) == b""
            except ConnectionResetError:
                # Closed before the server accepted it: the kernel
                # resets a connection still queued on a closed listener.
                pass


# ---------------------------------------------------------------------------
# Fair scheduling: one admission slot per connection at a time
# ---------------------------------------------------------------------------


def test_shard_gate_cancelled_waiter_returns_its_slot():
    import asyncio

    from repro.serving import ShardGate

    async def scenario():
        gate = ShardGate(1)
        await gate.acquire()
        parked = asyncio.ensure_future(gate.acquire())
        await asyncio.sleep(0)
        parked.cancel()
        with pytest.raises(asyncio.CancelledError):
            await parked
        # The cancelled waiter must not leak a slot: after the holder
        # releases, a fresh acquire still gets in.
        gate.release()
        await asyncio.wait_for(gate.acquire(), timeout=5)
        gate.release()
        assert gate.in_flight == 0

    asyncio.run(scenario())


class _SleepyEvaluator(BatchEvaluator):
    """Shard evaluator whose every shard costs a fixed latency — makes
    admission-order effects observable without loading the CPU.
    :attr:`evaluating` is set once the first shard starts."""

    def __init__(self, delay: float) -> None:
        super().__init__()
        self.delay = delay
        self.evaluating = threading.Event()

    def _eval_shard(self, shard, twig_keys, positions_native=False):
        import time
        self.evaluating.set()
        time.sleep(self.delay)
        return super()._eval_shard(shard, twig_keys, positions_native)


class _ConcurrencyProbe(BatchEvaluator):
    """Shard evaluator that records the most shards it ever evaluated at
    once (each shard sleeps briefly, so overlapping calls would show)."""

    def __init__(self) -> None:
        import threading

        super().__init__()
        self._lock = threading.Lock()
        self.active = 0
        self.peak = 0
        self.calls = 0

    def _eval_shard(self, shard, twig_keys, positions_native=False):
        import time

        with self._lock:
            self.active += 1
            self.calls += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(0.005)
            return super()._eval_shard(shard, twig_keys, positions_native)
        finally:
            with self._lock:
                self.active -= 1


def test_one_connection_never_evaluates_two_shards_at_once():
    """A connection's stream holds one admission slot at a time, even
    when the gate has room for more: an 8-shard workload through a
    4-slot server evaluates strictly one shard after another."""
    probe = _ConcurrencyProbe()
    docs = [xml(f"<a><b/><i>{i}</i></a>") for i in range(8)]
    workload = Workload.twig(parse_twig("//b"), docs)
    with ServerThread(AsyncBatchEvaluator(evaluator=probe),
                      max_inflight_shards=4) as server:
        with WorkloadClient(*server.address) as client:
            shard_answers = list(client.stream(workload))
    assert len(shard_answers) == len(workload.shards()) == 8
    assert probe.calls == 8
    assert probe.peak == 1


def test_per_connection_quota_keeps_small_sessions_responsive():
    """Two competing connections: a greedy 10-shard session must not
    monopolise the gate — it holds one of the two slots at a time, so a
    one-shard request that arrives *after* it still finishes first."""
    import threading
    import time

    greedy_docs = [xml(f"<a><b/><i>{i}</i></a>") for i in range(10)]
    small_docs = [xml("<a><b/><i>small</i></a>")]
    done: dict[str, float] = {}
    sleepy = _SleepyEvaluator(0.1)

    thread = ServerThread(AsyncBatchEvaluator(evaluator=sleepy),
                          max_inflight_shards=2)
    with thread as server:
        def greedy():
            with WorkloadClient(*server.address) as client:
                client.run(Workload.twig(parse_twig("//b"), greedy_docs))
                done["greedy"] = time.monotonic()

        runner = threading.Thread(target=greedy)
        runner.start()
        # The greedy session is on the server before the small one.
        assert sleepy.evaluating.wait(timeout=10)
        with WorkloadClient(*server.address) as client:
            client.run(Workload.twig(parse_twig("//b"), small_docs))
            done["small"] = time.monotonic()
        runner.join(timeout=30)
        assert not runner.is_alive()
    # Ordering, not absolute timing: the small session finished while
    # the greedy one was still paying for its queue.
    assert done["small"] < done["greedy"]
