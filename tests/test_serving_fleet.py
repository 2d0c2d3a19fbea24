"""The digest-aware serving fleet: consistent-hash routing, the
position-aligned merge across members, drain/failover semantics, and
the backend-invariance contract over a router.

The central claims: a :class:`WorkloadClient` (and a learning session
through :class:`RemoteBackend`) pointed at a :class:`FleetRouter` is
answer-identical — same node objects, same order — to the same workload
against a single server or the serial engine path; and a fleet member
dying mid-session is a performance event, never a client-visible error.
"""

from __future__ import annotations

import socket

import pytest

from repro.engine import Engine
from repro.graphdb.graph import Graph
from repro.graphdb.regex import parse_regex
from repro.learning.backend import LocalBackend, RemoteBackend
from repro.learning.xml_session import InteractiveTwigSession
from repro.serving import (
    BatchEvaluator,
    Fleet,
    HashRing,
    ProtocolError,
    Workload,
    WorkloadClient,
)
from repro.serving.wire import (
    instance_digest,
    recv_frame_blocking,
    send_frame_blocking,
)
from repro.twig.parse import parse_twig
from repro.xmltree.tree import XTree, node

from .conftest import identical_answers, xml

# ---------------------------------------------------------------------------
# HashRing
# ---------------------------------------------------------------------------


def test_hash_ring_is_deterministic_across_instances():
    keys = [f"digest-{i}" for i in range(200)]
    a = HashRing(["m0", "m1", "m2"])
    b = HashRing(["m2", "m0", "m1"])  # insertion order must not matter
    assert [a.node_for(k) for k in keys] == [b.node_for(k) for k in keys]


def test_hash_ring_spreads_keys_over_every_member():
    ring = HashRing(["m0", "m1", "m2", "m3"])
    keys = [f"digest-{i}" for i in range(400)]
    owners = {ring.node_for(k) for k in keys}
    assert owners == {"m0", "m1", "m2", "m3"}


def test_hash_ring_removal_moves_only_the_departed_members_keys():
    ring = HashRing(["m0", "m1", "m2", "m3"])
    keys = [f"digest-{i}" for i in range(300)]
    before = {k: ring.node_for(k) for k in keys}
    ring.remove("m2")
    for k in keys:
        after = ring.node_for(k)
        if before[k] == "m2":
            assert after != "m2"
        else:
            assert after == before[k]  # survivors' keys never move


def test_hash_ring_readding_a_member_restores_its_keys():
    ring = HashRing(["m0", "m1", "m2"])
    keys = [f"digest-{i}" for i in range(150)]
    before = {k: ring.node_for(k) for k in keys}
    ring.remove("m1")
    ring.add("m1")
    assert {k: ring.node_for(k) for k in keys} == before


def test_hash_ring_validation():
    with pytest.raises(ValueError):
        HashRing(replicas=0)
    with pytest.raises(LookupError):
        HashRing().node_for("anything")
    ring = HashRing(["m0"])
    ring.add("m0")  # idempotent
    assert len(ring) == 1
    ring.remove("ghost")  # no-op
    assert ring.members() == ["m0"]


# ---------------------------------------------------------------------------
# Router parity (the tentpole contract)
# ---------------------------------------------------------------------------


def _docs(n: int = 6) -> list:
    return [xml(f"<a><b/><c><b/><d/></c><i>{i}</i></a>") for i in range(n)]


def _graph() -> Graph:
    g = Graph()
    g.add_edge(0, "r", 1)
    g.add_edge(1, "r", 2)
    g.add_edge(2, "s", 0)
    return g


def _mixed_workload(docs, graph):
    return (Workload.twig(parse_twig("//b"), docs)
            + Workload.rpq(parse_regex("r.r*"), [graph])
            + Workload.accepts(parse_regex("r*"), [(), ("r",), ("s",)]))


@pytest.fixture(scope="module")
def fleet():
    with Fleet(3) as f:
        yield f


def test_fleet_run_matches_local_evaluation(fleet):
    docs = _docs()
    workload = _mixed_workload(docs, _graph())
    local = BatchEvaluator(engine=Engine()).run(workload)
    with fleet.client() as client:
        remote = client.run(workload)
    assert remote.answers[-3:] == local.answers[-3:]  # accepts booleans
    assert remote.answers[len(docs)] == local.answers[len(docs)]  # rpq set
    assert identical_answers(remote.answers[:len(docs)],
                             local.answers[:len(docs)])
    assert remote.executor == "remote:fleet"


def test_fleet_second_round_ships_refs_only(fleet):
    docs = _docs()
    workload = Workload.twig(parse_twig("//b"), docs)
    with fleet.client() as client:
        registry: set[str] = set()
        client.run(workload, known_digests=registry)
        shipped_after_first = client.instances_shipped
        assert shipped_after_first == len(docs)
        client.run(workload, known_digests=registry)
        assert client.instances_shipped == shipped_after_first
        assert client.bytes_saved > 0


def test_router_ring_frame_reports_membership(fleet):
    with fleet.client() as client:
        report = client.ring()
    assert report["replicas"] > 0
    members = {m["id"]: m for m in report["members"]}
    assert set(members) == set(fleet.members())
    assert all(m["healthy"] and m["in_ring"] and not m["draining"]
               for m in members.values())


def test_router_stats_aggregate_members_and_counters(fleet):
    with fleet.client() as client:
        client.run(Workload.twig(parse_twig("//b"), _docs(3)))
        stats = client.stats()
    assert stats["executor"] == "fleet"
    assert stats["router"]["shards_forwarded"] >= 3
    assert stats["router"]["members_live"] == 3
    assert set(stats["members"]) == set(fleet.members())
    for payload in stats["members"].values():
        assert payload["healthy"] and "engine" in payload


def test_router_put_instances_warms_the_owning_members(fleet):
    docs = _docs(4)
    with fleet.client() as client:
        registry: set[str] = set()
        digests = client.put_instances(docs, known_digests=registry)
        assert len(digests) == 4 and registry == set(digests)
        shipped = client.instances_shipped
        result = client.run(Workload.twig(parse_twig("//b"), docs),
                            known_digests=registry)
        # The pre-ship covered every instance: the workload sent refs
        # only, and no need_instances round was required.
        assert client.instances_shipped == shipped
        assert result.n_shards == 4
    local = BatchEvaluator(engine=Engine()).run(
        Workload.twig(parse_twig("//b"), docs))
    assert identical_answers(result.answers, local.answers)


def test_fleet_ping_reports_live(fleet):
    with fleet.client() as client:
        reply = client.ping()
    assert reply == {}


def test_fleet_health_check_all_live(fleet):
    assert fleet.check_health() == {m: True for m in fleet.members()}


# ---------------------------------------------------------------------------
# Failure injection: kill, drain, restart
# ---------------------------------------------------------------------------


def test_kill_one_member_mid_session_completes_identically():
    docs = _docs(8)
    workload = Workload.twig(parse_twig("//b"), docs)
    local = BatchEvaluator(engine=Engine()).run(workload)
    with Fleet(4) as fleet:
        with fleet.client() as client:
            registry: set[str] = set()
            before = client.run(workload, known_digests=registry)
            assert identical_answers(before.answers, local.answers)
            # Hard kill — no goodbye to the router.  The same session
            # (same connection, refs only) must complete without any
            # client-visible error, answers still identical.
            fleet.kill_member("member-1")
            after = client.run(workload, known_digests=registry)
            assert identical_answers(after.answers, local.answers)
            stats = client.stats()
            assert stats["router"]["failovers"] >= 1
            assert stats["router"]["members_live"] == 3


def test_exactly_once_positions_after_failover():
    docs = _docs(10)
    workload = Workload.twig(parse_twig("//b"), docs)
    with Fleet(4) as fleet:
        with fleet.client() as client:
            registry: set[str] = set()
            client.run(workload, known_digests=registry)
            fleet.kill_member("member-2")
            positions: list[int] = []
            for shard_answer in client.stream(workload,
                                              known_digests=registry):
                positions.extend(shard_answer.indices)
            # Every workload position answered exactly once, despite the
            # failover re-dispatch.
            assert sorted(positions) == list(range(len(workload)))


def test_drain_restart_undrain_cycle_never_fails_a_session():
    docs = _docs(6)
    workload = Workload.twig(parse_twig("//b"), docs)
    local = BatchEvaluator(engine=Engine()).run(workload)
    with Fleet(3) as fleet:
        with fleet.client() as client:
            registry: set[str] = set()
            fleet.drain_member("member-0")
            report = client.ring()
            drained = {m["id"]: m for m in report["members"]}["member-0"]
            assert drained["draining"] and not drained["in_ring"]
            result = client.run(workload, known_digests=registry)
            assert identical_answers(result.answers, local.answers)
            # Rolling restart: replace the process under the same id
            # (same ring points), then bring it back into the ring.
            fleet.restart_member("member-0")
            fleet.undrain_member("member-0")
            assert fleet.check_health()["member-0"] is True
            result = client.run(workload, known_digests=registry)
            assert identical_answers(result.answers, local.answers)
            report = client.ring()
            assert all(m["in_ring"] for m in report["members"])


def test_all_members_dead_surfaces_as_server_error():
    docs = _docs(2)
    workload = Workload.twig(parse_twig("//b"), docs)
    with Fleet(1) as fleet:
        with fleet.client() as client:
            client.run(workload)
            fleet.kill_member("member-0")
            with pytest.raises(ProtocolError, match="server error"):
                client.run(workload)


def test_member_drain_frame_on_plain_server_is_rejected(fleet):
    # A member-targeted drain against a single WorkloadServer (here: a
    # fleet *member*, reached directly) is a protocol error, not a
    # silent no-op.
    member_id = fleet.members()[0]
    address = fleet._addresses[member_id]
    with WorkloadClient(*address) as direct:
        with pytest.raises(ProtocolError, match="not a fleet router"):
            direct.drain(member="somebody")
        # ...and the ring frame is single-server-shaped too.
        with pytest.raises(ProtocolError, match="no ring to report"):
            direct.ring()


def test_router_refuses_drains_naming_no_known_member(fleet):
    with fleet.client() as client:
        with pytest.raises(ProtocolError, match="unknown fleet member"):
            client.drain(member="nobody")
    # A drain naming no member is refused the same way: the router has
    # no listener drain, so it keeps accepting connections.
    with socket.create_connection(fleet.address) as sock:
        send_frame_blocking(sock, {"type": "drain"})
        reply = recv_frame_blocking(sock)
    assert reply["type"] == "error"
    assert "unknown fleet member" in reply["message"]
    with fleet.client() as client:
        assert all(m["in_ring"] for m in client.ring()["members"])


# ---------------------------------------------------------------------------
# Delta shipping through the router (mutation-heavy traffic)
# ---------------------------------------------------------------------------


def _mutation_doc(tag: str) -> XTree:
    """A document big enough that a one-node edit wins as a delta
    (delta records only ship when smaller than the full record)."""
    return XTree(node(
        "site",
        *[node("item", node("name", text=f"{tag}-{i}"),
               node("price", text=str(i))) for i in range(40)],
        node("e", text=tag)))


def test_mutated_instance_rehashing_to_another_member_ships_once(fleet):
    """The warm-affinity regression the delta path exists for: a mutated
    corpus whose new digest re-hashes to a *different* member still
    answers correctly, and the full record crosses the client link at
    most once — the router serves the re-ship from its own patched
    record cache (one hop), never by bouncing back to the client."""
    query = parse_twig("//item[price]/name")
    ring = HashRing(fleet.members())
    with fleet.client() as client:
        registry: set[str] = set()
        doc = _mutation_doc("warm-affinity")
        client.run(Workload.twig(query, [doc]), known_digests=registry)
        full_ships = client.instances_shipped
        # Mutate until the content digest re-hashes onto a new member.
        owner = ring.node_for(instance_digest(doc))
        i = 0
        while True:
            doc.relabel_node(doc.root.children[-1], label="e",
                             text=f"moved-{i}")
            if ring.node_for(instance_digest(doc)) != owner:
                break
            i += 1
        before = client.stats()["router"]
        result = client.run(Workload.twig(query, [doc]),
                            known_digests=registry)
        after = client.stats()["router"]
        # Correct answers from the member that never saw the original.
        local = BatchEvaluator(engine=Engine()).run(
            Workload.twig(query, [doc]))
        assert identical_answers(result.answers, local.answers)
        # The mutation crossed the client link as a delta, not a record;
        # the member's copy came router-cache-first.
        assert client.instances_shipped == full_ships
        assert client.deltas_shipped >= 1
        assert after["deltas_patched"] == before["deltas_patched"] + 1
        assert after["reships"] >= before["reships"] + 1


def test_same_owner_delta_patches_in_place(fleet):
    """A mutation whose digest stays on the same member forwards the
    delta itself: the member patches its stored instance, no full
    record moves anywhere."""
    query = parse_twig("//item[price]/name")
    ring = HashRing(fleet.members())
    with fleet.client() as client:
        registry: set[str] = set()
        doc = _mutation_doc("same-owner")
        client.run(Workload.twig(query, [doc]), known_digests=registry)
        full_ships = client.instances_shipped
        owner = ring.node_for(instance_digest(doc))
        i = 0
        while True:
            doc.relabel_node(doc.root.children[-1], label="e",
                             text=f"stay-{i}")
            if ring.node_for(instance_digest(doc)) == owner:
                break
            i += 1
        before = client.stats()["router"]
        result = client.run(Workload.twig(query, [doc]),
                            known_digests=registry)
        after = client.stats()["router"]
        local = BatchEvaluator(engine=Engine()).run(
            Workload.twig(query, [doc]))
        assert identical_answers(result.answers, local.answers)
        assert client.instances_shipped == full_ships
        assert client.deltas_shipped >= 1
        assert after["deltas_patched"] == before["deltas_patched"] + 1
        assert after["reships"] == before["reships"]


# ---------------------------------------------------------------------------
# Backend invariance over the fleet
# ---------------------------------------------------------------------------


def test_interactive_session_is_invariant_over_a_fleet(fleet):
    docs = [
        xml("<site><people><person><name>n</name><phone>1</phone></person>"
            "<person><name>m</name></person></people></site>"),
        xml("<site><people><person><name>o</name><phone>2</phone>"
            "</person></people></site>"),
    ]
    goal = parse_twig("//person[phone]/name")
    baseline = InteractiveTwigSession(
        docs, goal, backend=LocalBackend(engine=Engine())).run()
    with RemoteBackend(*fleet.address) as backend:
        over_fleet = InteractiveTwigSession(docs, goal,
                                            backend=backend).run()
    assert over_fleet.query == baseline.query
    assert over_fleet.stats == baseline.stats


def test_session_survives_member_kill_between_rounds():
    docs = [
        xml("<site><people><person><name>n</name><phone>1</phone></person>"
            "<person><name>m</name></person></people></site>"),
        xml("<site><people><person><name>o</name><phone>2</phone>"
            "</person></people></site>"),
    ]
    goal = parse_twig("//person[phone]/name")
    baseline = InteractiveTwigSession(
        docs, goal, backend=LocalBackend(engine=Engine())).run()
    with Fleet(3) as fleet:
        with RemoteBackend(*fleet.address) as backend:
            backend.warm_instances(docs)
            fleet.kill_member("member-0")
            over_fleet = InteractiveTwigSession(docs, goal,
                                               backend=backend).run()
    assert over_fleet.query == baseline.query
    assert over_fleet.stats == baseline.stats
