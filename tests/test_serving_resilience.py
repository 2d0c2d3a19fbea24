"""Self-healing remote sessions: deadlines, retry/reconnect with backoff,
and the deterministic chaos proxy.

The contract under test: every client-edge failure the serving tier can
suffer — refused connections, connections killed mid-stream, stalled
peers, truncated frames, a server restarting with an empty store — is
either healed *transparently* (retry policy configured: reconnect,
replay refs-only, exactly-once answers) or surfaces as a crisp
:class:`~repro.errors.ReproError` subclass.  Never a bare stack crash,
and never a wrong answer: a session run through a chaos plan learns the
identical query, question sequence, and node objects as a local run.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.engine import Engine
from repro.errors import DeadlineExceeded, ReproError, ServiceUnavailable
from repro.learning.backend import LocalBackend, RemoteBackend
from repro.learning.xml_session import InteractiveTwigSession
from repro.serving import (
    AsyncBatchEvaluator,
    BatchEvaluator,
    ChaosProxy,
    CircuitBreaker,
    Deadline,
    KillAfter,
    ProtocolError,
    Refuse,
    RetryPolicy,
    ServerThread,
    ShardGate,
    Stall,
    TransportError,
    Truncate,
    Workload,
    WorkloadClient,
    WorkloadCodec,
    periodic_plan,
    seeded_plan,
)
from repro.serving import timeouts
from repro.serving.resilience import default_retryable
from repro.serving.wire import (
    RemoteError,
    recv_frame_blocking,
    send_frame_blocking,
)
from repro.twig.parse import parse_twig

from .conftest import xml


def _docs(n: int = 4):
    return [xml(f"<a><b><c>t{i}</c></b><b/></a>") for i in range(n)]


def _workload(n_docs: int = 4) -> Workload:
    return Workload.twig(parse_twig("//b[c]"), _docs(n_docs))


def _local_answers(workload: Workload):
    return BatchEvaluator(engine=Engine()).run(workload).answers


def _answers_match(remote, workload) -> bool:
    """Positions match the serial run (node objects differ per parse)."""
    local = _local_answers(workload)
    if len(remote) != len(local):
        return False
    for remote_nodes, local_nodes in zip(remote, local):
        if [n.label for n in remote_nodes] != [n.label for n in local_nodes]:
            return False
    return True


def _quick_retry(**overrides) -> RetryPolicy:
    options = {"max_attempts": 4, "base_delay": 0.01, "max_delay": 0.05,
               "seed": 7}
    options.update(overrides)
    return RetryPolicy(**options)


# ---------------------------------------------------------------------------
# The resilience primitives
# ---------------------------------------------------------------------------


def test_deadline_budget_and_io_timeout():
    d = Deadline.after(5.0)
    assert not d.expired
    assert 0 < d.remaining() <= 5.0
    assert d.io_timeout(cap=1.0) == 1.0
    assert 0 < d.ms() <= 5000
    spent = Deadline.after(0.0)
    assert spent.expired
    with pytest.raises(DeadlineExceeded):
        spent.check("testing")
    with pytest.raises(DeadlineExceeded):
        spent.io_timeout()
    with pytest.raises(ValueError):
        Deadline.after(-1.0)


def test_retry_policy_delays_are_seeded_deterministic():
    a = list(RetryPolicy(max_attempts=5, seed=42).delays())
    b = list(RetryPolicy(max_attempts=5, seed=42).delays())
    c = list(RetryPolicy(max_attempts=5, seed=43).delays())
    assert a == b
    assert a != c
    assert len(a) == 4
    # Exponential shape survives the bounded jitter.
    assert a[0] < a[1] < a[2]


def test_retry_classification_is_transport_vs_permanent():
    assert default_retryable(ConnectionResetError())
    assert default_retryable(socket.timeout())
    assert default_retryable(TransportError("mid-frame"))
    assert not default_retryable(ProtocolError("desync"))
    assert not default_retryable(RemoteError("server said no"))
    assert not default_retryable(DeadlineExceeded("too late"))
    assert not default_retryable(ServiceUnavailable("circuit open"))
    assert not default_retryable(ValueError("a bug"))


def test_retry_call_recovers_then_exhausts():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise ConnectionResetError("boom")
        return "ok"

    assert _quick_retry().call(flaky) == "ok"
    assert calls["n"] == 3

    def always_broken():
        raise ConnectionResetError("still down")

    with pytest.raises(ConnectionResetError):
        _quick_retry(max_attempts=2).call(always_broken)

    def buggy():
        raise ValueError("not transient")

    calls["n"] = 0

    def count_retries(exc):
        calls["n"] += 1

    with pytest.raises(ValueError):
        _quick_retry().call(buggy, on_retry=count_retries)
    assert calls["n"] == 0  # non-retryable: no recovery attempted


def test_retry_backoff_respects_deadline():
    state = _quick_retry(base_delay=10.0, max_delay=10.0).start()
    with pytest.raises(DeadlineExceeded) as exc_info:
        state.backoff(ConnectionResetError("down"),
                      deadline=Deadline.after(0.05))
    assert isinstance(exc_info.value.__cause__, ConnectionResetError)


def test_circuit_breaker_opens_half_opens_and_closes():
    clock = {"t": 0.0}
    breaker = CircuitBreaker(failure_threshold=3, reset_after=10.0,
                             clock=lambda: clock["t"])
    assert breaker.state == "closed"
    for _ in range(3):
        breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.opens == 1
    with pytest.raises(ServiceUnavailable):
        breaker.guard("peer")
    clock["t"] = 11.0
    assert breaker.state == "half_open"
    breaker.guard("peer")  # first caller becomes the probe
    with pytest.raises(ServiceUnavailable):
        breaker.guard("peer")  # second caller waits for the probe
    breaker.record_success()
    assert breaker.state == "closed"
    stats = breaker.stats()
    assert stats["opens"] == 1
    assert stats["state"] == "closed"


def test_shard_gate_sheds_expired_deadlines():
    import asyncio

    async def scenario():
        gate = ShardGate(2)
        with pytest.raises(DeadlineExceeded):
            await gate.acquire(Deadline.after(0.0))
        assert gate.deadline_sheds == 1
        assert gate.in_flight == 0
        # A live deadline admits normally and releases cleanly.
        await gate.acquire(Deadline.after(30.0))
        assert gate.in_flight == 1
        gate.release()
        assert gate.in_flight == 0

    asyncio.run(scenario())


def test_timeout_constants_validate_and_back_class_attributes():
    from repro.serving.fleet import FleetRouter
    from repro.serving.net import EndpointThread, WorkloadServer

    timeouts.validate()
    assert WorkloadServer.CLOSE_DRAIN_TIMEOUT == timeouts.CLOSE_DRAIN_TIMEOUT
    assert FleetRouter.CLOSE_DRAIN_TIMEOUT == timeouts.CLOSE_DRAIN_TIMEOUT
    assert FleetRouter.CONNECT_TIMEOUT == timeouts.CONNECT_TIMEOUT
    assert EndpointThread.JOIN_TIMEOUT == timeouts.JOIN_TIMEOUT


# ---------------------------------------------------------------------------
# The chaos proxy is deterministic
# ---------------------------------------------------------------------------


def test_periodic_plan_protects_the_first_connections():
    plan = periodic_plan(3, KillAfter(1))
    hits = [i for i in range(10) if plan(i) is not None]
    assert hits == [2, 5, 8]
    with pytest.raises(ValueError):
        periodic_plan(0, KillAfter(1))


def test_seeded_plan_is_reproducible():
    faults = [KillAfter(1), Refuse(), Truncate(0)]
    a = [seeded_plan(9, faults)(i) for i in range(50)]
    b = [seeded_plan(9, faults)(i) for i in range(50)]
    c = [seeded_plan(10, faults)(i) for i in range(50)]
    assert a == b
    assert a != c
    assert a[0] is None  # protected ordinal
    assert any(f is not None for f in a)
    with pytest.raises(ValueError):
        seeded_plan(1, [])


def test_chaos_proxy_relays_cleanly_without_a_plan():
    workload = _workload(2)
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        with ChaosProxy(server.address) as proxy:
            with WorkloadClient(*proxy.address) as client:
                result = client.run(workload)
            assert _answers_match(result.answers, workload)
            stats = proxy.stats()
    assert stats["connections"] == 1
    assert stats["frames_forwarded"] > 0
    assert stats["killed"] == stats["truncated"] == stats["refused"] == 0


# ---------------------------------------------------------------------------
# One scenario per fault kind: crisp error without retry, transparent
# recovery with it
# ---------------------------------------------------------------------------


def test_refused_connection_is_crisp_then_healed():
    workload = _workload(2)
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        # Without retry: the dead first connection surfaces as a crisp
        # ReproError subclass (transport death), never a bare crash.
        with ChaosProxy(server.address, plan={0: Refuse()}) as proxy:
            with WorkloadClient(*proxy.address) as client:
                with pytest.raises((ReproError, OSError)):
                    client.run(workload)
        # With retry: reconnect, replay, answer.
        with ChaosProxy(server.address, plan={0: Refuse()}) as proxy:
            with WorkloadClient(*proxy.address,
                                retry=_quick_retry()) as client:
                result = client.run(workload)
                assert _answers_match(result.answers, workload)
                assert client.reconnects >= 1
            assert proxy.stats()["refused"] == 1


def test_connection_killed_mid_stream_replays_exactly_once():
    workload = _workload(5)  # several shards -> several response frames
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        with ChaosProxy(server.address,
                        plan={0: KillAfter(frames=2)}) as proxy:
            with WorkloadClient(*proxy.address,
                                retry=_quick_retry()) as client:
                result = client.run(workload)
                assert _answers_match(result.answers, workload)
                assert client.reconnects >= 1
                assert client.replays >= 1
            assert proxy.stats()["killed"] == 1
        # Without retry the same fault is a crisp transport error.
        with ChaosProxy(server.address,
                        plan={0: KillAfter(frames=2)}) as proxy:
            with WorkloadClient(*proxy.address) as client:
                with pytest.raises(ProtocolError):
                    client.run(workload)


def test_stalled_peer_times_out_and_recovers():
    workload = _workload(2)
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        # Client-side timeout shorter than the stall: the stalled read
        # times out (a retryable OSError), and the retry heals it.
        with ChaosProxy(server.address,
                        plan={0: Stall(seconds=1.0, then_kill=True)}) \
                as proxy:
            with WorkloadClient(*proxy.address, timeout=0.15,
                                retry=_quick_retry()) as client:
                result = client.run(workload)
                assert _answers_match(result.answers, workload)
                assert client.retries >= 1
                assert client.reconnects >= 1
            assert proxy.stats()["stalled"] == 1
        # Without retry, a per-request deadline turns the stall into a
        # crisp DeadlineExceeded instead of a bare socket timeout.
        with ChaosProxy(server.address,
                        plan={0: Stall(seconds=1.0, then_kill=True)}) \
                as proxy:
            with WorkloadClient(*proxy.address) as client:
                with pytest.raises(DeadlineExceeded):
                    client.run(workload, deadline=Deadline.after(0.2))


def test_truncated_frame_is_crisp_then_healed():
    workload = _workload(3)
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        with ChaosProxy(server.address, plan={0: Truncate(frames=1)}) \
                as proxy:
            with WorkloadClient(*proxy.address) as client:
                with pytest.raises(ProtocolError, match="mid-frame"):
                    client.run(workload)
        with ChaosProxy(server.address, plan={0: Truncate(frames=1)}) \
                as proxy:
            with WorkloadClient(*proxy.address,
                                retry=_quick_retry()) as client:
                result = client.run(workload)
                assert _answers_match(result.answers, workload)
                assert client.replays >= 1
            assert proxy.stats()["truncated"] == 1


def test_server_restart_with_empty_store_reships_transparently():
    """The replay negotiation: after a restart the server holds nothing,
    so the refs-only replay triggers ``need_instances`` and the client
    re-ships the corpus mid-stream — transparent, exactly-once."""
    workload = _workload(3)
    first = ServerThread(AsyncBatchEvaluator(engine=Engine()))
    proxy = ChaosProxy(first.address)
    known: set[str] = set()
    try:
        with WorkloadClient(*proxy.address,
                            retry=_quick_retry()) as client:
            r1 = client.run(workload, known_digests=known)
            assert _answers_match(r1.answers, workload)
            assert known  # digests registered after the full ship
            # "Restart": the old process dies (killing the relayed
            # connection), a fresh one with an EMPTY store takes over.
            second = ServerThread(AsyncBatchEvaluator(engine=Engine()))
            try:
                first.close()
                proxy._upstream = second.address
                r2 = client.run(workload, known_digests=known)
                assert _answers_match(r2.answers, workload)
                assert client.reconnects >= 1
            finally:
                second.close()
    finally:
        proxy.close()
        first.close()


# ---------------------------------------------------------------------------
# Deadlines across the wire
# ---------------------------------------------------------------------------


def test_server_sheds_expired_deadline_with_coded_error_frame():
    workload = _workload(1)
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        payload = WorkloadCodec().encode_workload(workload)
        payload["deadline_ms"] = 0  # spent before it even arrives
        with socket.create_connection(server.address) as sock:
            send_frame_blocking(sock, payload)
            frame = recv_frame_blocking(sock)
        assert frame["type"] == "error"
        assert frame["code"] == "deadline_exceeded"
        # The shed shows up on every stats surface.
        with WorkloadClient(*server.address) as client:
            stats = client.stats()
        assert stats["resilience"]["deadline_sheds"] == 1


def test_client_deadline_raises_instead_of_waiting_forever():
    workload = _workload(2)
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        with ChaosProxy(server.address,
                        plan={0: Stall(seconds=1.0)}) as proxy:
            with WorkloadClient(*proxy.address) as client:
                before = time.monotonic()
                with pytest.raises(DeadlineExceeded):
                    client.run(workload, deadline=Deadline.after(0.2))
                assert time.monotonic() - before < 0.9
        # The same deadline with ample budget answers normally.
        with WorkloadClient(*server.address) as client:
            result = client.run(workload, deadline=Deadline.after(30.0))
            assert _answers_match(result.answers, workload)


def test_deadline_bounds_the_whole_retry_budget():
    """Retries must give up when the deadline leaves no room to back off,
    raising DeadlineExceeded chained to the underlying failure."""
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        plan = periodic_plan(1, Refuse(), start=0)  # every connection dies
        with ChaosProxy(server.address, plan=plan) as proxy:
            with WorkloadClient(*proxy.address, timeout=0.5,
                                retry=_quick_retry(
                                    max_attempts=50, base_delay=0.2,
                                    multiplier=1.0)) as client:
                with pytest.raises(DeadlineExceeded):
                    client.run(_workload(1), deadline=Deadline.after(0.3))


# ---------------------------------------------------------------------------
# RemoteBackend: pool hygiene, circuit breaking, healed sessions
# ---------------------------------------------------------------------------


def test_pool_evicts_broken_clients_and_keeps_their_counters():
    """Regression: a broken connection must leave the pool at check-in —
    not linger in the client list — while its traffic counters survive
    in stats()."""
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        backend = RemoteBackend(*server.address, retry=None)
        try:
            workload = _workload(2)
            backend.evaluate_batch(workload)
            client = backend._checkout()
            requests_before = client.requests
            assert requests_before > 0
            client._broken = True  # simulate a mid-response transport death
            backend._checkin(client)
            assert client not in backend._clients
            assert client not in backend._idle
            assert client.closed
            stats = backend.stats()
            assert stats["evicted_connections"] == 1
            # The evicted connection's traffic still counts.
            assert stats["round_trips"] >= requests_before
            # The pool replaces it on demand and keeps serving.
            result = backend.evaluate_batch(workload)
            assert _answers_match(result.answers, workload)
        finally:
            backend.close()


def test_backend_circuit_breaker_fails_fast_when_peer_is_down():
    breaker = CircuitBreaker(failure_threshold=2, reset_after=60.0)
    server = ServerThread(AsyncBatchEvaluator(engine=Engine()))
    backend = RemoteBackend(*server.address, retry=None, breaker=breaker,
                            timeout=0.5)
    server.close()  # the peer is now gone; every round fails
    workload = _workload(1)
    for _ in range(2):
        with pytest.raises((ReproError, OSError)):
            backend.evaluate_batch(workload)
    assert breaker.state == "open"
    # Open circuit: crisp fail-fast, no dial, no retry budget burned.
    with pytest.raises(ServiceUnavailable):
        backend.evaluate_batch(workload)
    stats = backend.stats()
    assert stats["breaker_state"] == "open"
    assert stats["breaker"]["opens"] == 1
    backend.close()


def test_backend_breaker_half_open_probe_recovers():
    clock = {"t": 0.0}
    breaker = CircuitBreaker(failure_threshold=1, reset_after=5.0,
                             clock=lambda: clock["t"])
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        backend = RemoteBackend(*server.address, retry=None,
                                breaker=breaker)
        try:
            breaker.record_failure()  # as if a round just died
            assert breaker.state == "open"
            with pytest.raises(ServiceUnavailable):
                backend.evaluate_batch(_workload(1))
            clock["t"] = 6.0  # cooldown elapses -> half-open probe (ping)
            result = backend.evaluate_batch(_workload(1))
            assert len(result.answers) == 1
            assert breaker.state == "closed"
        finally:
            backend.close()


def test_session_through_chaos_plan_is_backend_invariant():
    """The acceptance bar: an interactive session run through a chaos
    plan — connections killed every third dial, one early stall, and a
    server-side store flush standing in for a restart — learns the
    *identical* query and question sequence as a local backend, with the
    healing visible in stats()."""
    docs = [
        xml("<site><people><person><name>n</name><phone>1</phone></person>"
            "<person><name>m</name></person></people></site>"),
        xml("<site><people><person><name>o</name><phone>2</phone>"
            "</person></people></site>"),
    ]
    goal = parse_twig("//person[phone]/name")
    baseline = InteractiveTwigSession(
        docs, goal, backend=LocalBackend(engine=Engine())).run()

    def plan(ordinal: int):
        if ordinal == 0:
            # The session's primary connection dies once six response
            # frames have crossed it — well after the corpus ships,
            # well before the session ends.
            return KillAfter(frames=6)
        if ordinal == 1:
            return Stall(seconds=0.05)
        if (ordinal - 2) % 3 == 0:
            return KillAfter(frames=2)
        return None

    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        with ChaosProxy(server.address, plan=plan) as proxy:
            backend = RemoteBackend(*proxy.address, retry=_quick_retry())
            try:
                # Half the restart scenario: mid-session the store drops
                # everything, like a member that came back empty.
                server.server.instance_store.clear()
                result = InteractiveTwigSession(
                    docs, goal, backend=backend).run()
                assert result.query == baseline.query
                assert result.stats.asked == baseline.stats.asked
                stats = backend.stats()
                assert stats["reconnects"] > 0
                assert stats["replays"] > 0
                assert proxy.stats()["killed"] > 0
            finally:
                backend.close()


def test_backend_invariant_under_seeded_chaos():
    """Same learned answers under a seeded pseudo-random fault plan —
    and the identical plan (same seed) on a rerun, which is what makes
    chaos failures reproducible in CI."""
    workload = _workload(4)
    local = _local_answers(workload)
    plan = seeded_plan(1234, [KillAfter(frames=1), Refuse(),
                              Truncate(frames=1)], probability=0.5)
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        with ChaosProxy(server.address, plan=plan) as proxy:
            backend = RemoteBackend(*proxy.address,
                                    retry=_quick_retry(max_attempts=8))
            try:
                for _ in range(6):  # several rounds -> several ordinals
                    result = backend.evaluate_batch(workload)
                    assert [[n.label for n in nodes]
                            for nodes in result.answers] \
                        == [[n.label for n in nodes] for nodes in local]
            finally:
                backend.close()


def test_stats_surface_reports_resilience_counters():
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        backend = RemoteBackend(*server.address)
        try:
            backend.evaluate_batch(_workload(2))
            stats = backend.stats()
            for key in ("retries", "reconnects", "replays",
                        "evicted_connections", "breaker_state", "breaker"):
                assert key in stats
            assert stats["breaker_state"] == "closed"
            assert stats["retries"] == 0
            server_stats = stats["server"]
            assert server_stats["resilience"]["deadline_sheds"] == 0
        finally:
            backend.close()
