"""Fleet scaling — concurrent sessions across digest-sharded members.

Two numbers frame the router tier:

* **member scaling** — aggregate throughput of concurrent sessions
  against a 1-member fleet versus a 4-member fleet.  Members are
  latency-bound on purpose: each carries ``max_inflight_shards=1`` and
  a shard evaluator that charges a fixed delay per shard, so on any core
  count the ceiling is how many members can be *busy at once* — exactly
  what consistent-hash routing buys.  The acceptance bar is >= 2.5x
  with 4 members (hash imbalance over a finite corpus keeps it off the
  ideal 4x).
* **failover round** — kill one member mid-session (SIGKILL, no
  goodbye) and finish the same round on the survivors: the cost of a
  ring rehash plus one re-ship per moved digest, and never a
  client-visible error.  Answers are asserted identical to the local
  serial path before and after the kill.
"""

from __future__ import annotations

import threading
import time

from repro.engine import Engine
from repro.serving import (
    AsyncBatchEvaluator,
    BatchEvaluator,
    Fleet,
    Workload,
)
from repro.twig.parse import parse_twig
from repro.util.tables import format_table

from .conftest import record_report

N_SESSIONS = 4
DOCS_PER_SESSION = 10
SHARD_DELAY = 0.015  # seconds a member "works" per shard
HYPOTHESIS = "//b[c]"


class _LatencyEvaluator(BatchEvaluator):
    """Shard evaluator that charges a fixed latency per shard.

    Makes the benchmark deterministic on any machine: a member's
    service rate is 1 shard per :data:`SHARD_DELAY`, so fleet speedup
    measures *routing concurrency* (how many members overlap their
    delays), not CPU parallelism the host may not have.
    """

    def _eval_shard(self, shard, twig_keys, positions_native=False):
        time.sleep(SHARD_DELAY)
        return super()._eval_shard(shard, twig_keys, positions_native)


def _latency_member() -> AsyncBatchEvaluator:
    # Runs in the forked member process: fresh engine, delayed shards.
    return AsyncBatchEvaluator(evaluator=_LatencyEvaluator(engine=Engine()))


def _corpus(session: int) -> list:
    from repro.xmltree.parser import parse_xml
    from repro.xmltree.tree import XTree

    return [XTree(parse_xml(f"<a><b><c/></b><b/><i>s{session}-d{i}</i></a>"))
            for i in range(DOCS_PER_SESSION)]


def _session_round(fleet: Fleet, corpora: list[list],
                   registries: list[set]) -> float:
    """One concurrent round: every session evaluates its corpus; returns
    the wall-clock for the slowest session (the fleet's round time)."""
    query = parse_twig(HYPOTHESIS)
    errors: list[BaseException] = []

    def one(i: int) -> None:
        try:
            with fleet.client() as client:
                client.run(Workload.twig(query, corpora[i]),
                           known_digests=registries[i])
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=one, args=(i,))
               for i in range(len(corpora))]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed


def _fleet_round_time(n_members: int, corpora: list[list]) -> float:
    with Fleet(n_members, evaluator_factory=_latency_member,
               member_options={"max_inflight_shards": 1}) as fleet:
        registries: list[set] = [set() for _ in corpora]
        _session_round(fleet, corpora, registries)  # warm: ships the corpus
        return min(_session_round(fleet, corpora, registries)
                   for _ in range(3))


def test_fleet_member_scaling(benchmark):
    corpora = [_corpus(i) for i in range(N_SESSIONS)]
    one_member = _fleet_round_time(1, corpora)
    four_members = benchmark.pedantic(
        _fleet_round_time, args=(4, corpora), rounds=1, iterations=1)
    speedup = one_member / four_members

    n_shards = N_SESSIONS * DOCS_PER_SESSION
    rows = [
        ("1 member (serialised at the single gate)",
         f"{one_member * 1e3:.1f}", "1.0x"),
        ("4 members (digest-sharded, overlapped)",
         f"{four_members * 1e3:.1f}", f"{speedup:.2f}x"),
    ]
    record_report(
        "FLEET-member scaling under concurrent sessions",
        format_table(
            ["fleet", "ms / concurrent round", "throughput"], rows,
            title=(f"fleet scaling: {N_SESSIONS} concurrent sessions, "
                   f"{n_shards} shards x {SHARD_DELAY * 1e3:.0f} ms "
                   "service time, max_inflight_shards=1 per member")),
        metrics={"one_member_round_ms": one_member * 1e3,
                 "four_member_round_ms": four_members * 1e3,
                 "speedup": speedup})

    assert speedup >= 2.5, (
        f"4-member fleet only {speedup:.2f}x over 1 member "
        f"({four_members * 1e3:.1f} ms vs {one_member * 1e3:.1f} ms); "
        "the issue's acceptance bar is >= 2.5x")


def test_fleet_failover_round(benchmark):
    """The kill-one-member round: same session, identical answers, no
    client-visible error — failover is a performance event."""
    corpus = _corpus(0)
    query = parse_twig(HYPOTHESIS)
    workload = Workload.twig(query, corpus)
    local = BatchEvaluator(engine=Engine()).run(workload)

    def identical(remote) -> bool:
        return all(len(a) == len(b) and all(x is y for x, y in zip(a, b))
                   for a, b in zip(remote.answers, local.answers))

    with Fleet(3) as fleet:
        with fleet.client() as client:
            registry: set = set()
            before = client.run(workload, known_digests=registry)
            assert identical(before)
            fleet.kill_member("member-1")

            start = time.perf_counter()
            after = benchmark.pedantic(
                client.run, args=(workload,),
                kwargs={"known_digests": registry}, rounds=1, iterations=1)
            failover_round = time.perf_counter() - start

            assert identical(after)
            stats = client.stats()
            assert stats["router"]["members_live"] == 2
            reships = stats["router"]["reships"]

    record_report(
        "FLEET-failover round after SIGKILL of one member",
        format_table(
            ["event", "value"],
            [("failover round wall clock", f"{failover_round * 1e3:.1f} ms"),
             ("digests re-shipped (ring rehash cost)", str(reships))],
            title=(f"failover: {len(corpus)} docs, 3 -> 2 members "
                   "mid-session, refs-only round")),
        metrics={"failover_round_ms": failover_round * 1e3,
                 "reships": reships})
