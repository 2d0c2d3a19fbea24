"""Resilience economics: what self-healing costs, and what it buys.

Two numbers gate this layer:

* **Happy-path overhead** — the retry wrapper (attempt accounting,
  deadline plumbing, broken-transport checks) sits on *every* request,
  so its cost on a fault-free round must be noise: the pinned bound is
  **< 5 %** on the median of per-pair wrapped/bare round-trip ratios,
  measured against the same server with the two arms alternating per
  pair (and alternating which goes first) so clock drift and cache
  warmth cancel.  The bound is a timing gate, so only
  :func:`test_retry_wrapper_overhead_bound` asserts it (CI's resilience
  benchmark step); the tier-1 smoke runs
  :func:`test_retry_wrapper_overhead`, which asserts only the
  deterministic parts — zero retries and identical answers.

* **Post-kill recovery** — when the chaos proxy kills a connection
  mid-stream, a retry-enabled client must reconnect, replay refs-only,
  and finish **within one retry budget**: attempts never exceed the
  policy's ``max_attempts``, and the healed round's wall time stays
  under the round itself plus the policy's worst-case backoff.

The report lands in ``benchmarks/results/BENCH_resilience.json`` so CI
tracks both numbers per commit.
"""

from __future__ import annotations

import statistics
import time

from repro.engine import Engine
from repro.serving import (
    AsyncBatchEvaluator,
    ChaosProxy,
    KillAfter,
    RetryPolicy,
    ServerThread,
    Workload,
    WorkloadClient,
)
from repro.twig.parse import parse_twig
from repro.util.tables import format_table
from repro.xmltree.parser import parse_xml
from repro.xmltree.tree import XTree

from .conftest import record_report

N_DOCS = 4
PAIRS = 120
OVERHEAD_BOUND = 0.05


def _workload() -> Workload:
    docs = [XTree(parse_xml(f"<a><b><c>t{i}</c></b><b/></a>"))
            for i in range(N_DOCS)]
    return Workload.twig(parse_twig("//b[c]"), docs)


def _retry_policy() -> RetryPolicy:
    return RetryPolicy(max_attempts=4, base_delay=0.01, multiplier=2.0,
                       max_delay=0.05, jitter=0.1, seed=11)


def _median_round(client: WorkloadClient, workload: Workload,
                  known: set, samples: int) -> float:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        client.run(workload, known_digests=known)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _ab_pairs(workload: Workload, pairs: int):
    """Time ``pairs`` bare/wrapped round pairs against one server.

    The arms alternate within every pair, and which arm goes first
    alternates between pairs, so drift and ordering effects hit both
    equally.  Returns the per-pair wrapped/bare ratios, the wrapped
    client's retry count, and whether every round answered with the
    warm-up round's node objects.
    """
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        with WorkloadClient(*server.address) as bare, \
                WorkloadClient(*server.address,
                               retry=_retry_policy()) as wrapped:
            arms = [(bare, set()), (wrapped, set())]
            # Warm both connections (corpus ship + index build).
            expected = bare.run(workload, known_digests=arms[0][1]).answers
            wrapped.run(workload, known_digests=arms[1][1])
            identical = True
            ratios = []
            for pair in range(pairs):
                elapsed = [0.0, 0.0]
                for arm in ((0, 1) if pair % 2 == 0 else (1, 0)):
                    client, known = arms[arm]
                    start = time.perf_counter()
                    answers = client.run(workload,
                                         known_digests=known).answers
                    elapsed[arm] = time.perf_counter() - start
                    identical &= all(
                        len(got) == len(want)
                        and all(g is w for g, w in zip(got, want))
                        for got, want in zip(answers, expected))
                ratios.append(elapsed[1] / elapsed[0])
            return ratios, wrapped.retries, identical


def _overhead_round(benchmark) -> float:
    """Run the A/B pairs, report them, assert the deterministic parts,
    and return the overhead (median per-pair ratio minus one)."""
    ratios, retries, identical = benchmark.pedantic(
        lambda: _ab_pairs(_workload(), PAIRS), rounds=1, iterations=1)
    overhead = statistics.median(ratios) - 1.0
    quartiles = statistics.quantiles(ratios, n=4)
    rows = [
        ["A/B pairs", str(len(ratios))],
        ["median wrapped/bare ratio", f"{overhead + 1.0:.4f}"],
        ["ratio quartiles", f"{quartiles[0]:.4f} .. {quartiles[2]:.4f}"],
        ["overhead", f"{overhead * 100:+.2f}%"],
        ["bound", f"{OVERHEAD_BOUND * 100:.0f}%"],
    ]
    record_report(
        "resilience retry wrapper happy-path overhead",
        format_table(["metric", "value"], rows),
        metrics={"pairs": len(ratios), "overhead_fraction": overhead,
                 "ratio_q1": quartiles[0], "ratio_q3": quartiles[2],
                 "bound_fraction": OVERHEAD_BOUND, "retries": retries})
    assert retries == 0  # genuinely fault-free
    assert identical, "a round answered with different node objects"
    return overhead


def test_retry_wrapper_overhead(benchmark):
    """Happy path A/B (the tier-1 smoke runner): reported, and checked
    only for what is deterministic — no retries, identical answers."""
    _overhead_round(benchmark)


def test_retry_wrapper_overhead_bound(benchmark):
    """The happy-path timing gate, asserted in CI's resilience step."""
    overhead = _overhead_round(benchmark)
    assert overhead < OVERHEAD_BOUND, (
        f"retry wrapper costs {overhead * 100:.2f}% on the happy path "
        f"(pinned bound {OVERHEAD_BOUND * 100:.0f}%, median of "
        f"{PAIRS} per-pair ratios)")


def test_post_kill_recovery_within_budget(benchmark):
    """A connection killed mid-stream heals within one retry budget."""
    workload = _workload()
    policy = _retry_policy()
    worst_backoff = sum(policy.delays())

    def measure():
        with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
            known: set = set()
            # Phase 1, fault-free: the healthy floor, and the protocol's
            # deterministic frames-per-round for scripting the kill.
            with ChaosProxy(server.address) as proxy:
                with WorkloadClient(*proxy.address,
                                    retry=policy) as client:
                    client.run(workload, known_digests=known)  # warm
                    frames_warm = proxy.stats()["frames_forwarded"]
                    healthy = _median_round(client, workload, known, 9)
                    per_round = (proxy.stats()["frames_forwarded"]
                                 - frames_warm) // 9
            # Phase 2: the first connection dies mid-way through its
            # second round; the retry must reconnect and replay.
            kill_at = per_round + max(1, per_round // 2)
            with ChaosProxy(server.address,
                            plan={0: KillAfter(frames=kill_at)}) as proxy:
                with WorkloadClient(*proxy.address,
                                    retry=policy) as client:
                    client.run(workload, known_digests=known)
                    start = time.perf_counter()
                    client.run(workload, known_digests=known)
                    healed = time.perf_counter() - start
                    assert proxy.stats()["killed"] == 1, (
                        "the scripted kill never fired")
                    return (healthy, healed, client.retries,
                            client.reconnects, client.replays)

    healthy, healed, retries, reconnects, replays = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    budget = 2 * healthy + worst_backoff + 0.5
    rows = [
        ["healthy round (median)", f"{healthy * 1e3:.3f} ms"],
        ["killed round, healed", f"{healed * 1e3:.3f} ms"],
        ["retry budget ceiling", f"{budget * 1e3:.3f} ms"],
        ["retries spent", str(retries)],
        ["reconnects", str(reconnects)],
        ["replays", str(replays)],
    ]
    record_report(
        "resilience post-kill recovery",
        format_table(["metric", "value"], rows),
        metrics={"healthy_ms": healthy * 1e3, "healed_ms": healed * 1e3,
                 "budget_ms": budget * 1e3, "retries": retries,
                 "reconnects": reconnects, "replays": replays})
    assert reconnects >= 1 and replays >= 1
    # Within one retry budget: the healed round never needs more than
    # the policy's attempts, and its wall time stays under the healthy
    # round plus one full backoff schedule (generous margin for the
    # second evaluation).
    assert retries <= policy.max_attempts - 1
    assert healed < budget, (
        f"recovery took {healed * 1e3:.1f} ms, budget was "
        f"{budget * 1e3:.1f} ms")
