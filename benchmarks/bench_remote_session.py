"""Interactive sessions on the backend seam — invariance + round latency.

One full interactive twig session (pool scan, implied-label probes,
question proposal, final propagation) runs against each
:mod:`repro.learning.backend` implementation:

* **LocalBackend** — in-process sharded evaluation, the serial floor;
* **RemoteBackend** — the same session, unmodified, over a real TCP
  server (wire codec + socket + server-side evaluation per round).

The *assertion* is the seam's whole point: the learned query and the
complete question sequence (``SessionStats.asked``) are identical on
both.  The *numbers* are what a deployment pays for each shape — the
per-session latency of the local and remote paths, plus the remote
round-trip/byte accounting from ``RemoteBackend.stats()``.

Since the serving tier went content-addressed, the remote column also
pins the **ship-once contract**: a session ships each distinct document
exactly once (later rounds send digest refs), the upstream byte volume
drops at least 5x against the re-ship-every-round protocol (PR 4 paid
~1147 KiB up per session; the saved bytes are measured directly), and
the server rebuilds at most one index per distinct instance — repeat
rounds hit the warm index through the instance store.
"""

from __future__ import annotations

import time

from repro.datasets.xmark import generate_xmark
from repro.engine import Engine
from repro.learning.backend import LocalBackend, RemoteBackend
from repro.learning.xml_session import InteractiveTwigSession
from repro.serving import AsyncBatchEvaluator, ServerThread
from repro.twig.parse import parse_twig
from repro.util.tables import format_table

from .conftest import record_report

N_DOCS = 6
SCALE = 0.03
GOAL = "//person[profile]/name"
LABEL_FILTER = "name"
MAX_POOL = 60
ROUNDS = 5


def _corpus():
    return [generate_xmark(scale=SCALE, rng=700 + i) for i in range(N_DOCS)]


def _run_session(docs, backend):
    return InteractiveTwigSession(
        docs, parse_twig(GOAL), label_filter=LABEL_FILTER,
        max_pool=MAX_POOL, backend=backend).run()


def _timed(fn, rounds=ROUNDS):
    start = time.perf_counter()
    for _ in range(rounds):
        result = fn()
    return result, (time.perf_counter() - start) / rounds


def _assert_ships_corpus_once(stats, n_docs):
    """The content-addressed serving contract, per warm session."""
    # Each distinct document crossed the wire exactly once despite the
    # session's many evaluation rounds...
    assert stats["instances_shipped"] == n_docs, (
        f"expected the corpus ({n_docs} documents) to ship exactly once, "
        f"shipped {stats['instances_shipped']} full records over "
        f"{stats['round_trips']} round trips")
    # ...which cuts upstream bytes >=5x against the re-ship-every-round
    # protocol: what that protocol would have sent is exactly what was
    # sent plus what the refs saved.
    reship_bytes = stats["bytes_sent"] + stats["bytes_saved"]
    assert reship_bytes >= 5 * stats["bytes_sent"], (
        f"warm session sent {stats['bytes_sent']} bytes but the "
        f"re-ship protocol would have sent {reship_bytes} — less than "
        "the required 5x reduction")


def test_remote_session_backend_invariance_and_latency(benchmark):
    docs = _corpus()
    baseline, local_s = _timed(
        lambda: _run_session(docs, LocalBackend(engine=Engine())))
    assert baseline.query is not None
    assert baseline.stats.questions > 0

    server_engine = Engine()
    with ServerThread(AsyncBatchEvaluator(engine=server_engine)) as server:
        def remote_round():
            with RemoteBackend(*server.address) as backend:
                result = _run_session(docs, backend)
                return result, backend.stats()

        (remote, remote_stats), remote_s = _timed(remote_round)
        assert remote.query == baseline.query
        assert remote.stats.asked == baseline.stats.asked
        _assert_ships_corpus_once(remote_stats, N_DOCS)

        timed = benchmark.pedantic(remote_round, rounds=ROUNDS,
                                   iterations=1)
        assert timed[0].stats.asked == baseline.stats.asked
        _assert_ships_corpus_once(timed[1], N_DOCS)

        # Index-build regression metric: however many sessions ran, the
        # server's store resolved every repeat round (and repeat session)
        # to the same decoded objects, so the engine built at most one
        # columnar index per distinct document.
        index_builds = server_engine.stats()["document_builds"]
        assert index_builds <= N_DOCS, (
            f"server rebuilt {index_builds} document indexes for "
            f"{N_DOCS} distinct documents — the instance cache is not "
            "reusing warm indexes")
        # Positions end to end: the server answers straight from the
        # warm position arrays, so one more full session must not
        # trigger a single additional index build.
        remote_round()
        post_builds = server_engine.stats()["document_builds"]
        assert post_builds == index_builds, (
            f"a warm session grew document_builds from {index_builds} to "
            f"{post_builds} — the positions-native serving path is "
            "rebuilding columnar indexes instead of reusing them")
        cache = timed[1]["server"]["instance_cache"]

    kib_up = remote_stats["bytes_sent"] / 1024
    saved_kib = remote_stats["bytes_saved"] / 1024
    rows = [
        ("LocalBackend (in-process)", f"{local_s * 1e3:.1f}", "-", "-",
         "1.0x"),
        (f"RemoteBackend (TCP, {remote_stats['round_trips']} round trips, "
         f"corpus shipped once, {saved_kib:.0f} KiB saved by refs)",
         f"{remote_s * 1e3:.1f}", f"{kib_up:.0f}",
         f"{index_builds}", f"{remote_s / local_s:.1f}x vs local"),
    ]
    record_report(
        "SERVING-remote interactive session",
        format_table(
            ["backend", "ms / full session", "bytes_sent (KiB)",
             "index_builds", "relative"], rows,
            title=(f"one interactive twig session over {N_DOCS} XMark "
                   f"documents (pool {MAX_POOL}, "
                   f"{baseline.stats.questions} questions), identical "
                   "question sequence asserted on all backends; warm "
                   "sessions ship the corpus once "
                   f"(server instance cache: {cache['hits']} hits / "
                   f"{cache['misses']} misses)")),
        metrics={"local_session_ms": local_s * 1e3,
                 "remote_session_ms": remote_s * 1e3,
                 "round_trips": remote_stats["round_trips"],
                 "kib_up": kib_up,
                 "index_builds": index_builds})


def test_local_backend_session_speed(benchmark):
    """Cheap smoke runner: the serial-floor session on a fresh engine."""
    docs = _corpus()[:3]
    result = benchmark.pedantic(
        lambda: _run_session(docs, LocalBackend(engine=Engine())),
        rounds=1, iterations=1)
    assert result.stats.questions > 0
    assert result.query is not None
