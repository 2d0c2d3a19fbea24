"""Columnar evaluation-core benchmark — flat arrays vs object walking.

The PR-1 object-walking evaluators (`evaluate_naive`,
`evaluate_rpq_naive`) stay in the tree as the correctness oracle; this
module pins what replacing the engine's index internals with columnar
storage buys:

* **Warm rounds** (the interactive learners' hot path — the same
  workload re-evaluated against a fixed corpus after every user
  interaction) must be at least **10x** faster than the object-walking
  baseline, for twig and RPQ rounds alike.
* **Cold evaluation** — the price of the first, uncached answer — is
  reported alongside: the interval-join loops over flat arrays and the
  bitset product BFS speed up the miss path too, which no result cache
  can.
* A **scaling row** over XMark sizes records how index build and
  uncached evaluation grow with the document.
"""

from __future__ import annotations

import time

from repro.datasets.xmark import generate_xmark
from repro.engine import get_engine, reset_engine
from repro.graphdb.geo import make_geo_graph
from repro.graphdb.regex import parse_regex
from repro.graphdb.rpq import evaluate_rpq, evaluate_rpq_naive
from repro.twig.parse import parse_twig
from repro.twig.semantics import evaluate, evaluate_naive
from repro.util.tables import format_table

from .conftest import record_report

#: The bench_engine_cache workload: the queries an interactive XMark
#: session keeps re-evaluating.
WORKLOAD = (
    "/site/people/person/name",
    "/site/people/person[phone]/name",
    "/site/people/person[profile/gender][profile/age]/name",
    "//closed_auction/date",
    "/site/closed_auctions/closed_auction[annotation]/price",
    "//person[homepage]/name",
    "/site/*/person/name",
    "//keyword",
)
ROUNDS = 20
#: The acceptance bar: warm columnar rounds vs the object-walking seed.
WARM_SPEEDUP_BAR = 10.0


def _run_workload(evaluator, doc, queries) -> list[tuple[int, ...]]:
    return [tuple(id(n) for n in evaluator(q, doc)) for q in queries]


def _twig_round(benchmark) -> float:
    """Time the twig rounds, report them, assert answer parity, and
    return the warm speedup over object walking."""
    doc = generate_xmark(scale=0.1, rng=7)
    queries = [parse_twig(text) for text in WORKLOAD]

    # Oracle first: columnar answers byte-identical to object walking.
    reset_engine()
    assert _run_workload(evaluate, doc, queries) == \
        _run_workload(evaluate_naive, doc, queries)

    # Object-walking baseline: full per-call index rebuild + set DP.
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _run_workload(evaluate_naive, doc, queries)
    naive_per_round = (time.perf_counter() - start) / ROUNDS

    # Columnar cold: one array build plus the first interval-join pass.
    reset_engine()
    start = time.perf_counter()
    _run_workload(evaluate, doc, queries)
    cold_round = time.perf_counter() - start

    # Columnar uncached: the interval-join loops with the result cache
    # bypassed — the pure miss-path win, no memoisation involved.
    index = get_engine().document(doc)
    start = time.perf_counter()
    uncached = [tuple(index._answer_indices(q)) for q in queries]
    uncached_round = time.perf_counter() - start
    order = {id(n): i for i, n in enumerate(index.nodes)}
    assert uncached == [
        tuple(order[id(n)] for n in evaluate_naive(q, doc))
        for q in queries]

    warm = benchmark.pedantic(
        lambda: _run_workload(evaluate, doc, queries),
        rounds=ROUNDS, iterations=1)
    assert warm is not None
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _run_workload(evaluate, doc, queries)
    warm_per_round = (time.perf_counter() - start) / ROUNDS

    speedup = naive_per_round / warm_per_round \
        if warm_per_round else float("inf")
    miss_speedup = naive_per_round / uncached_round \
        if uncached_round else float("inf")
    table = format_table(
        ["path", "ms / workload round"],
        [
            ("object walking (rebuilt per call)",
             f"{naive_per_round * 1e3:.3f}"),
            ("columnar, cold (build arrays)", f"{cold_round * 1e3:.3f}"),
            ("columnar, uncached (interval joins)",
             f"{uncached_round * 1e3:.3f}"),
            ("columnar, warm (position-tuple hits)",
             f"{warm_per_round * 1e3:.3f}"),
            ("uncached speedup vs object walking", f"{miss_speedup:.1f}x"),
            ("warm speedup vs object walking", f"{speedup:.1f}x"),
        ],
        title=(f"columnar twig core: {len(WORKLOAD)} XMark queries x "
               f"{ROUNDS} rounds (|t|={doc.size()})"),
    )
    record_report("COLUMNAR twig rounds", table)
    return speedup


def test_columnar_twig_speedup(benchmark):
    """The twig rounds (the tier-1 smoke runner): reported, and checked
    only for what is deterministic — identical answers."""
    _twig_round(benchmark)


def test_columnar_twig_speedup_bound(benchmark):
    """The warm-round speedup gate, asserted in CI's columnar step."""
    speedup = _twig_round(benchmark)
    assert speedup >= WARM_SPEEDUP_BAR, (
        f"warm columnar rounds only {speedup:.1f}x faster than the "
        f"object-walking baseline (bar: {WARM_SPEEDUP_BAR:.0f}x)")


def test_columnar_rpq_speedup(benchmark):
    graph = make_geo_graph(rng=3, width=8, height=6)
    query = parse_regex("highway+.(national|local)?")

    reset_engine()
    assert evaluate_rpq(query, graph) == evaluate_rpq_naive(query, graph)

    start = time.perf_counter()
    for _ in range(ROUNDS):
        evaluate_rpq_naive(query, graph)
    naive_per_call = (time.perf_counter() - start) / ROUNDS

    # Cold bitset BFS: drop the reachability memo, keep the CSR arrays.
    index = get_engine().graph(graph)
    index._reachable.clear()
    start = time.perf_counter()
    evaluate_rpq(query, graph)
    cold_call = time.perf_counter() - start

    pairs = benchmark(lambda: evaluate_rpq(query, graph))
    assert pairs
    start = time.perf_counter()
    for _ in range(ROUNDS):
        evaluate_rpq(query, graph)
    warm_per_call = (time.perf_counter() - start) / ROUNDS

    speedup = naive_per_call / warm_per_call \
        if warm_per_call else float("inf")
    cold_speedup = naive_per_call / cold_call if cold_call else float("inf")
    table = format_table(
        ["path", "ms / evaluate_rpq"],
        [
            ("object walking (product BFS per call)",
             f"{naive_per_call * 1e3:.3f}"),
            ("columnar, cold (bitset BFS)", f"{cold_call * 1e3:.3f}"),
            ("columnar, warm (reachability memo)",
             f"{warm_per_call * 1e3:.3f}"),
            ("cold speedup vs object walking", f"{cold_speedup:.1f}x"),
            ("warm speedup vs object walking", f"{speedup:.1f}x"),
        ],
        title=f"columnar RPQ core: geo graph {graph!r}",
    )
    record_report("COLUMNAR RPQ rounds", table)
    assert speedup >= WARM_SPEEDUP_BAR, (
        f"warm columnar RPQ only {speedup:.1f}x faster than the "
        f"object-walking baseline (bar: {WARM_SPEEDUP_BAR:.0f}x)")


def test_columnar_xmark_scaling(benchmark):
    """How array build and uncached evaluation grow with document size."""
    queries = [parse_twig(text) for text in WORKLOAD]
    scales = (0.05, 0.1, 0.2)
    rows = []

    def measure(scale: float) -> tuple[int, float, float, float]:
        doc = generate_xmark(scale=scale, rng=7)
        reset_engine()
        start = time.perf_counter()
        index = get_engine().document(doc)
        build = time.perf_counter() - start
        start = time.perf_counter()
        for q in queries:
            index._answer_indices(q)
        uncached = time.perf_counter() - start
        start = time.perf_counter()
        _run_workload(evaluate_naive, doc, queries)
        naive = time.perf_counter() - start
        return doc.size(), build, uncached, naive

    for scale in scales[:-1]:
        rows.append((scale, *measure(scale)))
    # The largest scale doubles as the timed round.
    rows.append((scales[-1], *benchmark.pedantic(
        measure, args=(scales[-1],), rounds=1, iterations=1)))
    table = format_table(
        ["scale", "|t|", "build ms", "uncached ms", "naive round ms"],
        [(f"{scale:g}", str(size), f"{build * 1e3:.3f}",
          f"{uncached * 1e3:.3f}", f"{naive * 1e3:.3f}")
         for scale, size, build, uncached, naive in rows],
        title=f"columnar scaling: {len(WORKLOAD)} queries per round",
    )
    record_report("COLUMNAR XMark scaling", table)
    # Build + uncached evaluation must stay below one object-walking
    # round at every scale — otherwise the columnar core lost its point.
    for scale, size, build, uncached, naive in rows:
        assert build + uncached < naive, (
            f"scale {scale}: columnar build+evaluate "
            f"({(build + uncached) * 1e3:.1f} ms) is not cheaper than one "
            f"object-walking round ({naive * 1e3:.1f} ms)")
