"""Interactive-session benchmark: closed-loop learning sessions, one user.

    python3 perfbench/run.py --workload twig-local --seed 1 --seconds 10 \
        --trace 0

Run from the root of a checkout.  One simulated user runs interactive
sessions back to back, each starting when the previous one ended, over
the cycle of session specs its workload defines (see ``workloads.py``
and ``README.md``).  The timed part repeats whole cycles, as many as
come closest to ``--seconds``.  Every session is checked against the naive
oracles and its set-up reference; a failed check or a raised session is
a failed attempt and makes the command exit non-zero.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: it wraps each layer's functions (``layers.py``),
runs a fixed number of traced cycles, then untraced cycles for the rest
of the time, and reports self time and counts per session plus the
tracing overhead against the untraced cycles.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value": v, "unit": u}}``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The interpreter's string-hash seed for every benchmark process.
HASH_SEED = "0"
#: Set-ups per run: ``setup_s`` is their median, the last one is timed.
SETUP_REPEATS = 5
#: Cycles the traced phase runs, fixed so that its counts repeat exactly
#: for a given seed.
TRACE_CYCLES = {"twig-local": 2, "graph-join-local": 2, "mixed-remote": 2,
                "twig-edit-remote": 2}

END_TO_END = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("session_ms", "ms"),
    ("question_gap_ms_mean", "ms"),
    ("question_gap_ms_p90", "ms"),
    ("questions_per_session", "count"),
    ("peak_rss_mb", "MB"),
]

_ENGINE_LAYER = [
    ("engine.evaluate_twig_positions.ms", "ms/session"),
    ("engine.evaluate_twig_positions.calls", "count/session"),
    ("engine.accepts.ms", "ms/session"),
    ("engine.accepts.calls", "count/session"),
    ("engine.words_between.ms", "ms/session"),
    ("engine.build.ms", "ms/session"),
    ("engine.patch.ms", "ms/session"),
    ("engine.document_builds", "count/session"),
    ("engine.document_patches", "count/session"),
    ("engine.twig_query.hit_ratio", "ratio"),
    ("engine.word_accepts.hit_ratio", "ratio"),
]

PER_LAYER = [
    # Sessions, from the untraced cycles of the traced run.
    ("session_ms_p50.twig", "ms"),
    ("session_ms_p50.path", "ms"),
    ("session_ms_p50.join", "ms"),
    ("session_ms_p90.join", "ms"),
    ("question_gap_ms_p50.twig", "ms"),
    ("question_gap_ms_p90.twig", "ms"),
    ("question_gap_ms_p50.path", "ms"),
    ("question_gap_ms_p90.path", "ms"),
    ("error_rate", "ratio"),
    ("server_peak_rss_mb", "MB"),
    ("session.questions", "count/session"),
    ("trace.overhead_pct", "%"),
    ("twig.product.share_pct", "%"),
    # repro.twig hypothesis construction.
    ("twig.product.ms", "ms/session"),
    ("twig.product.calls", "count/session"),
    ("twig.minimize.ms", "ms/session"),
    ("twig.anchor_repair.ms", "ms/session"),
    ("engine.canonical_query.ms", "ms/session"),
    ("engine.canonical_query.calls", "count/session"),
    # repro.learning.path_learner.
    ("path.lgg_path.ms", "ms/session"),
    ("path.lgg_path.calls", "count/session"),
    ("path.normalize.ms", "ms/session"),
    # repro.learning.join_learner / interactive.
    ("join.is_informative.ms", "ms/session"),
    ("join.is_informative.calls", "count/session"),
    ("join.choose.ms", "ms/session"),
    ("join.eq_cache.hit_ratio", "ratio"),
    # repro.learning.backend dispatch.
    ("backend.run.ms", "ms/session"),
    ("backend.stream.ms", "ms/session"),
    ("backend.batches", "count/session"),
    ("backend.items", "count/session"),
    ("backend.accepts.ms", "ms/session"),
    ("backend.accepts.calls", "count/session"),
    ("backend.prefetch.ms", "ms/session"),
    ("backend.prefetch.hit_ratio", "ratio"),
    ("backend.prefetch.submitted", "count/session"),
    ("backend.prefetch.hits", "count/session"),
    ("backend.prefetch.wasted", "count/session"),
    # repro.engine, in the client process and (server.) in the server.
    *_ENGINE_LAYER,
    *[("server." + name, unit) for name, unit in _ENGINE_LAYER],
    # repro.serving client side.
    ("client.round_trips", "count/session"),
    ("client.bytes_up", "B/session"),
    ("client.bytes_down", "B/session"),
    ("client.instances_shipped", "count/session"),
    ("client.bytes_saved", "B/session"),
    ("client.retries", "count/session"),
    ("client.reconnects", "count/session"),
    ("wire.encode_workload.ms", "ms/session"),
    ("wire.decode_shard_answer.ms", "ms/session"),
    ("wire.send.ms", "ms/session"),
    ("wire.recv.ms", "ms/session"),
    # repro.serving server side.
    ("server.decode_workload.ms", "ms/session"),
    ("server.admission_wait.ms", "ms/session"),
    ("server.evaluate.ms", "ms/session"),
    ("server.encode_shard_answer.ms", "ms/session"),
    ("server.instance_store.hits", "count/session"),
    ("server.instance_store.misses", "count/session"),
    ("server.instance_store.evictions", "count/session"),
    ("server.need_instances", "count/session"),
    # Mutation path.
    ("wire.fingerprint.ms", "ms/session"),
    ("wire.delta_record_for.ms", "ms/session"),
    ("wire.delta_bytes", "B/session"),
    ("wire.full_record_bytes", "B/session"),
    ("server.apply_delta.ms", "ms/session"),
]

_TWIG = ["twig.product", "twig.minimize", "twig.anchor_repair",
         "engine.canonical_query", "engine.evaluate_twig_positions"]
_PATH = ["path.lgg_path", "path.normalize", "backend.accepts",
         "engine.words_between"]
_WIRE = ["wire.encode_workload", "wire.decode_shard_answer", "wire.send",
         "wire.recv", "wire.fingerprint", "server.decode_workload",
         "server.admission_wait", "server.evaluate",
         "server.encode_shard_answer",
         "server.engine.evaluate_twig_positions"]
#: Spans each workload exists to exercise: the traced run fails if any
#: of them records no call there (a wrapper installed at a site nobody
#: looks up times nothing, silently).
EXPECTED_SPANS = {
    "twig-local": _TWIG + ["backend.run", "backend.stream",
                           "backend.prefetch", "engine.build"],
    "graph-join-local": _PATH + ["engine.accepts", "join.is_informative",
                                 "join.choose", "join.eq", "join.eq_computed",
                                 "backend.stream", "backend.prefetch"],
    "mixed-remote": _TWIG + _PATH + _WIRE + ["backend.stream",
                                             "backend.prefetch",
                                             "server.engine.accepts"],
    "twig-edit-remote": _TWIG + _WIRE + [
        "wire.delta_record_for", "server.apply_delta", "server.engine.patch",
        "server.engine.build"],
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def geomean(values: list[float]) -> float:
    values = [v for v in values if v > 0]
    return statistics.geometric_mean(values) if values else 0.0


@dataclass(slots=True)
class Session:
    """One finished (or failed) session of a phase."""

    key: str
    kind: str
    wall: float
    gaps: list[float]
    questions: int
    ok: bool


class Phase:
    """Sessions of one timed stretch of whole cycles."""

    def __init__(self, sessions: list[Session], elapsed: float,
                 cycles: int) -> None:
        self.sessions = sessions
        self.elapsed = elapsed
        self.cycles = cycles

    def walls(self, kind: str) -> list[float]:
        return [s.wall for s in self.sessions if s.ok and s.kind == kind]

    def fastest_walls(self) -> list[float]:
        """Each spec's fastest wall time over its successful sessions."""
        walls: dict[str, float] = {}
        for s in self.sessions:
            if s.ok:
                walls[s.key] = min(s.wall, walls.get(s.key, s.wall))
        return list(walls.values())

    def fastest_gaps(self, kind: str) -> list[float]:
        """The fastest time of each question gap of each spec of ``kind``.

        A spec asks the same questions on every repetition (the checks
        hold it to its reference), so its n-th gap is the same work each
        time."""
        best: dict[str, list[float]] = {}
        for s in self.sessions:
            if s.ok and s.kind == kind:
                seen = best.setdefault(s.key, s.gaps)
                best[s.key] = [min(a, b) for a, b in zip(seen, s.gaps)]
        return [g for gaps in best.values() for g in gaps]

    def gaps(self, kind: str) -> list[float]:
        return [g for s in self.sessions if s.ok and s.kind == kind
                for g in s.gaps]

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.sessions)


def run_session(env, position: int, *, on_backend=None) -> Session:
    """Run the cycle's session at ``position`` and check its outcome."""
    spec = env.cycle[position % len(env.cycle)]
    env.before(position)
    key = env.spec_key(position, spec)
    backend = env.backend()
    gaps: list[float] = []
    start = time.perf_counter()
    try:
        session = spec.build(backend)
        undo = spec.hook_gaps(session, backend, gaps, start)
        try:
            result = session.run()
        finally:
            undo()
        wall = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - a failed attempt, reported
        print(f"session {key} raised {exc!r}", file=sys.stderr)
        return Session(key, spec.kind, 0.0, [], 0, False)
    if on_backend is not None:
        on_backend(backend)
    outcome = spec.outcome(result)
    verdict = env.verdicts.get((key, outcome))
    if verdict is None:
        verdict = env.verdicts[(key, outcome)] = spec.oracle_agrees(
            session, result)
    reference = env.references.get(key)
    ok = verdict and (reference is None or (
        reference.asked == result.stats.asked
        and reference.outcome == outcome))
    if not ok:
        print(f"session {key} failed its check (oracle agrees: {verdict})",
              file=sys.stderr)
    return Session(key, spec.kind, wall, gaps, result.stats.questions, ok)


def run_phase(env, *, seconds: float = 0.0, cycles: int | None = None,
              on_backend=None) -> Phase:
    """Whole cycles: exactly ``cycles`` of them, or the number (at least
    one) whose total comes closest to ``seconds``."""
    sessions: list[Session] = []
    start = time.perf_counter()
    done = 0
    while True:
        for _ in range(len(env.cycle)):
            sessions.append(run_session(env, env.position,
                                        on_backend=on_backend))
            env.position += 1
        done += 1
        elapsed = time.perf_counter() - start
        if cycles is not None:
            if done >= cycles:
                break
        elif elapsed + elapsed / done / 2 >= seconds:
            # One more cycle would overshoot by more than stopping now
            # falls short.
            break
    return Phase(sessions, time.perf_counter() - start, done)


def set_up(name: str, seed: int, *, trace: bool):
    """Inputs, server, corpus pre-shipping and the reference sessions."""
    from repro.engine import Engine
    from repro.learning.backend import LocalBackend
    from workloads import Reference, build_env

    env = build_env(name, seed, trace=trace)
    try:
        # The LocalBackend reference of every spec, judged by the naive
        # oracle; for local workloads this cycle is also the warm-up.
        for _ in range(len(env.cycle)):
            spec = env.cycle[env.position % len(env.cycle)]
            env.before(env.position)
            key = env.spec_key(env.position, spec)
            session = spec.build(LocalBackend(engine=Engine()))
            result = session.run()
            outcome = spec.outcome(result)
            if not spec.oracle_agrees(session, result):
                raise RuntimeError(
                    f"reference session {key} disagrees with the naive "
                    "oracle")
            env.references[key] = Reference(result.stats.asked, outcome)
            env.verdicts[(key, outcome)] = True
            env.position += 1
    except BaseException:
        env.close()
        raise
    return env


def warm_up(env) -> float:
    """One remote cycle, so the timed part starts from steady state:
    server indexes and query memos, client construction caches.  Local
    sessions each start on a fresh engine and need none.  Returns the
    seconds it took."""
    if env.remote is None:
        return 0.0
    phase = run_phase(env, cycles=1)
    if phase.failed:
        raise RuntimeError(f"{phase.failed} warm-up sessions failed")
    return phase.elapsed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(env, phase: Phase, setup_s: float) -> dict:
    gap_kinds = [k for k in env.kinds if k in ("twig", "path")]
    ok = [s for s in phase.sessions if s.ok]
    # Every timing is taken at the fastest repetition of the work it
    # times.  On a shared host the machine's speed switches between
    # modes up to 1.5x apart for seconds to tens of seconds at a time,
    # so means and medians follow the host; the fastest repetition of a
    # spec (or of one gap of it) follows the program.
    walls = phase.fastest_walls()
    return {
        "setup_s": setup_s,
        # One cycle's sessions over the time they take at their fastest.
        "sessions_per_s": len(walls) / sum(walls),
        # The geometric mean weighs every spec (and so every kind) by
        # relative change, whatever its absolute cost.
        "session_ms": 1e3 * geomean(walls),
        # The mean, not the median: most gaps are cheap rescans and the
        # median sits among them, moving with socket and scheduler noise
        # more than with the work a user waits for.
        "question_gap_ms_mean": 1e3 * geomean(
            [statistics.mean(phase.fastest_gaps(k)) for k in gap_kinds]),
        "question_gap_ms_p90": 1e3 * geomean(
            [p90(phase.fastest_gaps(k)) for k in gap_kinds]),
        "questions_per_session": statistics.mean(s.questions for s in ok),
        "peak_rss_mb": peak_rss_mb(),
    }


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def flatten(stats: dict, prefix: str = "") -> dict[str, float]:
    out: dict[str, float] = {}
    for key, value in stats.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"{prefix}{key}"] = value
    return out


def per_layer(traced: Phase, untraced: Phase, client: dict,
              server: dict, backend: dict, server_stats: dict,
              server_final: dict, attempted: int, failed: int) -> dict:
    n = max(1, len(traced.sessions))
    out: dict[str, float] = {}

    def spans(prefix: str, snap: dict, names) -> None:
        for name in names:
            out[f"{prefix}{name}.ms"] = snap["self_ms"].get(name, 0.0) / n
            out[f"{prefix}{name}.calls"] = snap["calls"].get(name, 0) / n

    spans("", client, [
        "twig.product", "twig.minimize", "twig.anchor_repair",
        "engine.canonical_query", "path.lgg_path", "path.normalize",
        "join.is_informative", "join.choose", "backend.run",
        "backend.stream", "backend.accepts", "backend.prefetch",
        "engine.evaluate_twig_positions", "engine.accepts",
        "engine.words_between", "engine.build", "engine.patch",
        "wire.encode_workload", "wire.decode_shard_answer", "wire.send",
        "wire.recv", "wire.fingerprint", "wire.delta_record_for"])
    spans("", server, [
        "server.engine.evaluate_twig_positions", "server.engine.accepts",
        "server.engine.words_between", "server.engine.build",
        "server.engine.patch", "server.decode_workload", "server.evaluate",
        "server.encode_shard_answer", "server.apply_delta"])
    out["server.admission_wait.ms"] = server["total_ms"].get(
        "server.admission_wait", 0.0) / n
    eq = client["calls"].get("join.eq", 0)
    out["join.eq_cache.hit_ratio"] = _ratio(
        eq - client["calls"].get("join.eq_computed", 0), eq)
    out["wire.delta_bytes"] = client["counts"].get("wire.delta_bytes", 0) / n
    out["wire.full_record_bytes"] = client["counts"].get(
        "wire.full_record_bytes", 0) / n
    out["server.need_instances"] = server["counts"].get(
        "server.need_instances", 0) / n

    out["backend.batches"] = backend.get("batches", 0) / n
    out["backend.items"] = backend.get("items", 0) / n
    for key in ("submitted", "hits", "wasted"):
        out[f"backend.prefetch.{key}"] = backend.get(f"prefetch.{key}", 0) / n
    out["backend.prefetch.hit_ratio"] = _ratio(
        backend.get("prefetch.hits", 0), backend.get("prefetch.submitted", 0))
    for prefix, engine in (("", backend), ("server.", server_stats)):
        out[f"{prefix}engine.document_builds"] = engine.get(
            "engine.document_builds", 0) / n
        out[f"{prefix}engine.document_patches"] = engine.get(
            "engine.document_patches", 0) / n
        hits = engine.get("engine.twig_query_hits", 0)
        out[f"{prefix}engine.twig_query.hit_ratio"] = _ratio(
            hits, hits + engine.get("engine.twig_query_misses", 0))
        hits = engine.get("engine.word_accepts.hits", 0)
        out[f"{prefix}engine.word_accepts.hit_ratio"] = _ratio(
            hits, hits + engine.get("engine.word_accepts.misses", 0))
    for name, key in (("round_trips", "round_trips"),
                      ("bytes_up", "bytes_sent"),
                      ("bytes_down", "bytes_received"),
                      ("instances_shipped", "instances_shipped"),
                      ("bytes_saved", "bytes_saved"),
                      ("retries", "retries"), ("reconnects", "reconnects")):
        out[f"client.{name}"] = backend.get(key, 0) / n
    for key in ("hits", "misses", "evictions"):
        out[f"server.instance_store.{key}"] = server_stats.get(
            f"store.{key}", 0) / n

    for kind in ("twig", "path", "join"):
        walls = untraced.walls(kind)
        out[f"session_ms_p50.{kind}"] = 1e3 * (
            statistics.median(walls) if walls else 0.0)
    out["session_ms_p90.join"] = 1e3 * p90(untraced.walls("join"))
    for kind in ("twig", "path"):
        gaps = untraced.gaps(kind)
        out[f"question_gap_ms_p50.{kind}"] = 1e3 * (
            statistics.median(gaps) if gaps else 0.0)
        out[f"question_gap_ms_p90.{kind}"] = 1e3 * p90(gaps)
    out["error_rate"] = _ratio(failed, attempted)
    out["server_peak_rss_mb"] = server_final.get("peak_rss_mb", 0.0)
    out["session.questions"] = sum(s.questions for s in traced.sessions) / n
    traced_cycle = sum(s.wall for s in traced.sessions) / traced.cycles
    untraced_cycle = sum(s.wall for s in untraced.sessions) / untraced.cycles
    out["trace.overhead_pct"] = 100.0 * (traced_cycle / untraced_cycle - 1)
    twig_wall_ms = 1e3 * sum(traced.walls("twig"))
    out["twig.product.share_pct"] = 100.0 * _ratio(
        client["self_ms"].get("twig.product", 0.0), twig_wall_ms)
    return out


def missing_spans(name: str, client: dict, server: dict) -> list[str]:
    def called(span: str) -> bool:
        source = server if span.startswith("server.") else client
        return source["calls"].get(span, 0) > 0
    return [span for span in EXPECTED_SPANS[name] if not called(span)]


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def run_end_to_end(name: str, seed: int, seconds: float):
    setups: list[float] = []
    env = None
    try:
        for _ in range(SETUP_REPEATS):
            if env is not None:
                env.close()
                env = None
            start = time.perf_counter()
            env = set_up(name, seed, trace=False)
            setups.append(time.perf_counter() - start)
        # The warm-up cycle runs once, after the last set-up, and counts
        # in full: setup_s is the median set-up plus the warm-up.
        setup_s = statistics.median(setups) + warm_up(env)
        phase = run_phase(env, seconds=seconds)
    finally:
        if env is not None:
            env.close()
    return (end_to_end(env, phase, setup_s), len(phase.sessions),
            phase.failed, [])


def run_traced(name: str, seed: int, seconds: float):
    import layers
    from spans import Tracer, diff

    env = set_up(name, seed, trace=True)
    tracer = Tracer()
    try:
        warm_up(env)
        # Local sessions each run on a fresh backend: sum their stats().
        local: dict[str, float] = {}

        def add_local(backend) -> None:
            for key, value in flatten(backend.stats()).items():
                local[key] = local.get(key, 0) + value

        tracer.install(layers.CLIENT_SPANS, hooks=layers.client_hooks(tracer))
        server_before = server_after = {}
        remote_before = {}
        if env.remote is not None:
            remote_before = flatten(env.remote.stats())
            remote_before.update(flatten(env.remote.engine.stats(), "engine."))
            server_before = env.server.command("trace on")
        client_before = tracer.snapshot()
        tracer.enabled = True
        traced = run_phase(env, cycles=TRACE_CYCLES[name],
                           on_backend=None if env.remote else add_local)
        tracer.enabled = False
        client = diff(tracer.snapshot(), client_before)
        if env.remote is not None:
            server_after = env.server.command("trace off")
            remote_after = flatten(env.remote.stats())
            remote_after.update(flatten(env.remote.engine.stats(), "engine."))
            backend = {k: v - remote_before.get(k, 0)
                       for k, v in remote_after.items()}
        else:
            backend = local
        tracer.uninstall()
        untraced = run_phase(env, seconds=max(0.0, seconds - traced.elapsed))
    finally:
        tracer.uninstall()
        env.close()
    server = {"self_ms": {}, "total_ms": {}, "calls": {}, "counts": {}}
    server_stats: dict = {}
    if server_after:
        server = diff(server_after["tracer"], server_before["tracer"])
        after = flatten({"engine": server_after["engine"],
                         "store": server_after["store"]})
        before = flatten({"engine": server_before["engine"],
                          "store": server_before["store"]})
        server_stats = {k: v - before.get(k, 0) for k, v in after.items()}
    attempted = len(traced.sessions) + len(untraced.sessions)
    failed = traced.failed + untraced.failed
    metrics = per_layer(traced, untraced, client, server, backend,
                        server_stats, env.server.final if env.server else {},
                        attempted, failed)
    errors = [f"span {span} recorded no call on {name}"
              for span in missing_spans(name, client, server)]
    return metrics, attempted, failed, errors


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Interactive-session benchmark (see module docstring).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing orders the learners' sets and dicts, and a twig
        # session's cost moves by ~15% between hash seeds with the same
        # questions: pin it (the server process inherits it) so runs
        # differ only by the inputs the seed draws.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no repro package under {os.path.join(ROOT, 'src')}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.trace:
        values, attempted, failed, errors = run_traced(
            args.workload, args.seed, args.seconds)
        units = dict(PER_LAYER)
    else:
        values, attempted, failed, errors = run_end_to_end(
            args.workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    for error in errors:
        print(error, file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:14.4f} {unit}")
    correct = failed == 0 and not errors and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
