"""The benchmark's server process: one WorkloadServer on its default
serial executor, driven over stdin by the benchmark client.

Run as ``python3 perfbench/server.py --trace 0|1`` from the checkout
root.  It prints ``{"port": N}`` once listening.  With ``--trace 1`` it
then answers each ``"trace on"`` / ``"trace off"`` line on stdin by
switching span recording and printing one JSON snapshot: tracer totals,
engine and instance-store counters, and peak RSS.  End of stdin stops
the server; it prints a final snapshot (its spans as of the stop) and
exits.  With ``--trace 1`` the server-side wrappers are
installed before the server starts serving, idle until ``trace on``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

#: Admission slots.  One client never fills them, so the wait recorded
#: at ShardGate.acquire is the gate's own cost on the request path.
MAX_INFLIGHT_SHARDS = 4


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def serve(tracer) -> None:
    from repro.serving import AsyncBatchEvaluator
    from repro.serving.net import WorkloadServer

    server = WorkloadServer(AsyncBatchEvaluator(),
                            max_inflight_shards=MAX_INFLIGHT_SHARDS)
    _, port = await server.start()
    print(json.dumps({"port": port}), flush=True)

    def state() -> dict:
        return {"tracer": tracer.snapshot() if tracer else None,
                "engine": server.evaluator.engine.stats(),
                "store": server.instance_store.stats(),
                "peak_rss_mb": peak_rss_mb()}

    loop = asyncio.get_running_loop()
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if not line:
                break
            command = json.loads(line)
            if tracer is None or command not in ("trace on", "trace off"):
                raise SystemExit(f"unexpected command {command!r}")
            tracer.enabled = command == "trace on"
            print(json.dumps(state()), flush=True)
    finally:
        if tracer is not None:
            tracer.enabled = False
        print(json.dumps(state()), flush=True)
        await server.aclose()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        tracer.install(layers.SERVER_SPANS, prefix="server.",
                       hooks=layers.server_hooks(tracer))
    asyncio.run(serve(tracer))


if __name__ == "__main__":
    main()
