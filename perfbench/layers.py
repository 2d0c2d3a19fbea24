"""Which functions the traced run wraps, grouped by layer.

Each entry is ``(span name, kind, sites)``; see :mod:`spans` for kinds
and site syntax.  Sites name the *lookup* site: a module that imported
a function by name is patched in that module.
"""

from __future__ import annotations

import json

ENGINE_SPANS = [
    # Positions-native twig evaluation: Engine.evaluate_twig_positions,
    # IndexedDocument.evaluate and the serving shard plan all land here.
    ("engine.evaluate_twig_positions", "call",
     ["repro.engine.document:IndexedDocument.evaluate_indices"]),
    ("engine.accepts", "call", ["repro.engine.core:Engine.accepts"]),
    ("engine.words_between", "call",
     ["repro.engine.core:Engine.words_between"]),
    ("engine.build", "call",
     ["repro.engine.document:IndexedDocument.__init__"]),
    ("engine.patch", "call",
     ["repro.engine.document:IndexedDocument.patched"]),
]

CLIENT_SPANS = ENGINE_SPANS + [
    # repro.twig hypothesis construction, as the twig session calls it.
    ("twig.product", "call", ["repro.learning.xml_session.product"]),
    ("twig.minimize", "call", ["repro.learning.xml_session.minimize"]),
    ("twig.anchor_repair", "call",
     ["repro.learning.xml_session.anchor_repair"]),
    ("engine.canonical_query", "call",
     ["repro.engine.core:Engine.canonical_query"]),
    # repro.learning.path_learner, as the path session calls it.
    ("path.lgg_path", "call", ["repro.learning.graph_session.lgg_path"]),
    ("path.normalize", "call", ["repro.learning.graph_session.normalize"]),
    # repro.learning.join_learner / interactive.
    ("join.is_informative", "call",
     ["repro.learning.join_learner:JoinVersionSpace.is_informative"]),
    ("join.choose", "call",
     ["repro.learning.interactive:LatticeStrategy.choose"]),
    ("join.eq", "count", ["repro.learning.join_learner:JoinVersionSpace.eq"]),
    ("join.eq_computed", "count",
     ["repro.learning.join_learner.agreement_pairs"]),
    # repro.learning.backend dispatch.
    ("backend.run", "call",
     ["repro.learning.backend:EvaluationBackend.run"]),
    ("backend.stream", "iter",
     ["repro.learning.backend:EvaluationBackend.stream"]),
    ("backend.accepts", "call",
     ["repro.learning.backend:EvaluationBackend.accepts",
      "repro.learning.backend:RemoteBackend.accepts"]),
    ("backend.prefetch", "call",
     ["repro.learning.backend:EvaluationBackend.prefetch",
      "repro.learning.backend:RemoteBackend.prefetch"]),
    # repro.serving client side: codec and socket.
    ("wire.encode_workload", "call",
     ["repro.serving.wire:WorkloadCodec.encode_workload"]),
    # Re-ships after need_instances: counted into wire.full_record_bytes.
    ("wire.encode_put_instances", "call",
     ["repro.serving.wire:WorkloadCodec.encode_put_instances"]),
    ("wire.decode_shard_answer", "call",
     ["repro.serving.wire:WorkloadCodec.decode_shard_answer"]),
    ("wire.send", "call", ["repro.serving.net.send_frame_blocking"]),
    ("wire.recv", "call", ["repro.serving.net.recv_frame_counted"]),
    # Mutation path.  instance_fingerprint is a thin shim over
    # _fingerprint_with_record, which the codec also calls directly.
    ("wire.fingerprint", "call",
     ["repro.serving.wire._fingerprint_with_record"]),
    ("wire.delta_record_for", "call",
     ["repro.serving.wire.delta_record_for",
      "repro.serving.net.delta_record_for"]),
]

SERVER_SPANS = ENGINE_SPANS + [
    ("decode_workload", "call",
     ["repro.serving.wire:WorkloadCodec.decode_workload"]),
    ("admission_wait", "async", ["repro.serving.net:ShardGate.acquire"]),
    ("evaluate", "call",
     ["repro.serving.evaluator:BatchEvaluator._eval_shard"]),
    ("encode_shard_answer", "call",
     ["repro.serving.wire:WorkloadCodec.encode_shard_answer"]),
    ("apply_delta", "call",
     ["repro.serving.net.apply_delta_to_instance",
      "repro.serving.net.apply_delta_copy"]),
]


def _record_bytes(record: dict) -> int:
    return len(json.dumps(record, separators=(",", ":")))


def client_hooks(tracer) -> dict:
    """Byte counters for the instance records the client ships."""

    def count_records(frame: dict) -> None:
        for record in frame.get("instances", ()):
            kind = record.get("type")
            if kind == "delta":
                tracer.add("wire.delta_bytes", _record_bytes(record))
            elif kind in ("tree", "graph"):
                tracer.add("wire.full_record_bytes", _record_bytes(record))

    return {"wire.encode_workload": {"post": count_records},
            "wire.encode_put_instances": {"post": count_records}}


def server_hooks(tracer) -> dict:
    """Count ``need_instances`` negotiations (a decode missing digests)."""
    from repro.serving.wire import NeedInstances

    def on_decode_error(exc: BaseException) -> None:
        if isinstance(exc, NeedInstances):
            tracer.add("server.need_instances")

    return {"decode_workload": {"on_error": on_decode_error}}
