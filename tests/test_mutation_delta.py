"""Delta records: the ``(old digest -> new digest)`` wire diffs.

Round-trip property: any edit script through the tracked mutators,
encoded from the instance's own edit log, JSON-serialised, decoded, and
applied to a pristine copy of the base, reproduces the mutated instance
— both from a live copy and from the base as a server receives it (its
encoded record off the wire, decoded), through :func:`apply_delta_copy`,
with digests agreeing at every corner.

The delta path is an optimisation layered on the content-addressed
protocol, never a correctness dependency: these suites are what lets
every consumer trust the digest check alone.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.version import instance_version
from repro.serving import InstanceStore, Workload
from repro.serving.wire import (
    NeedInstances,
    ProtocolError,
    WorkloadCodec,
    apply_delta_copy,
    decode_delta,
    decode_instance_record,
    delta_record_for,
    encode_delta,
    encode_instance_record,
    instance_digest,
    instance_fingerprint,
    record_digest,
)
from repro.twig.parse import parse_twig
from repro.xmltree.tree import XTree, node, subtree_record

from .conftest import (
    random_graph_edits,
    random_tree_edits,
    xnode_trees,
)
from .test_engine_columnar import small_graphs

SEEDS = st.integers(0, 2**32 - 1)


def _patch_decoded_record(instance: object, seed: int, count: int,
                          edit) -> None:
    """Edit ``instance``, patch its base as a server holds it (the
    encoded record off the wire, decoded) with the delta, and check the
    patched instance against the live mutation."""
    d0 = instance_digest(instance)
    base_record = json.loads(json.dumps(encode_instance_record(instance)))
    v0 = instance_version(instance)
    edit(instance, random.Random(seed), count)
    d1 = instance_digest(instance)
    delta = decode_delta(json.loads(json.dumps(
        encode_delta(instance, d0, d1, instance.edits_since(v0)))))
    base = decode_instance_record(base_record)
    patched = apply_delta_copy(base, delta)
    assert record_digest(encode_instance_record(patched))[0] == d1
    # The decoded base was not written and still encodes the old state.
    assert instance_digest(base) == d0
    assert record_digest(base_record)[0] == d0


# ---------------------------------------------------------------------------
# Tree deltas: edit log -> wire -> pristine copy
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3), SEEDS, st.integers(1, 6))
def test_tree_delta_roundtrip_reproduces_the_mutation(tree, seed, count):
    doc = XTree(tree)
    pristine = doc.copy()
    d0 = instance_digest(doc)
    v0 = instance_version(doc)
    random_tree_edits(doc, random.Random(seed), count)
    ops = doc.edits_since(v0)
    assert ops is not None and len(ops) == count
    d1 = instance_digest(doc)
    record = encode_delta(doc, d0, d1, ops)
    # The wire form survives JSON exactly (no tuples, nodes, sets...).
    delta = decode_delta(json.loads(json.dumps(record)))
    assert (delta["from"], delta["to"]) == (d0, d1)
    patched = apply_delta_copy(pristine, delta)  # verifies the digest
    assert instance_digest(patched) == d1
    assert subtree_record(patched.root) == subtree_record(doc.root)
    # ...and the pristine base was never written.
    assert instance_digest(pristine) == d0


@settings(max_examples=60, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3), SEEDS, st.integers(1, 6))
def test_tree_record_patch_matches_instance_digest(tree, seed, count):
    """The server's path: patching the base decoded from its *encoded*
    record lands on the same digest as the live mutation."""
    _patch_decoded_record(XTree(tree), seed, count, random_tree_edits)


# ---------------------------------------------------------------------------
# Graph deltas
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(small_graphs(), SEEDS, st.integers(1, 6))
def test_graph_delta_roundtrip_reproduces_the_mutation(graph, seed, count):
    pristine = graph.copy()
    d0 = instance_digest(graph)
    v0 = instance_version(graph)
    random_graph_edits(graph, random.Random(seed), count)
    ops = graph.edits_since(v0)
    assert ops is not None
    d1 = instance_digest(graph)
    delta = decode_delta(json.loads(json.dumps(
        encode_delta(graph, d0, d1, ops))))
    patched = apply_delta_copy(pristine, delta)
    assert instance_digest(patched) == d1
    assert instance_digest(pristine) == d0


@settings(max_examples=60, deadline=None)
@given(small_graphs(), SEEDS, st.integers(1, 6))
def test_graph_record_patch_matches_instance_digest(graph, seed, count):
    _patch_decoded_record(graph, seed, count, random_graph_edits)


# ---------------------------------------------------------------------------
# delta_record_for: the shipping decision
# ---------------------------------------------------------------------------


def _big_doc(tag: str) -> XTree:
    return XTree(node(
        "site",
        *[node("item", node("name", text=f"{tag}-{i}"),
               node("price", text=str(i))) for i in range(40)]))


def test_delta_record_for_ships_against_a_known_base():
    doc = _big_doc("base")
    d0, _ = instance_fingerprint(doc)
    doc.relabel_node(doc.root.children[0].children[0], text="edited")
    d1, size = instance_fingerprint(doc)
    record = delta_record_for(doc, d1, size, {d0})
    assert record is not None
    assert (record["from"], record["to"]) == (d0, d1)
    assert record_digest(record)[1] < size  # only profitable deltas ship
    # The record really takes the base to the current version.
    base = _big_doc("base")
    patched = apply_delta_copy(base, decode_delta(record))
    assert instance_digest(patched) == d1


def test_delta_record_for_declines_without_a_known_base():
    doc = _big_doc("unknown")
    instance_fingerprint(doc)
    doc.relabel_node(doc.root.children[0].children[0], text="edited")
    d1, size = instance_fingerprint(doc)
    assert delta_record_for(doc, d1, size, set()) is None
    assert delta_record_for(doc, d1, size, {"no-such-digest"}) is None


def test_delta_record_for_declines_unprofitable_deltas():
    # A document so small the delta record cannot beat the full record.
    doc = XTree(node("a", node("b")))
    d0, _ = instance_fingerprint(doc)
    doc.relabel_node(doc.root.children[0], label="c")
    d1, size = instance_fingerprint(doc)
    assert delta_record_for(doc, d1, size, {d0}) is None


def test_delta_record_for_declines_after_untracked_invalidate():
    doc = _big_doc("invalidated")
    d0, _ = instance_fingerprint(doc)
    doc.relabel_node(doc.root.children[0].children[0], text="edited")
    doc.invalidate()  # version advances without a replayable op
    d1, size = instance_fingerprint(doc)
    assert delta_record_for(doc, d1, size, {d0}) is None


# ---------------------------------------------------------------------------
# Failure surfaces: lying deltas never pass the digest check
# ---------------------------------------------------------------------------


def test_apply_delta_copy_rejects_a_lying_digest():
    doc = _big_doc("lying")
    d0 = instance_digest(doc)
    v0 = instance_version(doc)
    doc.relabel_node(doc.root.children[0].children[0], text="edited")
    record = encode_delta(doc, d0, instance_digest(doc),
                          doc.edits_since(v0))
    record["to"] = "0" * len(record["to"])
    base = _big_doc("lying")
    with pytest.raises(ProtocolError, match="digest mismatch"):
        apply_delta_copy(base, decode_delta(record))


def test_record_patch_rejects_paths_off_the_record():
    doc = XTree(node("a", node("b")))
    delta = {"target": "tree", "from": "x", "to": "y",
             "ops": [{"op": "relabel", "path": [7], "label": "z",
                      "text": None}]}
    with pytest.raises(ProtocolError, match="delta does not apply"):
        apply_delta_copy(doc, delta)


def test_decode_workload_declines_a_delta_it_cannot_verify():
    """Unknown base, an op off the tree, a lying target digest: decoding
    the workload raises ``NeedInstances`` and stores nothing, leaving
    the gap to the ``need_instances`` negotiation."""
    doc = _big_doc("decode")
    d0, size = instance_fingerprint(doc)
    store = InstanceStore()
    store.put(d0, decode_instance_record(
        json.loads(json.dumps(encode_instance_record(doc)))), size)
    doc.relabel_node(doc.root.children[0].children[0], text="edited")
    d1 = instance_digest(doc)
    frame = json.loads(json.dumps(WorkloadCodec().encode_workload(
        Workload.twig(parse_twig("//name"), [doc]), known_digests={d0})))
    good = frame["instances"][0]
    assert (good["type"], good["from"], good["to"]) == ("delta", d0, d1)
    relabel_off_tree = {"op": "relabel", "path": [99], "label": "z",
                        "text": None}
    for delta in ({**good, "from": "0" * len(d0)},
                  {**good, "ops": [relabel_off_tree]},
                  {**good, "to": "0" * len(d0)}):
        with pytest.raises(NeedInstances):
            WorkloadCodec().decode_workload(
                {**frame, "instances": [delta]}, store=store)
        assert len(store) == 1
    workload = WorkloadCodec().decode_workload(frame, store=store)
    patched = workload[0].instance
    assert instance_digest(patched) == d1
    assert store.get(d1) is patched
