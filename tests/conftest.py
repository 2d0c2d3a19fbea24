"""Shared fixtures, builders, and hypothesis strategies for the test suite."""

from __future__ import annotations

import itertools
import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.twig.ast import Axis, TwigNode, TwigQuery
from repro.xmltree.tree import XNode, XTree

# ---------------------------------------------------------------------------
# Hypothesis profiles
# ---------------------------------------------------------------------------
# "ci" derandomizes every property test: examples derive from the test
# body alone, so tier-1 cannot flake on fresh draws in CI — a failure
# there is a failure everywhere, reproducibly.  Local runs keep the
# default randomized profile (fresh draws each run, with the shared
# `.hypothesis/` example database replaying and shrinking past failures,
# which CI caches across runs for the non-derandomized steps).
# Select with HYPOTHESIS_PROFILE=ci.

settings.register_profile("ci", derandomize=True)
settings.register_profile("dev")
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

LABELS = ("a", "b", "c", "d")


# ---------------------------------------------------------------------------
# Deterministic builders
# ---------------------------------------------------------------------------


def xml(text: str) -> XTree:
    """Parse helper used across tests."""
    from repro.xmltree.parser import parse_xml

    return XTree(parse_xml(text))


@pytest.fixture
def people_doc() -> XTree:
    return xml(
        "<site><people>"
        "<person><name>ada</name><phone>1</phone></person>"
        "<person><name>bob</name><homepage>h</homepage></person>"
        "<person><name>cyd</name><phone>2</phone><homepage>h</homepage>"
        "</person>"
        "</people></site>"
    )


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


@st.composite
def xnode_trees(draw, max_depth: int = 4, max_children: int = 3) -> XNode:
    """Random small documents over a fixed alphabet."""
    label = draw(st.sampled_from(LABELS))
    node = XNode(label)
    if max_depth > 1:
        n_children = draw(st.integers(0, max_children))
        for _ in range(n_children):
            node.add(draw(xnode_trees(max_depth=max_depth - 1,
                                      max_children=max_children)))
    if draw(st.booleans()):
        node.text = draw(st.sampled_from(("x", "y", "zz")))
    return node


@st.composite
def twig_queries(draw, max_depth: int = 3) -> TwigQuery:
    """Random anchored twig queries over the same alphabet."""

    def pattern(depth: int, incoming_desc: bool) -> TwigNode:
        wildcard_ok = not incoming_desc
        if wildcard_ok and draw(st.booleans()) and draw(st.booleans()):
            label = "*"
        else:
            label = draw(st.sampled_from(LABELS))
        n = TwigNode(label)
        if depth > 1:
            for _ in range(draw(st.integers(0, 2))):
                axis = draw(st.sampled_from((Axis.CHILD, Axis.DESC)))
                child = pattern(depth - 1, axis is Axis.DESC)
                n.add(axis, child)
        return n

    root_axis = draw(st.sampled_from((Axis.CHILD, Axis.DESC)))
    root = pattern(max_depth, root_axis is Axis.DESC)
    selected = draw(st.sampled_from(list(root.iter())))
    return TwigQuery(root_axis, root, selected)


@st.composite
def small_graphs(draw):
    """Random small edge-labelled graphs over vertices ``0..n-1``."""
    from repro.graphdb.graph import Graph

    g = Graph()
    n = draw(st.integers(2, 5))
    for v in range(n):
        g.add_vertex(v)
    for _ in range(draw(st.integers(0, 10))):
        g.add_edge(draw(st.integers(0, n - 1)),
                   draw(st.sampled_from("abc")),
                   draw(st.integers(0, n - 1)))
    return g


# ---------------------------------------------------------------------------
# Seeded edit scripts through the tracked mutators
# ---------------------------------------------------------------------------
# The mutation suites (delta codecs, incremental reindexing) need edit
# scripts that flow through the *logged* mutators — hand-edits would not
# leave replayable ops.  Seeded rather than hypothesis-composite so a
# script can be replayed against copies of the same instance.


def random_tree_edits(doc: XTree, rnd, count: int) -> None:
    """Apply ``count`` random tracked edits (relabel/insert/delete)."""
    from repro.xmltree.tree import node

    for _ in range(count):
        nodes = list(doc.nodes())
        choice = rnd.randrange(3)
        non_root = [n for n in nodes if n is not doc.root]
        if choice == 2 and not non_root:
            choice = 0
        if choice == 0:
            doc.relabel_node(
                rnd.choice(nodes), label=rnd.choice(LABELS),
                text=rnd.choice((None, f"t{rnd.randrange(5)}")))
        elif choice == 1:
            parent = rnd.choice(nodes)
            doc.insert_subtree(parent,
                               node(rnd.choice(LABELS),
                                    text=f"i{rnd.randrange(5)}"),
                               rnd.randrange(len(parent.children) + 1))
        else:
            doc.delete_subtree(rnd.choice(non_root))


def random_graph_edits(graph, rnd, count: int, *,
                       remove_vertices: bool = True) -> None:
    """Apply ``count`` random tracked graph edits.

    ``remove_vertices=False`` restricts to the op kinds the incremental
    CSR patch path supports (it declines ``remove_vertex``).
    """
    kinds = 4 if remove_vertices else 3
    for _ in range(count):
        vs = list(graph.vertices())
        edges = list(graph.edge_keys())
        choice = rnd.randrange(kinds)
        if choice == 2 and not edges:
            choice = 0
        if choice == 3 and len(vs) < 2:
            choice = 1
        if choice == 0:
            graph.add_vertex(rnd.randrange(12), p=rnd.randrange(3))
        elif choice == 1:
            graph.add_edge(rnd.choice(vs), rnd.choice("abc"),
                           rnd.choice(vs))
        elif choice == 2:
            graph.remove_edge(*rnd.choice(edges))
        else:
            graph.remove_vertex(rnd.choice(vs))


# ---------------------------------------------------------------------------
# Shared assertions
# ---------------------------------------------------------------------------


def identical_answers(batch, serial) -> bool:
    """Element-for-element *object identity* of twig answer lists.

    The serving suites' central parity predicate: batched/streamed/remote
    answers must be the same node objects, in the same document order, as
    the serial engine path — equality is not enough.
    """
    return all(
        len(a) == len(b) and all(x is y for x, y in zip(a, b))
        for a, b in zip(batch, serial)
    )


# ---------------------------------------------------------------------------
# Reference implementations (naive, obviously-correct)
# ---------------------------------------------------------------------------


def naive_twig_answers(query: TwigQuery, tree: XTree) -> set[int]:
    """Brute-force twig evaluation by enumerating all embeddings.

    Exponential; used to cross-check the DP evaluator on small inputs.
    """
    nodes = list(tree.nodes())
    parents: dict[int, XNode | None] = {id(tree.root): None}
    for n in nodes:
        for c in n.children:
            parents[id(c)] = n

    def is_descendant(d: XNode, a: XNode) -> bool:
        cur = parents[id(d)]
        while cur is not None:
            if cur is a:
                return True
            cur = parents[id(cur)]
        return False

    query_nodes = list(query.nodes())
    answers: set[int] = set()
    for assignment in itertools.product(nodes, repeat=len(query_nodes)):
        mapping = dict(zip((id(q) for q in query_nodes), assignment))

        def ok() -> bool:
            root_img = mapping[id(query.root)]
            if query.root_axis is Axis.CHILD and root_img is not tree.root:
                return False
            for q in query_nodes:
                img = mapping[id(q)]
                if q.label != "*" and q.label != img.label:
                    return False
                for axis, qc in q.branches:
                    child_img = mapping[id(qc)]
                    if axis is Axis.CHILD:
                        if parents[id(child_img)] is not img:
                            return False
                    else:
                        if not is_descendant(child_img, img):
                            return False
            return True

        if ok():
            answers.add(id(mapping[id(query.selected)]))
    return answers
