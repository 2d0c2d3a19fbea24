"""Random twig queries and canonical queries of annotated examples.

:func:`canonical_query_for_node` is the learner's starting point: the most
specific twig query selecting a given node of a given document is the
document itself read as a pattern (all child edges, all labels concrete)
with that node selected.

:func:`random_twig` draws goal queries for tests and benchmarks: a random
spine with random filter branches, always anchored, always satisfiable.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from repro.twig.ast import Axis, TwigNode, TwigQuery
from repro.util.rng import RngLike, make_rng
from repro.xmltree.tree import XNode, XTree


def canonical_query_for_node(tree: XTree, target: XNode) -> TwigQuery:
    """The most specific twig query selecting ``target`` in ``tree``."""
    selected_holder: list[TwigNode] = []
    root = _pattern_of(tree.root, target, selected_holder)
    if not selected_holder:
        raise ValueError("target node does not belong to the tree")
    return TwigQuery(Axis.CHILD, root, selected_holder[0])


def _pattern_of(n: XNode, target: XNode,
                selected_holder: list[TwigNode]) -> TwigNode:
    # Module-level, state passed in: a recursive inner function would sit
    # in a reference cycle with everything it refers to.
    t = TwigNode(n.label)
    if n is target:
        selected_holder.append(t)
    t.branches = [(Axis.CHILD, _pattern_of(c, target, selected_holder))
                  for c in n.children]
    return t


def random_twig(
    labels: Sequence[str],
    *,
    spine_length: int = 3,
    filter_probability: float = 0.4,
    desc_probability: float = 0.3,
    wildcard_probability: float = 0.1,
    max_filter_depth: int = 2,
    rng: RngLike = None,
) -> TwigQuery:
    """Draw a random anchored twig query over ``labels``.

    The spine has ``spine_length`` nodes; each spine node grows a filter
    branch with probability ``filter_probability``.  Descendant edges appear
    with probability ``desc_probability`` and wildcards (only ever below
    child edges, to stay anchored) with ``wildcard_probability``.
    """
    r = make_rng(rng)
    if spine_length < 1:
        raise ValueError("spine_length must be >= 1")
    draw = _TwigDraw(r, labels, filter_probability, desc_probability,
                     wildcard_probability, max_filter_depth)

    root_axis = draw.axis()
    spine: list[TwigNode] = []
    incoming = root_axis
    for _ in range(spine_length):
        node = TwigNode(draw.label(allow_wildcard=incoming is Axis.CHILD))
        spine.append(node)
        incoming = draw.axis()
    for idx in range(len(spine) - 1):
        axis = draw.axis()
        # Keep anchoredness: descendant edges must target labelled nodes.
        if spine[idx + 1].is_wildcard:
            axis = Axis.CHILD
        spine[idx].add(axis, spine[idx + 1])
    if spine[0].is_wildcard and root_axis is Axis.DESC:
        root_axis = Axis.CHILD
    for node in spine:
        if r.random() < filter_probability:
            axis = draw.axis()
            node.branches.insert(
                r.randrange(len(node.branches) + 1),
                (axis, draw.filter(1, axis)),
            )
    return TwigQuery(root_axis, spine[0], spine[-1])


@dataclass(slots=True)
class _TwigDraw:
    """The random choices of :func:`random_twig`, from one generator.  An
    object, not inner functions, so the recursive filter draw leaves no
    reference cycle."""

    r: random.Random
    labels: Sequence[str]
    filter_probability: float
    desc_probability: float
    wildcard_probability: float
    max_filter_depth: int

    def label(self, allow_wildcard: bool) -> str:
        if allow_wildcard and self.r.random() < self.wildcard_probability:
            return "*"
        return self.r.choice(list(self.labels))

    def axis(self) -> Axis:
        return (Axis.DESC if self.r.random() < self.desc_probability
                else Axis.CHILD)

    def filter(self, depth: int, incoming: Axis) -> TwigNode:
        n = TwigNode(self.label(allow_wildcard=incoming is Axis.CHILD))
        if (depth < self.max_filter_depth
                and self.r.random() < self.filter_probability):
            axis = self.axis()
            n.add(axis, self.filter(depth + 1, axis))
        return n
