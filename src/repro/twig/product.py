"""Products of twig queries — the learner's generalisation engine.

The *product* of two unary twig queries is a query that selects, on every
document, (a superset containing) the intersection of what either factor
selects — the least-general-generalisation (lgg) machinery of Staworko &
Wieczorek's positive-example learner.

Construction
------------
A unary query decomposes into its *spine* (the root-to-selected path) and
Boolean filter branches hanging off spine nodes.  The product of two queries
is assembled from

1. a monotone *alignment* of the two spines (which spine nodes pair up) —
   paired nodes take the common label (else ``*``); skipped nodes dissolve
   into ``//`` edges; and
2. at every matched pair, the *Boolean product* of the off-spine forests.

The Boolean product of patterns ``u`` and ``v`` pairs children with
children (child axis survives only when both edges are child edges) and,
to capture generalisations that skip intermediate nodes, pairs each child
of one side with each strictly-deeper descendant of the other (descendant
axis).  Pairs that are deep on *both* sides are implied by compositions of
the above and therefore omitted.  Redundant branches are pruned eagerly
(see :mod:`repro.twig.normalize`) to keep intermediate patterns small.

Boolean products are memoised per pair of factor nodes and shared, not
copied: a product's filter subtrees may be shared, so a product can be a
DAG.  Like every twig pattern it is a read-only value; every consumer
either reads it or copies it first.  A caller that widens one hypothesis
with many queries passes one :class:`ProductMemo` to every
:func:`product` call, so each Boolean product of the hypothesis with a
subtree they share (canonical queries of one document share one pattern)
is computed once.

Different spine alignments yield incomparable minimal generalisations —
this is exactly why consistency with negative examples is NP-complete for
twigs while learning from positives alone is tractable.  :func:`product`
returns the minimum-cost alignment (a deterministic, most-specific-first
heuristic); :func:`iter_products` enumerates alignments lazily in cost
order for the negative-example search.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

from repro.twig.ast import Axis, TwigNode, TwigQuery, combine_axes
from repro.twig.normalize import prune_redundant_branches

# Alignment cost tuning: a wildcard spine node is worse than a descendant
# edge, which is worse than dropping one off-spine filter set.
_WILDCARD_COST = 3
_SKIP_COST = 1
_DESC_COST = 1

Alignment = list[tuple[int, int]]


def _product_label(a: str, b: str) -> str:
    return a if a == b else "*"


class ProductMemo:
    """Memoised Boolean products of subpattern pairs.

    ``practical=True`` pairs only equal labels (the mode used when examples
    are whole documents: mismatched-label pairs produce ``*`` branches that
    are almost always pruned anyway, and skipping them keeps the product
    from exploding).  ``practical=False`` is the exact construction.

    A hit returns the memoised node itself, so products share subtrees.
    Entries are keyed by ``id`` and hold a strong reference to their
    factor nodes, so no key can be reused while the memo lives; the
    pruning's implication memo (:func:`~repro.twig.normalize.branch_implies`)
    is keyed by product nodes this memo holds.  One memo may serve any
    number of :func:`product` calls in its mode; the caller owns its
    lifetime.
    """

    def __init__(self, practical: bool = True) -> None:
        self.practical = practical
        self._memo: dict[tuple[int, int],
                         tuple[TwigNode, TwigNode, TwigNode]] = {}
        self._deep: dict[int, tuple[TwigNode, list[TwigNode]]] = {}
        self._implications: dict[tuple[int, int], bool] = {}

    def _labels_pair(self, a: str, b: str) -> bool:
        if not self.practical:
            return True
        return a == b

    def node(self, u: TwigNode, v: TwigNode) -> TwigNode:
        hit = self._memo.get((id(u), id(v)))
        if hit is not None:
            return hit[2]
        result = TwigNode(_product_label(u.label, v.label))
        branches: list[tuple[Axis, TwigNode]] = []
        v_deep = [d for _, vc in v.branches for d in self.deep_nodes(vc)]
        u_deep = [d for _, uc in u.branches for d in self.deep_nodes(uc)]
        for a_axis, uc in u.branches:
            for b_axis, vc in v.branches:
                if self._labels_pair(uc.label, vc.label):
                    branches.append(
                        (combine_axes(a_axis, b_axis), self.node(uc, vc)))
            for w in v_deep:
                if self._labels_pair(uc.label, w.label):
                    branches.append((Axis.DESC, self.node(uc, w)))
        for _, vc in v.branches:
            for w in u_deep:
                if self._labels_pair(w.label, vc.label):
                    branches.append((Axis.DESC, self.node(w, vc)))
        result.branches = self.prune(branches)
        self._memo[(id(u), id(v))] = (u, v, result)
        return result

    def prune(self, branches: list[tuple[Axis, TwigNode]],
              ) -> list[tuple[Axis, TwigNode]]:
        """:func:`prune_redundant_branches` over product nodes, sharing
        this memo's implications."""
        return prune_redundant_branches(branches, self._implications)

    def deep_nodes(self, n: TwigNode) -> list[TwigNode]:
        """Nodes at depth >= 2 below the parent of ``n`` (i.e. inside
        ``n``), in pre-order; built once per factor node per memo."""
        hit = self._deep.get(id(n))
        if hit is not None:
            return hit[1]
        deep: list[TwigNode] = []
        for _, child in n.branches:
            deep.append(child)
            deep.extend(self.deep_nodes(child))
        self._deep[id(n)] = (n, deep)
        return deep


# ---------------------------------------------------------------------------
# Spine alignments
# ---------------------------------------------------------------------------


SpineParts = tuple[list[Axis], list[TwigNode]]


def _spine_parts(q: TwigQuery) -> SpineParts:
    spine = q.spine()
    return [axis for axis, _ in spine], [n for _, n in spine]


def _start_states(k: int, m: int) -> list[tuple[int, tuple[int, int]]]:
    """Initial matched pairs with their cost.

    Any pair ``(i, j)`` can start an alignment: the product's root axis
    becomes ``//`` (a spine node sits at *some* depth, and "any depth"
    generalises both factors), at the price of the skipped prefixes.
    ``(0, 0)`` keeps the combined root axis and costs nothing.
    """
    starts = [(0, (0, 0))]
    starts.extend(
        (_SKIP_COST * (i + j) + _DESC_COST, (i, j))
        for i in range(k + 1)
        for j in range(m + 1)
        if (i, j) != (0, 0)
    )
    return starts


def _pair_cost(label_a: str, label_b: str) -> int:
    return 0 if label_a == label_b else _WILDCARD_COST


def _move_cost(di: int, dj: int, child_edge: bool) -> int:
    skip = (di - 1) + (dj - 1)
    return _SKIP_COST * skip + (0 if child_edge else _DESC_COST)


def iter_alignments(p: TwigQuery, q: TwigQuery) -> Iterator[
        tuple[int, Alignment]]:
    """Yield ``(cost, alignment)`` pairs in non-decreasing cost order.

    An alignment is a strictly increasing sequence of index pairs into the
    two spines, ending at the selected pair.  Uniform-cost search; the
    number of alignments is exponential in spine length, so consume lazily.
    """
    yield from _alignments(_spine_parts(p), _spine_parts(q))


def _alignments(p_parts: SpineParts, q_parts: SpineParts) -> Iterator[
        tuple[int, Alignment]]:
    """:func:`iter_alignments` over spines already split into parts."""
    p_axes, p_nodes = p_parts
    q_axes, q_nodes = q_parts
    k, m = len(p_nodes) - 1, len(q_nodes) - 1

    counter = 0
    heap: list[tuple[int, int, tuple[int, int], tuple]] = []
    for cost, (i, j) in _start_states(k, m):
        cost += _pair_cost(p_nodes[i].label, q_nodes[j].label)
        counter += 1
        heapq.heappush(heap, (cost, counter, (i, j), ((i, j),)))

    while heap:
        cost, _, (i, j), path = heapq.heappop(heap)
        if i == k and j == m:
            yield cost, list(path)
            continue
        if i == k or j == m:
            continue  # dead end: one spine exhausted before the other
        for ni in range(i + 1, k + 1):
            for nj in range(j + 1, m + 1):
                if ni > i + 1 and nj > j + 1:
                    continue  # both-deep jumps are refinable; skip them
                child_edge = (
                    ni == i + 1 and nj == j + 1
                    and p_axes[ni] is Axis.CHILD and q_axes[nj] is Axis.CHILD
                )
                step = (_move_cost(ni - i, nj - j, child_edge)
                        + _pair_cost(p_nodes[ni].label, q_nodes[nj].label))
                counter += 1
                heapq.heappush(heap, (cost + step, counter, (ni, nj),
                                      path + ((ni, nj),)))


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _off_spine(spine_node: TwigNode,
               next_spine: TwigNode | None) -> list[tuple[Axis, TwigNode]]:
    return [(axis, c) for axis, c in spine_node.branches
            if next_spine is None or c is not next_spine]


def _assemble(p: TwigQuery, q: TwigQuery, p_parts: SpineParts,
              q_parts: SpineParts, alignment: Alignment,
              products: ProductMemo) -> TwigQuery:
    p_axes, p_nodes = p_parts
    q_axes, q_nodes = q_parts

    built: list[TwigNode] = []
    for idx, (i, j) in enumerate(alignment):
        pn, qn = p_nodes[i], q_nodes[j]
        node = TwigNode(_product_label(pn.label, qn.label))
        # The spine continuation out of pn is always the branch towards
        # p_nodes[i+1] (even when the alignment skips it, that subtree is
        # consumed by the // edge); it is excluded from the filter forest.
        last = idx + 1 >= len(alignment)
        p_spine_child = None if last else p_nodes[i + 1]
        q_spine_child = None if last else q_nodes[j + 1]
        off_p = _off_spine(pn, p_spine_child)
        off_q = _off_spine(qn, q_spine_child)
        filters: list[tuple[Axis, TwigNode]] = []
        for a_axis, uc in off_p:
            for b_axis, vc in off_q:
                if products._labels_pair(uc.label, vc.label):
                    filters.append(
                        (combine_axes(a_axis, b_axis), products.node(uc, vc)))
        for _, uc in off_p:
            for _, vc in off_q:
                for w in products.deep_nodes(vc):
                    if products._labels_pair(uc.label, w.label):
                        filters.append((Axis.DESC, products.node(uc, w)))
                for w in products.deep_nodes(uc):
                    if products._labels_pair(w.label, vc.label):
                        filters.append((Axis.DESC, products.node(w, vc)))
        node.branches = products.prune(filters)
        built.append(node)

    # Link consecutive spine nodes.
    for idx in range(len(alignment) - 1):
        (i, j), (ni, nj) = alignment[idx], alignment[idx + 1]
        child_edge = (ni == i + 1 and nj == j + 1
                      and p_axes[ni] is Axis.CHILD and q_axes[nj] is Axis.CHILD)
        axis = Axis.CHILD if child_edge else Axis.DESC
        built[idx].branches.append((axis, built[idx + 1]))

    i0, j0 = alignment[0]
    if i0 == 0 and j0 == 0:
        root_axis = combine_axes(p.root_axis, q.root_axis)
    else:
        root_axis = Axis.DESC
    return TwigQuery(root_axis, built[0], built[-1])


def product(p: TwigQuery, q: TwigQuery, *, practical: bool = True,
            memo: ProductMemo | None = None) -> TwigQuery:
    """The minimum-cost generalisation of ``p`` and ``q``.

    ``practical=True`` (default) pairs only equal labels inside filters —
    the mode intended for learning from whole-document examples.  Pass
    ``practical=False`` for the exhaustive Boolean product on small queries.

    ``memo`` shares Boolean products across calls (a fresh one per call by
    default); it must have been built for the same ``practical`` mode,
    else :class:`ValueError`.  Neither factor is changed, and the result
    shares memoised subtrees: read it, or copy it before rewriting it.
    """
    if memo is None:
        memo = ProductMemo(practical)
    elif memo.practical != practical:
        raise ValueError(f"the memo was built for practical={memo.practical}, "
                         f"not practical={practical}")
    p_parts, q_parts = _spine_parts(p), _spine_parts(q)
    for _, alignment in _alignments(p_parts, q_parts):
        return _assemble(p, q, p_parts, q_parts, alignment, memo)
    raise AssertionError("spine alignment search yielded no alignment")


def iter_products(p: TwigQuery, q: TwigQuery, *, practical: bool = True,
                  limit: int | None = None) -> Iterator[TwigQuery]:
    """Generalisations of ``p`` and ``q`` in increasing cost order.

    At most ``limit`` results (``None`` = unbounded).  Used by the
    consistency-with-negatives search, which needs alternatives when the
    cheapest generalisation selects a negative example.  The alternatives
    share one memo, so they may share subtrees with each other.
    """
    products = ProductMemo(practical)
    p_parts, q_parts = _spine_parts(p), _spine_parts(q)
    count = 0
    for _, alignment in _alignments(p_parts, q_parts):
        yield _assemble(p, q, p_parts, q_parts, alignment, products)
        count += 1
        if limit is not None and count >= limit:
            return
