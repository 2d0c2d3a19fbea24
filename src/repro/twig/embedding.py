"""Pattern-to-pattern embeddings and twig containment.

``embeds(q2, q1)`` decides whether there is a homomorphism from query ``q2``
into query ``q1`` (labels of ``q2`` match, child edges map to child edges,
descendant edges map to downward paths of length >= 1, and the selected node
of ``q2`` lands on the selected node of ``q1``).  An embedding witnesses
containment ``q1 ⊆ q2`` (every tree node selected by ``q1`` is selected by
``q2``): compose the embedding with any embedding of ``q1`` into a document.

The homomorphism test is **sound but not complete** for containment in the
presence of ``//`` and ``*`` (Miklau & Suciu); :func:`contains_exact`
additionally checks the canonical models of ``q1`` (descendant edges
instantiated by chains of a fresh label, wildcards instantiated by the fresh
label) up to the length bound ``|q2| + 1``, which is exact for this
fragment.  The exact test is exponential in the number of descendant edges
and intended for small queries (tests, minimisation audits).
"""

from __future__ import annotations

import itertools

from repro.twig.ast import Axis, TwigNode, TwigQuery
from repro.twig.semantics import evaluate
from repro.xmltree.tree import XNode, XTree

_FRESH = "__z__"  # Label assumed not to occur in any query under test.


# ---------------------------------------------------------------------------
# Homomorphism (sound containment)
# ---------------------------------------------------------------------------


def _desc_targets(n: TwigNode) -> list[TwigNode]:
    """All nodes strictly below ``n`` (targets for a descendant edge)."""
    out: list[TwigNode] = []
    for _, child in n.branches:
        out.append(child)
        out.extend(_desc_targets(child))
    return out


def embeds(q2: TwigQuery, q1: TwigQuery) -> bool:
    """Is there an embedding of ``q2`` into ``q1``?  Witnesses ``q1 ⊆ q2``."""
    memo: dict[tuple[int, int], bool] = {}
    if q2.root_axis is Axis.CHILD:
        if q1.root_axis is not Axis.CHILD:
            return False
        return _embeds_at(q2, q1, q2.root, q1.root, memo)
    # q2 root may map anywhere in q1; if q1 is //-rooted, any q1 node works,
    # and if q1 is /-rooted its nodes sit at fixed depths — also fine.
    return any(_embeds_at(q2, q1, q2.root, u1, memo) for u1 in q1.nodes())


def _embeds_at(q2: TwigQuery, q1: TwigQuery, u2: TwigNode, u1: TwigNode,
               memo: dict[tuple[int, int], bool]) -> bool:
    """Does the subpattern at ``u2`` embed with ``u2`` mapped to ``u1``?

    Module-level with its state as arguments: a recursive inner function
    would close over itself and keep the memo in a reference cycle until
    the cyclic collector runs.
    """
    key = (id(u2), id(u1))
    if key in memo:
        return memo[key]
    memo[key] = False  # cycle guard (trees: unreachable, but safe)
    # q2's selected node must land on q1's selected node; other q2
    # nodes may map anywhere (including onto q1's selected node).
    if u2 is q2.selected and u1 is not q1.selected:
        ok = False
    else:
        ok = u2.is_wildcard or (not u1.is_wildcard and u2.label == u1.label)
    if ok:
        for axis, v2 in u2.branches:
            if axis is Axis.CHILD:
                targets = [c for a, c in u1.branches if a is Axis.CHILD]
            else:
                targets = _desc_targets(u1)
            if not any(_embeds_at(q2, q1, v2, v1, memo) for v1 in targets):
                ok = False
                break
    memo[key] = ok
    return ok


def contains(q1: TwigQuery, q2: TwigQuery) -> bool:
    """Sound containment test: ``True`` implies ``q1 ⊆ q2``."""
    return embeds(q2, q1)


# ---------------------------------------------------------------------------
# Canonical models (exact containment for small queries)
# ---------------------------------------------------------------------------


def _instantiate(q1: TwigQuery, lengths: dict[int, int],
                 root_prefix: int) -> tuple[XTree, XNode]:
    """Build a canonical document of ``q1``.

    ``lengths[id(node)]`` gives the chain length substituted for the
    descendant edge *into* that node (1 = direct child); ``root_prefix``
    prepends that many fresh nodes above the pattern root when the root axis
    is ``//``.  Wildcards become the fresh label.  Returns the document and
    the image of the selected node.
    """
    selected_image: list[XNode] = []
    core = _build_canonical(q1, q1.root, lengths, selected_image)
    top = core
    for _ in range(root_prefix):
        top = XNode(_FRESH, [top])
    return XTree(top), selected_image[0]


def _build_canonical(q1: TwigQuery, n: TwigNode, lengths: dict[int, int],
                     selected_image: list[XNode]) -> XNode:
    """The canonical document fragment of the subpattern at ``n``.

    Module-level with its state as arguments: a recursive inner function
    would close over itself and leave a reference cycle per call.
    """
    label = _FRESH if n.is_wildcard else n.label
    x = XNode(label)
    if n is q1.selected:
        selected_image.append(x)
    for axis, child in n.branches:
        sub = _build_canonical(q1, child, lengths, selected_image)
        if axis is Axis.CHILD:
            x.add(sub)
        else:
            chain = sub
            for _ in range(lengths[id(child)] - 1):
                chain = XNode(_FRESH, [chain])
            x.add(chain)
    return x


def _desc_edges(q: TwigQuery) -> list[TwigNode]:
    return [child for n in q.nodes() for axis, child in n.branches
            if axis is Axis.DESC]


def contains_exact(q1: TwigQuery, q2: TwigQuery) -> bool:
    """Exact containment ``q1 ⊆ q2`` via canonical models.

    Exponential in the number of descendant edges of ``q1``; use on small
    queries only.  Chain lengths range over ``1 .. |q2|+1`` which suffices
    for the ``{/, //, [], *}`` fragment.
    """
    bound = q2.size() + 1
    desc_nodes = _desc_edges(q1)
    root_prefix_options = (
        range(0, bound + 1) if q1.root_axis is Axis.DESC else (0,)
    )
    for root_prefix in root_prefix_options:
        for combo in itertools.product(range(1, bound + 1),
                                       repeat=len(desc_nodes)):
            lengths = {id(n): L for n, L in zip(desc_nodes, combo)}
            doc, target = _instantiate(q1, lengths, root_prefix)
            if not any(sel is target for sel in evaluate(q2, doc)):
                return False
    return True


def equivalent(q1: TwigQuery, q2: TwigQuery, *, exact: bool = False) -> bool:
    """Mutual containment.  ``exact=True`` uses canonical models."""
    if exact:
        return contains_exact(q1, q2) and contains_exact(q2, q1)
    return contains(q1, q2) and contains(q2, q1)
