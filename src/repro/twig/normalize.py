"""Twig minimisation: removal of redundant (sibling-subsumed) branches.

A branch ``(axis_i, c_i)`` at a node is *redundant* when a sibling branch
``(axis_j, c_j)`` implies it: every document satisfying the sibling branch
below some node also satisfies the redundant one.  Concretely

* ``axis_i = /``:  requires ``axis_j = /`` and a Boolean embedding of
  ``c_i`` into ``c_j`` mapping root to root;
* ``axis_i = //``: requires a Boolean embedding of ``c_i`` at *any* node of
  the sibling subtree (anything in the sibling subtree sits at depth >= 1).

Removing redundant branches preserves query equivalence; this is the
standard tree-pattern minimisation step and the reason the paper's learned
queries do not grow with the size of the example documents.  Branches whose
subtree contains the selected node are never removed.

The implication relation is transitive, and ties between mutually-implied
(equivalent) branches are broken by keeping the earliest, so a single sweep
per node is sound.
"""

from __future__ import annotations

from repro.twig.ast import Axis, TwigNode, TwigQuery


def bool_embeds_at(pattern: TwigNode, target: TwigNode) -> bool:
    """Boolean embedding of ``pattern`` into the subtree at ``target``.

    Root maps to root; no selected-node constraints.
    """
    return _embeds(pattern, target, {})


def _embeds(u: TwigNode, v: TwigNode,
            memo: dict[tuple[int, int], bool]) -> bool:
    # Module-level with its memo as an argument: a recursive inner
    # function would close over itself and keep the memo in a reference
    # cycle until the cyclic collector runs.
    key = (id(u), id(v))
    if key in memo:
        return memo[key]
    if u.is_wildcard:
        ok = True
    else:
        ok = (not v.is_wildcard) and u.label == v.label
    if ok:
        for axis, uc in u.branches:
            if axis is Axis.CHILD:
                targets = [c for a, c in v.branches if a is Axis.CHILD]
            else:
                targets = [d for _, c in v.branches for d in c.iter()]
            if not any(_embeds(uc, vc, memo) for vc in targets):
                ok = False
                break
    memo[key] = ok
    return ok


def branch_implies(stronger: tuple[Axis, TwigNode],
                   weaker: tuple[Axis, TwigNode],
                   memo: dict[tuple[int, int], bool] | None = None) -> bool:
    """Does the ``stronger`` branch imply the ``weaker`` one at the same node?

    ``memo`` caches embeddings by ``(id(pattern), id(target))`` across
    calls (a fresh one per call by default).  A caller that shares one
    must keep every node it has seen alive and unchanged while it lives.
    """
    if memo is None:
        memo = {}
    axis_s, sub_s = stronger
    axis_w, sub_w = weaker
    if axis_w is Axis.CHILD:
        return axis_s is Axis.CHILD and _embeds(sub_w, sub_s, memo)
    # weaker is a descendant branch: any placement in the stronger subtree
    # sits at depth >= 1 below the shared parent.
    return any(_embeds(sub_w, v, memo) for v in sub_s.iter())


def _prune_branches(
    branches: list[tuple[Axis, TwigNode]],
    protected: set[int],
    memo: dict[tuple[int, int], bool] | None = None,
) -> list[tuple[Axis, TwigNode]]:
    """Drop branches implied by a surviving sibling.

    ``protected`` holds ids of subtree roots that must survive (they contain
    the selected node).  Equivalent pairs keep the earliest branch.
    ``memo`` is the embedding memo of :func:`branch_implies`; by default
    one sweep shares a fresh one (nothing changes during a sweep).
    """
    if memo is None:
        memo = {}
    removed: set[int] = set()
    for i, bi in enumerate(branches):
        if id(bi[1]) in protected:
            continue
        for j, bj in enumerate(branches):
            if i == j or j in removed:
                continue
            if branch_implies(bj, bi, memo):
                if not branch_implies(bi, bj, memo) or j < i:
                    removed.add(i)
                    break
    return [b for i, b in enumerate(branches) if i not in removed]


def prune_redundant_branches(
    branches: list[tuple[Axis, TwigNode]],
    memo: dict[tuple[int, int], bool] | None = None,
) -> list[tuple[Axis, TwigNode]]:
    """Public pruning entry point for Boolean branch lists (no selected node).

    ``memo`` is as for :func:`branch_implies`.
    """
    return _prune_branches(branches, set(), memo)


def minimize(query: TwigQuery) -> TwigQuery:
    """Equivalent query with redundant branches removed, bottom-up.

    The input is not mutated.
    """
    result = query.copy()
    _minimize_below(result.root, {id(n) for _, n in result.spine()})
    return result


def _minimize_below(n: TwigNode, protected: set[int]) -> None:
    for _, child in n.branches:
        _minimize_below(child, protected)
    n.branches = _prune_branches(n.branches, protected)
