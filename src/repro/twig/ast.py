"""Abstract syntax for twig queries.

A query is a rooted tree of :class:`TwigNode` objects.  Each edge carries an
:class:`Axis` (child or descendant); the query as a whole carries a *root
axis* describing how its root attaches to the document root (``/`` = the
root of the pattern **is** the document root element, ``//`` = the root of
the pattern may match any node).  Exactly one node is *selected* — its
matches form the query answer.

Patterns are read-only values once built.  Canonical queries are views of
one shared pattern per document, and products share memoised subtrees (a
product may be a DAG), so every operation that rewrites a pattern copies
it first; ``copy()`` preserves which node is selected.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from typing import Optional

WILDCARD = "*"


class Axis(enum.Enum):
    """Edge type: ``CHILD`` = parent/child, ``DESC`` = proper descendant."""

    CHILD = "/"
    DESC = "//"

    def __str__(self) -> str:
        return self.value


def combine_axes(a: "Axis", b: "Axis") -> "Axis":
    """The most specific axis implied by both ``a`` and ``b``.

    Used by the product construction: a child edge in both patterns stays a
    child edge; any descendant involvement generalises to descendant.
    """
    if a is Axis.CHILD and b is Axis.CHILD:
        return Axis.CHILD
    return Axis.DESC


class TwigNode:
    """A pattern node: a label (or ``*``) plus axis-labelled child branches."""

    __slots__ = ("label", "branches")

    def __init__(
        self,
        label: str,
        branches: Optional[list[tuple[Axis, "TwigNode"]]] = None,
    ) -> None:
        if not label:
            raise ValueError("twig node label must be non-empty (use '*')")
        self.label = label
        self.branches: list[tuple[Axis, TwigNode]] = list(branches or [])

    @property
    def is_wildcard(self) -> bool:
        return self.label == WILDCARD

    def add(self, axis: Axis, child: "TwigNode") -> "TwigNode":
        self.branches.append((axis, child))
        return child

    def iter(self) -> Iterator["TwigNode"]:
        """This node and all descendants, pre-order."""
        stack = [self]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(child for _, child in reversed(current.branches))

    def size(self) -> int:
        return sum(1 for _ in self.iter())

    def depth(self) -> int:
        if not self.branches:
            return 1
        return 1 + max(child.depth() for _, child in self.branches)

    def contains_node(self, target: "TwigNode") -> bool:
        return any(n is target for n in self.iter())

    def copy_with_map(self) -> tuple["TwigNode", dict[int, "TwigNode"]]:
        """Deep copy; also return a map ``id(original) -> copy``."""
        mapping: dict[int, TwigNode] = {}
        return _copy_into(self, mapping), mapping

    def canonical(self) -> tuple:
        """Hashable form, invariant under branch permutation."""
        forms = sorted((axis.value, child.canonical())
                       for axis, child in self.branches)
        return (self.label, tuple(forms))

    def __repr__(self) -> str:
        return f"<TwigNode {self.label!r} {len(self.branches)} branches>"


# The recursive helpers below are module-level functions that take their
# state as arguments.  A recursive inner function would close over itself,
# and that reference cycle keeps everything it refers to (a query, a
# clone map) alive until the cyclic collector runs.

def _copy_into(n: TwigNode, mapping: dict[int, TwigNode]) -> TwigNode:
    clone = TwigNode(n.label)
    mapping[id(n)] = clone
    clone.branches = [(axis, _copy_into(child, mapping))
                      for axis, child in n.branches]
    return clone


def _canonical_form(n: TwigNode, selected: TwigNode) -> tuple:
    forms = sorted((axis.value, _canonical_form(child, selected))
                   for axis, child in n.branches)
    return (n.label, n is selected, tuple(forms))


def _render_filter_body(axis: Axis, n: TwigNode) -> str:
    prefix = "" if axis is Axis.CHILD else ".//"
    return f"[{prefix}{_render_plain(n)}]"


def _render_plain(n: TwigNode) -> str:
    # Rendering for nodes strictly inside filters (no spine here).
    if len(n.branches) == 1:
        axis, child = n.branches[0]
        return f"{n.label}{axis.value}{_render_plain(child)}"
    return n.label + "".join(
        _render_filter_body(axis, child) for axis, child in n.branches
    )


def _render_spine(n: TwigNode, spine_ids: set[int]) -> str:
    parts = [n.label]
    main_branch: tuple[Axis, TwigNode] | None = None
    for axis, child in n.branches:
        if id(child) in spine_ids and main_branch is None:
            main_branch = (axis, child)
        else:
            parts.append(_render_filter_body(axis, child))
    if main_branch is not None:
        axis, child = main_branch
        parts.append(f"{axis.value}{_render_spine(child, spine_ids)}")
    return "".join(parts)


class TwigQuery:
    """A unary twig query: root axis, pattern root, and selected node."""

    __slots__ = ("root_axis", "root", "selected")

    def __init__(self, root_axis: Axis, root: TwigNode,
                 selected: Optional[TwigNode] = None) -> None:
        self.root_axis = root_axis
        self.root = root
        self.selected = selected if selected is not None else root
        if not root.contains_node(self.selected):
            raise ValueError("selected node must belong to the query pattern")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[TwigNode]:
        return self.root.iter()

    def size(self) -> int:
        return self.root.size()

    def depth(self) -> int:
        return self.root.depth()

    def spine(self) -> list[tuple[Axis, TwigNode]]:
        """The path from the root to the selected node.

        Returns ``[(root_axis, root), (axis1, n1), ..., (axisk, selected)]``.
        A depth-first search that stops at the selected node: a view of a
        whole-document pattern walks the nodes before it in pre-order, not
        the whole document.
        """
        path: list[tuple[Axis, TwigNode]] = [(self.root_axis, self.root)]
        if self.root is self.selected:
            return path
        # One branch iterator per node on ``path``: the search backs up
        # past a node once its branches are exhausted.
        pending = [iter(self.root.branches)]
        while pending:
            step = next(pending[-1], None)
            if step is None:
                pending.pop()
                path.pop()
                continue
            path.append(step)
            if step[1] is self.selected:
                return path
            pending.append(iter(step[1].branches))
        raise ValueError("selected node must belong to the query pattern")

    def copy(self) -> "TwigQuery":
        root_copy, mapping = self.root.copy_with_map()
        return TwigQuery(self.root_axis, root_copy, mapping[id(self.selected)])

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def canonical(self) -> tuple:
        """Hashable form for syntactic equality (selected node marked)."""
        return (self.root_axis.value,
                _canonical_form(self.root, self.selected))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwigQuery):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_xpath(self) -> str:
        """Concrete syntax with the selected node as the main-path target.

        Branches off the root-to-selected spine render as ``[...]`` filters;
        inside a filter, a single-branch chain renders as a path
        (``[a/b//c]``) and multiple branches render as nested filters.
        """
        spine_ids = {id(n) for _, n in self.spine()}
        return f"{self.root_axis.value}{_render_spine(self.root, spine_ids)}"

    def __repr__(self) -> str:
        return f"TwigQuery({self.to_xpath()!r})"


def twig(label: str, *branches: tuple[Axis, TwigNode]) -> TwigNode:
    """Convenience builder mirroring :func:`repro.xmltree.node`."""
    return TwigNode(label, list(branches))
