"""Generating valid documents from a multiplicity schema.

Two generators:

* :func:`generate_valid_tree` — randomised sampling, used as workload for
  learning experiments and as the random half of counterexample searches;
* :func:`enumerate_valid_trees` — small-model systematic enumeration, used
  by brute-force cross-checks (schema containment, query containment).

Termination is handled through the *minimal height* of each label (a
fixpoint over required atoms): once the depth budget shrinks to the minimal
height, the generator takes minimal counts and minimal-height labels only.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.schema.dme import Atom
from repro.schema.dms import DMS
from repro.schema.satisfiability import trim
from repro.util.rng import RngLike, make_rng
from repro.xmltree.tree import XNode, XTree

_UNREACHABLE = 10 ** 9


def minimal_heights(schema: DMS) -> dict[str, int]:
    """Least height of a valid subtree per label (1 = can be a leaf)."""
    heights = {label: _UNREACHABLE for label in schema.rules}
    changed = True
    while changed:
        changed = False
        for label, expr in schema.rules.items():
            required = [a for a in expr.atoms if a.multiplicity.required]
            if not required:
                h = 1
            else:
                h = 1 + max(
                    min(heights[x] for x in atom.labels)
                    for atom in required
                )
            if h < heights[label]:
                heights[label] = h
                changed = True
    return heights


def generate_valid_tree(
    schema: DMS,
    *,
    rng: RngLike = None,
    max_depth: int = 10,
    growth: float = 0.35,
    max_extra: int = 2,
) -> XTree:
    """Sample a random valid document.

    ``growth`` is the probability of exceeding an atom's minimum count (by
    up to ``max_extra``, subject to the atom's maximum); the depth budget
    always wins over growth, so generation terminates.
    """
    r = make_rng(rng)
    core = trim(schema)
    heights = minimal_heights(core)
    if heights[core.root] > max_depth:
        raise SchemaError(
            f"max_depth={max_depth} below the minimal document height "
            f"{heights[core.root]}"
        )

    return XTree(_TreeSampler(core, heights, r, growth, max_extra)
                 .grow(core.root, max_depth))


@dataclass(slots=True)
class _TreeSampler:
    """The recursive sampling of :func:`generate_valid_tree`.  An object,
    not a recursive closure, so no reference cycle is left."""

    core: DMS
    heights: dict[str, int]
    r: random.Random
    growth: float
    max_extra: int

    def pick_count(self, atom: Atom, depth_left: int) -> int:
        lo = atom.interval.lo
        if depth_left <= 1:
            return lo
        count = lo
        hi = atom.interval.hi
        for _ in range(self.max_extra):
            if isinstance(hi, int) and count >= hi:
                break
            if self.r.random() < self.growth:
                count += 1
            else:
                break
        return count

    def grow(self, label: str, depth_left: int) -> XNode:
        heights = self.heights
        node = XNode(label)
        expr = self.core.expression(label)
        for atom in expr.atoms:
            fitting = [x for x in atom.labels if heights[x] < depth_left]
            count = self.pick_count(atom, depth_left) if fitting else 0
            if count < atom.interval.lo:
                # Must meet the minimum: minimal-height labels always fit
                # because depth_left >= minimal height of `label`.
                fitting = sorted(atom.labels, key=lambda x: heights[x])[:1]
                count = atom.interval.lo
            for _ in range(count):
                child_label = self.r.choice(fitting)
                node.add(self.grow(child_label, depth_left - 1))
        return node


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to split ``total`` into ``parts`` non-negative integers."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def enumerate_valid_trees(
    schema: DMS,
    *,
    limit: int = 1000,
    max_depth: int = 6,
    extra: int = 1,
) -> Iterator[XTree]:
    """Systematically enumerate small valid documents.

    For every node, each atom's count ranges over ``[lo, min(hi, lo+extra)]``
    and every distribution of the count over the atom's labels is explored.
    Enumeration is depth-first with memoised per-label subtree streams and
    stops after ``limit`` documents.

    The stream is exhaustive only within its bounds: no document deeper
    than ``max_depth``, later than ``limit``, or needing more than
    ``lo + extra`` children for some atom is ever produced.  Callers using
    this as a cross-check oracle (schema/query containment) must pick
    ``extra`` large enough to exceed any finite count cap they are testing
    against — see
    :func:`repro.schema.containment.schema_contains_brute_force`, which
    derives a sufficient value from the right-hand schema.
    """
    core = trim(schema)
    heights = minimal_heights(core)
    if heights[core.root] > max_depth:
        return

    options = _SubtreeOptions(core, heights, limit, extra)
    produced = 0
    for root in options.of(core.root, max_depth):
        if produced >= limit:
            return
        yield XTree(root)
        produced += 1


@dataclass(slots=True)
class _SubtreeOptions:
    """The memoised per-label subtree streams of
    :func:`enumerate_valid_trees`.  An object, not a recursive closure,
    so no reference cycle is left."""

    core: DMS
    heights: dict[str, int]
    limit: int
    extra: int
    memo: dict[tuple[str, int], list[XNode]] = field(default_factory=dict)

    def of(self, label: str, depth_left: int) -> list[XNode]:
        """Every valid subtree rooted at ``label`` within the bounds."""
        memo, heights, limit = self.memo, self.heights, self.limit
        key = (label, depth_left)
        if key in memo:
            return memo[key]
        if heights[label] > depth_left:
            memo[key] = []
            return []
        expr = self.core.expression(label)
        per_atom_choices: list[list[list[XNode]]] = []
        for atom in expr.atoms:
            atom_choices: list[list[XNode]] = []
            hi = atom.interval.hi
            top = atom.interval.lo + self.extra
            if isinstance(hi, int):
                top = min(top, hi)
            labels = sorted(atom.labels)
            for count in range(atom.interval.lo, top + 1):
                for distribution in _compositions(count, len(labels)):
                    slot_variants: list[list[tuple[XNode, ...]]] = []
                    feasible = True
                    for x, k in zip(labels, distribution):
                        if k == 0:
                            continue
                        subs = self.of(x, depth_left - 1)
                        if not subs:
                            feasible = False
                            break
                        # Unordered children: combinations with
                        # replacement avoid permuted duplicates.
                        slot_variants.append(list(
                            itertools.combinations_with_replacement(subs, k)
                        ))
                    if not feasible:
                        continue
                    for chosen in itertools.product(*slot_variants) \
                            if slot_variants else iter([()]):
                        group = [n for slot in chosen for n in slot]
                        atom_choices.append(group)
                        if len(atom_choices) >= limit:
                            break
                    if len(atom_choices) >= limit:
                        break
                if len(atom_choices) >= limit:
                    break
            if not atom_choices:
                memo[key] = []
                return []
            per_atom_choices.append(atom_choices)
        results: list[XNode] = []
        combos = itertools.product(*per_atom_choices) \
            if per_atom_choices else iter([()])
        for combo in combos:
            node = XNode(label)
            for group in combo:
                for child in group:
                    node.add(child.copy())
            results.append(node)
            if len(results) >= limit:
                break
        memo[key] = results
        return results

