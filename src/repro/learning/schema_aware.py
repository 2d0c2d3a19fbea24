"""Schema-aware twig learning — the paper's proposed optimisation.

Section 2: the positive-only learner overspecialises, "includ[ing]
fragments implied by the schema ... making the returned query bigger and
increasing its evaluation time.  The difference is that we want to add a
filter present in all the positive examples to the learned query only if
it is not implied by the schema."  Query implication is PTIME for
multiplicity schemas (unlike containment), which is exactly why the paper
proposes this filter-level pruning rather than full minimisation under the
schema.

:func:`prune_schema_implied` removes, top-down, every filter branch that
the schema implies at its context label; :func:`learn_twig_schema_aware`
chains the positive-only learner with the pruning and reports the size
reduction — the E3 experiment metric.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.learning.protocol import NodeExample
from repro.learning.twig_learner import LearnedTwig, learn_twig
from repro.schema.dependency_graph import DependencyGraph
from repro.schema.dms import DMS
from repro.schema.query_analysis import filter_implied_at
from repro.twig.ast import TwigNode, TwigQuery
from repro.twig.normalize import minimize
from repro.xmltree.tree import XNode, XTree


@dataclass
class SchemaAwareResult:
    """A pruned query plus the bookkeeping the E3 experiment reports."""

    query: TwigQuery
    size_before: int
    size_after: int
    filters_removed: int

    @property
    def reduction_percent(self) -> float:
        if self.size_before == 0:
            return 0.0
        return 100.0 * (self.size_before - self.size_after) / self.size_before


def prune_schema_implied(query: TwigQuery,
                         schema: DMS | DependencyGraph) -> SchemaAwareResult:
    """Remove filter branches implied by the schema.

    A branch is removable when it does not contain the selected node and
    :func:`~repro.schema.query_analysis.filter_implied_at` holds at the
    context label.  Pruning is top-down (an implied filter disappears with
    its whole subtree before its parts are examined) and runs to fixpoint.
    """
    graph = schema if isinstance(schema, DependencyGraph) \
        else DependencyGraph(schema)
    result = query.copy()
    size_before = query.size()
    spine_ids = {id(n) for _, n in result.spine()}
    removed = _prune(result.root, graph, spine_ids)
    # Pruning can leave a filter branch that a sibling (often the spine)
    # now subsumes — e.g. ``people[person]/person`` after the implied
    # ``[name]`` inside the filter was dropped.  Re-minimise.
    result = minimize(result)
    return SchemaAwareResult(result, size_before, result.size(), removed)


def _prune(n: TwigNode, graph: DependencyGraph, spine_ids: set[int]) -> int:
    # Module-level with its state as arguments: a recursive inner
    # function would close over itself and keep the dependency graph in a
    # reference cycle until the cyclic collector runs.
    kept: list[tuple] = []
    removed = 0
    for axis, child in n.branches:
        if id(child) not in spine_ids and filter_implied_at(
                graph, n.label, axis, child):
            removed += 1
        else:
            kept.append((axis, child))
    n.branches = kept
    return removed + sum(_prune(child, graph, spine_ids)
                         for _, child in kept)


def learn_twig_schema_aware(
    examples: Sequence[NodeExample | tuple[XTree, XNode]],
    schema: DMS | DependencyGraph,
    *,
    practical: bool = True,
    backend=None,
) -> tuple[LearnedTwig, SchemaAwareResult]:
    """Positive-only learning followed by schema-implied filter pruning.

    Returns both the plain learner's output and the pruned result, so
    callers can report before/after sizes (experiment E3).  ``backend``
    is the evaluation backend the underlying learner folds through
    (schema pruning itself is pure query analysis — no evaluation).
    """
    learned = learn_twig(examples, practical=practical, backend=backend)
    pruned = prune_schema_implied(learned.query, schema)
    return learned, pruned
