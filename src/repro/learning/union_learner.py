"""Learning unions of twig queries by greedy agglomerative merging.

The paper leaves union learnability open; this module contributes the
natural algorithm: start from one disjunct per positive example (the
canonical queries — the least consistent union), then repeatedly merge the
two disjuncts whose product yields the largest size saving *while the
union stays consistent with the negatives*, until a target disjunct count
is reached or no consistent merge remains.

This makes disjunctive goals (e.g. XPathMark's A7
``person[phone or homepage]/name``) learnable: positives split into
phone-people and homepage-people clusters, in-cluster merges generalise
cleanly, and the cross-cluster merge is rejected because it would select
negative persons with neither feature.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import InconsistentExamplesError, LearningError
from repro.learning.backend import (
    EvaluationBackend,
    as_backend,
    candidate_pair_flags,
    candidate_workload,
    distinct_documents,
)
from repro.learning.protocol import NodeExample
from repro.twig.anchored import anchor_repair
from repro.twig.ast import TwigQuery
from repro.twig.normalize import minimize
from repro.twig.product import product
from repro.twig.union import UnionTwigQuery
from repro.xmltree.tree import XNode, XTree


@dataclass
class LearnedUnion:
    query: UnionTwigQuery
    merges: int
    consistent: bool


def _merge(a: TwigQuery, b: TwigQuery, practical: bool) -> TwigQuery:
    merged, _ = anchor_repair(product(a, b, practical=practical))
    return minimize(merged)


def _violating_flags(queries: Sequence[TwigQuery],
                     negatives: Sequence[tuple[XTree, XNode]],
                     backend: EvaluationBackend) -> list[bool]:
    """Which candidate queries select at least one negative example?

    One workload for the whole candidate generation: every query over
    every *distinct* negative document.  Every backend shards it per
    document — each document's index snapshot answers all
    candidates in one shard — instead of paying one evaluation call per
    (candidate, negative) pair the way the old inline loop did.
    """
    if not queries or not negatives:
        return [False] * len(queries)
    documents = distinct_documents(negatives)
    answers = backend.evaluate_batch(
        candidate_workload(queries, documents)).answers
    return [any(row) for row in candidate_pair_flags(
        answers, len(queries), documents, negatives)]


def learn_union_twig(
    examples: Sequence[NodeExample | tuple[XTree, XNode]],
    *,
    max_disjuncts: int = 2,
    practical: bool = True,
    backend: EvaluationBackend | None = None,
) -> LearnedUnion:
    """Fit a union of at most... well, *aim* for ``max_disjuncts`` twigs.

    Greedy merging stops early when every remaining merge would select a
    negative example; the result can therefore keep more disjuncts than
    requested (still consistent).  Raises
    :class:`~repro.errors.InconsistentExamplesError` when not even the
    union of canonical queries is consistent (the trivial test).

    Every merge round evaluates its *whole* candidate generation — one
    merged query per disjunct pair — as a single backend batch.  Kept
    disjuncts are never re-checked: the initial consistency test and the
    per-merge acceptance guarantee the invariant that every current
    disjunct avoids every negative, so a trial union violates iff its
    freshly merged disjunct does.
    """
    positives: list[tuple[XTree, XNode]] = []
    negatives: list[tuple[XTree, XNode]] = []
    for ex in examples:
        if isinstance(ex, NodeExample):
            (positives if ex.positive else negatives).append(
                (ex.tree, ex.node))
        else:
            positives.append(ex)
    if not positives:
        raise LearningError("at least one positive example is required")
    backend = as_backend(backend)

    disjuncts = [minimize(backend.canonical_query(t, n))
                 for t, n in positives]
    if any(_violating_flags(disjuncts, negatives, backend)):
        raise InconsistentExamplesError(
            "no union of twig queries is consistent: some positive's "
            "canonical query already selects a negative"
        )

    merges = 0
    while len(disjuncts) > max_disjuncts:
        pairs = [(i, j) for i in range(len(disjuncts))
                 for j in range(i + 1, len(disjuncts))]
        candidates = [_merge(disjuncts[i], disjuncts[j], practical)
                      for i, j in pairs]
        violating = _violating_flags(candidates, negatives, backend)
        best: tuple[int, int, TwigQuery] | None = None
        best_saving = None
        for (i, j), merged, violates in zip(pairs, candidates, violating):
            if violates:
                continue
            saving = (disjuncts[i].size() + disjuncts[j].size()
                      - merged.size())
            if best_saving is None or saving > best_saving:
                best_saving = saving
                best = (i, j, merged)
        if best is None:
            break  # every merge would select a negative
        i, j, merged = best
        disjuncts = [d for k, d in enumerate(disjuncts) if k not in (i, j)]
        disjuncts.append(merged)
        merges += 1

    result = UnionTwigQuery(disjuncts).simplified()
    consistent = not any(_violating_flags(result.disjuncts, negatives,
                                          backend))
    return LearnedUnion(result, merges, consistent)
