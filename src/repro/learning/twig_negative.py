"""Consistency checking and learning with positive *and* negative examples.

Section 2 of the paper: "adding negative examples renders learning more
complex: it is NP-complete to decide whether there exists a query that
selects all the positive examples and none of the negative ones", but the
problem "becomes tractable" when the sets of examples have bounded size
(Cohen & Weiss, ICDT 2013).

The structure behind both statements is visible in this implementation.
A query consistent with the positives must generalise every positive
canonical query, i.e. it must be (at least as general as) *some* iterated
product of them — and products are not unique: every monotone alignment of
the spines yields an incomparable minimal generalisation.  Consistency with
negatives is therefore a search over the alignment tree:

* the number of alignments is exponential in the spine lengths and the
  number of examples — the NP-hardness;
* for a bounded number of examples the tree has polynomial size — the
  tractable case.

:func:`check_consistency` runs a best-first search over that tree with an
explicit candidate budget; when the budget suffices to exhaust the tree the
answer is definitive, otherwise the result is reported as inconclusive.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import LearningError
from repro.learning.backend import EvaluationBackend, as_backend
from repro.learning.protocol import NodeExample
from repro.twig.anchored import anchor_repair
from repro.twig.ast import TwigQuery
from repro.twig.normalize import minimize
from repro.twig.product import iter_products



@dataclass
class ConsistencyResult:
    """Outcome of a consistency check.

    ``consistent`` is ``True`` (with a witness ``query``), ``False`` (the
    search space was exhausted without a witness), or ``None`` (budget ran
    out first — inconclusive).  ``candidates_tried`` reports search effort.
    """

    consistent: bool | None
    query: TwigQuery | None
    candidates_tried: int
    exhausted: bool

    def __bool__(self) -> bool:
        return self.consistent is True


def _violates_negative(query: TwigQuery, negatives: Sequence[NodeExample],
                       backend: EvaluationBackend) -> bool:
    # Backend-batched per distinct example document, short-circuiting at
    # the first document with a selected negative: most candidates in the
    # search die early, so the hot DFS path must not pay for the full
    # negative set per candidate.
    return backend.selects_any(query, [(n.tree, n.node) for n in negatives])


def check_consistency(
    examples: Sequence[NodeExample],
    *,
    budget: int = 512,
    branching: int = 8,
    practical: bool = True,
    backend: EvaluationBackend | None = None,
) -> ConsistencyResult:
    """Is some anchored twig consistent with the labelled examples?

    ``budget`` bounds the total number of candidate hypotheses examined;
    ``branching`` bounds the alignment alternatives explored per product
    step.  With generous bounds and few examples the search is exhaustive
    (the paper's tractable bounded case); adversarial instances need
    exponential budget (the NP-complete general case).
    """
    positives = [e for e in examples if e.positive]
    negatives = [e for e in examples if not e.positive]
    if not positives:
        raise LearningError("at least one positive example is required")

    backend = as_backend(backend)
    canonicals = [backend.canonical_query(e.tree, e.node) for e in positives]

    search = _FoldSearch(canonicals, negatives, backend, budget, branching,
                         practical)
    witness = search.run(canonicals[0], 1)
    if witness is not None:
        return ConsistencyResult(True, witness, search.tried,
                                 exhausted=False)
    if search.budget_exhausted or search.space_truncated:
        return ConsistencyResult(None, None, search.tried, exhausted=False)
    return ConsistencyResult(False, None, search.tried, exhausted=True)


@dataclass(slots=True)
class _FoldSearch:
    """The search of :func:`check_consistency`, depth-first over example
    folds; at each fold it tries the alignment alternatives in cost
    order.  A candidate that already selects a negative cannot recover
    (later folds only generalise further), so it is pruned at once —
    that pruning is what makes typical instances fast.  An object, not a
    recursive closure, so no reference cycle is left."""

    canonicals: Sequence[TwigQuery]
    negatives: Sequence[NodeExample]
    backend: EvaluationBackend
    budget: int
    branching: int
    practical: bool
    tried: int = 0
    budget_exhausted: bool = False
    space_truncated: bool = False

    def run(self, hypothesis: TwigQuery, index: int) -> TwigQuery | None:
        if self.tried >= self.budget:
            self.budget_exhausted = True
            return None
        self.tried += 1
        repaired, repair_exact = anchor_repair(hypothesis)
        if not repair_exact:
            self.space_truncated = True
        candidate = minimize(repaired)
        if _violates_negative(candidate, self.negatives, self.backend):
            return None
        if index == len(self.canonicals):
            return candidate
        alternatives = list(iter_products(candidate, self.canonicals[index],
                                          practical=self.practical,
                                          limit=self.branching + 1))
        if len(alternatives) > self.branching:
            self.space_truncated = True
            alternatives = alternatives[:self.branching]
        for alternative in alternatives:
            found = self.run(alternative, index + 1)
            if found is not None:
                return found
            if self.budget_exhausted:
                return None
        return None


def learn_twig_with_negatives(
    examples: Sequence[NodeExample],
    *,
    budget: int = 512,
    branching: int = 8,
    practical: bool = True,
    backend: EvaluationBackend | None = None,
) -> TwigQuery:
    """Return a consistent query or raise.

    Raises :class:`~repro.errors.InconsistentExamplesError` when the search
    proves no anchored twig fits, :class:`~repro.errors.LearningError` when
    the budget is exhausted first.
    """
    from repro.errors import InconsistentExamplesError

    result = check_consistency(examples, budget=budget, branching=branching,
                               practical=practical, backend=backend)
    if result.consistent:
        assert result.query is not None
        return result.query
    if result.consistent is False:
        raise InconsistentExamplesError(
            "no anchored twig query is consistent with the examples"
        )
    raise LearningError(
        f"consistency search exhausted its budget ({budget} candidates); "
        "increase the budget or use the PAC learner"
    )
