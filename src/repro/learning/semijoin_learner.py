"""Learning semijoin predicates — the intractable sibling of join learning.

Section 3: consistency of examples "is intractable in the context of
semijoins".  The examples here are labelled *left* tuples: a positive
``r`` must have **some** witness ``s`` in the right relation with
``θ ⊆ eq(r, s)``; a negative must have none.  The existential witness is
what breaks the join learner's intersection trick — each positive offers a
*choice* of witness agreement sets, and consistency becomes a joint choice
problem (NP-complete; intersections of chosen witnesses must dodge every
negative's witnesses).

Two solvers, matching the paper's plan:

* :func:`check_semijoin_consistency` — exact branch-and-bound over one
  witness per positive.  Worst-case exponential in the number of
  positives; the E6 benchmark measures the blow-up against the join
  learner's polynomial check.
* :func:`greedy_semijoin` — the paper's polynomial fallback ("some of the
  annotations might be ignored to be able to compute in polynomial time a
  candidate query"): positives are folded greedily and dropped when no
  witness keeps the hypothesis consistent; the dropped count is reported.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.errors import InconsistentExamplesError, LearningError
from repro.relational.predicates import (
    AttributePair,
    agreement_pairs,
    comparable_pairs,
)
from repro.relational.relation import Relation, Row


@dataclass(frozen=True)
class LeftExample:
    """A labelled left-relation tuple."""

    row: Row
    positive: bool


def witness_sets(left: Relation, right: Relation, row: Row,
                 universe: frozenset[AttributePair],
                 ) -> list[frozenset[AttributePair]]:
    """The agreement sets ``eq(row, s)`` over all right tuples ``s``.

    Deduplicated and pruned: a witness set contained in another offers
    strictly fewer hypotheses, so only maximal sets matter for positives.
    """
    seen: set[frozenset[AttributePair]] = set()
    for rrow in right:
        seen.add(agreement_pairs(left, right, row, rrow, universe))
    maximal = [w for w in seen
               if not any(w < other for other in seen)]
    return sorted(maximal, key=sorted)


def _selects(theta: frozenset[AttributePair],
             witnesses: Iterable[frozenset[AttributePair]]) -> bool:
    return any(theta <= w for w in witnesses)


def _witness_scanner(left: Relation, right: Relation,
                     universe: frozenset[AttributePair], backend):
    """Batch :func:`witness_sets` over rows, backend-mapped when possible."""

    def scan(rows: Sequence[Row]) -> list[list[frozenset[AttributePair]]]:
        if backend is None:
            return [witness_sets(left, right, row, universe) for row in rows]
        return backend.map(
            lambda row: witness_sets(left, right, row, universe), rows)

    return scan


@dataclass
class SemijoinSearchResult:
    consistent: bool | None
    predicate: frozenset[AttributePair] | None
    nodes_explored: int
    budget_exhausted: bool = False


@dataclass
class GreedyResult:
    predicate: frozenset[AttributePair]
    ignored_positives: list[Row] = field(default_factory=list)

    @property
    def n_ignored(self) -> int:
        return len(self.ignored_positives)


def check_semijoin_consistency(
    left: Relation,
    right: Relation,
    examples: Sequence[LeftExample],
    *,
    universe: Iterable[AttributePair] | None = None,
    budget: int = 1_000_000,
    backend=None,
) -> SemijoinSearchResult:
    """Exact consistency via branch-and-bound over witness choices.

    Branches on the positive with the fewest witnesses first; a branch dies
    as soon as the running intersection already selects some negative
    (intersections only shrink, and ``θ ⊆ w_neg`` stays true under
    shrinking).  ``budget`` caps explored nodes; hitting it yields
    ``consistent=None``.

    The per-row witness-set scans (one pass over the right relation per
    example row — the expensive prep ahead of the search) route through
    the evaluation ``backend`` when one is supplied.
    """
    uni = frozenset(universe) if universe is not None \
        else comparable_pairs(left, right)
    positives = [e.row for e in examples if e.positive]
    negatives = [e.row for e in examples if not e.positive]

    scan = _witness_scanner(left, right, uni, backend)
    neg_witnesses = scan(negatives)

    def violates(theta: frozenset[AttributePair]) -> bool:
        return any(_selects(theta, ws) for ws in neg_witnesses)

    if not positives:
        # Any sufficiently restrictive predicate works unless a negative
        # has a witness matching even the full universe... which `violates`
        # on the universe decides directly.
        ok = not violates(uni)
        return SemijoinSearchResult(ok, uni if ok else None, 1)

    pos_witnesses = scan(positives)
    if any(not ws for ws in pos_witnesses):
        # An empty right relation offers no witness at all.
        return SemijoinSearchResult(False, None, 1)
    order = sorted(range(len(positives)), key=lambda i: len(pos_witnesses[i]))

    search = _WitnessSearch([pos_witnesses[i] for i in order], violates,
                            budget)
    witness = search.run(0, uni)
    explored = search.explored
    if witness is not None:
        return SemijoinSearchResult(True, witness, explored)
    if explored >= budget:
        return SemijoinSearchResult(None, None, explored,
                                    budget_exhausted=True)
    return SemijoinSearchResult(False, None, explored)


@dataclass(slots=True)
class _WitnessSearch:
    """The branch-and-bound of :func:`check_semijoin_consistency`: one
    witness per positive, in order, counting the nodes it explores.  An
    object, not a recursive closure, so no reference cycle is left."""

    choices: list[list[frozenset[AttributePair]]]
    violates: Callable[[frozenset[AttributePair]], bool]
    budget: int
    explored: int = 0

    def run(self, idx: int, theta: frozenset[AttributePair],
            ) -> frozenset[AttributePair] | None:
        if self.explored >= self.budget:
            return None
        self.explored += 1
        if self.violates(theta):
            return None
        if idx == len(self.choices):
            return theta
        for witness in self.choices[idx]:
            found = self.run(idx + 1, theta & witness)
            if found is not None:
                return found
            if self.explored >= self.budget:
                return None
        return None


def learn_semijoin(
    left: Relation,
    right: Relation,
    examples: Sequence[LeftExample],
    *,
    universe: Iterable[AttributePair] | None = None,
    budget: int = 1_000_000,
    backend=None,
) -> frozenset[AttributePair]:
    """Exact learning; raises on inconsistency or exhausted budget."""
    result = check_semijoin_consistency(left, right, examples,
                                        universe=universe, budget=budget,
                                        backend=backend)
    if result.consistent:
        assert result.predicate is not None
        return result.predicate
    if result.consistent is False:
        raise InconsistentExamplesError(
            "no semijoin predicate is consistent with the examples"
        )
    raise LearningError(
        f"semijoin search exhausted its budget ({budget} nodes); "
        "use greedy_semijoin for the polynomial approximation"
    )


def greedy_semijoin(
    left: Relation,
    right: Relation,
    examples: Sequence[LeftExample],
    *,
    universe: Iterable[AttributePair] | None = None,
    backend=None,
) -> GreedyResult:
    """Polynomial approximate learning (the paper's 'ignore annotations').

    Folds positives in input order; for each, picks the witness whose
    intersection with the running hypothesis stays consistent with all
    negatives and keeps the hypothesis as specific as possible.  A positive
    with no such witness is *ignored* and reported.  Witness scans route
    through the evaluation ``backend`` when one is supplied; the greedy
    fold itself is order-dependent by design and unchanged.
    """
    uni = frozenset(universe) if universe is not None \
        else comparable_pairs(left, right)
    scan = _witness_scanner(left, right, uni, backend)
    negatives = [e.row for e in examples if not e.positive]
    neg_witnesses = scan(negatives)
    positives = [e.row for e in examples if e.positive]
    pos_witnesses = dict(zip(map(id, positives), scan(positives)))

    def violates(theta: frozenset[AttributePair]) -> bool:
        return any(_selects(theta, ws) for ws in neg_witnesses)

    theta = uni
    ignored: list[Row] = []
    for row in positives:
        options = []
        for witness in pos_witnesses[id(row)]:
            candidate = theta & witness
            if not violates(candidate):
                options.append(candidate)
        if options:
            theta = max(options, key=len)
        else:
            ignored.append(row)
    return GreedyResult(theta, ignored)
