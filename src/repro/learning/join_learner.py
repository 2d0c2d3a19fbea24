"""Learning equi-/natural-join predicates from labelled tuple pairs.

Section 3 of the paper: tuples of the cross product of two relations are
labelled positive ("should be in the join result") or negative; the target
is the set θ of attribute pairs defining the join.  The paper proves
consistency checking tractable for (natural) joins — the structure that
makes it so is implemented here:

With ``eq(t)`` the set of universe pairs on which tuple pair ``t`` agrees,

* a hypothesis θ selects ``t``  iff  ``θ ⊆ eq(t)``;
* θ is consistent with the positives  iff  ``θ ⊆ Θ`` where
  ``Θ = ∩_{p positive} eq(p)`` — so **Θ is the most specific hypothesis**;
* consistency with a negative ``n`` means ``θ ⊄ eq(n)``; consistent
  hypotheses are upward-closed below Θ, hence:
  **the examples are consistent  iff  Θ itself avoids every negative** —
  a polynomial-time check (the paper's tractability result);
* an unlabelled ``t`` is **implied positive** iff ``Θ ⊆ eq(t)`` (every
  consistent hypothesis selects it) and **implied negative** iff
  ``Θ ∩ eq(t)`` already selects a known negative (no consistent hypothesis
  can select ``t``) — the "uninformative tuple" propagation driving the
  interactive framework.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.errors import InconsistentExamplesError, LearningError
from repro.relational.predicates import (
    AttributePair,
    JoinPredicate,
    agreement_pairs,
    comparable_pairs,
)
from repro.relational.relation import Relation, Row


@dataclass(frozen=True)
class PairExample:
    """A labelled element of the cross product R x S."""

    left_row: Row
    right_row: Row
    positive: bool


class PairStatus(enum.Enum):
    """Knowledge status of an unlabelled tuple pair."""

    INFORMATIVE = "informative"
    IMPLIED_POSITIVE = "implied-positive"
    IMPLIED_NEGATIVE = "implied-negative"


class JoinVersionSpace:
    """The set of join predicates consistent with the labels seen so far.

    Maintains ``Θ`` (the most specific hypothesis) and the agreement sets
    of negatives; all queries about the space are set algebra on those.
    """

    def __init__(self, left: Relation, right: Relation,
                 universe: Iterable[AttributePair] | None = None,
                 eq_cache=None) -> None:
        self.left = left
        self.right = right
        self.universe: frozenset[AttributePair] = (
            frozenset(universe) if universe is not None
            else comparable_pairs(left, right)
        )
        self.theta_max: frozenset[AttributePair] = self.universe
        self.negative_eqs: list[frozenset[AttributePair]] = []
        self.n_positives = 0
        # Optional engine cache (repro.engine.LRUCache-compatible) for
        # agreement sets: eq() is a pure function of the fixed relations
        # and universe, and interactive strategies re-query the same pairs
        # every round.
        self._eq_cache = eq_cache

    # ------------------------------------------------------------------
    def eq(self, left_row: Row, right_row: Row) -> JoinPredicate:
        if self._eq_cache is None:
            return agreement_pairs(self.left, self.right, left_row,
                                   right_row, self.universe)
        return self._eq_cache.get_or_compute(
            (left_row, right_row),
            lambda: agreement_pairs(self.left, self.right, left_row,
                                    right_row, self.universe))

    def add(self, example: PairExample) -> None:
        self._fold(example, self.eq(example.left_row, example.right_row))

    def _fold(self, example: PairExample,
              agreement: frozenset[AttributePair]) -> None:
        if example.positive:
            self.theta_max = self.theta_max & agreement
            self.n_positives += 1
        else:
            self.negative_eqs.append(agreement)

    def add_many(self, examples: Sequence["PairExample"], *,
                 backend=None) -> None:
        """Fold a batch of examples into the space.

        With an evaluation backend, the agreement-set scan — the only
        per-example work — runs through ``backend.map``; the fold itself
        is order-preserving and identical to repeated :meth:`add` calls.
        """
        examples = list(examples)
        if backend is None:
            for example in examples:
                self.add(example)
            return
        agreements = backend.map(
            lambda e: self.eq(e.left_row, e.right_row), examples)
        for example, agreement in zip(examples, agreements):
            self._fold(example, agreement)

    # ------------------------------------------------------------------
    def is_consistent(self) -> bool:
        """PTIME: the most specific hypothesis must avoid every negative."""
        return all(not self.theta_max <= neg for neg in self.negative_eqs)

    def selects(self, theta: frozenset[AttributePair],
                left_row: Row, right_row: Row) -> bool:
        return theta <= self.eq(left_row, right_row)

    def status(self, left_row: Row, right_row: Row) -> PairStatus:
        agreement = self.eq(left_row, right_row)
        if self.theta_max <= agreement:
            return PairStatus.IMPLIED_POSITIVE
        candidate = self.theta_max & agreement
        if any(candidate <= neg for neg in self.negative_eqs):
            return PairStatus.IMPLIED_NEGATIVE
        return PairStatus.INFORMATIVE

    def is_informative(self, left_row: Row, right_row: Row) -> bool:
        return self.status(left_row, right_row) is PairStatus.INFORMATIVE

    # ------------------------------------------------------------------
    def consistent_hypotheses(self, *, limit: int = 4096,
                              ) -> Iterator[frozenset[AttributePair]]:
        """Enumerate consistent predicates (subsets of Θ avoiding negatives).

        Exponential in ``|Θ|``; the ``limit`` cap keeps strategy code safe.
        Yields larger (more specific) hypotheses first.
        """
        produced = 0
        pairs = sorted(self.theta_max)
        for size in range(len(pairs), -1, -1):
            for combo in itertools.combinations(pairs, size):
                theta = frozenset(combo)
                if all(not theta <= neg for neg in self.negative_eqs):
                    yield theta
                    produced += 1
                    if produced >= limit:
                        return

    def most_specific(self) -> frozenset[AttributePair]:
        return self.theta_max


@dataclass
class JoinLearnResult:
    predicate: frozenset[AttributePair]
    consistent: bool
    n_positive: int
    n_negative: int


def learn_join(left: Relation, right: Relation,
               examples: Sequence[PairExample],
               *, universe: Iterable[AttributePair] | None = None,
               backend=None,
               ) -> JoinLearnResult:
    """Fit the most specific consistent join predicate.

    The per-example agreement scan routes through the evaluation
    ``backend`` when one is supplied (``backend.map``); the fold and the
    result are identical either way.

    Raises :class:`~repro.errors.InconsistentExamplesError` when no
    predicate fits (detected in polynomial time), and
    :class:`~repro.errors.LearningError` on an example set without
    positives (every predicate then fits trivially — nothing to learn).
    """
    positives = [e for e in examples if e.positive]
    if not positives:
        raise LearningError("join learning needs at least one positive pair")
    space = JoinVersionSpace(left, right, universe)
    space.add_many(examples, backend=backend)
    if not space.is_consistent():
        raise InconsistentExamplesError(
            "no equi-join predicate selects all positive pairs and no "
            "negative pair"
        )
    return JoinLearnResult(space.most_specific(), True,
                           len(positives), len(examples) - len(positives))


def check_join_consistency(left: Relation, right: Relation,
                           examples: Sequence[PairExample],
                           *, universe: Iterable[AttributePair] | None = None,
                           backend=None,
                           ) -> bool:
    """The paper's PTIME consistency test for join examples."""
    space = JoinVersionSpace(left, right, universe)
    space.add_many(examples, backend=backend)
    return space.is_consistent()
