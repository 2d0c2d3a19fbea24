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

:class:`JoinVersionSpace` runs this set algebra on ``int`` bitmasks over
its fixed universe (one bit per attribute pair): ``θ ⊆ eq(t)`` is
``theta & ~eq == 0``.  Its frozenset attributes are views of the masks.
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
    of negatives; all queries about the space are set algebra on those,
    run on ``int`` masks over the universe, numbered once in sorted order.
    Each tuple pair's mask is memoised per space, read straight off the
    two rows: it is a pure function of the fixed relations and universe,
    and an interactive session re-reads every pending pair's mask every
    round.  ``theta_max``, ``negative_eqs`` and :meth:`eq` give the same
    sets as frozensets; :meth:`eq` memoises its own, which only the
    labelled pairs need.
    """

    def __init__(self, left: Relation, right: Relation,
                 universe: Iterable[AttributePair] | None = None) -> None:
        self.left = left
        self.right = right
        self.universe: frozenset[AttributePair] = (
            frozenset(universe) if universe is not None
            else comparable_pairs(left, right)
        )
        self._pairs = sorted(self.universe)
        self._bits = {pair: 1 << i for i, pair in enumerate(self._pairs)}
        # (bit, left column, right column) per universe pair; an unknown
        # attribute raises RelationalError here.
        self._columns = [
            (self._bits[a, b], left.schema.position(a),
             right.schema.position(b))
            for a, b in self._pairs]
        self._theta = (1 << len(self._pairs)) - 1
        self._negatives: list[int] = []
        self.n_positives = 0
        self._masks: dict[tuple[Row, Row], int] = {}
        self._eqs: dict[tuple[Row, Row], JoinPredicate] = {}

    # ------------------------------------------------------------------
    def _pairs_of(self, mask: int) -> frozenset[AttributePair]:
        return frozenset(pair for i, pair in enumerate(self._pairs)
                         if mask >> i & 1)

    def _mask(self, left_row: Row, right_row: Row) -> int:
        mask = self._masks.get((left_row, right_row))
        if mask is None:
            mask = 0
            for bit, i, j in self._columns:
                if left_row[i] == right_row[j]:
                    mask |= bit
            self._masks[left_row, right_row] = mask
        return mask

    @property
    def theta_max(self) -> frozenset[AttributePair]:
        return self._pairs_of(self._theta)

    @property
    def negative_eqs(self) -> list[frozenset[AttributePair]]:
        return [self._pairs_of(n) for n in self._negatives]

    def eq(self, left_row: Row, right_row: Row) -> JoinPredicate:
        agreement = self._eqs.get((left_row, right_row))
        if agreement is None:
            agreement = self._eqs[left_row, right_row] = agreement_pairs(
                self.left, self.right, left_row, right_row, self.universe)
        return agreement

    def add(self, example: PairExample) -> None:
        self._fold(example, self.eq(example.left_row, example.right_row))

    def _fold(self, example: PairExample,
              agreement: frozenset[AttributePair]) -> None:
        mask = 0
        for pair in agreement:
            mask |= self._bits[pair]
        if example.positive:
            self._theta &= mask
            self.n_positives += 1
        else:
            self._negatives.append(mask)

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
        return all(self._theta & ~neg for neg in self._negatives)

    def selects(self, theta: frozenset[AttributePair],
                left_row: Row, right_row: Row) -> bool:
        return theta <= self.eq(left_row, right_row)

    def theta_overlap(self, left_row: Row, right_row: Row) -> int:
        """``|eq(t) ∩ Θ|``: how many pairs of Θ the two rows agree on."""
        return (self._mask(left_row, right_row) & self._theta).bit_count()

    def status(self, left_row: Row, right_row: Row) -> PairStatus:
        agreement = self._mask(left_row, right_row)
        if not self._theta & ~agreement:
            return PairStatus.IMPLIED_POSITIVE
        candidate = self._theta & agreement
        for neg in self._negatives:
            if not candidate & ~neg:
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
        bits = [(1 << i, pair) for i, pair in enumerate(self._pairs)
                if self._theta >> i & 1]
        for size in range(len(bits), -1, -1):
            for combo in itertools.combinations(bits, size):
                theta = sum(bit for bit, _ in combo)
                if all(theta & ~neg for neg in self._negatives):
                    yield frozenset(pair for _, pair in combo)
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
