"""The interactive learning framework of Section 3.

"We propose an interactive framework where our learning algorithms choose
tuples and then ask the user to label them as positive or negative
examples.  After each label given by the user, our algorithms infer the
tuples which become uninformative w.r.t. the previously labeled tuples.
The interactive process stops when all the tuples in the instance either
have a label explicitly given by the user, or they have become
uninformative.  [...]  The goal is to minimize the number of interactions
with the user."

:class:`InteractiveJoinSession` implements exactly that loop over the
cross product of two relations, parameterised by a *proposal strategy*:

* :class:`RandomStrategy` — baseline: any informative pair;
* :class:`LatticeStrategy` — descend the subset lattice below Θ: propose
  the pair whose agreement-with-Θ is a maximal proper subset of Θ (a
  positive answer shrinks Θ maximally slowly, a negative answer kills the
  largest candidate — either answer splits the hypothesis space high up);
* :class:`HalvingStrategy` — version-space halving: propose the pair whose
  answer splits the set of consistent hypotheses most evenly (exponential
  in |Θ|, capped; the quality ceiling the cheap strategies chase).

The oracle is a hidden goal predicate; sessions report the question count
and how many labels were propagated for free — the paper's interaction-
minimisation metric (and its crowdsourcing cost in the HIT reading).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import LearningError
from repro.learning.backend import EvaluationBackend, as_backend
from repro.learning.join_learner import (
    JoinVersionSpace,
    PairExample,
    PairStatus,
)
from repro.learning.protocol import SessionStats
from repro.relational.predicates import AttributePair, predicate_selects
from repro.relational.relation import Relation, Row
from repro.util.rng import RngLike, make_rng


Pair = tuple[Row, Row]


class ProposalStrategy:
    """Chooses which informative pair to ask about next."""

    name = "abstract"

    def choose(self, space: JoinVersionSpace,
               informative: list[Pair]) -> Pair:
        raise NotImplementedError


class RandomStrategy(ProposalStrategy):
    """Uniform baseline."""

    name = "random"

    def __init__(self, rng: RngLike = None) -> None:
        self.rng = make_rng(rng)

    def choose(self, space: JoinVersionSpace,
               informative: list[Pair]) -> Pair:
        return self.rng.choice(informative)


class LatticeStrategy(ProposalStrategy):
    """Maximal proper subset of Θ first (top-down lattice descent)."""

    name = "lattice"

    def choose(self, space: JoinVersionSpace,
               informative: list[Pair]) -> Pair:
        return _least(informative,
                      [-space.theta_overlap(*pair) for pair in informative])


class HalvingStrategy(ProposalStrategy):
    """Split the consistent-hypothesis set as evenly as possible.

    Enumerates consistent hypotheses up to ``cap`` (exponential in |Θ|);
    beyond the cap it degrades to the lattice heuristic.
    """

    name = "halving"

    def __init__(self, cap: int = 2048) -> None:
        self.cap = cap
        self._fallback = LatticeStrategy()

    def choose(self, space: JoinVersionSpace,
               informative: list[Pair]) -> Pair:
        hypotheses = list(itertools.islice(
            space.consistent_hypotheses(limit=self.cap + 1), self.cap + 1))
        if len(hypotheses) > self.cap:
            return self._fallback.choose(space, informative)
        total = len(hypotheses)
        imbalances = []
        for pair in informative:
            agreement = space.eq(*pair)
            selecting = sum(1 for h in hypotheses if h <= agreement)
            imbalances.append(abs(2 * selecting - total))
        return _least(informative, imbalances)


def _least(pairs: list[Pair], scores: list[int]) -> Pair:
    """The pair of least score, ties broken by the least ``repr``.

    Picks what ``min`` keyed on ``(score, repr(pair))`` picks, but builds
    a ``repr`` only for the pairs tied at the least score.
    """
    best = min(scores)
    return min((pair for pair, score in zip(pairs, scores) if score == best),
               key=repr)


@dataclass
class JoinSessionResult:
    predicate: frozenset[AttributePair]
    stats: SessionStats
    pool_size: int

    @property
    def interaction_rate(self) -> float:
        """Fraction of the pool the user actually had to label."""
        if self.pool_size == 0:
            return 0.0
        return self.stats.questions / self.pool_size


class InteractiveJoinSession:
    """One interactive join-learning session against a hidden goal."""

    def __init__(
        self,
        left: Relation,
        right: Relation,
        goal: frozenset[AttributePair],
        *,
        strategy: ProposalStrategy | None = None,
        max_pool: int | None = None,
        rng: RngLike = None,
        backend: EvaluationBackend | None = None,
    ) -> None:
        self.left = left
        self.right = right
        self.goal = goal
        self.strategy = strategy or LatticeStrategy()
        # The per-interaction informativeness scan runs through the
        # evaluation backend's order-preserving map, so the proposal
        # sequence is identical under any backend.  It covers only the
        # pairs still informative after the previous round: a pair's
        # status never leaves IMPLIED_POSITIVE or IMPLIED_NEGATIVE (Θ only
        # shrinks and the negatives only grow), so a settled pair leaves
        # the scan for good.
        self.backend = as_backend(backend)
        r = make_rng(rng)
        pool = [(lrow, rrow) for lrow in left for rrow in right]
        pool.sort(key=repr)
        if max_pool is not None and len(pool) > max_pool:
            pool = r.sample(pool, max(max_pool, 0))
        if not pool:
            raise LearningError("empty candidate pool")
        self.pool = pool
        self.space = JoinVersionSpace(left, right)

    def _answer(self, pair: Pair) -> bool:
        lrow, rrow = pair
        return predicate_selects(self.left, self.right, lrow, rrow, self.goal)

    def run(self, *, max_questions: int | None = None) -> JoinSessionResult:
        """Ask until every pool pair is labelled or uninformative."""
        stats = SessionStats()
        pending = list(self.pool)
        # The pairs not yet settled, in pool order.
        informative = pending
        while True:
            # One scan over the unsettled pairs, flags in pool order.
            flags = self.backend.map(
                lambda pair: self.space.is_informative(*pair), informative)
            informative = [p for p, flag in zip(informative, flags) if flag]
            if not informative:
                break
            if max_questions is not None and stats.questions >= max_questions:
                raise LearningError(
                    f"session exceeded max_questions={max_questions}"
                )
            pair = self.strategy.choose(self.space, informative)
            answer = self._answer(pair)
            stats.questions += 1
            stats.asked.append(repr(pair))
            self.space.add(PairExample(pair[0], pair[1], answer))
            pending.remove(pair)
            informative.remove(pair)
        # Final propagation over every unasked pair, settled ones included.
        for pair in pending:
            status = self.space.status(*pair)
            if status is PairStatus.IMPLIED_POSITIVE:
                stats.implied_positive += 1
            elif status is PairStatus.IMPLIED_NEGATIVE:
                stats.implied_negative += 1
        return JoinSessionResult(self.space.most_specific(), stats,
                                 len(self.pool))
