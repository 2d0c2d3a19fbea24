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
from repro.learning.backend import (
    EvaluationBackend,
    LRUCache,
    as_backend,
)
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
        def key(pair: Pair) -> tuple[int, str]:
            agreement = space.eq(*pair) & space.theta_max
            return (-len(agreement), repr(pair))

        return min(informative, key=key)


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

        def imbalance(pair: Pair) -> tuple[int, str]:
            agreement = space.eq(*pair)
            selecting = sum(1 for h in hypotheses if h <= agreement)
            return (abs(2 * selecting - total), repr(pair))

        return min(informative, key=imbalance)


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
        # The per-interaction informativeness scan over the pending pool
        # runs through the evaluation backend, consumed chunk-by-chunk as
        # chunks complete; flags are reassembled by position, so the
        # proposal sequence is identical under any backend.
        self.backend = as_backend(backend)
        r = make_rng(rng)
        pool = [(lrow, rrow) for lrow in left for rrow in right]
        pool.sort(key=repr)
        if max_pool is not None and len(pool) > max_pool:
            pool = r.sample(pool, max_pool)
        self.pool = pool
        # Agreement sets are pure in (left_row, right_row) and re-queried
        # for every pending pair on every round — serve them from an
        # engine cache sized to the pool's pair universe.
        self.space = JoinVersionSpace(
            left, right, eq_cache=LRUCache(max(4 * len(pool), 1024)))

    def _answer(self, pair: Pair) -> bool:
        lrow, rrow = pair
        return predicate_selects(self.left, self.right, lrow, rrow, self.goal)

    def run(self, *, max_questions: int | None = None) -> JoinSessionResult:
        """Ask until every pool pair is labelled or uninformative."""
        stats = SessionStats()
        pending = list(self.pool)
        while True:
            # Streamed scan: chunks of the pending pool surface as they
            # complete, and the informative list is rebuilt in pool order.
            flags = [False] * len(pending)
            for group in self.backend.map_stream(
                    lambda pair: self.space.is_informative(*pair), pending):
                for position, flag in group:
                    flags[position] = flag
            informative = [p for p, flag in zip(pending, flags) if flag]
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
        for pair in pending:
            status = self.space.status(*pair)
            if status is PairStatus.IMPLIED_POSITIVE:
                stats.implied_positive += 1
            elif status is PairStatus.IMPLIED_NEGATIVE:
                stats.implied_negative += 1
        return JoinSessionResult(self.space.most_specific(), stats,
                                 len(self.pool))
