"""Crowdsourcing cost accounting for interactive sessions.

Section 3: "Such an interaction is called Human Intelligence Task (HIT) in
terms of crowdsourcing marketplaces and involves an employer who pays a
certain amount of money to workers to solve it.  A consequence is that for
the crowdsourcing applications, minimizing the number of interactions with
the user is equivalent to minimizing the financial cost of the process."

:class:`CrowdBudget` converts a session's interaction statistics into that
financial reading (cost per HIT, optional redundancy factor for majority
voting — standard crowdsourcing practice), and prices the savings from the
uninformative-label propagation.

:func:`crowd_learn_twig` is the crowd loop itself: one interactive twig
session driven end-to-end through a pluggable
:class:`~repro.learning.backend.EvaluationBackend` — the deployment shape
crowdsourced query learning assumes, where the workers answer HITs but the
candidate re-evaluation runs on a serving tier (local, or a remote TCP
server or fleet; the learned query, the question sequence, and the HIT
bill are identical on all of them).
"""

from __future__ import annotations

import typing
from collections.abc import Sequence
from dataclasses import dataclass

from repro.learning.protocol import SessionStats

if typing.TYPE_CHECKING:
    from repro.learning.backend import EvaluationBackend
    from repro.twig.ast import TwigQuery
    from repro.xmltree.tree import XTree


@dataclass(frozen=True)
class CrowdBudget:
    """Marketplace pricing: dollars per HIT, workers per question."""

    cost_per_hit: float = 0.05
    redundancy: int = 1

    def __post_init__(self) -> None:
        if self.cost_per_hit < 0:
            raise ValueError("cost_per_hit must be non-negative")
        if self.redundancy < 1:
            raise ValueError("redundancy must be >= 1 worker per question")

    def cost_of(self, stats: SessionStats) -> float:
        """Money spent on the questions actually asked."""
        return stats.questions * self.redundancy * self.cost_per_hit

    def saved_by_propagation(self, stats: SessionStats) -> float:
        """Money *not* spent thanks to implied labels."""
        return stats.labels_saved * self.redundancy * self.cost_per_hit

    def full_labelling_cost(self, pool_size: int) -> float:
        """What labelling the whole pool naively would have cost."""
        return pool_size * self.redundancy * self.cost_per_hit


@dataclass
class CostedSession:
    """A session result annotated with its marketplace economics."""

    stats: SessionStats
    pool_size: int
    budget: CrowdBudget

    @property
    def spent(self) -> float:
        return self.budget.cost_of(self.stats)

    @property
    def saved(self) -> float:
        return self.budget.saved_by_propagation(self.stats)

    @property
    def naive_cost(self) -> float:
        return self.budget.full_labelling_cost(self.pool_size)

    @property
    def savings_percent(self) -> float:
        if self.naive_cost == 0:
            return 0.0
        return 100.0 * (1 - self.spent / self.naive_cost)

    def report(self) -> str:
        return (
            f"asked {self.stats.questions} questions for "
            f"${self.spent:.2f}; naive labelling of {self.pool_size} "
            f"items would cost ${self.naive_cost:.2f} "
            f"({self.savings_percent:.0f}% saved)"
        )


@dataclass
class CrowdLearnResult:
    """The crowd loop's outcome: the learned query plus its economics."""

    query: "TwigQuery | None"
    costed: CostedSession

    @property
    def stats(self) -> SessionStats:
        return self.costed.stats

    def report(self) -> str:
        return self.costed.report()


def crowd_learn_twig(
    documents: Sequence["XTree"],
    goal: "TwigQuery",
    *,
    budget: CrowdBudget | None = None,
    backend: "EvaluationBackend | None" = None,
    label_filter: str | None = None,
    schema=None,
    max_pool: int | None = 300,
    max_questions: int | None = None,
) -> CrowdLearnResult:
    """Run one crowd-priced interactive twig session on any backend.

    The interactive session proposes HITs, the (simulated) crowd answers
    them, and every candidate re-evaluation crosses the evaluation
    backend — so the same loop runs against a local engine or a remote
    serving tier, producing the same questions and the same bill.
    """
    from repro.learning.xml_session import InteractiveTwigSession

    session = InteractiveTwigSession(
        documents, goal, label_filter=label_filter, schema=schema,
        max_pool=max_pool, backend=backend)
    result = session.run(max_questions=max_questions)
    costed = CostedSession(result.stats, result.pool_size,
                           budget if budget is not None else CrowdBudget())
    return CrowdLearnResult(result.query, costed)
