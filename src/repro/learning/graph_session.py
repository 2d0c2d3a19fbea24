"""Interactive path-query learning over a graph database.

The paper's geographical scenario end-to-end: "the user has to select two
vertices from the graph ... Our algorithms compute what paths the user
should be asked to label (as positive or negative example) in order to
gather as many information as possible with few interactions."

The session enumerates candidate paths between the chosen endpoints (label
words, shortest first), then repeatedly proposes the most promising
informative word, ranked by workload priors (then shorter first).  Which
words are informative — neither accepted by the hypothesis (implied
positive) nor forcing it to accept a known negative (implied negative) —
is decided by the per-run
:class:`~repro.learning.protocol.InformativenessLedger`, which also holds
the hypothesis and the negatives.

The loop stops when no informative candidate remains; the metric is the
number of questions, with/without priors (experiment E8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LearningError
from repro.graphdb.graph import Graph, VertexId
from repro.graphdb.pathquery import PathQuery
from repro.learning.backend import EvaluationBackend, Workload, as_backend
from repro.learning.path_learner import lgg_path, normalize
from repro.learning.protocol import InformativenessLedger, SessionStats
from repro.learning.workload import WorkloadPriors


Word = tuple[str, ...]


@dataclass
class PathSessionResult:
    query: PathQuery | None
    stats: SessionStats
    candidates: int
    questions_to_convergence: int | None = None
    """Questions asked when the hypothesis first became equivalent to the
    goal (None if it never did on this instance)."""

    @property
    def questions(self) -> int:
        return self.stats.questions


class InteractivePathSession:
    """One interactive session against a hidden goal path query."""

    def __init__(
        self,
        graph: Graph,
        source: VertexId,
        target: VertexId,
        goal: PathQuery,
        *,
        priors: WorkloadPriors | None = None,
        max_length: int = 8,
        max_candidates: int = 200,
        backend: EvaluationBackend | None = None,
    ) -> None:
        self.graph = graph
        self.goal = goal
        self.priors = priors
        # The candidate enumeration is backend-served and cached per
        # (graph, endpoints) — always client-side pool construction, even
        # on a remote backend — and it explores only the partial paths
        # that can still reach the target within ``max_length`` edges.
        self.backend = as_backend(backend)
        self.candidates = self.backend.words_between(
            graph, source, target, max_length=max_length,
            limit=max_candidates)
        if not self.candidates:
            raise LearningError(
                f"no paths between {source!r} and {target!r} within "
                f"length {max_length}"
            )

    # ------------------------------------------------------------------
    def _accepts(self, query: PathQuery, word: Word) -> bool:
        return self.backend.accepts(query, word)

    def _widen(self, hypothesis: PathQuery | None, word: Word) -> PathQuery:
        positive = normalize(PathQuery.of_word(word))
        if hypothesis is None:
            return positive
        return lgg_path(hypothesis, positive)

    def _rank(self, words: list[Word]) -> list[Word]:
        if self.priors is not None:
            return [tuple(w) for w in self.priors.rank(words)]
        return sorted(words, key=lambda w: (len(w), w))

    # ------------------------------------------------------------------
    def run(self, *, max_questions: int | None = None) -> PathSessionResult:
        stats = SessionStats()
        pending = list(self.candidates)
        converged_at: int | None = None
        ledger = InformativenessLedger(self._widen, self.backend.accepts_any,
                                       self.backend.accepts_batch)

        while True:
            informative = ledger.informative(pending)
            if not informative:
                break
            if max_questions is not None and stats.questions >= max_questions:
                raise LearningError(
                    f"session exceeded max_questions={max_questions}"
                )
            word = self._rank(informative)[0]
            pending.remove(word)
            stats.questions += 1
            stats.asked.append(word)
            positive = self._accepts(self.goal, word)
            ledger.learn(word, positive)
            hypothesis = ledger.hypothesis
            if (positive and converged_at is None
                    and hypothesis.generalizes(self.goal)
                    and self.goal.generalizes(hypothesis)):
                converged_at = stats.questions
            if hypothesis is not None and pending:
                # Between rounds: the next acceptance scan asks exactly
                # this batch.
                self.backend.prefetch(Workload.accepts(hypothesis, pending))

        ledger.count_implied(pending, stats)
        return PathSessionResult(ledger.hypothesis, stats,
                                 len(self.candidates), converged_at)
