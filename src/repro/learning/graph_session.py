"""Interactive path-query learning over a graph database.

The paper's geographical scenario end-to-end: "the user has to select two
vertices from the graph ... Our algorithms compute what paths the user
should be asked to label (as positive or negative example) in order to
gather as many information as possible with few interactions."

The session enumerates candidate paths between the chosen endpoints (label
words, shortest first), then repeatedly proposes the most promising
*informative* candidate:

* a word the current hypothesis already accepts is *implied positive*
  (every generalisation of the positives accepts it too) — uninformative;
* a word whose inclusion would force the hypothesis to accept a known
  negative is *implied negative* — uninformative;
* remaining words are ranked by workload priors (then shorter first).

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
from repro.learning.protocol import SessionStats
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
        prefetch: bool = True,
    ) -> None:
        self.graph = graph
        self.goal = goal
        self.priors = priors
        #: Speculate between rounds: after each answer, submit the next
        #: acceptance scan (updated hypothesis over all pending words)
        #: through the backend's prefetch path.
        self.prefetch = prefetch
        # The per-interaction acceptance scan over all pending words runs
        # as one backend batch, consumed sub-shard by sub-shard (same
        # memoised answers, any backend, order-independent
        # flags).  The candidate enumeration is backend-served and cached
        # per (graph, endpoints) — always client-side pool construction,
        # even on a remote backend.
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

    def _implied_negative(self, hypothesis: PathQuery | None, word: Word,
                          negatives: list[Word]) -> bool:
        if hypothesis is None or not negatives:
            return False
        widened = lgg_path(hypothesis, normalize(PathQuery.of_word(word)))
        return self.backend.accepts_any(widened, negatives)

    def _rank(self, words: list[Word]) -> list[Word]:
        if self.priors is not None:
            return [tuple(w) for w in self.priors.rank(words)]
        return sorted(words, key=lambda w: (len(w), w))

    def _informative_flags(self, hypothesis: PathQuery | None,
                           pending: list[Word],
                           negatives: list[Word]) -> list[bool]:
        """Streamed acceptance round: which pending words stay informative?

        Consumes the acceptance batch sub-shard by sub-shard
        (:meth:`~repro.learning.backend.EvaluationBackend.accepts_stream`),
        running each arrived word's implied-negative probe while later
        sub-shards are still being checked.  Flags are position-aligned,
        so the proposal sequence never depends on shard arrival order.
        """
        if hypothesis is None:
            return [True] * len(pending)
        flags = [False] * len(pending)
        for group in self.backend.accepts_stream(hypothesis, pending):
            for position, acc in group:
                flags[position] = not acc and not self._implied_negative(
                    hypothesis, pending[position], negatives)
        return flags

    # ------------------------------------------------------------------
    def run(self, *, max_questions: int | None = None) -> PathSessionResult:
        stats = SessionStats()
        hypothesis: PathQuery | None = None
        negatives: list[Word] = []
        pending = list(self.candidates)
        converged_at: int | None = None

        while True:
            # One acceptance batch per interaction over all pending words,
            # consumed shard-by-shard.
            flags = self._informative_flags(hypothesis, pending, negatives)
            informative = [w for w, flag in zip(pending, flags) if flag]
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
            if self._accepts(self.goal, word):
                positive = normalize(PathQuery.of_word(word))
                hypothesis = positive if hypothesis is None \
                    else lgg_path(hypothesis, positive)
                if (converged_at is None
                        and hypothesis.generalizes(self.goal)
                        and self.goal.generalizes(hypothesis)):
                    converged_at = stats.questions
            else:
                negatives.append(word)
            if self.prefetch and hypothesis is not None and pending:
                # Between rounds: the next acceptance scan asks exactly
                # this batch.
                self.backend.prefetch(Workload.accepts(hypothesis, pending))

        # Final label propagation, streamed over the same sub-shards.
        if hypothesis is not None:
            for group in self.backend.accepts_stream(hypothesis, pending):
                for position, acc in group:
                    if acc:
                        stats.implied_positive += 1
                    elif self._implied_negative(hypothesis,
                                                pending[position],
                                                negatives):
                        stats.implied_negative += 1
        return PathSessionResult(hypothesis, stats, len(self.candidates),
                                 converged_at)
