"""The interactive sessions' recomputing loops, kept as test oracles.

Each class below subclasses a real session and overrides only its loop:
every round re-derives every pending candidate's status in full
(re-widen the hypothesis with the candidate, probe every known
negative; rescan every pending join pair).  Construction, the pool, the
simulated user and the backend are the real session's, so a differential
test can run both loops on one configuration and compare
``SessionStats`` and the learned query exactly.
"""

from __future__ import annotations

from repro.errors import LearningError
from repro.graphdb.pathquery import PathQuery
from repro.learning.backend import Workload, distinct_documents
from repro.learning.graph_session import (
    InteractivePathSession,
    PathSessionResult,
    Word,
)
from repro.learning.interactive import InteractiveJoinSession, JoinSessionResult
from repro.learning.join_learner import PairExample, PairStatus
from repro.learning.path_learner import lgg_path, normalize
from repro.learning.protocol import SessionStats
from repro.learning.xml_session import (
    Candidate,
    InteractiveTwigSession,
    TwigSessionResult,
)
from repro.twig.ast import TwigQuery


class OracleTwigSession(InteractiveTwigSession):
    """:class:`InteractiveTwigSession` re-deriving every round in full."""

    def _implied_negative(self, hypothesis: TwigQuery | None,
                          candidate: Candidate,
                          negatives: list[Candidate]) -> bool:
        if hypothesis is None or not negatives:
            return False
        widened = self._extend(hypothesis, candidate)
        return self.backend.selects_any(widened, negatives)

    def _informative_flags(self, hypothesis: TwigQuery | None,
                           pending: list[Candidate],
                           negatives: list[Candidate]) -> list[bool]:
        selected = self.backend.selects_batch(hypothesis, pending)
        return [not sel and not self._implied_negative(hypothesis, candidate,
                                                       negatives)
                for candidate, sel in zip(pending, selected)]

    def run(self, *, max_questions: int | None = None) -> TwigSessionResult:
        stats = SessionStats()
        hypothesis: TwigQuery | None = None
        negatives: list[Candidate] = []
        pending = list(self.pool)

        while True:
            informative = [
                c for c, flag in zip(pending, self._informative_flags(
                    hypothesis, pending, negatives))
                if flag
            ]
            if not informative:
                break
            if max_questions is not None and stats.questions >= max_questions:
                break
            informative.sort(key=lambda c: (c[0].size(),
                                            len(c[0].path_to_root(c[1]))))
            candidate = informative[0]
            pending.remove(candidate)
            stats.questions += 1
            stats.asked.append(self._descriptor[id(candidate[1])])
            if self.oracle.label(*candidate):
                hypothesis = self._extend(hypothesis, candidate)
            else:
                negatives.append(candidate)
            if hypothesis is not None and pending:
                self.backend.prefetch(
                    Workload.twig(hypothesis, distinct_documents(pending)))

        selected = self.backend.selects_batch(hypothesis, pending)
        for candidate, sel in zip(pending, selected):
            if sel:
                stats.implied_positive += 1
            elif self._implied_negative(hypothesis, candidate, negatives):
                stats.implied_negative += 1

        final = hypothesis
        if final is not None and self.schema is not None:
            from repro.learning.schema_aware import prune_schema_implied

            final = prune_schema_implied(final, self.schema).query
        return TwigSessionResult(final, stats, len(self.pool))


class OraclePathSession(InteractivePathSession):
    """:class:`InteractivePathSession` re-deriving every round in full."""

    def _implied_negative(self, hypothesis: PathQuery | None, word: Word,
                          negatives: list[Word]) -> bool:
        if hypothesis is None or not negatives:
            return False
        widened = lgg_path(hypothesis, normalize(PathQuery.of_word(word)))
        return self.backend.accepts_any(widened, negatives)

    def _informative_flags(self, hypothesis: PathQuery | None,
                           pending: list[Word],
                           negatives: list[Word]) -> list[bool]:
        if hypothesis is None:
            return [True] * len(pending)
        accepted = self.backend.accepts_batch(hypothesis, pending)
        return [not acc and not self._implied_negative(hypothesis, word,
                                                       negatives)
                for word, acc in zip(pending, accepted)]

    def run(self, *, max_questions: int | None = None) -> PathSessionResult:
        stats = SessionStats()
        hypothesis: PathQuery | None = None
        negatives: list[Word] = []
        pending = list(self.candidates)
        converged_at: int | None = None

        while True:
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
            if hypothesis is not None and pending:
                self.backend.prefetch(Workload.accepts(hypothesis, pending))

        if hypothesis is not None:
            accepted = self.backend.accepts_batch(hypothesis, pending)
            for word, acc in zip(pending, accepted):
                if acc:
                    stats.implied_positive += 1
                elif self._implied_negative(hypothesis, word, negatives):
                    stats.implied_negative += 1
        return PathSessionResult(hypothesis, stats, len(self.candidates),
                                 converged_at)


class OracleJoinSession(InteractiveJoinSession):
    """:class:`InteractiveJoinSession` rescanning every pending pair."""

    def run(self, *, max_questions: int | None = None) -> JoinSessionResult:
        stats = SessionStats()
        pending = list(self.pool)
        while True:
            flags = self.backend.map(
                lambda pair: self.space.is_informative(*pair), pending)
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
