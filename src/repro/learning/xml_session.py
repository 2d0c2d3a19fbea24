"""Interactive twig-query learning — the paper's "practical system".

Section 2 closes with: "We also want to develop a practical system able to
learn twig queries from interaction with the user."  This module is that
system, mirroring the interactive protocol of the relational and graph
sessions:

* the pool is a corpus of documents' nodes (optionally restricted by
  label, as a UI would);
* after each answer the session propagates *implied* labels — a node the
  current least-general hypothesis selects is implied positive (every
  consistent generalisation selects it too), and a node whose addition as
  a positive would force the hypothesis to select a known negative is
  implied negative;
* remaining informative nodes are proposed smallest-document first (cheap
  for the user to inspect), until none remain or the question budget runs
  out.

The learned query is the schema-aware-pruned hypothesis when a schema is
supplied.

The per-interaction re-evaluation — classify every pending candidate
against the current hypothesis — runs through the session's
:class:`~repro.learning.backend.EvaluationBackend` as one batch per round
(the hypothesis is evaluated once per distinct document, not once per
candidate), consumed *shard-by-shard*: as each document's answer set
arrives, that document's candidates are classified and their
implied-negative probes run immediately, overlapping with the evaluation
of the rest of the corpus instead of waiting on the whole batch.  The
informative set (and with it every question asked) is assembled in pool
order regardless of shard arrival order, so the session accepts any
backend — local, a remote server, or a fleet behind its router —
without changing a single question (``SessionStats.asked`` records the
sequence so the invariance suites can assert exactly that).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import LearningError
from repro.learning.backend import (
    EvaluationBackend,
    Workload,
    as_backend,
    distinct_documents,
)
from repro.learning.protocol import SessionStats, TwigOracle
from repro.twig.anchored import anchor_repair
from repro.twig.ast import TwigQuery
from repro.twig.normalize import minimize
from repro.twig.product import product
from repro.xmltree.tree import XNode, XTree

Candidate = tuple[XTree, XNode]


@dataclass
class TwigSessionResult:
    query: TwigQuery | None
    stats: SessionStats
    pool_size: int


class InteractiveTwigSession:
    """One interactive session against a hidden goal twig query."""

    def __init__(
        self,
        documents: Sequence[XTree],
        goal: TwigQuery,
        *,
        label_filter: str | None = None,
        schema=None,
        max_pool: int | None = 300,
        practical: bool = True,
        backend: EvaluationBackend | None = None,
        prefetch: bool = True,
    ) -> None:
        if not documents:
            raise LearningError("the session needs at least one document")
        self.documents = list(documents)
        self.oracle = TwigOracle(goal)
        self.schema = schema
        self.practical = practical
        self.backend = as_backend(backend)
        #: Speculate between rounds: after each answer, submit the next
        #: round's classification batch (the updated hypothesis over the
        #: pending candidates' documents) through the backend's prefetch
        #: path, so the round the user triggers is served from parked
        #: answers (or, remotely, the server's warm caches).
        self.prefetch = prefetch
        pool: list[Candidate] = []
        # Stable question descriptors for SessionStats.asked: the node's
        # (document position, pre-order position), identical across
        # backends and processes.  Only pool-eligible nodes
        # are ever asked about, so only they get a descriptor.
        self._descriptor: dict[int, tuple[int, int]] = {}
        for d, doc in enumerate(self.documents):
            for p, n in enumerate(doc.nodes()):
                if label_filter is None or n.label == label_filter:
                    self._descriptor[id(n)] = (d, p)
                    pool.append((doc, n))
        if max_pool is not None:
            pool = pool[:max_pool]
        if not pool:
            raise LearningError("empty candidate pool (label filter?)")
        self.pool = pool

    # ------------------------------------------------------------------
    def _extend(self, hypothesis: TwigQuery | None,
                candidate: Candidate) -> TwigQuery:
        # The backend caches the canonical query per (document, node); the
        # session widens a hypothesis with the same candidates repeatedly
        # while probing implied negatives.
        tree, node = candidate
        canonical = self.backend.canonical_query(tree, node)
        if hypothesis is None:
            merged = canonical
        else:
            merged = product(hypothesis, canonical, practical=self.practical)
        repaired, _ = anchor_repair(merged)
        return minimize(repaired)

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
        """Streamed classification round: which pending candidates remain
        informative under the current hypothesis?

        Consumes the selection batch document-by-document
        (:meth:`~repro.learning.backend.EvaluationBackend.selects_stream`):
        the implied-negative probes for one document's candidates run
        while the other documents' shards are still evaluating.  Flags
        are position-aligned, so the result — and every question derived
        from it — is independent of shard completion order.
        """
        flags = [False] * len(pending)
        for group in self.backend.selects_stream(hypothesis, pending):
            for position, sel in group:
                flags[position] = not sel and not self._implied_negative(
                    hypothesis, pending[position], negatives)
        return flags

    # ------------------------------------------------------------------
    def run(self, *, max_questions: int | None = None) -> TwigSessionResult:
        stats = SessionStats()
        hypothesis: TwigQuery | None = None
        negatives: list[Candidate] = []
        pending = list(self.pool)

        while True:
            # One batch per interaction: the hypothesis is evaluated once
            # per distinct document, then every pending candidate is
            # classified against the answer sets, shard by shard.
            informative = [
                c for c, flag in zip(pending, self._informative_flags(
                    hypothesis, pending, negatives))
                if flag
            ]
            if not informative:
                break
            if max_questions is not None and stats.questions >= max_questions:
                break
            # Cheapest-to-inspect first: smaller documents, shallower nodes.
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
            if self.prefetch and hypothesis is not None and pending:
                # Between rounds: the next classification round asks for
                # exactly this batch.
                self.backend.prefetch(
                    Workload.twig(hypothesis, distinct_documents(pending)))

        # Final label propagation, shard-streamed the same way.
        for group in self.backend.selects_stream(hypothesis, pending):
            for position, sel in group:
                if sel:
                    stats.implied_positive += 1
                elif self._implied_negative(hypothesis, pending[position],
                                            negatives):
                    stats.implied_negative += 1

        final = hypothesis
        if final is not None and self.schema is not None:
            from repro.learning.schema_aware import prune_schema_implied

            final = prune_schema_implied(final, self.schema).query
        return TwigSessionResult(final, stats, len(self.pool))
