"""Interactive twig-query learning — the paper's "practical system".

Section 2 closes with: "We also want to develop a practical system able to
learn twig queries from interaction with the user."  This module is that
system.  The pool is a corpus of documents' nodes (optionally restricted
by label, as a UI would); informative nodes are proposed smallest-document
first (cheap for the user to inspect), until none remain or the question
budget runs out.  The learned query is the schema-aware-pruned hypothesis
when a schema is supplied.

The hypothesis, the implied labels and each round's classification are
the per-run :class:`~repro.learning.protocol.InformativenessLedger`'s.
The session supplies the widening (a product with the node's canonical
query), its backend's selection batch and probe, the question order and
the question descriptors.  Every request completes before the next
starts, so the session accepts any
:class:`~repro.learning.backend.EvaluationBackend` — local or a remote
server — without changing a single question (``SessionStats.asked``
records the sequence so the invariance suites can assert exactly that).
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import LearningError
from repro.learning.backend import (
    EvaluationBackend,
    Workload,
    as_backend,
    distinct_documents,
)
from repro.learning.protocol import (
    InformativenessLedger,
    SessionStats,
    TwigOracle,
)
from repro.twig.anchored import anchor_repair
from repro.twig.ast import TwigQuery
from repro.twig.normalize import minimize
from repro.twig.product import ProductMemo, product
from repro.xmltree.tree import XNode, XTree

Candidate = tuple[XTree, XNode]


class _TwigLedger(InformativenessLedger):
    """The twig session's ledger: a settled candidate stays settled.

    The exact ledger re-widens a settled candidate after every positive
    answer.  This one keeps its verdict, which is sound when a widened
    query only grows as the hypothesis generalises.  That holds for an
    exact product; the practical product followed by ``anchor_repair`` and
    ``minimize`` has no proof, so ``tests/test_session_ledger.py``
    recomputes every verdict from scratch at every round of random
    sessions.  Re-widening would double the session's products (traced
    ``twig-local``, seed 1: 56 against 111.75 per session).
    """

    __slots__ = ()

    def implied_negative(self, candidate: Hashable, hypothesis: Any,
                         negatives: Sequence[Any]) -> bool:
        entry = self._entries.get(candidate)
        if entry is not None and entry[1] is None:
            return True
        return super().implied_negative(candidate, hypothesis, negatives)


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
    ) -> None:
        if not documents:
            raise LearningError("the session needs at least one document")
        self.documents = list(documents)
        self.oracle = TwigOracle(goal)
        self.schema = schema
        self.practical = practical
        self.backend = as_backend(backend)
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
            pool = pool[:max(max_pool, 0)]
        if not pool:
            raise LearningError("empty candidate pool (label filter?)")
        self.pool = pool

    # ------------------------------------------------------------------
    def _extend(self, hypothesis: TwigQuery | None,
                candidate: Candidate,
                memo: ProductMemo | None = None) -> TwigQuery:
        # The backend caches the canonical query per (document, node), as
        # a view of one pattern per document; ``memo`` shares the Boolean
        # products of ``hypothesis`` with the subtrees those views share.
        tree, node = candidate
        canonical = self.backend.canonical_query(tree, node)
        if hypothesis is None:
            merged = canonical
        else:
            merged = product(hypothesis, canonical, practical=self.practical,
                             memo=memo)
        repaired, _ = anchor_repair(merged)
        return minimize(repaired)

    def _question_order(self) -> dict[int, tuple[int, int]]:
        """Sort key per pool node: document size, then node depth."""
        sizes = {id(doc): doc.size() for doc in self.documents}
        return {id(n): (sizes[id(doc)], len(doc.path_to_root(n)))
                for doc, n in self.pool}

    # ------------------------------------------------------------------
    def run(self, *, max_questions: int | None = None) -> TwigSessionResult:
        stats = SessionStats()
        pending = list(self.pool)
        # One product memo per hypothesis: re-widening every pending
        # candidate after a positive answer computes each (hypothesis
        # filter, document subtree) product once, not once per candidate.
        memo = ProductMemo(self.practical)
        ledger = _TwigLedger(lambda h, c: self._extend(h, c, memo),
                             self.backend.selects_any,
                             self.backend.selects_batch)
        order = self._question_order()

        while True:
            informative = ledger.informative(pending)
            if not informative:
                break
            if max_questions is not None and stats.questions >= max_questions:
                break
            # Cheapest-to-inspect first: smaller documents, shallower nodes.
            candidate = min(informative, key=lambda c: order[id(c[1])])
            pending.remove(candidate)
            stats.questions += 1
            stats.asked.append(self._descriptor[id(candidate[1])])
            positive = self.oracle.label(*candidate)
            ledger.learn(candidate, positive)
            if positive:
                # The ledger's widening reads ``memo`` when it runs: the
                # answer was folded with the old hypothesis's memo.
                memo = ProductMemo(self.practical)
            if ledger.hypothesis is not None and pending:
                # Between rounds: the next classification round asks for
                # exactly this batch.
                self.backend.prefetch(Workload.twig(
                    ledger.hypothesis, distinct_documents(pending)))

        ledger.count_implied(pending, stats)
        final = ledger.hypothesis
        if final is not None and self.schema is not None:
            from repro.learning.schema_aware import prune_schema_implied

            final = prune_schema_implied(final, self.schema).query
        return TwigSessionResult(final, stats, len(self.pool))
