"""Workloads: ordered batches of evaluation items, sharded by instance.

A :class:`Workload` is an immutable, ordered collection of
:class:`WorkloadItem` records — each one twig evaluation, RPQ evaluation,
or word-acceptance check.  Items keep their position: every answer in a
:class:`WorkloadResult` is aligned with the item that produced it, so a
batch is observationally a list comprehension over the serial engine
calls, wherever it was evaluated.

Sharding follows the engine seam: per-instance indexes are independent,
so items are grouped by data instance (document or graph; acceptance
checks, which are instance-free, group by query).  A shard is the unit of
streaming *and* of snapshot consistency — the batch evaluator resolves
each shard's index once, so one shard never observes two versions of its
instance.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from repro.graphdb.graph import Graph, VertexId
from repro.twig.ast import TwigQuery
from repro.xmltree.tree import XTree

Word = tuple[str, ...]


class ItemKind(enum.Enum):
    """What one workload item asks the engine to do."""

    TWIG = "twig"          # evaluate a twig query over a document
    RPQ = "rpq"            # evaluate a path query over a graph
    ACCEPTS = "accepts"    # does the query language contain a word?


@dataclass(frozen=True, eq=False)
class WorkloadItem:
    """One evaluation: a query against an instance (or a word)."""

    kind: ItemKind
    query: object
    instance: object = None          # XTree | Graph | None (ACCEPTS)
    word: Word | None = None         # ACCEPTS only
    sources: tuple[VertexId, ...] | None = None  # RPQ only

    def shard_key(self) -> tuple[str, int]:
        """Items with equal keys evaluate against one index snapshot."""
        if self.kind is ItemKind.ACCEPTS:
            return ("query", id(self.query))
        return ("instance", id(self.instance))


@dataclass(frozen=True)
class Shard:
    """A shard: the item positions and items sharing one instance."""

    kind: ItemKind
    indices: tuple[int, ...]
    items: tuple[WorkloadItem, ...]


class Workload:
    """An ordered batch of evaluation items (build once, run many)."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[WorkloadItem] = ()) -> None:
        self.items: tuple[WorkloadItem, ...] = tuple(items)

    # ------------------------------------------------------------------
    # Constructors for the common batch shapes
    # ------------------------------------------------------------------
    @classmethod
    def twig(cls, query: TwigQuery,
             documents: Sequence[XTree]) -> "Workload":
        """One hypothesis over many documents (the session hot path)."""
        return cls(WorkloadItem(ItemKind.TWIG, query, doc)
                   for doc in documents)

    @classmethod
    def twig_queries(cls, queries: Sequence[TwigQuery],
                     document: XTree) -> "Workload":
        """One document probed by many queries (one shard, one snapshot)."""
        return cls(WorkloadItem(ItemKind.TWIG, q, document)
                   for q in queries)

    @classmethod
    def rpq(cls, query: object, graphs: Sequence[Graph], *,
            sources: Sequence[VertexId] | None = None) -> "Workload":
        """One path query over many graphs."""
        frozen = tuple(sources) if sources is not None else None
        return cls(WorkloadItem(ItemKind.RPQ, query, g, sources=frozen)
                   for g in graphs)

    @classmethod
    def accepts(cls, query: object,
                words: Sequence[Sequence[str]]) -> "Workload":
        """One path query probed with many words (graph-session scans)."""
        return cls(WorkloadItem(ItemKind.ACCEPTS, query, word=tuple(w))
                   for w in words)

    #: Acceptance checks share no instance snapshot, so their per-query
    #: groups split into sub-shards of this size — a one-query scan over
    #: many words (the path sessions' hot shape) then streams its verdicts
    #: in groups instead of arriving as one shard at the end.
    ACCEPTS_SHARD_SIZE = 64

    # ------------------------------------------------------------------
    def shards(self) -> list[Shard]:
        """Group item positions by instance, in first-occurrence order."""
        groups: dict[tuple[str, int], list[int]] = {}
        for i, item in enumerate(self.items):
            groups.setdefault(item.shard_key(), []).append(i)
        out: list[Shard] = []
        for indices in groups.values():
            kind = self.items[indices[0]].kind
            step = self.ACCEPTS_SHARD_SIZE if kind is ItemKind.ACCEPTS \
                else len(indices)
            for start in range(0, len(indices), step):
                chunk = tuple(indices[start:start + step])
                out.append(Shard(kind, chunk,
                                 tuple(self.items[i] for i in chunk)))
        return out

    # ------------------------------------------------------------------
    def __add__(self, other: "Workload") -> "Workload":
        if not isinstance(other, Workload):
            return NotImplemented
        return Workload(self.items + other.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[WorkloadItem]:
        return iter(self.items)

    def __getitem__(self, i: int) -> WorkloadItem:
        return self.items[i]

    def __repr__(self) -> str:
        kinds = {item.kind.value for item in self.items}
        return f"<Workload {len(self.items)} items kinds={sorted(kinds)}>"


@dataclass(frozen=True)
class ShardAnswer:
    """One completed shard's answers, surfaced before the batch finishes.

    The streaming APIs (:meth:`BatchEvaluator.run_stream
    <repro.serving.evaluator.BatchEvaluator.run_stream>`,
    :meth:`AsyncBatchEvaluator.stream
    <repro.serving.async_evaluator.AsyncBatchEvaluator.stream>`, and the
    network endpoint) yield these in *completion* order; ``indices`` are
    the item positions in the originating workload, so any consumer can
    reassemble the deterministic position-aligned
    :class:`WorkloadResult` regardless of arrival order.
    ``answers[k]`` is the answer for item ``indices[k]`` and carries the
    exact same values ``WorkloadResult.answers`` would.
    """

    shard: int
    indices: tuple[int, ...]
    answers: tuple

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        """Iterate ``(item_position, answer)`` pairs."""
        return iter(zip(self.indices, self.answers))


@dataclass(frozen=True)
class WorkloadResult:
    """Answers aligned with the workload's item order.

    ``answers[i]`` is exactly what the serial engine call for item ``i``
    would have returned: a list of the instance's *own* node objects in
    document order for twig items (even when a remote server computed the
    answer — servers ship pre-order positions, not copies), a set of
    ``(source, target)`` pairs for RPQ items, a bool for acceptance items.
    """

    workload: Workload
    answers: tuple
    n_shards: int

    @classmethod
    def assemble(cls, workload: Workload,
                 shard_answers: Iterable[ShardAnswer]) -> "WorkloadResult":
        """Merge shard answers, in any arrival order, back by position."""
        answers: list = [None] * len(workload)
        n_shards = 0
        for shard_answer in shard_answers:
            n_shards += 1
            for position, answer in shard_answer:
                answers[position] = answer
        return cls(workload, tuple(answers), n_shards)

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator:
        return iter(self.answers)

    def __getitem__(self, i: int):
        return self.answers[i]

    def __repr__(self) -> str:
        return (f"<WorkloadResult {len(self.answers)} answers "
                f"shards={self.n_shards}>")
