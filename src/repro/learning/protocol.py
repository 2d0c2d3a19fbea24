"""Shared vocabulary of the learning framework.

The paper's setting: a (simulated) user annotates items of a large instance
as positive or negative examples; a learner produces a query consistent
with the annotations; an interactive strategy chooses which item to ask
about next and counts interactions (each one is a paid Human Intelligence
Task in the crowdsourcing reading of the paper).

This module defines the example record for XML (``NodeExample``), the
simulated user (``TwigOracle``), the interaction accounting
(``SessionStats``) and the run state of a hypothesis session
(``InformativenessLedger``): the twig and path sessions keep their
hypothesis, their negatives and each candidate's last probe in one
ledger per ``run()``, and it runs their classification rounds.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.twig.ast import TwigQuery
# repro: allow[backend-seam] the oracle IS the simulated user: its ground
# truth must come from the reference semantics, deliberately independent
# of whatever EvaluationBackend the learner under test is wired to.
from repro.twig.semantics import evaluate
from repro.xmltree.tree import XNode, XTree


@dataclass(frozen=True)
class NodeExample:
    """An annotated document node: ``positive`` means 'the goal selects it'."""

    tree: XTree
    node: XNode
    positive: bool = True

    def __post_init__(self) -> None:
        if not any(n is self.node for n in self.tree.nodes()):
            raise ValueError("annotated node must belong to the document")


class TwigOracle:
    """A simulated user holding a hidden goal twig query.

    ``label`` answers a membership question; ``annotate`` returns every node
    of a document the goal selects (what a user would highlight).  The
    oracle counts questions so experiments can report interaction effort.
    """

    def __init__(self, goal: TwigQuery) -> None:
        self.goal = goal
        self.questions_asked = 0

    def label(self, tree: XTree, node: XNode) -> bool:
        self.questions_asked += 1
        return any(n is node for n in evaluate(self.goal, tree))

    def annotate(self, tree: XTree) -> list[XNode]:
        self.questions_asked += 1
        return evaluate(self.goal, tree)

    def examples_from(self, tree: XTree, *,
                      include_negatives: bool = False,
                      max_negatives: int | None = None) -> list[NodeExample]:
        """All positive examples in ``tree``; optionally negatives as well."""
        selected = self.annotate(tree)
        selected_ids = {id(n) for n in selected}
        out = [NodeExample(tree, n, True) for n in selected]
        if include_negatives:
            negatives = [n for n in tree.nodes() if id(n) not in selected_ids]
            if max_negatives is not None:
                negatives = negatives[:max_negatives]
            out.extend(NodeExample(tree, n, False) for n in negatives)
        return out


@dataclass
class SessionStats:
    """Interaction accounting for one interactive learning session."""

    questions: int = 0
    implied_positive: int = 0
    implied_negative: int = 0
    #: The question sequence: one hashable descriptor per question asked,
    #: in order (document/node positions, row reprs, words — whatever the
    #: session deems stable).  The backend-invariance suites compare
    #: these lists across evaluation backends: every
    #: backend must make the session ask literally the same questions.
    asked: list = field(default_factory=list)

    @property
    def labels_saved(self) -> int:
        """Labels the user did *not* have to provide (propagated for free)."""
        return self.implied_positive + self.implied_negative


class InformativenessLedger:
    """The run state of a hypothesis session: its ``hypothesis``
    (``None`` until the first positive answer), its ``negatives`` and what
    each pending candidate's last implied-negative probe established.

    :meth:`learn` folds in an answer: a negative answer keeps the
    hypothesis object, a positive answer replaces it with
    ``widen(hypothesis, candidate)``.  :meth:`informative` is one round:
    one ``members(hypothesis, pending)`` batch, whose selected candidates
    are *implied positive* (every generalisation selects them too), then
    each unselected candidate's check, in pool order.  A candidate is
    *implied negative* when its *widened query* (the hypothesis
    generalised with it) selects or accepts a known negative
    (``probe``).  Per candidate the ledger holds the hypothesis it
    widened against, the widened query (``None`` once that query selected
    a negative: *settled*) and how many negatives the query has been
    checked against, so each probe re-derives only what the newest
    answer can change:

    * same hypothesis object, settled: implied negative, not probed;
    * same hypothesis object, not settled: ``probe`` the stored widened
      query against the negatives added since, and send nothing when
      there are none;
    * new hypothesis: re-widen and probe against every negative.

    Each rule gives the verdict of widening and probing every negative
    from scratch.  The ledger also keeps the last round's ``members``
    flags: a session stops right after a round, and :meth:`count_implied`
    reuses them while the hypothesis object and the pending candidates
    are the ones that round classified.  A session creates one ledger per
    ``run()`` as a local: the ledger holds the session's bound methods, so
    keeping it on the session would make a reference cycle.
    """

    __slots__ = ("_widen", "_probe", "_members", "_entries", "_last_round",
                 "hypothesis", "negatives")

    def __init__(self, widen: Callable[[Any, Any], Any],
                 probe: Callable[[Any, Sequence[Any]], bool],
                 members: Callable[[Any, Sequence[Any]], list[bool]]) -> None:
        self._widen = widen
        self._probe = probe
        self._members = members
        self._entries: dict[Hashable, list[Any]] = {}
        # (hypothesis, pending, members flags) of the last round.
        self._last_round: tuple[Any, list[Hashable], list[bool]] | None = None
        self.hypothesis: Any = None
        self.negatives: list[Any] = []

    def learn(self, candidate: Hashable, positive: bool) -> None:
        """Fold the user's answer about ``candidate`` into the run."""
        if positive:
            self.hypothesis = self._widen(self.hypothesis, candidate)
        else:
            self.negatives.append(candidate)

    def informative(self, pending: Sequence[Hashable]) -> list[Hashable]:
        """The pending candidates still informative, in pool order."""
        if self.hypothesis is None:
            return list(pending)
        selected = self._members(self.hypothesis, pending)
        self._last_round = (self.hypothesis, list(pending), selected)
        out = []
        for candidate, sel in zip(pending, selected):
            if sel:
                self._entries.pop(candidate, None)
            elif not self.implied_negative(candidate, self.hypothesis,
                                           self.negatives):
                out.append(candidate)
        return out

    def count_implied(self, pending: Sequence[Hashable],
                      stats: SessionStats) -> None:
        """Final propagation: count the unasked candidates' implied labels
        (every entry is already up to date, so nothing more is probed, and
        the last round's flags answer ``members`` when they still can)."""
        if self.hypothesis is None:
            return
        last = self._last_round
        if (last is not None and last[0] is self.hypothesis
                and last[1] == list(pending)):
            selected = last[2]
        else:
            selected = self._members(self.hypothesis, pending)
        stats.implied_positive += sum(selected)
        stats.implied_negative += sum(
            self.implied_negative(candidate, self.hypothesis, self.negatives)
            for candidate, sel in zip(pending, selected) if not sel)

    def implied_negative(self, candidate: Hashable, hypothesis: Any,
                         negatives: Sequence[Any]) -> bool:
        """Is ``candidate`` implied negative under ``hypothesis``?"""
        if hypothesis is None or not negatives:
            return False
        entry = self._entries.get(candidate)
        if entry is None or entry[0] is not hypothesis:
            entry = [hypothesis, self._widen(hypothesis, candidate), 0]
            self._entries[candidate] = entry
        elif entry[1] is None:
            return True
        fresh = negatives[entry[2]:]
        if not fresh:
            return False
        entry[2] = len(negatives)
        if self._probe(entry[1], fresh):
            entry[1] = None
            return True
        return False
