"""Shared vocabulary of the learning framework.

The paper's setting: a (simulated) user annotates items of a large instance
as positive or negative examples; a learner produces a query consistent
with the annotations; an interactive strategy chooses which item to ask
about next and counts interactions (each one is a paid Human Intelligence
Task in the crowdsourcing reading of the paper).

This module defines the example record for XML (``NodeExample``), the
simulated user (``TwigOracle``), and the interaction bookkeeping
(``SessionStats``) shared by every interactive session in the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    candidates_considered: int = 0
    notes: list[str] = field(default_factory=list)
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

    def merge(self, other: "SessionStats") -> None:
        self.questions += other.questions
        self.implied_positive += other.implied_positive
        self.implied_negative += other.implied_negative
        self.candidates_considered += other.candidates_considered
        self.notes.extend(other.notes)
        self.asked.extend(other.asked)
