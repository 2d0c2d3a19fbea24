"""Learning anchored twig queries from positive examples.

The algorithm of Staworko & Wieczorek (ICDT 2012), as used in Section 2 of
the paper: each annotated document is read as its *canonical query* (the
most specific twig selecting the annotated node), and the hypothesis is the
fold of the generalisation product over all examples, repaired into the
anchored class and minimised after every step.

The headline empirical property the paper reports — "the algorithms are
able to learn a query equivalent to the goal query from a small number of
examples (generally two)" — comes from the product being a *least* general
generalisation: two examples that differ exactly where the goal query is
unconstrained already collapse the hypothesis onto the goal.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.errors import LearningError
from repro.learning.backend import EvaluationBackend, as_backend
from repro.learning.protocol import NodeExample
from repro.twig.anchored import anchor_repair, is_anchored
from repro.twig.ast import TwigQuery
from repro.twig.normalize import minimize
from repro.twig.product import product
from repro.xmltree.tree import XNode, XTree


@dataclass
class LearnedTwig:
    """Result of a positive-only learning run.

    ``exact`` is False when an anchored repair had to fall back to the
    universal query (the hypothesis still selects all positives but may be
    far more general than necessary).
    """

    query: TwigQuery
    exact: bool
    n_examples: int

    @property
    def anchored(self) -> bool:
        return is_anchored(self.query)


def _as_pairs(
    examples: Sequence[NodeExample | tuple[XTree, XNode]],
) -> list[tuple[XTree, XNode]]:
    pairs: list[tuple[XTree, XNode]] = []
    for ex in examples:
        if isinstance(ex, NodeExample):
            if not ex.positive:
                raise LearningError(
                    "positive-only learner received a negative example; "
                    "use repro.learning.twig_negative for mixed examples"
                )
            pairs.append((ex.tree, ex.node))
        else:
            pairs.append(ex)
    return pairs


def learn_twig(
    examples: Sequence[NodeExample | tuple[XTree, XNode]],
    *,
    practical: bool = True,
    backend: EvaluationBackend | None = None,
) -> LearnedTwig:
    """Fit an anchored twig query to positive examples.

    ``examples`` are ``NodeExample`` records or bare ``(tree, node)`` pairs.
    ``practical`` selects the document-scale product mode (equal-label
    pairing); disable it only for small hand-written patterns.  Canonical
    queries come from the evaluation ``backend`` (local engine by
    default) so the fold shares its caches with whatever else runs on
    that backend.

    Raises :class:`~repro.errors.LearningError` on an empty example set.
    """
    pairs = _as_pairs(examples)
    if not pairs:
        raise LearningError("at least one positive example is required")
    backend = as_backend(backend)

    hypothesis: TwigQuery | None = None
    exact = True
    for tree, node in pairs:
        canonical = backend.canonical_query(tree, node)
        if hypothesis is None:
            hypothesis = canonical
        else:
            hypothesis = product(hypothesis, canonical, practical=practical)
        hypothesis, step_exact = anchor_repair(hypothesis)
        exact = exact and step_exact
        hypothesis = minimize(hypothesis)
    assert hypothesis is not None
    return LearnedTwig(hypothesis, exact, len(pairs))


def learn_twig_incremental(
    examples: Sequence[NodeExample | tuple[XTree, XNode]],
    *,
    practical: bool = True,
    backend: EvaluationBackend | None = None,
) -> Iterator[LearnedTwig]:
    """Yield the hypothesis after each successive example.

    Used by convergence experiments (E1): the reported metric is the index
    of the first hypothesis equivalent to the goal.  The fold is incremental
    (each step generalises the previous minimised hypothesis), so the whole
    sweep costs one product per example.
    """
    pairs = _as_pairs(examples)
    backend = as_backend(backend)
    hypothesis: TwigQuery | None = None
    exact = True
    for i, (tree, node) in enumerate(pairs, start=1):
        canonical = backend.canonical_query(tree, node)
        if hypothesis is None:
            hypothesis = canonical
        else:
            hypothesis = product(hypothesis, canonical, practical=practical)
        hypothesis, step_exact = anchor_repair(hypothesis)
        exact = exact and step_exact
        hypothesis = minimize(hypothesis)
        yield LearnedTwig(hypothesis, exact, i)
