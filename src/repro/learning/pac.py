"""Approximate (PAC) learning of twig queries.

Section 2: "Since learning twig queries from positive and negative examples
is intractable in general, we intend to study an approximate learning
framework, such as PAC.  In this setting, the learned query may select some
negative examples and omit some positive ones."

This module provides the standard realizable-case recipe over the
finite hypothesis class of anchored twigs of bounded size:

* :func:`sample_complexity` — the classic bound
  ``m >= (1/eps) * (ln|H| + ln(1/delta))`` with ``ln|H|`` estimated from
  the size bound and alphabet (each node contributes a label choice, an
  axis choice, and a shape choice — ``|H| <= (2*(|Sigma|+1))^n * C_n``
  with ``C_n`` the Catalan number counting tree shapes);
* :func:`pac_learn_twig` — draw ``m`` labelled examples from the provided
  sampler, run the bounded consistency search of
  :mod:`repro.learning.twig_negative`, and fall back to the
  minimum-empirical-error candidate when no hypothesis in the explored
  space is fully consistent (the agnostic behaviour the paper asks for:
  "some of the annotations might be ignored").
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.errors import LearningError
from repro.learning.backend import (
    EvaluationBackend,
    as_backend,
    candidate_pair_flags,
    candidate_workload,
    distinct_documents,
)
from repro.learning.protocol import NodeExample
from repro.learning.twig_negative import check_consistency
from repro.twig.anchored import anchor_repair
from repro.twig.ast import TwigQuery
from repro.twig.normalize import minimize
from repro.twig.product import iter_products


def sample_complexity(epsilon: float, delta: float, *,
                      size_bound: int, alphabet_size: int) -> int:
    """Examples sufficient for (eps, delta)-PAC learning of bounded twigs."""
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if size_bound < 1 or alphabet_size < 1:
        raise ValueError("size_bound and alphabet_size must be >= 1")
    # ln(C_n) <= n ln 4; label+axis choices <= (2 * (|Sigma| + 1))^n.
    ln_h = size_bound * (math.log(4) + math.log(2 * (alphabet_size + 1)))
    return math.ceil((ln_h + math.log(1.0 / delta)) / epsilon)


@dataclass
class PacResult:
    query: TwigQuery
    empirical_error: float
    n_examples: int
    consistent: bool


def _empirical_errors(candidates: Sequence[TwigQuery],
                      examples: Sequence[NodeExample],
                      backend: EvaluationBackend) -> list[float]:
    """Empirical error of every candidate, one backend batch for all.

    The whole candidate generation crosses the seam at once — each
    candidate evaluated once per *distinct* example document — so the
    backends shard the scan per document instead of
    paying one evaluation per (candidate, example) pair.
    """
    if not candidates:
        return []
    pairs = [(ex.tree, ex.node) for ex in examples]
    documents = distinct_documents(pairs)
    answers = backend.evaluate_batch(
        candidate_workload(candidates, documents)).answers
    return [
        sum(1 for ex, selected in zip(examples, row)
            if selected != ex.positive) / len(examples)
        for row in candidate_pair_flags(answers, len(candidates),
                                        documents, pairs)
    ]


def _empirical_error(query: TwigQuery, examples: Sequence[NodeExample],
                     backend: EvaluationBackend) -> float:
    return _empirical_errors([query], examples, backend)[0]


def pac_learn_twig(
    sampler: Callable[[], NodeExample],
    *,
    epsilon: float = 0.1,
    delta: float = 0.1,
    size_bound: int = 8,
    alphabet_size: int = 20,
    budget: int = 256,
    max_examples: int | None = None,
    backend: EvaluationBackend | None = None,
) -> PacResult:
    """Draw examples from ``sampler`` and fit approximately.

    Tries the exact consistency search first; if it is inconclusive or the
    sample is unrealizable, returns the candidate minimising empirical
    error among the generalisation lattice explored from the positives.
    All hypothesis evaluation — the consistency search's refutation
    probes and the fallback's empirical-error scoring — runs through the
    evaluation ``backend`` (local engine by default); each fold step's
    alternative beam is scored as one batch.
    """
    m = sample_complexity(epsilon, delta, size_bound=size_bound,
                          alphabet_size=alphabet_size)
    if max_examples is not None:
        m = min(m, max_examples)
    examples = [sampler() for _ in range(m)]
    positives = [e for e in examples if e.positive]
    if not positives:
        raise LearningError(
            f"PAC sample of {m} examples contains no positives; the target "
            "concept may have negligible mass under the sampling "
            "distribution"
        )
    backend = as_backend(backend)

    result = check_consistency(examples, budget=budget, backend=backend)
    if result.consistent and result.query is not None:
        return PacResult(result.query,
                         _empirical_error(result.query, examples, backend),
                         m, True)

    # Agnostic fallback: greedy fold with a small alternative beam, keep
    # the empirically best candidate seen.  Each step's beam is one
    # candidate generation, scored in a single backend batch.
    canonicals = [backend.canonical_query(e.tree, e.node)
                  for e in positives]
    best: TwigQuery | None = None
    best_error = float("inf")

    def consider(candidate: TwigQuery, error: float) -> None:
        nonlocal best, best_error
        if error < best_error:
            best, best_error = candidate, error

    hypothesis = canonicals[0]
    repaired, _ = anchor_repair(hypothesis)
    first = minimize(repaired)
    consider(first, _empirical_error(first, examples, backend))
    for canonical in canonicals[1:]:
        alternatives = []
        for alt in iter_products(hypothesis, canonical, limit=4):
            alt_repaired, _ = anchor_repair(alt)
            alternatives.append(minimize(alt_repaired))
        errors = _empirical_errors(alternatives, examples, backend)
        for alt_min, error in zip(alternatives, errors):
            consider(alt_min, error)
        hypothesis = min(zip(errors, alternatives),
                         key=lambda pair: pair[0])[1]

    assert best is not None
    return PacResult(best, best_error, m, consistent=best_error == 0.0)
