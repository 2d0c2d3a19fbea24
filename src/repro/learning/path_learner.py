"""Learning graph path queries from labelled example paths.

The graph analogue of the twig learner: positive examples are edge-label
words of paths the user marked as wanted; the hypothesis class is the
multiplicity-path-expression fragment
(:class:`~repro.graphdb.pathquery.PathQuery`).  :func:`lgg_path`
generalises two queries together by dynamic-programming sequence
alignment:

* aligned atoms merge — label sets union (introducing a disjunction),
  multiplicities take their interval hull;
* skipped atoms survive with their multiplicity relaxed to admit zero
  (``1 -> ?``, ``+ -> *``) — the path may simply not take that step;
* runs of equal-label atoms collapse into one atom (``a.a`` has no exact
  multiplicity symbol, so the hull ``+`` is taken — the fragment's price).

Costs prefer exact matches over disjunctions over skips, so the fold over
examples stays as specific as its cheapest alignments allow — mirroring
the twig product story, including its failure mode (negatives can force
a search over alignment alternatives; :func:`check_path_consistency`
reports what the single best alignment achieves).

The result generalises both arguments, but despite its name it is not a
least general generalisation, and it is not monotone in the hypothesis.
With ``w = highway.train.train.highway.highway.highway``,
``lgg_path(highway+, w)`` is ``highway?.train*.highway+``, which accepts
``train.highway.highway.highway``, while the more general
``highway+.national*.highway?`` widens with ``w`` to
``highway+.(national|train)*.highway*``, which does not (a least one
would be monotone).  So a word whose widened query accepts a negative
can be informative again once a positive answer generalises the
hypothesis: the path session's ledger re-widens such words, which
``tests/test_session_ledger.py::test_audit_reaches_settled_candidates``
pins on the geo graph this example comes from.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import LearningError
from repro.graphdb.pathquery import PathAtom, PathQuery
from repro.schema.multiplicity import Multiplicity

Word = tuple[str, ...]

_MATCH_FREE = 0
_LABEL_GROW_COST = 2
_MULT_RELAX_COST = 1
_SKIP_COST = 3


def _hull(a: Multiplicity, b: Multiplicity) -> Multiplicity:
    lo = min(a.interval.lo, b.interval.lo)
    unbounded = not (a.interval.bounded and b.interval.bounded)
    hi = 2 if unbounded else max(a.interval.hi, b.interval.hi)  # type: ignore[arg-type]
    return Multiplicity.from_counts(lo, hi)


def _relaxed(m: Multiplicity) -> Multiplicity:
    if m is Multiplicity.ONE:
        return Multiplicity.OPTIONAL
    if m is Multiplicity.PLUS:
        return Multiplicity.STAR
    return m


def _merge_atoms(a: PathAtom, b: PathAtom) -> tuple[PathAtom, int]:
    labels = a.labels | b.labels
    mult = _hull(a.multiplicity, b.multiplicity)
    cost = 0
    if labels != a.labels or labels != b.labels:
        cost += _LABEL_GROW_COST
    if mult is not a.multiplicity or mult is not b.multiplicity:
        cost += _MULT_RELAX_COST
    return PathAtom(labels, mult), cost


def normalize(query: PathQuery) -> PathQuery:
    """Collapse adjacent atoms with identical label sets."""
    out: list[PathAtom] = []
    for atom in query.atoms:
        if out and out[-1].labels == atom.labels:
            prev = out.pop()
            lo = prev.multiplicity.interval.lo + atom.multiplicity.interval.lo
            unbounded = (prev.interval_unbounded()
                         or atom.interval_unbounded())
            # from_counts needs a finite hi; any value > 1 maps the same
            # way, and a bounded sum > 1 has no exact symbol either, so the
            # hull (+ or *) is taken in both cases.
            hi = 2 if unbounded else (
                prev.multiplicity.interval.hi + atom.multiplicity.interval.hi
            )
            out.append(PathAtom(prev.labels, Multiplicity.from_counts(lo, hi)))
        else:
            out.append(atom)
    return PathQuery(out)


def lgg_path(p: PathQuery, q: PathQuery) -> PathQuery:
    """Generalise two path queries together by their cheapest alignment.

    The result generalises both, but it is neither least nor monotone:
    a more general ``p`` can widen to a query that is not more general
    (the module docstring names a case), which is why the path session's
    ledger re-widens settled words after a positive answer.
    """
    pa, qa = list(p.atoms), list(q.atoms)
    n, m = len(pa), len(qa)
    # dp[i][j] = (cost, move) aligning pa[i:] with qa[j:]
    INFINITY = float("inf")
    dp: list[list[tuple[float, str]]] = [
        [(INFINITY, "")] * (m + 1) for _ in range(n + 1)
    ]
    dp[n][m] = (0, "end")
    for i in range(n, -1, -1):
        for j in range(m, -1, -1):
            if i == n and j == m:
                continue
            best: tuple[float, str] = (INFINITY, "")
            if i < n and j < m:
                _, merge_cost = _merge_atoms(pa[i], qa[j])
                cand = dp[i + 1][j + 1][0] + merge_cost
                if cand < best[0]:
                    best = (cand, "match")
            if i < n:
                cand = dp[i + 1][j][0] + _SKIP_COST
                if cand < best[0]:
                    best = (cand, "skip_p")
            if j < m:
                cand = dp[i][j + 1][0] + _SKIP_COST
                if cand < best[0]:
                    best = (cand, "skip_q")
            dp[i][j] = best

    atoms: list[PathAtom] = []
    i = j = 0
    while (i, j) != (n, m):
        move = dp[i][j][1]
        if move == "match":
            merged, _ = _merge_atoms(pa[i], qa[j])
            atoms.append(merged)
            i, j = i + 1, j + 1
        elif move == "skip_p":
            atoms.append(PathAtom(pa[i].labels, _relaxed(pa[i].multiplicity)))
            i += 1
        else:
            atoms.append(PathAtom(qa[j].labels, _relaxed(qa[j].multiplicity)))
            j += 1
    return normalize(PathQuery(atoms))


@dataclass
class LearnedPath:
    query: PathQuery
    n_examples: int


def learn_path_query(words: Sequence[Sequence[str]]) -> LearnedPath:
    """Fit a path query to positive example words.

    Raises :class:`~repro.errors.LearningError` on an empty example set.
    """
    if not words:
        raise LearningError("at least one positive path is required")
    hypothesis = normalize(PathQuery.of_word(tuple(words[0])))
    for word in words[1:]:
        hypothesis = lgg_path(hypothesis, PathQuery.of_word(tuple(word)))
    return LearnedPath(hypothesis, len(words))


@dataclass
class PathConsistency:
    consistent: bool
    query: PathQuery | None
    violated: list[Word]


def check_path_consistency(
    positives: Sequence[Sequence[str]],
    negatives: Sequence[Sequence[str]],
    *,
    backend=None,
) -> PathConsistency:
    """Does the best-alignment lgg of the positives reject every negative?

    A ``False`` answer with this single-alignment learner is conservative
    (another alignment might succeed) — the same search/hardness structure
    as twig consistency.

    The negative scan runs as one acceptance batch on the evaluation
    ``backend`` (local engine by default): the hypothesis NFA is
    compiled once, word verdicts are memoised, and every backend probes
    the whole negative set in sub-shards.
    """
    from repro.learning.backend import as_backend

    learned = learn_path_query(positives)
    backend = as_backend(backend)
    words = [tuple(w) for w in negatives]
    flags = backend.accepts_batch(learned.query, words)
    violated = [word for word, accepted in zip(words, flags) if accepted]
    if violated:
        return PathConsistency(False, None, violated)
    return PathConsistency(True, learned.query, [])
