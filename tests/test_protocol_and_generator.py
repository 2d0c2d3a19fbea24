"""The learning protocol (oracle, stats) and the twig generator."""

import pytest

from repro.learning.protocol import (
    InformativenessLedger,
    NodeExample,
    SessionStats,
    TwigOracle,
)
from repro.twig.anchored import is_anchored
from repro.twig.generator import canonical_query_for_node, random_twig
from repro.twig.parse import parse_twig
from repro.twig.semantics import evaluate
from repro.xmltree.tree import XTree, node

from .conftest import xml


def test_node_example_validates_membership(people_doc):
    stray = node("name")
    with pytest.raises(ValueError):
        NodeExample(people_doc, stray)


def test_oracle_counts_questions(people_doc):
    oracle = TwigOracle(parse_twig("//name"))
    oracle.annotate(people_doc)
    oracle.label(people_doc, people_doc.root)
    assert oracle.questions_asked == 2


def test_oracle_label_matches_evaluation(people_doc):
    goal = parse_twig("/site/people/person[phone]/name")
    oracle = TwigOracle(goal)
    selected = set(map(id, evaluate(goal, people_doc)))
    for n in people_doc.nodes():
        assert oracle.label(people_doc, n) == (id(n) in selected)


def test_oracle_examples_from(people_doc):
    oracle = TwigOracle(parse_twig("/site/people/person[phone]/name"))
    examples = oracle.examples_from(people_doc, include_negatives=True,
                                    max_negatives=3)
    positives = [e for e in examples if e.positive]
    negatives = [e for e in examples if not e.positive]
    assert len(positives) == 2
    assert len(negatives) == 3


def test_ledger_rewidens_only_after_a_positive_answer():
    """The ledger on interval hypotheses over integers: a negative answer
    keeps the hypothesis object, so the next round probes each stored
    widening against that negative alone and skips settled candidates; a
    positive answer replaces it, so every candidate is widened again."""
    widened, probed = [], []

    def widen(h, c):
        widened.append(c)
        return (c, c) if h is None else (min(h[0], c), max(h[1], c))

    def probe(interval, negatives):
        probed.append(tuple(negatives))
        return any(interval[0] <= n <= interval[1] for n in negatives)

    def members(h, candidates):
        return [h[0] <= c <= h[1] for c in candidates]

    ledger = InformativenessLedger(widen, probe, members)
    assert ledger.informative([1, 2]) == [1, 2]
    assert widened == [] and ledger.hypothesis is None
    ledger.learn(5, True)
    hypothesis = ledger.hypothesis
    ledger.learn(7, False)
    assert ledger.hypothesis is hypothesis and ledger.negatives == [7]
    assert ledger.informative([0, 2, 3, 6, 8]) == [0, 2, 3, 6]  # 8 settles
    assert probed == [(7,)] * 5
    widened.clear(), probed.clear()
    ledger.learn(2, False)
    assert ledger.informative([0, 3, 6, 8]) == [3, 6]
    assert widened == [] and probed == [(2,)] * 3
    ledger.learn(3, True)
    assert ledger.hypothesis == (3, 5)
    assert ledger.informative([0, 4, 6, 8]) == [6]
    assert widened == [3, 0, 6, 8] and probed[3:] == [(7, 2)] * 3
    stats = SessionStats()
    widened.clear(), probed.clear()
    ledger.count_implied([0, 4, 6, 8], stats)
    assert (stats.implied_positive, stats.implied_negative) == (1, 2)
    assert widened == [] and probed == []


def test_final_propagation_reuses_the_last_rounds_flags():
    """A session stops right after a round, so the final propagation
    counts with that round's membership flags instead of sending the same
    batch again; a changed hypothesis or pending list asks afresh."""
    batches = []

    def members(h, candidates):
        batches.append(tuple(candidates))
        return [h[0] <= c <= h[1] for c in candidates]

    ledger = InformativenessLedger(
        lambda h, c: (c, c) if h is None else (min(h[0], c), max(h[1], c)),
        lambda interval, negs: any(interval[0] <= n <= interval[1]
                                   for n in negs),
        members)
    ledger.learn(4, True)
    ledger.learn(9, False)
    assert ledger.informative([4, 12]) == []  # 4 selected, 12 settles
    assert batches == [(4, 12)]
    stats = SessionStats()
    ledger.count_implied([4, 12], stats)
    assert batches == [(4, 12)]
    assert (stats.implied_positive, stats.implied_negative) == (1, 1)
    ledger.count_implied([12], SessionStats())
    assert batches == [(4, 12), (12,)]
    ledger.learn(3, True)
    ledger.count_implied([4, 12], SessionStats())
    assert batches == [(4, 12), (12,), (4, 12)]


def test_canonical_query_roundtrip():
    doc = xml("<a><b><c>t</c></b><d/></a>")
    c = doc.root.children[0].children[0]
    q = canonical_query_for_node(doc, c)
    assert q.size() == doc.size()
    answers = evaluate(q, doc)
    assert any(n is c for n in answers)


def test_canonical_query_rejects_foreign_node():
    doc = xml("<a/>")
    with pytest.raises(ValueError):
        canonical_query_for_node(doc, node("a"))


def test_random_twig_always_anchored():
    labels = ["a", "b", "c", "d"]
    for seed in range(50):
        q = random_twig(labels, spine_length=3, rng=seed,
                        wildcard_probability=0.4, desc_probability=0.5)
        assert is_anchored(q), q.to_xpath()


def test_random_twig_deterministic():
    labels = ["a", "b", "c"]
    assert random_twig(labels, rng=9) == random_twig(labels, rng=9)


def test_random_twig_spine_length():
    q = random_twig(["a", "b"], spine_length=4, filter_probability=0,
                    rng=1)
    assert len(q.spine()) == 4
    with pytest.raises(ValueError):
        random_twig(["a"], spine_length=0)


def test_random_twig_selected_is_spine_end():
    q = random_twig(["a", "b", "c"], spine_length=3, rng=2)
    assert q.spine()[-1][1] is q.selected
