"""The interactive twig-learning session (the paper's 'practical system')."""

import pytest

from repro.errors import LearningError
from repro.learning.xml_session import InteractiveTwigSession
from repro.schema.corpus import library_schema
from repro.schema.generation import generate_valid_tree
from repro.twig.parse import parse_twig
from repro.twig.semantics import evaluate

from .conftest import xml


def docs():
    return [
        xml("<site><people>"
            "<person><name>a</name><phone>1</phone></person>"
            "<person><name>b</name></person>"
            "</people></site>"),
        xml("<site><people>"
            "<person><name>c</name><phone>2</phone><address>x</address>"
            "</person></people></site>"),
    ]


def test_session_learns_goal():
    goal = parse_twig("/site/people/person[phone]/name")
    session = InteractiveTwigSession(docs(), goal, label_filter="name")
    result = session.run()
    assert result.query is not None
    for doc in docs():
        got = [id(n) for n in evaluate(result.query, doc)]
        want = [id(n) for n in evaluate(goal, doc)]
        assert got == want


def test_session_counts_and_propagates():
    goal = parse_twig("//name")
    session = InteractiveTwigSession(docs(), goal)
    result = session.run()
    total = (result.stats.questions + result.stats.implied_positive
             + result.stats.implied_negative)
    assert result.stats.questions < result.pool_size
    assert total <= result.pool_size


def test_label_filter_restricts_pool():
    goal = parse_twig("//name")
    session = InteractiveTwigSession(docs(), goal, label_filter="name")
    assert session.pool
    assert all(n.label == "name" for _, n in session.pool)


def test_requires_documents_and_pool():
    goal = parse_twig("//name")
    with pytest.raises(LearningError):
        InteractiveTwigSession([], goal)
    with pytest.raises(LearningError):
        InteractiveTwigSession(docs(), goal, label_filter="nonexistent")
    # A max_pool below 1 empties the pool.
    for max_pool in (0, -1):
        with pytest.raises(LearningError):
            InteractiveTwigSession(docs(), goal, max_pool=max_pool)
    assert len(InteractiveTwigSession(docs(), goal, max_pool=1).pool) == 1


def test_question_budget_respected():
    goal = parse_twig("//name")
    session = InteractiveTwigSession(docs(), goal)
    result = session.run(max_questions=2)
    assert result.stats.questions <= 2


def test_schema_pruning_applied():
    schema = library_schema()
    goal = parse_twig("/library/book/title")
    documents = [generate_valid_tree(schema, rng=i, max_depth=6, growth=0.8)
                 for i in range(8)]
    session = InteractiveTwigSession(documents, goal, schema=schema,
                                     label_filter="title")
    result = session.run()
    assert result.query is not None
    # Learned query agrees with the goal on the corpus.
    for doc in documents:
        got = [id(n) for n in evaluate(result.query, doc)]
        want = [id(n) for n in evaluate(goal, doc)]
        assert got == want
    # Schema pruning keeps the query small (plain learning keeps the
    # whole book skeleton as filters).
    assert result.query.size() <= 8


def test_fewer_questions_than_pool_with_propagation():
    goal = parse_twig("/site/people/person/name")
    session = InteractiveTwigSession(docs(), goal)
    result = session.run()
    assert result.stats.questions < result.pool_size
    assert result.stats.labels_saved > 0
