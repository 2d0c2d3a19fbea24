"""RPQ evaluation and the learnable path-query fragment."""

from repro.graphdb.graph import Graph
from repro.graphdb.pathquery import PathAtom, PathQuery
from repro.graphdb.regex import parse_regex
from repro.graphdb.rpq import (
    enumerate_paths,
    enumerate_words,
    evaluate_rpq,
    find_paths,
)
from repro.schema.multiplicity import Multiplicity

import pytest

from repro.engine import Engine
from repro.errors import LearningError, ParseError
from repro.learning.graph_session import InteractivePathSession


def line_graph():
    g = Graph()
    g.add_edge(0, "a", 1)
    g.add_edge(1, "a", 2)
    g.add_edge(2, "b", 3)
    g.add_edge(1, "b", 3)
    g.add_edge(3, "c", 0)
    return g


def test_evaluate_rpq_pairs():
    g = line_graph()
    pairs = evaluate_rpq(parse_regex("a.a"), g)
    assert pairs == {(0, 2)}
    pairs = evaluate_rpq(parse_regex("a.b"), g)
    assert pairs == {(0, 3), (1, 3)}


def test_evaluate_rpq_star_includes_self():
    g = line_graph()
    pairs = evaluate_rpq(parse_regex("a*"), g, sources=[0])
    assert (0, 0) in pairs and (0, 2) in pairs


def test_evaluate_rpq_with_cycle():
    g = line_graph()
    # 0 -a-> 1 -b-> 3 -c-> 0 : the cycle word abc
    pairs = evaluate_rpq(parse_regex("(a.b.c)+"), g, sources=[0])
    assert (0, 0) in pairs


def test_find_paths_witnesses():
    g = line_graph()
    paths = find_paths(parse_regex("a.b"), g, 0, 3)
    assert ((0, 1, 3), ("a", "b")) in paths


def test_enumerate_paths_simple_and_ordered():
    g = line_graph()
    items = list(enumerate_paths(g, 0, 3, max_length=4))
    lengths = [len(word) for _, word in items]
    assert lengths == sorted(lengths)
    for path, _ in items:
        assert len(set(path)) == len(path)  # simple paths only


def test_enumerate_words_distinct():
    g = line_graph()
    words = enumerate_words(g, 0, 3, max_length=4)
    assert len(words) == len(set(words))
    assert ("a", "b") in words


def shortcut_graph():
    g = Graph()
    g.add_edge(0, "a", 1)
    g.add_edge(1, "b", 3)
    g.add_edge(0, "c", 3)
    return g


def test_zero_word_limit_returns_no_words():
    g = shortcut_graph()
    assert enumerate_words(g, 0, 3, limit=1) == [("c",)]
    assert enumerate_words(g, 0, 3, limit=0) == []
    assert enumerate_words(g, 0, 3, limit=-1) == []
    assert Engine().words_between(g, 0, 3, limit=0) == []


def test_zero_path_limit_returns_no_paths():
    g = shortcut_graph()
    query = parse_regex("a.b|c")
    assert find_paths(query, g, 0, 3, max_paths=1) == [((0, 3), ("c",))]
    assert find_paths(query, g, 0, 3, max_paths=0) == []
    assert find_paths(query, g, 0, 3, max_paths=-1) == []


def test_path_session_without_candidates_raises():
    with pytest.raises(LearningError):
        InteractivePathSession(shortcut_graph(), 0, 3,
                               PathQuery.parse("c"), max_candidates=0)


# ---------------------------------------------------------------------------
# PathQuery fragment
# ---------------------------------------------------------------------------


def test_pathquery_parse_and_str():
    q = PathQuery.parse("highway+.(national|local)?.train*")
    assert len(q.atoms) == 3
    assert PathQuery.parse(str(q)) == q


def test_pathquery_accepts():
    q = PathQuery.parse("h+.(n|l)?")
    assert q.accepts(("h",))
    assert q.accepts(("h", "h", "n"))
    assert q.accepts(("h", "l"))
    assert not q.accepts(("n",))
    assert not q.accepts(("h", "n", "n"))


def test_pathquery_of_word():
    q = PathQuery.of_word(("a", "b"))
    assert q.accepts(("a", "b"))
    assert not q.accepts(("a",))
    assert not q.accepts(("a", "b", "b"))


def test_pathquery_empty():
    q = PathQuery()
    assert q.accepts(())
    assert not q.accepts(("a",))


def test_pathquery_atom_validation():
    with pytest.raises(ParseError):
        PathAtom(frozenset(), Multiplicity.ONE)
    with pytest.raises(ParseError):
        PathAtom(frozenset({"a"}), Multiplicity.ZERO)
    with pytest.raises(ParseError):
        PathQuery.parse("a..b")


def test_generalizes_probe():
    general = PathQuery.parse("h+")
    specific = PathQuery.parse("h.h")
    assert general.generalizes(specific)
    assert not specific.generalizes(general)


def test_sample_words_accepted():
    q = PathQuery.parse("h+.(n|l)?.t*")
    for word in q.sample_words():
        assert q.accepts(word), word


def test_min_length():
    q = PathQuery.parse("h+.n?.t")
    assert q.min_length == 2


def test_pathquery_is_immutable_and_hashes_by_atoms():
    q = PathQuery.parse("h+.(n|l)?")
    same = PathQuery.parse("h+.(l|n)?")
    assert q == same and hash(q) == hash(same) == hash(q.atoms)
    with pytest.raises(AttributeError):
        q.atoms = ()
    with pytest.raises(AttributeError):
        del q.atoms
    q.nfa()  # the one lazily filled slot
    assert hash(q) == hash(same)
