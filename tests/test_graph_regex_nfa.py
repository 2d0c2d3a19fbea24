"""Regex parsing and NFA semantics, cross-checked against Python's re,
and the engine's atom scan for path queries against both."""

import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.errors import ParseError
from repro.graphdb.nfa import EPS, NFA, compile_regex
from repro.graphdb.pathquery import PathAtom, PathQuery
from repro.graphdb.regex import (
    Concat,
    Epsilon,
    Label,
    Star,
    Union,
    parse_regex,
    plus,
    optional,
)
from repro.schema.multiplicity import Multiplicity

ALPHABET = ("h", "n", "l", "t")


def test_parse_simple():
    r = parse_regex("highway")
    assert r == Label("highway")


def test_parse_concat_union_star():
    r = parse_regex("a.b|c*")
    assert isinstance(r, Union)
    assert r.left == Concat(Label("a"), Label("b"))
    assert r.right == Star(Label("c"))


def test_parse_parens_and_postfix():
    r = parse_regex("(a|b)+.c?")
    nfa = compile_regex(r)
    assert nfa.accepts(("a", "c"))
    assert nfa.accepts(("b", "a"))
    assert not nfa.accepts(("c",))


def test_parse_epsilon():
    assert parse_regex("()") == Epsilon()
    assert compile_regex(parse_regex("()")).accepts(())


def test_parse_errors():
    for bad in ("", "(", "a|", "a..b", "a)"):
        with pytest.raises(ParseError):
            parse_regex(bad)


def test_accepts_basic():
    nfa = compile_regex(parse_regex("a.b*"))
    assert nfa.accepts(("a",))
    assert nfa.accepts(("a", "b", "b"))
    assert not nfa.accepts(("b",))
    assert not nfa.accepts(())


def test_plus_and_optional_helpers():
    assert compile_regex(plus(Label("a"))).accepts(("a", "a"))
    assert not compile_regex(plus(Label("a"))).accepts(())
    assert compile_regex(optional(Label("a"))).accepts(())


@st.composite
def regexes(draw, depth: int = 3):
    if depth == 0 or draw(st.booleans()):
        return Label(draw(st.sampled_from(ALPHABET)))
    kind = draw(st.sampled_from(("concat", "union", "star")))
    if kind == "concat":
        return Concat(draw(regexes(depth=depth - 1)),
                      draw(regexes(depth=depth - 1)))
    if kind == "union":
        return Union(draw(regexes(depth=depth - 1)),
                     draw(regexes(depth=depth - 1)))
    return Star(draw(regexes(depth=depth - 1)))


def _to_python_re(r) -> str:
    if isinstance(r, Epsilon):
        return "(?:)"
    if isinstance(r, Label):
        return re.escape(r.name)
    if isinstance(r, Concat):
        return f"(?:{_to_python_re(r.left)}{_to_python_re(r.right)})"
    if isinstance(r, Union):
        return f"(?:{_to_python_re(r.left)}|{_to_python_re(r.right)})"
    if isinstance(r, Star):
        return f"(?:{_to_python_re(r.inner)})*"
    raise TypeError(type(r))


@settings(max_examples=60, deadline=None)
@given(regexes(), st.lists(st.sampled_from(ALPHABET), max_size=6))
def test_nfa_agrees_with_python_re(regex, word):
    # Single-character labels make word concatenation unambiguous.
    nfa = compile_regex(regex)
    pattern = re.compile(_to_python_re(regex) + r"\Z")
    assert nfa.accepts(tuple(word)) == bool(pattern.match("".join(word)))


@settings(max_examples=60, deadline=None)
@given(regexes(), st.lists(st.lists(st.sampled_from(ALPHABET), max_size=6),
                           max_size=12))
def test_one_automaton_answers_many_words_like_python_re(regex, words):
    """Later words step through the memo the earlier words filled."""
    nfa = compile_regex(regex)
    pattern = re.compile(_to_python_re(regex) + r"\Z")
    for word in words:
        assert nfa.accepts(tuple(word)) == bool(pattern.match("".join(word)))


def test_extending_a_used_automaton_clears_its_memo():
    nfa = NFA()
    s, t = nfa.new_state(), nfa.new_state()
    nfa.start, nfa.accept = s, t
    nfa.add_transition(s, "a", t)
    assert nfa.accepts(("a",))
    assert not nfa.accepts(("b",))  # memoises the step of {s} on "b"
    assert not nfa.accepts(("a", "c"))  # and of {t} on "c"
    nfa.add_transition(s, "b", t)
    assert nfa.accepts(("b",))
    u = nfa.new_state()
    nfa.add_transition(t, "c", u)
    nfa.add_transition(u, EPS, t)
    assert nfa.accepts(("a", "c", "c"))


@settings(max_examples=40, deadline=None)
@given(regexes())
def test_string_rendering_reparses(regex):
    rendered = str(regex)
    assert compile_regex(parse_regex(rendered)).accepts is not None
    # Semantic check on a few probe words:
    nfa1 = compile_regex(regex)
    nfa2 = compile_regex(parse_regex(rendered))
    for word in [(), ("h",), ("h", "n"), ("l", "l", "l")]:
        assert nfa1.accepts(word) == nfa2.accepts(word)


def test_compiled_nfa_is_freed_by_reference_counting():
    """An NFA dies with its last reference, not at the next cyclic
    collection: compiling leaves no reference cycle behind."""
    import gc
    import weakref

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        nfa = compile_regex(parse_regex("r.(s|r)*"))
        assert nfa.accepts(("r", "s", "r"))
        dead = weakref.ref(nfa)
        del nfa
        assert dead() is None
    finally:
        if was_enabled:
            gc.enable()


@st.composite
def path_queries(draw):
    """0–5 atoms over three of the four labels, with every multiplicity:
    label sets overlap and adjacent atoms often share labels, which is
    where an atom-wise matcher has to keep several positions live."""
    atoms = [
        PathAtom(draw(st.frozensets(st.sampled_from(ALPHABET[:3]),
                                    min_size=1)),
                 draw(st.sampled_from((Multiplicity.ONE,
                                       Multiplicity.OPTIONAL,
                                       Multiplicity.PLUS,
                                       Multiplicity.STAR))))
        for _ in range(draw(st.integers(0, 5)))]
    return PathQuery(atoms)


@settings(max_examples=200, deadline=None)
@given(path_queries(), st.lists(st.lists(st.sampled_from(ALPHABET),
                                         max_size=6), max_size=8))
def test_engine_scan_agrees_with_the_nfa_and_python_re(query, words):
    """The engine decides a path query by its atom scan; every word gets
    the answer of the query's Thompson NFA and of Python's re, the empty
    word and the empty query included.  The fourth label is outside every
    query's alphabet."""
    engine = Engine()
    regex = query.to_regex()
    nfa = compile_regex(regex)
    pattern = re.compile(_to_python_re(regex) + r"\Z")
    for word in [()] + [tuple(w) for w in words]:
        expected = bool(pattern.match("".join(word)))
        assert nfa.accepts(word) == expected
        assert engine.accepts(query, word) == expected


def test_engine_decides_path_queries_without_an_automaton():
    query = PathQuery.parse("h+.(n|l)?.h*")
    engine = Engine()
    with mock.patch.object(PathQuery, "nfa",
                           side_effect=AssertionError("compiled an NFA")):
        assert engine.accepts(query, ("h", "h", "l"))
        assert engine.accepts(query, ["h", "n", "h"])
        assert not engine.accepts(query, ("n",))
        assert not engine.accepts(query, ())
    assert engine.stats()["nfa_cache"]["misses"] == 0
    # The reference still runs the automaton.
    assert query.accepts(("h", "h", "l")) and query._nfa is not None


def test_scan_edge_cases():
    assert PathQuery().scan().accepts(())
    assert not PathQuery().scan().accepts(("h",))
    skippable = PathQuery.parse("h?.n*")
    assert skippable.scan().accepts(())
    assert skippable.scan().accepts(("n", "n"))
    assert not skippable.scan().accepts(("n", "h"))
    assert not PathQuery.parse("h").scan().accepts(("t",))
