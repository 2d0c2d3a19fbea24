"""Twig AST construction, spine, copying, and concrete syntax."""

import pytest

from repro.errors import ParseError
from repro.twig.ast import Axis, TwigNode, TwigQuery
from repro.twig.parse import parse_twig


def test_parse_simple_path():
    q = parse_twig("/a/b/c")
    assert q.root_axis is Axis.CHILD
    assert [n.label for _, n in q.spine()] == ["a", "b", "c"]
    assert q.selected.label == "c"


def test_parse_descendant_axes():
    q = parse_twig("//a//b")
    assert q.root_axis is Axis.DESC
    axes = [axis for axis, _ in q.spine()]
    assert axes == [Axis.DESC, Axis.DESC]


def test_parse_filters():
    q = parse_twig("/a[b][c/d]/e")
    root = q.root
    assert root.label == "a"
    assert len(root.branches) == 3  # two filters + spine continuation
    assert q.selected.label == "e"


def test_parse_descendant_filter():
    q = parse_twig("/a[.//k]/b")
    filter_axis, filter_node = q.root.branches[0]
    assert filter_axis is Axis.DESC
    assert filter_node.label == "k"


def test_parse_wildcard():
    q = parse_twig("/a/*/c")
    assert [n.label for _, n in q.spine()] == ["a", "*", "c"]


def test_parse_nested_filters():
    q = parse_twig("/a[b[c][d]]/e")
    _, b = q.root.branches[0]
    assert b.label == "b"
    assert sorted(c.label for _, c in b.branches) == ["c", "d"]


def test_parse_rejects_garbage():
    for bad in ("", "a/b", "/a[", "/a]", "/a[]", "//", "/a/"):
        with pytest.raises(ParseError):
            parse_twig(bad)


def test_to_xpath_roundtrip():
    for text in (
        "/a/b/c",
        "//a//b",
        "/a[b][c/d]/e",
        "/a[.//k]/b",
        "/a/*/c",
        "/site/people/person[profile/gender][profile/age]/name",
        "/a[b[c][d]]/e",
    ):
        q = parse_twig(text)
        assert parse_twig(q.to_xpath()) == q


def test_query_equality_ignores_branch_order():
    q1 = parse_twig("/a[b][c]/d")
    q2 = parse_twig("/a[c][b]/d")
    assert q1 == q2
    assert hash(q1) == hash(q2)


def test_query_equality_tracks_selected():
    q1 = parse_twig("/a/b")
    q2 = parse_twig("/a[b]/b")  # same shape? no: extra filter
    assert q1 != q2


def test_selected_must_be_in_pattern():
    root = TwigNode("a")
    stray = TwigNode("b")
    with pytest.raises(ValueError):
        TwigQuery(Axis.CHILD, root, stray)


def test_copy_preserves_selected_identity():
    q = parse_twig("/a/b[c]/d")
    c = q.copy()
    assert c == q
    assert c.selected is not q.selected
    assert c.selected.label == "d"
    assert c.root.contains_node(c.selected)


def test_spine_of_selected_root():
    root = TwigNode("a")
    q = TwigQuery(Axis.CHILD, root, root)
    assert q.spine() == [(Axis.CHILD, root)]


def test_size_and_depth():
    q = parse_twig("/a[b/c]/d")
    assert q.size() == 4
    assert q.depth() == 3


def test_twig_helpers_leave_no_reference_cycles():
    """Each operation's garbage is freed by reference counting alone.

    A recursive inner function closes over itself, so whatever it refers
    to (a query, a clone map, a memo) lives on in a reference cycle until
    the cyclic collector runs.  With the collector off, dropping each
    result must leave nothing for ``gc.collect()`` to find.
    """
    import gc

    from repro.engine import Engine
    from repro.serving.wire import decode_twig_query, encode_twig_query
    from repro.twig.generator import canonical_query_for_node
    from repro.twig.normalize import bool_embeds_at, minimize
    from repro.twig.product import ProductMemo, product
    from repro.xmltree.parser import parse_xml
    from repro.xmltree.tree import XTree

    q = parse_twig("//person[phone]/name")
    doc = XTree(parse_xml(
        "<site><people><person><name>a</name><phone>1</phone>"
        "<phone>2</phone></person></people></site>"))
    target = next(n for n in doc.nodes() if n.label == "name")
    canonical = canonical_query_for_node(doc, target)
    encoded = encode_twig_query(q)
    engine = Engine()
    views = [engine.canonical_query(doc, n) for n in doc.nodes()
             if n.label in ("name", "phone")]

    def products_sharing_one_memo():
        # The views share one pattern, so later products hit the memo.
        memo = ProductMemo()
        return [product(q, view, memo=memo) for view in views]
    operations = {
        "copy": q.copy,
        "canonical": q.canonical,
        "minimize": lambda: minimize(q),
        "bool_embeds_at": lambda: bool_embeds_at(q.root, q.root),
        "canonical_query_for_node":
            lambda: canonical_query_for_node(doc, target),
        # Two phone filters meet one: the product prunes a redundant branch.
        "product": lambda: product(q, canonical),
        "encode_twig_query": lambda: encode_twig_query(q),
        "decode_twig_query": lambda: decode_twig_query(encoded),
        "to_xpath": q.to_xpath,
        "spine": q.spine,
        "canonical_view_from_a_fresh_engine":
            lambda: Engine().canonical_query(doc, target),
        "product_with_a_shared_memo": products_sharing_one_memo,
    }
    for operation in operations.values():
        operation()  # warm any lazy state outside the measurement
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        leftovers = {}
        for name, operation in operations.items():
            result = operation()
            del result
            leftovers[name] = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert leftovers == dict.fromkeys(operations, 0)
