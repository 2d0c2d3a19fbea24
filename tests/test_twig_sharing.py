"""Twig patterns are read-only values: sharing them changes no answer.

Canonical queries are views of one pattern per document snapshot, and
products hand out memoised Boolean products instead of copies, so a
product may be a DAG and a memo may serve many products.  Three
properties pin what that sharing relies on and what it promises:

* no operation changes its inputs: ``canonical()`` of every input is the
  same after ``product``, ``iter_products``, ``anchor_repair``,
  ``minimize``, ``to_xpath`` and engine evaluation;
* one memo shared across a sequence of right factors from two documents,
  one of them edited partway through, gives every product exactly as it
  is computed without a memo;
* a DAG-shaped product behaves like its tree copy: it selects the same
  nodes, and ``minimize`` gives equal results on both.

Inputs are random twig pairs from ``random_twig`` and canonical views of
random XMark nodes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.xmark import generate_xmark
from repro.engine import Engine
from repro.twig.anchored import anchor_repair
from repro.twig.ast import TwigQuery
from repro.twig.generator import random_twig
from repro.twig.normalize import minimize
from repro.twig.parse import parse_twig
from repro.twig.product import ProductMemo, iter_products, product
from repro.twig.semantics import evaluate_naive
from repro.xmltree.tree import XTree

from .conftest import xml, xnode_trees

TWIG_LABELS = ("a", "b", "c")
#: Labels the XMark generator emits, for random twigs that meet its views.
XMARK_LABELS = ("site", "people", "person", "name", "phone", "profile",
                "item", "mailbox", "category", "open_auction", "bidder",
                "seller")
#: Label filters for the shared-memo sequences, as a session would use.
FILTERS = ("name", "person", "item")

SHARING_SETTINGS = settings(max_examples=30, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])


def _seed(draw) -> int:
    return draw(st.integers(0, 2**16))


def _view(draw, engine: Engine, doc: XTree,
          label: str | None = None) -> TwigQuery:
    nodes = [n for n in doc.nodes() if label is None or n.label == label]
    nodes = nodes or list(doc.nodes())
    return engine.canonical_query(doc, draw(st.sampled_from(nodes)))


@st.composite
def factor_pairs(draw):
    """``((p, q), documents, practical)``: two random twigs over a small
    alphabet (either product mode), a random XMark twig and an XMark
    view, or two XMark views (practical mode: the exact product of two
    whole documents is too large for a property)."""
    kind = draw(st.sampled_from(("twigs", "twig-view", "views")))
    if kind == "twigs":
        p, q = (random_twig(TWIG_LABELS, spine_length=draw(st.integers(1, 4)),
                            filter_probability=0.6, max_filter_depth=3,
                            rng=_seed(draw))
                for _ in range(2))
        return (p, q), [XTree(draw(xnode_trees()))], draw(st.booleans())
    engine = Engine()
    docs = [generate_xmark(scale=0.01, rng=_seed(draw)) for _ in range(2)]
    q = _view(draw, engine, docs[1])
    if kind == "twig-view":
        p = random_twig(XMARK_LABELS, spine_length=draw(st.integers(1, 3)),
                        rng=_seed(draw))
    else:
        p = _view(draw, engine, docs[0], q.selected.label)
    return (p, q), docs, True


@SHARING_SETTINGS
@given(factor_pairs())
def test_operations_leave_their_inputs_unchanged(pair):
    (p, q), docs, practical = pair
    forms = [p.canonical(), q.canonical()]
    widened = product(p, q, practical=practical)
    alternatives = list(iter_products(p, q, practical=practical, limit=3))
    engine = Engine()
    for query in (p, q, widened, *alternatives):
        form = query.canonical()
        repaired, _ = anchor_repair(query)
        minimize(query)
        minimize(repaired)
        query.to_xpath()
        for doc in docs:
            engine.evaluate_twig(query, doc)
        assert query.canonical() == form
    assert [p.canonical(), q.canonical()] == forms


def _edit(doc: XTree, kind: str, position: int) -> None:
    """One tracked edit at pre-order ``position`` (the root is never
    deleted or relabelled away from the document's shape)."""
    nodes = list(doc.nodes())
    node = nodes[1 + position % (len(nodes) - 1)]
    if kind == "insert":
        doc.insert_subtree(node, node.copy(), 0)
    elif kind == "delete":
        doc.delete_subtree(node)
    else:
        doc.relabel_node(node, label="name")


def _hypothesis(draw, engine: Engine, docs: list[XTree],
                label: str) -> TwigQuery:
    """A hypothesis as a session builds one: a view of the first
    document, maybe generalised with a view of the second, minimised.
    ``minimize`` copies, so the hypothesis keeps no view alive."""
    query = _view(draw, engine, docs[0], label)
    if draw(st.booleans()):
        query, _ = anchor_repair(
            product(query, _view(draw, engine, docs[1], label)))
    return minimize(query)


@SHARING_SETTINGS
@given(st.data(), st.sampled_from(FILTERS),
       st.sampled_from(("insert", "delete", "relabel")))
def test_a_shared_memo_gives_each_product_as_computed_alone(data, label,
                                                            edit):
    docs = [generate_xmark(scale=0.01, rng=data.draw(st.integers(0, 2**16)))
            for _ in range(2)]
    engine = Engine()
    hypothesis = _hypothesis(data.draw, engine, docs, label)
    memo = ProductMemo()
    steps = data.draw(st.integers(2, 8))
    edit_at = data.draw(st.integers(1, steps - 1))
    q = None
    for step in range(steps):
        if step == edit_at:
            # Drop the last view first: from here on only the memo keeps
            # the edited document's old pattern alive, so the new
            # pattern's nodes could otherwise take its nodes' ids.
            q = None
            _edit(docs[0], edit, data.draw(st.integers(0, 10**6)))
        q = _view(data.draw, engine, docs[data.draw(st.integers(0, 1))],
                  label)
        assert product(hypothesis, q, memo=memo) == product(hypothesis, q)


def test_a_memo_serves_only_its_own_product_mode():
    p, q = parse_twig("/a[b]"), parse_twig("/a[c]")
    exact = ProductMemo(practical=False)
    assert product(p, q, practical=False, memo=exact) == product(
        p, q, practical=False)
    with pytest.raises(ValueError, match="practical"):
        product(p, q, memo=exact)


def _is_dag(query: TwigQuery) -> bool:
    ids = [id(n) for n in query.nodes()]
    return len(ids) != len(set(ids))


def _assert_behaves_like_its_copy(query: TwigQuery,
                                  docs: list[XTree]) -> None:
    tree = query.copy()
    assert not _is_dag(tree)
    for doc in docs:
        # Separate engines: one engine would answer the copy from the
        # query cache, keyed by the (equal) canonical forms.
        dag_answer = Engine().evaluate_twig(query, doc)
        tree_answer = Engine().evaluate_twig(tree, doc)
        assert [id(n) for n in dag_answer] == [id(n) for n in tree_answer]
        assert ([id(n) for n in evaluate_naive(query, doc)]
                == [id(n) for n in tree_answer])
    assert minimize(query) == minimize(tree)
    assert query.to_xpath() == tree.to_xpath()


@st.composite
def document_view_pairs(draw):
    """Views of two small random documents, where products share nodes
    more often than over XMark (labels repeat along paths)."""
    engine = Engine()
    docs = [XTree(draw(xnode_trees())) for _ in range(2)]
    views = [engine.canonical_query(doc, draw(st.sampled_from(
        list(doc.nodes())))) for doc in docs]
    return tuple(views), docs, draw(st.booleans())


@SHARING_SETTINGS
@given(st.one_of(factor_pairs(), document_view_pairs()))
def test_products_behave_like_their_tree_copies(case):
    (p, q), docs, practical = case
    for query in (product(p, q, practical=practical),
                  *iter_products(p, q, practical=practical, limit=3)):
        _assert_behaves_like_its_copy(query, docs)


def test_a_dag_shaped_product_behaves_like_its_copy():
    # Two filters of this product reach one memoised ``a`` node.
    docs = [xml("<b><b><a><b/></a></b></b>"),
            xml("<b><b><b><a/></b></b></b>")]
    engine = Engine()
    p, q = (engine.canonical_query(doc, doc.root) for doc in docs)
    query = product(p, q)
    assert _is_dag(query)
    _assert_behaves_like_its_copy(query, docs)
