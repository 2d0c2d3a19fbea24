"""The sessions' informativeness ledger against recomputing oracles.

Three checks:

* a differential property: random twig, path and join sessions ask the
  same questions, propagate the same implied labels and learn the same
  query as the recomputing loops in :mod:`tests.session_oracles`;
* a per-round audit of the twig and path ledgers: every verdict the
  ledger returns, settled candidates included, equals a full
  recomputation (widen, then probe every negative).  This is the only
  pin on the twig ledger's "a settled candidate stays settled" for the
  practical twig product, which no proof covers.  ``lgg_path`` breaks
  that rule (a word settled under ``highway`` was informative again
  under ``highway+.national*``), so the path session uses the exact
  ledger, which re-probes settled words after each positive answer;
* an exact oracle for the join version space on small Θ: after every
  answer, ``status`` is implied positive iff every consistent predicate
  selects the pair, and implied negative iff none does.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.datasets.xmark import generate_xmark
from repro.engine import Engine
from repro.graphdb.geo import make_geo_graph
from repro.graphdb.pathquery import PathQuery
from repro.learning.backend import LocalBackend
from repro.learning import graph_session, xml_session
from repro.learning.graph_session import InteractivePathSession
from repro.learning.interactive import (
    HalvingStrategy,
    InteractiveJoinSession,
    LatticeStrategy,
    RandomStrategy,
)
from repro.learning.join_learner import PairStatus
from repro.learning.protocol import InformativenessLedger
from repro.learning.xml_session import InteractiveTwigSession
from repro.relational.generator import make_join_instance
from repro.twig.parse import parse_twig

from .session_oracles import (
    OracleJoinSession,
    OraclePathSession,
    OracleTwigSession,
)

#: (goal, label filter): the four perfbench goals plus two plain paths.
TWIG_GOALS = (
    ("//person[profile]/name", "name"),
    ("//person[phone]/name", "name"),
    ("//item[mailbox]/name", "name"),
    ("//open_auction[bidder]/seller", "seller"),
    ("//person/name", "name"),
    ("//category/name", "name"),
)
#: The last goal mixes two road kinds, so positive answers arrive after
#: candidates have settled and the ledger's third rule gets exercised.
PATH_GOALS = ("highway+", "highway*.road", "(road|highway)+",
              "(highway|national)+")
JOIN_STRATEGIES = ("lattice", "random", "halving")

#: A twig session takes ~0.1 s, so the twig properties draw 4 examples
#: (the twig audit 12); a path session takes ~0.01 s, so the path
#: properties draw 20.
SESSION_SETTINGS = settings(
    max_examples=4, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
#: The audit's fixture patches the ledger once for all examples.
AUDIT_SETTINGS = settings(
    SESSION_SETTINGS,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture])


def _strategy(name: str):
    if name == "lattice":
        return LatticeStrategy()
    if name == "random":
        return RandomStrategy(rng=7)
    return HalvingStrategy()


def _outcome(result):
    return (result.stats.asked, result.stats.questions,
            result.stats.implied_positive, result.stats.implied_negative)


@st.composite
def twig_sessions(draw):
    """A session factory: XMark corpus of 2-4 documents, one goal."""
    seed = draw(st.integers(0, 10_000))
    n_docs = draw(st.integers(2, 4))
    scale = draw(st.sampled_from((0.01, 0.02)))
    goal, label = draw(st.sampled_from(TWIG_GOALS))
    docs = [generate_xmark(scale=scale, rng=seed + i) for i in range(n_docs)]
    # Small corpora may have no node with the goal's label (no auctions).
    assume(any(n.label == label for doc in docs for n in doc.nodes()))

    def make(cls):
        return cls(docs, parse_twig(goal), label_filter=label, max_pool=40,
                   backend=LocalBackend(engine=Engine()))

    return make


@st.composite
def path_sessions(draw):
    """A session factory: a geo graph up to 6x5, two endpoints, one goal."""
    width = draw(st.integers(3, 6))
    height = draw(st.integers(2, 5))
    graph = make_geo_graph(rng=draw(st.integers(0, 10_000)), width=width,
                           height=height, train_probability=0.3)
    target = (f"city_{draw(st.integers(1, width - 1))}_"
              f"{draw(st.integers(0, height - 1))}")
    # A few drawn graphs leave the target unreachable within the length.
    assume(Engine().words_between(graph, "city_0_0", target, max_length=6,
                                  limit=1))
    goal = PathQuery.parse(draw(st.sampled_from(PATH_GOALS)))

    def make(cls):
        return cls(graph, "city_0_0", target, goal, max_length=6,
                   max_candidates=40, backend=LocalBackend(engine=Engine()))

    return make


@st.composite
def join_sessions(draw, left_arity: int = 3, right_arity: int = 3):
    """A session factory: one ``make_join_instance`` draw, one strategy."""
    inst = make_join_instance(
        rng=draw(st.integers(0, 10_000)),
        left_arity=draw(st.integers(2, left_arity)),
        right_arity=draw(st.integers(2, right_arity)),
        left_rows=draw(st.integers(4, 10)),
        right_rows=draw(st.integers(4, 10)),
        goal_pairs=draw(st.integers(1, 2)),
        domain=draw(st.integers(3, 6)))
    strategy = draw(st.sampled_from(JOIN_STRATEGIES))

    def make(cls):
        return cls(inst.left, inst.right, inst.goal,
                   strategy=_strategy(strategy), max_pool=60, rng=0,
                   backend=LocalBackend(engine=Engine()))

    return make


# ---------------------------------------------------------------------------
# Differential: the ledger loops against the recomputing loops
# ---------------------------------------------------------------------------


@SESSION_SETTINGS
@given(make=twig_sessions())
def test_twig_session_matches_recomputing_loop(make):
    ours, oracle = make(InteractiveTwigSession).run(), \
        make(OracleTwigSession).run()
    assert _outcome(ours) == _outcome(oracle)
    assert ours.query == oracle.query


@settings(SESSION_SETTINGS, max_examples=20)
@given(make=path_sessions())
def test_path_session_matches_recomputing_loop(make):
    ours, oracle = make(InteractivePathSession).run(), \
        make(OraclePathSession).run()
    assert _outcome(ours) == _outcome(oracle)
    assert ours.query == oracle.query
    assert ours.questions_to_convergence == oracle.questions_to_convergence


@settings(max_examples=8, deadline=None)
@given(make=join_sessions())
def test_join_session_matches_recomputing_loop(make):
    ours, oracle = make(InteractiveJoinSession).run(), \
        make(OracleJoinSession).run()
    assert _outcome(ours) == _outcome(oracle)
    assert ours.predicate == oracle.predicate


def test_capped_twig_session_matches_recomputing_loop():
    docs = [generate_xmark(scale=0.02, rng=5 + i) for i in range(3)]

    def run(cls):
        return cls(docs, parse_twig("//person[phone]/name"),
                   label_filter="name", max_pool=40).run(max_questions=3)

    ours, oracle = run(InteractiveTwigSession), run(OracleTwigSession)
    assert ours.stats.questions == 3
    assert _outcome(ours) == _outcome(oracle)
    assert ours.query == oracle.query


# ---------------------------------------------------------------------------
# Audit: every ledger verdict equals a full recomputation
# ---------------------------------------------------------------------------


@pytest.fixture
def audited_ledger(monkeypatch):
    """Recompute in full every verdict the sessions' ledgers return.

    Returns the ``(candidate, verdict, hypothesis)`` triples the audit
    checked, so a test can assert that settled candidates were in fact
    re-audited.
    """
    checked: list[tuple[object, bool, object]] = []

    def audited(ledger_class):
        class Audited(ledger_class):
            def implied_negative(self, candidate, hypothesis, negatives):
                verdict = super().implied_negative(candidate, hypothesis,
                                                   negatives)
                if hypothesis is not None and negatives:
                    widened = self._widen(hypothesis, candidate)
                    assert verdict == self._probe(widened, list(negatives))
                checked.append((candidate, verdict, hypothesis))
                return verdict
        return Audited

    monkeypatch.setattr(xml_session, "_TwigLedger",
                        audited(xml_session._TwigLedger))
    monkeypatch.setattr(graph_session, "InformativenessLedger",
                        audited(InformativenessLedger))
    return checked


def _reaudits_after_positive(checked: list[tuple[object, bool, object]],
                             ) -> int:
    """Positive verdicts for a candidate settled under an earlier
    hypothesis, each re-derived in full by the audit."""
    settled_under: dict = {}
    count = 0
    for candidate, verdict, hypothesis in checked:
        if not verdict:
            continue
        if (candidate in settled_under
                and settled_under[candidate] is not hypothesis):
            count += 1
        settled_under.setdefault(candidate, hypothesis)
    return count


@settings(AUDIT_SETTINGS, max_examples=12)
@given(make=twig_sessions())
def test_twig_ledger_verdicts_match_recomputation(audited_ledger, make):
    audited_ledger.clear()
    make(InteractiveTwigSession).run()


@settings(AUDIT_SETTINGS, max_examples=20)
@given(make=path_sessions())
def test_path_ledger_verdicts_match_recomputation(audited_ledger, make):
    audited_ledger.clear()
    make(InteractivePathSession).run()


def test_audit_reaches_settled_candidates(audited_ledger):
    """The audit is not vacuous: candidates settled before a positive
    answer are implied negative again after it, and the audit re-derives
    those verdicts in full.  The twig ledger keeps them settled without a
    probe, which is what the audit pins.  On this path instance a ledger
    that kept settled words settled would return 16 wrong verdicts."""
    docs = [generate_xmark(scale=0.02, rng=11 + i) for i in range(3)]
    InteractiveTwigSession(docs, parse_twig("//person[phone]/name"),
                           label_filter="name", max_pool=40).run()
    twig_reaudits = _reaudits_after_positive(audited_ledger)
    audited_ledger.clear()
    graph = make_geo_graph(rng=3371, width=5, height=2,
                           train_probability=0.3)
    InteractivePathSession(graph, "city_0_0", "city_4_0",
                           PathQuery.parse("(highway|national)+"),
                           max_length=6, max_candidates=40).run()
    assert twig_reaudits > 0
    assert _reaudits_after_positive(audited_ledger) > 0


# ---------------------------------------------------------------------------
# Joins: the version space's status against enumeration of Θ's subsets
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(make=join_sessions(left_arity=2, right_arity=4))
def test_join_status_matches_consistent_hypotheses(make):
    session = make(InteractiveJoinSession)
    space = session.space
    assert len(space.universe) <= 8
    add = space.add

    def add_and_check(example):
        add(example)
        hypotheses = list(space.consistent_hypotheses())
        assert hypotheses  # the goal itself stays consistent
        for pair in session.pool:
            selecting = sum(space.selects(theta, *pair)
                            for theta in hypotheses)
            status = space.status(*pair)
            assert (status is PairStatus.IMPLIED_POSITIVE) == \
                (selecting == len(hypotheses))
            assert (status is PairStatus.IMPLIED_NEGATIVE) == \
                (selecting == 0)

    space.add = add_and_check
    session.run()
