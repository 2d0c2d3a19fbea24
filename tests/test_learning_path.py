"""Path-query learning: lgg alignment, consistency, interactive sessions."""

import pytest

from repro.datasets.xmark import generate_xmark
from repro.engine import Engine
from repro.errors import LearningError
from repro.graphdb.geo import make_geo_graph
from repro.graphdb.pathquery import PathQuery
from repro.learning.backend import LocalBackend, RemoteBackend
from repro.learning.graph_session import InteractivePathSession
from repro.learning.path_learner import (
    check_path_consistency,
    learn_path_query,
    lgg_path,
    normalize,
)
from repro.learning.workload import WorkloadPriors
from repro.learning.xml_session import InteractiveTwigSession
from repro.serving import AsyncBatchEvaluator, ServerThread, WorkloadClient
from repro.twig.parse import parse_twig

from .session_oracles import OracleTwigSession


def q(text):
    return PathQuery.parse(text)


def test_requires_examples():
    with pytest.raises(LearningError):
        learn_path_query([])


def test_single_word_collapses_runs():
    learned = learn_path_query([("h", "h", "n")])
    assert learned.query == q("h+.n")


def test_repetition_generalises_to_plus():
    learned = learn_path_query([("h",), ("h", "h", "h")])
    assert learned.query == q("h+")


def test_skip_becomes_optional():
    learned = learn_path_query([("h", "n"), ("h",)])
    assert learned.query == q("h.n?")


def test_label_mismatch_becomes_disjunction():
    learned = learn_path_query([("h", "n"), ("h", "l")])
    assert learned.query == q("h.(n|l)")


def test_mixed_generalisation():
    learned = learn_path_query([("h", "h"), ("h", "n", "t"),
                                ("h", "l", "t")])
    # All positives accepted.
    for word in [("h", "h"), ("h", "n", "t"), ("h", "l", "t")]:
        assert learned.query.accepts(word)


def test_lgg_generalizes_both():
    a, b = q("h.h"), q("h.n?")
    merged = lgg_path(a, b)
    assert merged.generalizes(a)
    assert merged.generalizes(b)


def test_normalize_collapses_adjacent():
    raw = PathQuery.of_word(("a", "a", "b"))
    assert normalize(raw) == q("a+.b")


def test_consistency_accepts_and_rejects():
    ok = check_path_consistency([("h", "h"), ("h",)], [("n",)])
    assert ok.consistent
    assert ok.query.accepts(("h", "h", "h"))
    bad = check_path_consistency([("h",), ("h", "h")], [("h", "h", "h")])
    assert not bad.consistent
    assert ("h", "h", "h") in bad.violated


# ---------------------------------------------------------------------------
# Workload priors
# ---------------------------------------------------------------------------


def test_priors_prefer_recorded_labels():
    priors = WorkloadPriors(["h", "n", "l"])
    priors.record(q("h+"))
    priors.record(q("h.h"))
    assert priors.probability("h") > priors.probability("n")
    ranked = priors.rank([("n", "n"), ("h", "h")])
    assert tuple(ranked[0]) == ("h", "h")


def test_priors_empty_alphabet_rejected():
    with pytest.raises(ValueError):
        WorkloadPriors([])


def test_priors_smoothing_nonzero():
    priors = WorkloadPriors(["h", "n"])
    assert priors.probability("n") > 0


# ---------------------------------------------------------------------------
# Interactive sessions
# ---------------------------------------------------------------------------


def test_session_learns_goal_language():
    g = make_geo_graph(rng=2)
    goal = q("highway+")
    session = InteractivePathSession(g, "city_0_0", "city_2_0", goal,
                                     max_length=4, max_candidates=50)
    result = session.run()
    assert result.query is not None
    # Learned query agrees with the goal on all candidate words.
    for word in session.candidates:
        assert result.query.accepts(word) == goal.accepts(word)


def test_session_no_paths_raises():
    g = make_geo_graph(rng=2)
    with pytest.raises(LearningError):
        InteractivePathSession(g, "city_0_0", "city_0_0", q("highway"),
                               max_length=3)


def test_priors_do_not_hurt_convergence():
    g = make_geo_graph(rng=4, width=4, height=3)
    goal = q("highway+")
    priors = WorkloadPriors(g.labels())
    priors.record(q("highway+"))
    priors.record(q("highway.highway"))
    base = InteractivePathSession(g, "city_0_0", "city_2_0", goal,
                                  max_length=5, max_candidates=80).run()
    primed = InteractivePathSession(g, "city_0_0", "city_2_0", goal,
                                    priors=priors, max_length=5,
                                    max_candidates=80).run()
    if base.questions_to_convergence and primed.questions_to_convergence:
        assert primed.questions_to_convergence <= \
            base.questions_to_convergence + 1


def test_remote_session_sends_no_empty_workload(monkeypatch):
    """No session probe carries an empty workload: over the wire each
    probe is a round trip.  Before the first negative answer no pending
    candidate can be implied negative, and a ledger entry that is up to
    date (as every entry is in a capped twig run's final propagation)
    has nothing left to probe.  The ledger also cuts a remote twig
    session's round trips below the recomputing loop's."""
    sizes: list[int] = []
    stream = WorkloadClient.stream

    def counting_stream(self, workload, **options):
        sizes.append(len(workload))
        return stream(self, workload, **options)

    monkeypatch.setattr(WorkloadClient, "stream", counting_stream)
    g = make_geo_graph(rng=1, width=5, height=4)
    goal = q("highway+")
    docs = [generate_xmark(scale=0.02, rng=700 + i) for i in range(3)]
    twig_goal = parse_twig("//person[phone]/name")

    def session(backend):
        return InteractivePathSession(
            g, "city_0_0", "city_3_0", goal, max_length=8,
            max_candidates=80, backend=backend).run()

    def twig_session(backend, cls=InteractiveTwigSession, **options):
        return cls(docs, twig_goal, label_filter="name", max_pool=40,
                   backend=backend).run(**options)

    baseline = session(LocalBackend(Engine()))
    twig_baseline = twig_session(LocalBackend(Engine()))
    capped_baseline = twig_session(LocalBackend(Engine()), max_questions=2)
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server:
        with RemoteBackend(*server.address) as backend:
            remote = session(backend)
            twig_remote = twig_session(backend)
            capped = twig_session(backend, max_questions=2)
        with RemoteBackend(*server.address) as backend:
            twig_session(backend)
            ledger_requests = backend.client.requests
        ledger_sizes = list(sizes)
        with RemoteBackend(*server.address) as backend:
            twig_session(backend, OracleTwigSession)
            oracle_requests = backend.client.requests
    assert remote.stats == baseline.stats
    assert twig_remote.stats == twig_baseline.stats
    assert capped.stats == capped_baseline.stats
    assert capped.stats.questions == 2
    assert ledger_sizes and 0 not in ledger_sizes
    assert ledger_requests < oracle_requests
