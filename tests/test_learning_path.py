"""Path-query learning: lgg alignment, consistency, interactive sessions."""

import pytest

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
from repro.serving import AsyncBatchEvaluator, ServerThread, WorkloadClient


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
    """Before the first negative answer no pending word can be implied
    negative, so the session must not probe: over the wire each probe
    is a round trip carrying an empty workload."""
    sizes: list[int] = []
    stream = WorkloadClient.stream

    def counting_stream(self, workload, **options):
        sizes.append(len(workload))
        return stream(self, workload, **options)

    monkeypatch.setattr(WorkloadClient, "stream", counting_stream)
    g = make_geo_graph(rng=1, width=5, height=4)
    goal = q("highway+")

    def session(backend):
        return InteractivePathSession(
            g, "city_0_0", "city_3_0", goal, max_length=8,
            max_candidates=80, backend=backend).run()

    baseline = session(LocalBackend(Engine()))
    with ServerThread(AsyncBatchEvaluator(engine=Engine())) as server, \
            RemoteBackend(*server.address) as backend:
        remote = session(backend)
    assert remote.stats == baseline.stats
    assert sizes and 0 not in sizes
