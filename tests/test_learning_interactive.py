"""Interactive join sessions: convergence, propagation, strategy ordering."""

import gc
import random

import pytest

from repro.datasets.xmark import generate_xmark
from repro.engine import Engine
from repro.graphdb.geo import make_geo_graph
from repro.graphdb.pathquery import PathQuery
from repro.learning.backend import LocalBackend
from repro.learning.graph_session import InteractivePathSession
from repro.learning.interactive import (
    HalvingStrategy,
    InteractiveJoinSession,
    LatticeStrategy,
    RandomStrategy,
)
from repro.errors import LearningError
from repro.learning.join_learner import PairExample
from repro.learning.xml_session import InteractiveTwigSession
from repro.relational.generator import make_join_instance
from repro.relational.predicates import predicate_selects
from repro.relational.relation import Relation
from repro.schema.corpus import library_schema
from repro.schema.generation import generate_valid_tree
from repro.twig.parse import parse_twig


def run_session(strategy, seed=3, **kwargs):
    inst = make_join_instance(rng=seed, goal_pairs=2, left_rows=12,
                              right_rows=12, domain=6)
    session = InteractiveJoinSession(inst.left, inst.right, inst.goal,
                                     strategy=strategy, max_pool=100,
                                     rng=seed, **kwargs)
    return inst, session.run()


@pytest.mark.parametrize("strategy", [
    RandomStrategy(rng=1),
    LatticeStrategy(),
    HalvingStrategy(),
])
def test_session_learns_equivalent_predicate(strategy):
    inst, result = run_session(strategy)
    learned = result.predicate
    for lrow in inst.left:
        for rrow in inst.right:
            assert predicate_selects(inst.left, inst.right, lrow, rrow,
                                     learned) == \
                predicate_selects(inst.left, inst.right, lrow, rrow,
                                  inst.goal)


def test_strategies_pick_least_score_then_least_repr():
    """Both scoring strategies pick what ``min`` keyed on
    ``(score, repr(pair))`` picks, on sampled pools (not in ``repr``
    order) labelled part-way, where several pairs tie at the best score."""
    ties = 0
    for seed in range(40):
        inst = make_join_instance(rng=seed, goal_pairs=1 + seed % 2,
                                  left_rows=12, right_rows=12, domain=3)
        session = InteractiveJoinSession(inst.left, inst.right, inst.goal,
                                         max_pool=30, rng=seed)
        pool, space = session.pool, session.space
        assert pool != sorted(pool, key=repr)
        for pair in pool[:random.Random(seed).randint(0, 5)]:
            space.add(PairExample(*pair, session._answer(pair)))
        informative = [p for p in pool if space.is_informative(*p)]
        if not informative:
            continue
        hypotheses = list(space.consistent_hypotheses())
        scores = {
            "lattice": lambda p: -len(space.eq(*p) & space.theta_max),
            "halving": lambda p: abs(2 * sum(h <= space.eq(*p)
                                             for h in hypotheses)
                                     - len(hypotheses)),
        }
        for strategy in (LatticeStrategy(), HalvingStrategy()):
            score = scores[strategy.name]
            expected = min(informative, key=lambda p: (score(p), repr(p)))
            assert strategy.choose(space, informative) == expected
            best = [p for p in informative if score(p) == score(expected)]
            ties += len(best) > 1 and best[0] != expected
    assert ties >= 10


def test_all_pool_pairs_resolved():
    _, result = run_session(LatticeStrategy())
    resolved = (result.stats.questions + result.stats.implied_positive
                + result.stats.implied_negative)
    assert resolved == result.pool_size


def test_propagation_saves_labels():
    """The whole point of the framework: far fewer questions than pairs."""
    _, result = run_session(LatticeStrategy())
    assert result.stats.questions < result.pool_size / 2
    assert result.stats.labels_saved > 0


def test_smart_strategies_beat_random_on_average():
    totals = {"random": 0, "lattice": 0}
    for seed in range(5):
        _, random_result = run_session(RandomStrategy(rng=seed), seed=seed)
        _, lattice_result = run_session(LatticeStrategy(), seed=seed)
        totals["random"] += random_result.stats.questions
        totals["lattice"] += lattice_result.stats.questions
    assert totals["lattice"] <= totals["random"]


def test_max_questions_enforced():
    inst = make_join_instance(rng=5, goal_pairs=2, left_rows=12,
                              right_rows=12, domain=6)
    session = InteractiveJoinSession(inst.left, inst.right, inst.goal,
                                     strategy=RandomStrategy(rng=0),
                                     max_pool=100, rng=5)
    with pytest.raises(LearningError):
        session.run(max_questions=1)


def test_interaction_rate():
    _, result = run_session(HalvingStrategy())
    assert 0 < result.interaction_rate <= 1


def test_empty_pool_is_rejected():
    inst = make_join_instance(rng=3, left_rows=3, right_rows=3)
    for max_pool in (0, -1):
        with pytest.raises(LearningError):
            InteractiveJoinSession(inst.left, inst.right, inst.goal,
                                   max_pool=max_pool)
    with pytest.raises(LearningError):
        InteractiveJoinSession(inst.left, Relation(inst.right.schema),
                               inst.goal)


def _twig_session(backend):
    docs = [generate_xmark(scale=0.02, rng=5 + i) for i in range(3)]
    return lambda: InteractiveTwigSession(
        docs, parse_twig("//person[phone]/name"), label_filter="name",
        max_pool=40, backend=backend)


def _schema_twig_session(backend):
    schema = library_schema()
    docs = [generate_valid_tree(schema, rng=i, max_depth=6, growth=0.8)
            for i in range(8)]
    return lambda: InteractiveTwigSession(
        docs, parse_twig("/library/book/title"), schema=schema,
        label_filter="title", backend=backend)


def _path_session(backend):
    # Positive answers run the convergence check, which samples words.
    graph = make_geo_graph(rng=1, width=5, height=3)
    return lambda: InteractivePathSession(
        graph, "city_0_0", "city_4_2", PathQuery.parse("highway+"),
        max_length=6, backend=backend)


def _join_session(backend):
    inst = make_join_instance(rng=3, goal_pairs=2, left_rows=12,
                              right_rows=12, domain=6)
    return lambda: InteractiveJoinSession(
        inst.left, inst.right, inst.goal, max_pool=100, rng=3,
        backend=backend)


@pytest.mark.parametrize("factory", [
    _twig_session, _schema_twig_session, _path_session, _join_session,
], ids=["twig", "schema-twig", "path", "join"])
def test_session_runs_leave_no_reference_cycles(factory):
    """A session's run state dies by reference counting: a recursive
    closure or a ledger stored on the session would leave its objects to
    the cyclic collector."""
    make = factory(LocalBackend(engine=Engine()))
    make().run()  # warm the engine's indexes and memos
    gc.collect()
    gc.disable()
    try:
        make().run()
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
