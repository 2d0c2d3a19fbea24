"""Join learning: version-space invariants and the PTIME consistency check."""

import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    InconsistentExamplesError,
    LearningError,
    RelationalError,
)
from repro.learning import join_learner
from repro.learning.join_learner import (
    JoinVersionSpace,
    PairExample,
    PairStatus,
    check_join_consistency,
    learn_join,
)
from repro.relational.generator import make_join_instance
from repro.relational.predicates import agreement_pairs, predicate_selects
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

R = Relation(RelationSchema("r", ("a", "b")),
             [(1, 1), (1, 2), (2, 2), (3, 1)])
S = Relation(RelationSchema("s", ("c", "d")),
             [(1, 1), (2, 1), (2, 2), (9, 9)])


def label_all(goal):
    return [
        PairExample(lr, rr, predicate_selects(R, S, lr, rr, goal))
        for lr in R for rr in S
    ]


def test_learn_recovers_goal_with_full_labels():
    goal = frozenset({("a", "c")})
    result = learn_join(R, S, label_all(goal))
    # Most specific consistent hypothesis contains the goal.
    assert goal <= result.predicate
    # And selects exactly the same pairs on the instance.
    for lr in R:
        for rr in S:
            assert predicate_selects(R, S, lr, rr, result.predicate) == \
                predicate_selects(R, S, lr, rr, goal)


def test_learn_two_pair_goal():
    goal = frozenset({("a", "c"), ("b", "d")})
    result = learn_join(R, S, label_all(goal))
    for lr in R:
        for rr in S:
            assert predicate_selects(R, S, lr, rr, result.predicate) == \
                predicate_selects(R, S, lr, rr, goal)


def test_requires_positive():
    with pytest.raises(LearningError):
        learn_join(R, S, [PairExample((1, 1), (1, 1), False)])


def test_inconsistency_detected():
    # Same pair labelled both ways is inconsistent.
    examples = [PairExample((1, 1), (1, 1), True),
                PairExample((1, 1), (1, 1), False)]
    assert not check_join_consistency(R, S, examples)
    with pytest.raises(InconsistentExamplesError):
        learn_join(R, S, examples)


def test_consistency_is_theta_max_check():
    space = JoinVersionSpace(R, S)
    space.add(PairExample((1, 1), (1, 1), True))
    assert space.is_consistent()
    # A negative agreeing on everything Theta has kills consistency.
    space.add(PairExample((1, 1), (1, 1), False))
    assert not space.is_consistent()


def test_implied_positive_status():
    space = JoinVersionSpace(R, S)
    space.add(PairExample((1, 1), (1, 1), True))  # agrees on everything
    space.add(PairExample((1, 2), (1, 1), True))  # kills b=c and b=d
    assert space.theta_max == frozenset({("a", "c"), ("a", "d")})
    # (2,2)-(2,2) agrees on all four pairs, a superset of Theta: implied.
    assert space.status((2, 2), (2, 2)) is PairStatus.IMPLIED_POSITIVE


def test_implied_negative_status():
    space = JoinVersionSpace(R, S)
    space.add(PairExample((1, 1), (1, 1), True))
    space.add(PairExample((1, 2), (2, 2), False))  # agree on b=d only? ...
    negative_eq = space.negative_eqs[0]
    # Any unlabeled pair whose candidate set is inside the negative's
    # agreement is implied negative.
    for lr in R:
        for rr in S:
            if space.theta_max & space.eq(lr, rr) <= negative_eq:
                assert space.status(lr, rr) is PairStatus.IMPLIED_NEGATIVE


def test_unknown_attribute_in_universe_raises():
    examples = [PairExample((1, 1), (1, 1), True)]
    with pytest.raises(RelationalError):
        check_join_consistency(R, S, examples, universe=[("a", "zz")])
    with pytest.raises(RelationalError):
        learn_join(R, S, examples, universe=[("zz", "c")])


def test_consistent_hypotheses_enumeration():
    space = JoinVersionSpace(R, S)
    space.add(PairExample((1, 1), (1, 1), True))
    hypotheses = list(space.consistent_hypotheses(limit=100))
    assert frozenset() in hypotheses           # empty predicate consistent
    assert space.theta_max in hypotheses       # most specific one too
    # Sizes are non-increasing (most specific first).
    sizes = [len(h) for h in hypotheses]
    assert sizes == sorted(sizes, reverse=True)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_version_space_invariants_random(seed):
    inst = make_join_instance(rng=seed, left_rows=8, right_rows=8,
                              goal_pairs=1, domain=4)
    space = JoinVersionSpace(inst.left, inst.right)
    pairs = [(lr, rr) for lr in inst.left for rr in inst.right]
    computed = Counter()

    def counting(left, right, lrow, rrow, universe):
        computed[lrow, rrow] += 1
        return agreement_pairs(left, right, lrow, rrow, universe)

    with mock.patch.object(join_learner, "agreement_pairs", counting):
        for lr, rr in pairs[:30]:
            label = predicate_selects(inst.left, inst.right, lr, rr,
                                      inst.goal)
            space.add(PairExample(lr, rr, label))
        for lr, rr in pairs[:60]:
            space.status(lr, rr)
            assert space.eq(lr, rr) == agreement_pairs(
                inst.left, inst.right, lr, rr, space.universe)
    # The space memoises each pair's agreement set: computed once, however
    # often the adds, the statuses and the checks above read it.
    assert computed == Counter(pairs[:60])
    # Oracle labels are always consistent...
    assert space.is_consistent()
    # ...the goal is below Theta...
    assert inst.goal <= space.theta_max
    # ...and statuses are sound: implied-positive pairs are goal-selected,
    # implied-negative pairs are goal-rejected.
    for lr, rr in pairs[30:60]:
        status = space.status(lr, rr)
        goal_label = predicate_selects(inst.left, inst.right, lr, rr,
                                       inst.goal)
        if status is PairStatus.IMPLIED_POSITIVE:
            assert goal_label
        elif status is PairStatus.IMPLIED_NEGATIVE:
            assert not goal_label


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(2, 4))
def test_masks_decode_to_agreement_sets_and_status_follows_the_set_rule(
        seed, goal_pairs, domain):
    """After every answer, each pair's agreement mask decodes to its
    agreement set, Θ and the negatives' sets are the intersection and the
    list of the labelled pairs' sets, and the status of every pair is the
    frozenset rule: implied positive iff Θ ⊆ eq, implied negative iff
    Θ ∩ eq ⊆ eq(n) for some negative n."""
    inst = make_join_instance(rng=seed, left_rows=6, right_rows=6,
                              goal_pairs=goal_pairs, domain=domain)
    space = JoinVersionSpace(inst.left, inst.right)
    universe = sorted(space.universe)
    pairs = [(lr, rr) for lr in inst.left for rr in inst.right]
    random.Random(seed).shuffle(pairs)
    eqs = {pair: agreement_pairs(inst.left, inst.right, *pair,
                                 space.universe) for pair in pairs}
    theta, negatives = space.universe, []
    for asked in pairs[:10]:
        positive = predicate_selects(inst.left, inst.right, *asked,
                                     inst.goal)
        space.add(PairExample(*asked, positive))
        if positive:
            theta = theta & eqs[asked]
        else:
            negatives.append(eqs[asked])
        assert space.theta_max == theta
        assert space.negative_eqs == negatives
        for pair in pairs:
            eq = eqs[pair]
            mask = space._mask(*pair)
            assert frozenset(p for i, p in enumerate(universe)
                             if mask >> i & 1) == eq
            if theta <= eq:
                expected = PairStatus.IMPLIED_POSITIVE
            elif any(theta & eq <= n for n in negatives):
                expected = PairStatus.IMPLIED_NEGATIVE
            else:
                expected = PairStatus.INFORMATIVE
            assert space.status(*pair) is expected
            assert space.theta_overlap(*pair) == len(theta & eq)
