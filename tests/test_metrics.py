import math
import random

from hypothesis import given, strategies as st

import pytest

from slotlogic import metrics
from slotlogic.metrics import F1Score, evaluate_turns

from .oracles import multiset_counts_via_counter, multiset_f1_counts, reference_evaluate_turns


def turn(pred, gold):
    return [(pred, gold)]


class TestIntentF1:
    def test_exact_match(self):
        t = turn([("request", "loc")], [("request", "loc")])
        assert evaluate_turns(t).intent.f1 == 1.0

    def test_partial(self):
        t = turn([("request", "a")], [("request", "a"), ("inform", "b")])
        s = evaluate_turns(t).intent
        assert s.precision == 1.0
        assert s.recall == 0.5
        assert math.isclose(s.f1, 2 / 3)

    def test_both_empty(self):
        assert evaluate_turns(turn([], [])).intent.f1 == 1.0

    def test_slot_ignored(self):
        t = turn([("request", "a")], [("request", "b")])
        assert evaluate_turns(t).intent.f1 == 1.0


class TestEntityF1:
    def test_exact(self):
        t = turn([("request", "loc")], [("inform", "loc")])
        assert evaluate_turns(t).entity.f1 == 1.0

    def test_disjoint(self):
        t = turn([("request", "loc")], [("request", "food_pref")])
        assert evaluate_turns(t).entity.f1 == 0.0

    def test_slotless_acts_carry_no_entity(self):
        t = turn([("nooffer", None)], [("nooffer", None)])
        s = evaluate_turns(t).entity
        assert s.tp == s.fp == s.fn == 0
        assert s.f1 == 1.0


class TestActionF1:
    def test_exact(self):
        t = turn([("request", "loc")], [("request", "loc")])
        assert evaluate_turns(t).action.f1 == 1.0

    def test_none_prediction_counts_fn(self):
        t = turn([], [("query", "default")])
        s = evaluate_turns(t).action
        assert (s.tp, s.fp, s.fn) == (0, 0, 1)

    def test_intent_entity_bound(self):
        # an action TP is simultaneously an intent TP and an entity TP
        rng = random.Random(7)
        vocab = [("request", "a"), ("inform", "b"), ("query", "c"), ("inform", "a")]
        for _ in range(200):
            pred = rng.sample(vocab, rng.randint(0, 4))
            gold = rng.sample(vocab, rng.randint(0, 4))
            r = evaluate_turns(turn(pred, gold))
            assert r.action.tp <= r.intent.tp
            assert r.action.tp <= r.entity.tp


@given(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4),
    st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4),
)
def test_counts_match_bruteforce_pairing(pred, gold):
    assert multiset_f1_counts(pred, gold) == multiset_counts_via_counter(pred, gold)
    assert metrics._tp(pred, gold) == multiset_f1_counts(pred, gold)[0]


def test_order_invariance():
    turns = [
        ([("request", "a")], [("request", "a")]),
        ([("inform", "b")], [("query", "c")]),
        ([], []),
    ]
    fwd = evaluate_turns(turns)
    rev = evaluate_turns(list(reversed(turns)))
    assert fwd.intent.f1 == rev.intent.f1
    assert fwd.action.f1 == rev.action.f1


def test_standard_error_formula():
    s = F1Score(tp=90, fp=5, fn=5)
    x = s.f1
    assert math.isclose(s.standard_error(500), math.sqrt(x * (1 - x) / 500))


def test_per_domain_breakdown():
    turns = [
        ([("request", "a")], [("request", "a")]),
        ([], [("query", "d")]),
    ]
    report = evaluate_turns(turns, domains=["rest", "movie"])
    assert report.per_domain["rest"]["intent"].f1 == 1.0
    assert report.per_domain["movie"]["intent"].f1 == 0.0
    assert report.domain_turns == {"rest": 1, "movie": 1}


class TestOnePassMatchesReference:
    """``evaluate_turns`` counts each turn once; the six-pass scorer it
    replaced is the reference, field for field."""

    INTENTS = ("request", "inform", "query", "nooffer", None)
    SLOTS = ("a", "b", "c", None)

    def random_turns(self, rng: random.Random, n: int):
        def acts():
            # Small vocabularies make duplicate intents, slots and whole acts
            # common; a zero length makes empty turns.
            return [(rng.choice(self.INTENTS), rng.choice(self.SLOTS))
                    for _ in range(rng.choice((0, 0, 1, 2, 3, 5)))]
        return [(acts(), acts()) for _ in range(n)]

    @staticmethod
    def assert_same(turns, domains):
        got, want = evaluate_turns(turns, domains), reference_evaluate_turns(turns, domains)
        assert got == want
        assert list(got.per_domain) == list(want.per_domain)
        assert got.to_dict() == want.to_dict()
        assert got.summary() == want.summary()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_turns(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            turns = self.random_turns(rng, rng.randint(0, 12))
            labels = ("rest", "movie", "bus+hotel")[: rng.randint(1, 3)]
            self.assert_same(turns, None)
            self.assert_same(turns, [rng.choice(labels) for _ in turns])

    def test_duplicates_none_slots_and_empty_turns(self):
        turns = [
            ([("inform", "a"), ("inform", "a"), ("request", None)],
             [("inform", "a"), ("inform", None), ("request", "a")]),
            ([], []),
            ([("nooffer", None)], []),
            ([], [("query", "b"), ("query", "b")]),
        ]
        report = evaluate_turns(turns, ["x", "y", "x", "y"])
        assert (report.intent.tp, report.intent.fp, report.intent.fn) == (3, 1, 2)
        assert (report.entity.tp, report.entity.fp, report.entity.fn) == (2, 0, 2)
        assert (report.action.tp, report.action.fp, report.action.fn) == (1, 3, 4)
        self.assert_same(turns, None)
        self.assert_same(turns, ["x", "y", "x", "y"])

    def test_no_turns(self):
        self.assert_same([], None)
        self.assert_same([], [])

    def test_domain_count_mismatch(self):
        turns = [([("inform", "a")], [])]
        for scorer in (evaluate_turns, reference_evaluate_turns):
            with pytest.raises(ValueError, match="one domain label per turn required"):
                scorer(turns, ["x", "y"])
