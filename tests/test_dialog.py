import itertools
import json
import re

import pytest
from hypothesis import given, strategies as st

from slotlogic import (
    Atom,
    BeliefState,
    DialogAct,
    DomainSpec,
    Predicate,
    Sample,
    Term,
    Turn,
    atom,
    build_sample,
    decode_acts,
    encode_acts,
    encode_state,
)
from slotlogic import dialog
from slotlogic.dialog import (
    SIMDIAL_TARGETS,
    SampleRecord,
    closed_world_negatives,
    load_samples,
    save_samples,
)

RESTAURANT = DomainSpec(
    "restaurant",
    user_slots=("food_pref", "loc"),
    system_slots=("default", "open", "price", "parking"),
)

MOVIE = DomainSpec(
    "movie",
    user_slots=("genre", "years", "country"),
    system_slots=("default", "rating", "company", "director"),
)


def restaurant_state(loc_known=True):
    return BeliefState(
        user_known={"food_pref": False, "loc": loc_known},
        sys_known={s: False for s in RESTAURANT.system_slots},
    )


class TestEncodeState:
    def test_illustrative_turn_atoms(self):
        got = encode_state(restaurant_state(), RESTAURANT)
        expected = {
            atom("known", "loc"),
            atom("unknown", "food_pref"),
            atom("terminal", "term"),
            atom("known", "usr_slot"),
            atom("usr_slots", "usr_slot"),
            atom("succ", "usr_slot", "food_pref"),
            atom("succ", "food_pref", "loc"),
            atom("succ", "loc", "term"),
            atom("unknown", "default"),
            atom("unknown", "open"),
            atom("unknown", "price"),
            atom("unknown", "parking"),
        }
        assert got == expected
        assert len(got) == 12

    def test_all_unknown(self):
        state = BeliefState(
            user_known={s: False for s in RESTAURANT.user_slots},
            sys_known={s: False for s in RESTAURANT.system_slots},
        )
        got = encode_state(state, RESTAURANT)
        known = {a for a in got if a.predicate.name == "known"}
        assert known == {atom("known", "usr_slot")}
        unknowns = {a.args[0].label for a in got if a.predicate.name == "unknown"}
        assert unknowns == set(RESTAURANT.slots)

    def test_movie_state_listing(self):
        state = BeliefState(
            user_known={"genre": True, "years": True, "country": False},
            sys_known={s: False for s in MOVIE.system_slots},
        )
        got = encode_state(state, MOVIE)
        expected = {
            atom("known", "genre"),
            atom("known", "years"),
            atom("unknown", "country"),
            atom("terminal", "term"),
            atom("known", "usr_slot"),
            atom("usr_slots", "usr_slot"),
            atom("succ", "usr_slot", "genre"),
            atom("succ", "genre", "years"),
            atom("succ", "years", "country"),
            atom("succ", "country", "term"),
            atom("unknown", "default"),
            atom("unknown", "rating"),
            atom("unknown", "company"),
            atom("unknown", "director"),
        }
        assert got == expected

    def test_single_acyclic_chain(self):
        got = encode_state(restaurant_state(), RESTAURANT)
        succs = {a for a in got if a.predicate.name == "succ"}
        src = {a.args[0].label for a in succs}
        assert len(src) == len(succs)  # one outgoing edge per node
        node, seen = "usr_slot", []
        by_src = {a.args[0].label: a.args[1].label for a in succs}
        while node != "term":
            assert node not in seen
            seen.append(node)
            node = by_src[node]
        assert seen == ["usr_slot", *RESTAURANT.user_slots]

    def test_kb_return_and_flags(self):
        state = restaurant_state()
        state.kb_return = ("default",)
        state.no_match = True
        got = encode_state(state, RESTAURANT)
        assert atom("kb_return", "default") in got
        assert atom("no_match") in got

    def test_outstanding_goal(self):
        state = restaurant_state()
        state.outstanding = ("default",)
        assert atom("requested", "default") in encode_state(state, RESTAURANT)

    def test_slot_outside_spec(self):
        state = restaurant_state()
        state.user_known["bogus"] = True
        with pytest.raises(ValueError):
            encode_state(state, RESTAURANT)

    def test_kb_return_must_be_system_slot(self):
        state = restaurant_state()
        state.kb_return = ("loc",)
        with pytest.raises(ValueError):
            encode_state(state, RESTAURANT)


class TestEncodeActs:
    def test_user_inform(self):
        assert encode_acts([DialogAct("inform", "loc")], "user") == {atom("inform", "loc")}

    def test_system_request(self):
        got = encode_acts([DialogAct("request", "food_pref")], "system")
        assert got == {atom("sys_request", "food_pref")}

    def test_empty(self):
        assert encode_acts([], "user") == frozenset()

    def test_prefixed_intents_accepted(self):
        got = encode_acts([DialogAct("sys_query", "default")], "system")
        assert got == {atom("sys_query", "default")}

    def test_nooffer_zero_ary(self):
        assert encode_acts([DialogAct("nooffer")], "system") == {atom("nooffer")}

    def test_unknown_intent(self):
        with pytest.raises(ValueError):
            encode_acts([DialogAct("shout", "loc")], "user")

    def test_unknown_system_intent_named_as_written(self):
        with pytest.raises(ValueError, match="unknown system intent 'sys_shout'"):
            encode_acts([DialogAct("sys_shout", "loc")], "system")


class TestBuildSample:
    def make_turn(self):
        return Turn(
            state=restaurant_state(),
            user_acts=[DialogAct("inform", "loc")],
            system_acts=[DialogAct("request", "food_pref")],
        )

    def test_positive_and_negative_split(self):
        sample = build_sample(self.make_turn(), RESTAURANT)
        assert set(sample.positive) == {atom("sys_request", "food_pref")}
        assert atom("sys_request", "loc") in sample.negative
        assert atom("sys_inform", "default") in sample.negative
        assert atom("sys_request", "food_pref") not in sample.negative

    def test_constants(self):
        sample = build_sample(self.make_turn(), RESTAURANT)
        assert set(sample.constants) == {
            "loc", "food_pref", "default", "open", "price", "parking",
            "term", "usr_slot",
        }

    def test_closed_world_count(self):
        sample = build_sample(self.make_turn(), RESTAURANT)
        total = sum(len(sample.constants) ** p.arity for p in SIMDIAL_TARGETS)
        assert len(sample.positive) + len(sample.negative) == total

    def test_goodbye_turn_skipped(self):
        t = self.make_turn()
        t.system_acts = []
        assert not build_sample(t, RESTAURANT).positive

    def test_goodbye_turn_kept_for_eval(self):
        t = self.make_turn()
        t.system_acts = []
        sample = build_sample(t, RESTAURANT)
        total = sum(len(sample.constants) ** p.arity for p in SIMDIAL_TARGETS)
        assert not sample.positive and len(sample.negative) == total

    def test_renaming_equivariance(self):
        # renaming every slot consistently renames the sample
        other = DomainSpec(
            "copy",
            user_slots=("aa", "bb"),
            system_slots=("cc", "dd", "ee", "ff"),
        )
        rename = dict(
            zip(RESTAURANT.user_slots + RESTAURANT.system_slots, other.slots)
        )
        t1 = self.make_turn()
        t2 = Turn(
            state=BeliefState(
                user_known={rename[s]: v for s, v in t1.state.user_known.items()},
                sys_known={rename[s]: v for s, v in t1.state.sys_known.items()},
            ),
            user_acts=[DialogAct(a.intent, rename[a.slot]) for a in t1.user_acts],
            system_acts=[DialogAct(a.intent, rename[a.slot]) for a in t1.system_acts],
        )
        s1 = build_sample(t1, RESTAURANT)
        s2 = build_sample(t2, other)
        rename["term"] = "term"
        rename["usr_slot"] = "usr_slot"

        def translate(atoms):
            return {
                atom(a.predicate.name, *[rename[t.label] for t in a.args])
                for a in atoms
            }

        assert translate(s1.background) == set(s2.background)
        assert translate(s1.positive) == set(s2.positive)
        assert translate(s1.negative) == set(s2.negative)


class TestDecodeActions:
    def test_roundtrip(self):
        acts = [
            DialogAct("inform", "price"),
            DialogAct("query", "default"),
            DialogAct("request", "food_pref"),
            DialogAct("nooffer"),
            DialogAct("offerbooked", "price"),
        ]
        derived = encode_acts(acts, "system")
        assert decode_acts(derived, RESTAURANT.slots) == (
            sorted(((a.intent, a.slot) for a in acts), key=lambda x: (x[0], x[1] or "")),
            [],
        )

    def test_sorted_output(self):
        derived = encode_acts(
            [DialogAct("query", "default"), DialogAct("inform", "price")], "system"
        )
        got, _ = decode_acts(derived, RESTAURANT.slots)
        assert got == [("inform", "price"), ("query", "default")]

    def test_structural_constant_rejected(self):
        bad = atom("sys_request", "term")
        assert decode_acts({bad}, RESTAURANT.slots) == ([], [bad])
        assert decode_acts({bad}, None) == ([], [bad])

    def test_non_act_atom_rejected(self):
        derived = {atom("known", "loc"), atom("sys_inform", "price")}
        assert decode_acts(derived, RESTAURANT.slots) == (
            [("inform", "price")],
            [atom("known", "loc")],
        )

    def test_foreign_slot_rejected_only_against_slots(self):
        foreign = atom("sys_inform", "genre")
        assert decode_acts({foreign}, RESTAURANT.slots) == ([], [foreign])
        assert decode_acts({foreign}, None) == ([("inform", "genre")], [])


def test_sample_records_roundtrip(tmp_path):
    t = Turn(
        state=restaurant_state(),
        user_acts=[DialogAct("inform", "loc")],
        system_acts=[DialogAct("request", "food_pref")],
    )
    sample = build_sample(t, RESTAURANT)
    rec = SampleRecord(sample, meta={"dialog": 0, "turn": 1, "domain": "restaurant"})
    path = tmp_path / "samples.jsonl"
    save_samples([rec], path)
    loaded = load_samples(path)
    assert len(loaded) == 1
    assert loaded[0].sample == sample
    assert loaded[0].meta["turn"] == 1


def test_samples_file_roundtrip_is_byte_identical(tmp_path):
    """A saved samples file loads and saves again to the same bytes: a
    0-arity atom, an empty ``negative`` list and a null ``slots``
    included; its equal lines share one ``Sample``."""
    a = Sample.make([atom("no_match"), atom("known", "loc")], [atom("nooffer")], [], ("loc",))
    b = Sample.make([atom("unknown", "loc")], [], [atom("sys_inform", "loc")], ("loc", "term"))
    records = [SampleRecord(a, {"dialog": 0, "turn": 0, "slots": None}),
               SampleRecord(b, {"dialog": 0, "turn": 1, "slots": ["loc"]}),
               SampleRecord(a, {"dialog": 1, "turn": 0, "slots": None, "supervised": True})]
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    save_samples(records, first)
    loaded = load_samples(first)
    save_samples(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    assert [r.sample for r in loaded] == [a, b, a]
    assert loaded[0].sample is loaded[2].sample
    assert [r.meta for r in loaded] == [r.meta for r in records]


class TestLoadSamplesShares:
    """A samples-file line whose four sample lists equal an earlier line's
    gets that line's ``Sample`` object; every line keeps its own meta and
    its own checks."""

    def lines(self):
        def record(sample, turn):
            return SampleRecord(sample, meta={"dialog": 0, "turn": turn, "slots": ["loc"]}).to_dict()
        a = Sample.make([atom("known", "loc")], [atom("sys_inform", "loc")], [], ("loc",))
        b = Sample.make([atom("unknown", "loc")], [], [atom("sys_inform", "loc")], ("loc",))
        c = Sample.make([atom("known", "loc")], [], [atom("sys_inform", "loc")], ("loc",))
        return [record(a, 0), record(a, 1), record(b, 2), record(a, 3), record(c, 4)]

    @staticmethod
    def write(path, dicts):
        path.write_text("".join(json.dumps(d) + "\n" for d in dicts))
        return path

    def test_repeats_share_one_sample(self, tmp_path):
        lines = self.lines()
        loaded = load_samples(self.write(tmp_path / "s.jsonl", lines))
        assert [r.to_dict() for r in loaded] == lines
        assert loaded[0].sample is loaded[1].sample is loaded[3].sample
        assert len({id(r.sample) for r in loaded}) == 3
        assert [r.meta["turn"] for r in loaded] == [0, 1, 2, 3, 4]
        assert len({id(r.meta) for r in loaded}) == 5
        assert loaded[0].meta["slots"] is not loaded[1].meta["slots"]

    @pytest.mark.parametrize("edit, want", [
        (lambda d: {**d, "positive": d["positive"] + [7]}, "'positive' a list of strings"),
        (lambda d: {**d, "meta": {"slots": "loc"}}, "any 'slots' in it a list"),
        (lambda d: {**d, "meta": {"slots": ["loc", 1]}}, "any 'slots' in it a list of strings"),
        (lambda d: {**d, "meta": {"supervised": "false"}}, "any 'supervised' a JSON boolean"),
        (lambda d: {**d, "meta": {"supervised": 0}}, "any 'supervised' a JSON boolean"),
        (lambda d: {**d, "negative": d["positive"]}, "both positive and negative: sys_inform(loc)"),
        (lambda d: [d], "must be a JSON object"),
    ])
    def test_bad_line_after_repeats_names_its_line(self, tmp_path, edit, want):
        lines = self.lines()
        path = self.write(tmp_path / "s.jsonl", lines + [edit(lines[0])])
        with pytest.raises(ValueError, match=r"line 6: .*" + re.escape(want)):
            load_samples(path)

    def test_unparsable_line_after_repeats_names_its_line(self, tmp_path):
        path = self.write(tmp_path / "s.jsonl", self.lines())
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(ValueError, match="line 6: "):
            load_samples(path)


def test_closed_world_negatives_disjoint():
    pos = {atom("sys_request", "a")}
    neg = closed_world_negatives(pos, ("a", "b"))
    assert pos.isdisjoint(neg)
    assert atom("sys_request", "b") in neg


@given(
    constants=st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True),
    targets=st.lists(st.sampled_from([Predicate("p", 0), Predicate("p", 1), Predicate("q", 1),
                                      Predicate("r", 2)]), unique=True),
    picks=st.lists(st.integers(0, 40)),
)
def test_closed_world_negatives_brute_force(constants, targets, picks):
    every = [
        Atom(p, tuple(Term.const(c) for c in combo))
        for p in targets
        for combo in itertools.product(constants, repeat=p.arity)
    ]
    positives = {every[i] for i in picks if i < len(every)} | {atom("other", constants[0])}
    want = {a for a in every if a not in positives}
    assert closed_world_negatives(positives, constants, targets) == want
    assert closed_world_negatives(positives, tuple(constants), tuple(targets)) == want


def test_grounding_cache_is_bounded():
    assert dialog._target_grounding.cache_info().maxsize is not None


def test_constant_lists_sharing_a_slot_share_its_groundings():
    first = {a.text: a for a in closed_world_negatives((), ("food", "area"))}
    second = {a.text: a for a in closed_world_negatives((), ("price", "food"))}
    assert first["sys_request(food)"] is second["sys_request(food)"]
    assert first["sys_inform(food)"] is second["sys_inform(food)"]
