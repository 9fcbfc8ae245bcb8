import pytest

from slotlogic import atom, convert_multiwoz_records
from slotlogic.multiwoz import (
    convert_multiwoz_turn,
    encode_act_triples,
    normalize_slot,
    read_domain_state,
)

RESTAURANT_STATE = {
    "book": {"booked": [], "people": "", "day": "", "time": ""},
    "semi": {
        "food": "eritrean",
        "pricerange": "not mentioned",
        "name": "not mentioned",
        "area": "west",
    },
}


class TestEncodeState:
    def test_first_turn_nine_atoms(self):
        got, _ = read_domain_state(RESTAURANT_STATE)
        expected = {
            atom("usr_inform", "food"),
            atom("usr_inform", "area"),
            atom("known", "food"),
            atom("unknown", "price"),
            atom("unknown", "name"),
            atom("known", "area"),
            atom("unknown", "people"),
            atom("unknown", "day"),
            atom("unknown", "time"),
        }
        assert got == expected
        assert len(got) == 9

    def test_pricerange_renamed(self):
        got, _ = read_domain_state({"semi": {"pricerange": "cheap"}})
        assert atom("usr_inform", "price") in got

    def test_booked_section_ignored(self):
        assert read_domain_state({"book": {"booked": [{"ref": "X"}]}}) == (set(), ())

    def test_slots_in_first_mention_order(self):
        state = {"semi": {"food": "thai", "Price Range": "", "booked": "yes"},
                 "book": {"people": "2", "booked": [], "food": "thai"}}
        assert read_domain_state(state)[1] == ("food", "price_range", "booked", "people")

    def test_slot_that_normalizes_to_none_skipped(self):
        atoms, slots = read_domain_state({"semi": {"none": "x", "food": "thai"},
                                          "book": {"?": ""}})
        assert atoms == {atom("usr_inform", "food"), atom("known", "food")}
        assert slots == ("food",)


class TestActTriples:
    def test_user_informs(self):
        got = encode_act_triples(
            [["inform", "restaurant", "food"], ["inform", "restaurant", "area"]],
            "user",
        )
        assert got == {
            "restaurant": {atom("inform", "food"), atom("inform", "area")}
        }

    def test_nooffer_and_general_dropped(self):
        got = encode_act_triples(
            [["nooffer", "restaurant", "none"], ["reqmore", "general", "none"]],
            "system",
        )
        assert got == {"restaurant": {atom("nooffer")}}

    def test_select_recommend_offerbook_are_inform(self):
        for intent in ("select", "recommend", "offerbook"):
            got = encode_act_triples([[intent, "restaurant", "food"]], "system")
            assert got == {"restaurant": {atom("sys_inform", "food")}}

    def test_offerbooked_arity(self):
        with_slot = encode_act_triples([["offerbooked", "hotel", "ref"]], "system")
        assert with_slot == {"hotel": {atom("offerbooked", "ref")}}
        without = encode_act_triples([["offerbooked", "hotel", "none"]], "system")
        assert without == {"hotel": {atom("offerbooked")}}

    def test_unknown_intent_raises(self):
        with pytest.raises(ValueError):
            encode_act_triples([["teleport", "restaurant", "food"]], "system")

    @pytest.mark.parametrize("triple", [["inform", None, "area"], ["inform", 7, "area"],
                                        [None, "restaurant", "area"], ["inform", "restaurant", 7]],
                             ids=["null-domain", "number-domain", "null-intent", "number-slot"])
    def test_intent_and_domain_must_be_strings(self, triple):
        with pytest.raises(ValueError, match="triples of strings, the slot a string or null"):
            encode_act_triples([triple], "user")

    def test_null_slot_is_no_slot(self):
        got = encode_act_triples([["nooffer", "restaurant", None]], "system")
        assert got == {"restaurant": {atom("nooffer")}}

    def test_unknown_side_raises(self):
        with pytest.raises(ValueError, match="side must be user or system, got 'other'"):
            encode_act_triples([["inform", "restaurant", "food"]], "other")


class TestConvertTurn:
    def turn(self):
        return {
            "state": {"restaurant": RESTAURANT_STATE},
            "user_acts": [
                ["inform", "restaurant", "food"],
                ["inform", "restaurant", "area"],
            ],
            "system_acts": [
                ["nooffer", "restaurant", "none"],
                ["reqmore", "general", "none"],
            ],
            "db": {"restaurant": {"no_match": True}},
        }

    def test_background_assembled(self):
        [(domain, sample)] = convert_multiwoz_turn(self.turn())
        assert domain == "restaurant"
        bg = set(sample.background)
        assert atom("inform", "food") in bg
        assert atom("usr_inform", "food") in bg
        assert atom("no_match") in bg

    def test_positives(self):
        [(_, sample)] = convert_multiwoz_turn(self.turn())
        assert set(sample.positive) == {atom("nooffer")}

    def test_closed_world_negatives(self):
        [(_, sample)] = convert_multiwoz_turn(self.turn())
        n = len(sample.constants)
        assert len(sample.positive) + len(sample.negative) == 2 * n + 1 + 1 + n

    def test_constants_are_domain_slots(self):
        [(_, sample)] = convert_multiwoz_turn(self.turn())
        assert set(sample.constants) == {
            "people", "day", "time", "food", "price", "name", "area",
        }

    def test_domain_split(self):
        record = {
            "state": {
                "restaurant": {"semi": {"food": "thai"}},
                "hotel": {"semi": {"area": "north"}},
            },
            "user_acts": [["inform", "restaurant", "food"]],
            "system_acts": [
                ["request", "hotel", "area"],
                ["inform", "restaurant", "food"],
            ],
        }
        out = dict(convert_multiwoz_turn(record))
        assert set(out) == {"restaurant", "hotel"}
        assert atom("sys_request", "area") in out["hotel"].positive
        assert atom("sys_inform", "food") in out["restaurant"].positive
        assert atom("inform", "food") not in out["hotel"].background


    def test_general_state_section_ignored(self):
        general = {"semi": {"food": "thai"}, "book": {"people": "2"}}
        out = convert_multiwoz_turn({"state": {"general": general,
                                               "restaurant": {"semi": {"area": "west"}}}})
        assert [d for d, _ in out] == ["restaurant"]
        assert out[0][1].constants == ("area",)
        assert convert_multiwoz_turn({"state": {"general": general}}) == []

    def test_db_pointer_for_an_act_only_domain_kept(self):
        out = dict(convert_multiwoz_turn({
            "state": {"restaurant": {"semi": {"food": "thai"}}},
            "system_acts": [["request", "hotel", "area"]], "db": {"hotel": {"no_match": True}}}))
        assert atom("no_match") in out["hotel"].background

    def test_slot_that_normalizes_to_none_is_no_constant(self):
        [(_, sample)] = convert_multiwoz_turn(
            {"state": {"restaurant": {"semi": {"none": "x", "food": "thai"}}}})
        assert sample.constants == ("food",)
        assert set(sample.background) == {atom("usr_inform", "food"), atom("known", "food")}


class TestConvertDialog:
    def test_general_only_dialog_empty(self):
        record = {
            "turns": [
                {
                    "state": {},
                    "user_acts": [["inform", "general", "none"]],
                    "system_acts": [["reqmore", "general", "none"]],
                }
            ]
        }
        assert convert_multiwoz_records(record) == []

    def test_turn_order_preserved(self):
        record = {
            "turns": [
                {
                    "state": {"restaurant": {"semi": {"food": "thai"}}},
                    "user_acts": [["inform", "restaurant", "food"]],
                    "system_acts": [["request", "restaurant", "area"]],
                },
                {
                    "state": {"restaurant": {"semi": {"food": "thai", "area": "west"}}},
                    "user_acts": [["inform", "restaurant", "area"]],
                    "system_acts": [["nooffer", "restaurant", "none"]],
                },
            ]
        }
        out = convert_multiwoz_records(record)
        assert [r.meta["turn"] for r in out] == [0, 1]
        assert atom("sys_request", "area") in out[0].sample.positive
        assert atom("nooffer") in out[1].sample.positive

    def test_schema_violation_carries_turn(self):
        record = {"turns": [{"state": [], "user_acts": [], "system_acts": []}]}
        with pytest.raises(ValueError) as exc:
            convert_multiwoz_records(record)
        assert "turn 0" in str(exc.value)

    def test_null_act_domain_carries_turn(self):
        record = {"turns": [{"state": {}, "user_acts": [], "system_acts": []},
                            {"state": {}, "user_acts": [["inform", None, "area"]],
                             "system_acts": []}]}
        with pytest.raises(ValueError, match="^turn 1: user acts must be"):
            convert_multiwoz_records(record)

    def test_records_meta(self):
        record = {
            "turns": [
                {
                    "state": {"restaurant": {"semi": {"food": "thai"}}},
                    "user_acts": [],
                    "system_acts": [["request", "restaurant", "food"]],
                }
            ]
        }
        [rec] = convert_multiwoz_records(record, dialog_id="d7")
        assert rec.meta["dialog"] == "d7"
        assert rec.meta["domain"] == "restaurant"
        assert rec.meta["supervised"]


def test_normalize_slot():
    assert normalize_slot("Pricerange") == "price"
    assert normalize_slot("none") is None
    assert normalize_slot("Leave At") == "leave_at"
