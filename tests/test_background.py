import pytest

from slotlogic import (
    atom,
    background_library,
    parse_clause,
    rename_predicate,
)

from .oracles import boolean_fixpoint


class TestLibraryContents:
    def test_all_clauses(self):
        clauses = set(background_library("all"))
        assert parse_clause("pred1(V0, V1) <- succ(V0, V1), terminal(V1)") in clauses
        assert parse_clause("pred1(V0, V1) <- succ(V0, V1), all(V1)") in clauses
        assert parse_clause("all(V0) <- true(V0), pred1(V0, V1)") in clauses
        assert len(clauses) == 3

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            background_library("frobnicate")


def chain_atoms(nodes, head="usr_slot", term="term"):
    out = [atom("terminal", term), atom("usr_slots", head)]
    prev = head
    for n in nodes:
        out.append(atom("succ", prev, n))
        prev = n
    out.append(atom("succ", prev, term))
    return out


class TestMemberSemantics:
    def test_linked_list_membership(self):
        background = set(chain_atoms(["food_pref", "loc"]))
        constants = ("usr_slot", "food_pref", "loc", "term")
        facts = boolean_fixpoint(
            list(background_library("member")), background, constants
        )
        assert atom("member_usr", "food_pref") in facts
        assert atom("member_usr", "loc") in facts
        assert atom("member_usr", "term") not in facts
        assert atom("member_usr", "usr_slot") not in facts

    def test_longer_chain(self):
        nodes = ["s1", "s2", "s3", "s4"]
        background = set(chain_atoms(nodes))
        constants = ("usr_slot", *nodes, "term")
        facts = boolean_fixpoint(
            list(background_library("member")), background, constants
        )
        for n in nodes:
            assert atom("member_usr", n) in facts
        assert atom("member_usr", "term") not in facts


class TestAllSemantics:
    def test_two_chain_example(self):
        background = {atom("terminal", "t")}
        for x, y in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "t"),
                     ("f", "g"), ("g", "h"), ("h", "t")]:
            background.add(atom("succ", x, y))
        for x in "acdefg":
            background.add(atom("true", x))
        constants = tuple("abcdefgh") + ("t",)
        facts = boolean_fixpoint(
            list(background_library("all")), background, constants
        )
        holds = {x for x in "abcdefgh" if atom("all", x) in facts}
        assert holds == {"c", "d", "e"}

    def test_renamed_property(self):
        clauses = rename_predicate(background_library("all"), "true", "known")
        background = {
            atom("terminal", "t"),
            atom("succ", "x", "y"),
            atom("succ", "y", "t"),
            atom("known", "x"),
            atom("known", "y"),
        }
        facts = boolean_fixpoint(list(clauses), background, ("x", "y", "t"))
        assert atom("all", "x") in facts
        assert not any(a.predicate.name == "true" for c in clauses for a in (c.head, *c.body))
