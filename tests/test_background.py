from slotlogic import atom, parse_clause
from slotlogic.pipeline import simdial_background

from .oracles import boolean_fixpoint

BACKGROUND = list(simdial_background()[0])


class TestLibraryContents:
    def test_all_clauses(self):
        assert BACKGROUND == [parse_clause(t) for t in (
            "pred1(V0, V1) <- all(V1), succ(V0, V1)",
            "pred1(V0, V1) <- succ(V0, V1), terminal(V1)",
            "all(V0) <- known(V0), pred1(V0, V1)",
            "member(V0, V1) <- succ(V0, V2), succ(V1, V0)",
            "member(V0, V1) <- member(V0, V2), succ(V1, V2)",
            "member_usr(V0) <- member(V0, V1), usr_slots(V1)",
        )]


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
        facts = boolean_fixpoint(BACKGROUND, background, constants)
        assert atom("member_usr", "food_pref") in facts
        assert atom("member_usr", "loc") in facts
        assert atom("member_usr", "term") not in facts
        assert atom("member_usr", "usr_slot") not in facts

    def test_longer_chain(self):
        nodes = ["s1", "s2", "s3", "s4"]
        background = set(chain_atoms(nodes))
        constants = ("usr_slot", *nodes, "term")
        facts = boolean_fixpoint(BACKGROUND, background, constants)
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
            background.add(atom("known", x))
        constants = tuple("abcdefgh") + ("t",)
        facts = boolean_fixpoint(BACKGROUND, background, constants)
        holds = {x for x in "abcdefgh" if atom("all", x) in facts}
        assert holds == {"c", "d", "e"}
