import json
import re

import numpy as np
import pytest

from slotlogic import (
    LanguageFrame,
    ModelCompiler,
    Predicate,
    ProgramTemplate,
    RuleTemplate,
    generate_clauses,
    parse_clause,
)
from slotlogic import pipeline
from slotlogic.templates import slot_clause_pools, template_from_dict, template_to_dict

from . import oracles

P, Q, R = Predicate("p", 1), Predicate("q", 1), Predicate("r", 1)
FRAME = LanguageFrame(targets=(P,), extensional=(Q, R))


def clause_count(pt, frame):
    """Candidate clauses over every slot of a program template."""
    return sum(len(clauses) for _, clauses in slot_clause_pools(pt, frame))


class TestGenerateClauses:
    def test_three_clause_listing(self):
        out = generate_clauses(P, RuleTemplate(0, True), [Q, R], [P])
        expected = {
            parse_clause("p(X) <- q(X), q(X)"),
            parse_clause("p(X) <- r(X), r(X)"),
            parse_clause("p(X) <- q(X), r(X)"),
        }
        assert set(out) == expected

    def test_empty_pool(self):
        assert generate_clauses(P, RuleTemplate(0, False), [], [Q]) == []

    def test_recursive_helper_clause_present(self):
        allp = Predicate("all", 1)
        pool_ext = [Predicate("true", 1), Predicate("succ", 2), Predicate("terminal", 1)]
        pool_int = [Predicate("pred1", 2), allp]
        out = generate_clauses(allp, RuleTemplate(1, True), pool_ext, pool_int)
        assert parse_clause("all(V0) <- true(V0), pred1(V0, V1)") in out

    def test_no_unsafe(self):
        out = generate_clauses(P, RuleTemplate(2, True), [Q, R, Predicate("s", 2)], [P])
        for c in out:
            body_vars = {t for a in c.body for t in a.variables()}
            assert set(c.head.variables()) <= body_vars

    def test_no_tautology(self):
        out = generate_clauses(P, RuleTemplate(1, True), [Q], [P])
        for c in out:
            assert c.head not in c.body

    def test_no_duplicates(self):
        for v in (0, 1, 2):
            for i in (False, True):
                out = generate_clauses(P, RuleTemplate(v, i), [Q, R], [P])
                assert len(out) == len(set(out))

    def test_sorted_deterministic(self):
        a = generate_clauses(P, RuleTemplate(1, True), [Q, R], [P])
        b = generate_clauses(P, RuleTemplate(1, True), [Q, R], [P])
        assert a == b == sorted(a, key=str)

    def test_recursion_allowed_with_distinct_args(self):
        s = Predicate("s", 2)
        out = generate_clauses(P, RuleTemplate(1, True), [s], [P])
        assert parse_clause("p(V0) <- p(V1), s(V0, V1)") in out


def generated(generate, head, rt, extensional, intensional):
    """What ``generate`` returns, or the type and message of the
    ``ValueError`` it raises."""
    try:
        return generate(head, rt, extensional, intensional)
    except ValueError as exc:
        return type(exc), str(exc)


class TestGeneratorMatchesReference:
    """The integer-pattern generator against the ``Clause.make`` one it
    replaced: equal lists, in the same order."""

    @staticmethod
    def reference_pools(pt, frame, background_pool=()):
        extensional = list(frame.extensional) + [
            p for p in background_pool if p not in frame.extensional
        ]
        return [
            ((pred, k), oracles.generate_clauses(pred, rt, extensional, list(pt.learnable())))
            for pred, slot_list in pt.slots
            for k, rt in enumerate(slot_list)
        ]

    def test_restaurant_pools(self):
        frame, template = pipeline.simdial_frame(), pipeline.simdial_template()
        _, pool = pipeline.simdial_background()
        pools = slot_clause_pools(template, frame, pool)
        assert sum(len(cs) for _, cs in pools) == 436
        assert pools == self.reference_pools(template, frame, pool)

    def test_list_all_pools(self):
        (compiler, _), _ = pipeline.list_all_problem()
        frame, template = compiler.frame, compiler.template
        pools = slot_clause_pools(template, frame)
        assert pools == self.reference_pools(template, frame)
        assert all(cs for _, cs in pools)

    def test_random_pools(self):
        rng = np.random.default_rng(0)
        names = ["a", "b", "c", "d", "e"]
        seen = {"clauses": 0, "raised": 0, "head in pool": 0, "intensional": 0}
        for _ in range(300):
            preds = [Predicate(n, int(rng.integers(0, 3))) for n in names]
            head = Predicate("h", int(rng.integers(0, 3)))
            extensional = [preds[int(i)] for i in rng.integers(0, 5, size=rng.integers(0, 4))]
            intensional = [preds[int(i)] for i in rng.integers(0, 5, size=rng.integers(0, 3))]
            if rng.random() < 0.5:
                (extensional if rng.random() < 0.5 else intensional).append(head)
            rt = RuleTemplate(int(rng.integers(0, 3)), bool(rng.random() < 0.5))
            new = generated(generate_clauses, head, rt, extensional, intensional)
            assert new == generated(oracles.generate_clauses, head, rt, extensional, intensional)
            if isinstance(new, list):
                seen["clauses"] += len(new)
                seen["head in pool"] += any(a.predicate == head for c in new for a in c.body)
                seen["intensional"] += rt.allow_intensional and bool(new)
            else:
                seen["raised"] += 1
        assert all(seen.values()), seen

    def test_too_many_variables_raise_value_error(self):
        head, s = Predicate("h", 2), Predicate("s", 2)
        for generate in (generate_clauses, oracles.generate_clauses):
            with pytest.raises(ValueError, match=r"clause uses 4 variables \(max 3\)") as info:
                generate(head, RuleTemplate(2, False), [s])
            assert info.type is ValueError


class TestComplexity:
    def test_footnote_setting(self):
        pt = ProgramTemplate(slots=((P, (RuleTemplate(0, True),)),))
        assert clause_count(pt, FRAME) == 3

    def test_empty_pool(self):
        frame = LanguageFrame(targets=(P,), extensional=())
        pt = ProgramTemplate(slots=((P, (RuleTemplate(0, False),)),))
        assert clause_count(pt, frame) == 0

    def test_two_identical_slots_doubles(self):
        one = ProgramTemplate(slots=((P, (RuleTemplate(0, True),)),))
        two = ProgramTemplate(
            slots=((P, (RuleTemplate(0, True), RuleTemplate(0, True))),)
        )
        assert clause_count(two, FRAME) == 2 * clause_count(one, FRAME)


class TestProgramTemplate:
    def test_auxiliary_needs_slot(self):
        with pytest.raises(ValueError):
            ProgramTemplate(
                slots=((P, (RuleTemplate(0, False),)),),
                auxiliary=(Predicate("h", 1),),
            )

    def test_slot_count_bounds(self):
        with pytest.raises(ValueError):
            ProgramTemplate(slots=((P, ()),))
        with pytest.raises(ValueError):
            ProgramTemplate(
                slots=((P, (RuleTemplate(0, False),) * 3),)
            )

    def test_json_roundtrip(self):
        pt = ProgramTemplate(
            slots=(
                (P, (RuleTemplate(0, True), RuleTemplate(1, False))),
                (Predicate("h", 0), (RuleTemplate(1, False),)),
            ),
            auxiliary=(Predicate("h", 0),),
            forward_steps=7,
        )
        assert template_from_dict(json.loads(json.dumps(template_to_dict(pt)))) == pt

    def test_dict_slots_rejected(self):
        d = template_to_dict(ProgramTemplate(slots=((P, (RuleTemplate(0, True),)),)))
        d["slots"] = dict(d["slots"])
        with pytest.raises(ValueError, match="must be a list"):
            template_from_dict(d)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match='a template is an object whose "slots"'):
            template_from_dict([])

    def test_entry_without_key_rejected(self):
        d = template_to_dict(ProgramTemplate(slots=((P, (RuleTemplate(0, True),)),)))
        del d["slots"][0][1][0]["i"]
        with pytest.raises(ValueError, match="p/1: entry lacks key 'i'"):
            template_from_dict(d)

    def test_non_string_key_rejected(self):
        d = template_to_dict(ProgramTemplate(slots=((P, (RuleTemplate(0, True),)),)))
        d["slots"][0][0] = 5
        with pytest.raises(ValueError, match=r"template slot \[5, "):
            template_from_dict(d)

    @pytest.mark.parametrize("key", ["p/+1", "p/1 ", "p/0_1", "p/"])
    def test_arity_not_in_ascii_digits_rejected(self, key):
        d = template_to_dict(ProgramTemplate(slots=((P, (RuleTemplate(0, True),)),)))
        d["slots"][0][0] = key
        with pytest.raises(ValueError, match=rf"template slot \[{re.escape(repr(key))}, .*invalid literal"):
            template_from_dict(d)

    @pytest.mark.parametrize("rule", [
        {"v": 0.9, "i": "false"}, {"v": 0.9, "i": True}, {"v": "1", "i": True},
        {"v": True, "i": True}, {"v": 0, "i": "false"}, {"v": 0, "i": 1},
    ])
    def test_malformed_rule_template_rejected(self, rule):
        d = template_to_dict(ProgramTemplate(slots=((P, (RuleTemplate(0, True),)),)))
        d["slots"][0][1][0] = rule
        with pytest.raises(ValueError, match=r"template slot \['p/1', .*\"v\" must be a JSON integer"):
            template_from_dict(d)

    @pytest.mark.parametrize("field, value", [
        ("auxiliary", 5), ("forward_steps", None), ("forward_steps", "14"),
        ("forward_steps", True), ("forward_steps", 14.0), ("auxiliary", [["p", 0.5]]),
    ])
    def test_malformed_auxiliary_or_steps_rejected(self, field, value):
        d = template_to_dict(ProgramTemplate(slots=((P, (RuleTemplate(0, True),)),)))
        d[field] = value
        with pytest.raises(ValueError, match='"auxiliary" must be a list'):
            template_from_dict(d)

    def test_missing_forward_steps_rejected(self):
        # No default: the restaurant task needs 14 steps, not 10.
        d = template_to_dict(ProgramTemplate(slots=((P, (RuleTemplate(0, True),)),)))
        del d["forward_steps"]
        with pytest.raises(ValueError, match='^a template lacks field "forward_steps"$'):
            template_from_dict(d)

    def test_pools_cover_all_slots(self):
        pt = ProgramTemplate(
            slots=((P, (RuleTemplate(0, True), RuleTemplate(1, True))),)
        )
        pools = slot_clause_pools(pt, FRAME)
        assert [key for key, _ in pools] == [(P, 0), (P, 1)]

    def test_clause_count_constant_free(self):
        # clause pools never mention constants, so counts cannot depend on them
        pt = ProgramTemplate(slots=((P, (RuleTemplate(1, True),)),))
        comp = ModelCompiler(FRAME, pt)
        for constants in (("a",), ("x", "y", "z")):
            model = comp.compile(constants)
            assert sum(len(g.clauses) for g in model.slot_groups) == (
                clause_count(pt, FRAME)
            )
