import pytest

from slotlogic import (
    DOMAINS,
    GeneratorConfig,
    atom,
    generate_corpus,
    generate_dialog,
    parse_clause,
    representative_dialog,
)
from slotlogic.dialog import build_sample, encode_acts, encode_state
from slotlogic.pipeline import simdial_background

from .oracles import join_fixpoint

# The rule set the generated dialogs are built to teach (plus the list
# helpers as fixed background). Correction turns intentionally break it.
GOLDEN_RULES = [
    parse_clause("sys_request(V0) <- member_usr(V0), unknown(V0)"),
    parse_clause("sys_inform(V0) <- kb_return(V0)"),
    parse_clause("sys_query(V0) <- request(V0), pred3(V0)"),
    parse_clause("pred2() <- all(V0), usr_slots(V0)"),
    parse_clause("pred3(V0) <- pred2(), unknown(V0)"),
]


def golden_clauses():
    return GOLDEN_RULES + list(simdial_background()[0])


def golden_prediction(turn, spec):
    background = encode_state(turn.state, spec) | encode_acts(turn.user_acts, "user")
    facts = join_fixpoint(golden_clauses(), set(background))
    targets = {"sys_request", "sys_inform", "sys_query"}
    return {a for a in facts if a.predicate.name in targets}


class TestGenerateDialog:
    def test_seeded_determinism(self):
        cfg = GeneratorConfig(DOMAINS["restaurant"], seed=4)
        d1, d2 = generate_dialog(cfg), generate_dialog(cfg)
        assert d1 == d2

    def test_intent_coverage(self):
        cfg = GeneratorConfig(DOMAINS["restaurant"], seed=0, max_goal_requests=2)
        d = generate_dialog(cfg)
        intents = {(("u" if i < 1 else "s"), a.intent)
                   for i, acts in enumerate([t.user_acts for t in d.turns])
                   for a in acts}
        user_intents = {a.intent for t in d.turns for a in t.user_acts}
        sys_intents = {a.intent for t in d.turns for a in t.system_acts}
        assert {"inform", "request"} <= user_intents
        assert {"request", "inform", "query"} <= sys_intents

    def test_no_corrections_at_zero_probability(self):
        for seed in range(10):
            cfg = GeneratorConfig(
                DOMAINS["restaurant"], seed=seed, correction_probability=0.0
            )
            assert not any(t.correction for t in generate_dialog(cfg).turns)

    def test_correction_turn_shape(self):
        cfg = GeneratorConfig(
            DOMAINS["restaurant"], seed=3, correction_probability=1.0
        )
        d = generate_dialog(cfg)
        corrections = [t for t in d.turns if t.correction]
        assert corrections
        t = corrections[0]
        assert [a.intent for a in t.system_acts] == ["query"]
        assert t.system_acts[0].slot == "default"
        assert not t.state.sys_known["default"]
        assert [a.intent for a in t.user_acts] == ["inform"]

    def test_final_turn_unsupervised(self):
        d = generate_dialog(GeneratorConfig(DOMAINS["weather"], seed=1))
        assert d.turns[-1].system_acts == []

    def test_states_well_formed(self):
        for name, spec in DOMAINS.items():
            d = generate_dialog(GeneratorConfig(spec, seed=2))
            for turn in d.turns:
                encode_state(turn.state, spec)  # raises if malformed


class TestGoldenRuleConsistency:
    @pytest.mark.slow
    def test_hundred_dialogs_match_except_corrections(self):
        mismatch_noncorrection = 0
        for name in ("restaurant", "weather"):
            spec = DOMAINS[name]
            for d in generate_corpus(name, 50, seed=77, correction_probability=0.3):
                for turn in d.turns:
                    gold = encode_acts(turn.system_acts, "system")
                    derived = golden_prediction(turn, spec)
                    if turn.correction:
                        assert derived == set(), "rules must miss correction turns"
                        assert gold == {atom("sys_query", "default")}
                    elif derived != set(gold):
                        mismatch_noncorrection += 1
        assert mismatch_noncorrection == 0

    def test_movie_domain_turns_match(self):
        spec = DOMAINS["movie"]
        for d in generate_corpus("movie", 10, seed=5, correction_probability=0.0):
            for turn in d.turns:
                assert golden_prediction(turn, spec) == set(
                    encode_acts(turn.system_acts, "system")
                )


class TestRepresentativeDialog:
    def test_deterministic(self):
        assert representative_dialog("restaurant") == representative_dialog("restaurant")

    def test_covers_all_intents(self):
        d = representative_dialog("restaurant")
        user_intents = {a.intent for t in d.turns for a in t.user_acts}
        sys_intents = {a.intent for t in d.turns for a in t.system_acts}
        assert {"inform", "request"} <= user_intents
        assert {"request", "inform", "query"} <= sys_intents

    def test_no_corrections(self):
        assert not any(t.correction for t in representative_dialog("restaurant").turns)

    def test_available_for_all_domains(self):
        for name in DOMAINS:
            d = representative_dialog(name)
            assert len(d.turns) >= 5


class TestGenerateCorpus:
    def test_size(self):
        assert len(generate_corpus("bus", 7, seed=3)) == 7

    def test_singleton(self):
        assert len(generate_corpus("bus", 1, seed=3)) == 1

    def test_distinct_seeds_differ(self):
        a = generate_corpus("restaurant", 5, seed=1)
        b = generate_corpus("restaurant", 5, seed=2)
        assert a != b

    def test_reproducible(self):
        a = generate_corpus("restaurant", 5, seed=9)
        b = generate_corpus("restaurant", 5, seed=9)
        assert a == b

    def test_intent_coverage_at_fifty(self):
        dialogs = generate_corpus("movie", 50, seed=0)
        sys_intents = {a.intent for d in dialogs for t in d.turns for a in t.system_acts}
        user_intents = {a.intent for d in dialogs for t in d.turns for a in t.user_acts}
        assert {"request", "inform", "query"} <= sys_intents
        assert {"inform", "request"} <= user_intents

    def test_n_validation(self):
        with pytest.raises(ValueError):
            generate_corpus("bus", 0, seed=1)


def test_reference_act_sequence_reachable():
    # the classic flow: ask for a restaurant, answer location then food,
    # get the default result, then follow up with two more goals
    target = [
        [("request", "default")],
        [("inform", "loc")],
        [("inform", "food_pref")],
        [],  # database returns the default goal
        [("request", "open")],
        [],
        [("request", "price")],
        [],
        [],  # goodbye
    ]
    target_sys = [
        {("request", "food_pref"), ("request", "loc")},
        {("request", "food_pref")},
        {("query", "default")},
        {("inform", "default")},
        {("query", "open")},
        {("inform", "open")},
        {("query", "price")},
        {("inform", "price")},
        set(),
    ]
    spec = DOMAINS["restaurant"]
    for seed in range(600):
        d = generate_dialog(
            GeneratorConfig(spec, seed=seed, correction_probability=0.0)
        )
        # first act per turn; later entries are persistent re-issued requests
        usr_core = [
            [(a.intent, a.slot) for a in t.user_acts][:1] for t in d.turns
        ]
        sys_sets = [{(a.intent, a.slot) for a in t.system_acts} for t in d.turns]
        if usr_core == target and sys_sets == target_sys:
            return
    raise AssertionError("reference act sequence not reachable in 600 seeds")


def test_turns_convert_to_samples():
    d = generate_dialog(GeneratorConfig(DOMAINS["restaurant"], seed=8))
    spec = DOMAINS["restaurant"]
    supervised = [bool(build_sample(turn, spec).positive) for turn in d.turns]
    assert supervised == [True] * (len(d.turns) - 1) + [False]  # only the closing turn has none
