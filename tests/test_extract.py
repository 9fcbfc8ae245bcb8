import pytest

from slotlogic import (
    Hyperparams,
    LanguageFrame,
    Predicate,
    ProgramTemplate,
    RuleTemplate,
    Sample,
    agreement,
    atom,
    crisp_infer,
    extract_program,
    parse_clause,
    train,
)
from slotlogic.extract import (
    PolicyProgram,
    program_from_text,
    program_to_text,
)

from .oracles import boolean_fixpoint

P, Q, R = Predicate("p", 1), Predicate("q", 1), Predicate("r", 1)
FRAME = LanguageFrame(targets=(P,), extensional=(Q, R))
TEMPLATE = ProgramTemplate(slots=((P, (RuleTemplate(0, True),)),), forward_steps=2)


def trained_toy(steps=300):
    s = Sample.make([atom("q", "a")], [atom("p", "a")], [atom("p", "b")], ("a", "b"))
    hp = Hyperparams(learning_rate=0.5, training_steps=steps, seed=0, init_scale=0.1)
    return train(FRAME, [s], TEMPLATE, hp), s


class TestExtract:
    def test_argmax_always_included(self):
        trained, _ = trained_toy()
        program = extract_program(trained, threshold=1.0)
        assert len(program.rules) == 1
        assert program.rules[0][0] == parse_clause("p(V0) <- q(V0)")

    def test_untrained_uniform_takes_first(self):
        s = Sample.make([atom("q", "a")], [atom("p", "a")], [], ("a",))
        hp = Hyperparams(training_steps=1, seed=0, init_scale=0.0, learning_rate=1e-9)
        trained = train(FRAME, [s], TEMPLATE, hp)
        program = extract_program(trained, threshold=1.0)
        # exact tie: first clause in canonical pool order wins
        assert program.rules[0][0] == trained.pools[0][1][0]

    def test_threshold_includes_alternates(self):
        trained, _ = trained_toy(steps=5)
        program = extract_program(trained, threshold=0.01)
        assert len(program.alternates) >= 1

    def test_threshold_validation(self):
        trained, _ = trained_toy(steps=1)
        with pytest.raises(ValueError):
            extract_program(trained, threshold=0.0)

    def test_probabilities_recorded(self):
        trained, _ = trained_toy()
        program = extract_program(trained)
        for _, prob in program.rules:
            assert 0.0 < prob <= 1.0


class TestCrispInfer:
    def test_empty_background(self):
        program = PolicyProgram(
            rules=((parse_clause("p(V0) <- q(V0)"), 1.0),),
            alternates=(),
            background=(),
            targets=(P,),
            forward_steps=5,
        )
        assert crisp_infer(program, [], ("a",)) == frozenset()

    def test_matches_naive_fixpoint(self):
        clauses = [
            parse_clause("p(V0) <- q(V0)"),
            parse_clause("p(V0) <- p(V1), s(V1, V0)"),
        ]
        program = PolicyProgram(
            rules=tuple((c, 1.0) for c in clauses),
            alternates=(),
            background=(),
            targets=(P,),
            forward_steps=10,
        )
        consts = ("a", "b", "c", "d")
        background = [atom("q", "a"), atom("s", "a", "b"), atom("s", "b", "c")]
        got = crisp_infer(program, background, consts)
        oracle = boolean_fixpoint(clauses, set(background), consts)
        assert got == {a for a in oracle if a.predicate == P}

    def test_fixpoint_cap(self):
        clauses = [parse_clause("p(V0) <- p(V1), s(V1, V0)"),
                   parse_clause("p(V0) <- q(V0)")]
        program = PolicyProgram(
            rules=tuple((c, 1.0) for c in clauses),
            alternates=(),
            background=(),
            targets=(P,),
            forward_steps=2,
        )
        consts = ("a", "b", "c", "d")
        background = [atom("q", "a")] + [
            atom("s", x, y) for x, y in [("a", "b"), ("b", "c"), ("c", "d")]
        ]
        got = crisp_infer(program, background, consts)
        # two rounds reach b via q(a)->p(a)->p(b); d needs four
        assert atom("p", "b") in got
        assert atom("p", "d") not in got

    def test_monotone_in_background(self):
        program = PolicyProgram(
            rules=((parse_clause("p(V0) <- q(V0)"), 1.0),),
            alternates=(),
            background=(),
            targets=(P,),
            forward_steps=3,
        )
        consts = ("a", "b")
        small = crisp_infer(program, [atom("q", "a")], consts)
        big = crisp_infer(program, [atom("q", "a"), atom("q", "b")], consts)
        assert small <= big

    def test_constant_renaming_invariance(self):
        program = PolicyProgram(
            rules=((parse_clause("p(V0) <- q(V0), s(V0, V1)"), 1.0),),
            alternates=(),
            background=(),
            targets=(P,),
            forward_steps=3,
        )
        got1 = crisp_infer(
            program, [atom("q", "a"), atom("s", "a", "b")], ("a", "b")
        )
        got2 = crisp_infer(
            program, [atom("q", "z"), atom("s", "z", "w")], ("z", "w")
        )
        rename = {"a": "z", "b": "w"}
        assert {
            atom(x.predicate.name, *[rename[t.label] for t in x.args]) for x in got1
        } == got2


class TestAgreement:
    def test_converged_model_full_agreement(self):
        trained, sample = trained_toy()
        program = extract_program(trained)
        assert agreement(trained, program, [sample]) == 1.0

    def test_empty_samples(self):
        trained, _ = trained_toy(steps=1)
        program = extract_program(trained)
        assert agreement(trained, program, []) == 1.0

    def test_uniform_weights_vs_exhaustive(self):
        s = Sample.make([atom("q", "a")], [atom("p", "a")], [], ("a", "b"))
        hp = Hyperparams(training_steps=1, learning_rate=1e-9, seed=0, init_scale=0.0)
        trained = train(FRAME, [s], TEMPLATE, hp)
        program = extract_program(trained, threshold=1.0)
        # independent check: fuzzy >= 0.5 per atom vs crisp derivation
        from slotlogic import infer

        compiler = trained.compiler()
        model = compiler.compile(s.constants)
        v = infer(model, trained.weights, s)
        derived = boolean_fixpoint(
            [program.rules[0][0]], set(s.background), s.constants
        )
        expected_matches = 0
        total = 0
        for i in range(1, len(model.index)):
            a = model.index.atoms[i]
            if a.predicate != P:
                continue
            total += 1
            expected_matches += int((v.values[i] >= 0.5) == (a in derived))
        assert agreement(trained, program, [s]) == expected_matches / total


class TestProgramFile:
    def test_roundtrip(self):
        trained, _ = trained_toy()
        program = extract_program(trained, threshold=0.2)
        text = program_to_text(program)
        loaded = program_from_text(text)
        assert [c for c, _ in loaded.rules] == [c for c, _ in program.rules]
        assert loaded.background == program.background
        assert loaded.targets == program.targets
        assert loaded.forward_steps == program.forward_steps
        for (_, p1), (_, p2) in zip(loaded.rules, program.rules):
            assert p1 == pytest.approx(p2, abs=1e-6)

    def test_prob_clause_line_format(self):
        trained, _ = trained_toy()
        text = program_to_text(extract_program(trained))
        rule_lines = [
            l for l in text.splitlines()
            if l and not l.startswith(("#", "[", "forward_steps", "targets"))
        ]
        for line in rule_lines:
            prob, _, clause = line.partition(" ")
            float(prob)
            assert "<-" in clause

    @pytest.mark.parametrize("header", ["forward_steps", "targets"])
    @pytest.mark.parametrize("value", [None, ""])
    def test_missing_or_empty_header_rejected(self, header, value):
        trained, _ = trained_toy()
        lines = program_to_text(extract_program(trained)).splitlines()
        lines = [
            l if not l.startswith(header + ":") else f"{header}: {value}"
            for l in lines
            if value is not None or not l.startswith(header + ":")
        ]
        with pytest.raises(ValueError, match=f"'{header}:' header"):
            program_from_text("\n".join(lines) + "\n")
