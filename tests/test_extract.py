import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from slotlogic import (
    Atom,
    Clause,
    Hyperparams,
    LanguageFrame,
    Predicate,
    ProgramTemplate,
    RuleTemplate,
    Sample,
    Term,
    atom,
    crisp_infer,
    extract_program,
    parse_clause,
    train,
)
from slotlogic.extract import (
    PolicyProgram,
    load_program,
    program_from_text,
    program_to_text,
)

from .oracles import agreement, boolean_fixpoint, boolean_rounds, join_fixpoint

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
        program = extract_program(trained)
        assert len(program.rules) == 1
        assert program.rules[0][0] == parse_clause("p(V0) <- q(V0)")

    def test_untrained_uniform_takes_first(self):
        s = Sample.make([atom("q", "a")], [atom("p", "a")], [], ("a",))
        hp = Hyperparams(training_steps=1, seed=0, init_scale=0.0, learning_rate=1e-9)
        trained = train(FRAME, [s], TEMPLATE, hp)
        program = extract_program(trained)
        # exact tie: first clause in canonical pool order wins
        assert program.rules[0][0] == trained.compiler.pools[0][1][0]

    def test_probabilities_recorded(self):
        trained, _ = trained_toy()
        program = extract_program(trained)
        for _, prob in program.rules:
            assert 0.0 < prob <= 1.0


class TestCrispInfer:
    def test_empty_background(self):
        program = PolicyProgram(
            rules=((parse_clause("p(V0) <- q(V0)"), 1.0),),
                background=(),
            targets=(P,),
            forward_steps=5,
        )
        assert crisp_infer(program, []) == frozenset()

    def test_matches_naive_fixpoint(self):
        clauses = [
            parse_clause("p(V0) <- q(V0)"),
            parse_clause("p(V0) <- p(V1), s(V1, V0)"),
        ]
        program = PolicyProgram(
            rules=tuple((c, 1.0) for c in clauses),
                background=(),
            targets=(P,),
            forward_steps=10,
        )
        consts = ("a", "b", "c", "d")
        background = [atom("q", "a"), atom("s", "a", "b"), atom("s", "b", "c")]
        got = crisp_infer(program, background)
        oracle = boolean_fixpoint(clauses, set(background), consts)
        assert got == {a for a in oracle if a.predicate == P}

    def test_fixpoint_cap(self):
        clauses = [parse_clause("p(V0) <- p(V1), s(V1, V0)"),
                   parse_clause("p(V0) <- q(V0)")]
        program = PolicyProgram(
            rules=tuple((c, 1.0) for c in clauses),
                background=(),
            targets=(P,),
            forward_steps=2,
        )
        background = [atom("q", "a")] + [
            atom("s", x, y) for x, y in [("a", "b"), ("b", "c"), ("c", "d")]
        ]
        got = crisp_infer(program, background)
        # two rounds reach b via q(a)->p(a)->p(b); d needs four
        assert atom("p", "b") in got
        assert atom("p", "d") not in got

    def test_monotone_in_background(self):
        program = PolicyProgram(
            rules=((parse_clause("p(V0) <- q(V0)"), 1.0),),
                background=(),
            targets=(P,),
            forward_steps=3,
        )
        small = crisp_infer(program, [atom("q", "a")])
        big = crisp_infer(program, [atom("q", "a"), atom("q", "b")])
        assert small <= big

    def test_constant_renaming_invariance(self):
        program = PolicyProgram(
            rules=((parse_clause("p(V0) <- q(V0), s(V0, V1)"), 1.0),),
                background=(),
            targets=(P,),
            forward_steps=3,
        )
        got1 = crisp_infer(program, [atom("q", "a"), atom("s", "a", "b")])
        got2 = crisp_infer(program, [atom("q", "z"), atom("s", "z", "w")])
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
        program = extract_program(trained)
        # independent check: fuzzy >= 0.5 per atom vs crisp derivation
        from slotlogic import infer

        compiler = trained.compiler
        model = compiler.compile(s.constants)
        v = infer(model, trained.weights, s, trained.hyperparams)
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
            expected_matches += int((v[i] >= 0.5) == (a in derived))
        assert agreement(trained, program, [s]) == expected_matches / total


class TestProgramFile:
    def test_roundtrip(self):
        trained, _ = trained_toy()
        program = extract_program(trained)
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

    @pytest.mark.parametrize("n, line, want", [
        (2, "forward_steps: many", "line 2: forward_steps: invalid literal"),
        (2, "forward_steps: 0", "line 2: forward_steps: 0 is below 1"),
        (2, "forward_steps: -2", "line 2: forward_steps: invalid literal '-2'"),
        (2, "forward_steps: +0_3", r"line 2: forward_steps: invalid literal '\+0_3'"),
        (3, "targets: p", "line 3: targets: invalid literal"),
        (3, "targets: p/+1", r"line 3: targets: invalid literal '\+1'"),
        (5, "high p(X) <- q(X)", "line 5: probability: could not convert"),
        (5, "nan p(X) <- q(X)", r"line 5: probability: 'nan' is not a number in \[0, 1\]"),
        (5, "inf p(X) <- q(X)", r"line 5: probability: 'inf' is not a number in \[0, 1\]"),
        (5, "-0.5 p(X) <- q(X)", r"line 5: probability: '-0.5' is not a number in \[0, 1\]"),
        (5, "1_0 p(X) <- q(X)", r"line 5: probability: '1_0' is not a number in \[0, 1\]"),
        (5, "1.0 p(X) <-", "line 5: clause: "),
        (1, "1.0 p(X) <- q(X)", "line 1: clause outside a section"),
        (4, "forward_steps: 3", r"line 4: repeated 'forward_steps:' header \(first on line 2\)"),
        (4, "targets: sys_inform/1", r"line 4: repeated 'targets:' header \(first on line 3\)"),
        (4, "[alternates]", r"line 4: unknown section '\[alternates\]'"),
        (4, "[rules", r"line 4: unknown section '\[rules'"),
    ], ids=["forward-steps", "zero-steps", "negative-steps", "signed-steps", "targets",
            "signed-arity", "probability", "nan-probability", "inf-probability",
            "negative-probability", "underscore-probability", "clause", "no-section",
            "repeated-steps", "repeated-targets", "unknown-section", "unclosed-section"])
    def test_bad_line_named(self, tmp_path, n, line, want):
        trained, _ = trained_toy()
        lines = program_to_text(extract_program(trained)).splitlines()
        lines[n - 1] = line
        with pytest.raises(ValueError, match=f"^{want}"):
            program_from_text("\n".join(lines) + "\n")
        path = tmp_path / "program.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{path}: {want}"):
            load_program(path)


# ---------------------------------------------------------------------------
# crisp_infer against the independent naive oracle on random programs.

_E, _Q, _Q2, _S, _U, _P, _Z, _H = (
    Predicate(n, k) for n, k in [("e", 0), ("q", 1), ("q", 2), ("s", 2), ("u", 1),
                                 ("p", 1), ("z", 0), ("h", 2)]
)
_TARGETS = (_P, _Z)  # h/2 is derived but no target
# q/2 shares its name with q/1; u/1 is background that no clause names.
_CONSTS = ("a", "b", "c")
_VARS = [Term.var(f"V{i}") for i in range(3)]


@st.composite
def _clauses(draw):
    """A safe clause: one or two body atoms over at most three variables
    and a body constant, a head from the body's variables and constants."""
    term = st.sampled_from(_VARS[:2] * 2 + [_VARS[2], Term.const("a")])
    body = [
        Atom(pred, tuple(draw(st.lists(term, min_size=pred.arity, max_size=pred.arity))))
        for pred in draw(st.lists(st.sampled_from([_E, _Q, _Q2, _S, _P, _Z, _H]),
                                  min_size=1, max_size=2))
    ]
    head_term = st.sampled_from(sorted({t for a in body for t in a.variables()})
                                + [Term.const("a"), Term.const("c")])
    head = draw(st.sampled_from([_P, _Z, _H]))
    args = draw(st.lists(head_term, min_size=head.arity, max_size=head.arity))
    return Clause.make(Atom(head, tuple(args)), body)


# Extensional facts over two of the three constants; the third enters
# through clause heads.
_GROUND = [
    Atom(p, tuple(Term.const(c) for c in combo))
    for p in (_E, _Q, _Q2, _S, _U)
    for combo in itertools.product(_CONSTS[:2], repeat=p.arity)
]


def _program(clauses, steps):
    return PolicyProgram(
        rules=tuple((c, 1.0) for c in clauses[:1]),
        background=tuple(clauses[1:]),
        targets=_TARGETS,
        forward_steps=steps,
    )


@settings(max_examples=300, deadline=None)
@given(
    clauses=st.lists(_clauses(), min_size=2, max_size=6),
    background=st.sets(st.sampled_from(_GROUND), min_size=3),
    steps=st.integers(0, 6),
)
# recursive, stopped below (1 round) and above (6 rounds) the depth of 3
@example(
    clauses=[parse_clause("p(V0) <- q(V0)"), parse_clause("p(V0) <- p(V1), s(V1, V0)")],
    background={atom("q", "a"), atom("s", "a", "b"), atom("s", "b", "c")},
    steps=1,
)
@example(
    clauses=[parse_clause("p(V0) <- q(V0)"), parse_clause("p(V0) <- p(V1), s(V1, V0)")],
    background={atom("q", "a"), atom("s", "a", "b"), atom("s", "b", "c")},
    steps=6,
)
# constants in bodies, repeated variables, zero-arity heads, one-atom
# bodies, a new fact in the second body atom only
@example(
    clauses=[
        parse_clause("p(V0) <- s(V0, V0)"),
        parse_clause("h(V0, V1) <- s(V0, V0), q(V1)"),
        parse_clause("p(V0) <- q(V0), z()"),
        parse_clause("z() <- s(a, V0), q(V0)"),
        parse_clause("h(V0, c) <- w(V0, b, V0)"),
        parse_clause("p(V0) <- h(V0, V1), z()"),
    ],
    background={atom("s", "b", "b"), atom("s", "a", "c"), atom("q", "c"),
                atom("w", "a", "b", "a"), atom("w", "a", "b", "c")},
    steps=3,
)
# q/1 and q/2 are two relations; u/1 takes part in no join
@example(
    clauses=[parse_clause("p(V0) <- q(V0), q(V0, V1)"), parse_clause("h(V0, V1) <- q(V1, V0)"),
             parse_clause("p(V0) <- h(V0, V0), q(V0)")],
    background={atom("q", "a"), atom("q", "b", "a"), atom("q", "a", "a"), atom("u", "b")},
    steps=3,
)
def test_crisp_infer_matches_naive_rounds(clauses, background, steps):
    got = crisp_infer(_program(clauses, steps), background)
    want = boolean_rounds(clauses, set(background), _CONSTS, steps)
    assert got == {a for a in want if a.predicate in _TARGETS}


@settings(max_examples=200, deadline=None)
@given(
    clauses=st.lists(_clauses(), min_size=1, max_size=6),
    background=st.sets(st.sampled_from(_GROUND)),
    max_rounds=st.none() | st.integers(1, 4),
)
def test_join_oracle_matches_substitution_oracle(clauses, background, max_rounds):
    assert join_fixpoint(clauses, set(background), max_rounds) == boolean_fixpoint(
        clauses, set(background), _CONSTS, max_rounds
    )
