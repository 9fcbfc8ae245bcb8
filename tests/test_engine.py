import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from slotlogic import (
    Clause,
    Hyperparams,
    LanguageFrame,
    ModelCompiler,
    Predicate,
    ProgramTemplate,
    RuleTemplate,
    Sample,
    TrainedModel,
    TrainingDiverged,
    Term,
    atom,
    finite_difference_grad,
    infer,
    parse_clause,
    train,
)
from slotlogic import engine as engine_mod
from slotlogic import pipeline, representative_dialog
from slotlogic.engine import (
    AMALGAMATIONS,
    ValuationInvariantError,
    _chain,
    _prepare_batches,
    _reachable,
    loss,
    loss_and_grad,
    probabilities,
)
from slotlogic.gradcheck import _random_instance
from slotlogic.logic import ground_atoms
from slotlogic.simulator import DOMAINS, GeneratorConfig, generate_dialog
from slotlogic.templates import generate_clauses

from .oracles import (
    boolean_rounds,
    chain_step,
    reference_fixed_valuations,
    reference_live_segments,
    reference_loss,
    reference_loss_and_grad,
    reference_valuations,
    start_valuation,
)

P, Q, R = Predicate("p", 1), Predicate("q", 1), Predicate("r", 1)
TOY_FRAME = LanguageFrame(targets=(P,), extensional=(Q, R))
TOY_TEMPLATE = ProgramTemplate(slots=((P, (RuleTemplate(0, True),)),), forward_steps=1)


def toy_compiler(**kw):
    return ModelCompiler(TOY_FRAME, TOY_TEMPLATE, **kw)


def one_hot(compiler, clause_text):
    """Weights putting (numerically) all mass on one clause per slot."""
    vectors = []
    for (pred, k), clauses in compiler.pools:
        v = np.zeros(len(clauses))
        target = parse_clause(clause_text)
        if target in clauses:
            v[clauses.index(target)] = 60.0
        vectors.append(v)
    return vectors


def random_multi_sample_instance(rng):
    """A ``_random_instance`` draw with one to three more samples of its
    frame: 2-4 samples over its constant list and, half the time, a second
    list of 2-4 other constants."""
    compiler, weights, (first,), hp = _random_instance(rng)
    lists = [first.constants]
    if rng.random() < 0.5:
        lists.append(tuple(f"d{i}" for i in range(int(rng.integers(2, 5)))))
    samples = [first]
    for _ in range(int(rng.integers(1, 4))):
        constants = lists[int(rng.integers(len(lists)))]
        background = [a for a in ground_atoms(compiler.frame.extensional, constants)
                      if rng.random() < 0.5]
        labeled = ground_atoms(compiler.frame.targets, constants)
        flags = rng.integers(0, 3, size=len(labeled))
        positive = [a for a, f in zip(labeled, flags) if f == 1]
        negative = [a for a, f in zip(labeled, flags) if f == 2]
        if not positive and not negative:
            positive = [labeled[0]]
        samples.append(Sample.make(background, positive, negative, constants))
    return compiler, weights, samples, hp


def random_background_instance(rng):
    """A random task with one to four background clauses over extensional
    and background-head predicates (recursive ones among them, and half
    the time one that names a constant), slot clauses that may read the
    background heads, and one to three samples over one constant list,
    some starting with background-head facts."""
    constants = tuple(f"c{i}" for i in range(int(rng.integers(2, 5))))
    ext = [Predicate(f"e{i}", int(rng.integers(1, 3))) for i in range(int(rng.integers(2, 4)))]
    bg_heads = [Predicate(f"b{i}", int(rng.integers(0, 3))) for i in range(int(rng.integers(1, 3)))]
    pools = [generate_clauses(h, RuleTemplate(1, True), ext, bg_heads) for h in bg_heads]
    background = [cs[int(rng.integers(len(cs)))] for cs in pools]
    rest = [c for cs in pools for c in cs if c not in background]
    extra = rng.choice(len(rest), size=min(len(rest), int(rng.integers(0, 5 - len(background)))),
                       replace=False)
    background += [rest[i] for i in sorted(extra)]
    if rng.random() < 0.5:
        c = background[0]
        bind = {c.variables()[0]: Term.const(constants[int(rng.integers(len(constants)))])}
        background[0] = Clause.make(c.head.substitute(bind), [a.substitute(bind) for a in c.body])
    target = Predicate("t", int(rng.integers(0, 3)))
    aux = (Predicate("h", int(rng.integers(0, 3))),) if rng.random() < 0.5 else ()
    template = ProgramTemplate(
        slots=tuple((p, tuple(RuleTemplate(0, True) for _ in range(int(rng.integers(1, 3)))))
                    for p in (target, *aux)),
        auxiliary=aux, forward_steps=int(rng.integers(1, 6)))
    pools = []
    for p, slots in template.slots:
        full = generate_clauses(p, RuleTemplate(int(rng.integers(0, 2)), True), ext + bg_heads,
                                [target, *aux])
        for k in range(len(slots)):
            take = rng.choice(len(full), size=min(len(full), int(rng.integers(1, 4))),
                              replace=False)
            pools.append(((p, k), [full[i] for i in sorted(take)]))
    compiler = ModelCompiler(LanguageFrame(targets=(target,), extensional=tuple(ext)), template,
                             background, pools=pools)
    samples = []
    for _ in range(int(rng.integers(1, 4))):
        facts = [a for a in ground_atoms(ext, constants) if rng.random() < 0.4]
        facts += [a for a in ground_atoms(bg_heads, constants) if rng.random() < 0.1]
        labeled = ground_atoms([target], constants)
        flags = rng.integers(0, 3, size=len(labeled))
        positive = [a for a, f in zip(labeled, flags) if f == 1] or [labeled[0]]
        negative = [a for a, f in zip(labeled, flags) if f == 2 and a not in positive]
        samples.append(Sample.make(facts, positive, negative, constants))
    weights = [rng.standard_normal(len(cs)) for _, cs in compiler.pools]
    return compiler, weights, samples


class TestSample:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="both positive and negative"):
            Sample.make([], [atom("p", "a")], [atom("p", "a")], ("a",))

    def test_overlap_names_atoms_by_sorted_text(self):
        # The message must not depend on set order (PYTHONHASHSEED).
        both = [atom("q", "b"), atom("p", "b", "a"), atom("p", "a", "b")]
        with pytest.raises(ValueError) as exc:
            Sample.make([], both, reversed(both), ("a", "b"))
        assert str(exc.value) == "atoms both positive and negative: p(a, b), p(b, a), q(b)"

    def test_unknown_constant_rejected(self):
        with pytest.raises(ValueError, match="constant 'z' outside"):
            Sample.make([atom("q", "z")], [atom("p", "a")], [], ("a",))

    def test_non_ground_rejected(self):
        with pytest.raises(ValueError, match="non-ground atom"):
            Sample.make([atom("q", "X")], [atom("p", "a")], [], ("a",))

    @pytest.mark.parametrize("bad, constants", [
        (atom("q", "X"), ("a", "X")),  # a variable, though its label is a constant
        (atom("r", "z", "X"), ("a",)),  # an unknown constant before the variable
    ])
    def test_non_ground_named_before_unknown_constant(self, bad, constants):
        with pytest.raises(ValueError, match="non-ground atom"):
            Sample.make([bad], [atom("p", "a")], [], constants)


class TestCompile:
    def test_footnote_model_shape(self):
        model = toy_compiler().compile(("a", "b", "c"))
        assert len(model.slot_groups) == 1
        assert len(model.slot_groups[0].clauses) == 3
        assert len(model.index) == 1 + 3 * 3

    def test_empty_slot_identity(self):
        frame = LanguageFrame(targets=(P,), extensional=())
        pt = ProgramTemplate(slots=((P, (RuleTemplate(0, False),)),), forward_steps=3)
        comp = ModelCompiler(frame, pt)
        s = Sample.make([], [atom("p", "a")], [], ("a",))
        w = comp.init_weights()
        v = infer(comp.compile(("a",)), w, s, Hyperparams())
        assert v.sum() == 0.0

    def test_cache(self):
        comp = toy_compiler()
        assert comp.compile(("a", "b")) is comp.compile(("a", "b"))
        assert comp.compile(("a", "b")) is not comp.compile(("b", "a"))

    def test_mismatched_constants_rejected(self):
        comp = toy_compiler()
        s = Sample.make([], [atom("p", "b")], [], ("b",))
        with pytest.raises(ValueError, match="constants do not match"):
            infer(comp.compile(("a",)), comp.init_weights(), s, Hyperparams())

    def test_clause_budget(self, monkeypatch):
        from slotlogic import engine

        monkeypatch.setattr(engine, "CLAUSE_BUDGET", 1)
        with pytest.raises(engine.ClauseBudgetError):
            ModelCompiler(TOY_FRAME, TOY_TEMPLATE)

    def test_learnable_background_head_rejected(self):
        with pytest.raises(ValueError):
            toy_compiler(background=(parse_clause("p(V0) <- q(V0)"),))

    def test_undeclared_background_body_rejected(self):
        with pytest.raises(ValueError):
            toy_compiler(background=(parse_clause("extra(V0) <- mystery(V0)"),))

    @pytest.mark.parametrize("body", ["p", "h"], ids=["target", "auxiliary"])
    def test_background_reading_a_slot_rejected(self, body):
        # Background is chained ahead of the weights, so it may not read a
        # slot head.
        h = Predicate("h", 1)
        pt = ProgramTemplate(
            slots=((P, (RuleTemplate(0, True),)), (h, (RuleTemplate(0, True),))),
            auxiliary=(h,),
            forward_steps=1,
        )
        background = (parse_clause(f"u(V0) <- q(V0), {body}(V0)"),)
        with pytest.raises(ValueError, match=f"reads {body}/1, which is neither extensional"):
            ModelCompiler(TOY_FRAME, pt, background=background)


class TestInitValuation:
    def test_background_ones(self):
        comp = toy_compiler()
        model = comp.compile(("a", "b"))
        s = Sample.make([atom("q", "a")], [atom("p", "a")], [], ("a", "b"))
        v = start_valuation(model, s)
        assert v[model.index.index_of(atom("q", "a"))] == 1.0
        assert v.sum() == 1.0
        assert v[0] == 0.0

    def test_empty_background(self):
        comp = toy_compiler()
        model = comp.compile(("a",))
        s = Sample.make([], [atom("p", "a")], [], ("a",))
        assert start_valuation(model, s).sum() == 0.0

    def test_atom_outside_index(self):
        comp = toy_compiler()
        model = comp.compile(("a",))
        s = Sample.make([atom("zz", "a")], [atom("p", "a")], [], ("a",))
        with pytest.raises(KeyError):
            infer(model, comp.init_weights(), s, Hyperparams())


class TestStep:
    def test_one_hot_deduction(self):
        preds = [Predicate("confirm", 1)]
        frame = LanguageFrame(
            targets=(preds[0],),
            extensional=(Predicate("user_request", 2), Predicate("not_confident", 1)),
        )
        pt = ProgramTemplate(slots=((preds[0], (RuleTemplate(1, False),)),), forward_steps=1)
        comp = ModelCompiler(frame, pt)
        w = one_hot(comp, "confirm(S) <- user_request(S, T), not_confident(S)")
        s = Sample.make(
            [atom("user_request", "contact", "calling"), atom("not_confident", "contact")],
            [atom("confirm", "contact")],
            [],
            ("contact", "calling"),
        )
        model = comp.compile(s.constants)
        v = infer(model, w, s, Hyperparams())  # forward_steps=1: one step
        assert v[model.index.index_of(atom("confirm", "contact"))] == pytest.approx(1.0, abs=1e-12)

    def test_zero_in_zero_out(self):
        comp = toy_compiler()
        model = comp.compile(("a", "b"))
        s = Sample.make([], [atom("p", "a")], [], ("a", "b"))
        w = comp.init_weights(3, 1.0)
        v = infer(model, w, s, Hyperparams())  # TOY_TEMPLATE chains one step
        assert v.sum() == 0.0

    def test_product_then_max(self):
        # body values 0.8 and 0.5, previous head value 0.3 -> 0.4
        frame = LanguageFrame(targets=(P,), extensional=(Q, R))
        pt = ProgramTemplate(slots=((P, (RuleTemplate(0, False),)),), forward_steps=1)
        comp = ModelCompiler(frame, pt)
        w = one_hot(comp, "p(V0) <- q(V0), r(V0)")
        model = comp.compile(("a",))
        p_a = model.index.index_of(atom("p", "a"))

        values = np.zeros(len(model.index))
        values[model.index.index_of(atom("q", "a"))] = 0.8
        values[model.index.index_of(atom("r", "a"))] = 0.5
        values[p_a] = 0.3
        assert chain_step(model, w, values, "max")[p_a] == pytest.approx(0.4, abs=1e-9)
        # and with an old value above the product, max keeps the old value
        values[p_a] = 0.9
        assert chain_step(model, w, values, "max")[p_a] == pytest.approx(0.9)


class TestInfer:
    def test_no_clause_keeps_init(self):
        frame = LanguageFrame(targets=(P,), extensional=(Q,))
        pt = ProgramTemplate(slots=((P, (RuleTemplate(0, False),)),), forward_steps=1)
        comp = ModelCompiler(frame, pt)
        s = Sample.make([atom("q", "a")], [atom("p", "a")], [], ("a",))
        w = [np.full(len(cs), -50.0) for _, cs in comp.pools]
        model = comp.compile(s.constants)
        assert infer(model, w, s, Hyperparams())[model.index.index_of(atom("q", "a"))] == 1.0

    def test_monotone_per_step(self):
        comp = toy_compiler()
        model = comp.compile(("a", "b", "c"))
        s = Sample.make(
            [atom("q", "a"), atom("r", "b")], [atom("p", "a")], [], ("a", "b", "c")
        )
        w = comp.init_weights(5, 0.7)
        v = start_valuation(model, s)
        for _ in range(6):
            nxt = chain_step(model, w, v, "max")
            assert np.all(nxt >= v - 1e-12)
            assert nxt.min() >= 0.0 and nxt.max() <= 1.0
            v = nxt

    def test_member_recursion_depth(self):
        member = Predicate("member", 2)
        succ = Predicate("succ", 2)
        frame = LanguageFrame(targets=(member,), extensional=(succ,))
        consts = ("n1", "n2", "n3", "n4", "t")
        chain = [("n1", "n2"), ("n2", "n3"), ("n3", "n4"), ("n4", "t")]
        background = [atom("succ", x, y) for x, y in chain]
        clauses = [
            parse_clause("member(V0, V1) <- succ(V1, V0), succ(V0, V2)"),
            parse_clause("member(V0, V1) <- succ(V1, V2), member(V0, V2)"),
        ]
        pools = [((member, 0), clauses)]
        pt = ProgramTemplate(slots=((member, (RuleTemplate(1, True),)),), forward_steps=4)
        comp = ModelCompiler(frame, pt, pools=pools)
        w = [np.array([60.0, 60.0])]
        # a slot mixes clauses by softmax, so a crisp two-clause program
        # needs them as background instead
        comp2 = ModelCompiler(
            frame,
            ProgramTemplate(slots=((member, (RuleTemplate(0, False),)),), forward_steps=4),
            pools=[((member, 0), [])],
        )
        s = Sample.make(background, [atom("member", "n4", "n1")], [], consts)
        oracle = boolean_rounds(clauses, set(background), consts, rounds=4)
        model = comp.compile(consts)
        # mixture weights mean fuzzy values sit below 1; compare support at T=4
        v = infer(model, [np.array([0.0, 0.0])], s, Hyperparams())
        fuzzy_support = {
            model.index.atoms[i]
            for i in range(1, len(model.index))
            if v[i] > 0
        }
        oracle_derived = {a for a in oracle if a.predicate == member} | set(background)
        assert fuzzy_support == oracle_derived
        assert v[model.index.index_of(atom("member", "n4", "n1"))] > 0  # needs the full depth


class TestLoss:
    def test_uniform_hand_value(self):
        comp = toy_compiler()
        w = comp.init_weights(0, 0.0)
        s = Sample.make([atom("q", "a")], [atom("p", "a")], [], ("a",))
        assert loss(comp, w, [s], Hyperparams()) == pytest.approx(math.log(3.0))

    def test_saturated_program_near_zero(self):
        comp = toy_compiler()
        w = one_hot(comp, "p(V0) <- q(V0)")
        s = Sample.make([atom("q", "a")], [atom("p", "a")], [atom("p", "b")], ("a", "b"))
        # the floor is the log clamp: -log(1 - 1e-6) per labeled atom
        assert loss(comp, w, [s], Hyperparams()) < 2e-6

    def test_regularizer_additive(self):
        comp = toy_compiler()
        w = comp.init_weights(1, 0.5)
        s = Sample.make([atom("q", "a")], [atom("p", "a")], [], ("a",))
        base = loss(comp, w, [s], Hyperparams())
        lam = 0.01
        l1 = loss(comp, w, [s], Hyperparams(reg_kind="l1", reg_lambda=lam))
        l2 = loss(comp, w, [s], Hyperparams(reg_kind="l2", reg_lambda=lam))
        flat = np.concatenate(w)
        assert l1 - base == pytest.approx(lam * np.abs(flat).sum())
        assert l2 - base == pytest.approx(lam * (flat**2).sum())

    def test_unlabeled_sample_rejected(self):
        comp = toy_compiler()
        w = comp.init_weights()
        s = Sample.make([atom("q", "a")], [], [], ("a",))
        with pytest.raises(ValueError):
            loss(comp, w, [s], Hyperparams())

    def test_permutation_equivariance(self):
        comp = toy_compiler()
        w = comp.init_weights(2, 0.8)
        s1 = Sample.make(
            [atom("q", "a"), atom("r", "b")],
            [atom("p", "a")],
            [atom("p", "c")],
            ("a", "b", "c"),
        )
        # bijection a->z, b->y, c->x applied to atoms and constant list
        s2 = Sample.make(
            [atom("q", "z"), atom("r", "y")],
            [atom("p", "z")],
            [atom("p", "x")],
            ("z", "y", "x"),
        )
        hp = Hyperparams()
        assert loss(comp, w, [s1], hp) == pytest.approx(
            loss(comp, w, [s2], hp), abs=1e-15
        )


class TestGrad:
    def test_matches_toy_finite_difference(self):
        comp = toy_compiler()
        w = comp.init_weights(4, 0.6)
        s = Sample.make(
            [atom("q", "a"), atom("r", "b")],
            [atom("p", "a")],
            [atom("p", "b")],
            ("a", "b"),
        )
        hp = Hyperparams(reg_kind="l2", reg_lambda=0.01)
        _, g = loss_and_grad(comp, w, [s], hp)
        fd = finite_difference_grad(comp, w, [s], hp)
        for a, b in zip(g, fd):
            assert np.allclose(a, b, atol=1e-7)

    def test_unlabeled_only_regularizer(self):
        comp = toy_compiler()
        w = comp.init_weights(4, 0.6)
        s = Sample.make([atom("q", "a")], [], [atom("p", "b")], ("a", "b"))
        # negative-only labels: data gradient only via p(b); make it unreachable
        hp = Hyperparams(reg_kind="l1", reg_lambda=0.05)
        _, g = loss_and_grad(comp, w, [s], hp)
        fd = finite_difference_grad(comp, w, [s], hp)
        for a, b in zip(g, fd):
            assert np.allclose(a, b, atol=1e-6)

    def test_saturated_gradient_small(self):
        comp = toy_compiler()
        w = one_hot(comp, "p(V0) <- q(V0)")
        s = Sample.make([atom("q", "a")], [atom("p", "a")], [atom("p", "b")], ("a", "b"))
        _, g = loss_and_grad(comp, w, [s], Hyperparams())
        assert np.linalg.norm(np.concatenate(g)) < 1e-3


class TestSampleCheck:
    """Training samples are checked in one place: every training call
    raises the same ``ValueError`` for the same bad sample list."""

    @pytest.mark.parametrize("case, message", [
        ("extensional label", r"^labeled atom known\(loc\) is not a target predicate$"),
        ("no labels", "^sample has no positive or negative atoms$"),
        ("no samples", "^no samples$"),
    ])
    def test_every_training_call_raises_the_same_error(self, case, message):
        compiler, hp = pipeline.simdial_task()
        records = pipeline.convert_corpus([representative_dialog("restaurant")])
        s = pipeline.training_samples(records)[0]
        samples = {
            "extensional label": [Sample.make(s.background, [*s.positive, atom("known", "loc")],
                                              s.negative, s.constants)],
            "no labels": [Sample.make(s.background, [], [], s.constants)],
            "no samples": [],
        }[case]
        weights = compiler.init_weights()
        c = compiler
        for call in (
            lambda: loss(c, weights, samples, hp),
            lambda: loss_and_grad(c, weights, samples, hp),
            lambda: finite_difference_grad(c, weights, samples, hp),
            lambda: train(c.frame, samples, c.template, replace(hp, training_steps=1),
                          c.background, c.background_pool),
        ):
            with pytest.raises(ValueError, match=message):
                call()


class TestCrispAgreementProperty:
    def test_exhaustive_small_instances(self):
        q2 = Predicate("q", 2)
        frame = LanguageFrame(targets=(P,), extensional=(Q, q2))
        pool = [
            parse_clause("p(V0) <- q(V0)"),
            parse_clause("p(V0) <- q(V0, V1), q(V1)"),
            parse_clause("p(V0) <- q(V0, V0)"),
            parse_clause("p(V0) <- p(V1), q(V1, V0)"),
            parse_clause("p(V0) <- q(V0), q(V0, V1)"),
        ]
        rng = np.random.default_rng(0)
        checked = 0
        for n_const in (2, 3, 5):
            consts = tuple(f"c{i}" for i in range(n_const))
            ext_atoms = [atom("q", c) for c in consts] + [
                atom("q", x, y) for x in consts for y in consts
            ]
            for clause_ids in itertools.chain(
                itertools.combinations(range(5), 1),
                itertools.combinations(range(5), 2),
            ):
                clauses = [pool[i] for i in clause_ids]
                pools = [((P, k), [c]) for k, c in enumerate(clauses)]
                slots = ((P, tuple(RuleTemplate(0, True) for _ in clauses)),)
                if len(clauses) > 2:
                    continue
                pt = ProgramTemplate(slots=slots, forward_steps=len(consts) * 3 + 2)
                comp = ModelCompiler(frame, pt, pools=pools)
                weights = [np.zeros(1) for _ in pools]
                for trial in range(3):
                    mask = rng.random(len(ext_atoms)) < 0.4
                    background = [a for a, m in zip(ext_atoms, mask) if m]
                    s = Sample.make(background, [atom("p", consts[0])], [], consts)
                    model = comp.compile(consts)
                    v = infer(model, weights, s, Hyperparams())
                    oracle = boolean_rounds(
                        clauses, set(background), consts, rounds=pt.forward_steps
                    )
                    for i in range(1, len(model.index)):
                        a = model.index.atoms[i]
                        assert (v[i] == 1.0) == (a in oracle), (
                            f"disagree on {a} with {clauses} bg={background}"
                        )
                        assert v[i] in (0.0, 1.0)
                    checked += 1
        assert checked >= 100


class TestTrain:
    def test_toy_convergence(self):
        comp_frame = TOY_FRAME
        s = Sample.make([atom("q", "a")], [atom("p", "a")], [atom("p", "b")], ("a", "b"))
        hp = Hyperparams(learning_rate=0.5, training_steps=500, seed=0, init_scale=0.1)
        m = train(comp_frame, [s], TOY_TEMPLATE, hp)
        assert m.final_loss < 0.01
        probs = m.probabilities()[0]
        best = m.compiler.pools[0][1][int(np.argmax(probs))]
        assert best == parse_clause("p(V0) <- q(V0)")

    def test_deterministic(self):
        s = Sample.make([atom("q", "a")], [atom("p", "a")], [], ("a", "b"))
        hp = Hyperparams(training_steps=50, seed=9, init_scale=0.3)
        m1 = train(TOY_FRAME, [s], TOY_TEMPLATE, hp)
        m2 = train(TOY_FRAME, [s], TOY_TEMPLATE, hp)
        assert m1.loss_trace == m2.loss_trace
        for a, b in zip(m1.weights, m2.weights):
            assert np.array_equal(a, b)

    def test_divergence_reported(self):
        s = Sample.make([atom("q", "a")], [atom("p", "a")], [], ("a",))
        hp = Hyperparams(learning_rate=1e9, training_steps=2000, seed=0, init_scale=1e9)
        with pytest.raises((TrainingDiverged, FloatingPointError, ValueError)):
            m = train(TOY_FRAME, [s], TOY_TEMPLATE, hp)
            # extreme settings must either diverge loudly or still be finite
            assert math.isfinite(m.final_loss)
            raise ValueError("stayed finite")

    def test_non_target_label_rejected(self):
        s = Sample.make([], [atom("q", "a")], [], ("a",))
        with pytest.raises(ValueError):
            train(TOY_FRAME, [s], TOY_TEMPLATE, Hyperparams(training_steps=1))

    def test_model_roundtrip(self, tmp_path):
        s = Sample.make([atom("q", "a")], [atom("p", "a")], [], ("a",))
        hp = Hyperparams(training_steps=20, seed=1, init_scale=0.2)
        m = train(TOY_FRAME, [s], TOY_TEMPLATE, hp)
        path = tmp_path / "model.json"
        m.save(path)
        loaded = TrainedModel.load(path)
        assert loaded.compiler.pools == m.compiler.pools
        assert loaded.loss_trace == m.loss_trace
        for a, b in zip(loaded.weights, m.weights):
            assert np.array_equal(a, b)
        loaded.compiler  # loading checked the pools against regeneration

    def test_model_file_with_frame_constants_loads(self):
        s = Sample.make([atom("q", "a")], [atom("p", "a")], [], ("a",))
        m = train(TOY_FRAME, [s], TOY_TEMPLATE, Hyperparams(training_steps=2))
        d = m.to_dict()
        assert "constants" not in d["frame"]
        d["frame"]["constants"] = ["a"]  # written by older versions, never read
        loaded = TrainedModel.from_dict(d)
        assert loaded.compiler.frame == TOY_FRAME
        assert loaded.compiler.pools == m.compiler.pools


class TestBackgroundClauses:
    def test_crisp_list_property_via_background(self):
        # fixed clauses with weight one drive the whole derivation; the
        # learnable slot pool is empty
        allp = Predicate("all", 1)
        target = Predicate("goal", 1)
        frame = LanguageFrame(
            targets=(target,),
            extensional=(
                Predicate("true", 1),
                Predicate("succ", 2),
                Predicate("terminal", 1),
            ),
        )
        background = [
            parse_clause("pred1(V0, V1) <- succ(V0, V1), all(V1)"),
            parse_clause("pred1(V0, V1) <- succ(V0, V1), terminal(V1)"),
            parse_clause("all(V0) <- true(V0), pred1(V0, V1)"),
        ]
        pt = ProgramTemplate(
            slots=((target, (RuleTemplate(0, False),)),), forward_steps=10
        )
        comp = ModelCompiler(frame, pt, background=background, pools=[((target, 0), [])])
        consts = tuple("abcdefgh") + ("t",)
        atoms_bg = [atom("terminal", "t")]
        atoms_bg += [
            atom("succ", x, y)
            for x, y in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "t"),
                         ("f", "g"), ("g", "h"), ("h", "t")]
        ]
        atoms_bg += [atom("true", x) for x in "acdefg"]
        s = Sample.make(atoms_bg, [atom("goal", "a")], [], consts)
        w = [np.zeros(0)]
        model = comp.compile(consts)
        v = infer(model, w, s, Hyperparams())
        for x in "abcdefgh":
            expected = 1.0 if x in "cde" else 0.0
            assert v[model.index.index_of(atom("all", x))] == expected, x



def test_list_problem_pool_contains_solution():
    from slotlogic.pipeline import list_all_problem
    from slotlogic.templates import slot_clause_pools

    (compiler, _), _ = list_all_problem()
    pools = dict(slot_clause_pools(compiler.template, compiler.frame))
    allp, helper = Predicate("all", 1), Predicate("pred1", 2)
    assert parse_clause("all(V0) <- true(V0), pred1(V0, V1)") in pools[(allp, 0)]
    for k in (0, 1):
        assert parse_clause("pred1(V0, V1) <- succ(V0, V1), all(V1)") in pools[(helper, k)]
        assert parse_clause("pred1(V0, V1) <- succ(V0, V1), terminal(V1)") in pools[(helper, k)]


def test_softmax_normalization_invariant():
    comp = toy_compiler()
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = [rng.standard_normal(len(cs)) * rng.uniform(0, 30) for _, cs in comp.pools]
        for p in probabilities(w):
            assert abs(p.sum() - 1.0) <= 1e-9


def test_sentinel_stays_zero_through_steps():
    comp = toy_compiler()
    model = comp.compile(("a", "b"))
    s = Sample.make([atom("q", "a")], [atom("p", "a")], [], ("a", "b"))
    w = comp.init_weights(1, 0.5)
    v = start_valuation(model, s)
    for _ in range(4):
        v = chain_step(model, w, v, "max")
        assert v[0] == 0.0


class TestAblationAmalgamation:
    def test_sum_variant_still_monotone_in_range(self):
        comp = toy_compiler()
        model = comp.compile(("a", "b"))
        s = Sample.make([atom("q", "a"), atom("r", "a")], [atom("p", "a")], [], ("a", "b"))
        w = comp.init_weights(3, 0.5)
        v = start_valuation(model, s)
        for _ in range(5):
            nxt = chain_step(model, w, v, "sum")
            assert np.all(nxt >= v - 1e-12)
            assert nxt.max() <= 1.0 + 1e-12
            v = nxt

    def test_sum_accumulates_above_max(self):
        w = toy_compiler().init_weights(0, 0.0)  # uniform thirds
        s = Sample.make([atom("q", "a"), atom("r", "a")], [atom("p", "a")], [], ("a",))
        frame_pt = ProgramTemplate(slots=TOY_TEMPLATE.slots, forward_steps=4)
        model = ModelCompiler(TOY_FRAME, frame_pt).compile(("a",))
        p_a = model.index.index_of(atom("p", "a"))
        v_max = infer(model, w, s, Hyperparams())[p_a]
        v_sum = infer(model, w, s, Hyperparams(amalgamation="sum"))[p_a]
        assert v_max == pytest.approx(1.0)  # one clause body is fully true
        assert v_sum > v_max - 1e-12  # probabilistic sum accumulates

    def test_loss_takes_the_amalgamation_of_its_hyperparams(self):
        compiler, _, samples, hp = TestLivePrune.simdial_case()
        weights = compiler.init_weights(0, 0.0)
        hp_sum = replace(hp, amalgamation="sum")
        value = loss(compiler, weights, samples, hp_sum)
        assert value != loss(compiler, weights, samples, hp)
        assert np.float64(value).tobytes() == \
            np.float64(reference_loss(compiler, weights, samples, hp_sum)).tobytes()

    def test_fit_overrides_the_amalgamation(self):
        _, _, samples, _ = TestLivePrune.simdial_case()
        traces = [pipeline.fit(pipeline.simdial_task(), samples, 1, training_steps=5,
                               **overrides).loss_trace
                  for overrides in ({}, {"amalgamation": "sum"})]
        assert traces[0] != traces[1]


class TestTieRules:
    """Hand-computed gradients where a max has two exact winners.

    Every pool starts at zero weight, so a two-clause slot mixes at 1/2.
    The target's single clause ``t() <- h(X), s(X)`` takes the max over the
    rows X = c0, c1, and ``-log t`` has gradient -2 at t = 1/2. Which side
    of a tie takes that gradient decides whether it reaches the weight of
    h's first or second clause: the softmax turns dp = (-2, 0) into raw
    gradients (-1/2, +1/2) and dp = (0, -2) into (+1/2, -1/2).
    """

    T, H, K = Predicate("t", 0), Predicate("h", 1), Predicate("k", 1)
    CONSTS = ("c0", "c1")

    def grads(self, pools, background, steps):
        frame = LanguageFrame(
            targets=(self.T,),
            extensional=(Q, R, Predicate("s", 1), Predicate("m", 1)),
        )
        slots = tuple((pred, (RuleTemplate(0, True),)) for (pred, _), _ in pools)
        aux = tuple(pred for (pred, _), _ in pools if pred != self.T)
        pt = ProgramTemplate(slots=slots, auxiliary=aux, forward_steps=steps)
        comp = ModelCompiler(frame, pt, pools=pools)
        w = [np.zeros(len(cs)) for _, cs in pools]
        s = Sample.make(background, [atom("t")], [], self.CONSTS)
        value, g = loss_and_grad(comp, w, [s], Hyperparams())
        assert value == pytest.approx(math.log(2.0), abs=1e-12)
        return {pred: v for ((pred, _), _), v in zip(pools, g)}

    def target_pool(self):
        return ((self.T, 0), [parse_clause("t() <- h(V0), s(V0)")])

    def test_lowest_row_takes_a_row_tie(self):
        # After step one h(c0) = 1/2 through q and h(c1) = 1/2 through r;
        # step two ties the rows of t, and row c0 comes first.
        pools = [
            self.target_pool(),
            ((self.H, 0), [parse_clause("h(V0) <- q(V0)"), parse_clause("h(V0) <- r(V0)")]),
        ]
        bg = [atom("q", "c0"), atom("r", "c1"), atom("s", "c0"), atom("s", "c1")]
        g = self.grads(pools, bg, steps=2)
        assert np.allclose(g[self.H], [-0.5, 0.5], rtol=0, atol=1e-12)
        assert np.allclose(g[self.T], [0.0], rtol=0, atol=1e-12)

    def test_old_value_takes_a_tie_with_a_fresh_derivation(self):
        # h(c1) = 1/2 after step one (through q); h(c0) = 1/2 after step two
        # (through k, itself derived in step one). Step two derives t = 1/2
        # from row c1; step three derives t = 1/2 again, now from row c0.
        # The old value wins, so the gradient follows h(c1) back to q.
        pools = [
            self.target_pool(),
            ((self.H, 0), [parse_clause("h(V0) <- q(V0)"), parse_clause("h(V0) <- k(V0)")]),
            ((self.K, 0), [parse_clause("k(V0) <- m(V0)")]),
        ]
        bg = [atom("q", "c1"), atom("m", "c0"), atom("s", "c0"), atom("s", "c1")]
        g = self.grads(pools, bg, steps=3)
        assert np.allclose(g[self.H], [-0.5, 0.5], rtol=0, atol=1e-12)
        assert np.allclose(g[self.T], [0.0], rtol=0, atol=1e-12)
        assert np.allclose(g[self.K], [0.0], rtol=0, atol=1e-12)


class TestOneChain:
    """``infer`` equals the reference step (``chain_step``) chained from its
    start valuation, and ``loss`` and ``loss_and_grad`` chain alike."""

    @staticmethod
    def cases():
        compiler = ModelCompiler(
            pipeline.simdial_frame(), pipeline.simdial_template(), *pipeline.simdial_background()
        )
        records = pipeline.convert_corpus([representative_dialog("restaurant")])
        yield (compiler, compiler.init_weights(seed=0, scale=1.0),
               [r.sample for r in records], pipeline.simdial_hyperparams())
        rng = np.random.default_rng(0)
        for _ in range(200):
            yield _random_instance(rng)

    def test_infer_equals_chained_steps(self):
        for compiler, weights, samples, hp in self.cases():
            for s in samples:
                model = compiler.compile(s.constants)
                v = start_valuation(model, s)
                for _ in range(model.forward_steps):
                    v = chain_step(model, weights, v, hp.amalgamation)
                assert np.array_equal(infer(model, weights, s, hp), v)

    def test_loss_is_the_value_of_loss_and_grad(self):
        for compiler, weights, samples, hp in self.cases():
            assert loss(compiler, weights, samples, hp) == loss_and_grad(
                compiler, weights, samples, hp
            )[0]


class TestLivePrune:
    """Chains keep only the table segments that some weight can make
    non-zero; valuations, loss and gradient equal those of the whole-table
    reference in ``tests/oracles.py``."""

    @staticmethod
    def simdial_case(extra_dialogs=()):
        compiler = ModelCompiler(
            pipeline.simdial_frame(), pipeline.simdial_template(), *pipeline.simdial_background()
        )
        records = pipeline.convert_corpus([representative_dialog("restaurant"), *extra_dialogs])
        samples = pipeline.training_samples(records)
        return compiler, compiler.init_weights(seed=0, scale=1.0), samples, pipeline.simdial_hyperparams()

    @staticmethod
    def correction_dialog():
        for seed in range(50):
            d = generate_dialog(GeneratorConfig(DOMAINS["restaurant"], seed=seed,
                                                correction_probability=1.0))
            if any(t.correction for t in d.turns):
                return d
        raise RuntimeError("no correction dialog found")

    @staticmethod
    def valuations(chain, weights):
        """The whole valuation (S, atoms) before each step of ``chain``."""
        _chain(chain, chain.weigh(probabilities(weights)))
        return [chain.valuation(t, a) for t, a in enumerate(chain.states[:-1])]

    @staticmethod
    def dropped_and_check(compiler, weights, samples, hp) -> int:
        """Asserts the pruned batches agree bit for bit with the whole-table
        reference and that every (sample, segment) cell a pruned chain
        drops is 0 in that sample's whole valuation at every step; returns
        how many cells were dropped."""
        pruned = _prepare_batches(compiler, samples, hp)
        assert np.float64(loss(compiler, weights, samples, hp, pruned)).tobytes() == \
            np.float64(reference_loss(compiler, weights, samples, hp)).tobytes()
        value, grads = loss_and_grad(compiler, weights, samples, hp, pruned)
        ref_value, ref_grads = reference_loss_and_grad(compiler, weights, samples, hp)
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert len(grads) == len(ref_grads)
        assert all(g.tobytes() == rg.tobytes() for g, rg in zip(grads, ref_grads))
        refs = reference_valuations(compiler, weights, samples, hp.amalgamation)
        assert len(refs) == len(pruned)
        n_dropped = 0
        for b, ref_xs in zip(pruned, refs):
            model = b.chain.model
            S = len(b.chain.fixed[0])
            dropped = np.ones(S * model.seg_out.size, dtype=bool)
            dropped[b.chain.cells] = False
            dropped = dropped.reshape(S, -1)
            xs = TestLivePrune.valuations(b.chain, weights)
            assert len(xs) == len(ref_xs) == model.forward_steps
            for x, ref_x in zip(xs, ref_xs):
                assert x.tobytes() == ref_x.tobytes()
                assert not model.table.values(ref_x)[0][dropped].any()
            n_dropped += int(dropped.sum())
        return n_dropped

    def test_restaurant_batch(self):
        assert self.dropped_and_check(*self.simdial_case()) > 0

    def test_restaurant_with_correction_batch(self):
        compiler, weights, samples, hp = self.simdial_case([self.correction_dialog()])
        assert len(samples) == 20
        assert self.dropped_and_check(compiler, weights, samples, hp) > 0

    def test_two_batch_set(self):
        compiler, weights, samples, hp, _ = TestChainCheck.two_batch_case()
        assert self.dropped_and_check(compiler, weights, samples, hp) > 0

    def test_random_instances(self):
        rng = np.random.default_rng(0)
        dropped = {"max": 0, "sum": 0}
        pairs = 0
        for _ in range(60):
            compiler, weights, samples, hp = _random_instance(rng)
            dropped[hp.amalgamation] += self.dropped_and_check(compiler, weights, samples, hp)
            pairs += compiler.compile(samples[0].constants).pair_cols.size > 0
        assert dropped["max"] > 0 and dropped["sum"] > 0 and pairs > 0

    def test_random_multi_sample_instances(self):
        rng = np.random.default_rng(2)
        dropped = {"max": 0, "sum": 0}
        for _ in range(40):
            compiler, weights, samples, hp = random_multi_sample_instance(rng)
            dropped[hp.amalgamation] += self.dropped_and_check(compiler, weights, samples, hp)
        assert dropped["max"] > 0 and dropped["sum"] > 0


class TestFixpoint:
    """The one boolean pass stops background chaining at its fixpoint and
    equals full-length chaining under either amalgamation; its liveness
    equals the separate pass it replaced; and a chain computes its fixed
    cells only for the distinct steps."""

    @staticmethod
    def full_length(model, a0, steps, amalgamation):
        out = np.empty((steps + 1, *a0.shape))
        out[0] = a0
        cols = model.static.key
        for t in range(steps):
            out[t + 1] = out[t]
            out[t + 1][:, cols] = engine_mod._amalgamate(
                amalgamation, out[t][:, cols], model.static.values(out[t])[0])[0]
        return out

    def assert_equals_full_length(self, compiler, samples, hp) -> bool:
        """Whether some batch reached its fixpoint before the last step."""
        early = False
        for b in _prepare_batches(compiler, samples, hp):
            chain = b.chain
            model, steps = chain.model, chain.model.forward_steps
            a0 = chain.fixed[0]
            fixed, seg_values, live = _reachable(model, a0)
            assert fixed.tobytes() == chain.fixed.tobytes()
            n = len(fixed)
            assert seg_values.shape == (min(n, steps), *live.shape)
            for amalgamation in AMALGAMATIONS:
                full = self.full_length(model, a0, steps, amalgamation)
                assert np.array_equal(fixed[np.minimum(np.arange(steps + 1), n - 1)], full)
                ref_fixed = reference_fixed_valuations(model, a0, amalgamation)
                assert fixed.shape == ref_fixed.shape and np.array_equal(fixed, ref_fixed)
                assert np.array_equal(live, reference_live_segments(model, full))
            assert set(np.unique(fixed)) <= {0.0, 1.0}
            early |= n < steps
            full_values = np.stack([model.table.values(full[t] > 0)[0] for t in range(steps)])
            ref = engine_mod._Chain.build(model, full, full_values, live, hp.amalgamation)
            for name in ("cells", "seg", "out_cells", "rows"):
                assert np.array_equal(getattr(chain, name), getattr(ref, name))
            heads = chain.fixed.shape[1] * chain.heads.size
            assert np.array_equal(chain.z[:, heads:], ref.z[:, heads:])
        return early

    def test_restaurant_batch(self):
        compiler, _, samples, hp = TestLivePrune.simdial_case()
        assert self.assert_equals_full_length(compiler, samples, hp)
        (batch,) = _prepare_batches(compiler, samples, hp)
        assert len(batch.chain.fixed) < compiler.template.forward_steps

    def test_restaurant_with_correction_batch(self):
        compiler, _, samples, hp = TestLivePrune.simdial_case([TestLivePrune.correction_dialog()])
        assert self.assert_equals_full_length(compiler, samples, hp)

    def test_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            compiler, _, samples, hp = _random_instance(rng)
            self.assert_equals_full_length(compiler, samples, hp)
            compiler, _, samples, hp = random_multi_sample_instance(rng)
            self.assert_equals_full_length(compiler, samples, hp)

    def test_random_background_programs(self):
        rng = np.random.default_rng(5)
        seen = {"recursive": 0, "a constant": 0, "a slot reads a background head": 0,
                "a fixpoint before the last step": 0, "a background head grows": 0}
        for i in range(60):
            compiler, weights, samples = random_background_instance(rng)
            clauses = compiler.background
            heads = {c.head.predicate for c in clauses}
            seen["recursive"] += any(a.predicate in heads for c in clauses for a in c.body)
            seen["a constant"] += any(not t.is_variable for c in clauses
                                      for a in (c.head, *c.body) for t in a.args)
            seen["a slot reads a background head"] += any(
                a.predicate in heads for _, cs in compiler.pools for c in cs for a in c.body)
            for amalgamation in AMALGAMATIONS:
                hp = Hyperparams(amalgamation=amalgamation, seed=i)
                early = self.assert_equals_full_length(compiler, samples, hp)
                TestHeadKernel.assert_equals_reference(compiler, weights, samples, hp)
            seen["a fixpoint before the last step"] += early
            seen["a background head grows"] += any(
                len(b.chain.fixed) > 1 for b in _prepare_batches(compiler, samples, hp))
        assert all(seen.values()), seen


class TestHeadKernel:
    """The head-only kernel (fixed segments precomputed per batch, state and
    gradient over slot heads) equals the whole-valuation reference in
    ``tests/oracles.py`` bit for bit."""

    @staticmethod
    def assert_equals_reference(compiler, weights, samples, hp):
        value, grads = loss_and_grad(compiler, weights, samples, hp)
        ref_value, ref_grads = reference_loss_and_grad(compiler, weights, samples, hp)
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert len(grads) == len(ref_grads)
        for g, rg in zip(grads, ref_grads):
            assert g.tobytes() == rg.tobytes()
        ref_loss = reference_loss(compiler, weights, samples, hp)
        assert np.float64(loss(compiler, weights, samples, hp)).tobytes() == \
            np.float64(ref_loss).tobytes()

    @staticmethod
    def reads_a_head_in_a_multi_row_segment(compiler, samples, hp) -> bool:
        return any(b.chain.multi.blocks for b in _prepare_batches(compiler, samples, hp))

    @pytest.mark.parametrize("seed, scale", [(0, 0.0), (0, 1.0), (1, 3.0)])
    def test_restaurant_batch(self, seed, scale):
        compiler, _, samples, hp = TestLivePrune.simdial_case()
        self.assert_equals_reference(compiler, compiler.init_weights(seed, scale), samples, hp)
        assert not self.reads_a_head_in_a_multi_row_segment(compiler, samples, hp)

    def test_restaurant_with_correction_batch(self):
        compiler, weights, samples, hp = TestLivePrune.simdial_case(
            [TestLivePrune.correction_dialog()])
        assert len(samples) == 20
        self.assert_equals_reference(compiler, weights, samples, hp)

    def test_random_instances(self):
        rng = np.random.default_rng(0)
        seen = {"max": 0, "sum": 0, "pairs": 0, "multi-row head reads": 0}
        for _ in range(60):
            compiler, weights, samples, hp = _random_instance(rng)
            self.assert_equals_reference(compiler, weights, samples, hp)
            seen[hp.amalgamation] += 1
            seen["pairs"] += compiler.compile(samples[0].constants).pair_cols.size > 0
            seen["multi-row head reads"] += self.reads_a_head_in_a_multi_row_segment(
                compiler, samples, hp)
        assert all(seen.values()), seen

    def test_random_multi_sample_instances(self):
        rng = np.random.default_rng(1)
        seen = {"max": 0, "sum": 0, "pairs": 0, "multi-row head reads": 0, "two lists": 0,
                "a segment kept in some samples only": 0}
        for _ in range(60):
            compiler, weights, samples, hp = random_multi_sample_instance(rng)
            assert 2 <= len(samples) <= 4
            self.assert_equals_reference(compiler, weights, samples, hp)
            seen[hp.amalgamation] += 1
            seen["pairs"] += compiler.compile(samples[0].constants).pair_cols.size > 0
            seen["multi-row head reads"] += self.reads_a_head_in_a_multi_row_segment(
                compiler, samples, hp)
            batches = _prepare_batches(compiler, samples, hp)
            seen["two lists"] += len(batches) == 2
            for b in batches:
                S, K = len(b.chain.fixed[0]), b.chain.model.seg_out.size
                kept = np.zeros(S * K, dtype=bool)
                kept[b.chain.cells] = True
                kept = kept.reshape(S, K)
                seen["a segment kept in some samples only"] += (kept.any(0) & ~kept.all(0)).any()
        assert all(seen.values()), seen

    @staticmethod
    def scattered_heads_case():
        """Heads are h (one slot), then t (two slots); u, a target with no
        slot, lies between them in the index and is labeled. t's second
        slot reads h through a free variable: multi-row segments that read
        a head. Returns the compiler, the one sample and u."""
        t, u, h = Predicate("t", 1), Predicate("u", 1), Predicate("h", 1)
        e, f = Predicate("e", 1), Predicate("f", 2)
        frame = LanguageFrame(targets=(t, u), extensional=(e, f))
        template = ProgramTemplate(
            slots=((t, (RuleTemplate(0, True), RuleTemplate(1, True))),
                   (h, (RuleTemplate(0, True),))),
            auxiliary=(h,), forward_steps=3)
        pools = [
            ((t, 0), [parse_clause("t(X) <- e(X)"), parse_clause("t(X) <- h(X), e(X)")]),
            ((t, 1), [parse_clause("t(X) <- h(Y), f(X, Y)"), parse_clause("t(X) <- f(X, X)")]),
            ((h, 0), [parse_clause("h(X) <- e(X)"), parse_clause("h(X) <- f(X, Y), e(Y)")]),
        ]
        compiler = ModelCompiler(frame, template, pools=pools)
        constants = ("a", "b", "c")
        sample = Sample.make(
            [atom("e", "a"), atom("f", "b", "a"), atom("f", "c", "c"), atom("u", "b")],
            [atom("t", "b"), atom("u", "b"), atom("t", "c")], [atom("t", "a"), atom("u", "c")],
            constants,
        )
        return compiler, sample, u

    @pytest.mark.parametrize("amalgamation", AMALGAMATIONS)
    def test_scattered_heads_and_a_labeled_target_without_slot(self, amalgamation):
        compiler, sample, u = self.scattered_heads_case()
        model = compiler.compile(sample.constants)
        lo, hi = model.index.ranges[u]
        heads = set(model.heads.tolist())
        assert min(heads) < lo and hi <= max(heads) and not heads & set(range(lo, hi))
        rng = np.random.default_rng(1)
        hp = Hyperparams(amalgamation=amalgamation)
        for _ in range(5):
            weights = [rng.standard_normal(len(cs)) for _, cs in compiler.pools]
            self.assert_equals_reference(compiler, weights, [sample], hp)
        assert self.reads_a_head_in_a_multi_row_segment(compiler, [sample], hp)

    def test_nan_weights_raise(self):
        compiler, weights, samples, hp = TestLivePrune.simdial_case()
        weights[0][0] = np.nan
        with pytest.raises(ValuationInvariantError):
            loss(compiler, weights, samples, hp)
        with pytest.raises(ValuationInvariantError):
            loss_and_grad(compiler, weights, samples, hp)


class TestChainRecord:
    """A chain's step record is rewritten by every call, never carried
    over: batches already used at other weights give the loss and gradient
    of fresh ones bit for bit, and ``infer`` repeats itself."""

    @staticmethod
    def case(name):
        if name == "list-all":
            from slotlogic.pipeline import list_all_problem
            (compiler, _), sample = list_all_problem()
        else:
            compiler, sample, _ = TestHeadKernel.scattered_heads_case()
        return compiler, sample

    @pytest.mark.parametrize("name", ["list-all", "scattered-heads"])
    @pytest.mark.parametrize("amalgamation", AMALGAMATIONS)
    def test_reused_batches_equal_fresh_ones(self, name, amalgamation):
        compiler, sample = self.case(name)
        hp = Hyperparams(amalgamation=amalgamation)
        rng = np.random.default_rng(2)
        draws = [[rng.standard_normal(len(cs)) for _, cs in compiler.pools] for _ in range(4)]
        used = _prepare_batches(compiler, [sample], hp)
        (batch,) = used
        assert batch.chain.multi.blocks and batch.chain.model.pair_cols.size
        loss_and_grad(compiler, draws[-1], [sample], hp, used)
        for weights in draws:
            value, grads = loss_and_grad(compiler, weights, [sample], hp, used)
            fresh_value, fresh_grads = loss_and_grad(
                compiler, weights, [sample], hp, _prepare_batches(compiler, [sample], hp))
            assert np.float64(value).tobytes() == np.float64(fresh_value).tobytes()
            assert [g.tobytes() for g in grads] == [g.tobytes() for g in fresh_grads]
            assert np.float64(loss(compiler, weights, [sample], hp, used)).tobytes() == \
                np.float64(fresh_value).tobytes()

    @pytest.mark.parametrize("name", ["list-all", "scattered-heads"])
    @pytest.mark.parametrize("amalgamation", AMALGAMATIONS)
    def test_infer_repeats(self, name, amalgamation):
        compiler, sample = self.case(name)
        hp = Hyperparams(amalgamation=amalgamation)
        model = compiler.compile(sample.constants)
        rng = np.random.default_rng(3)
        weights, other = ([rng.standard_normal(len(cs)) for _, cs in compiler.pools]
                          for _ in range(2))
        first = infer(model, weights, sample, hp)
        infer(model, other, sample, hp)
        assert first.tobytes() == infer(model, weights, sample, hp).tobytes()


class TestChainCheck:
    """A chain checks the head values of all its steps at once, after the
    last step: the count grows by the step count per chain, and an error
    names the first step that fails."""

    @staticmethod
    def two_batch_case():
        compiler, weights, samples, hp = TestLivePrune.simdial_case([representative_dialog("movie")])
        batches = _prepare_batches(compiler, samples, hp)
        assert len(batches) == 2
        return compiler, weights, samples, hp, batches

    def test_one_check_per_step_and_chain(self):
        compiler, weights, samples, hp, batches = self.two_batch_case()
        steps = compiler.template.forward_steps
        for run in (loss, loss_and_grad):
            before = engine_mod.VALUATION_CHECKS
            run(compiler, weights, samples, hp, batches)
            assert engine_mod.VALUATION_CHECKS - before == steps * len(batches)

    @pytest.mark.parametrize("fault, message", [
        ("range", r"valuation left \[0,1\] at step 5: "),
        ("decrease", r"valuation decreased at step 5$"),
        ("nan", r"valuation is NaN at step 5$"),
    ])
    def test_failing_step_named(self, monkeypatch, fault, message):
        compiler, weights, samples, hp, batches = self.two_batch_case()
        amalgamate = engine_mod._amalgamate

        def faulty(kind, a, b):
            a_new, over_one = amalgamate(kind, a, b)
            if len(calls) == 5:
                if fault == "range":
                    a_new = a_new + 2.0  # and step 6 lowers it to 1
                elif fault == "nan":
                    a_new = a_new + np.nan
                else:
                    assert a.max() > 0.01
                    a_new = a * 0.5
            calls.append(kind)
            return a_new, over_one

        monkeypatch.setattr(engine_mod, "_amalgamate", faulty)
        for run in (loss, loss_and_grad):
            calls = []
            before = engine_mod.VALUATION_CHECKS
            with pytest.raises(ValuationInvariantError, match=message):
                run(compiler, weights, samples, hp, batches)
            assert len(calls) == compiler.template.forward_steps
            assert engine_mod.VALUATION_CHECKS == before


def test_slot_predicate_that_is_a_background_head_rejected():
    # The kernel chains background heads ahead of the weights, so no slot
    # may write one.
    with pytest.raises(ValueError, match="background clause head"):
        toy_compiler(background=[parse_clause("q(X) <- r(X)")],
                     pools=[((Q, 0), [parse_clause("q(X) <- r(X)")])])
