"""End-to-end acceptance checks. Each test prints one PASS line; run
with ``pytest tests/test_acceptance.py -v -s`` to see them."""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import slotlogic.engine as engine_mod
from slotlogic import (
    Hyperparams,
    LanguageFrame,
    ModelCompiler,
    Predicate,
    ProgramTemplate,
    RuleTemplate,
    Sample,
    atom,
    infer,
    parse_clause,
)
from slotlogic.extract import crisp_infer, extract_program, program_to_text
from slotlogic.gradcheck import run_gradcheck
from slotlogic.metrics import evaluate_turns
from slotlogic.multiwoz import encode_act_triples, read_domain_state
from slotlogic.pipeline import (
    convert_corpus,
    evaluate_program_on_corpus,
    fit,
    list_all_problem,
    predict_records,
    simdial_one_shot,
    simdial_task,
    training_samples,
)
from slotlogic.simulator import (
    DOMAINS,
    GeneratorConfig,
    generate_corpus,
    generate_dialog,
    representative_dialog,
)

from .oracles import boolean_rounds, list_all_property, multiset_f1_counts

pytestmark = pytest.mark.acceptance

EVAL_SEED = 20_240_601
EVAL_CORRECTION_PROB = 0.02


def report(line):
    print(f"\n[PASS] {line}")


@pytest.fixture(scope="module")
def one_shot():
    t0 = time.time()
    result = simdial_one_shot("restaurant", restarts=3)
    result.train_seconds = time.time() - t0
    return result


@pytest.fixture(scope="module")
def correction_dialog():
    for seed in range(50):
        d = generate_dialog(
            GeneratorConfig(DOMAINS["restaurant"], seed=seed, correction_probability=1.0)
        )
        if any(t.correction for t in d.turns):
            return d
    raise RuntimeError("no correction dialog found")


def eval_domain(program, domain, n=500):
    corpus = generate_corpus(
        domain, n, seed=EVAL_SEED, correction_probability=EVAL_CORRECTION_PROB
    )
    report_, _ = evaluate_program_on_corpus(program, corpus)
    return report_


def test_criterion_1_list_all_golden_task():
    t0 = time.time()
    task, sample = list_all_problem()
    trained = fit(task, [sample], restarts=12)
    program = extract_program(trained)

    derived = crisp_infer(program, sample.background)
    got_positive = {a for a in derived if a.predicate.name == "all"}
    assert got_positive == set(sample.positive), (
        f"training atoms misclassified: {got_positive}"
    )

    rng = np.random.default_rng(2024)
    errors = 0
    judged = 0
    for _ in range(20):
        length = int(rng.integers(1, 7))
        nodes = [f"n{i}" for i in range(length)]
        truths = {n for n in nodes if rng.random() < 0.6}
        background = [atom("terminal", "t")]
        background += [atom("succ", a, b) for a, b in zip(nodes, nodes[1:])]
        background.append(atom("succ", nodes[-1], "t"))
        background += [atom("true", n) for n in sorted(truths)]
        derived = crisp_infer(program, background)
        holds = {a.args[0].label for a in derived if a.predicate.name == "all"}
        for n in nodes:
            judged += 1
            if (n in holds) != list_all_property(nodes, truths, n):
                errors += 1
    elapsed = time.time() - t0
    assert errors == 0
    assert elapsed < 300, f"budget exceeded: {elapsed:.0f}s"
    report(
        f"criterion 1: list-all learned from one example; training atoms exact, "
        f"{judged} held-out judgments over 20 random lists, 0 errors, {elapsed:.0f}s"
    )


def test_criterion_2_one_shot_in_domain(one_shot):
    t0 = time.time()
    scores = eval_domain(one_shot.program, "restaurant")
    elapsed = one_shot.train_seconds + (time.time() - t0)
    assert scores.intent.f1 >= 0.99, f"intent F1 {scores.intent.f1:.4f}"
    assert scores.entity.f1 >= 0.99, f"entity F1 {scores.entity.f1:.4f}"
    assert elapsed < 1800
    report(
        f"criterion 2: one-shot in-domain intent F1 {scores.intent.f1:.4f}, "
        f"entity F1 {scores.entity.f1:.4f} over {scores.n_turns} turns "
        f"({elapsed:.0f}s incl. training)"
    )


def test_criterion_3_zero_shot_transfer(one_shot):
    lines = []
    for domain in ("movie", "bus", "weather"):
        scores = eval_domain(one_shot.program, domain)
        assert scores.intent.f1 >= 0.99, f"{domain} intent {scores.intent.f1:.4f}"
        assert scores.entity.f1 >= 0.99, f"{domain} entity {scores.entity.f1:.4f}"
        lines.append(
            f"{domain} intent {scores.intent.f1:.4f} entity {scores.entity.f1:.4f}"
        )
    report("criterion 3: zero-shot transfer " + "; ".join(lines))


def test_criterion_4_learned_rule_identity(one_shot):
    by_pred = {}
    for ((pred, slot), clauses), probs in zip(
        one_shot.trained.compiler.pools,
        one_shot.trained.compiler.per_pool(one_shot.trained.probabilities()),
    ):
        by_pred[(pred.name, slot)] = clauses[int(np.argmax(probs))]
    assert by_pred[("sys_request", 0)] == parse_clause(
        "sys_request(V0) <- member_usr(V0), unknown(V0)"
    )
    assert by_pred[("sys_inform", 0)] == parse_clause(
        "sys_inform(V0) <- kb_return(V0)"
    )
    report(
        "criterion 4: argmax rules match, sys_request <- member_usr & unknown; "
        "sys_inform <- kb_return"
    )


def test_shipped_program_is_the_one_shot_program(one_shot):
    # The transfer benchmark applies this file; it must be what training
    # extracts, byte for byte.
    shipped = Path(__file__).parents[1] / "perfbench" / "data" / "restaurant_program.txt"
    assert program_to_text(one_shot.program).encode() == shipped.read_bytes()
    report("shipped program: perfbench/data/restaurant_program.txt equals the one-shot program")


def test_criterion_5_failure_case_and_retraining(one_shot, correction_dialog):
    records = convert_corpus([correction_dialog])
    correction_turns = [r for r in records if r.meta["correction"]]
    assert correction_turns

    base_preds = {
        p["meta"]["turn"]: p["acts"]
        for p in predict_records(one_shot.program, records)
    }
    for r in correction_turns:
        assert r.meta["gold_acts"] == [["query", "default"]]
        assert base_preds[r.meta["turn"]] == [], "base model should predict no action"

    retrained = fit(simdial_task(), training_samples(
        convert_corpus([representative_dialog("restaurant"), correction_dialog])), restarts=3)
    new_preds = {
        p["meta"]["turn"]: p["acts"]
        for p in predict_records(extract_program(retrained), records)
    }
    for r in correction_turns:
        assert new_preds[r.meta["turn"]] == [["query", "default"]]
    report(
        f"criterion 5: {len(correction_turns)} correction turn(s) predicted as "
        "no-action before retraining and as query(default) after"
    )


def test_criterion_6_gradient_correctness():
    result = run_gradcheck(seed=0, instances=100)
    assert result.instances == 100
    assert result.max_rel_error <= 1e-4
    report(
        f"criterion 6: reverse-mode vs central differences on 100 instances, "
        f"{result.parameters} parameters, max relative error "
        f"{result.max_rel_error:.2e}"
    )


def test_criterion_7_crisp_agreement_exhaustive():
    p1, q1, q2 = Predicate("p", 1), Predicate("q", 1), Predicate("s", 2)
    frame = LanguageFrame(targets=(p1,), extensional=(q1, q2))
    pool = [
        parse_clause("p(V0) <- q(V0)"),
        parse_clause("p(V0) <- s(V0, V1), q(V1)"),
        parse_clause("p(V0) <- s(V0, V0)"),
        parse_clause("p(V0) <- p(V1), s(V1, V0)"),
        parse_clause("p(V0) <- q(V0), s(V0, V1)"),
        parse_clause("p(V0) <- s(V1, V0), s(V0, V2)"),
    ]
    rng = np.random.default_rng(11)
    instances = 0
    atoms_checked = 0
    for n_const in (2, 3, 4, 5):
        constants = tuple(f"c{i}" for i in range(n_const))
        ext_atoms = [atom("q", c) for c in constants] + [
            atom("s", x, y) for x in constants for y in constants
        ]
        subsets = list(itertools.combinations(range(len(pool)), 1)) + list(
            itertools.combinations(range(len(pool)), 2)
        )
        for ids in subsets:
            clauses = [pool[i] for i in ids]
            pools = [((p1, k), [c]) for k, c in enumerate(clauses)]
            slots = ((p1, tuple(RuleTemplate(0, True) for _ in clauses)),)
            pt = ProgramTemplate(slots=slots, forward_steps=3 * n_const + 2)
            compiler = ModelCompiler(frame, pt, pools=pools)
            weights = np.zeros(len(pools))
            for _ in range(2):
                mask = rng.random(len(ext_atoms)) < 0.4
                background = [a for a, m in zip(ext_atoms, mask) if m]
                sample = Sample.make(
                    background, [atom("p", constants[0])], [], constants
                )
                model = compiler.compile(constants)
                valuation = infer(model, weights, sample, Hyperparams())
                oracle = boolean_rounds(
                    clauses, set(background), constants, rounds=pt.forward_steps
                )
                for i in range(1, len(model.index)):
                    a = model.index.atoms[i]
                    assert valuation[i] in (0.0, 1.0)
                    assert (valuation[i] == 1.0) == (a in oracle)
                    atoms_checked += 1
                instances += 1
    report(
        f"criterion 7: one-hot inference equals the boolean fixpoint oracle on "
        f"{instances} instances / {atoms_checked} atom values"
    )


def test_criterion_8_monotonicity_and_range(one_shot):
    from slotlogic.engine import _prepare_batches, _step

    compiler = one_shot.trained.compiler
    sample = [r.sample for r in one_shot.records if r.meta["supervised"]][0]
    (batch,) = _prepare_batches(compiler, [sample], one_shot.trained.hyperparams)
    chain = batch.chain
    w = chain.weigh(one_shot.trained.probabilities())
    prev = chain.fixed[0]
    for t in range(chain.model.forward_steps):
        _step(chain, w, t)
        nxt = chain.valuation(t + 1, chain.states[t + 1])
        assert np.all(nxt >= prev - 1e-12)
        assert nxt.min() >= 0.0 and nxt.max() <= 1.0
        prev = nxt
    checks = engine_mod.VALUATION_CHECKS
    assert checks > 10_000, "instrumentation should have run throughout"
    report(
        f"criterion 8: {checks} instrumented steps across this session, "
        "zero range/monotonicity violations (violations raise)"
    )


def test_criterion_9_multiwoz_converter_suite():
    state = {
        "book": {"booked": [], "people": "", "day": "", "time": ""},
        "semi": {
            "food": "eritrean",
            "pricerange": "not mentioned",
            "name": "not mentioned",
            "area": "west",
        },
    }
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
    assert read_domain_state(state)[0] == expected

    acts = encode_act_triples(
        [["nooffer", "restaurant", "none"], ["reqmore", "general", "none"]],
        "system",
    )
    assert acts == {"restaurant": {atom("nooffer")}}

    for intent in ("select", "recommend", "offerbook"):
        got = encode_act_triples([[intent, "hotel", "area"]], "system")
        assert got == {"hotel": {atom("sys_inform", "area")}}

    # action F1 equals the brute-force pairing oracle on random act sets
    rng = random.Random(13)
    vocab = [("inform", "food"), ("request", "area"), ("nooffer", None),
             ("inform", "area")]
    for _ in range(300):
        pred = [vocab[rng.randrange(4)] for _ in range(rng.randrange(5))]
        gold = [vocab[rng.randrange(4)] for _ in range(rng.randrange(5))]
        score = evaluate_turns([(pred, gold)]).action
        tp, fp, fn = multiset_f1_counts(pred, gold)
        assert (score.tp, score.fp, score.fn) == (tp, fp, fn)
    report(
        "criterion 9: converter reproduces the reference state/act conversions; "
        "action F1 matches the brute-force oracle on 300 random act sets"
    )


def test_criterion_10_amalgamation_ablation(one_shot):
    records = one_shot.records
    samples = [r.sample for r in records if r.meta["supervised"]]
    traces = {}
    for variant in ("max", "sum"):
        model = fit(simdial_task(), samples, 1, training_steps=600, amalgamation=variant)
        traces[variant] = model.loss_trace

    def steps_to(trace, target=0.01):
        for i, v in enumerate(trace):
            if v < target:
                return i
        return float("inf")

    max_steps = steps_to(traces["max"])
    sum_steps = steps_to(traces["sum"])
    assert max_steps != float("inf"), "max variant must reach loss < 0.01"
    assert max_steps <= sum_steps
    report(
        f"criterion 10: ablation, max amalgamation reaches loss<0.01 at step "
        f"{max_steps}, probabilistic sum at "
        f"{'never' if sum_steps == float('inf') else int(sum_steps)} "
        f"(final losses {traces['max'][-1]:.4f} vs {traces['sum'][-1]:.4f})"
    )


def test_criterion_11_pipeline_determinism(tmp_path):
    def run_once(workdir, hashseed):
        workdir.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        files = {
            "corpus": workdir / "corpus.jsonl",
            "train_corpus": workdir / "train.jsonl",
            "samples": workdir / "samples.jsonl",
            "train_samples": workdir / "train_samples.jsonl",
            "model": workdir / "model.json",
            "program": workdir / "program.txt",
            "preds": workdir / "preds.jsonl",
            "report": workdir / "report.json",
        }
        cmds = [
            ["generate", "--domain", "restaurant", "--representative",
             "--out", str(files["train_corpus"])],
            ["generate", "--domain", "movie", "--n", "6", "--seed", "5",
             "--out", str(files["corpus"])],
            ["convert", "--format", "simdial", "--in", str(files["train_corpus"]),
             "--out", str(files["train_samples"])],
            ["convert", "--format", "simdial", "--in", str(files["corpus"]),
             "--out", str(files["samples"])],
            ["train", "--samples", str(files["train_samples"]),
             "--out", str(files["model"]), "--steps", "150", "--restarts", "1"],
            ["extract", "--model", str(files["model"]),
             "--out", str(files["program"])],
            ["transfer", "--program", str(files["program"]),
             "--samples", str(files["samples"]), "--out", str(files["preds"])],
            ["eval", "--pred", str(files["preds"]), "--gold", str(files["samples"]),
             "--report", str(files["report"])],
        ]
        for cmd in cmds:
            proc = subprocess.run(
                [sys.executable, "-m", "slotlogic.cli", *cmd],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, f"{cmd}: {proc.stderr}"
        return {name: path.read_bytes() for name, path in files.items()}

    first = run_once(tmp_path / "run1", "0")
    second = run_once(tmp_path / "run2", "424242")
    for name in first:
        assert first[name] == second[name], f"stage artifact {name} differs"
    report(
        f"criterion 11: two full pipeline runs (different hash seeds) produced "
        f"byte-identical artifacts for all {len(first)} stages"
    )
