import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from slotlogic import (
    Hyperparams,
    Sample,
    atom,
    engine,
    generate_corpus,
    pipeline,
    representative_dialog,
)
from slotlogic.cli import run_pipeline
from slotlogic.dialog import Dialog, SampleRecord, load_corpus, load_samples, save_samples
from slotlogic.pipeline import (
    convert_corpus,
    evaluate_predictions,
    predict_records,
    simdial_background,
    simdial_hyperparams,
)
from slotlogic.extract import PolicyProgram, crisp_infer, load_program, save_program
from slotlogic.logic import parse_clause, Predicate
from slotlogic.multiwoz import MULTIWOZ_TARGETS, convert_multiwoz_records
from slotlogic.engine import TrainedModel, task_to_dict
from slotlogic.gradcheck import run_gradcheck
from slotlogic.simulator import DOMAINS, GeneratorConfig

GOLDEN_PROGRAM = PolicyProgram(
    rules=tuple(
        (parse_clause(t), 1.0)
        for t in (
            "sys_request(V0) <- member_usr(V0), unknown(V0)",
            "sys_inform(V0) <- kb_return(V0)",
            "sys_query(V0) <- request(V0), pred3(V0)",
            "pred2() <- all(V0), usr_slots(V0)",
            "pred3(V0) <- pred2(), unknown(V0)",
        )
    ),
    background=simdial_background()[0],
    targets=(
        Predicate("sys_request", 1),
        Predicate("sys_inform", 1),
        Predicate("sys_query", 1),
    ),
    forward_steps=14,
)


class TestPredictEvaluate:
    def test_golden_program_scores_high(self):
        corpus = generate_corpus("restaurant", 20, seed=5, correction_probability=0.0)
        records = convert_corpus(corpus)
        predictions = predict_records(GOLDEN_PROGRAM, records)
        report = evaluate_predictions(predictions, records)
        assert report.intent.f1 == 1.0
        assert report.entity.f1 == 1.0
        assert report.action.f1 == 1.0

    def test_corrections_lower_recall_only(self):
        corpus = generate_corpus("restaurant", 30, seed=6, correction_probability=0.5)
        records = convert_corpus(corpus)
        predictions = predict_records(GOLDEN_PROGRAM, records)
        report = evaluate_predictions(predictions, records)
        assert report.action.precision == 1.0
        assert report.action.recall < 1.0

    def test_rejected_atoms_reported(self):
        records = convert_corpus(generate_corpus("bus", 2, seed=1))
        predictions = predict_records(GOLDEN_PROGRAM, records)
        for p in predictions:
            assert "rejected" in p
            assert not p["rejected"]

    def test_prefixed_system_intents_score_as_decoded(self):
        # A corpus may write system intents with the sys_ prefix; the gold
        # acts are written as the acts decode, so the prefix costs nothing.
        plain = representative_dialog("restaurant")
        prefixed = replace(plain, turns=[
            replace(t, system_acts=[replace(a, intent="sys_" + a.intent) for a in t.system_acts])
            for t in plain.turns])
        records = convert_corpus([prefixed])
        assert [(r.sample, r.meta) for r in records] == [
            (r.sample, r.meta) for r in convert_corpus([plain])]
        report = evaluate_predictions(predict_records(GOLDEN_PROGRAM, records), records)
        assert report.action.f1 == 1.0

    def test_prediction_without_gold_record_is_an_extra_turn(self):
        [gold] = convert_corpus([representative_dialog("restaurant")])[:1]
        stray = {"meta": {"dialog": 9, "turn": 4, "domain": "hotel"}, "acts": [["inform", "area"]]}
        report = evaluate_predictions(
            [{"meta": gold.meta, "acts": gold.meta["gold_acts"]}, stray], [gold])
        assert report.n_turns == 2
        assert report.domain_turns == {"hotel": 1, "restaurant": 1}
        hotel = report.per_domain["hotel"]["action"]
        assert (hotel.tp, hotel.fp, hotel.fn) == (0, 1, 0)
        assert (report.action.tp, report.action.fp, report.action.fn) == (
            len(gold.meta["gold_acts"]), 1, 0)

    @pytest.mark.parametrize("key", ["dialog", "turn"])
    def test_meta_without_dialog_or_turn_is_rejected(self, key):
        # A made-up key would score it silently as some other turn.
        [gold] = convert_corpus([representative_dialog("restaurant")])[:1]
        keyless = {k: v for k, v in gold.meta.items() if k != key}
        want = "meta 'dialog' and 'turn' must both be present"
        with pytest.raises(ValueError, match=f"^gold record 1: {want}"):
            evaluate_predictions([], [SampleRecord(gold.sample, keyless)])
        with pytest.raises(ValueError, match=f"^prediction 1: {want}"):
            evaluate_predictions([{"meta": keyless, "acts": []}], [gold])

    @pytest.mark.parametrize("key", ["domain", "gold_acts"])
    def test_gold_meta_without_domain_or_gold_acts_is_rejected(self, key):
        # Defaults would score the turn under "unknown" with no gold acts.
        [gold] = convert_corpus([representative_dialog("restaurant")])[:1]
        meta = {k: v for k, v in gold.meta.items() if k != key}
        with pytest.raises(ValueError, match="^gold record 1: .*; a gold record must hold both$"):
            evaluate_predictions([], [SampleRecord(gold.sample, meta)])
        # A prediction's domain only labels a turn no gold record has, and
        # its gold acts are not scored, so it may lack either.
        report = evaluate_predictions([{"meta": meta, "acts": gold.meta["gold_acts"]}], [gold])
        assert report.n_turns == 1 and report.action.f1 == 1.0

    @pytest.mark.parametrize("key, value", [
        *((k, v) for k in ("dialog", "turn") for v in (None, True, 1.0)), ("turn", "0")])
    def test_meta_dialog_or_turn_of_another_type_is_rejected(self, key, value):
        # Null keys would merge into one turn, and true would merge with 1.
        [gold] = convert_corpus([representative_dialog("restaurant")])[:1]
        meta = {**gold.meta, key: value}
        want = "meta 'dialog' and 'turn' must both be present, 'dialog' a string or an integer"
        with pytest.raises(ValueError, match=f"^gold record 1: {want}"):
            evaluate_predictions([], [SampleRecord(gold.sample, meta)])
        with pytest.raises(ValueError, match=f"^prediction 1: {want}"):
            evaluate_predictions([{"meta": meta, "acts": []}], [gold])


ANNOTATED_PROGRAM = PolicyProgram(
    rules=tuple(
        (parse_clause(t), 1.0)
        for t in ("sys_request(V0) <- unknown(V0)", "sys_inform(V0) <- usr_inform(V0)")
    ),
    background=(),
    targets=(Predicate("sys_request", 1), Predicate("sys_inform", 1)),
    forward_steps=2,
)


def annotated_records() -> list[SampleRecord]:
    """Converted annotated turns, several of them the same state."""
    first = {"state": {"restaurant": {"semi": {"food": "thai", "area": "not mentioned"}}},
             "user_acts": [["inform", "restaurant", "food"]],
             "system_acts": [["request", "restaurant", "area"]]}
    second = {"state": {"restaurant": {"semi": {"food": "thai", "area": "west"}},
                        "hotel": {"semi": {"area": "north", "stars": "not mentioned"}}},
              "system_acts": [["inform", "restaurant", "food"], ["request", "hotel", "stars"]]}
    return convert_multiwoz_records({"turns": [first, first, second, first, second]})


class TestPredictRecordsMemo:
    """``predict_records`` derives once per distinct (background, slots)
    state, and answers as ``predict_record`` does on every record."""

    @pytest.fixture(params=["simulator", "annotated"])
    def case(self, request, tmp_path):
        if request.param == "simulator":
            program, records = GOLDEN_PROGRAM, convert_corpus(generate_corpus("bus", 12, seed=1))
        else:
            program, records = ANNOTATED_PROGRAM, annotated_records()
        save_samples(records, tmp_path / "samples.jsonl")
        loaded = load_samples(tmp_path / "samples.jsonl")
        states = {(r.sample.background, tuple(r.meta.get("slots") or ())) for r in loaded}
        assert len(states) < len(loaded)  # the memo has repeats to serve
        assert any(p["acts"] for p in predict_records(program, loaded))
        return program, records, loaded

    def test_equals_one_record_at_a_time(self, case):
        program, records, loaded = case
        for rs in (records, loaded):
            assert predict_records(program, rs) == [pipeline.predict_record(program, r) for r in rs]

    def test_no_list_shared_between_predictions(self, case):
        program, _, loaded = case
        preds = predict_records(program, loaded)
        for field in ("atoms", "acts", "rejected"):
            assert len({id(p[field]) for p in preds}) == len(preds)
        victim = next(i for i, p in enumerate(preds) if p["acts"])
        preds[victim]["acts"][0][1] = "changed"
        preds[victim]["acts"].append(["inform", "x"])
        preds[victim]["atoms"].append("x(y)")
        preds[victim]["rejected"].append("x(y)")
        for i, (p, r) in enumerate(zip(preds, loaded)):
            if i != victim:
                assert p == pipeline.predict_record(program, r)

    def test_slots_are_part_of_the_state(self):
        record = next(r for r in convert_corpus(generate_corpus("bus", 3, seed=1))
                      if predict_records(GOLDEN_PROGRAM, [r])[0]["acts"])
        no_slots = SampleRecord(record.sample, {**record.meta, "slots": []})
        records = [record, no_slots, record]
        preds = predict_records(GOLDEN_PROGRAM, records)
        assert preds == [pipeline.predict_record(GOLDEN_PROGRAM, r) for r in records]
        assert preds[1]["acts"] == [] and preds[1]["rejected"] != preds[0]["rejected"]

    def test_unhashable_slots_are_rejected_at_load(self, tmp_path):
        # Every loaded slot list is strings, so every state is a key.
        record = convert_corpus(generate_corpus("bus", 1, seed=1))[0]
        path = tmp_path / "s.jsonl"
        for slots in ([["loc"], *record.meta["slots"]], [{"loc": 1}], [1, 2], "loc"):
            save_samples([SampleRecord(record.sample, {**record.meta, "slots": slots})], path)
            with pytest.raises(ValueError, match=r"line 1: .*any 'slots' in it a list of "
                                                 "strings or null"):
                load_samples(path)


class TestRenamingConstants:
    """Renaming the constants that no clause names commutes with
    ``compile``, ``loss_and_grad`` and ``crisp_infer``: what zero-shot
    transfer, and training each distinct renamed sample once, rest on. The
    SimDial task's pools and background, and the golden program, name no
    constant."""

    RECORDS = convert_corpus([representative_dialog("restaurant")])
    [CONSTANTS] = {r.sample.constants for r in RECORDS}
    RENAMINGS = {
        "order-preserving": {c: f"k{i}" for i, c in enumerate(sorted(CONSTANTS))},
        "positional": {c: f"k{i}" for i, c in enumerate(CONSTANTS)},
    }

    @staticmethod
    def rename(a, renaming):
        return atom(a.predicate.name, *(renaming[t.label] for t in a.args))

    def renamed(self, sample, renaming):
        r = lambda a: self.rename(a, renaming)
        return Sample.make(map(r, sample.background), map(r, sample.positive),
                           map(r, sample.negative), [renaming[c] for c in sample.constants])

    def test_no_clause_names_a_constant(self):
        compiler, _ = pipeline.simdial_task()
        clauses = [*compiler.background, *(c for _, cs in compiler.pools for c in cs),
                   *(c for c, _ in GOLDEN_PROGRAM.rules), *GOLDEN_PROGRAM.background]
        assert all(t.is_variable for c in clauses for a in (c.head, *c.body) for t in a.args)

    @pytest.mark.parametrize("name", RENAMINGS)
    def test_compile_gives_equal_tables(self, name):
        compiler, _ = pipeline.simdial_task()
        a = compiler.compile(self.CONSTANTS)
        b = compiler.compile([self.RENAMINGS[name][c] for c in self.CONSTANTS])
        assert a is not b
        for field in ("b1", "b2", "key"):
            assert np.array_equal(getattr(a.table, field), getattr(b.table, field))
        assert np.array_equal(a.seg_out, b.seg_out)

    @pytest.mark.parametrize("name", RENAMINGS)
    def test_loss_and_grad_under_renaming(self, name):
        from slotlogic.engine import loss_and_grad
        compiler, hp = pipeline.simdial_task()
        samples = pipeline.training_samples(self.RECORDS)
        renamed = [self.renamed(s, self.RENAMINGS[name]) for s in samples]
        for seed in range(3):
            weights = compiler.init_weights(seed, 1.0)
            value, grads = loss_and_grad(compiler, [w.copy() for w in weights], samples, hp)
            value2, grads2 = loss_and_grad(compiler, [w.copy() for w in weights], renamed, hp)
            assert [g.tobytes() for g in grads] == [g.tobytes() for g in grads2]
            if name == "order-preserving":
                assert value == value2
            else:
                # Sample.make sorts each sample's labels by text, and the loss
                # sums them in that order, so a renaming that reorders the
                # text reorders the sum (1.3e-16 relative on one of these
                # draws). A positional merge of renamed samples needs this
                # bound.
                assert abs(value - value2) <= 1e-15 * abs(value)

    @pytest.mark.parametrize("name", RENAMINGS)
    def test_crisp_infer_commutes(self, name):
        renaming = self.RENAMINGS[name]
        n_derived = 0
        for r in self.RECORDS:
            derived = crisp_infer(GOLDEN_PROGRAM, r.sample.background)
            renamed = crisp_infer(GOLDEN_PROGRAM, self.renamed(r.sample, renaming).background)
            assert renamed == {self.rename(a, renaming) for a in derived}
            n_derived += len(derived)
        assert n_derived >= len(self.RECORDS)


def test_overlap_error_is_the_same_under_any_hash_seed(tmp_path):
    """``transfer`` on a line whose atoms are both positive and negative
    exits 2 and names them in sorted text order, whatever PYTHONHASHSEED."""
    save_program(GOLDEN_PROGRAM, tmp_path / "program.txt")
    both = ["sys_request(loc)", "sys_inform(loc)", "sys_inform(food)"]
    samples = tmp_path / "samples.jsonl"
    samples.write_text(json.dumps({"background": [], "positive": both, "negative": both,
                                   "constants": ["loc", "food"], "meta": {}}) + "\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    messages = set()
    for hashseed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-m", "slotlogic.cli", "transfer", "--program",
             str(tmp_path / "program.txt"), "--samples", str(samples),
             "--out", str(tmp_path / "preds.jsonl")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        [line] = proc.stderr.splitlines()
        assert proc.returncode == 2
        messages.add(json.loads(line)["message"])
    assert messages == {f"{samples} line 1: atoms both positive and negative: "
                        "sys_inform(food), sys_inform(loc), sys_request(loc)"}


class TestFullCli:
    def run(self, argv):
        code = run_pipeline(argv)
        assert code == 0, f"command failed: {argv}"

    @pytest.mark.slow
    def test_end_to_end(self, tmp_path):
        train_corpus = tmp_path / "train.jsonl"
        test_corpus = tmp_path / "test.jsonl"
        samples_train = tmp_path / "train_samples.jsonl"
        samples_test = tmp_path / "test_samples.jsonl"
        model = tmp_path / "model.json"
        program = tmp_path / "program.txt"
        preds = tmp_path / "preds.jsonl"
        report = tmp_path / "report.json"

        self.run(["generate", "--domain", "restaurant", "--representative",
                  "--out", str(train_corpus)])
        self.run(["generate", "--domain", "weather", "--n", "20", "--seed", "3",
                  "--correction-prob", "0.02", "--out", str(test_corpus)])
        self.run(["convert", "--format", "simdial", "--in", str(train_corpus),
                  "--out", str(samples_train)])
        self.run(["convert", "--format", "simdial", "--in", str(test_corpus),
                  "--out", str(samples_test)])
        self.run(["train", "--samples", str(samples_train), "--out", str(model),
                  "--steps", "400", "--restarts", "1"])
        self.run(["extract", "--model", str(model), "--out", str(program)])
        self.run(["transfer", "--program", str(program),
                  "--samples", str(samples_test), "--out", str(preds)])
        self.run(["eval", "--pred", str(preds), "--gold", str(samples_test),
                  "--report", str(report)])
        scores = json.loads(report.read_text())
        assert scores["intent_f1"]["f1"] > 0.95
        assert scores["entity_f1"]["f1"] > 0.95

    def test_validation_error_exit_code(self, tmp_path):
        code = run_pipeline(["convert", "--format", "simdial",
                             "--in", str(tmp_path / "missing.jsonl"),
                             "--out", str(tmp_path / "out.jsonl")])
        assert code == 2

    def test_valuation_invariant_exit_code(self, tmp_path, monkeypatch, capsys):
        from slotlogic import engine

        corpus, samples = tmp_path / "train.jsonl", tmp_path / "samples.jsonl"
        self.run(["generate", "--domain", "restaurant", "--representative",
                  "--out", str(corpus)])
        self.run(["convert", "--format", "simdial", "--in", str(corpus),
                  "--out", str(samples)])
        capsys.readouterr()
        # A negative tolerance makes the first range check fail.
        monkeypatch.setattr(engine, "RANGE_TOL", -1.0)
        code = run_pipeline(["train", "--samples", str(samples), "--steps", "1",
                             "--restarts", "1", "--out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == 3
        lines = err.splitlines()
        assert len(lines) == 1 and "Traceback" not in err
        assert json.loads(lines[0])["error"] == "valuation_invariant"

    def test_gradcheck_command(self):
        assert run_pipeline(["gradcheck", "--seed", "1", "--instances", "5"]) == 0

    def train_subprocess(self, tmp_path, *flags):
        """Exit code and JSON stderr line of a failing training run. A
        subprocess, because pytest's own log handlers would swallow a stray
        log line, and its warning filters a numpy warning, in-process."""
        corpus, samples = tmp_path / "train.jsonl", tmp_path / "samples.jsonl"
        self.run(["generate", "--domain", "restaurant", "--representative",
                  "--out", str(corpus)])
        self.run(["convert", "--format", "simdial", "--in", str(corpus),
                  "--out", str(samples)])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-m", "slotlogic.cli", "train", "--samples", str(samples),
             "--steps", "5", "--restarts", "1", *flags, "--out", str(tmp_path / "m.json")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        return proc.returncode, json.loads(lines[0])

    def test_failing_train_prints_one_json_line(self, tmp_path):
        code, error = self.train_subprocess(tmp_path, "--lr", "-1")
        assert code == 2 and error["error"] == "ValueError"

    @pytest.mark.parametrize("flag, want", [
        ("--init-scale", "valuation is NaN at step 0"),
        ("--lr", "loss became non-finite at step 1"),
    ])
    def test_numeric_failure_prints_one_json_line(self, tmp_path, flag, want):
        code, error = self.train_subprocess(tmp_path, flag, "1e308")
        assert code == 3 and want in error["message"]

    def test_train_flags_override_simdial_hyperparams(self, tmp_path, monkeypatch):
        corpus, samples = tmp_path / "train.jsonl", tmp_path / "samples.jsonl"
        self.run(["generate", "--domain", "restaurant", "--representative",
                  "--out", str(corpus)])
        self.run(["convert", "--format", "simdial", "--in", str(corpus),
                  "--out", str(samples)])
        # One real step per fit; the model keeps the hyperparameters it was given.
        real = engine.train_task
        monkeypatch.setattr(engine, "train_task", lambda task, s: replace(
            real((task[0], replace(task[1], training_steps=1)), s), hyperparams=task[1]))
        model = tmp_path / "m.json"
        for flags, want in (([], simdial_hyperparams()),
                            (["--lr", "0.25"], simdial_hyperparams(learning_rate=0.25))):
            self.run(["train", "--samples", str(samples), "--restarts", "1",
                      "--out", str(model), *flags])
            assert json.loads(model.read_text())["hyperparams"] == want.to_dict()

    def test_model_file_as_task_reproduces_itself(self, tmp_path):
        corpus, samples = tmp_path / "train.jsonl", tmp_path / "samples.jsonl"
        self.run(["generate", "--domain", "restaurant", "--representative",
                  "--out", str(corpus)])
        self.run(["convert", "--format", "simdial", "--in", str(corpus),
                  "--out", str(samples)])
        first, second = tmp_path / "model.json", tmp_path / "model2.json"
        for flags in (["--lr", "0.3"], ["--amalgamation", "sum"]):
            self.run(["train", "--samples", str(samples), "--steps", "5", *flags,
                      "--restarts", "1", "--out", str(first)])
            self.run(["train", "--task", str(first), "--samples", str(samples),
                      "--restarts", "1", "--out", str(second)])
            assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text())["hyperparams"]["amalgamation"] == "sum"


def swapped_first_clauses(slot: dict) -> dict:
    """A model file's slot with its first two clauses swapped, weights and
    probabilities with them: no longer in the pool order its template makes."""
    return {**slot, **{k: [slot[k][1], slot[k][0], *slot[k][2:]]
                       for k in ("clauses", "raw_weights", "probabilities")}}


class TestMalformedLines:
    """A malformed line in a samples or predictions file ends the command
    with exit 2 and one JSON stderr line that names the line."""

    @pytest.fixture
    def files(self, tmp_path):
        corpus, samples = tmp_path / "train.jsonl", tmp_path / "samples.jsonl"
        assert run_pipeline(["generate", "--domain", "restaurant", "--representative",
                             "--out", str(corpus)]) == 0
        assert run_pipeline(["convert", "--format", "simdial", "--in", str(corpus),
                             "--out", str(samples)]) == 0
        save_program(GOLDEN_PROGRAM, tmp_path / "program.txt")
        return tmp_path, samples

    @staticmethod
    def with_line_2(path, text):
        lines = path.read_text().splitlines()
        lines[1] = text
        bad = path.with_name("bad-" + path.name)
        bad.write_text("\n".join(lines) + "\n")
        return bad

    @staticmethod
    def fail(argv, capsys, where=" line 2: "):
        capsys.readouterr()
        code = run_pipeline(argv)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        [line] = err.splitlines()
        error = json.loads(line)
        assert error["error"] == "ValueError" and where in error["message"]
        return error["message"]

    def constants_5(self, samples):
        record = json.loads(samples.read_text().splitlines()[1])
        return self.with_line_2(samples, json.dumps({**record, "constants": 5}))

    def test_train_rejects_non_list_constants(self, files, capsys):
        tmp_path, samples = files
        message = self.fail(["train", "--samples", str(self.constants_5(samples)),
                             "--out", str(tmp_path / "m.json")], capsys)
        assert "'constants' a list of strings" in message

    def test_transfer_rejects_non_list_constants(self, files, capsys):
        tmp_path, samples = files
        message = self.fail(["transfer", "--program", str(tmp_path / "program.txt"),
                             "--samples", str(self.constants_5(samples)),
                             "--out", str(tmp_path / "p.jsonl")], capsys)
        assert "'constants' a list of strings" in message

    def test_transfer_rejects_non_list_slots(self, files, capsys):
        # A list of non-strings too: unchecked, transfer exited 0 and
        # rejected every slot act.
        tmp_path, samples = files
        record = json.loads(samples.read_text().splitlines()[1])
        for slots in (3, [1]):
            record["meta"]["slots"] = slots
            message = self.fail(["transfer", "--program", str(tmp_path / "program.txt"),
                                 "--samples", str(self.with_line_2(samples, json.dumps(record))),
                                 "--out", str(tmp_path / "p.jsonl")], capsys)
            assert "any 'slots' in it a list of strings or null" in message

    def test_train_rejects_non_boolean_supervised(self, files, capsys):
        # "false" is truthy: before the check, training used the turn.
        tmp_path, samples = files
        record = json.loads(samples.read_text().splitlines()[1])
        record["meta"]["supervised"] = "false"
        bad = self.with_line_2(samples, json.dumps(record))
        message = self.fail(["train", "--samples", str(bad), "--out", str(tmp_path / "m.json")],
                            capsys)
        assert "any 'supervised' a JSON boolean" in message

    def test_transfer_rejects_list_line(self, files, capsys):
        tmp_path, samples = files
        message = self.fail(["transfer", "--program", str(tmp_path / "program.txt"),
                             "--samples", str(self.with_line_2(samples, "[1, 2]")),
                             "--out", str(tmp_path / "p.jsonl")], capsys)
        assert "must be a JSON object" in message

    def test_transfer_rejects_repeated_header(self, files, capsys):
        tmp_path, samples = files
        program = tmp_path / "program.txt"
        lines = program.read_text().splitlines()
        assert lines[2].startswith("targets: ")
        lines.insert(3, "targets: sys_inform/1")
        program.write_text("\n".join(lines) + "\n")
        message = self.fail(["transfer", "--program", str(program), "--samples", str(samples),
                             "--out", str(tmp_path / "p.jsonl")], capsys, where=" line 4: ")
        assert "repeated 'targets:' header (first on line 3)" in message

    def test_eval_rejects_list_prediction_line(self, files, capsys):
        tmp_path, samples = files
        preds = tmp_path / "preds.jsonl"
        assert run_pipeline(["transfer", "--program", str(tmp_path / "program.txt"),
                             "--samples", str(samples), "--out", str(preds)]) == 0
        message = self.fail(["eval", "--pred", str(self.with_line_2(preds, "[1, 2]")),
                             "--gold", str(samples), "--report", str(tmp_path / "r.json")],
                            capsys)
        assert "a prediction must be an object" in message

    def test_eval_rejects_prediction_line_without_acts(self, files, capsys):
        # transfer always writes acts; read as no acts, such a line scored
        # action F1 0 and eval exited 0.
        tmp_path, samples = files
        preds = tmp_path / "preds.jsonl"
        assert run_pipeline(["transfer", "--program", str(tmp_path / "program.txt"),
                             "--samples", str(samples), "--out", str(preds)]) == 0
        record = json.loads(preds.read_text().splitlines()[1])
        del record["acts"]
        message = self.fail(["eval", "--pred", str(self.with_line_2(preds, json.dumps(record))),
                             "--gold", str(samples), "--report", str(tmp_path / "r.json")],
                            capsys)
        assert "an 'acts' list" in message

    @pytest.mark.parametrize("side, edit", [
        ("pred", lambda m: {**m, "dialog": [1]}),
        ("gold", lambda m: {**m, "dialog": [1]}),
        ("pred", lambda m: {k: v for k, v in m.items() if k != "dialog"}),
        ("pred", lambda m: {k: v for k, v in m.items() if k != "turn"}),
        ("gold", lambda m: {k: v for k, v in m.items() if k != "dialog"}),
        ("gold", lambda m: {k: v for k, v in m.items() if k != "turn"}),
        ("gold", lambda m: {k: v for k, v in m.items() if k != "domain"}),
        ("gold", lambda m: {k: v for k, v in m.items() if k != "gold_acts"}),
        ("samples", lambda m: {}),
    ], ids=["pred", "gold", "pred-no-dialog", "pred-no-turn", "gold-no-dialog", "gold-no-turn",
            "gold-no-domain", "gold-no-gold-acts", "keyless-samples"])
    def test_eval_rejects_list_dialog(self, files, capsys, side, edit):
        # Eval pairs turns only by the (dialog, turn) the converters write;
        # any key made up for a line without it would pair turns wrongly.
        tmp_path, samples = files
        if side == "samples":  # every line keyless, transferred as it is
            lines = [json.loads(line) for line in samples.read_text().splitlines()]
            samples = tmp_path / "keyless.jsonl"
            samples.write_text("".join(json.dumps({**r, "meta": edit(r["meta"])}) + "\n"
                                       for r in lines))
        paths = {"pred": tmp_path / "preds.jsonl", "gold": samples}
        assert run_pipeline(["transfer", "--program", str(tmp_path / "program.txt"),
                             "--samples", str(samples), "--out", str(paths["pred"])]) == 0
        if side != "samples":
            record = json.loads(paths[side].read_text().splitlines()[1])
            record["meta"] = edit(record["meta"])
            paths[side] = self.with_line_2(paths[side], json.dumps(record))
        message = self.fail(["eval", "--pred", str(paths["pred"]), "--gold", str(paths["gold"]),
                             "--report", str(tmp_path / "r.json")], capsys,
                            where={"pred": "prediction 2: ", "gold": "gold record 2: ",
                                   "samples": "gold record 1: "}[side])
        assert "meta 'dialog'" in message

    def convert_simdial_line_2(self, files, capsys, line):
        tmp_path, _ = files
        corpus = tmp_path / "bad-train.jsonl"
        corpus.write_text((tmp_path / "train.jsonl").read_text() + line + "\n")
        return self.fail(["convert", "--format", "simdial", "--in", str(corpus),
                          "--out", str(tmp_path / "s.jsonl")], capsys)

    def test_convert_simdial_rejects_list_line(self, files, capsys):
        message = self.convert_simdial_line_2(files, capsys, "[1, 2]")
        assert "a dialog must be a JSON object" in message

    @pytest.mark.parametrize("line, want", [
        ('{"turns": [1]}', "a dialog must be a JSON object"),
        ('{"domain": "restaurant", "turns": [1]}', "turn 0: a turn must be an object"),
        ('{"domain": "restaurant", "turns": [{"state": 5}]}', "turn 0: a turn must be an object"),
        ('{"domain": "restaurant", "turns": [{"state": {"user_slots": [], "sys_slots": []}, '
         '"user_acts": [5], "system_acts": []}]}', "turn 0: a turn must be an object"),
    ], ids=["no-domain", "int-turn", "int-state", "int-act"])
    def test_convert_simdial_rejects_malformed_turn(self, files, capsys, line, want):
        assert want in self.convert_simdial_line_2(files, capsys, line)

    @pytest.mark.parametrize("state, turn", [
        ({"user_slots": [["loc", "no"]], "sys_slots": []}, {}),
        ({"user_slots": [], "sys_slots": [["open", 0]]}, {}),
        ({"user_slots": [], "sys_slots": [], "no_match": "false"}, {}),
        ({"user_slots": [], "sys_slots": [], "book_fail": 1}, {}),
        ({"user_slots": [], "sys_slots": []}, {"correction": "false"}),
    ], ids=["slot-string", "slot-int", "no-match", "book-fail", "correction"])
    def test_convert_simdial_rejects_non_boolean_flag(self, files, capsys, state, turn):
        # bool("no") and bool("false") are true: a flag that is not a JSON
        # boolean would be misread.
        line = json.dumps({"domain": "restaurant", "turns": [
            {"state": {"user_slots": [], "sys_slots": []}, "user_acts": [], "system_acts": []},
            {"state": state, "user_acts": [], "system_acts": [], **turn}]})
        message = self.convert_simdial_line_2(files, capsys, line)
        assert "turn 1: " in message and "a flag is a JSON boolean" in message

    @pytest.mark.parametrize("line, want", [
        ('{"domain": "nosuch", "turns": []}', "unknown domain 'nosuch'"),
        ('{"domain": "movie", "turns": [{"state": {"user_slots": [["nosuchslot", true]], '
         '"sys_slots": []}, "user_acts": [], "system_acts": []}]}',
         "turn 0: slot 'nosuchslot' not in domain movie"),
        ('{"domain": "movie", "turns": [{"state": {"user_slots": [], "sys_slots": [], '
         '"kb_return": ["genre"]}, "user_acts": [], "system_acts": []}]}',
         "turn 0: kb_return slot 'genre' is not a system slot"),
        ('{"domain": "movie", "turns": [{"state": {"user_slots": [], "sys_slots": [], '
         '"outstanding": ["nosuchslot"]}, "user_acts": [], "system_acts": []}]}',
         "turn 0: outstanding slot 'nosuchslot' is not a system slot"),
        ('{"domain": "movie", "turns": [{"state": {"user_slots": [], "sys_slots": []}, '
         '"user_acts": [], "system_acts": [["request", "nosuch"]]}]}',
         "line 1: turn 0: sys_request(nosuch) uses constant 'nosuch'"),
        ('{"domain": "movie", "turns": [{"state": {"user_slots": [], "sys_slots": []}, '
         '"user_acts": [["greet", null]], "system_acts": []}]}',
         "line 1: turn 0: unknown user intent 'greet'"),
        ('{"domain": "movie", "turns": [{"state": {"user_slots": [], "sys_slots": []}, '
         '"user_acts": [["inform", null]], "system_acts": []}]}',
         "line 1: turn 0: user inform needs a slot"),
        ('{"domain": "movie", "turns": [{"state": {"user_slots": [["rating", true]], '
         '"sys_slots": []}, "user_acts": [], "system_acts": []}]}',
         "line 1: turn 0: user_slots slot 'rating' is not a user slot of domain movie"),
        ('{"domain": "movie", "turns": [{"state": {"user_slots": [], '
         '"sys_slots": [["genre", true]]}, "user_acts": [], "system_acts": []}]}',
         "line 1: turn 0: sys_slots slot 'genre' is not a system slot of domain movie"),
    ], ids=["domain", "state-slot", "kb-return-slot", "outstanding-slot", "act-slot",
            "user-intent", "null-slot", "sys-slot-as-user", "user-slot-as-sys"])
    def test_convert_simdial_rejects_unknown_domain_or_slot(self, tmp_path, capsys, line, want):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(line + "\n")
        message = self.fail(["convert", "--format", "simdial", "--in", str(corpus),
                             "--out", str(tmp_path / "s.jsonl")], capsys, where=" line 1: ")
        assert want in message

    def test_convert_corpus_names_unknown_domain(self):
        with pytest.raises(ValueError, match="unknown domain 'nosuch'; known: "):
            convert_corpus([Dialog("nosuch", [])])

    @pytest.mark.parametrize("edit, want", [
        (lambda m: [], "a model must be a JSON object"),
        (lambda m: {"frame": 5}, "model field 'frame': TypeError"),
        (lambda m: {**m, "slots": None}, "model field 'slots': TypeError"),
        (lambda m: {**m, "hyperparams": {**m["hyperparams"], "frobnicate": 1}},
         "model field 'hyperparams': TypeError"),
        (lambda m: {**m, "slots": [{**m["slots"][0], "raw_weights": []}]},
         "model field 'slots': ValueError"),
        (lambda m: {k: v for k, v in m.items() if k != "loss_trace"},
         "model lacks field 'loss_trace'"),
        (lambda m: {**m, "template": {k: v for k, v in m["template"].items()
                                      if k != "forward_steps"}},
         'model field \'template\': ValueError: a template lacks field "forward_steps"'),
        (lambda m: {**m, "frame": {**m["frame"], "extensional": [["true", 0.5]]}},
         "model field 'frame': ValueError"),
        (lambda m: {**m, "slots": [swapped_first_clauses(m["slots"][0]), *m["slots"][1:]]},
         "model field 'slots': the clause lists differ"),
        (lambda m: {**m, "background": ["u(V0) <- succ(V0, V1), all(V1)"]},
         "model fields do not describe a model: background clause u(V0) <- all(V1), "
         "succ(V0, V1) reads all/1, which is neither extensional nor a background head"),
        *((lambda m, k=k: {**m, "slots": [{**m["slots"][0], "slot": k}, *m["slots"][1:]]},
           f"model field 'slots': ValueError: 'slot' must be a JSON integer, not {k!r}")
          for k in (0.5, "0", False)),
        *((lambda m, w=w: {**m, "slots": [{**m["slots"][0], "raw_weights": [
            w, *m["slots"][0]["raw_weights"][1:]]}, *m["slots"][1:]]},
           "model field 'slots': ValueError: all/1 slot 0: raw_weights must be finite numbers")
          for w in (math.nan, math.inf, -math.inf)),
        *((lambda m, f=f, v=v: {**m, "hyperparams": {**m["hyperparams"], f: v}},
           f"model field 'hyperparams': ValueError: {f} must be {kind}, not {v!r}")
          for f, v, kind in (("training_steps", 1.5, "an integer"), ("seed", 1.5, "an integer"),
                             ("training_steps", True, "an integer"),
                             ("learning_rate", True, "a number"),
                             ("init_scale", "0.1", "a number"))),
    ], ids=["list", "int-frame", "null-slots", "unknown-hyperparam", "short-weights",
            "no-trace", "no-forward-steps", "fractional-arity", "swapped-clauses",
            "background-reads-target", "fractional-slot", "string-slot", "boolean-slot",
            "nan-weight", "infinite-weight", "negative-infinite-weight",
            "fractional-steps", "fractional-seed", "boolean-steps", "boolean-rate", "string-scale"])
    def test_extract_rejects_malformed_model(self, tmp_path, capsys, edit, want):
        # A task file's fields are read as a model file's are: the cases
        # that break a task field also fail "train --task".
        task, sample = pipeline.list_all_problem()
        model = pipeline.fit(task, [sample], training_steps=1)
        path, samples = tmp_path / "model.json", tmp_path / "samples.jsonl"
        path.write_text(json.dumps(edit(model.to_dict())))
        save_samples([SampleRecord(sample, meta={})], samples)
        commands = [["extract", "--model", str(path), "--out", str(tmp_path / "p.txt")]]
        if "'slots'" not in want and "'loss_trace'" not in want:
            commands.append(["train", "--task", str(path), "--samples", str(samples),
                             "--out", str(tmp_path / "m.json")])
        for argv in commands:
            assert want in self.fail(argv, capsys, where="")

    @pytest.mark.parametrize("slot", ["foo/1", "known/1"], ids=["undeclared", "extensional"])
    def test_train_rejects_template_slot_outside_targets(self, files, capsys, slot):
        tmp_path, samples = files
        task = task_to_dict(*pipeline.simdial_task())
        task["template"]["slots"].append([slot, [{"v": 0, "i": False}]])
        path = tmp_path / "task.json"
        path.write_text(json.dumps(task))
        message = self.fail(["train", "--samples", str(samples), "--task", str(path),
                             "--steps", "1", "--restarts", "1", "--out", str(tmp_path / "m.json")],
                            capsys, where="")
        assert f"template slot {slot} must be a frame target" in message

    def test_train_rejects_task_penalty_weight_without_penalty(self, files, capsys):
        tmp_path, samples = files
        task = task_to_dict(*pipeline.simdial_task())
        task["hyperparams"]["reg_kind"] = "none"  # reg_lambda stays 1e-05
        path = tmp_path / "task.json"
        path.write_text(json.dumps(task))
        message = self.fail(["train", "--samples", str(samples), "--task", str(path),
                             "--restarts", "1", "--out", str(tmp_path / "m.json")],
                            capsys, where="")
        assert message.startswith("model field 'hyperparams'")
        assert "reg_lambda must be 0 with reg_kind 'none', not 1e-05" in message

    @pytest.mark.parametrize("line", [
        '[1, 2]', '{"turns": 5}', '{"turns": [1]}', '{"turns": [{"user_acts": [5]}]}',
        '{"turns": [{"state": {}, "db": {"restaurant": 5}, '
        '"system_acts": [["inform", "restaurant", "food"]]}]}',
        '{"turns": [{"state": {"restaurant": 5}}]}',
        '{"turns": [{"state": {"restaurant": {"semi": []}}}]}',
        '{"turns": [{"state": {"restaurant": {"semi": {"food!": "thai"}}}}]}',
        '{"turns": [{"state": {}, "system_acts": [["request", "restaurant", "2nd"]]}]}',
        '{"turns": [{"state": {"Restaurant": {"semi": {"food": "thai"}}}, '
        '"system_acts": [["request", "Restaurant", "area"]]}]}',
    ])
    def test_convert_multiwoz_rejects_malformed_line(self, tmp_path, capsys, line):
        corpus = tmp_path / "mwoz.jsonl"
        corpus.write_text('{"turns": []}\n' + line + "\n")
        message = self.fail(["convert", "--format", "multiwoz", "--in", str(corpus),
                             "--out", str(tmp_path / "s.jsonl")], capsys)
        assert "must be a" in message

    @pytest.mark.parametrize("db, want", [
        ([1], "'db' must be an object"),
        ({"restaurant": {"no_match": "false"}}, "'no_match' and 'book_fail' in it a JSON boolean"),
        ({"restaurant": {"book_fail": 0}}, "'no_match' and 'book_fail' in it a JSON boolean"),
        ({"hotel": {"no_match": True}}, "db pointer for 'hotel' must be for a domain the turn"),
        ({"restaurant": {"nomatch": True}}, "db pointer for 'restaurant' has key 'nomatch'"),
        ({" restaurant": {"no_match": True}}, "domain ' restaurant' must be a lowercase name"),
        ({"general": 5}, "db pointer for 'general' must be an object"),
    ], ids=["db-list", "no-match-string", "book-fail-int", "absent-domain", "unknown-key",
            "domain-space", "general-not-object"])
    def test_convert_multiwoz_rejects_non_boolean_db(self, tmp_path, capsys, db, want):
        # A db that is not an object used to be ignored, and a pointer's
        # "no_match": "false" to become a no_match() fact; a pointer for a
        # domain without state or acts, or with a key other than the two
        # flags, was dropped, and so was any pointer for the general domain.
        corpus = tmp_path / "mwoz.jsonl"
        turn = {"state": {"restaurant": {"semi": {"food": "thai"}}, "general": {}},
                "system_acts": [["inform", "restaurant", "food"]]}
        corpus.write_text(json.dumps({"turns": [turn, {**turn, "db": db}]}) + "\n")
        message = self.fail(["convert", "--format", "multiwoz", "--in", str(corpus),
                             "--out", str(tmp_path / "s.jsonl")], capsys, where=" line 1: turn 1: ")
        assert want in message


class TestRestartLoop:
    """``fit``'s restart loop, with the task loop replaced by a fake whose
    final loss depends on the seed."""

    LOSSES = {7: 0.5, 1016: 0.3, 2025: 0.1, 3034: 0.4, 4043: 0.2}

    @pytest.fixture
    def runs(self, monkeypatch):
        runs = []

        def fake(task, samples):
            compiler, hp = task
            runs.append(TrainedModel(compiler, [], [self.LOSSES.get(hp.seed, 0.007)], hp))
            return runs[-1]

        monkeypatch.setattr(engine, "train_task", fake)
        return runs

    def fit(self, restarts, stop_loss):
        return pipeline.fit(pipeline.simdial_task(), [], restarts, seed=7, stop_loss=stop_loss)

    def test_all_restarts_without_target_keep_lowest(self, runs):
        best = self.fit(5, -1.0)
        assert [m.hyperparams.seed for m in runs] == [7, 1016, 2025, 3034, 4043]
        losses = [m.final_loss for m in runs]
        assert len(set(losses)) == 5
        assert best is runs[losses.index(min(losses))]

    def test_stops_after_first_run_under_target(self, runs):
        best = self.fit(5, 0.15)
        assert [m.hyperparams.seed for m in runs] == [7, 1016, 2025]
        assert best is runs[-1]
        assert best.hyperparams.seed == 7 + 1009 * 2

    @pytest.mark.parametrize("problem, n_runs", [
        (lambda: pipeline.simdial_task(), 1),
        (lambda: pipeline.list_all_problem()[0], 3),
    ], ids=["simdial", "list-all"])
    def test_target_is_stop_loss_else_restart_target(self, runs, problem, n_runs):
        # Every run ends at 0.007: under RESTART_TARGET (0.01), the SimDial
        # task's target, but over list-all's stop_loss of 5e-3.
        best = pipeline.fit(problem(), [], 3)
        assert [m.final_loss for m in runs] == [0.007] * n_runs
        assert best is runs[0]  # the first run on ties

    def test_fit_trains_the_task_compiler(self, monkeypatch):
        # Every restart trains the task's own compiler: none is built, and
        # each run equals the frame-and-template form at its seed.
        samples = pipeline.training_samples(convert_corpus([representative_dialog("restaurant")]))
        task = pipeline.simdial_task()
        compiler = task[0]
        runs, built = [], []
        real_train, real_init = engine.train_task, engine.ModelCompiler.__init__

        def record(task, samples):
            runs.append(real_train(task, samples))
            return runs[-1]

        monkeypatch.setattr(engine, "train_task", record)
        monkeypatch.setattr(engine.ModelCompiler, "__init__",
                            lambda self, *a, **k: built.append(a) or real_init(self, *a, **k))
        best = pipeline.fit(task, samples, 3, training_steps=5, seed=3)
        assert built == [] and len(runs) == 3
        assert [m.hyperparams.seed for m in runs] == [3, 1012, 2021]
        assert all(m.compiler is compiler for m in runs) and best in runs
        monkeypatch.undo()
        for m in runs:
            want = engine.train(compiler.frame, samples, compiler.template, m.hyperparams,
                                compiler.background, compiler.background_pool)
            assert m.loss_trace == want.loss_trace
            assert [w.tobytes() for w in m.weights] == [w.tobytes() for w in want.weights]


class TestMultiwozCli:
    def test_train_task_fits_converted_annotated_records(self, tmp_path):
        # An annotated sample labels nooffer/0 and offerbooked/0-1, which the
        # SimDial task does not target; a task file over them trains.
        turns = [
            {"state": {"restaurant": {"semi": {"food": "eritrean", "area": "not mentioned"}}},
             "user_acts": [["inform", "restaurant", "food"]],
             "system_acts": [["request", "restaurant", "area"]]},
            {"state": {"restaurant": {"semi": {"food": "eritrean", "area": "west"}}},
             "user_acts": [["inform", "restaurant", "area"]],
             "system_acts": [["nooffer", "restaurant", "none"]],
             "db": {"restaurant": {"no_match": True}}},
            {"state": {"hotel": {"book": {"people": "2"}}},
             "system_acts": [["offerbooked", "hotel", "ref"]]},
        ]
        extensional = [["usr_inform", 1], ["known", 1], ["unknown", 1], ["inform", 1],
                       ["request", 1], ["no_match", 0], ["book_fail", 0]]
        task = {
            "frame": {"targets": [[p.name, p.arity] for p in MULTIWOZ_TARGETS],
                      "extensional": extensional},
            "template": {"forward_steps": 2, "slots": [
                [f"{p.name}/{p.arity}", [{"v": 1, "i": False}]] for p in MULTIWOZ_TARGETS]},
            "background": [],
            "hyperparams": {"learning_rate": 0.5, "training_steps": 20},
        }
        src, samples = tmp_path / "mwoz.jsonl", tmp_path / "samples.jsonl"
        task_path, model = tmp_path / "task.json", tmp_path / "model.json"
        src.write_text(json.dumps({"turns": turns}) + "\n")
        task_path.write_text(json.dumps(task))
        assert run_pipeline(["convert", "--format", "multiwoz",
                             "--in", str(src), "--out", str(samples)]) == 0
        assert run_pipeline(["train", "--task", str(task_path), "--samples", str(samples),
                             "--restarts", "1", "--out", str(model)]) == 0
        trained = TrainedModel.load(model)
        assert trained.compiler.frame.targets == MULTIWOZ_TARGETS
        assert trained.final_loss < trained.loss_trace[0]
        assert run_pipeline(["extract", "--model", str(model),
                             "--out", str(tmp_path / "program.txt")]) == 0

    def test_convert_format_multiwoz(self, tmp_path):
        record = {
            "turns": [
                {
                    "state": {
                        "restaurant": {
                            "book": {"booked": [], "people": "", "day": "", "time": ""},
                            "semi": {
                                "food": "eritrean",
                                "pricerange": "not mentioned",
                                "name": "not mentioned",
                                "area": "west",
                            },
                        }
                    },
                    "user_acts": [
                        ["inform", "restaurant", "food"],
                        ["inform", "restaurant", "area"],
                    ],
                    "system_acts": [["nooffer", "restaurant", "none"]],
                    "db": {"restaurant": {"no_match": True}},
                }
            ]
        }
        src = tmp_path / "mwoz.jsonl"
        src.write_text(json.dumps(record) + "\n")
        out = tmp_path / "samples.jsonl"
        assert run_pipeline(["convert", "--format", "multiwoz",
                             "--in", str(src), "--out", str(out)]) == 0
        [rec] = load_samples(out)
        assert rec.meta["domain"] == "restaurant"
        assert "nooffer()" in [str(a) for a in rec.sample.positive]
        assert rec.meta["gold_acts"] == [["nooffer", None]]

    def test_converted_turn_is_scored_against_its_system_acts(self, tmp_path):
        record = {"turns": [{
            "state": {"restaurant": {"semi": {"food": "eritrean", "area": "not mentioned"}}},
            "user_acts": [["inform", "restaurant", "food"]],
            "system_acts": [["inform", "restaurant", "food"], ["request", "restaurant", "area"]],
        }]}
        src, samples = tmp_path / "mwoz.jsonl", tmp_path / "samples.jsonl"
        src.write_text(json.dumps(record) + "\n")
        save_program(GOLDEN_PROGRAM, tmp_path / "program.txt")
        for argv in (
            ["convert", "--format", "multiwoz", "--in", str(src), "--out", str(samples)],
            ["transfer", "--program", str(tmp_path / "program.txt"),
             "--samples", str(samples), "--out", str(tmp_path / "preds.jsonl")],
            ["eval", "--pred", str(tmp_path / "preds.jsonl"), "--gold", str(samples),
             "--report", str(tmp_path / "report.json")],
        ):
            assert run_pipeline(argv) == 0
        action = json.loads((tmp_path / "report.json").read_text())["action_f1"]
        assert (action["tp"], action["fp"], action["fn"]) == (0, 0, 2)

    def test_eval_sorts_slotless_and_slotted_act_of_one_intent(self, tmp_path):
        record = {"turns": [{
            "state": {"hotel": {"book": {"people": "2"}}},
            "system_acts": [["offerbooked", "hotel", "none"], ["offerbooked", "hotel", "ref"]],
        }]}
        src, samples = tmp_path / "mwoz.jsonl", tmp_path / "samples.jsonl"
        src.write_text(json.dumps(record) + "\n")
        assert run_pipeline(["convert", "--format", "multiwoz", "--in", str(src),
                             "--out", str(samples)]) == 0
        [rec] = load_samples(samples)
        assert rec.meta["gold_acts"] == [["offerbooked", None], ["offerbooked", "ref"]]
        report = evaluate_predictions([{"meta": rec.meta, "acts": rec.meta["gold_acts"]}], [rec])
        assert (report.action.tp, report.action.fp, report.action.fn) == (2, 0, 0)


def test_cli_convert_matches_convert_corpus(tmp_path):
    corpus, samples = tmp_path / "movie.jsonl", tmp_path / "samples.jsonl"
    assert run_pipeline(["generate", "--domain", "movie", "--n", "20", "--seed", "3",
                         "--out", str(corpus)]) == 0
    assert run_pipeline(["convert", "--format", "simdial", "--in", str(corpus),
                         "--out", str(samples)]) == 0
    save_samples(convert_corpus(load_corpus(corpus)), tmp_path / "direct.jsonl")
    assert samples.read_bytes() == (tmp_path / "direct.jsonl").read_bytes()


def test_program_file_roundtrip_through_disk(tmp_path):
    path = tmp_path / "program.txt"
    save_program(GOLDEN_PROGRAM, path)
    loaded = load_program(path)
    assert [c for c, _ in loaded.rules] == [c for c, _ in GOLDEN_PROGRAM.rules]
    assert loaded.background == GOLDEN_PROGRAM.background


class TestUsageErrors:
    """A command line the parser rejects exits 2 with one JSON stderr line,
    like every other bad input; ``--help`` still prints help."""

    @pytest.mark.parametrize("argv, want", [
        (["convert", "--format", "simdial", "--in", "x", "--out", "y", "--training-only"],
         "unrecognized arguments: --training-only"),
        (["convert", "--format", "simdial", "--in", "x"],
         "the following arguments are required: --out"),
        (["generate", "--domain", "mars", "--out", "x"], "invalid choice: 'mars'"),
        ([], "the following arguments are required: command"),
    ], ids=["unknown-option", "missing-option", "bad-choice", "missing-subcommand"])
    def test_usage_error_is_one_json_line(self, argv, want, capsys):
        assert run_pipeline(argv) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        error = json.loads(line)
        assert error["error"] == "usage" and want in error["message"]
        assert captured.out == ""

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_pipeline(["convert", "--help"])
        assert exc.value.code == 0
        assert "usage: slotlogic convert" in capsys.readouterr().out


class TestUntrainableHyperparams:
    """Hyperparameters that cannot train exit 2 with one JSON line, before
    any training step."""

    @pytest.fixture
    def samples(self, tmp_path):
        corpus, samples = tmp_path / "train.jsonl", tmp_path / "samples.jsonl"
        assert run_pipeline(["generate", "--domain", "restaurant", "--representative",
                             "--out", str(corpus)]) == 0
        assert run_pipeline(["convert", "--format", "simdial", "--in", str(corpus),
                             "--out", str(samples)]) == 0
        return samples

    @pytest.mark.parametrize("flags, want", [
        (["--lr", "nan"], "learning_rate must be finite"),
        (["--lr", "inf"], "learning_rate must be finite"),
        (["--reg-lambda", "nan"], "reg_lambda must be finite"),
        (["--init-scale", "inf"], "init_scale must be finite"),
        (["--stop-loss", "nan"], "stop_loss must be finite"),
        (["--steps", "-3"], "training_steps must be non-negative"),
        (["--restarts", "-4"], "restarts must be at least 1"),
        (["--restarts", "0"], "restarts must be at least 1"),
        (["--reg", "none", "--reg-lambda", "0.5"], "reg_lambda must be 0 with reg_kind 'none'"),
        (["--seed", "-3"], "seed must be non-negative"),
    ])
    def test_train_exits_2(self, samples, tmp_path, capsys, flags, want):
        out = tmp_path / "model.json"
        capsys.readouterr()
        code = run_pipeline(["train", "--samples", str(samples), "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        [line] = err.splitlines()
        error = json.loads(line)
        assert error["error"] == "ValueError" and want in error["message"]
        assert not out.exists()

    @staticmethod
    def fail(argv, capsys) -> str:
        capsys.readouterr()
        code = run_pipeline(argv)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        [line] = err.splitlines()
        return json.loads(line)["message"]

    def test_negative_seed_in_a_task_file(self, samples, tmp_path, capsys):
        # numpy's own refusal, "expected non-negative integer", named no field.
        task = task_to_dict(*pipeline.simdial_task())
        task["hyperparams"]["seed"] = -3
        path = tmp_path / "task.json"
        path.write_text(json.dumps(task))
        message = self.fail(["train", "--task", str(path), "--samples", str(samples),
                             "--out", str(tmp_path / "model.json")], capsys)
        assert "'hyperparams'" in message and "seed must be non-negative, not -3" in message

    def test_negative_seed_in_a_model_file(self, samples, tmp_path, capsys):
        # train cannot write one; extract used to read it without a check.
        model = tmp_path / "model.json"
        assert run_pipeline(["train", "--samples", str(samples), "--steps", "1",
                             "--restarts", "1", "--out", str(model)]) == 0
        edited = json.loads(model.read_text())
        edited["hyperparams"]["seed"] = -1
        model.write_text(json.dumps(edited))
        message = self.fail(["extract", "--model", str(model),
                             "--out", str(tmp_path / "program.txt")], capsys)
        assert "'hyperparams'" in message and "seed must be non-negative" in message

    @pytest.mark.parametrize("argv", [
        ["generate", "--domain", "restaurant", "--n", "2", "--seed", "-1"],
        ["gradcheck", "--instances", "1", "--seed", "-1"],
    ], ids=["generate", "gradcheck"])
    def test_negative_seed_flag(self, tmp_path, capsys, argv):
        if argv[0] == "generate":
            argv = [*argv, "--out", str(tmp_path / "corpus.jsonl")]
        assert "seed must be non-negative, not -1" in self.fail(argv, capsys)

    @pytest.mark.parametrize("make", [
        lambda: Hyperparams(seed=-1),
        lambda: GeneratorConfig(DOMAINS["restaurant"], seed=-1),
        lambda: generate_corpus("restaurant", 2, seed=-1),
        lambda: run_gradcheck(seed=-1, instances=1),
    ], ids=["hyperparams", "generator-config", "generate-corpus", "gradcheck"])
    def test_negative_seed_named(self, make):
        with pytest.raises(ValueError, match="seed must be non-negative, not -1"):
            make()

    @pytest.mark.parametrize("field", ["learning_rate", "reg_lambda", "init_scale", "stop_loss"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Hyperparams(**{field: value})

    def test_zero_steps_accepted(self):
        assert Hyperparams(training_steps=0).training_steps == 0

    def test_penalty_weight_needs_a_penalty(self):
        # No penalty reads the weight, so a model file would record one it
        # never trained with.
        with pytest.raises(ValueError, match="reg_lambda must be 0 with reg_kind 'none', not 0.5"):
            Hyperparams(reg_kind="none", reg_lambda=0.5)
        for kind in ("none", "l1", "l2"):
            assert Hyperparams(reg_kind=kind, reg_lambda=0.0).reg_lambda == 0.0

    @pytest.mark.parametrize("restarts", [0, -4])
    def test_restart_loop_rejects_fewer_than_one(self, restarts, monkeypatch):
        def train_task(task, samples):
            raise AssertionError("no run may start")

        monkeypatch.setattr(engine, "train_task", train_task)
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            pipeline.fit(pipeline.simdial_task(), [], restarts)
