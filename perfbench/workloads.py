"""The two workloads: set-up, one timed unit, and correctness gates.

Each workload drives the functions the CLI stages call (generate,
convert, train, extract, transfer, eval) on files in its own work
directory. A unit is the smallest piece of work a rate is taken over:
one fixed-length training run, or one chunk of every corpus pushed
through convert -> samples file -> transfer -> eval. After its timed
part, each unit replays its records through ``predict_record`` one call
at a time (a closed loop with one caller) for the latency figures, and
checks its predictions against the reference. Checked outputs are not
kept, so memory does not grow with the number of units.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import oracle
from slotlogic import dialog, engine, extract, multiwoz, pipeline, simulator

HERE = Path(__file__).resolve().parent
PROGRAM_PATH = HERE / "data" / "restaurant_program.txt"
ONESHOT_PIN_PATH = HERE / "data" / "oneshot_pin.json"

# Inputs come in seeded chunks, generated on demand just before the unit
# that uses them (outside its timing), so no run ever sees an input twice.
SIZES = {
    # Three replays of a unit's turns give p99 enough samples.
    "oneshot_train": {"iterations": 40, "chunk": 5, "replays": 3},
    "transfer": {"simdial_chunk": 10, "multiwoz_chunk": 25},
}
TINY_SIZES = {
    "oneshot_train": {"iterations": 3, "chunk": 1, "replays": 1},
    "transfer": {"simdial_chunk": 2, "multiwoz_chunk": 2},
}
WARMUP_CHUNK = 10**6  # chunk index of the warm-up input; units count from 0

# Lowest per-domain action F1 the pinned restaurant program may score on
# simulator corpora; misses come only from correction turns (about 2% of
# dialogs), which the one-shot program cannot see.
ACTION_F1_FLOOR = 0.97


@dataclass
class Obs:
    """What the timed units measured, plus the stage-span hook."""

    tracer: object = None
    work: list = field(default_factory=list)  # (ops, seconds) per timed unit
    latencies_ms: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def stage(self, name: str):
        return self.tracer.span(f"cli.{name}") if self.tracer else nullcontext()


def _write_lines(path: Path, dicts) -> str:
    text = "".join(json.dumps(d, sort_keys=True) + "\n" for d in dicts)
    path.write_text(text)
    return text


def _replay(program, records, pred_text: str, obs: Obs, timed: bool = True) -> None:
    """Closed loop, one caller: one ``predict_record`` per record, timed
    alone unless ``timed`` is false; each answer must equal the batch
    pipeline's line."""
    for rec, line in zip(records, pred_text.splitlines(keepends=True)):
        t0 = time.perf_counter()
        pred = pipeline.predict_record(program, rec)
        if timed:
            obs.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        obs.attempted += 1
        if json.dumps(pred, sort_keys=True) + "\n" != line:
            obs.failed += 1
            obs.errors.append(f"predict_record disagrees with predict_records on {rec.meta}")


class PredictionCheck:
    """Running comparison of prediction files with the reference's.

    Per domain, the digest of every prediction line the program wrote must
    equal the digest of the reference's lines for the same samples; per
    domain label, eval's action counts must equal counts taken from the
    reference predictions, grouped per turn as eval groups them.
    """

    def __init__(self, program_text: str):
        self.ref = oracle.ReferenceProgram(program_text)
        self.got: dict = {}  # domain -> running sha256 of the program's lines
        self.want: dict = {}  # domain -> running sha256 of the reference's lines
        self.counts_got: dict[str, list[int]] = {}
        self.counts_want: dict[str, list[int]] = {}
        self.line_counts_match = True

    def add(self, samples_text: str, pred_text: str, report=None) -> None:
        samples = samples_text.splitlines()
        preds = pred_text.splitlines(keepends=True)
        self.line_counts_match &= len(samples) == len(preds)
        turns: dict[tuple, tuple[set, set, set]] = {}
        for s_line, p_line in zip(samples, preds):
            rec = json.loads(s_line)
            ref_line = oracle.predict_line(self.ref, rec)
            meta = rec["meta"]
            self.got.setdefault(meta["domain"], hashlib.sha256()).update(p_line.encode())
            self.want.setdefault(meta["domain"], hashlib.sha256()).update(ref_line.encode())
            pred, gold, doms = turns.setdefault((meta["dialog"], meta["turn"]), (set(), set(), set()))
            pred.update(tuple(a) for a in json.loads(ref_line)["acts"])
            gold.update(tuple(a) for a in meta.get("gold_acts", []))
            doms.add(meta["domain"])
        for pred, gold, doms in turns.values():
            _add(self.counts_want, "+".join(sorted(doms)), oracle.action_counts(sorted(pred), sorted(gold)))
        if report is not None:
            for label, s in report.per_domain.items():
                _add(self.counts_got, label, (s["action"].tp, s["action"].fp, s["action"].fn))

    def gates(self, f1_floor: float | None = None) -> tuple[dict, dict]:
        gates = {"prediction_line_counts_match": self.line_counts_match}
        for d in sorted(self.want):
            gates[f"predictions_match_reference.{d}"] = (
                self.got[d].hexdigest() == self.want[d].hexdigest()
            )
        info = {"prediction_sha256": {d: h.hexdigest() for d, h in sorted(self.got.items())}}
        if self.counts_got:
            gates["eval_counts_match_reference"] = self.counts_got == self.counts_want
        if f1_floor is not None:
            info["action_f1"] = {d: _f1(*c) for d, c in sorted(self.counts_want.items())}
            for d, v in info["action_f1"].items():
                gates[f"action_f1_floor.{d}"] = v >= f1_floor
        return gates, info


def _add(acc: dict, key: str, counts) -> None:
    total = acc.setdefault(key, [0, 0, 0])
    for k, v in enumerate(counts):
        total[k] += v


def _f1(tp: int, fp: int, fn: int) -> float:
    return 1.0 if tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)


# ---------------------------------------------------------------------------
# oneshot_train

class OneShotTrain:
    """Fixed-length full-batch training on the restaurant one-shot dialog,
    then extract the program and apply it in-domain and zero-shot.

    The training input is the paper's single dialog, so it does not depend
    on the seed; that is what lets the extracted program be pinned. The
    seed shapes the dialogs of all four domains the program is then
    applied to, one chunk per unit; the rate counts training time only.
    """

    def __init__(self, seed: int, sizes: dict, workdir: Path, obs: Obs):
        self.seed, self.sizes, self.dir = seed, sizes, workdir
        with obs.stage("generate"):
            d = simulator.representative_dialog("restaurant")
            dialog.save_corpus([d], workdir / "train.jsonl")
        with obs.stage("convert"):
            records = pipeline.convert_corpus(dialog.load_corpus(workdir / "train.jsonl"))
            dialog.save_samples(records, workdir / "train_samples.jsonl")
        self.samples = pipeline.training_samples(dialog.load_samples(workdir / "train_samples.jsonl"))
        self.frame = pipeline.simdial_frame()
        self.template = pipeline.simdial_template()
        self.background, self.pool = pipeline.simdial_background()
        self.hp = pipeline.simdial_hyperparams(training_steps=sizes["iterations"])
        self.programs: set[str] = set()
        self.final_losses: set[float] = set()
        self.check: PredictionCheck | None = None
        self.checks = 0

    def eval_chunk(self, k: int, obs: Obs) -> list:
        with obs.stage("generate"):
            return [
                d for domain in sorted(simulator.DOMAINS)
                for d in inputs.simdial_chunk(self.seed, domain, k, self.sizes["chunk"])
            ]

    def warmup(self, obs: Obs) -> None:
        hp = pipeline.simdial_hyperparams(training_steps=2)
        trained = engine.train(self.frame, self.samples, self.template, hp, self.background, self.pool)
        records = pipeline.convert_corpus(self.eval_chunk(WARMUP_CHUNK, obs))
        pipeline.predict_records(extract.extract_program(trained), records)

    def unit(self, i: int, obs: Obs) -> int:
        dialogs = self.eval_chunk(i, obs)
        checks0 = engine.VALUATION_CHECKS
        with obs.stage("train"):
            t0 = time.perf_counter()
            trained = engine.train(
                self.frame, self.samples, self.template, self.hp, self.background, self.pool
            )
            seconds = time.perf_counter() - t0
        self.checks += engine.VALUATION_CHECKS - checks0
        iters = len(trained.loss_trace) - 1
        obs.work.append((iters, seconds))
        path = self.dir / "program.txt"
        with obs.stage("extract"):
            extract.save_program(extract.extract_program(trained), path)
        samples_path = self.dir / "eval.samples.jsonl"
        with obs.stage("convert"):
            dialog.save_samples(pipeline.convert_corpus(dialogs), samples_path)
        with obs.stage("transfer"):
            program = extract.load_program(path)
            records = dialog.load_samples(samples_path)
            preds = pipeline.predict_records(program, records)
            pred_text = _write_lines(self.dir / "preds.jsonl", preds)
        with obs.stage("eval"):
            pipeline.evaluate_predictions(preds, records)
        for _ in range(self.sizes["replays"]):
            _replay(program, records, pred_text, obs)
        program_text = path.read_text()
        self.programs.add(program_text)
        self.final_losses.add(trained.final_loss)
        if self.check is None:
            self.check = PredictionCheck(program_text)
        self.check.add(samples_path.read_text(), pred_text)
        return iters

    def verify(self) -> dict:
        gates = {"program_deterministic": len(self.programs) == 1 and len(self.final_losses) == 1}
        text, final_loss = min(self.programs), min(self.final_losses)
        info = {"program_sha256": hashlib.sha256(text.encode()).hexdigest(), "final_loss": final_loss}
        pin = json.loads(ONESHOT_PIN_PATH.read_text())[str(self.hp.training_steps)]
        gates["program_matches_pin"] = info["program_sha256"] == pin["program_sha256"]
        gates["final_loss_matches_pin"] = math.isclose(final_loss, pin["final_loss"], rel_tol=1e-9)
        check_gates, check_info = self.check.gates()
        gates.update(check_gates)
        info.update(check_info)
        info["valuation_checks"] = self.checks
        gates["valuation_checks_positive"] = self.checks > 0
        return {"gates": gates, "info": info}


# ---------------------------------------------------------------------------
# transfer

class _Corpus:
    """One transfer corpus: seeded chunks through convert -> samples file
    -> transfer -> eval with the pinned restaurant program, each checked
    against the reference."""

    name = ""
    f1_floor = None
    latency = True  # whether its per-record calls count in the latency figures

    def __init__(self, seed: int, size: int, workdir: Path, program):
        self.seed, self.size, self.dir, self.program = seed, size, workdir, program
        self.check = PredictionCheck(PROGRAM_PATH.read_text())
        self.chunks = 0

    def run_chunk(self, chunk: tuple[str, Path], obs: Obs):
        name, path = chunk
        samples_path = self.dir / f"{name}.samples.jsonl"
        with obs.stage("convert"):
            turns = self.convert(path, samples_path)
        with obs.stage("transfer"):
            records = dialog.load_samples(samples_path)
            preds = pipeline.predict_records(self.program, records)
            pred_text = _write_lines(self.dir / f"{name}.preds.jsonl", preds)
        with obs.stage("eval"):
            with open(self.dir / f"{name}.preds.jsonl") as f:
                loaded = [json.loads(line) for line in f]
            report = pipeline.evaluate_predictions(loaded, records)
        return turns, records, pred_text, samples_path, report

    def check_chunk(self, out, obs: Obs) -> None:
        _, records, pred_text, samples_path, report = out
        _replay(self.program, records, pred_text, obs, timed=self.latency)
        self.check.add(samples_path.read_text(), pred_text, report)
        self.chunks += 1


class SimdialCorpus(_Corpus):
    name = "simdial"
    f1_floor = ACTION_F1_FLOOR

    def generate(self, k: int) -> list[tuple[str, Path]]:
        out = []
        for domain in inputs.TRANSFER_DOMAINS:
            name = f"{domain}-{k:07d}"
            dialogs = inputs.simdial_chunk(self.seed, domain, k, self.size)
            dialog.save_corpus(dialogs, self.dir / f"{name}.jsonl")
            out.append((name, self.dir / f"{name}.jsonl"))
        return out

    def convert(self, path: Path, samples_path: Path) -> int:
        records = pipeline.convert_corpus(dialog.load_corpus(path))
        dialog.save_samples(records, samples_path)
        return len(records)


class MultiwozCorpus(_Corpus):
    name = "multiwoz"
    # The pinned program derives nothing on annotated records, so each call
    # takes tens of microseconds against about a millisecond on simulator
    # turns; pooled, the two would skew every latency figure by the share
    # of records each corpus happens to have in a run.
    latency = False

    def generate(self, k: int) -> list[tuple[str, Path]]:
        name = f"multiwoz-{k:07d}"
        with open(self.dir / f"{name}.jsonl", "w") as f:
            for j, r in enumerate(inputs.multiwoz_records(self.seed, k, self.size)):
                f.write(json.dumps({"id": f"{k}-{j}", **r}, sort_keys=True) + "\n")
        return [(name, self.dir / f"{name}.jsonl")]

    def convert(self, path: Path, samples_path: Path) -> int:
        records, turns = [], 0
        with open(path) as f:
            for line in f:
                d = json.loads(line)
                turns += len(d["turns"])
                records.extend(multiwoz.convert_multiwoz_records(d, dialog_id=d["id"]))
        dialog.save_samples(records, samples_path)
        return turns


class Transfer:
    """The pinned restaurant program over both transfer corpora: every
    unit takes one chunk of simulator dialogs per transfer domain and one
    chunk of annotated two-domain records through the CLI stages."""

    def __init__(self, seed: int, sizes: dict, workdir: Path, obs: Obs):
        self.dir = workdir
        program = extract.load_program(PROGRAM_PATH)
        self.corpora = (
            SimdialCorpus(seed, sizes["simdial_chunk"], workdir, program),
            MultiwozCorpus(seed, sizes["multiwoz_chunk"], workdir, program),
        )

    def inputs(self, k: int, obs: Obs) -> list[tuple[_Corpus, tuple[str, Path]]]:
        with obs.stage("generate"):
            return [(c, chunk) for c in self.corpora for chunk in c.generate(k)]

    def warmup(self, obs: Obs) -> None:
        for c in self.corpora:
            with obs.stage("generate"):
                chunk = c.generate(WARMUP_CHUNK)[0]
            c.run_chunk(chunk, Obs())

    def unit(self, i: int, obs: Obs) -> int:
        chunks = self.inputs(i, obs)
        t0 = time.perf_counter()
        out = [(c, c.run_chunk(chunk, obs)) for c, chunk in chunks]
        turns = sum(o[0] for _, o in out)
        obs.work.append((turns, time.perf_counter() - t0))
        for c, o in out:
            c.check_chunk(o, obs)
        return turns

    def verify(self) -> dict:
        gates, info = {}, {}
        for c in self.corpora:
            g, i = c.check.gates(c.f1_floor)
            gates.update({f"{c.name}.{k}": v for k, v in g.items()})
            info[c.name] = {**i, "chunks": c.chunks}
        return {"gates": gates, "info": info}


WORKLOADS = {
    "oneshot_train": OneShotTrain,
    "transfer": Transfer,
}


class EngineProbe:
    """Fixed engine work on the restaurant one-shot batch, run in every
    traced run so engine layers have numbers on every workload: a fresh
    compiler compiling the same constants twice, five ``loss`` and five
    ``loss_and_grad`` calls, and a three-iteration ``train`` + extract.
    Build it untraced; only :meth:`run` is the probe."""

    def __init__(self):
        d = simulator.representative_dialog("restaurant")
        self.samples = pipeline.training_samples(pipeline.convert_corpus([d]))
        self.frame, self.template = pipeline.simdial_frame(), pipeline.simdial_template()
        self.background, self.pool = pipeline.simdial_background()
        self.hp = pipeline.simdial_hyperparams(training_steps=3)

    def run(self, obs: Obs) -> None:
        compiler = engine.ModelCompiler(self.frame, self.template, self.background, self.pool)
        for _ in range(2):
            compiler.compile(self.samples[0].constants)
        weights = compiler.init_weights(self.hp.seed, self.hp.init_scale)
        for _ in range(5):
            engine.loss(compiler, weights, self.samples, self.hp)
        for _ in range(5):
            engine.loss_and_grad(compiler, weights, self.samples, self.hp)
        with obs.stage("train"):
            trained = engine.train(
                self.frame, self.samples, self.template, self.hp, self.background, self.pool
            )
        with obs.stage("extract"):
            extract.extract_program(trained)
