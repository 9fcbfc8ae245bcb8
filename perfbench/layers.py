"""Per-layer metrics of a traced run, and what each one should move.

``instrument`` wraps the package's public functions; ``per_layer``
derives the per-layer metrics from the spans and counters. ``EXPECTED``
records, for each metric, the end-to-end metric and workloads it should
move and the workloads where that end-to-end metric should stay flat.
"""

from __future__ import annotations

import statistics

from slotlogic import dialog, engine, extract, multiwoz, pipeline, simulator

TRAIN = "oneshot_train"
TRANSFER = "transfer"
ALL = (TRAIN, TRANSFER)


def _moves(metric: str, on, flat_on=()) -> dict:
    return {"moves": metric, "on": list(on), "flat_on": list(flat_on)}


_ENGINE = _moves("throughput_per_s", (TRAIN,), (TRANSFER,))
_SETUP = _moves("setup_s", ALL)
_PREDICT = {
    "moves": "throughput_per_s, predict_mean_ms, predict_p99_ms",
    "on": [TRANSFER],
    "flat_on": [],
}

# name -> (unit, expectation)
EXPECTED = {
    "engine.forward_ms": ("ms", _ENGINE),
    "engine.backward_ms": ("ms", _ENGINE),
    "engine.optimizer_ms": ("ms", _ENGINE),
    "engine.loss_and_grad_calls": ("count", _ENGINE),
    "engine.valuation_checks": ("count", _ENGINE),
    "engine.compile_s": ("s", _SETUP),
    "engine.compile_calls": ("count", _SETUP),
    "engine.compile_cache_hit_ratio": ("ratio", _SETUP),
    "engine.ground_atoms": ("count", _SETUP),
    "engine.candidate_clauses": ("count", _SETUP),
    "dialog.convert_turns_per_s": ("1/s", _moves("throughput_per_s", (TRANSFER,), (TRAIN,))),
    "dialog.save_samples_s": ("s", _moves("throughput_per_s", (TRANSFER,), (TRAIN,))),
    "dialog.load_samples_turns_per_s": ("1/s", _moves("throughput_per_s", (TRANSFER,), (TRAIN,))),
    "multiwoz.convert_turns_per_s": ("1/s", _moves("throughput_per_s", (TRANSFER,), (TRAIN,))),
    "multiwoz.samples_per_turn": ("count", _moves("throughput_per_s", (TRANSFER,), (TRAIN,))),
    "extract.crisp_infer_turns_per_s": ("1/s", _PREDICT),
    "extract.derived_atoms_per_turn": ("count", _PREDICT),
    "pipeline.acts_per_derived_atom": ("ratio", _PREDICT),
    "extract.load_program_s": ("s", _SETUP),
    "simulator.generate_s": ("s", _SETUP),
    "metrics.evaluate_s": ("s", _moves("throughput_per_s", (TRANSFER,), (TRAIN,))),
    "cli.generate_s": ("s", _SETUP),
    "cli.convert_s": ("s", _moves("throughput_per_s", (TRANSFER,), (TRAIN,))),
    "cli.train_s": ("s", _moves("throughput_per_s", (TRAIN,), (TRANSFER,))),
    "cli.extract_s": ("s", _moves("throughput_per_s", (TRAIN,), (TRANSFER,))),
    "cli.transfer_s": ("s", _PREDICT),
    "cli.eval_s": ("s", _moves("throughput_per_s", (TRANSFER,), (TRAIN,))),
    "trace.overhead_ratio": ("ratio", {"moves": "none (measurement cost)", "on": [], "flat_on": list(ALL)}),
}


def instrument(tracer) -> None:
    """Wrap every public function the workloads reach, with counters taken
    at the same boundary."""

    def add(key, n):
        tracer.counts[key] += n

    compiled: dict[int, list] = {}

    def on_compile(counts, args, model):
        seen = compiled.setdefault(id(args[0]), [args[0]])
        counts["engine.compile_calls"] += 1
        if any(m is model for m in seen[1:]):
            counts["engine.compile_hits"] += 1
        else:
            seen.append(model)
        counts["engine.ground_atoms"] = len(model.index)
        counts["engine.candidate_clauses"] = sum(len(g.clauses) for g in model.slot_groups)

    w = tracer.wrap
    w(engine, "train", "engine.train")
    w(engine, "loss", "engine.loss")
    w(engine, "loss_and_grad", "engine.loss_and_grad")
    w(engine.ModelCompiler, "compile", "engine.compile", on_compile)
    w(extract, "extract_program", "extract.extract_program")
    w(extract, "save_program", "extract.save_program")
    w(extract, "load_program", "extract.load_program")
    w(extract, "crisp_infer", "extract.crisp_infer",
      lambda c, a, r: add("extract.derived_atoms", len(r)))
    w(pipeline, "convert_corpus", "dialog.convert",
      lambda c, a, r: add("dialog.converted_turns", len(r)))
    w(dialog, "save_samples", "dialog.save_samples")
    w(dialog, "load_samples", "dialog.load_samples",
      lambda c, a, r: add("dialog.loaded_records", len(r)))
    w(dialog, "save_corpus", "dialog.save_corpus")
    w(dialog, "load_corpus", "dialog.load_corpus")
    w(multiwoz, "convert_multiwoz_records", "multiwoz.convert",
      lambda c, a, r: (add("multiwoz.turns", len(a[0]["turns"])), add("multiwoz.samples", len(r))))
    w(pipeline, "predict_records", "pipeline.predict_records")
    w(pipeline, "predict_record", "pipeline.predict_record",
      lambda c, a, r: (add("pipeline.acts", len(r["acts"])), add("pipeline.atoms", len(r["atoms"]))))
    w(pipeline, "evaluate_predictions", "metrics.evaluate")
    for name in ("representative_dialog", "generate_corpus", "generate_dialog"):
        w(simulator, name, f"simulator.{name}")


def _under(spans, name: str) -> list[bool]:
    """Per span, whether some ancestor is named ``name``."""
    out = []
    for n, _, _, parent in spans:
        out.append(parent >= 0 and (spans[parent][0] == name or out[parent]))
    return out


def _med(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(tracer, setups: int, checks: int) -> dict:
    """Per-layer metrics from the spans and counters of one traced run."""
    self_t = tracer.self_times()
    dur = tracer.durations
    c = tracer.counts
    forward = _med(dur("engine.loss"))
    lag = dur("engine.loss_and_grad")
    train_iters = sum(
        1 for name, _, _, parent in tracer.spans
        if name == "engine.loss_and_grad" and parent >= 0
        and tracer.spans[parent][0] == "engine.train"
    )
    in_setup = _under(tracer.spans, "setup")
    simulator_s = sum(
        end - start for i, (name, start, end, parent) in enumerate(tracer.spans)
        if name.startswith("simulator.") and in_setup[i]
        and not tracer.spans[parent][0].startswith("simulator.")
    )
    crisp = dur("extract.crisp_infer")
    values = {
        "engine.forward_ms": forward * 1e3,
        "engine.backward_ms": (_med(lag) - forward) * 1e3,
        "engine.optimizer_ms": _ratio(sum(self_t.get("engine.train", ())), train_iters) * 1e3,
        "engine.loss_and_grad_calls": len(lag),
        "engine.valuation_checks": checks,
        "engine.compile_s": _ratio(
            sum(dur("engine.compile")), c["engine.compile_calls"] - c["engine.compile_hits"]
        ),
        "engine.compile_calls": c["engine.compile_calls"],
        "engine.compile_cache_hit_ratio": _ratio(c["engine.compile_hits"], c["engine.compile_calls"]),
        "engine.ground_atoms": c["engine.ground_atoms"],
        "engine.candidate_clauses": c["engine.candidate_clauses"],
        "dialog.convert_turns_per_s": _ratio(c["dialog.converted_turns"], sum(dur("dialog.convert"))),
        "dialog.save_samples_s": _med(dur("dialog.save_samples")),
        "dialog.load_samples_turns_per_s": _ratio(c["dialog.loaded_records"], sum(dur("dialog.load_samples"))),
        "multiwoz.convert_turns_per_s": _ratio(c["multiwoz.turns"], sum(dur("multiwoz.convert"))),
        "multiwoz.samples_per_turn": _ratio(c["multiwoz.samples"], c["multiwoz.turns"]),
        "extract.crisp_infer_turns_per_s": _ratio(len(crisp), sum(crisp)),
        "extract.derived_atoms_per_turn": _ratio(c["extract.derived_atoms"], len(crisp)),
        "pipeline.acts_per_derived_atom": _ratio(c["pipeline.acts"], c["pipeline.atoms"]),
        "extract.load_program_s": _med(dur("extract.load_program")),
        "simulator.generate_s": simulator_s / setups,
        "metrics.evaluate_s": _med(dur("metrics.evaluate")),
        "trace.overhead_ratio": _ratio(
            _ratio(sum(dur("unit.traced")), c["unit.traced_ops"]),
            _ratio(sum(dur("unit.plain")), c["unit.plain_ops"]),
        ),
    }
    for stage in ("generate", "convert", "train", "extract", "transfer", "eval"):
        values[f"cli.{stage}_s"] = _med(dur(f"cli.{stage}"))
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, (unit, _) in EXPECTED.items()
    }
