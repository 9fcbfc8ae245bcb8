"""Command-line pipeline: generate, convert, train, extract, transfer,
eval, gradcheck. Exit codes: 0 success, 2 validation error, 3 numeric
failure."""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import sys
from dataclasses import fields

from . import pipeline
from .dialog import (DOMAINS, dialog_from_dict, is_act_pairs, load_samples, read_json_lines,
                     save_corpus, save_samples, write_json_lines)
from .extract import extract_program, load_program, save_program
from .multiwoz import convert_multiwoz_records

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

log = logging.getLogger("slotlogic")


def _numeric(cmd):
    """``cmd`` as a command that runs numpy, which only such commands
    import: numpy's warnings are silenced, since a numeric failure ends in
    one JSON line, and the engine's numeric errors exit 3."""
    def run(args) -> int:
        import numpy as np
        from .engine import TrainingDiverged, ValuationInvariantError
        try:
            with np.errstate(all="ignore"):
                return cmd(args)
        except TrainingDiverged as exc:
            return _fail("divergence", exc, EXIT_NUMERIC)
        except ValuationInvariantError as exc:
            return _fail("valuation_invariant", exc, EXIT_NUMERIC)
    return run


@_numeric
def _cmd_generate(args) -> int:
    from .simulator import generate_corpus, representative_dialog
    if args.representative:
        dialogs = [representative_dialog(args.domain)]
    else:
        dialogs = generate_corpus(
            args.domain,
            args.n,
            seed=args.seed,
            correction_probability=args.correction_prob,
            max_goal_requests=args.max_goals,
        )
    save_corpus(dialogs, args.out)
    log.info("wrote %d dialogs to %s", len(dialogs), args.out)
    return EXIT_OK


def _cmd_convert(args) -> int:
    ids = itertools.count()

    def convert(d):
        if args.format == "simdial":
            return pipeline.convert_dialog(dialog_from_dict(d), next(ids))
        return convert_multiwoz_records(d, str(next(ids)))

    records = [r for rs in read_json_lines(getattr(args, "in"), convert) for r in rs]
    save_samples(records, args.out)
    log.info("wrote %d samples to %s", len(records), args.out)
    return EXIT_OK


@_numeric
def _cmd_train(args) -> int:
    from .engine import Hyperparams, task_from_dict
    samples = pipeline.training_samples(load_samples(args.samples))
    if args.task:
        with open(args.task) as f:
            task = task_from_dict(json.load(f))
    else:
        task = pipeline.simdial_task()
    overrides = {f.name: getattr(args, f.name) for f in fields(Hyperparams)
                 if getattr(args, f.name) is not None}
    trained = pipeline.fit(task, samples, args.restarts, **overrides)
    trained.save(args.out)
    log.info("final loss %.6f -> %s", trained.final_loss, args.out)
    return EXIT_OK


@_numeric
def _cmd_extract(args) -> int:
    from .engine import TrainedModel
    trained = TrainedModel.load(args.model)
    program = extract_program(trained)
    save_program(program, args.out)
    log.info("wrote %d rules to %s", len(program.rules), args.out)
    return EXIT_OK


def _cmd_transfer(args) -> int:
    program = load_program(args.program)
    records = load_samples(args.samples)
    predictions = pipeline.predict_records(program, records)
    write_json_lines(args.out, predictions)
    log.info("wrote %d predictions to %s", len(predictions), args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    gold = load_samples(args.gold)
    predictions = read_json_lines(args.pred, _prediction)
    report = pipeline.evaluate_predictions(predictions, gold)
    with open(args.report, "w") as f:
        json.dump(report.to_dict(), f, indent=1, sort_keys=True)
        f.write("\n")
    print(report.summary())
    return EXIT_OK


def _prediction(p):
    """A prediction line, checked for what eval reads."""
    if not (isinstance(p, dict) and isinstance(p.get("meta", {}), dict)
            and is_act_pairs(p.get("acts"))):
        raise ValueError("a prediction must be an object with a 'meta' object and "
                         "an 'acts' list of [intent, slot] pairs")
    return p


@_numeric
def _cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradcheck
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, not {args.tolerance}")
    report = run_gradcheck(seed=args.seed, instances=args.instances)
    print(
        f"gradcheck: {report.instances} instances, "
        f"{report.parameters} parameters, "
        f"max relative error {report.max_rel_error:.3e}"
    )
    if not report.ok(args.tolerance):
        return _fail("gradient_mismatch", f"max relative error {report.max_rel_error:.3e} "
                     f"exceeds tolerance {args.tolerance:g}", EXIT_NUMERIC)
    return EXIT_OK


class _UsageError(Exception):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    # argparse prints a usage block and exits on a bad command line; raise
    # instead, so run_pipeline reports it as one JSON line. Subcommand
    # parsers are built with the class of their parent.
    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="slotlogic")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a dialog corpus")
    g.add_argument("--domain", choices=sorted(DOMAINS), required=True)
    g.add_argument("--n", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--correction-prob", type=float, default=0.2)
    g.add_argument("--max-goals", type=int, default=3)
    g.add_argument("--representative", action="store_true",
                   help="write the single all-intent training dialog")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    c = sub.add_parser("convert", help="corpus -> logical samples")
    c.add_argument("--format", choices=("simdial", "multiwoz"), required=True)
    c.add_argument("--in", dest="in", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_convert)

    t = sub.add_parser("train", help="fit clause weights on samples")
    t.add_argument("--samples", required=True)
    t.add_argument("--task", help="task or model JSON file (default: the SimDial task)")
    t.add_argument("--out", required=True)
    # Each flag names a Hyperparams field; unset ones keep the task's value.
    t.add_argument("--lr", dest="learning_rate", type=float)
    t.add_argument("--steps", dest="training_steps", type=int)
    t.add_argument("--reg", dest="reg_kind", choices=("none", "l1", "l2"))
    t.add_argument("--reg-lambda", type=float)
    t.add_argument("--seed", type=int)
    t.add_argument("--init-scale", type=float)
    t.add_argument("--amalgamation", choices=("max", "sum"))
    t.add_argument("--stop-loss", type=float)
    t.add_argument("--acc-decay", dest="accumulator_decay", type=float,
                   help="decay for the squared-gradient accumulator")
    t.add_argument("--restarts", type=int, default=3)
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("extract", help="trained model -> symbolic program")
    e.add_argument("--model", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=_cmd_extract)

    tr = sub.add_parser("transfer", help="apply a program file to samples")
    tr.add_argument("--program", required=True)
    tr.add_argument("--samples", required=True)
    tr.add_argument("--out", required=True)
    tr.set_defaults(func=_cmd_transfer)

    ev = sub.add_parser("eval", help="score predictions against gold samples")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--gold", required=True)
    ev.add_argument("--report", required=True)
    ev.set_defaults(func=_cmd_eval)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient check")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--instances", type=int, default=100)
    gc.add_argument("--tolerance", type=float, default=1e-4)
    gc.set_defaults(func=_cmd_gradcheck)
    return p


def run_pipeline(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return _fail("usage", exc, EXIT_VALIDATION)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        return _fail(type(exc).__name__, exc, EXIT_VALIDATION)


def _fail(error: str, message, code: int) -> int:
    print(json.dumps({"error": error, "message": str(message)}), file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run_pipeline())


if __name__ == "__main__":
    main()
