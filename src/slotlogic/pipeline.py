"""End-to-end workflow pieces shared by the CLI and the test harness.

The slot-filling setup wires the dialog adapter's predicate vocabulary
to the engine: list-membership and all-known background clauses, one
clause slot per learnable predicate, and two invented helper predicates
through which the query rule can see "every user slot is filled".
Training and generation import the engine and the simulator when
called, so conversion, transfer and evaluation never load numpy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from .dialog import (
    DOMAINS,
    SIMDIAL_TARGETS,
    Dialog,
    SampleRecord,
    build_sample,
    decode_acts,
    is_act_pairs,
    system_intent,
)
from .extract import PolicyProgram, crisp_infer, extract_program
from .logic import Clause, LanguageFrame, Predicate, Sample, atom, parse_clause
from .metrics import MetricsReport, evaluate_turns
from .templates import ProgramTemplate, RuleTemplate

if TYPE_CHECKING:
    from .engine import Hyperparams, ModelCompiler, TrainedModel

log = logging.getLogger(__name__)

SIMDIAL_EXTENSIONAL = (
    Predicate("known", 1),
    Predicate("unknown", 1),
    Predicate("terminal", 1),
    Predicate("usr_slots", 1),
    Predicate("succ", 2),
    Predicate("inform", 1),
    Predicate("request", 1),
    Predicate("requested", 1),
    Predicate("kb_return", 1),
)

AUX_ALL_KNOWN = Predicate("pred2", 0)
AUX_OPEN_GOAL = Predicate("pred3", 1)


def simdial_frame() -> LanguageFrame:
    return LanguageFrame(targets=SIMDIAL_TARGETS, extensional=SIMDIAL_EXTENSIONAL)


# Fixed background over the user-slot chain (``succ`` links from the head
# node to the ``terminal`` marker): ``all`` holds at a node when ``known``
# holds from it through to the terminal, via the helper ``pred1``;
# ``member`` relates an element to the chain head it hangs off, and
# requiring a successor on the element keeps the terminal marker out.
# Row order feeds the tie rules, so it is part of the contract.
SIMDIAL_BACKGROUND = tuple(
    parse_clause(t)
    for t in (
        "pred1(V0, V1) <- succ(V0, V1), all(V1)",
        "pred1(V0, V1) <- succ(V0, V1), terminal(V1)",
        "all(V0) <- known(V0), pred1(V0, V1)",
        "member(V0, V1) <- succ(V1, V0), succ(V0, V2)",
        "member(V0, V1) <- succ(V1, V2), member(V0, V2)",
        "member_usr(V0) <- usr_slots(V1), member(V0, V1)",
    )
)


def simdial_background() -> tuple[tuple[Clause, ...], tuple[Predicate, ...]]:
    """Background clauses plus the derived predicates rule bodies may use."""
    return SIMDIAL_BACKGROUND, (Predicate("all", 1), Predicate("member_usr", 1))


def simdial_template() -> ProgramTemplate:
    # The all-known check walks the slot chain at two rounds per node
    # (helper then head), so depth 2k+5 must fit for k user slots; 14
    # covers four-slot domains with margin.
    return ProgramTemplate(
        slots=(
            (Predicate("sys_request", 1), (RuleTemplate(0, False),)),
            (Predicate("sys_inform", 1), (RuleTemplate(0, False),)),
            (Predicate("sys_query", 1), (RuleTemplate(0, True),)),
            (AUX_ALL_KNOWN, (RuleTemplate(1, False),)),
            (AUX_OPEN_GOAL, (RuleTemplate(0, True),)),
        ),
        auxiliary=(AUX_ALL_KNOWN, AUX_OPEN_GOAL),
        forward_steps=14,
    )


RESTART_TARGET = 0.01


def simdial_hyperparams(**overrides) -> Hyperparams:
    from .engine import Hyperparams
    # Zero init keeps data-equivalent clauses exactly tied, so pool order
    # (canonical clause text) settles them reproducibly.
    base = dict(
        learning_rate=0.5,
        training_steps=1200,
        reg_kind="l2",
        reg_lambda=1e-5,
        init_scale=0.0,
    )
    base.update(overrides)
    return Hyperparams(**base)


def simdial_task() -> tuple[ModelCompiler, Hyperparams]:
    from .engine import ModelCompiler
    background, pool = simdial_background()
    return ModelCompiler(simdial_frame(), simdial_template(), background, pool), simdial_hyperparams()


# ---------------------------------------------------------------------------
# Conversion.

def convert_dialog(dialog: Dialog, dialog_id: int) -> list[SampleRecord]:
    """A dialog's turns as samples, unsupervised ones flagged for eval only.

    A ``ValueError`` names an unknown domain or the turn that fails.
    """
    spec = DOMAINS.get(dialog.domain)
    if spec is None:
        raise ValueError(f"unknown domain {dialog.domain!r}; known: {', '.join(sorted(DOMAINS))}")
    records = []
    for ti, turn in enumerate(dialog.turns):
        try:
            sample = build_sample(turn, spec)
        except ValueError as exc:
            raise ValueError(f"turn {ti}: {exc}") from exc
        records.append(
            SampleRecord(
                sample,
                meta={
                    "dialog": dialog_id,
                    "turn": ti,
                    "domain": dialog.domain,
                    "supervised": bool(sample.positive),
                    "correction": turn.correction,
                    "gold_acts": [[system_intent(a.intent), a.slot] for a in turn.system_acts],
                    "slots": list(spec.slots),
                    "format": "simdial",
                },
            )
        )
    return records


def convert_corpus(dialogs: Sequence[Dialog]) -> list[SampleRecord]:
    """All turns of all dialogs, numbered by position."""
    return [r for di, d in enumerate(dialogs) for r in convert_dialog(d, di)]


def training_samples(records: Sequence[SampleRecord]):
    kept = [r.sample for r in records if r.meta.get("supervised", True)]
    skipped = len(records) - len(kept)
    if skipped:
        log.info("skipping %d unsupervised turns for training", skipped)
    return kept


# ---------------------------------------------------------------------------
# Training with deterministic restarts.

def fit(
    task: tuple[ModelCompiler, Hyperparams], samples, restarts: int = 1, **overrides
) -> TrainedModel:
    """Train a task's own compiler on samples; keyword overrides replace
    its hyperparameters. Restart k uses seed ``seed + 1009*k`` until one
    run's final loss is under the task's ``stop_loss`` (``RESTART_TARGET``
    when unset); the lowest-loss run is kept, the first on ties, so reruns
    match bit for bit."""
    from .engine import train_task
    compiler, hp = task
    hp = replace(hp, **overrides)
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, not {restarts}")
    target = RESTART_TARGET if hp.stop_loss is None else hp.stop_loss
    best: TrainedModel | None = None
    for k in range(restarts):
        model = train_task((compiler, replace(hp, seed=hp.seed + 1009 * k)), samples)
        log.info("restart %d: final loss %.6f", k, model.final_loss)
        if best is None or model.final_loss < best.final_loss:
            best = model
        if best.final_loss < target:
            break
    return best


# ---------------------------------------------------------------------------
# Prediction and evaluation.

def predict_record(program: PolicyProgram, record: SampleRecord) -> dict:
    """Crisp-derive system acts for one sample; structural or non-slot
    constants never decode, they are reported in ``rejected``."""
    derived = crisp_infer(program, record.sample.background)
    acts, rejected = decode_acts(derived, record.meta.get("slots"))
    return {"meta": record.meta, "atoms": [str(a) for a in sorted(derived, key=str)],
            "acts": [[i, s] for i, s in acts], "rejected": [str(a) for a in rejected]}


def predict_records(program: PolicyProgram, records: Sequence[SampleRecord]) -> list[dict]:
    """:func:`predict_record` of each record, called once per distinct
    (background, slots) state: predictions depend on nothing else. Each
    holds its record's meta and lists that no other prediction shares."""
    memo: dict[tuple, dict] = {}
    out = []
    for r in records:
        slots = r.meta.get("slots")
        key = (r.sample.background, None if slots is None else tuple(slots))
        p = memo.get(key)
        if p is None:
            p = memo[key] = predict_record(program, r)
        out.append({"meta": r.meta, "atoms": list(p["atoms"]),
                    "acts": [[i, s] for i, s in p["acts"]], "rejected": list(p["rejected"])})
    return out


def _eval_meta(meta: dict, where: str, gold: bool) -> tuple[tuple, str, list]:
    """The (dialog, turn) key, domain and gold acts that eval reads from a
    gold record's meta, which must hold all four, or from a prediction's,
    whose domain (``"unknown"`` when absent) only labels a turn that no
    gold record has; a ``ValueError`` if eval cannot group, label or
    count by them."""
    dialog, turn = key = (meta.get("dialog"), meta.get("turn"))
    domain, acts = ((meta.get("domain"), meta.get("gold_acts")) if gold
                    else (meta.get("domain", "unknown"), meta.get("gold_acts", [])))
    if not ((isinstance(dialog, str) or type(dialog) is int) and type(turn) is int
            and isinstance(domain, str) and is_act_pairs(acts)):
        raise ValueError(f"{where}: meta 'dialog' and 'turn' must both be present, 'dialog' a "
                         "string or an integer and 'turn' an integer, 'domain' a string and "
                         "'gold_acts' a list of [intent, slot] pairs"
                         + ("; a gold record must hold both" if gold else ""))
    return key, domain, acts


def evaluate_predictions(
    predictions: Sequence[dict], gold_records: Sequence[SampleRecord]
) -> MetricsReport:
    """Group per (dialog, turn), union acts across domain splits, score."""
    turns: dict[tuple, tuple[set, set, set]] = {}  # predicted acts, gold acts, domains
    for n, r in enumerate(gold_records, 1):
        key, domain, gold = _eval_meta(r.meta, f"gold record {n}", True)
        _, golds, domains = turns.setdefault(key, (set(), set(), set()))
        golds.update((i, s) for i, s in gold)
        domains.add(domain)
    for n, p in enumerate(predictions, 1):
        key, domain, _ = _eval_meta(p.get("meta", {}), f"prediction {n}", False)
        preds, _, _ = turns.setdefault(key, (set(), set(), {domain}))
        preds.update((i, s) for i, s in p["acts"])
    return evaluate_turns([(list(p), list(g)) for p, g, _ in turns.values()],
                          ["+".join(sorted(d)) for _, _, d in turns.values()])


def evaluate_program_on_corpus(
    program: PolicyProgram, dialogs: Sequence[Dialog]
) -> tuple[MetricsReport, list[dict]]:
    records = convert_corpus(dialogs)
    predictions = predict_records(program, records)
    return evaluate_predictions(predictions, records), predictions


# ---------------------------------------------------------------------------
# The list-"all" learning problem: from one labeled example over two
# successor chains, induce that a node satisfies "all" when the tracked
# property holds from it through to the terminal. Needs one invented
# helper predicate and recursion.

def list_all_problem() -> tuple[tuple[ModelCompiler, Hyperparams], Sample]:
    """The task and its one sample; :func:`fit` it with about 12 restarts."""
    from .engine import Hyperparams, ModelCompiler
    allp = Predicate("all", 1)
    helper = Predicate("pred1", 2)
    frame = LanguageFrame(
        targets=(allp,),
        extensional=(Predicate("true", 1), Predicate("succ", 2), Predicate("terminal", 1)),
    )
    constants = tuple("abcdefgh") + ("t",)
    links = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "t"),
             ("f", "g"), ("g", "h"), ("h", "t")]
    background = [atom("terminal", "t")]
    background += [atom("succ", x, y) for x, y in links]
    background += [atom("true", x) for x in "acdefg"]
    sample = Sample.make(
        background,
        [atom("all", x) for x in "cde"],
        [atom("all", x) for x in "abfgh"],
        constants,
    )
    template = ProgramTemplate(
        slots=(
            (allp, (RuleTemplate(1, True),)),
            (helper, (RuleTemplate(0, True), RuleTemplate(0, True))),
        ),
        auxiliary=(helper,),
        forward_steps=12,
    )
    hp = Hyperparams(learning_rate=0.5, training_steps=600, reg_kind="l2", reg_lambda=1e-5,
                     init_scale=0.5, accumulator_decay=0.9, stop_loss=5e-3)
    return (ModelCompiler(frame, template), hp), sample


# ---------------------------------------------------------------------------
# One-shot convenience used by the acceptance workflow.

@dataclass
class OneShotResult:
    trained: TrainedModel
    program: PolicyProgram
    records: list[SampleRecord]


def simdial_one_shot(domain: str = "restaurant", restarts: int = 3) -> OneShotResult:
    from .simulator import representative_dialog
    records = convert_corpus([representative_dialog(domain)])
    trained = fit(simdial_task(), training_samples(records), restarts)
    return OneShotResult(trained, extract_program(trained), records)
