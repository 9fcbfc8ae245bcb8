"""Conversion between annotated dialog turns and logical samples.

The belief state encodes user slots as a successor chain hanging off the
structural head node so rules can quantify over "the user slots" without
naming any; system slots get plain known/unknown flags. Acts map to
atoms whose predicate is the act and whose argument is the slot.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .logic import Atom, Predicate, Sample, atom, parse_atom

TERM = "term"
USR_HEAD = "usr_slot"
STRUCTURAL = (TERM, USR_HEAD)

USER_INTENTS = ("inform", "request")

# A system intent's target predicate: inform, request and query take a
# slot, nooffer none, offerbooked one or none.
SYSTEM_PREDICATES = {
    "inform": "sys_inform",
    "request": "sys_request",
    "query": "sys_query",
    "nooffer": "nooffer",
    "offerbooked": "offerbooked",
}

SIMDIAL_TARGETS = (
    Predicate("sys_request", 1),
    Predicate("sys_inform", 1),
    Predicate("sys_query", 1),
)


@dataclass(frozen=True)
class DomainSpec:
    name: str
    user_slots: tuple[str, ...]
    system_slots: tuple[str, ...]

    def __post_init__(self):
        if not self.user_slots or not self.system_slots:
            raise ValueError("user_slots and system_slots must be nonempty")
        all_slots = self.user_slots + self.system_slots
        if len(set(all_slots)) != len(all_slots):
            raise ValueError(f"duplicate slot in domain {self.name}")
        for s in all_slots:
            if s in STRUCTURAL:
                raise ValueError(f"slot {s!r} collides with a structural constant")

    @property
    def slots(self) -> tuple[str, ...]:
        return self.user_slots + self.system_slots

    def constants(self) -> tuple[str, ...]:
        return self.slots + STRUCTURAL


# The SimDial domains. Slot lists for the bus and weather domains are
# stand-ins chosen to vary the slot counts; restaurant and movie follow
# the usual metadata.
DOMAINS = {
    "restaurant": DomainSpec(
        "restaurant",
        user_slots=("food_pref", "loc"),
        system_slots=("default", "open", "price", "parking"),
    ),
    "movie": DomainSpec(
        "movie",
        user_slots=("genre", "years", "country"),
        system_slots=("default", "rating", "company", "director"),
    ),
    "bus": DomainSpec(
        "bus",
        user_slots=("from_stop", "to_stop", "time"),
        system_slots=("default", "duration", "fare"),
    ),
    "weather": DomainSpec(
        "weather",
        user_slots=("city", "date"),
        system_slots=("default", "temperature", "wind"),
    ),
}


@dataclass
class BeliefState:
    """Tracker output before the system acts.

    ``outstanding`` holds goals the user has asked for whose answer has
    not come back from the database yet; ``kb_return`` holds slots the
    database returned on the preceding query.
    """

    user_known: dict[str, bool]
    sys_known: dict[str, bool]
    kb_return: tuple[str, ...] = ()
    outstanding: tuple[str, ...] = ()
    no_match: bool = False
    book_fail: bool = False


@dataclass(frozen=True, order=True)
class DialogAct:
    intent: str
    slot: str | None = None

    def __post_init__(self):
        if self.intent == "nooffer" and self.slot is not None:
            raise ValueError("nooffer carries no slot")


@dataclass
class Turn:
    state: BeliefState
    user_acts: list[DialogAct]
    system_acts: list[DialogAct]
    correction: bool = False


@dataclass
class Dialog:
    domain: str
    turns: list[Turn]


# ---------------------------------------------------------------------------
# Encoding.

def encode_state(state: BeliefState, spec: DomainSpec) -> frozenset[Atom]:
    """Belief state as ground atoms: the user-slot chain plus flags.

    A ``ValueError`` unless every slot of ``state`` is one of ``spec``'s,
    filed under its own side's list (``user_slots`` or ``sys_slots``), and
    every ``kb_return`` and ``outstanding`` slot a system slot.
    """
    for name, side, known, own in (("user_slots", "user", state.user_known, spec.user_slots),
                                   ("sys_slots", "system", state.sys_known, spec.system_slots)):
        for s in known:
            if s not in spec.slots:
                raise ValueError(f"slot {s!r} not in domain {spec.name}")
            if s not in own:
                raise ValueError(f"{name} slot {s!r} is not a {side} slot of domain {spec.name}")
    for name, slots in (("kb_return", state.kb_return), ("outstanding", state.outstanding)):
        for s in slots:
            if s not in spec.system_slots:
                raise ValueError(f"{name} slot {s!r} is not a system slot")
    out: set[Atom] = {atom("terminal", TERM), atom("usr_slots", USR_HEAD)}
    prev = USR_HEAD
    for s in spec.user_slots:
        out.add(atom("succ", prev, s))
        prev = s
    out.add(atom("succ", prev, TERM))
    out.add(atom("known", USR_HEAD))
    for s in spec.user_slots:
        out.add(atom("known" if state.user_known.get(s, False) else "unknown", s))
    for s in spec.system_slots:
        out.add(atom("known" if state.sys_known.get(s, False) else "unknown", s))
    for s in state.kb_return:
        out.add(atom("kb_return", s))
    for s in state.outstanding:
        out.add(atom("requested", s))
    if state.no_match:
        out.add(atom("no_match"))
    if state.book_fail:
        out.add(atom("book_fail"))
    return frozenset(out)


def system_intent(written: str) -> str:
    """The intent a SimDial system act written as ``written`` decodes to:
    a corpus may prefix it with ``sys_``. A ``ValueError`` if unknown."""
    intent = written.removeprefix("sys_")
    if intent not in SYSTEM_PREDICATES:
        raise ValueError(f"unknown system intent {written!r}")
    return intent


def system_act_atom(intent: str, slot: str | None) -> Atom | None:
    """The target atom of a system intent and slot, or None for an inform,
    request or query without a slot; a ``ValueError`` if the intent is unknown."""
    pred = SYSTEM_PREDICATES.get(intent)
    if pred is None:
        raise ValueError(f"unknown system intent {intent!r}")
    if intent == "nooffer" or (intent == "offerbooked" and slot is None):
        return atom(pred)
    return None if slot is None else atom(pred, slot)


def encode_acts(acts: Sequence[DialogAct], side: str) -> frozenset[Atom]:
    """Acts as atoms; the system side gets ``sys_``-prefixed predicates."""
    if side not in ("user", "system"):
        raise ValueError(f"side must be user or system, got {side!r}")
    out: set[Atom] = set()
    for act in acts:
        if side == "user":
            if act.intent not in USER_INTENTS:
                raise ValueError(f"unknown user intent {act.intent!r}")
            if act.slot is None:
                raise ValueError(f"user {act.intent} needs a slot")
            out.add(atom(act.intent, act.slot))
        else:
            intent = system_intent(act.intent)
            a = system_act_atom(intent, act.slot)
            if a is None:
                raise ValueError(f"system {intent} needs a slot")
            out.add(a)
    return frozenset(out)


def act_order(act: tuple[str, str | None]) -> tuple[str, str]:
    """Sort key of an (intent, slot) act; a missing slot sorts first."""
    return act[0], act[1] or ""


_INTENT_OF = {pred: intent for intent, pred in SYSTEM_PREDICATES.items()}


def decode_acts(
    derived: Iterable[Atom], slots: Sequence[str] | None
) -> tuple[list[tuple[str, str | None]], list[Atom]]:
    """Inverse of the system-side act encoding; never raises.

    Returns the distinct (intent, slot) acts sorted by (intent, slot), and
    in text order the atoms that do not decode: those that are not system
    acts, and those naming a structural constant or, unless ``slots`` is
    None, a constant outside it.
    """
    acts: set[tuple[str, str | None]] = set()
    rejected: list[Atom] = []
    for a in sorted(derived, key=str):
        intent = _INTENT_OF.get(a.predicate.name)
        slot = a.args[0].label if a.args else None
        if intent is None or (
            slot is not None
            and (slot in STRUCTURAL or (slots is not None and slot not in slots))
        ):
            rejected.append(a)
        else:
            acts.add((intent, slot))
    return sorted(acts, key=act_order), rejected


@functools.lru_cache(maxsize=1024)
def _target_grounding(constants: tuple[str, ...], targets: tuple[Predicate, ...]) -> frozenset[Atom]:
    # Through atom's cache, so lists that share a slot share its atoms.
    return frozenset(atom(p.name, *args)
                     for p in targets for args in itertools.product(constants, repeat=p.arity))


def closed_world_negatives(
    positives: Iterable[Atom],
    constants: Sequence[str],
    targets: Sequence[Predicate] = SIMDIAL_TARGETS,
) -> frozenset[Atom]:
    """Every target grounding that is not a positive."""
    return _target_grounding(tuple(constants), tuple(targets)).difference(positives)


def build_sample(turn: Turn, spec: DomainSpec) -> Sample:
    """Turn -> (background, positives, negatives, constants).

    Background is the encoded state plus the user acts; positives are the
    system acts; negatives are every other system-act grounding. A turn
    without system acts has no positives.
    """
    positives = encode_acts(turn.system_acts, "system")
    constants = spec.constants()
    background = encode_state(turn.state, spec) | encode_acts(turn.user_acts, "user")
    negatives = closed_world_negatives(positives, constants)
    return Sample.make(background, positives, negatives, constants)


# ---------------------------------------------------------------------------
# Corpus and sample files (JSON lines).

def dialog_to_dict(d: Dialog) -> dict:
    return {
        "domain": d.domain,
        "turns": [
            {
                "state": {
                    "user_slots": [[s, bool(v)] for s, v in t.state.user_known.items()],
                    "sys_slots": [[s, bool(v)] for s, v in t.state.sys_known.items()],
                    "kb_return": list(t.state.kb_return),
                    "outstanding": list(t.state.outstanding),
                    "no_match": t.state.no_match,
                    "book_fail": t.state.book_fail,
                },
                "user_acts": [[a.intent, a.slot] for a in t.user_acts],
                "system_acts": [[a.intent, a.slot] for a in t.system_acts],
                "correction": t.correction,
            }
            for t in d.turns
        ],
    }


def _is_pairs(x, second: Callable) -> bool:
    """Whether ``x`` is a list of [string, value] pairs whose values pass ``second``."""
    return isinstance(x, list) and all(
        isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and second(p[1]) for p in x)


def is_act_pairs(acts) -> bool:
    """Whether ``acts`` is a list of [intent, slot] pairs: an intent string
    and a slot string or null."""
    return _is_pairs(acts, lambda s: s is None or isinstance(s, str))


def is_flag(x) -> bool:
    """Whether ``x`` is a JSON boolean (``bool("false")`` is true)."""
    return type(x) is bool


def _is_turn(t) -> bool:
    """Whether ``t`` has the shape :func:`dialog_from_dict` reads."""
    state = t.get("state") if isinstance(t, dict) else None
    return (
        isinstance(state, dict)
        and all(_is_pairs(state.get(k), is_flag) for k in ("user_slots", "sys_slots"))
        and all(isinstance(state.get(k, []), list) for k in ("kb_return", "outstanding"))
        and all(is_flag(state.get(k, False)) for k in ("no_match", "book_fail"))
        and is_flag(t.get("correction", False))
        and all(is_act_pairs(t.get(k)) for k in ("user_acts", "system_acts"))
    )


def dialog_from_dict(d: dict) -> Dialog:
    if not (isinstance(d, dict) and isinstance(d.get("domain"), str)
            and isinstance(d.get("turns"), list)):
        raise ValueError("a dialog must be a JSON object with a 'domain' string and a 'turns' list")
    turns = []
    for n, t in enumerate(d["turns"]):
        if not _is_turn(t):
            raise ValueError(f"turn {n}: a turn must be an object with a 'state' object (its "
                             "'user_slots' and 'sys_slots' lists of [slot, flag] pairs, any "
                             "'kb_return' and 'outstanding' lists, any 'no_match' and "
                             "'book_fail' flags), 'user_acts' and 'system_acts' lists of "
                             "[intent, slot] pairs and any 'correction' flag; a flag is a "
                             "JSON boolean")
        state = BeliefState(
            user_known=dict(t["state"]["user_slots"]),
            sys_known=dict(t["state"]["sys_slots"]),
            kb_return=tuple(t["state"].get("kb_return", ())),
            outstanding=tuple(t["state"].get("outstanding", ())),
            no_match=t["state"].get("no_match", False),
            book_fail=t["state"].get("book_fail", False),
        )
        turns.append(
            Turn(
                state=state,
                user_acts=[DialogAct(*p) for p in t["user_acts"]],
                system_acts=[DialogAct(*p) for p in t["system_acts"]],
                correction=t.get("correction", False),
            )
        )
    return Dialog(domain=d["domain"], turns=turns)


def save_corpus(dialogs: Sequence[Dialog], path) -> None:
    write_json_lines(path, map(dialog_to_dict, dialogs))


def write_json_lines(path, items: Iterable) -> None:
    """One JSON object per line, keys sorted, in ``items`` order."""
    with open(path, "w") as f:
        for x in items:
            f.write(json.dumps(x, sort_keys=True) + "\n")


def read_json_lines(path, parse: Callable) -> list:
    """``parse`` of each non-blank JSON line; a ``ValueError`` names the line."""
    out = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if line.strip():
                try:
                    out.append(parse(json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"{path} line {n}: {exc}") from exc
    return out


def load_corpus(path) -> list[Dialog]:
    return read_json_lines(path, dialog_from_dict)


@dataclass
class SampleRecord:
    """A samples-file line: :meth:`to_dict` writes it, :func:`load_samples` reads it."""

    sample: Sample
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "background": [a.text for a in self.sample.background],
            "positive": [a.text for a in self.sample.positive],
            "negative": [a.text for a in self.sample.negative],
            "constants": list(self.sample.constants),
            "meta": self.meta,
        }


def save_samples(records: Sequence[SampleRecord], path) -> None:
    write_json_lines(path, (r.to_dict() for r in records))


def load_samples(path) -> list[SampleRecord]:
    """A samples file's records. Each distinct atom text is parsed once
    per file, and each distinct sample built once: a line whose four
    sample lists equal an earlier line's shares that line's (frozen)
    ``Sample``. Every line gets its own ``meta``, and its own checks."""
    parse = functools.lru_cache(maxsize=None)(parse_atom)
    shared: dict[tuple, Sample] = {}

    def record(d) -> SampleRecord:
        fields = []
        for name in ("background", "positive", "negative", "constants"):
            if not (isinstance(d, dict) and isinstance(d.get(name), list)
                    and all(map(isinstance, d[name], itertools.repeat(str)))):
                raise ValueError(f"a sample must be a JSON object, {name!r} a list of strings")
            fields.append(tuple(d[name]))
        key = tuple(fields)
        sample = shared.get(key)
        if sample is None:
            *atoms, constants = key
            sample = shared[key] = Sample.make(*(map(parse, x) for x in atoms), constants)
        meta = d.get("meta", {})
        slots = meta.get("slots") if isinstance(meta, dict) else None
        if not (isinstance(meta, dict)
                and (slots is None or isinstance(slots, list)
                     and all(map(isinstance, slots, itertools.repeat(str))))
                and type(meta.get("supervised", True)) is bool):
            raise ValueError("sample field 'meta' must be an object, any 'slots' in it a list "
                             "of strings or null and any 'supervised' a JSON boolean")
        return SampleRecord(sample, meta)

    return read_json_lines(path, record)
