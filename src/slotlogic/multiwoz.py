"""Converter for annotated multi-domain corpora.

Accepts per-turn records with a per-domain belief state (``semi`` and
``book`` sections), user/system acts as [intent, domain, slot] triples,
and database pointers. State slots the user has filled become
``usr_inform``/``known`` atoms, unfilled ones ``unknown``; acts in the
``general`` domain are dropped; select/recommend/offerbook all count as
inform. Each turn yields one sample per involved domain; predictions are
meant to be recombined across domains afterwards.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

from .dialog import (SYSTEM_PREDICATES, USER_INTENTS, SampleRecord, closed_world_negatives,
                     decode_acts, is_flag, system_act_atom)
from .logic import Atom, Predicate, Sample, atom, is_constant_name

GENERAL_DOMAIN = "general"

SLOT_RENAMES = {"pricerange": "price"}

_EMPTY_VALUES = ("", "not mentioned", "none", "not_mentioned")

# An annotated system intent and the intent it encodes as; query has no
# annotated counterpart.
_SYSTEM_INTENTS = {intent: intent for intent in SYSTEM_PREDICATES if intent != "query"}
_SYSTEM_INTENTS.update(select="inform", recommend="inform", offerbook="inform")

_POINTER_FLAGS = frozenset(("no_match", "book_fail"))

MULTIWOZ_TARGETS = (
    Predicate("sys_inform", 1),
    Predicate("sys_request", 1),
    Predicate("nooffer", 0),
    Predicate("offerbooked", 0),
    Predicate("offerbooked", 1),
)


@functools.lru_cache(maxsize=1024)
def normalize_slot(slot: str) -> str | None:
    """The constant a slot name becomes (``ValueError`` if none), or None
    for no slot; cached, since a corpus repeats its slot names."""
    name = slot.strip().lower().replace(" ", "_").replace("-", "_")
    if name in ("none", "", "?"):
        return None
    if not is_constant_name(name):
        raise ValueError(f"slot {slot!r} must be a constant name once normalized (a "
                         f"lowercase letter, then lowercase letters, digits or '_'): {name!r}")
    return SLOT_RENAMES.get(name, name)


def read_domain_state(domain_state: dict) -> tuple[set[Atom], tuple[str, ...]]:
    """One domain's belief state as atoms and its slot constants in
    first-mention order.

    A filled ``semi`` or ``book`` slot yields ``usr_inform(s)`` and
    ``known(s)``, an unfilled one ``unknown(s)``; the ``book`` section's
    ``booked`` list is no slot.
    """
    atoms: set[Atom] = set()
    slots: dict[str, None] = {}
    for section in ("semi", "book"):
        for raw, value in domain_state.get(section, {}).items():
            slot = None if section == "book" and raw == "booked" else normalize_slot(raw)
            if slot is None:
                continue
            slots[slot] = None
            if str(value).strip().lower() in _EMPTY_VALUES:
                atoms.add(atom("unknown", slot))
            else:
                atoms.update((atom("usr_inform", slot), atom("known", slot)))
    return atoms, tuple(slots)


def encode_act_triples(triples: Sequence[Sequence[str]], side: str) -> dict[str, set[Atom]]:
    """[intent, domain, slot] string triples (a null slot for none) to atoms, by domain."""
    if side not in ("user", "system"):
        raise ValueError(f"side must be user or system, got {side!r}")
    kinds = ((str, str, str), (str, str, type(None)))
    if not (isinstance(triples, (list, tuple)) and all(
            isinstance(t, (list, tuple)) and tuple(map(type, t)) in kinds for t in triples)):
        raise ValueError(f"{side} acts must be a list of [intent, domain, slot] triples of "
                         "strings, the slot a string or null")
    out: dict[str, set[Atom]] = {}
    for triple in triples:
        intent, domain, slot_raw = (str(x).strip().lower() for x in triple)
        if domain == GENERAL_DOMAIN:
            continue
        if intent not in (USER_INTENTS if side == "user" else _SYSTEM_INTENTS):
            raise ValueError(f"unknown {side} intent {intent!r}")
        slot = normalize_slot(slot_raw)
        atoms = out.setdefault(domain, set())
        if side == "user":
            a = None if slot is None else atom(intent, slot)
        else:
            a = system_act_atom(_SYSTEM_INTENTS[intent], slot)
        # Slotless inform/request annotations carry no entity; drop.
        if a is not None:
            atoms.add(a)
    return out


def convert_multiwoz_turn(turn_record: dict) -> list[tuple[str, Sample]]:
    """One annotated turn to per-domain samples.

    Training supervision comes from the system acts; the belief state is
    split by domain and each involved domain gets its own sample over its
    own slot constants. A ``ValueError`` for a state or ``db`` domain that
    is not written as act domains are read (stripped, lowercase), a ``db``
    pointer for a domain the turn has no state or acts in, or a pointer
    key other than ``no_match`` and ``book_fail``.
    """
    state = turn_record.get("state", {}) if isinstance(turn_record, dict) else None
    if not (isinstance(state, dict) and all(
            isinstance(s, dict) and all(isinstance(s.get(k, {}), dict) for k in ("semi", "book"))
            for s in state.values())):
        raise ValueError("a turn must be an object whose 'state' maps domains to objects "
                         "with 'semi' and 'book' objects")
    user_atoms = encode_act_triples(turn_record.get("user_acts", []), "user")
    system_atoms = encode_act_triples(turn_record.get("system_acts", []), "system")
    db = turn_record.get("db", {})
    if not isinstance(db, dict):
        raise ValueError("a turn's 'db' must be an object mapping domains to pointers")
    for domain in itertools.chain(state, db):
        if domain != domain.strip().lower():
            raise ValueError(f"domain {domain!r} must be a lowercase name without surrounding "
                             "spaces: act domains are read that way")
    domains = set(state) | set(user_atoms) | set(system_atoms)
    if not db.keys() <= domains:
        raise ValueError(f"db pointer for {min(db.keys() - domains)!r} must be for a domain "
                         "the turn has state or acts in")
    out: list[tuple[str, Sample]] = []
    for domain in sorted(domains):
        pointer = db.get(domain, {})
        if not (isinstance(pointer, dict)
                and all(is_flag(pointer.get(k, False)) for k in _POINTER_FLAGS)):
            raise ValueError(f"db pointer for {domain!r} must be an object, any 'no_match' "
                             "and 'book_fail' in it a JSON boolean")
        if not pointer.keys() <= _POINTER_FLAGS:
            raise ValueError(f"db pointer for {domain!r} has key "
                             f"{min(pointer.keys() - _POINTER_FLAGS)!r}; a pointer's keys must "
                             "be among 'no_match' and 'book_fail'")
        if domain == GENERAL_DOMAIN:
            continue
        background, constants = read_domain_state(state.get(domain, {}))
        background |= user_atoms.get(domain, set())
        if pointer.get("no_match"):
            background.add(atom("no_match"))
        if pointer.get("book_fail"):
            background.add(atom("book_fail"))
        positives = system_atoms.get(domain, set())
        constants += tuple(sorted(
            {t.label for a in itertools.chain(background, positives) for t in a.args}
            - set(constants)))
        if not constants:
            continue
        negatives = closed_world_negatives(positives, constants, MULTIWOZ_TARGETS)
        out.append(
            (domain, Sample.make(background, positives, negatives, constants))
        )
    return out


def convert_multiwoz_records(
    dialog_record: dict, dialog_id: str = "0"
) -> list[SampleRecord]:
    """Whole annotated dialog to samples in turn order, with the meta
    (dialog, turn, domain) that recombines predictions across domains and
    the gold acts, decoded from the positives, that eval scores against."""
    turns = dialog_record.get("turns") if isinstance(dialog_record, dict) else None
    if not isinstance(turns, list):
        raise ValueError("a dialog record must be a JSON object with a 'turns' list")
    records = []
    for i, t in enumerate(turns):
        try:
            samples = convert_multiwoz_turn(t)
        except ValueError as exc:
            raise ValueError(f"turn {i}: {exc}") from exc
        for domain, sample in samples:
            records.append(
                SampleRecord(
                    sample,
                    meta={
                        "dialog": dialog_id,
                        "turn": i,
                        "domain": domain,
                        "supervised": bool(sample.positive),
                        "gold_acts": [list(a) for a in decode_acts(sample.positive, None)[0]],
                        "format": "multiwoz",
                    },
                )
            )
    return records
