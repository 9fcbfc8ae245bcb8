"""Seeded input generators for the benchmark workloads.

Everything here is a function of the benchmark seed; the program under
test only ever sees the files and records these functions produce.
"""

from __future__ import annotations

import numpy as np

from slotlogic import simulator

TRANSFER_DOMAINS = ("movie", "bus", "weather")
CORRECTION_PROBABILITY = 0.02

# Spellings of one slot name that the annotated-corpus converter folds
# back to the simulator's name (case, spaces, hyphens, the price rename).
_SPELLINGS = (
    lambda s: s,
    lambda s: s.replace("_", " "),
    lambda s: s.upper().replace("_", "-"),
)
_INFORM_SYNONYMS = ("inform", "select", "recommend", "offerbook")


def _child_seed(seed: int, *path: int) -> int:
    # SeedSequence takes non-negative entropy only; fold negative seeds in.
    return int(np.random.SeedSequence([seed % 2**64, *path]).generate_state(1, np.uint64)[0])


def simdial_chunk(seed: int, domain: str, k: int, n: int) -> list:
    """Chunk ``k`` of a seeded stream of simulator dialogs in ``domain``."""
    index = sorted(simulator.DOMAINS).index(domain)
    return simulator.generate_corpus(
        domain, n, seed=_child_seed(seed, index, k),
        correction_probability=CORRECTION_PROBABILITY,
    )


def multiwoz_records(seed: int, k: int, n: int) -> list[dict]:
    """Chunk ``k`` of a seeded stream of annotated multi-domain dialog
    records, ``n`` records built from simulator dialogs.

    Each record interleaves two simulator dialogs of different domains turn
    by turn, so every turn carries two domain states. A domain's state
    lists only the slots mentioned so far, in a per-record order and
    spelling, so constant lists vary from turn to turn. Acts become
    ``[intent, domain, slot]`` triples; ``query`` has no annotated
    counterpart and is dropped, informs are spread over the inform
    synonyms, ``general`` acts open and close the dialog, and seeded
    database flags add ``no_match``/``book_fail`` facts with matching
    ``nooffer``/``offerbooked`` acts.
    """
    rng = np.random.default_rng(_child_seed(seed, 99, k))
    domains = sorted(simulator.DOMAINS)
    out = []
    for _ in range(n):
        pair = [domains[i] for i in rng.choice(len(domains), size=2, replace=False)]
        dialogs = {
            d: simulator.generate_dialog(
                simulator.GeneratorConfig(
                    simulator.DOMAINS[d],
                    seed=int(rng.integers(2**31)),
                    correction_probability=CORRECTION_PROBABILITY,
                )
            )
            for d in pair
        }
        out.append(_merge(dialogs, rng))
    return out


def _slot_name(domain: str, slot: str, spelling: int) -> str:
    if domain == "restaurant" and slot == "price":
        return "pricerange"
    return _SPELLINGS[spelling](slot)


def _merge(dialogs: dict, rng: np.random.Generator) -> dict:
    spelling = {
        d: {s: int(rng.integers(len(_SPELLINGS))) for s in simulator.DOMAINS[d].slots}
        for d in dialogs
    }
    mentioned: dict[str, list[str]] = {d: [] for d in dialogs}
    length = max(len(dlg.turns) for dlg in dialogs.values())
    turns = []
    for i in range(length):
        state: dict = {}
        user_acts: list[list[str]] = []
        system_acts: list[list[str]] = []
        db: dict = {}
        if i == 0:
            user_acts.append(["greet", "general", "none"])
        for d, dlg in dialogs.items():
            spec = simulator.DOMAINS[d]
            turn = dlg.turns[min(i, len(dlg.turns) - 1)]
            live = i < len(dlg.turns)
            name = lambda s: _slot_name(d, s, spelling[d][s])  # noqa: E731
            known = {**turn.state.user_known, **turn.state.sys_known}
            for s in list(turn.state.user_known) + list(turn.state.sys_known):
                if (known[s] or s in turn.state.outstanding) and s not in mentioned[d]:
                    mentioned[d].append(s)
            semi = {
                name(s): (f"v{i}" if known[s] else "not mentioned")
                for s in mentioned[d]
                if s in spec.user_slots
            }
            book = {
                name(s): (f"v{i}" if known[s] else "")
                for s in mentioned[d]
                if s in spec.system_slots
            }
            book["booked"] = []
            state[d] = {"semi": semi, "book": book}
            if not live:
                continue
            for a in turn.user_acts:
                user_acts.append([a.intent, d, name(a.slot)])
            for a in turn.system_acts:
                if a.intent == "inform":
                    intent = _INFORM_SYNONYMS[int(rng.integers(len(_INFORM_SYNONYMS)))]
                    system_acts.append([intent, d, name(a.slot)])
                elif a.intent == "request":
                    system_acts.append(["request", d, name(a.slot)])
            flags = {"no_match": bool(rng.random() < 0.05), "book_fail": bool(rng.random() < 0.05)}
            if flags["no_match"]:
                system_acts.append(["nooffer", d, "none"])
            elif flags["book_fail"]:
                system_acts.append(["offerbooked", d, "ref"])
            db[d] = flags
        if i == length - 1:
            user_acts.append(["thank", "general", "none"])
            system_acts.append(["bye", "general", "none"])
        turns.append(
            {"state": state, "user_acts": user_acts, "system_acts": system_acts, "db": db}
        )
    return {"domains": sorted(dialogs), "turns": turns}
