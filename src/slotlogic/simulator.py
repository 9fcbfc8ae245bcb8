"""Agenda-based generator of clean slot-filling dialogs.

Every generated turn's system acts follow one fixed policy: request the
user slots still unknown, report what the database just returned, and
query a requested goal once all user slots are filled. Correction turns
are the deliberate exception: the user re-informs a slot after a result
was delivered, the stale goal reverts to unknown, and the annotated
action is the re-query even though no fresh request act accompanies it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dialog import DOMAINS, BeliefState, Dialog, DialogAct, DomainSpec, Turn

DEFAULT_GOAL = "default"

MAX_CORRECTIONS = 2


@dataclass(frozen=True)
class GeneratorConfig:
    domain: DomainSpec
    seed: int = 0
    max_goal_requests: int = 3
    correction_probability: float = 0.2

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")
        if not 0.0 <= self.correction_probability <= 1.0:
            raise ValueError("correction_probability must be in [0, 1]")
        if self.max_goal_requests < 0:
            raise ValueError("max_goal_requests must be >= 0")


def generate_dialog(config: GeneratorConfig) -> Dialog:
    """One seeded dialog with exact states and gold acts per turn."""
    rng = np.random.default_rng(config.seed)
    spec = config.domain
    user_known = {s: False for s in spec.user_slots}
    sys_known = {s: False for s in spec.system_slots}
    outstanding: list[str] = []
    live_requests: list[str] = []  # request acts not yet answered by a query
    kb: tuple[str, ...] = ()
    awaiting: list[str] = []
    turns: list[Turn] = []

    def snapshot() -> BeliefState:
        return BeliefState(
            dict(user_known), dict(sys_known), kb, tuple(outstanding)
        )

    def unknown_user() -> list[str]:
        return [s for s in spec.user_slots if not user_known[s]]

    def policy_turn(user_acts: list[DialogAct]) -> None:
        sys_acts = [DialogAct("request", s) for s in unknown_user()]
        sys_acts += [DialogAct("inform", g) for g in kb]
        if not unknown_user():
            sys_acts += [DialogAct("query", g) for g in live_requests]
        turns.append(Turn(snapshot(), list(user_acts), sys_acts))
        for act in sys_acts:
            if act.intent == "query":
                live_requests.remove(act.slot)
                awaiting.append(act.slot)
            elif act.intent == "inform":
                sys_known[act.slot] = True

    extra_pool = [s for s in spec.system_slots if s != DEFAULT_GOAL]
    n_extra = int(rng.integers(0, min(config.max_goal_requests, len(extra_pool)) + 1))
    extra_goals = (
        [str(s) for s in rng.choice(extra_pool, size=n_extra, replace=False)]
        if n_extra
        else []
    )
    inform_order = [str(s) for s in rng.permutation(spec.user_slots)]

    # Opening: the user states the default goal; slots are all open.
    outstanding.append(DEFAULT_GOAL)
    live_requests.append(DEFAULT_GOAL)
    policy_turn([DialogAct("request", DEFAULT_GOAL)])

    for s in inform_order:
        user_known[s] = True
        acts = [DialogAct("inform", s)]
        acts += [DialogAct("request", g) for g in live_requests]
        policy_turn(acts)

    corrections = 0
    while awaiting or extra_goals:
        if awaiting:
            g = awaiting.pop(0)
            kb = (g,)
            if g in outstanding:
                outstanding.remove(g)
            policy_turn([])
            kb = ()
            if (
                g == DEFAULT_GOAL
                and corrections < MAX_CORRECTIONS
                and rng.random() < config.correction_probability
            ):
                corrections += 1
                slot = str(rng.choice(spec.user_slots))
                sys_known[DEFAULT_GOAL] = False
                outstanding.append(DEFAULT_GOAL)
                turns.append(
                    Turn(
                        snapshot(),
                        [DialogAct("inform", slot)],
                        [DialogAct("query", DEFAULT_GOAL)],
                        correction=True,
                    )
                )
                awaiting.append(DEFAULT_GOAL)
        else:
            g = extra_goals.pop(0)
            outstanding.append(g)
            live_requests.append(g)
            policy_turn([DialogAct("request", g)])

    turns.append(Turn(snapshot(), [], []))
    return Dialog(spec.name, turns)


def _intents(dialog: Dialog) -> set[tuple[str, str]]:
    out = set()
    for t in dialog.turns:
        out.update(("user", a.intent) for a in t.user_acts)
        out.update(("system", a.intent) for a in t.system_acts)
    return out

_ALL_INTENTS = {
    ("user", "inform"),
    ("user", "request"),
    ("system", "request"),
    ("system", "inform"),
    ("system", "query"),
}


def _has_split_state(dialog: Dialog, spec: DomainSpec) -> bool:
    """Some turn knows the final chain slot while an earlier one is open.

    Such a state separates "the whole user list is filled" from "a filled
    tail", which one-shot training needs to tell those rules apart.
    """
    last = spec.user_slots[-1]
    for t in dialog.turns:
        known = t.state.user_known
        if known.get(last) and not all(known.values()):
            return True
    return False


def representative_dialog(domain: str | DomainSpec) -> Dialog:
    """Smallest of 64 seeded dialogs that covers every act intent, requests
    a follow-up goal, and reaches a split informed state; deterministic."""
    spec = DOMAINS[domain] if isinstance(domain, str) else domain
    best: Dialog | None = None
    for i in range(64):
        cfg = GeneratorConfig(
            spec,
            seed=910_000 + i,
            max_goal_requests=2,
            correction_probability=0.0,
        )
        d = generate_dialog(cfg)
        if not _ALL_INTENTS <= _intents(d):
            continue
        n_queries = sum(
            1 for t in d.turns for a in t.system_acts if a.intent == "query"
        )
        if n_queries < 2:
            continue
        if not _has_split_state(d, spec):
            continue
        if best is None or len(d.turns) < len(best.turns):
            best = d
    if best is None:
        raise RuntimeError(f"no representative dialog found for {spec.name}")
    return best


def generate_corpus(
    domain: str | DomainSpec,
    n: int,
    seed: int = 0,
    correction_probability: float = 0.2,
    max_goal_requests: int = 3,
) -> list[Dialog]:
    """``n`` independently seeded dialogs; identical inputs, identical corpus."""
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = DOMAINS[domain] if isinstance(domain, str) else domain
    base = GeneratorConfig(
        spec,
        seed=seed,
        max_goal_requests=max_goal_requests,
        correction_probability=correction_probability,
    )
    child_seeds = np.random.SeedSequence(seed).generate_state(n, np.uint64)
    return [
        generate_dialog(replace(base, seed=int(s))) for s in child_seeds
    ]
