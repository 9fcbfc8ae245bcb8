"""Candidate-clause enumeration from rule templates.

A rule template ``(v, i)`` controls how bodies are built for one head
predicate: ``v`` extra existentially quantified variables beyond the head
variables, and whether learnable (intensional) predicates may appear in
the body. A program template assigns one or two such slots to every
learnable predicate and fixes the forward-chaining depth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .logic import (
    Atom, Clause, LanguageFrame, Predicate, Term, UnsafeClauseError, parse_predicate,
)

V_MAX = 2


@dataclass(frozen=True, order=True)
class RuleTemplate:
    extra_vars: int
    allow_intensional: bool

    def __post_init__(self):
        if not 0 <= self.extra_vars <= V_MAX:
            raise ValueError(f"extra_vars {self.extra_vars} outside 0..{V_MAX}")


@dataclass(frozen=True)
class ProgramTemplate:
    """Per-predicate slot templates plus auxiliary (invented) predicates."""

    slots: tuple[tuple[Predicate, tuple[RuleTemplate, ...]], ...]
    auxiliary: tuple[Predicate, ...] = ()
    forward_steps: int = 10

    def __post_init__(self):
        if self.forward_steps < 1:
            raise ValueError("forward_steps must be >= 1")
        for pred, slot_list in self.slots:
            if not 1 <= len(slot_list) <= 2:
                raise ValueError(f"{pred} must have 1 or 2 slots")
        slot_preds = {pred for pred, _ in self.slots}
        for aux in self.auxiliary:
            if aux not in slot_preds:
                raise ValueError(f"auxiliary {aux} has no slot")

    def learnable(self) -> tuple[Predicate, ...]:
        return tuple(pred for pred, _ in self.slots)


def generate_clauses(
    head: Predicate,
    template: RuleTemplate,
    extensional_pool: Sequence[Predicate],
    intensional_pool: Sequence[Predicate] = (),
) -> list[Clause]:
    """Enumerate every admissible two-atom-body clause for ``head``.

    Bodies draw atoms over the head variables plus ``template.extra_vars``
    fresh ones, from the extensional pool plus (when the template allows)
    the intensional pool. Unsafe clauses, clauses repeating the head atom
    in their body, and duplicates up to body order / variable renaming are
    pruned. Output is sorted by clause text.
    """
    pool = list(dict.fromkeys(extensional_pool))
    if template.allow_intensional:
        for p in intensional_pool:
            if p not in pool:
                pool.append(p)
    head_vars = tuple(Term.var(f"V{k}") for k in range(head.arity))
    head_atom = Atom(head, head_vars)
    all_vars = head_vars + tuple(
        Term.var(f"V{head.arity + k}") for k in range(template.extra_vars)
    )
    candidates: list[Atom] = []
    for p in pool:
        for combo in itertools.product(all_vars, repeat=p.arity):
            candidates.append(Atom(p, combo))
    out: set[Clause] = set()
    for b1, b2 in itertools.combinations_with_replacement(candidates, 2):
        if b1 == head_atom or b2 == head_atom:
            continue
        try:
            out.add(Clause.make(head_atom, (b1, b2)))
        except UnsafeClauseError:
            continue
    return sorted(out, key=str)


def slot_clause_pools(
    pt: ProgramTemplate,
    frame: LanguageFrame,
    background_pool: Sequence[Predicate] = (),
) -> list[tuple[tuple[Predicate, int], list[Clause]]]:
    """Candidate clauses for every (predicate, slot) of a program template."""
    extensional = list(frame.extensional) + [
        p for p in background_pool if p not in frame.extensional
    ]
    intensional = list(pt.learnable())
    pools: list[tuple[tuple[Predicate, int], list[Clause]]] = []
    for pred, slot_list in pt.slots:
        for k, rt in enumerate(slot_list):
            pools.append(
                ((pred, k), generate_clauses(pred, rt, extensional, intensional))
            )
    return pools


# ---------------------------------------------------------------------------
# Config-file form.

def template_to_dict(pt: ProgramTemplate) -> dict:
    # Slot order is meaningful (weights align to it), so it is a list.
    return {
        "forward_steps": pt.forward_steps,
        "auxiliary": [[p.name, p.arity] for p in pt.auxiliary],
        "slots": [
            [
                f"{pred.name}/{pred.arity}",
                [{"v": rt.extra_vars, "i": rt.allow_intensional} for rt in slot_list],
            ]
            for pred, slot_list in pt.slots
        ],
    }


def template_from_dict(d: dict) -> ProgramTemplate:
    form = '["name/arity", [{"v": int, "i": bool}, ...]] pairs in slot order'
    if not isinstance(d, dict) or not isinstance(d.get("slots"), list):
        raise ValueError(f'a template is an object whose "slots" must be a list of {form}')
    slots = []
    for entry in d["slots"]:
        try:
            key, slot_list = entry
            pred = parse_predicate(key)
            rules = [(s["v"], s["i"]) for s in slot_list]
            if any(type(v) is not int or type(i) is not bool for v, i in rules):
                raise ValueError('"v" must be a JSON integer and "i" a JSON boolean')
            slots.append((pred, tuple(RuleTemplate(*r) for r in rules)))
        except KeyError as exc:
            raise ValueError(f"template slot {key}: entry lacks key {exc}; want {form}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"template slot {entry!r}: {exc}; want {form}") from exc
    try:
        auxiliary = tuple(Predicate(n, a) for n, a in d.get("auxiliary", []))
        forward_steps = d.get("forward_steps", 10)
        if type(forward_steps) is not int:
            raise ValueError(f"forward_steps is {forward_steps!r}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f'a template\'s "auxiliary" must be a list of [name, arity] pairs '
                         f'and its "forward_steps" an integer: {exc}') from exc
    return ProgramTemplate(slots=tuple(slots), auxiliary=auxiliary, forward_steps=forward_steps)
