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
    MAX_CLAUSE_VARS, Atom, Clause, LanguageFrame, Predicate, Term, parse_predicate,
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

    The enumeration runs on integer patterns: a body atom is a pool
    position and a tuple of variable numbers, the head's variables first.
    Each body pair is renamed to canonical form in both orders (variables
    numbered by first occurrence), and the order whose atoms read first in
    text wins, as in ``Clause.make``. One ``Clause`` is built per class,
    from atoms built once per call. A safe pair over more than
    ``MAX_CLAUSE_VARS`` variables raises ``ValueError``, as ``Clause.make``
    does.
    """
    pool = list(dict.fromkeys(extensional_pool))
    if template.allow_intensional:
        for p in intensional_pool:
            if p not in pool:
                pool.append(p)
    n_head = head.arity
    terms = [Term.var(f"V{k}") for k in range(n_head + template.extra_vars)]
    head_atom = Atom(head, tuple(terms[:n_head]))
    atoms = {
        (i, args): Atom(p, tuple(terms[k] for k in args))
        for i, p in enumerate(pool)
        for args in itertools.product(range(len(terms)), repeat=p.arity)
    }
    candidates = [key for key, a in atoms.items() if a != head_atom]
    head_vars = set(range(n_head))
    numbering: dict = {}  # argument pair -> its canonical renaming

    def renamed(first, second):
        args = first[1], second[1]
        if args not in numbering:
            number = {k: k for k in range(n_head)}
            numbering[args] = tuple(
                tuple(number.setdefault(k, len(number)) for k in a) for a in args
            )
        r1, r2 = numbering[args]
        return (first[0], r1), (second[0], r2)

    def text(body):
        # No atom's text is a proper prefix of another's (only its last
        # character is ")"), so comparing the two texts in turn orders
        # bodies as their joined text does.
        return atoms[body[0]].text, atoms[body[1]].text

    classes = set()
    for x, y in itertools.combinations_with_replacement(candidates, 2):
        used = set(x[1]).union(y[1])
        if not head_vars <= used:
            continue
        if len(used) > MAX_CLAUSE_VARS:
            raise ValueError(f"clause uses {len(used)} variables (max {MAX_CLAUSE_VARS})")
        body = renamed(x, y)
        if x != y:
            body = min(body, renamed(y, x), key=text)
        classes.add(body)

    def clause_text(body):  # format_clause of the body's clause
        t1, t2 = text(body)
        return f"{head_atom.text} <- {t1}" if t1 == t2 else f"{head_atom.text} <- {t1}, {t2}"

    return [Clause(head_atom, (atoms[b1], atoms[b2])) for b1, b2 in sorted(classes, key=clause_text)]


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
    if "forward_steps" not in d:
        raise ValueError('a template lacks field "forward_steps"')
    try:
        auxiliary = tuple(Predicate(n, a) for n, a in d.get("auxiliary", []))
        forward_steps = d["forward_steps"]
        if type(forward_steps) is not int:
            raise ValueError(f"forward_steps is {forward_steps!r}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f'a template\'s "auxiliary" must be a list of [name, arity] pairs '
                         f'and its "forward_steps" an integer: {exc}') from exc
    return ProgramTemplate(slots=tuple(slots), auxiliary=auxiliary, forward_steps=forward_steps)
