"""Independent reference implementations the tests check the engine against.

Everything here is written the dumb way on purpose: naive substitution
enumeration, explicit list walks, brute-force pair counting. None of it
shares code with the package's inference paths. ``join_fixpoint`` is the
one concession to speed: still naive (every round re-derives from all
facts), but it matches body atoms against facts instead of trying every
substitution, for tests that chain over hundreds of turns.

The last section is not independent: ``start_valuation`` and
``chain_step`` drive the engine's own chaining one step at a time, for
tests that inspect single steps, and ``agreement`` compares the
package's fuzzy and crisp inference.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Sequence

import numpy as np

from slotlogic import Atom, Clause, GroundIndex, Sample, Term, TrainedModel, crisp_infer, infer
from slotlogic.engine import (
    CompiledModel,
    _chain,
    _segment_weights,
    _start_values,
    _static_schedule,
    probabilities,
)
from slotlogic.extract import PolicyProgram


def ground_clause_rows(
    clause: Clause, index: GroundIndex
) -> list[tuple[int, int, int]]:
    """Substitution by substitution: (head, body, body) index rows in
    ``itertools.product`` order, duplicates removed; none at all when an
    atom falls outside the index."""
    variables = clause.variables()
    rows: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    const_terms = [Term.const(c) for c in index.constants]
    for combo in itertools.product(const_terms, repeat=len(variables)):
        binding = dict(zip(variables, combo))
        atoms = (clause.head, *clause.body)
        try:
            row = tuple(index.index_of(a.substitute(binding)) for a in atoms)
        except KeyError:
            return []
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return rows


def boolean_fixpoint(
    clauses: list[Clause],
    background: set[Atom],
    constants: tuple[str, ...],
    max_rounds: int | None = None,
) -> set[Atom]:
    """Naive bottom-up closure: try every substitution of every clause."""
    facts = set(background)
    rounds = 0
    while True:
        new: set[Atom] = set()
        for clause in clauses:
            variables = clause.variables()
            for combo in itertools.product(constants, repeat=len(variables)):
                binding = {v: Term.const(c) for v, c in zip(variables, combo)}
                if all(b.substitute(binding) in facts for b in clause.body):
                    head = clause.head.substitute(binding)
                    if head not in facts:
                        new.add(head)
        if not new:
            return facts
        facts |= new
        rounds += 1
        if max_rounds is not None and rounds >= max_rounds:
            return facts


def _match(pattern: Atom, fact: Atom, binding: dict) -> dict | None:
    """``binding`` extended so that ``pattern`` becomes ``fact``, or None."""
    out = dict(binding)
    for t, c in zip(pattern.args, fact.args):
        if t.is_variable:
            if out.setdefault(t, c) != c:
                return None
        elif t != c:
            return None
    return out


def join_fixpoint(
    clauses: list[Clause],
    background: set[Atom],
    max_rounds: int | None = None,
) -> set[Atom]:
    """Naive bottom-up closure by joining: facts indexed by predicate, body
    atoms matched left to right. Equals :func:`boolean_fixpoint` when every
    fact uses only the given constants."""
    facts = set(background)
    rounds = 0
    while True:
        by_predicate: dict = {}
        for f in facts:
            by_predicate.setdefault(f.predicate, []).append(f)
        new: set[Atom] = set()
        for clause in clauses:
            bindings = [{}]
            for b in clause.body:
                bindings = [
                    m
                    for binding in bindings
                    for f in by_predicate.get(b.predicate, ())
                    if (m := _match(b, f, binding)) is not None
                ]
            for binding in bindings:
                head = clause.head.substitute(binding)
                if head not in facts:
                    new.add(head)
        if not new:
            return facts
        facts |= new
        rounds += 1
        if max_rounds is not None and rounds >= max_rounds:
            return facts


def boolean_rounds(
    clauses: list[Clause],
    background: set[Atom],
    constants: tuple[str, ...],
    rounds: int,
) -> set[Atom]:
    """Exactly ``rounds`` parallel derivation rounds (no fixpoint check)."""
    facts = set(background)
    for _ in range(rounds):
        new: set[Atom] = set()
        for clause in clauses:
            variables = clause.variables()
            for combo in itertools.product(constants, repeat=len(variables)):
                binding = {v: Term.const(c) for v, c in zip(variables, combo)}
                if all(b.substitute(binding) in facts for b in clause.body):
                    new.add(clause.head.substitute(binding))
        facts |= new
    return facts


def list_all_property(
    chain: list[str], truths: set[str], node: str
) -> bool:
    """Walk the chain from ``node``: does the property hold to the end?"""
    if node not in chain:
        return False
    for x in chain[chain.index(node):]:
        if x not in truths:
            return False
    return True


def multiset_f1_counts(pred: list, gold: list) -> tuple[int, int, int]:
    """Brute-force greedy pairing of equal items; returns (tp, fp, fn)."""
    gold_left = list(gold)
    tp = 0
    for p in pred:
        if p in gold_left:
            gold_left.remove(p)
            tp += 1
    return tp, len(pred) - tp, len(gold) - tp


def multiset_counts_via_counter(pred: list, gold: list) -> tuple[int, int, int]:
    pc, gc = Counter(pred), Counter(gold)
    tp = sum(min(pc[k], gc[k]) for k in pc)
    return tp, len(pred) - tp, len(gold) - tp


# ---------------------------------------------------------------------------
# Single steps of the engine's chaining, and fuzzy-crisp agreement.

def start_valuation(model: CompiledModel, sample: Sample) -> np.ndarray:
    """The valuation ``infer`` starts from: background atoms 1, others 0."""
    return _start_values(model, [sample])[0]


def chain_step(model: CompiledModel, weights: Sequence[np.ndarray], values: np.ndarray) -> np.ndarray:
    """One deduction step of the engine from the valuation ``values``, the
    background clauses' step derived from ``values`` itself."""
    a = values[None, :]
    seg_w = _segment_weights(model, probabilities(weights))
    return _chain(model, seg_w, a, _static_schedule(model, a, 1))[0]


def agreement(trained: TrainedModel, program: PolicyProgram, samples: list[Sample]) -> float:
    """Fraction of target groundings where thresholded fuzzy inference
    (at 0.5) and crisp rule application agree; 1.0 on no atoms."""
    compiler = trained.compiler
    matches = 0
    total = 0
    for sample in samples:
        model = compiler.compile(sample.constants)
        values = infer(model, trained.weights, sample)
        derived = crisp_infer(program, sample.background)
        for pred in compiler.frame.targets:
            lo, hi = model.index.ranges[pred]
            for i in range(lo, hi):
                matches += int((values[i] >= 0.5) == (model.index.atoms[i] in derived))
                total += 1
    return matches / total if total else 1.0
