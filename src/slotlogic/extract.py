"""Symbolic program extraction and crisp (boolean) rule application.

The extracted program is what ships: a small set of clauses with their
learned probabilities. Applying it to a new constant set needs no
weights and no gradients, which is what makes cross-domain transfer a
matter of re-grounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .engine import Sample, TrainedModel, infer
from .logic import (
    Atom,
    Clause,
    Predicate,
    Term,
    format_clause,
    parse_clause,
)


@dataclass(frozen=True)
class PolicyProgram:
    """Argmax rules (used for inference), alternates, and fixed background."""

    rules: tuple[tuple[Clause, float], ...]
    alternates: tuple[tuple[Clause, float], ...]
    background: tuple[Clause, ...]
    targets: tuple[Predicate, ...]
    forward_steps: int


def extract_program(trained: TrainedModel, threshold: float = 0.9) -> PolicyProgram:
    """Per slot, keep the argmax clause plus any clause at or above
    ``threshold`` probability (ties go to the first clause in pool order)."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    rules: list[tuple[Clause, float]] = []
    alternates: list[tuple[Clause, float]] = []
    for ((pred, k), clauses), probs in zip(
        trained.pools, trained.probabilities()
    ):
        if not clauses:
            continue
        best = int(np.argmax(probs))
        rules.append((clauses[best], float(probs[best])))
        for i, c in enumerate(clauses):
            if i != best and probs[i] >= threshold:
                alternates.append((c, float(probs[i])))
    return PolicyProgram(
        rules=tuple(rules),
        alternates=tuple(alternates),
        background=trained.background,
        targets=trained.frame.targets,
        forward_steps=trained.template.forward_steps,
    )


# ---------------------------------------------------------------------------
# Boolean forward chaining.

def _match(pattern: Atom, fact: Atom, binding: dict[Term, Term]) -> dict[Term, Term] | None:
    out = dict(binding)
    for p, f in zip(pattern.args, fact.args):
        if p.is_variable:
            bound = out.get(p)
            if bound is None:
                out[p] = f
            elif bound != f:
                return None
        elif p != f:
            return None
    return out


def _chain_round(
    clauses: Sequence[Clause], facts_by_pred: Mapping[Predicate, Sequence[Atom]]
) -> set[Atom]:
    derived: set[Atom] = set()
    for clause in clauses:
        b1, b2 = clause.body
        for f1 in facts_by_pred.get(b1.predicate, ()):
            bind1 = _match(b1, f1, {})
            if bind1 is None:
                continue
            for f2 in facts_by_pred.get(b2.predicate, ()):
                bind2 = _match(b2, f2, bind1)
                if bind2 is None:
                    continue
                derived.add(clause.head.substitute(bind2))
    return derived


def crisp_infer(
    program: PolicyProgram,
    background: Iterable[Atom],
    constants: Sequence[str] = (),
) -> frozenset[Atom]:
    """Boolean forward chaining of argmax rules plus background clauses,
    to fixpoint or ``forward_steps`` rounds; returns target-predicate atoms."""
    clauses = [c for c, _ in program.rules] + list(program.background)
    facts: set[Atom] = set(background)
    by_pred: dict[Predicate, list[Atom]] = {}
    for a in facts:
        by_pred.setdefault(a.predicate, []).append(a)
    for p in by_pred:
        by_pred[p].sort()
    for _ in range(program.forward_steps):
        new = _chain_round(clauses, by_pred) - facts
        if not new:
            break
        for a in sorted(new):
            facts.add(a)
            by_pred.setdefault(a.predicate, []).append(a)
    targets = set(program.targets)
    return frozenset(a for a in facts if a.predicate in targets)


def agreement(
    trained: TrainedModel,
    program: PolicyProgram,
    samples: Sequence[Sample],
) -> float:
    """Fraction of target groundings where thresholded fuzzy inference
    (at 0.5) and crisp rule application agree; 1.0 on no atoms."""
    compiler = trained.compiler()
    matches = 0
    total = 0
    for sample in samples:
        model = compiler.compile(sample.constants)
        valuation = infer(model, trained.weights, sample)
        derived = crisp_infer(program, sample.background, sample.constants)
        for pred in trained.frame.targets:
            lo, hi = model.index.ranges[pred]
            for i in range(lo, hi):
                atom = model.index.atoms[i]
                fuzzy_true = valuation.values[i] >= 0.5
                crisp_true = atom in derived
                matches += int(fuzzy_true == crisp_true)
                total += 1
    return matches / total if total else 1.0


# ---------------------------------------------------------------------------
# Program file: "prob clause" lines under section headers.

def program_to_text(program: PolicyProgram) -> str:
    lines = [
        "# policy program",
        f"forward_steps: {program.forward_steps}",
        "targets: " + " ".join(f"{p.name}/{p.arity}" for p in program.targets),
        "[rules]",
    ]
    for clause, prob in program.rules:
        lines.append(f"{prob:.6f} {format_clause(clause)}")
    if program.alternates:
        lines.append("[alternates]")
        for clause, prob in program.alternates:
            lines.append(f"{prob:.6f} {format_clause(clause)}")
    if program.background:
        lines.append("[background]")
        for clause in program.background:
            lines.append(f"1.000000 {format_clause(clause)}")
    return "\n".join(lines) + "\n"


def program_from_text(text: str) -> PolicyProgram:
    headers: dict[str, str] = {}
    section = None
    rules: list[tuple[Clause, float]] = []
    alternates: list[tuple[Clause, float]] = []
    background: list[Clause] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(("forward_steps:", "targets:")):
            name, _, value = line.partition(":")
            headers[name] = value.strip()
        elif line.startswith("["):
            section = line.strip("[]")
        else:
            prob_text, _, clause_text = line.partition(" ")
            clause = parse_clause(clause_text)
            prob = float(prob_text)
            if section == "rules":
                rules.append((clause, prob))
            elif section == "alternates":
                alternates.append((clause, prob))
            elif section == "background":
                background.append(clause)
            else:
                raise ValueError(f"clause outside a section: {line!r}")
    for name in ("forward_steps", "targets"):
        if not headers.get(name):
            raise ValueError(f"program has a missing or empty '{name}:' header")
    targets = []
    for tok in headers["targets"].split():
        name, _, arity = tok.partition("/")
        targets.append(Predicate(name, int(arity)))
    return PolicyProgram(
        rules=tuple(rules),
        alternates=tuple(alternates),
        background=tuple(background),
        targets=tuple(targets),
        forward_steps=int(headers["forward_steps"]),
    )


def save_program(program: PolicyProgram, path) -> None:
    with open(path, "w") as f:
        f.write(program_to_text(program))


def load_program(path) -> PolicyProgram:
    with open(path) as f:
        return program_from_text(f.read())
