"""Symbolic program extraction and crisp (boolean) rule application.

The extracted program is what ships: a small set of clauses with their
learned probabilities. Applying it to a new constant set needs no
weights and no gradients, which is what makes cross-domain transfer a
matter of re-grounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .engine import TrainedModel
from .logic import (
    Atom, Clause, Predicate, Term, format_clause, parse_clause, parse_digits, parse_predicate,
)


@dataclass(frozen=True)
class PolicyProgram:
    """Argmax rules with their probabilities, and fixed background."""

    rules: tuple[tuple[Clause, float], ...]
    background: tuple[Clause, ...]
    targets: tuple[Predicate, ...]
    forward_steps: int
    # What crisp_infer runs: per predicate, the joins a new fact of it drives.
    plan: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        plan: dict[Predicate, list[Callable]] = {}
        for c in [c for c, _ in self.rules] + list(self.background):
            for outer, inner in dict.fromkeys((c.body, c.body[::-1])):  # once if equal
                plan.setdefault(outer.predicate, []).append(_join(c.head, outer, inner))
        object.__setattr__(self, "plan", plan)


def extract_program(trained: TrainedModel) -> PolicyProgram:
    """Per slot, the argmax clause; ties go to the first clause in pool order."""
    compiler = trained.compiler
    rules: list[tuple[Clause, float]] = []
    for (_, clauses), probs in zip(compiler.pools, trained.probabilities()):
        if not clauses:
            continue
        best = int(np.argmax(probs))
        rules.append((clauses[best], float(probs[best])))
    return PolicyProgram(
        rules=tuple(rules),
        background=compiler.background,
        targets=compiler.frame.targets,
        forward_steps=compiler.template.forward_steps,
    )


# ---------------------------------------------------------------------------
# Boolean forward chaining.

def _getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    if len(positions) == 1:  # a one-item slice, so the result is still a tuple
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


def _join(head: Atom, outer: Atom, inner: Atom) -> Callable:
    """A clause as a join of new ``outer`` facts with all ``inner`` facts: over
    ``u = outer + inner + constants``, a pair whose repeated variables and
    constants agree (``same(u) == to(u)``) derives the head ``pick(u)``."""
    terms = (*outer.args, *inner.args, *head.args)
    n_body = len(outer.args) + len(inner.args)
    consts = tuple(t.label for t in terms if not t.is_variable)
    const_at, first = iter(range(n_body, n_body + len(consts))), {}
    at = [first.setdefault(t, i) if t.is_variable else next(const_at) for i, t in enumerate(terms)]
    checks = [(i, j) for i, j in enumerate(at[:n_body]) if i != j]
    same, to = _getter([i for i, _ in checks]), _getter([j for _, j in checks])
    pick = _getter(at[n_body:])

    def run(new: set, facts: dict[Predicate, set], derived: dict[Predicate, set]) -> None:
        out = derived.setdefault(head.predicate, set())
        for t1, t2 in product(new, facts.get(inner.predicate, ())):
            u = t1 + t2 + consts
            if same(u) == to(u):
                out.add(pick(u))

    return run


def crisp_infer(program: PolicyProgram, background: Iterable[Atom]) -> frozenset[Atom]:
    """Boolean forward chaining of argmax rules plus background clauses,
    to fixpoint or ``forward_steps`` rounds; returns target-predicate atoms.
    Semi-naive: a round joins only body pairs that use a fact new in the
    last round (at first, the background), so it derives what a naive
    round derives."""
    facts: dict[Predicate, set[tuple[str, ...]]] = {}
    for a in background:
        facts.setdefault(a.predicate, set()).add(tuple(t.label for t in a.args))
    delta = facts
    for _ in range(program.forward_steps):
        derived: dict[Predicate, set[tuple[str, ...]]] = {}
        for p, new in delta.items():
            for join in program.plan.get(p, ()):
                join(new, facts, derived)
        delta = {p: new for p, ts in derived.items() if (new := ts.difference(facts.get(p, ())))}
        if not delta:
            break
        for p, new in delta.items():
            facts.setdefault(p, set()).update(new)
    return frozenset(
        Atom(p, tuple(map(Term.const, t))) for p in program.targets for t in facts.get(p, ())
    )


# ---------------------------------------------------------------------------
# Program file: "prob clause" lines under section headers.

def program_to_text(program: PolicyProgram) -> str:
    lines = [
        "# policy program",
        f"forward_steps: {program.forward_steps}",
        "targets: " + " ".join(f"{p.name}/{p.arity}" for p in program.targets),
    ]
    sections = (("rules", program.rules), ("background", [(c, 1.0) for c in program.background]))
    for name, entries in sections:
        if entries or name == "rules":  # only [rules] is written when empty
            lines.append(f"[{name}]")
            lines.extend(f"{prob:.6f} {format_clause(c)}" for c, prob in entries)
    return "\n".join(lines) + "\n"


def _at_line(parse: Callable, what: str, n: int, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"line {n}: {what}: {exc}") from exc


def _targets(text: str) -> tuple[Predicate, ...]:
    return tuple(map(parse_predicate, text.split()))


def _forward_steps(text: str) -> int:
    steps = parse_digits(text)
    if steps < 1:
        raise ValueError(f"{steps} is below 1")
    return steps


def program_from_text(text: str) -> PolicyProgram:
    """The program a file's text holds; a ``ValueError`` names the line it fails on."""
    headers: dict[str, tuple[int, str]] = {}
    section = None
    sections: dict[str, list] = {"rules": [], "background": []}
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(("forward_steps:", "targets:")):
            name, _, value = line.partition(":")
            headers[name] = n, value.strip()
        elif line.startswith("["):
            section = line[1:-1]
            if not line.endswith("]") or section not in sections:
                raise ValueError(f"line {n}: unknown section {line!r}")
        elif section is None:
            raise ValueError(f"line {n}: clause outside a section: {line!r}")
        else:
            prob_text, _, clause_text = line.partition(" ")
            sections[section].append((_at_line(parse_clause, "clause", n, clause_text),
                                      _at_line(float, "probability", n, prob_text)))
    for name in ("forward_steps", "targets"):
        if not headers.get(name, (0, ""))[1]:
            raise ValueError(f"program has a missing or empty '{name}:' header")
    return PolicyProgram(
        rules=tuple(sections["rules"]),
        background=tuple(c for c, _ in sections["background"]),
        targets=_at_line(_targets, "targets", *headers["targets"]),
        forward_steps=_at_line(_forward_steps, "forward_steps", *headers["forward_steps"]),
    )


def save_program(program: PolicyProgram, path) -> None:
    with open(path, "w") as f:
        f.write(program_to_text(program))


def load_program(path) -> PolicyProgram:
    with open(path) as f:
        text = f.read()
    try:
        return program_from_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
