"""Symbolic program extraction and crisp (boolean) rule application.

The extracted program is what ships: a small set of clauses with their
learned probabilities. Applying it to a new constant set needs no
weights and no gradients, which is what makes cross-domain transfer a
matter of re-grounding; this module loads neither numpy nor the engine.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .logic import (
    Atom, Clause, Predicate, Term, format_clause, parse_clause, parse_digits, parse_predicate,
)

if TYPE_CHECKING:
    from .engine import TrainedModel


@dataclass(frozen=True)
class PolicyProgram:
    """Argmax rules with their probabilities, and fixed background."""

    rules: tuple[tuple[Clause, float], ...]
    background: tuple[Clause, ...]
    targets: tuple[Predicate, ...]
    forward_steps: int
    # What crisp_infer runs, over relations addressed by predicate number.
    plan: "_Plan" = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        clauses = [c for c, _ in self.rules] + list(self.background)
        object.__setattr__(self, "plan", _Plan(clauses, self.targets))


def extract_program(trained: TrainedModel) -> PolicyProgram:
    """Per slot, the argmax clause; ties go to the first clause in pool order."""
    compiler = trained.compiler
    rules: list[tuple[Clause, float]] = []
    for (_, clauses), probs in zip(compiler.pools, trained.probabilities()):
        if not clauses:
            continue
        best = max(range(len(probs)), key=probs.__getitem__)
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


class _Plan:
    """A program compiled for crisp chaining. Every predicate that a clause
    or target names gets a number, and facts are one set of constant tuples
    per number. ``joins[n]`` are the joins a new fact of relation ``n``
    drives. ``indexes`` gives each hash index a slot by its (relation, key
    positions), and ``indexed[n]`` lists the (slot, key getter) of each
    index over relation ``n``."""

    def __init__(self, clauses: Sequence[Clause], targets: Sequence[Predicate]):
        self.numbers: dict[tuple[str, int], int] = {}
        for p in [a.predicate for c in clauses for a in (c.head, *c.body)] + list(targets):
            self.numbers.setdefault((p.name, p.arity), len(self.numbers))
        self.targets = [(p, self.numbers[p.name, p.arity]) for p in targets]
        self.indexes: dict[tuple[int, tuple[int, ...]], int] = {}
        self.joins = [[] for _ in self.numbers]
        for c in clauses:
            for outer, inner in dict.fromkeys((c.body, c.body[::-1])):  # once if equal
                self.joins[self._number(outer)].append(self._join(c.head, outer, inner))
        self.indexed = [[(i, _getter(at)) for (m, at), i in self.indexes.items() if m == n]
                        for n in range(len(self.numbers))]

    def _number(self, a: Atom) -> int:
        return self.numbers[a.predicate.name, a.predicate.arity]

    def _join(self, head: Atom, outer: Atom, inner: Atom) -> Callable:
        """A clause as a join of new ``outer`` facts with all ``inner``
        facts. Over ``u = outer + inner + constants``, a pair whose repeated
        variables and constants agree (``same(u) == to(u)``) derives the
        head ``pick(u)``. The inner facts a new fact meets are those whose
        shared variables agree with it: the relation's own set when the
        shared variables fill the inner atom in order, else a hash index
        keyed by their first inner positions (with no shared variable, one
        key holds every fact). The key's own checks are dropped."""
        terms = (*outer.args, *inner.args, *head.args)
        n_outer, n_body = len(outer.args), len(outer.args) + len(inner.args)
        consts = tuple(t.label for t in terms if not t.is_variable)
        const_at, first = iter(range(n_body, n_body + len(consts))), {}
        at = [first.setdefault(t, i) if t.is_variable else next(const_at)
              for i, t in enumerate(terms)]
        keyed = {}  # per shared variable, its first outer position -> its first inner one
        for i in range(n_outer, n_body):
            if at[i] < n_outer:
                keyed.setdefault(at[i], i)
        checks = [(i, j) for i, j in enumerate(at[:n_body]) if i != j and keyed.get(j) != i]
        same, to = _getter([i for i, _ in checks]), _getter([j for _, j in checks])
        check = bool(checks)
        key, positions = _getter(list(keyed)), tuple(i - n_outer for i in keyed.values())
        pick, out_n, inner_n = _getter(at[n_body:]), self._number(head), self._number(inner)

        if positions and positions == tuple(range(inner.predicate.arity)):
            def run(new, facts, index, derived):
                out, rel = derived.setdefault(out_n, set()), facts[inner_n]
                for t1 in new:
                    if (t2 := key(t1)) in rel:
                        u = t1 + t2 + consts
                        if not check or same(u) == to(u):
                            out.add(pick(u))
            return run

        slot = self.indexes.setdefault((inner_n, positions), len(self.indexes))

        def run(new, facts, index, derived):
            out, probe = derived.setdefault(out_n, set()), index[slot].get
            for t1 in new:
                for t2 in probe(key(t1), ()):
                    u = t1 + t2 + consts
                    if not check or same(u) == to(u):
                        out.add(pick(u))
        return run


def crisp_infer(program: PolicyProgram, background: Iterable[Atom]) -> frozenset[Atom]:
    """Boolean forward chaining of argmax rules plus background clauses,
    to fixpoint or ``forward_steps`` rounds; returns target-predicate atoms.
    Semi-naive: a round joins only body pairs that use a fact new in the
    last round (at first, the background), so it derives what a naive
    round derives. A background atom whose predicate the program never
    names can take part in no join, and is dropped."""
    plan = program.plan
    numbers, joins, indexed = plan.numbers, plan.joins, plan.indexed
    facts: list[set[tuple[str, ...]]] = [set() for _ in joins]
    for a in background:
        p = a.predicate
        n = numbers.get((p.name, p.arity))
        if n is not None:
            facts[n].add(tuple([t.label for t in a.args]))
    index = [defaultdict(list) for _ in plan.indexes]
    delta = [(n, ts) for n, ts in enumerate(facts) if ts]
    for _ in range(program.forward_steps):
        for n, new in delta:  # the indexes take the last round's facts
            for i, key in indexed[n]:
                idx = index[i]
                for t in new:
                    idx[key(t)].append(t)
        derived: dict[int, set[tuple[str, ...]]] = {}
        for n, new in delta:
            for join in joins[n]:
                join(new, facts, index, derived)
        delta = [(n, new) for n, ts in derived.items() if (new := ts - facts[n])]
        if not delta:
            break
        for n, new in delta:
            facts[n] |= new
    return frozenset(Atom(p, tuple(map(Term.const, t))) for p, n in plan.targets for t in facts[n])


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


def _probability(text: str) -> float:
    prob = float(text)
    if "_" in text or not 0.0 <= prob <= 1.0:  # also NaN, which compares false
        raise ValueError(f"{text!r} is not a number in [0, 1]")
    return prob


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
            if name in headers:
                raise ValueError(f"line {n}: repeated '{name}:' header "
                                 f"(first on line {headers[name][0]})")
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
                                      _at_line(_probability, "probability", n, prob_text)))
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
