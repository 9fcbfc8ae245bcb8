"""First-order language core: terms, atoms, clauses, grounding and samples.

Clauses are restricted to a fixed body width of two atoms (single-atom
bodies are stored as a duplicated pair) and at most three distinct
variables, which bounds grounding cost while covering every rule shape
the engine learns.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

MAX_ARITY = 3
MAX_CLAUSE_VARS = 3
BODY_WIDTH = 2

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")
_VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*")

# Predicate name of the reserved always-false atom at index 0.
FALSE_NAME = "false"


class ParseError(ValueError):
    """Malformed atom or clause text; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnsafeClauseError(ValueError):
    """A head variable does not occur in the clause body."""


# Predicates, terms and atoms are hash-consed: each computes its hash once,
# the same ``hash`` of its field tuple a plain frozen dataclass would give,
# and ``Term.const`` and ``atom`` hand out shared objects from bounded caches
# (labels come from input files, so an unbounded cache would grow with them).
# A pickle rebuilds each through its constructor, since string hashes differ
# between processes.

@dataclass(frozen=True, order=True, slots=True)
class Predicate:
    name: str
    arity: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name):
            raise ValueError(f"bad predicate name {self.name!r}")
        if type(self.arity) is not int or not 0 <= self.arity <= MAX_ARITY:
            raise ValueError(f"arity {self.arity!r} is not an integer in 0..{MAX_ARITY}")
        object.__setattr__(self, "_hash", hash((self.name, self.arity)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Predicate, (self.name, self.arity)

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, order=True, slots=True)
class Term:
    label: str
    is_variable: bool
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.label, self.is_variable)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Term, (self.label, self.is_variable)

    @staticmethod
    def var(label: str) -> "Term":
        return Term(label, True)

    @staticmethod
    @functools.lru_cache(maxsize=1024)
    def const(label: str) -> "Term":
        return Term(label, False)

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True, order=True, slots=True)
class Atom:
    predicate: Predicate
    args: tuple[Term, ...]
    _hash: int = field(init=False, repr=False, compare=False)
    # The atom's text, ``pred(a1, a2)``: what format_atom returns.
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.args) != self.predicate.arity:
            raise ValueError(
                f"{self.predicate} applied to {len(self.args)} args"
            )
        object.__setattr__(self, "_hash", hash((self.predicate, self.args)))
        object.__setattr__(
            self, "text", f"{self.predicate.name}({', '.join(t.label for t in self.args)})"
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Atom, (self.predicate, self.args)

    @property
    def is_ground(self) -> bool:
        return not any(t.is_variable for t in self.args)

    def variables(self) -> tuple[Term, ...]:
        seen: list[Term] = []
        for t in self.args:
            if t.is_variable and t not in seen:
                seen.append(t)
        return tuple(seen)

    def substitute(self, binding: Mapping[Term, Term]) -> "Atom":
        return Atom(
            self.predicate,
            tuple(binding.get(t, t) for t in self.args),
        )

    def __str__(self) -> str:
        return self.text


def is_constant_name(text: str) -> bool:
    """Whether ``text`` is a constant (or predicate) name."""
    return _NAME_RE.fullmatch(text) is not None


def parse_digits(text: str) -> int:
    """A count written in ASCII digits only: no sign, space or underscore."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"invalid literal {text!r}: a count is written in ASCII digits only")
    return int(text)


def parse_predicate(text: str) -> Predicate:
    """A predicate written ``name/arity``, its arity in ASCII digits."""
    name, _, arity = text.partition("/")
    return Predicate(name, parse_digits(arity))


@functools.lru_cache(maxsize=4096)
def atom(name: str, *args: str) -> Atom:
    """Build a ground/variable atom from bare labels (uppercase = variable)."""
    terms = tuple(
        Term.var(a) if a[0].isupper() else Term.const(a) for a in args
    )
    return Atom(Predicate(name, len(terms)), terms)


@dataclass(frozen=True, order=True)
class Clause:
    """A rule ``head <- body[0], body[1]`` in canonical form.

    Canonical means: variables renamed to V0, V1, ... by first occurrence,
    body pair ordered so the serialized clause is minimal. Build through
    :meth:`make` (or :func:`parse_clause`, or
    ``templates.generate_clauses``, which canonicalizes integer patterns
    the same way), never directly, so equality and hashing see one
    representative per equivalence class.
    """

    head: Atom
    body: tuple[Atom, ...]

    @staticmethod
    def make(head: Atom, body: Sequence[Atom]) -> "Clause":
        body = list(body)
        if len(body) == 1:
            body = [body[0], body[0]]
        if len(body) != BODY_WIDTH:
            raise ValueError(f"body must have 1 or {BODY_WIDTH} atoms")
        body_vars = {t for a in body for t in a.variables()}
        missing = [t for t in head.variables() if t not in body_vars]
        if missing:
            raise UnsafeClauseError(
                f"head variable {missing[0]} unbound in body of "
                f"{format_atom(head)} <- "
                + ", ".join(format_atom(a) for a in body)
            )
        n_vars = len({t for t in body_vars | set(head.variables())})
        if n_vars > MAX_CLAUSE_VARS:
            raise ValueError(f"clause uses {n_vars} variables (max {MAX_CLAUSE_VARS})")
        return _canonicalize(head, body)

    def variables(self) -> tuple[Term, ...]:
        seen: list[Term] = []
        for a in (self.head, *self.body):
            for t in a.variables():
                if t not in seen:
                    seen.append(t)
        return tuple(seen)

    def __str__(self) -> str:
        return format_clause(self)


def _rename_pass(head: Atom, body: Sequence[Atom]) -> tuple[Atom, tuple[Atom, ...]]:
    mapping: dict[Term, Term] = {}
    for a in (head, *body):
        for t in a.args:
            if t.is_variable and t not in mapping:
                mapping[t] = Term.var(f"V{len(mapping)}")
    return head.substitute(mapping), tuple(a.substitute(mapping) for a in body)


def _canonicalize(head: Atom, body: Sequence[Atom]) -> Clause:
    orders = [(body[0], body[1])]
    if body[0] != body[1]:
        orders.append((body[1], body[0]))
    best: Clause | None = None
    best_key = None
    for ordered in orders:
        h, b = _rename_pass(head, ordered)
        cand = object.__new__(Clause)
        object.__setattr__(cand, "head", h)
        object.__setattr__(cand, "body", b)
        key = _serialize(h, b)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    assert best is not None
    return best


def _serialize(head: Atom, body: Sequence[Atom]) -> str:
    return format_atom(head) + " <- " + ", ".join(format_atom(a) for a in body)


# ---------------------------------------------------------------------------
# Textual syntax: pred(c1, c2); clauses "head <- b1, b2"; uppercase = variable.

def format_atom(a: Atom) -> str:
    return a.text


def format_clause(c: Clause) -> str:
    body = list(c.body)
    if len(body) == 2 and body[0] == body[1]:
        body = body[:1]
    return f"{format_atom(c.head)} <- " + ", ".join(format_atom(a) for a in body)


class _Scanner:
    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def name(self) -> str:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("expected lowercase identifier", self.pos)
        self.pos = m.end()
        return m.group()

    def term(self) -> Term:
        self.skip_ws()
        m = _VAR_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Term.var(m.group())
        m = _NAME_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Term.const(m.group())
        raise ParseError("expected term", self.pos)

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_atom(sc: _Scanner) -> Atom:
    name = sc.name()
    sc.expect("(")
    args: list[Term] = []
    if sc.peek() != ")":
        args.append(sc.term())
        while sc.peek() == ",":
            sc.expect(",")
            args.append(sc.term())
    sc.expect(")")
    return Atom(Predicate(name, len(args)), tuple(args))


def parse_atom(text: str) -> Atom:
    """Parse ``pred(t1, ..., tn)``; round-trips with :func:`format_atom`."""
    if not text.strip():
        raise ParseError("empty atom", 0)
    sc = _Scanner(text)
    a = _parse_atom(sc)
    if not sc.at_end():
        raise ParseError("trailing input", sc.pos)
    return a


def parse_clause(text: str) -> Clause:
    """Parse ``head <- body1[, body2]`` into a canonical :class:`Clause`."""
    if "<-" not in text:
        raise ParseError("missing '<-' separator", len(text))
    head_text = text.partition("<-")[0]
    sc = _Scanner(head_text)
    head = _parse_atom(sc)
    if not sc.at_end():
        raise ParseError("trailing input after head", sc.pos)
    sc = _Scanner(text, len(head_text) + 2)
    body = [_parse_atom(sc)]
    while sc.peek() == ",":
        sc.expect(",")
        body.append(_parse_atom(sc))
    if not sc.at_end():
        raise ParseError("trailing input", sc.pos)
    if len(body) > BODY_WIDTH:
        raise ValueError(f"body has {len(body)} atoms (max {BODY_WIDTH})")
    return Clause.make(head, body)


# ---------------------------------------------------------------------------
# Language frames and grounding.

@dataclass(frozen=True)
class LanguageFrame:
    """Declares which predicates are learnable targets vs. given facts."""

    targets: tuple[Predicate, ...]
    extensional: tuple[Predicate, ...]

    def __post_init__(self):
        overlap = set(self.targets) & set(self.extensional)
        if overlap:
            raise ValueError(f"targets and extensional overlap: {overlap}")
        names = [str(p) for p in (*self.targets, *self.extensional)]
        if len(names) != len(set(names)):
            raise ValueError("duplicate predicate declaration")


@dataclass(frozen=True)
class Sample:
    """One training instance: facts, labeled target atoms, own constants."""

    background: tuple[Atom, ...]
    positive: tuple[Atom, ...]
    negative: tuple[Atom, ...]
    constants: tuple[str, ...]

    @staticmethod
    def make(
        background: Iterable[Atom],
        positive: Iterable[Atom],
        negative: Iterable[Atom],
        constants: Sequence[str],
    ) -> "Sample":
        pos_set, neg_set = set(positive), set(negative)
        both = pos_set & neg_set
        if both:
            raise ValueError("atoms both positive and negative: "
                             + ", ".join(sorted(map(format_atom, both))))
        bg = tuple(sorted(set(background), key=format_atom))
        pos = tuple(sorted(pos_set, key=format_atom))
        neg = tuple(sorted(neg_set, key=format_atom))
        consts = set(constants)
        for a in bg + pos + neg:
            for t in a.args:
                if t.is_variable or t.label not in consts:
                    if not a.is_ground:
                        raise ValueError(f"non-ground atom {format_atom(a)} in sample")
                    raise ValueError(
                        f"{format_atom(a)} uses constant {t.label!r} "
                        "outside the sample's constant list"
                    )
        return Sample(bg, pos, neg, tuple(constants))


@dataclass(frozen=True)
class GroundIndex:
    """Dense index over every grounding of a predicate set.

    Index 0 is a reserved always-false atom; real atoms occupy 1..g-1 in
    declaration order of predicates, argument tuples enumerated in the
    order of ``constants``.
    """

    constants: tuple[str, ...]
    predicates: tuple[Predicate, ...]
    atoms: tuple[Atom, ...]
    lookup: Mapping[Atom, int]
    ranges: Mapping[Predicate, tuple[int, int]]

    def __len__(self) -> int:
        return len(self.atoms)

    def index_of(self, a: Atom) -> int:
        try:
            return self.lookup[a]
        except KeyError:
            raise KeyError(f"atom {format_atom(a)} not in ground index") from None


def ground_atoms(predicates: Sequence[Predicate], constants: Sequence[str]) -> list[Atom]:
    """Every ground atom of ``predicates`` over ``constants``: predicate by
    predicate, argument tuples in ``itertools.product`` order."""
    terms = tuple(map(Term.const, constants))
    return [Atom(p, args) for p in predicates for args in itertools.product(terms, repeat=p.arity)]


def build_ground_index(
    predicates: Sequence[Predicate], constants: Sequence[str]
) -> GroundIndex:
    """Enumerate all ground atoms of the given predicates over ``constants``."""
    predicates = tuple(predicates)
    if not constants:
        raise ValueError("constant list is empty")
    if len(set(constants)) != len(constants):
        raise ValueError("duplicate constants")
    for p in predicates:
        if p.name == FALSE_NAME:
            raise ValueError(f"predicate name {FALSE_NAME!r} is reserved")
    consts = tuple(constants)
    sentinel = Atom(Predicate(FALSE_NAME, 0), ())
    atoms: list[Atom] = [sentinel]
    ranges: dict[Predicate, tuple[int, int]] = {}
    for p in predicates:
        start = len(atoms)
        atoms.extend(ground_atoms((p,), consts))
        ranges[p] = (start, len(atoms))
    lookup = {a: i for i, a in enumerate(atoms) if i > 0}
    return GroundIndex(consts, predicates, tuple(atoms), lookup, ranges)
