"""Pre-learned clause sets reusable as fixed background knowledge.

Lists are encoded as successor chains: ``succ(a, b)`` links node ``a`` to
``b`` and ``terminal(t)`` marks the end marker. ``all`` holds for a node
when the tracked property (``true``) holds from that node through to the
terminal; ``member`` relates an element to the chain head it hangs off,
excluding the terminal marker.
"""

from __future__ import annotations

from typing import Sequence

from .logic import Atom, Clause, Predicate, parse_clause

_ALL = tuple(
    parse_clause(t)
    for t in (
        "pred1(V0, V1) <- succ(V0, V1), all(V1)",
        "pred1(V0, V1) <- succ(V0, V1), terminal(V1)",
        "all(V0) <- true(V0), pred1(V0, V1)",
    )
)

# The element-of relation walks the chain below its head node; requiring a
# successor on the element keeps the terminal marker out.
_MEMBER = tuple(
    parse_clause(t)
    for t in (
        "member(V0, V1) <- succ(V1, V0), succ(V0, V2)",
        "member(V0, V1) <- succ(V1, V2), member(V0, V2)",
        "member_usr(V0) <- usr_slots(V1), member(V0, V1)",
    )
)

_LIBRARY = {"all": _ALL, "member": _MEMBER}


def background_library(name: str) -> tuple[Clause, ...]:
    """Frozen clause set by name; raises on unknown names."""
    try:
        return _LIBRARY[name]
    except KeyError:
        raise ValueError(
            f"unknown background library {name!r}; available: "
            + ", ".join(sorted(_LIBRARY))
        ) from None


def rename_predicate(
    clauses: Sequence[Clause], old: str, new: str
) -> tuple[Clause, ...]:
    """Rename a predicate throughout a clause set (arity preserved)."""

    def fix(a: Atom) -> Atom:
        if a.predicate.name != old:
            return a
        return Atom(Predicate(new, a.predicate.arity), a.args)

    return tuple(
        Clause.make(fix(c.head), [fix(b) for b in c.body]) for c in clauses
    )
