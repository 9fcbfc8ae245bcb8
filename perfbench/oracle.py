"""Reference predictions the benchmark checks the program's output against.

This is a separate, plain implementation of what ``slotlogic transfer``
computes for one sample record: parse the program text, chain its rules
and background clauses over the record's background atoms for at most
``forward_steps`` rounds (stopping at a fixpoint), keep the target
atoms, and decode system acts. It shares no code with the package, so a
faster inference path in the package is still checked against it.
Results are memoized by background, since derivations depend on nothing
else.
"""

from __future__ import annotations

import json
import re

_ATOM = re.compile(r"([a-z][a-z0-9_]*)\(([^()]*)\)")
_ACT_OF = {
    "sys_request": "request",
    "sys_inform": "inform",
    "sys_query": "query",
    "nooffer": "nooffer",
    "offerbooked": "offerbooked",
}
_STRUCTURAL = ("term", "usr_slot")
MEMO_LIMIT = 4096  # keeps memory flat over a long run


def _parse_atom(text: str) -> tuple:
    m = _ATOM.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"bad atom {text!r}")
    args = tuple(a.strip() for a in m.group(2).split(",")) if m.group(2).strip() else ()
    return (m.group(1), *args)


class ReferenceProgram:
    def __init__(self, text: str):
        self.clauses: list[tuple[tuple, tuple, tuple]] = []
        self.targets: set[tuple[str, int]] = set()
        self.forward_steps = None
        section = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("forward_steps:"):
                self.forward_steps = int(line.split(":", 1)[1])
            elif line.startswith("targets:"):
                for tok in line.split(":", 1)[1].split():
                    name, arity = tok.split("/")
                    self.targets.add((name, int(arity)))
            elif line.startswith("["):
                section = line.strip("[]")
            elif section in ("rules", "background"):
                head, body = line.split(" ", 1)[1].split(" <- ")
                atoms = _ATOM.findall(body)
                b = [_parse_atom(f"{n}({a})") for n, a in atoms]
                if len(b) == 1:
                    b = b * 2
                self.clauses.append((_parse_atom(head), b[0], b[1]))
        if self.forward_steps is None or not self.targets:
            raise ValueError("program text lacks forward_steps or targets")
        self._memo: dict[frozenset, tuple[str, ...]] = {}

    def derive(self, background: list[str]) -> tuple[str, ...]:
        """Target atoms (as text, sorted) derivable from ``background``."""
        key = frozenset(background)
        if key not in self._memo:
            if len(self._memo) >= MEMO_LIMIT:
                self._memo.clear()
            self._memo[key] = self._derive(key)
        return self._memo[key]

    def _derive(self, background: frozenset) -> tuple[str, ...]:
        facts = {_parse_atom(t) for t in background}
        for _ in range(self.forward_steps):
            new = set()
            for head, b1, b2 in self.clauses:
                for env in _solve(b1, facts, {}):
                    for env2 in _solve(b2, facts, env):
                        new.add((head[0], *(env2[v] if v[0].isupper() else v for v in head[1:])))
            new -= facts
            if not new:
                break
            facts |= new
        out = [f for f in facts if (f[0], len(f) - 1) in self.targets]
        return tuple(sorted(f"{f[0]}({', '.join(f[1:])})" for f in out))


def _solve(pattern: tuple, facts: set, env: dict):
    for fact in facts:
        if fact[0] != pattern[0] or len(fact) != len(pattern):
            continue
        out = dict(env)
        for p, c in zip(pattern[1:], fact[1:]):
            if p[0].isupper():
                if out.setdefault(p, c) != c:
                    break
            elif p != c:
                break
        else:
            yield out


def predict_line(program: ReferenceProgram, record: dict) -> str:
    """The prediction file line ``slotlogic transfer`` writes for ``record``."""
    meta = record.get("meta", {})
    slots = meta.get("slots")
    atoms = program.derive(record["background"])
    acts, rejected = set(), []
    for text in atoms:
        name, *args = _parse_atom(text)
        intent = _ACT_OF.get(name)
        slot = args[0] if args else None
        if intent is None or (
            slot is not None and (slot in _STRUCTURAL or (slots is not None and slot not in slots))
        ):
            rejected.append(text)
        else:
            acts.add((intent, slot))
    pred = {
        "meta": meta,
        "atoms": list(atoms),
        "acts": [[i, s] for i, s in sorted(acts, key=lambda x: (x[0], x[1] or ""))],
        "rejected": rejected,
    }
    return json.dumps(pred, sort_keys=True) + "\n"


def action_counts(pred_acts, gold_acts) -> tuple[int, int, int]:
    """(tp, fp, fn) of one turn's (intent, slot) acts, as multisets."""
    left = [tuple(a) for a in gold_acts]
    tp = 0
    for a in pred_acts:
        if tuple(a) in left:
            left.remove(tuple(a))
            tp += 1
    return tp, len(pred_acts) - tp, len(left)
