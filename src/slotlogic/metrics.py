"""Turn-level F1 over predicted vs. gold dialog acts.

Counts are micro-averaged multiset matches across turns. Intent F1
compares intents alone, entity F1 the slot names alone, action F1 the
full (intent, slot) pairs. F1 of zero counts everywhere is defined as 1
(a no-action turn predicted as no action is correct, not undefined).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

ActPair = tuple[str, str | None]


@dataclass(frozen=True)
class F1Score:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 1.0

    @property
    def f1(self) -> float:
        if self.tp + self.fp + self.fn == 0:
            return 1.0
        return 2 * self.tp / (2 * self.tp + self.fp + self.fn)

    def standard_error(self, n: int) -> float:
        if n <= 0:
            return 0.0
        x = self.f1
        return math.sqrt(x * (1.0 - x) / n)

    def __add__(self, other: "F1Score") -> "F1Score":
        return F1Score(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def _tp(pred: list, gold: list) -> int:
    """Multiset matches: each key counts min(its pred count, its gold count)."""
    if not pred or not gold:
        return 0
    left = Counter(gold)
    tp = 0
    for k in pred:
        if left[k]:
            left[k] -= 1
            tp += 1
    return tp


def _add_turn(totals: list[int], pred: Sequence[ActPair], gold: Sequence[ActPair]) -> None:
    """Add one turn's intent, entity and action (tp, fp, fn) to ``totals``.

    Intents and slots that are None carry no key."""
    for n, (p, g) in enumerate((
        ([a[0] for a in pred if a[0] is not None], [a[0] for a in gold if a[0] is not None]),
        ([a[1] for a in pred if a[1] is not None], [a[1] for a in gold if a[1] is not None]),
        ([(a[0], a[1]) for a in pred], [(a[0], a[1]) for a in gold]),
    )):
        tp = _tp(p, g)
        totals[3 * n] += tp
        totals[3 * n + 1] += len(p) - tp
        totals[3 * n + 2] += len(g) - tp


@dataclass
class MetricsReport:
    intent: F1Score
    entity: F1Score
    action: F1Score
    n_turns: int
    per_domain: dict[str, dict[str, F1Score]] = field(default_factory=dict)
    domain_turns: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        def block(score: F1Score, n: int) -> dict:
            return {
                "f1": score.f1,
                "precision": score.precision,
                "recall": score.recall,
                "tp": score.tp,
                "fp": score.fp,
                "fn": score.fn,
                "standard_error": score.standard_error(n),
            }

        return {
            "n_turns": self.n_turns,
            "intent_f1": block(self.intent, self.n_turns),
            "entity_f1": block(self.entity, self.n_turns),
            "action_f1": block(self.action, self.n_turns),
            "per_domain": {
                dom: {
                    name: block(score, self.domain_turns.get(dom, 0))
                    for name, score in scores.items()
                }
                for dom, scores in self.per_domain.items()
            },
        }

    def summary(self) -> str:
        lines = [
            f"turns evaluated: {self.n_turns}",
            f"intent F1: {self.intent.f1:.4f} "
            f"(+/- {self.intent.standard_error(self.n_turns):.4f})",
            f"entity F1: {self.entity.f1:.4f} "
            f"(+/- {self.entity.standard_error(self.n_turns):.4f})",
            f"action F1: {self.action.f1:.4f} "
            f"(+/- {self.action.standard_error(self.n_turns):.4f})",
        ]
        for dom in sorted(self.per_domain):
            scores = self.per_domain[dom]
            lines.append(
                f"  {dom}: intent {scores['intent'].f1:.4f} "
                f"entity {scores['entity'].f1:.4f} "
                f"action {scores['action'].f1:.4f}"
            )
        return "\n".join(lines)


def evaluate_turns(
    turns: Sequence[tuple[Sequence[ActPair], Sequence[ActPair]]],
    domains: Sequence[str] | None = None,
) -> MetricsReport:
    """Score all turns and, when domains are given, per-domain slices.

    One pass counts each turn into its domain's totals; the overall
    scores are the sum of the domain totals (integer counts, so exact)."""
    if domains is not None and len(domains) != len(turns):
        raise ValueError("one domain label per turn required")
    totals: dict[str | None, list[int]] = {}
    sizes: Counter = Counter()
    for (pred, gold), dom in zip(turns, [None] * len(turns) if domains is None else domains):
        t = totals.get(dom)
        if t is None:
            t = totals[dom] = [0] * 9
        _add_turn(t, pred, gold)
        sizes[dom] += 1
    overall = [sum(t[k] for t in totals.values()) for k in range(9)]
    report = MetricsReport(*_scores(overall), n_turns=len(turns))
    if domains is not None:
        for dom in sorted(totals):
            report.per_domain[dom] = dict(zip(("intent", "entity", "action"), _scores(totals[dom])))
            report.domain_turns[dom] = sizes[dom]
    return report


def _scores(t: list[int]) -> tuple[F1Score, F1Score, F1Score]:
    """Intent, entity and action scores of nine totals."""
    return F1Score(*t[0:3]), F1Score(*t[3:6]), F1Score(*t[6:9])
