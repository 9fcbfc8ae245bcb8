"""Independent reference implementations the tests check the engine against.

Everything here is written the dumb way on purpose: naive substitution
enumeration, explicit list walks, brute-force pair counting. None of it
shares code with the package's inference paths. ``join_fixpoint`` is the
one concession to speed: still naive (every round re-derives from all
facts), but it matches body atoms against facts instead of trying every
substitution, for tests that chain over hundreds of turns.
``reference_evaluate_turns`` is the six-pass scorer that
``metrics.evaluate_turns`` replaced, on the package's score types but
with its own multiset counts.

The last two sections are not independent. ``generate_clauses`` (an
``Atom`` and a ``Clause.make`` per candidate body pair),
``ground_clause`` (one clause at a time) and
``reference_loss``/``reference_loss_and_grad``/``reference_valuations``
(the engine's chaining over whole valuations of the whole table, every
atom stepped and every gradient cell scattered) are the code the clause
generator, the engine's grounding and its pruned head-only kernel
replaced, kept as references they must equal bit for bit.
``reference_fixed_valuations`` and ``reference_live_segments`` (the
background chained numerically under an amalgamation, then the whole
table's liveness chained again on booleans) are the two passes the
engine's one boolean pass replaced.
``chain_step`` is one step of that reference from any valuation, for
tests that inspect single steps; ``start_valuation`` is where ``infer``
starts, and ``agreement`` compares the package's fuzzy and crisp
inference.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Sequence

import numpy as np

from slotlogic import (
    Atom,
    Clause,
    GroundIndex,
    Hyperparams,
    ModelCompiler,
    Predicate,
    RuleTemplate,
    Sample,
    Term,
    TrainedModel,
    crisp_infer,
    format_clause,
    infer,
)
from slotlogic.engine import (
    LOG_EPS,
    MAX_CLAUSE_VARS,
    CompiledModel,
    _amalgamate,
    _check_range,
    _out_cells,
    _penalty,
    _softmax_backward,
    _start_values,
    probabilities,
)
from slotlogic.extract import PolicyProgram
from slotlogic.logic import UnsafeClauseError
from slotlogic.metrics import F1Score, MetricsReport


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


def _reference_score(turns, key) -> F1Score:
    total = F1Score()
    for pred, gold in turns:
        total += F1Score(*multiset_counts_via_counter(
            [key(a) for a in pred if key(a) is not None],
            [key(a) for a in gold if key(a) is not None],
        ))
    return total


def reference_evaluate_turns(turns, domains=None) -> MetricsReport:
    """The scorer ``metrics.evaluate_turns`` replaced: intent, entity and
    action F1 over all turns, then again over each domain's slice."""
    scores = {
        "intent": lambda ts: _reference_score(ts, lambda a: a[0]),
        "entity": lambda ts: _reference_score(ts, lambda a: a[1]),
        "action": lambda ts: _reference_score(ts, lambda a: (a[0], a[1])),
    }
    report = MetricsReport(*(f(turns) for f in scores.values()), n_turns=len(turns))
    if domains is not None:
        if len(domains) != len(turns):
            raise ValueError("one domain label per turn required")
        for dom in sorted(set(domains)):
            subset = [t for t, d in zip(turns, domains) if d == dom]
            report.per_domain[dom] = {name: f(subset) for name, f in scores.items()}
            report.domain_turns[dom] = len(subset)
    return report


# ---------------------------------------------------------------------------
# The code the clause generator and the engine replaced: references they
# must equal bit for bit.

def generate_clauses(
    head: Predicate,
    template: RuleTemplate,
    extensional_pool: Sequence[Predicate],
    intensional_pool: Sequence[Predicate] = (),
) -> list[Clause]:
    """Every admissible two-atom-body clause for ``head``, an ``Atom`` and a
    ``Clause.make`` per body pair: the pool (extensional, then intensional
    if the template allows), atoms over the head variables plus
    ``template.extra_vars`` fresh ones, every pair of them but those
    holding the head atom, unsafe pairs skipped, sorted by clause text."""
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


def ground_clause(clause: Clause, index: GroundIndex) -> np.ndarray:
    """All groundings of ``clause`` as rows (head index, body index, body index).

    One row per substitution of the clause variables by constants from the
    index, enumerated like ``itertools.product`` with the first variable
    slowest. An atom's index is its predicate's start plus the mixed-radix
    number its argument constants spell in base ``len(constants)``. A
    clause naming a constant outside the index has no grounding; one
    naming a predicate outside it raises ``ValueError``.
    """
    variables = clause.variables()
    if len(variables) > MAX_CLAUSE_VARS:
        raise ValueError("too many clause variables")
    atoms = (clause.head, *clause.body)
    for a in atoms:
        if a.predicate not in index.ranges:
            raise ValueError(
                f"clause {format_clause(clause)} uses {a.predicate}, "
                "which is not in the ground index"
            )
    n = len(index.constants)
    combos = np.arange(n ** len(variables), dtype=np.int64)
    digit = {
        v: combos // n ** (len(variables) - 1 - i) % n for i, v in enumerate(variables)
    }
    position = {c: i for i, c in enumerate(index.constants)}
    rows = np.empty((combos.size, 3), dtype=np.int64)
    for col, a in enumerate(atoms):
        offset = np.zeros(combos.size, dtype=np.int64)
        for t in a.args:
            if not t.is_variable and t.label not in position:
                return rows[:0]
            offset = offset * n + (digit[t] if t.is_variable else position[t.label])
        rows[:, col] = index.ranges[a.predicate][0] + offset
    return rows


def _winning_cells(model: CompiledModel, winners, S: int):
    """The table's one-row segments, then the others, each group with the
    flat valuation cells (S, segments) of the two body atoms of each
    segment's winning row ``winners`` (S, segments)."""
    offset = len(model.index) * np.arange(S, dtype=np.int64)[:, None]
    table = model.table
    one = np.diff(table.starts, append=table.b1.size) == 1
    groups = []
    for segs in np.flatnonzero(one), np.flatnonzero(~one):
        won = winners[:, segs]
        groups.append((segs, table.b1.take(won) + offset, table.b2.take(won) + offset))
    return groups


def _segment_weights(model: CompiledModel, probs: np.ndarray) -> np.ndarray:
    """Each table segment's clause probability."""
    return probs[model.seg_weight]


def _reference_step(model: CompiledModel, seg_w, a, b_static, amalgamation: str):
    """One step over whole valuations (S, atoms) under ``amalgamation``;
    returns the new valuations and what the backward step needs."""
    S, g = a.shape
    V, winners = model.table.winners(a)
    n1, n2 = model.single_cols.size, model.pair_cols.size
    n_out = n1 + 2 * n2
    V *= seg_w
    flat_out = (model.seg_out + n_out * np.arange(S)[:, None]).ravel()
    out = np.bincount(flat_out, weights=V.ravel(), minlength=S * n_out).reshape(S, n_out)
    b = np.zeros((S, g))
    b[:, model.single_cols] = out[:, :n1]
    if n2:
        s0, s1 = out[:, n1 : n1 + n2], out[:, n1 + n2 :]
        b[:, model.pair_cols] = s0 + s1 - s0 * s1
    b[:, model.static.key] = b_static
    a_new, over_one = _amalgamate(amalgamation, a, b)
    a_new[:, 0] = 0.0
    return a_new, (a, winners, out, b, over_one)


def _reference_backward_step(model: CompiledModel, seg_w, trace, da_new, dclause, amalgamation: str):
    """Gradient w.r.t. the step's input valuations, every cell scattered;
    adds the step's d(loss)/d(clause probability) into ``dclause``, each
    clause's (sample, segment) cells sample after sample."""
    a, winners, out, b, over_one = trace
    S, g = a.shape
    da_new = np.where(over_one, 0.0, da_new)
    da_new[:, 0] = 0.0
    if amalgamation == "max":
        take_b = b > a
        db = np.where(take_b, da_new, 0.0)
        da = np.where(take_b, 0.0, da_new)
    else:
        db = da_new * (1.0 - a)
        da = da_new * (1.0 - b)
    n1, n2 = model.single_cols.size, model.pair_cols.size
    dout = np.empty((S, n1 + 2 * n2))
    dout[:, :n1] = db[:, model.single_cols]
    if n2:
        dy = db[:, model.pair_cols]
        dout[:, n1 : n1 + n2] = dy * (1.0 - out[:, n1 + n2 :])
        dout[:, n1 + n2 :] = dy * (1.0 - out[:, n1 : n1 + n2])
    dV = np.take(dout, model.seg_out, axis=1)
    terms = np.empty_like(dV)
    da = da.ravel()
    for segs, w1, w2 in _winning_cells(model, winners, S):
        x1, x2 = np.take(a, w1), np.take(a, w2)
        dv = dV[:, segs]
        terms[:, segs] = x1 * x2 * dv
        dv *= seg_w[segs]
        x1 *= dv
        x2 *= dv
        da += np.bincount(w1.ravel(), weights=x2.ravel(), minlength=S * g)
        da += np.bincount(w2.ravel(), weights=x1.ravel(), minlength=S * g)
    dclause += np.bincount(np.tile(model.seg_weight, S), weights=terms.ravel(),
                           minlength=dclause.size)
    return da.reshape(S, g)


def _reference_batches(compiler: ModelCompiler, samples: Sequence[Sample], amalgamation: str):
    """Per constant list: the full compiled model, start valuations, the
    background clauses' derivations per step under ``amalgamation``, and
    the labels."""
    groups: dict[tuple[str, ...], list[Sample]] = {}
    for s in samples:
        groups.setdefault(tuple(s.constants), []).append(s)
    for consts, group in groups.items():
        model = compiler.compile(consts)
        a0 = _start_values(model, group)
        a, cols = a0.copy(), model.static.key
        static_b = np.zeros((model.forward_steps, len(group), cols.size))
        for t in range(model.forward_steps):
            static_b[t] = model.static.values(a)
            a[:, cols] = _amalgamate(amalgamation, a[:, cols], static_b[t])[0]
        labels = [
            (si, model.index.index_of(x), positive,
             1.0 / ((len(s.positive) + len(s.negative)) * len(samples)))
            for si, s in enumerate(group)
            for positive, atoms in ((True, s.positive), (False, s.negative))
            for x in atoms
        ]
        yield model, a0, static_b, tuple(map(np.asarray, zip(*labels)))


def _reference_chain(model: CompiledModel, seg_w, a, static_b, amalgamation: str):
    """Every step from the valuations ``a``; returns the valuations after
    the last step and each step's trace, whose first entry is the step's
    input."""
    traces = []
    for b_static in static_b:
        a, trace = _reference_step(model, seg_w, a, b_static, amalgamation)
        traces.append(trace)
    return a, traces


def _reference_run(compiler, weights, samples, hp, grad: bool):
    probs = probabilities(weights, compiler.pool)
    dclause = np.zeros(probs.size)
    total = 0.0
    batches = _reference_batches(compiler, samples, hp.amalgamation)
    for model, a, static_b, (rows, cols, positive, scale) in batches:
        seg_w = _segment_weights(model, probs)
        a, traces = _reference_chain(model, seg_w, a, static_b, hp.amalgamation)
        x = np.clip(a[rows, cols], LOG_EPS, 1.0 - LOG_EPS)
        total += float(-(scale * np.where(positive, np.log(x), np.log1p(-x))).sum())
        if not grad:
            continue
        x = a[rows, cols]
        inside = (x > LOG_EPS) & (x < 1.0 - LOG_EPS)
        da = np.zeros_like(a)
        da[rows, cols] = np.where(
            inside,
            np.where(positive, -scale, scale) / np.clip(np.where(positive, x, 1.0 - x), LOG_EPS, None),
            0.0,
        )
        for trace in reversed(traces):
            da = _reference_backward_step(model, seg_w, trace, da, dclause, hp.amalgamation)
    penalty, dpenalty = _penalty(weights, hp)
    return total + penalty, _softmax_backward(probs, dclause, compiler.pool) + dpenalty


def reference_loss(
    compiler: ModelCompiler, weights: np.ndarray, samples: Sequence[Sample],
    hp: Hyperparams,
) -> float:
    """The engine's loss, chained over whole valuations of the full table."""
    return _reference_run(compiler, weights, samples, hp, grad=False)[0]


def reference_loss_and_grad(
    compiler: ModelCompiler, weights: np.ndarray, samples: Sequence[Sample],
    hp: Hyperparams,
) -> tuple[float, np.ndarray]:
    """The engine's loss and gradient, chained and back-propagated over
    whole valuations of the full table."""
    return _reference_run(compiler, weights, samples, hp, grad=True)


def reference_valuations(
    compiler: ModelCompiler, weights: np.ndarray, samples: Sequence[Sample],
    amalgamation: str,
) -> list[list[np.ndarray]]:
    """Per constant list, in order of first occurrence, the whole
    valuations (S, atoms) of its samples before each step, chained over
    the whole table under ``amalgamation``."""
    probs = probabilities(weights, compiler.pool)
    return [
        [trace[0] for trace in _reference_chain(
            model, _segment_weights(model, probs), a, sb, amalgamation)[1]]
        for model, a, sb, _ in _reference_batches(compiler, samples, amalgamation)
    ]


def reference_fixed_valuations(
    model: CompiledModel, a0: np.ndarray, amalgamation: str
) -> np.ndarray:
    """Valuations (n, S, atoms) of the atoms no weight reaches, before
    each step from ``a0`` on: the background clauses chained with the
    steps' ``amalgamation`` and cap, every other atom at its start value.
    Chaining stops at the background's fixpoint: entry ``min(t, n - 1)``
    holds the valuations before step ``t``, for every ``t`` up to
    ``model.forward_steps``. Checked for range and monotonicity."""
    out = [a0]
    cols = model.static.key
    for _ in range(model.forward_steps):
        old = out[-1][:, cols]
        new = _amalgamate(amalgamation, old, model.static.values(out[-1]))[0]
        if np.array_equal(new, old):
            break
        out.append(out[-1].copy())
        out[-1][:, cols] = new
    fixed = np.stack(out)
    _check_range(fixed[1:], fixed[:-1])
    return fixed


def reference_live_segments(model: CompiledModel, fixed: np.ndarray) -> np.ndarray:
    """Which table segments (S, segments) some weight can make non-zero in
    each sample, entering the last step: the chaining with every clause
    enabled on booleans, an atom no weight reaches taken from its fixed
    valuation ``fixed`` (:func:`reference_fixed_valuations`), two slots
    combined by OR; stops once reachability no longer changes and covers
    every fixed valuation still to come."""
    steps, S = model.forward_steps, fixed.shape[1]
    n1, n2 = model.single_cols.size, model.pair_cols.size
    flat_out = _out_cells(model, S)
    known = fixed > 0
    last = known[min(steps - 1, len(known) - 1)]
    reach = known[0]
    live = model.table.values(reach)
    for t in range(steps - 1):
        hit = np.zeros(S * (n1 + 2 * n2), dtype=bool)
        hit[flat_out[live.ravel()]] = True
        hit = hit.reshape(S, -1)
        b = known[min(t + 1, len(known) - 1)] | reach
        b[:, model.single_cols] |= hit[:, :n1]
        b[:, model.pair_cols] |= hit[:, n1 : n1 + n2] | hit[:, n1 + n2 :]
        if np.array_equal(b, reach) and not (last & ~b).any():
            break
        reach = b
        live = model.table.values(reach)
    return live


# ---------------------------------------------------------------------------
# Single reference steps, and fuzzy-crisp agreement.

def start_valuation(model: CompiledModel, sample: Sample) -> np.ndarray:
    """The valuation ``infer`` starts from: background atoms 1, others 0."""
    return _start_values(model, [sample])[0]


def chain_step(
    model: CompiledModel, weights: np.ndarray, values: np.ndarray, amalgamation: str
) -> np.ndarray:
    """One reference deduction step from the valuation ``values`` under
    ``amalgamation``, the background clauses' step derived from ``values``
    itself."""
    a = values[None, :]
    seg_w = _segment_weights(model, probabilities(weights, model.pool))
    return _reference_step(model, seg_w, a, model.static.values(a), amalgamation)[0][0]


def agreement(trained: TrainedModel, program: PolicyProgram, samples: list[Sample]) -> float:
    """Fraction of target groundings where thresholded fuzzy inference
    (at 0.5) and crisp rule application agree; 1.0 on no atoms."""
    compiler = trained.compiler
    matches = 0
    total = 0
    for sample in samples:
        model = compiler.compile(sample.constants)
        values = infer(model, trained.weights, sample, trained.hyperparams)
        derived = crisp_infer(program, sample.background)
        for pred in compiler.frame.targets:
            lo, hi = model.index.ranges[pred]
            for i in range(lo, hi):
                matches += int((values[i] >= 0.5) == (model.index.atoms[i] in derived))
                total += 1
    return matches / total if total else 1.0
