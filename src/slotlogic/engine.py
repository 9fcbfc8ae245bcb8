"""Differentiable forward chaining with trainable clause weights.

The model grounds every candidate clause over a sample's constants and
chains truth values through a fixed number of steps. Per step and per
clause, a ground head's contribution is the max over that clause's
groundings of the product of its two body values; a slot mixes its
clauses by softmax weight; a predicate with two slots combines them by
probabilistic sum; the step result is folded into the valuation with an
element-wise max (or, for the ablation variant, a probabilistic sum),
capped at one. The amalgamation is a training setting
(``Hyperparams.amalgamation``); every chain is built with its call's.
Background clauses carry no parameters; a background head takes the max
over the groundings of all its clauses.

Compilation builds one grounding table per constant list. Rows come
from index arithmetic, a clause shape at a time; each compiler works out
its clauses' shapes once (``_ClauseShapes``).
Each row belongs to a segment, the rows one max runs over: a (clause,
head atom) cell of a slot. Segments are bucketed by row count into dense
(segments, rows) blocks, so a forward step is a gather-multiply per
block, a max and argmax along its rows, and one weighted ``bincount``
into the head atoms.

Only the slot heads (``CompiledModel.heads``) depend on the weights.
Background is fixed knowledge: a background clause reads only
extensional atoms and background heads (``ModelCompiler`` rejects any
other body), and every other atom keeps its start value. So the
valuations of all atoms but the slot heads are chained once per batch,
up to the step where they stop changing, by the boolean pass below:
start values are 0 or 1 and a background segment is a max of products of
them, so these valuations are 0 or 1 under either amalgamation, and an
OR chain can neither leave [0, 1] nor decrease. A ``_Chain`` lays the
table out as (sample, segment) cells, sample after sample and each
sample's in table order. A *fixed* cell's segment reads no slot head, so
its value at every distinct step comes from that pass too. A step writes
its state, the (samples, heads) array, in front of the fixed values the
*dependent* cells' rows read and the fixed cells' values, gathers two
factors per cell from that in one ``take`` (a fixed cell's are its value
and 1), multiplies them, takes the max over the rows of the few
multi-row dependent cells, weighs every cell by its clause's probability
and sums the cells into the heads with one ``bincount`` (so each head of
a sample sums its segments in the same order as over the whole table),
and amalgamates and caps the head values. The chain is the one record of
a training call: each step writes everything it computes into arrays the
chain owns, so no cell-sized array of a call outlives its step, and the
backward step reads them there. A chain checks every step's head values
for range and monotonicity once, after its last step. The backward step
takes a cell's value as its winning row's product, scatters every cell's
segment-weight gradient into the segments with one ``bincount`` (each
segment's samples in order), and scatters each factor's gradient into
the heads with one more (and two per block of multi-row cells); a factor
outside the heads scatters into a cell that is dropped. Step 0 scatters
nothing into the heads: the start values are fixed.

Every chain, ``infer``'s and training's alike, is built by
``_chain_for`` from one boolean pass (``_reachable``): the chaining
with every clause enabled, on booleans (a product is an AND, a max an
OR), until neither the background heads nor the slot heads grow. It
gives the fixed valuations, the table values at each distinct step
input and the segments live in each sample entering the last step; any
other segment is exactly 0 under every weight, since each step is
monotone and a product with 0 stays 0. A chain keeps only the live cells
(a multi-row cell goes only when all its rows are dead, so ties still
pick the same row). A dropped cell is 0 at every step of its sample, so
it would add +0.0 to every sum and ±0 to every gradient, and valuations,
loss and gradients equal those of the whole table bit for bit.

Gradients are exact reverse-mode derivatives of that computation. Max
picks its first argument on ties: the old valuation over the fresh
derivation, and the lowest-numbered grounding row within a segment
(rows keep their enumeration order, a background head's rows follow its
clauses in order, and argmax returns the first maximum). Clause
gradients are summed over a dense (clause, head atom) layout, so clauses
that agree on the data stay exactly tied.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .logic import (
    MAX_CLAUSE_VARS,
    Clause,
    GroundIndex,
    LanguageFrame,
    Predicate,
    Sample,
    Term,
    build_ground_index,
    format_atom,
    format_clause,
    parse_clause,
)
from .templates import (
    ProgramTemplate,
    slot_clause_pools,
    template_from_dict,
    template_to_dict,
)

LOG_EPS = 1e-6
RANGE_TOL = 1e-9

AMALGAMATIONS = ("max", "sum")

# Most candidate clauses a compiler accepts, whatever the template.
CLAUSE_BUDGET = 50_000


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, value: float):
        super().__init__(f"loss became non-finite at step {step} ({value})")
        self.step = step


class ValuationInvariantError(RuntimeError):
    """A step produced values outside [0,1] or decreased the valuation."""


class ClauseBudgetError(ValueError):
    def __init__(self, count: int, budget: int):
        super().__init__(
            f"{count} candidate clauses exceed the budget of {budget}; "
            "lower the extra-variable count (v) or shrink the predicate pool"
        )
        self.count = count


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs. The step rule scales each parameter by the square
    root of its accumulated squared gradient; ``accumulator_decay`` turns
    the accumulator into a running (decayed) one."""

    learning_rate: float = 0.05
    training_steps: int = 6000
    reg_kind: str = "none"
    reg_lambda: float = 0.0
    seed: int = 0
    init_scale: float = 0.1
    amalgamation: str = "max"
    stop_loss: float | None = None
    accumulator_decay: float | None = None

    def __post_init__(self):
        for name in ("training_steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, not {value}")
        for name in ("learning_rate", "reg_lambda", "init_scale", "stop_loss",
                     "accumulator_decay"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, not {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be non-negative")
        if self.reg_kind not in ("none", "l1", "l2"):
            raise ValueError(f"unknown reg_kind {self.reg_kind!r}")
        if self.reg_kind == "none" and self.reg_lambda != 0:
            raise ValueError(f"reg_lambda must be 0 with reg_kind 'none', not {self.reg_lambda}")
        if self.amalgamation not in AMALGAMATIONS:
            raise ValueError(f"unknown amalgamation {self.amalgamation!r}")
        if self.accumulator_decay is not None and not 0.0 < self.accumulator_decay < 1.0:
            raise ValueError("accumulator_decay must be in (0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "Hyperparams":
        return Hyperparams(**d)


def _softmax(w: np.ndarray) -> np.ndarray:
    if w.size == 0:
        return w.copy()
    z = np.exp(w - np.max(w))
    return z / z.sum()


def probabilities(weights: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each slot's clause probabilities: the softmax of its raw weights."""
    return [_softmax(np.asarray(v, dtype=np.float64)) for v in weights]


def _softmax_backward(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    if p.size == 0:
        return p.copy()
    return p * (dp - float(np.dot(p, dp)))


# ---------------------------------------------------------------------------
# Compilation: one grounding table per constant list.

@dataclass(frozen=True)
class _ClauseShapes:
    """What grounding a clause list takes whatever the constants.

    A clause's rows run over the substitutions of its variables by
    constants, enumerated like ``itertools.product`` with the first
    variable (in order of first occurrence) slowest. An atom's index is its
    predicate's start plus the mixed-radix number its argument constants
    spell in base ``len(constants)``: a constant argument adds a fixed
    amount per clause, and a variable one a digit of the substitution
    number that depends only on the clause's shape (its variable count and
    which variable fills each argument). So the clauses are grounded a
    shape at a time by array arithmetic (:meth:`ground`). Every variable
    occurs in some atom and that map is injective, so a clause's rows are
    distinct.

    ``columns`` holds each clause's head and body predicates as positions
    in the predicate list the shapes were made for; ``constants`` the
    clause, column, label and place (the power of ``len(constants)`` its
    position is multiplied by) of each constant argument; ``shapes`` each
    distinct (variable count, variable numbers per column) shape with its
    clauses, in order of first occurrence.
    """

    columns: np.ndarray  # (clauses, 3)
    constants: tuple[tuple[int, int, str, int], ...]
    shapes: tuple[tuple[int, tuple[tuple[int, ...], ...], np.ndarray], ...]

    @staticmethod
    def of(clauses: Sequence[Clause], predicates: Sequence[Predicate]) -> "_ClauseShapes":
        """The shapes of ``clauses`` over ``predicates``; a clause naming a
        predicate outside them raises ``ValueError``."""
        column_of = {p: i for i, p in enumerate(predicates)}
        columns, constants = [], []
        shapes: dict[tuple, list[int]] = {}
        for i, clause in enumerate(clauses):
            atoms = (clause.head, *clause.body)
            number: dict[Term, int] = {}
            pattern = []
            for col, a in enumerate(atoms):
                args = []
                for k, t in enumerate(a.args):
                    if t.is_variable:
                        args.append(number.setdefault(t, len(number)))
                    else:
                        args.append(-1)
                        constants.append((i, col, t.label, len(a.args) - 1 - k))
                pattern.append(tuple(args))
            if len(number) > MAX_CLAUSE_VARS:
                raise ValueError("too many clause variables")
            try:
                columns.append([column_of[a.predicate] for a in atoms])
            except KeyError as exc:
                raise ValueError(f"clause {format_clause(clause)} uses {exc.args[0]}, "
                                 "which is not in the ground index") from None
            shapes.setdefault((len(number), tuple(pattern)), []).append(i)
        return _ClauseShapes(
            np.array(columns, dtype=np.int64).reshape(-1, 3), tuple(constants),
            tuple((n_vars, pattern, np.asarray(members))
                  for (n_vars, pattern), members in shapes.items()),
        )

    def ground(self, index: GroundIndex) -> tuple[np.ndarray, np.ndarray]:
        """Every grounding over ``index`` (built over the predicates the
        shapes were made for) as rows (head index, body index, body index),
        clause after clause, and each clause's row count. A clause naming a
        constant outside the index has no grounding."""
        n = len(index.constants)
        starts = np.asarray([index.ranges[p][0] for p in index.predicates], dtype=np.int64)
        base = np.take(starts, self.columns)
        grounded = np.ones(len(base), dtype=bool)
        position = {c: i for i, c in enumerate(index.constants)}
        for i, col, label, place in self.constants:
            grounded[i] &= label in position
            base[i, col] += position.get(label, 0) * n ** place

        blocks, first_row = [], np.zeros(len(base), dtype=np.int64)
        counts = np.zeros(len(base), dtype=np.int64)
        n_rows = 0
        for n_vars, pattern, members in self.shapes:
            combos = np.arange(n ** n_vars, dtype=np.int64)
            digit = [combos // n ** (n_vars - 1 - k) % n for k in range(n_vars)]
            offsets = np.zeros((combos.size, 3), dtype=np.int64)
            for col, args in enumerate(pattern):
                for v in args:
                    offsets[:, col] = offsets[:, col] * n + (digit[v] if v >= 0 else 0)
            blocks.append((base[members][:, None, :] + offsets).reshape(-1, 3))
            first_row[members] = n_rows + combos.size * np.arange(len(members))
            counts[members] = combos.size
            n_rows += len(members) * combos.size
        counts *= grounded
        rows = np.concatenate([np.zeros((0, 3), dtype=np.int64), *blocks])
        starts = np.cumsum(counts) - counts
        return rows[np.repeat(first_row - starts, counts) + np.arange(counts.sum())], counts


@dataclass(frozen=True)
class _Slot:
    """The candidate clauses of one (predicate, slot)."""

    predicate: Predicate
    clauses: tuple[Clause, ...]


@dataclass(frozen=True)
class _Table:
    """Grounding rows grouped into max-segments and bucketed by row count.

    A segment's value is the max over its rows of ``a[b1] * a[b2]``, where
    ``b1``/``b2`` are a row's body atom indices. One-row segments come
    first, as flat (segments,) arrays ``b1`` and ``b2``; then one block per
    larger row count L, as a pair of (segments, L) arrays. ``key`` names
    every segment in that order.
    """

    b1: np.ndarray
    b2: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    key: np.ndarray

    @staticmethod
    def build(key: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> "_Table":
        """One segment per distinct key; rows keep their order within it."""
        order = np.argsort(key, kind="stable")
        key, b1, b2 = key[order], b1[order], b2[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, key.size))
        row_size = np.repeat(sizes, sizes)
        one = row_size == 1
        blocks, keys = [], [key[starts[sizes == 1]]]
        for size in np.unique(sizes[sizes > 1]):
            rows = row_size == size
            blocks.append((b1[rows].reshape(-1, size), b2[rows].reshape(-1, size)))
            keys.append(key[starts[sizes == size]])
        return _Table(b1[one], b2[one], tuple(blocks), np.concatenate(keys))

    def values(self, a: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Segment values (S, segments) of the valuations ``a``; and per
        block, the flat row (into its arrays) attaining each segment's max,
        the first one on ties."""
        parts = [a.take(self.b1, axis=1) * a.take(self.b2, axis=1)]
        winners = []
        for b1, b2 in self.blocks:
            prod = a.take(b1, axis=1)
            prod *= a.take(b2, axis=1)
            winners.append(prod.argmax(axis=2) + np.arange(0, b1.size, b1.shape[1]))
            parts.append(prod.max(axis=2))
        return np.concatenate(parts, axis=1) if winners else parts[0], winners


@dataclass(frozen=True)
class CompiledModel:
    """Grounded clause tables for one constant list; immutable.

    ``table`` holds the grounding rows of the slot clauses. Segment ``i``
    is the (clause, head atom) cell ``table.key[i]`` of a dense layout of
    ``n_dense`` cells, in which ``clause_starts`` opens each clause's
    range; it adds its value, times the probability of clause
    ``seg_weight[i]``, into output ``seg_out[i]``. The outputs are the
    head atoms ``single_cols``, then the head atoms ``pair_cols`` once per
    slot of a two-slot predicate, merged by probabilistic sum. ``static``
    holds every background row, one segment per head atom: background
    reads only extensional atoms and background heads, so it is chained
    once per batch.
    """

    index: GroundIndex
    slot_groups: tuple[_Slot, ...]
    forward_steps: int
    table: _Table
    seg_out: np.ndarray
    seg_weight: np.ndarray
    n_dense: int
    clause_starts: np.ndarray
    single_cols: np.ndarray
    pair_cols: np.ndarray
    static: _Table

    @property
    def heads(self) -> np.ndarray:
        """The atoms a weight reaches: ``single_cols``, then ``pair_cols``."""
        return np.concatenate((self.single_cols, self.pair_cols))


class ModelCompiler:
    """Builds clause pools and their grounding shapes once and grounds
    them per constant list.

    Clause pools depend only on predicates, so one weight assignment is
    valid for every compiled instance, whatever its constants. A pool or
    background clause naming an undeclared predicate raises ``ValueError``
    here.
    """

    def __init__(
        self,
        frame: LanguageFrame,
        template: ProgramTemplate,
        background: Sequence[Clause] = (),
        background_pool: Sequence[Predicate] = (),
        pools: Sequence[tuple[tuple[Predicate, int], Sequence[Clause]]] | None = None,
    ):
        self.frame = frame
        self.template = template
        self.background = tuple(background)
        self.background_pool = tuple(background_pool)
        for p in template.learnable():
            if p in frame.extensional or p not in (*frame.targets, *template.auxiliary):
                raise ValueError(f"template slot {p} must be a frame target or an "
                                 "auxiliary predicate that is not extensional")
        if pools is None:
            self.pools = slot_clause_pools(template, frame, background_pool)
        else:
            self.pools = [(key, list(cs)) for key, cs in pools]
        total = sum(len(cs) for _, cs in self.pools)
        if total > CLAUSE_BUDGET:
            raise ClauseBudgetError(total, CLAUSE_BUDGET)

        learnable = set(template.learnable())
        bg_heads: list[Predicate] = []
        for c in self.background:
            if c.head.predicate in learnable:
                raise ValueError(
                    f"background clause head {c.head.predicate} is learnable"
                )
            if c.head.predicate not in bg_heads:
                bg_heads.append(c.head.predicate)
        for (p, _), _ in self.pools:
            if p in bg_heads:
                raise ValueError(f"slot predicate {p} is a background clause head")

        preds: list[Predicate] = list(frame.extensional)
        for p in (*bg_heads, *frame.targets, *template.auxiliary):
            if p not in preds:
                preds.append(p)
        self.predicates = tuple(preds)
        # Background is fixed knowledge: chained once per batch ahead of
        # the weights (_reachable), so it must not read a slot head.
        fixed = {*frame.extensional, *bg_heads}
        for c in self.background:
            for a in c.body:
                if a.predicate not in fixed:
                    raise ValueError(f"background clause {format_clause(c)} reads {a.predicate}, "
                                     "which is neither extensional nor a background head")
        for p in self.background_pool:
            if p not in self.predicates:
                raise ValueError(f"background pool predicate {p} undeclared")
        self._slot_shapes = _ClauseShapes.of([c for _, cs in self.pools for c in cs], self.predicates)
        self._background_shapes = _ClauseShapes.of(self.background, self.predicates)
        self._cache: dict[tuple[str, ...], CompiledModel] = {}

    def init_weights(self, seed: int = 0, scale: float = 0.1) -> list[np.ndarray]:
        """One raw weight vector per pool, in pool order."""
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(len(cs)) * scale for _, cs in self.pools]

    def compile(self, constants: Sequence[str]) -> CompiledModel:
        key = tuple(constants)
        if key in self._cache:
            return self._cache[key]
        index = build_ground_index(self.predicates, key)

        def span(p: Predicate) -> np.ndarray:
            return np.arange(*index.ranges[p], dtype=np.int64)

        # Outputs: the head atoms of one-slot predicates, then those of
        # two-slot predicates once per slot.
        slots_of: dict[Predicate, list[int]] = {}
        for j, ((pred, _), _) in enumerate(self.pools):
            slots_of.setdefault(pred, []).append(j)
        singles = [p for p, js in slots_of.items() if len(js) == 1]
        pairs = [p for p, js in slots_of.items() if len(js) == 2]
        out_start: dict[tuple[Predicate, int], int] = {}
        n_out = 0
        for p, which in [(p, 0) for p in singles] + [
            (p, which) for which in (0, 1) for p in pairs
        ]:
            out_start[p, which] = n_out
            n_out += span(p).size

        # A row's key is its (clause, head atom) cell in the dense layout,
        # the row's head index shifted by its clause's key_shift;
        # cell_out/cell_clause map a cell to its output and clause.
        no_cells = np.zeros(0, dtype=np.int64)
        key_shift, cell_out, cell_clause, clause_starts = [no_cells], [no_cells], [no_cells], [no_cells]
        n_dense = n_clauses = 0
        for j, ((pred, _), clauses) in enumerate(self.pools):
            lo, hi = index.ranges[pred]
            base = out_start[pred, slots_of[pred].index(j)]
            starts = n_dense + (hi - lo) * np.arange(len(clauses), dtype=np.int64)
            clause_starts.append(starts)
            key_shift.append(starts - lo)
            cell_out.append(np.tile(np.arange(base, base + hi - lo), len(clauses)))
            cell_clause.append(np.repeat(n_clauses + np.arange(len(clauses)), hi - lo))
            n_dense += (hi - lo) * len(clauses)
            n_clauses += len(clauses)
        rows, counts = self._slot_shapes.ground(index)
        keys = rows[:, 0] + np.repeat(np.concatenate(key_shift), counts)
        table = _Table.build(keys, rows[:, 1], rows[:, 2])
        static = self._background_shapes.ground(index)[0]
        model = CompiledModel(
            index=index,
            slot_groups=tuple(_Slot(pred, tuple(cs)) for (pred, _), cs in self.pools),
            forward_steps=self.template.forward_steps,
            table=table,
            seg_out=np.concatenate(cell_out)[table.key],
            seg_weight=np.concatenate(cell_clause)[table.key],
            n_dense=n_dense,
            clause_starts=np.concatenate(clause_starts),
            single_cols=np.concatenate([no_cells, *map(span, singles)]),
            pair_cols=np.concatenate([no_cells, *map(span, pairs)]),
            static=_Table.build(static[:, 0], static[:, 1], static[:, 2]),
        )
        self._cache[key] = model
        return model


# ---------------------------------------------------------------------------
# Forward pass.

def _start_values(model: CompiledModel, samples: Sequence[Sample]) -> np.ndarray:
    """Start valuations (S, atoms): background atoms 1, everything else 0."""
    a0 = np.zeros((len(samples), len(model.index)))
    for si, s in enumerate(samples):
        for a in s.background:
            a0[si, model.index.index_of(a)] = 1.0
    return a0


#: count of instrumented step checks performed (all must have passed).
VALUATION_CHECKS = 0


def _check_range(new: np.ndarray, old: np.ndarray) -> None:
    """Instrumentation, always on: the valuations (steps, ...) after each
    step must stay in [0,1] and never lower an entry of those before it
    (both amalgamation variants are non-decreasing). Every step is checked
    at once; the error names the first step that fails (and NaN in it)."""
    if new.size == 0:
        return
    if not (new.min() < -RANGE_TOL or new.max() > 1.0 + RANGE_TOL) and bool(
        np.all(new >= old - RANGE_TOL)
    ):
        return
    new, old = new.reshape(len(new), -1), old.reshape(len(old), -1)
    lo, hi = new.min(axis=1), new.max(axis=1)
    left = (lo < -RANGE_TOL) | (hi > 1.0 + RANGE_TOL)
    t = int(np.argmax(left | ~np.all(new >= old - RANGE_TOL, axis=1)))
    if np.isnan(lo[t]):
        raise ValuationInvariantError(f"valuation is NaN at step {t}")
    if left[t]:
        raise ValuationInvariantError(f"valuation left [0,1] at step {t}: min={lo[t]} max={hi[t]}")
    raise ValuationInvariantError(f"valuation decreased at step {t}")


def _amalgamate(kind: str, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold a step's derivations ``b`` into ``a``, capped at one; also
    returns where the cap bit."""
    a_new = np.maximum(a, b) if kind == "max" else a + b - a * b
    return np.minimum(a_new, 1.0), a_new > 1.0


def _out_cells(model: CompiledModel, S: int) -> np.ndarray:
    """The output cell of each table segment in a flattened (S, outputs)
    array, sample after sample."""
    n_out = model.single_cols.size + 2 * model.pair_cols.size
    return (model.seg_out + n_out * np.arange(S)[:, None]).ravel()


def _reachable(model: CompiledModel, a0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chaining with every clause enabled, on booleans from ``a0``:
    each step ORs the background segments into the background heads and
    the table segments into the slot heads (two slots combine by OR),
    until neither grows. Returns the 0/1 valuations (n, S, atoms) of the
    atoms no weight reaches up to the background's fixpoint (a slot head
    at its start value), entry ``min(t, n - 1)`` before step ``t`` for
    every ``t`` up to ``model.forward_steps``; the table values (m, S,
    segments) at the inputs of the first ``m = min(n, forward_steps)``
    steps (the background grows only in a prefix of them, so step ``k``
    reads entry ``k``); and the table segments (S, segments) live
    entering the last step."""
    S, cols = len(a0), model.static.key
    n1, n2 = model.single_cols.size, model.pair_cols.size
    flat_out = _out_cells(model, S)
    fixed, seg_values, reach = [a0], [], a0 > 0
    for _ in range(model.forward_steps):
        live = model.table.values(reach)[0]
        if len(seg_values) < len(fixed):
            seg_values.append(live)
        hit = np.zeros(S * (n1 + 2 * n2), dtype=bool)
        hit[flat_out[live.ravel()]] = True
        hit = hit.reshape(S, -1)
        b = reach.copy()
        b[:, cols] |= model.static.values(reach)[0]
        b[:, model.single_cols] |= hit[:, :n1]
        b[:, model.pair_cols] |= hit[:, n1 : n1 + n2] | hit[:, n1 + n2 :]
        if not np.array_equal(b[:, cols], reach[:, cols]):
            fixed.append(fixed[-1].copy())
            fixed[-1][:, cols] = b[:, cols]
        elif np.array_equal(b, reach):
            break
        reach = b
    return np.stack(fixed), np.stack(seg_values), live


@dataclass(frozen=True)
class _Chain:
    """A batch's chaining laid out as (sample, segment) cells, and the one
    record of each step of its latest chaining.

    The step state is the values (S, H) of ``heads``, the only atoms a
    weight reaches; each step folds its derivations into it by
    ``amalgamation``; ``fixed`` holds the valuations of all other atoms (see
    :func:`_reachable`). A cell is a table segment in one sample;
    cells run sample after sample, each sample's in table order, so a
    step's sum into a head of a sample adds its segments in the order of
    the whole table, and the backward step's sum into a segment adds its
    samples in order.

    Step ``t``'s cells read ``z[t]``: the step's head values, flattened,
    then the fixed atom values the dependent cells' rows read, the value
    of every fixed cell, 1 and 0. A *fixed* cell's segment reads no head,
    so its value is the same under every weight and is computed once, for
    each distinct step input. A cell's value is the product of the two
    entries of ``z[t]`` that ``rows`` names: a one-row dependent cell's
    body values, a fixed cell's value and 1, or, for a multi-row
    dependent cell, 0 and 0; the max over the rows of those is taken by
    ``multi``, a table over ``z[t]`` whose ``key`` holds their positions
    among the cells.

    The arrays from ``z`` on are each step's record, which every chaining
    rewrites: its input head values (``states[0]`` is the fixed start), what
    its cells read, their factors, each multi-row cell's
    winning row, the cell values, outputs, merged derivations and cap mask.
    """

    model: CompiledModel
    amalgamation: str
    heads: np.ndarray  # model.heads
    head_col: np.ndarray  # (atoms,) each atom's column in heads, H for the others
    fixed: np.ndarray  # (n, S, atoms) see _reachable
    rows: np.ndarray  # (2, cells)
    multi: _Table
    cells: np.ndarray  # (cells,) the flat (S, segments) cell
    clause: np.ndarray  # (cells,) the cell's clause
    seg: np.ndarray  # (cells,) the cell's position among the kept segments
    dense: np.ndarray  # each kept segment's dense (clause, head) key
    out_cells: np.ndarray  # (cells,) the flat (S, outputs) output
    # (2 * cells,) the flat cell of (2, S * H + 1) that a gradient reaches
    # from each of ``rows``: its entry of the heads, or S * H for the
    # others, in the first row for the first factor and in the second for
    # the second.
    to_heads: np.ndarray
    z: np.ndarray  # (steps + 1, S * H + reads)
    states: np.ndarray  # (steps + 1, S, H) a view of z's head values
    x: np.ndarray  # (steps, 2, cells) the factors, rows read from z
    winners: tuple[np.ndarray, ...]  # per block of multi, (steps, its cells)
    values: np.ndarray  # (steps, cells)
    out: np.ndarray  # (steps, S, outputs)
    b: np.ndarray  # (steps, S, H), out itself when no predicate has two slots
    over_one: np.ndarray  # (steps, S, H)

    @staticmethod
    def build(model: CompiledModel, fixed: np.ndarray, seg_values: np.ndarray,
              live: np.ndarray, amalgamation: str) -> "_Chain":
        """The chain of ``model`` over the fixed valuations ``fixed`` and
        the table values ``seg_values`` at their step inputs (a fixed
        cell's is a max of products of 0/1 values, so booleans give it
        exactly), keeping the cells ``live`` (S, segments) marks: as
        :func:`_reachable` gives them, the dependent cells some weight can
        make non-zero and the fixed cells that are non-zero at some step."""
        (S, g), steps = fixed.shape[1:], model.forward_steps
        n = min(len(fixed), steps)
        table, heads = model.table, model.heads
        H = heads.size
        head_col = np.full(g, H)
        head_col[heads] = np.arange(H)
        is_head = head_col < H
        dep_blocks = [(is_head[b1] | is_head[b2]).any(axis=1) for b1, b2 in table.blocks]
        dep = np.concatenate([is_head[table.b1] | is_head[table.b2], *dep_blocks])
        cells = np.flatnonzero(live)
        sample, seg = np.divmod(cells, dep.size)
        fixed_cells = np.flatnonzero(~dep[seg])
        fixed_values = seg_values[:, sample[fixed_cells], seg[fixed_cells]]

        # The dependent cells by row count: one-row segments come first in
        # the table, then each block.
        sizes = [table.b1.size, *(b1.shape[0] for b1, _ in table.blocks)]
        starts = np.cumsum([0, *sizes])
        block = np.repeat(np.arange(len(sizes)), sizes)[seg]
        dep_cells = [np.flatnonzero(dep[seg] & (block == k)) for k in range(len(sizes))]
        one = dep_cells[0]
        r = seg[one]
        dep_rows = [(sample[one], table.b1[r], table.b2[r])]
        for (b1, b2), at, lo in zip(table.blocks, dep_cells[1:], starts[1:]):
            r = seg[at] - lo
            dep_rows.append((sample[at][:, None], b1[r], b2[r]))
        outside = [(s * g + b)[~is_head[b]] for s, b1, b2 in dep_rows for b in (b1, b2)]
        read = np.unique(np.concatenate([np.zeros(0, dtype=np.int64), *outside]))

        def z(s, b):
            return np.where(is_head[b], s * H + head_col[b],
                            S * H + np.searchsorted(read, s * g + b))

        # Fixed cells read their value and 1, multi-row ones 0 and 0.
        rows = np.empty((2, cells.size), dtype=np.int64)
        one_at = S * H + read.size + fixed_cells.size
        rows[0, fixed_cells] = S * H + read.size + np.arange(fixed_cells.size)
        rows[1, fixed_cells] = one_at
        no_rows = np.zeros(0, dtype=np.int64)
        multi_cells = np.concatenate([no_rows, *dep_cells[1:]])
        rows[:, multi_cells] = one_at + 1
        s, b1, b2 = dep_rows[0]
        rows[:, one] = z(s, b1), z(s, b2)
        blocks = tuple((z(s, b1), z(s, b2)) for s, b1, b2 in dep_rows[1:] if s.size)
        reads = np.concatenate((fixed[:n].reshape(n, S * g)[:, read], fixed_values,
                                np.ones((n, 1)), np.zeros((n, 1))), axis=1)
        segments, local = np.unique(seg, return_inverse=True)
        # A step's input head values lead what its cells read; the last row
        # holds the values after the last step.
        z = np.concatenate((np.zeros((steps + 1, S * H)),
                            reads[np.minimum(np.arange(steps + 1), n - 1)]), axis=1)
        states = z[:, : S * H].reshape(steps + 1, S, H)
        states[0] = fixed[0][:, heads]
        out = np.empty((steps, S, model.single_cols.size + 2 * model.pair_cols.size))
        return _Chain(
            model=model,
            amalgamation=amalgamation,
            heads=heads,
            head_col=head_col,
            fixed=fixed,
            rows=rows,
            multi=_Table(no_rows, no_rows, blocks, multi_cells),
            cells=cells,
            clause=model.seg_weight[seg],
            seg=local,
            dense=table.key[segments],
            out_cells=_out_cells(model, S)[cells],
            to_heads=(np.minimum(rows, S * H) + [[0], [S * H + 1]]).ravel(),
            z=z,
            states=states,
            x=np.empty((steps, *rows.shape)),
            winners=tuple(np.empty((steps, b1.shape[0]), dtype=np.int64) for b1, _ in blocks),
            values=np.empty((steps, cells.size)),
            out=out,
            b=np.empty((steps, S, H)) if model.pair_cols.size else out,
            over_one=np.empty((steps, S, H), dtype=bool),
        )

    def weigh(self, probs: Sequence[np.ndarray]) -> np.ndarray:
        """Each cell's weight: its clause's probability in ``probs``, one
        array per slot."""
        return np.concatenate([np.zeros(0), *probs]).take(self.clause)

    def valuation(self, t: int, a: np.ndarray) -> np.ndarray:
        """The whole valuation (S, atoms) before step ``t`` (after the last
        step if ``t`` is the step count) when the heads hold ``a``."""
        x = self.fixed[min(t, len(self.fixed) - 1)].copy()
        x[:, self.heads] = a
        return x


def _step(chain: _Chain, w: np.ndarray, t: int) -> None:
    """Step ``t`` of ``chain`` with the cell weights ``w``: from the head
    values ``chain.states[t]`` to ``chain.states[t + 1]``, writing the
    step's record."""
    n1, n2 = chain.model.single_cols.size, chain.model.pair_cols.size
    a, z = chain.states[t], chain.z[t]
    x = z.take(chain.rows, out=chain.x[t], mode="clip")
    values = np.multiply(x[0], x[1], out=chain.values[t])
    if chain.multi.blocks:
        v, winners = chain.multi.values(z[None])
        values[chain.multi.key] = v.ravel()
        for won, step_won in zip(chain.winners, winners):
            won[t] = step_won[0]
    out, b = chain.out[t], chain.b[t]
    out[...] = np.bincount(chain.out_cells, weights=values * w,
                           minlength=out.size).reshape(out.shape)
    if n2:
        s0, s1 = out[:, n1 : n1 + n2], out[:, n1 + n2 :]
        b[:, :n1] = out[:, :n1]
        b[:, n1:] = s0 + s1 - s0 * s1
    chain.states[t + 1], chain.over_one[t] = _amalgamate(chain.amalgamation, a, b)


def _chain(chain: _Chain, w: np.ndarray) -> np.ndarray:
    """Chain every step from the start values with the cell weights ``w``,
    writing each step's record into ``chain``; returns the whole valuation
    after the last step. The head values of every step are checked for
    range and monotonicity once, after the last step."""
    global VALUATION_CHECKS
    steps = chain.model.forward_steps
    for t in range(steps):
        _step(chain, w, t)
    _check_range(chain.states[1:], chain.states[:-1])
    VALUATION_CHECKS += steps
    return chain.valuation(steps, chain.states[steps])


def _backward_step(
    chain: _Chain, w: np.ndarray, t: int, da_new: np.ndarray, dseg: np.ndarray
) -> np.ndarray | None:
    """Gradient w.r.t. step ``t``'s input head values, from its record in
    ``chain`` (None for step 0, whose input is the fixed start values);
    adds each kept segment's d(loss)/d(segment weight) into ``dseg``.
    ``w`` holds the cell weights."""
    a, b = chain.states[t], chain.b[t]
    S = a.shape[0]
    n1, n2 = chain.model.single_cols.size, chain.model.pair_cols.size
    H = n1 + n2
    da_new = np.where(chain.over_one[t], 0.0, da_new)
    if chain.amalgamation == "max":
        take_b = b > a
        db = np.where(take_b, da_new, 0.0)
        da = np.where(take_b, 0.0, da_new)
    else:
        db = da_new * (1.0 - a)
        da = da_new * (1.0 - b)
    dout = db
    if n2:
        dy, pair = db[:, n1:], chain.out[t][:, n1:]
        dout = np.concatenate((db[:, :n1], dy * (1.0 - pair[:, n2:]), dy * (1.0 - pair[:, :n2])),
                              axis=1)
    dv = dout.take(chain.out_cells)
    # A cell's value is its winning row's x1 * x2, so (x1 * x2) * dv comes
    # first, and clauses whose rows read the same values in either order
    # get bit-equal sums.
    dseg += np.bincount(chain.seg, weights=chain.values[t] * dv, minlength=dseg.size)
    if not t:
        return None
    dv *= w
    # Each factor's gradient is the other factor times dv; a factor
    # outside the heads scatters into a cell that is dropped.
    SH = S * H
    d = np.bincount(chain.to_heads, weights=(chain.x[t][::-1] * dv).ravel(),
                    minlength=2 * SH + 2)
    da += d[:SH].reshape(S, H)
    da += d[SH + 1 : 2 * SH + 1].reshape(S, H)
    z, lo = chain.z[t], 0
    for (b1, b2), won in zip(chain.multi.blocks, chain.winners):
        c1, c2 = b1.take(won[t]), b2.take(won[t])
        hi = lo + c1.size
        dvw = dv.take(chain.multi.key[lo:hi])
        da += np.bincount(np.minimum(c1, SH), weights=z.take(c2) * dvw,
                          minlength=SH + 1)[:SH].reshape(S, H)
        da += np.bincount(np.minimum(c2, SH), weights=z.take(c1) * dvw,
                          minlength=SH + 1)[:SH].reshape(S, H)
        lo = hi
    return da


def _chain_for(model: CompiledModel, a0: np.ndarray, amalgamation: str) -> _Chain:
    """The chain of ``model`` from the start valuations ``a0`` under
    ``amalgamation``, keeping the cells some weight can make non-zero."""
    return _Chain.build(model, *_reachable(model, a0), amalgamation)


def infer(
    model: CompiledModel, weights: Sequence[np.ndarray], sample: Sample, hp: Hyperparams
) -> np.ndarray:
    """The valuation over ``model.index`` after ``forward_steps`` chained
    deduction steps from the background (entry 0 stays 0), under the
    hyperparameters ``hp`` the weights were trained with (for a trained
    model, its ``hyperparams``)."""
    if tuple(sample.constants) != model.index.constants:
        raise ValueError("sample constants do not match this compiled model; "
                         "compile it with ModelCompiler.compile(sample.constants)")
    chain = _chain_for(model, _start_values(model, [sample]), hp.amalgamation)
    return _chain(chain, chain.weigh(probabilities(weights)))[0]


# ---------------------------------------------------------------------------
# Loss and gradient.

@dataclass(frozen=True)
class _Batch:
    chain: _Chain
    rows: np.ndarray  # per labeled atom: its sample,
    cells: np.ndarray  # its atom,
    cols: np.ndarray  # its column in chain.heads (H if none),
    positive: np.ndarray  # whether it is positive,
    scale: np.ndarray  # and its loss weight


def _prepare_batches(
    compiler: ModelCompiler, samples: Sequence[Sample], hp: Hyperparams
) -> list[_Batch]:
    """One batch per constant list, chained under ``hp``'s amalgamation;
    each sample's labels share a weight of 1 / len(samples). The only
    check of training samples: a ``ValueError`` for no samples, a sample
    without labels or a label outside the frame's targets."""
    if not samples:
        raise ValueError("no samples")
    targets = set(compiler.frame.targets)
    groups: dict[tuple[str, ...], list[Sample]] = {}
    for s in samples:
        if not s.positive and not s.negative:
            raise ValueError("sample has no positive or negative atoms")
        for a in (*s.positive, *s.negative):
            if a.predicate not in targets:
                raise ValueError(f"labeled atom {format_atom(a)} is not a target predicate")
        groups.setdefault(tuple(s.constants), []).append(s)
    batches = []
    for consts, group in groups.items():
        model = compiler.compile(consts)
        labels = [
            (si, model.index.index_of(a), positive,
             1.0 / ((len(s.positive) + len(s.negative)) * len(samples)))
            for si, s in enumerate(group)
            for positive, atoms in ((True, s.positive), (False, s.negative))
            for a in atoms
        ]
        rows, cells, positive, scale = map(np.asarray, zip(*labels))
        chain = _chain_for(model, _start_values(model, group), hp.amalgamation)
        batches.append(_Batch(chain, rows, cells, chain.head_col[cells], positive, scale))
    return batches


def _penalty(weights: Sequence[np.ndarray], hp: Hyperparams) -> tuple[float, list]:
    """The weight penalty and its gradient per pool (a scalar 0.0 per pool
    when there is no penalty)."""
    if hp.reg_lambda == 0.0:
        return 0.0, [0.0] * len(weights)
    if hp.reg_kind == "l1":
        return (hp.reg_lambda * sum(float(np.abs(v).sum()) for v in weights),
                [hp.reg_lambda * np.sign(v) for v in weights])
    return (hp.reg_lambda * sum(float((v * v).sum()) for v in weights),
            [2.0 * hp.reg_lambda * v for v in weights])


def _loss_pass(
    compiler: ModelCompiler,
    weights: Sequence[np.ndarray],
    samples: Sequence[Sample],
    hp: Hyperparams,
    batches: Sequence[_Batch] | None,
    grad: bool,
) -> tuple[float, list[np.ndarray] | None]:
    """:func:`loss` over ``batches`` (prepared from ``samples`` when None)
    and, if ``grad``, its reverse-mode gradient w.r.t. the raw weights."""
    probs = probabilities(weights)
    dclause = np.zeros(sum(p.size for p in probs))
    total = 0.0
    for batch in _prepare_batches(compiler, samples, hp) if batches is None else batches:
        chain = batch.chain
        w = chain.weigh(probs)
        a = _chain(chain, w)
        x = a[batch.rows, batch.cells]
        c = np.clip(x, LOG_EPS, 1.0 - LOG_EPS)
        total += float(-(batch.scale * np.where(batch.positive, np.log(c), np.log1p(-c))).sum())
        if not grad:
            continue
        # -s/x on a positive, s/(1-x) on a negative, 0 where the clip
        # binds (where it does not, c is x); (-s)/x has the bits of -(s/x).
        # Sample.make keeps a sample's labeled atoms distinct and its
        # positives and negatives disjoint, so no head is assigned twice;
        # the last column takes the labels outside the heads and is dropped.
        da = np.zeros((len(a), chain.heads.size + 1))
        da[batch.rows, batch.cols] = np.where(
            (x > LOG_EPS) & (x < 1.0 - LOG_EPS),
            np.where(batch.positive, -batch.scale, batch.scale)
            / np.where(batch.positive, c, 1.0 - c),
            0.0,
        )
        da = da[:, :-1]
        dseg = np.zeros(chain.dense.size)
        for t in reversed(range(chain.model.forward_steps)):
            da = _backward_step(chain, w, t, da, dseg)
        # Summed per clause over the dense (clause, head) layout, so clauses
        # equal on the data get bit-equal gradients.
        if dclause.size:
            dense = np.bincount(chain.dense, weights=dseg, minlength=chain.model.n_dense)
            dclause += np.add.reduceat(dense, chain.model.clause_starts)
    penalty, dpenalty = _penalty(weights, hp)
    if not grad:
        return total + penalty, None
    dprobs = np.split(dclause, np.cumsum([p.size for p in probs])[:-1])
    return total + penalty, [
        _softmax_backward(p, dp) + r for p, dp, r in zip(probs, dprobs, dpenalty)
    ]


def loss(
    compiler: ModelCompiler,
    weights: Sequence[np.ndarray],
    samples: Sequence[Sample],
    hp: Hyperparams,
    batches: Sequence[_Batch] | None = None,
) -> float:
    """Mean per-sample normalized cross-entropy plus the weight penalty."""
    return _loss_pass(compiler, weights, samples, hp, batches, grad=False)[0]


def loss_and_grad(
    compiler: ModelCompiler,
    weights: Sequence[np.ndarray],
    samples: Sequence[Sample],
    hp: Hyperparams,
    batches: Sequence[_Batch] | None = None,
) -> tuple[float, list[np.ndarray]]:
    """:func:`loss` and its exact reverse-mode gradient w.r.t. raw weights."""
    return _loss_pass(compiler, weights, samples, hp, batches, grad=True)


def finite_difference_grad(
    compiler: ModelCompiler,
    weights: Sequence[np.ndarray],
    samples: Sequence[Sample],
    hp: Hyperparams,
    h: float = 1e-4,
) -> list[np.ndarray]:
    """Central finite differences of :func:`loss`; the gradient oracle."""
    weights = [np.array(v, dtype=np.float64) for v in weights]
    grads = [np.zeros_like(v) for v in weights]
    batches = _prepare_batches(compiler, samples, hp)
    for v, g in zip(weights, grads):
        for i in range(v.size):
            x = v[i]
            v[i] = x + h
            up = loss(compiler, weights, samples, hp, batches)
            v[i] = x - h
            down = loss(compiler, weights, samples, hp, batches)
            v[i] = x
            g[i] = (up - down) / (2.0 * h)
    return grads


# ---------------------------------------------------------------------------
# Task files: a compiler and the hyperparameters to train it with.

def _read_field(d: dict, name: str, parse: Callable, *default):
    if name not in d and not default:
        raise ValueError(f"model lacks field {name!r}")
    try:
        return parse(d.get(name, *default))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"model field {name!r}: {type(exc).__name__}: {exc}") from exc


def task_to_dict(compiler: ModelCompiler, hp: Hyperparams) -> dict:
    """The fields that :func:`task_from_dict` reads."""
    return {
        "frame": {
            "targets": [[p.name, p.arity] for p in compiler.frame.targets],
            "extensional": [[p.name, p.arity] for p in compiler.frame.extensional],
        },
        "template": template_to_dict(compiler.template),
        "background": [format_clause(x) for x in compiler.background],
        "background_pool": [[p.name, p.arity] for p in compiler.background_pool],
        "hyperparams": hp.to_dict(),
    }


def task_from_dict(d: dict) -> tuple[ModelCompiler, Hyperparams]:
    """The task of a file's frame, template, background, background pool
    and hyperparameters; other fields, such as a model file's ``slots``
    and ``loss_trace``, are ignored. A ``ValueError`` names the first
    missing or malformed field."""
    if not isinstance(d, dict):
        raise ValueError("a model must be a JSON object")

    def predicates(pairs) -> tuple[Predicate, ...]:
        return tuple(Predicate(n, a) for n, a in pairs)

    frame = _read_field(d, "frame", lambda f: LanguageFrame(
        targets=predicates(f["targets"]), extensional=predicates(f["extensional"])))
    template = _read_field(d, "template", template_from_dict)
    background = _read_field(d, "background", lambda cs: tuple(parse_clause(t) for t in cs))
    pool = _read_field(d, "background_pool", predicates, [])
    hp = _read_field(d, "hyperparams", Hyperparams.from_dict)
    try:
        return ModelCompiler(frame, template, background, pool), hp
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model fields do not describe a model: {exc}") from exc


# ---------------------------------------------------------------------------
# Training.

@dataclass
class TrainedModel:
    """A compiler and one raw weight vector per pool of it, in pool order."""

    compiler: ModelCompiler
    weights: list[np.ndarray]
    loss_trace: list[float]
    hyperparams: Hyperparams

    @property
    def final_loss(self) -> float:
        return self.loss_trace[-1] if self.loss_trace else math.inf

    def probabilities(self) -> list[np.ndarray]:
        return probabilities(self.weights)

    def to_dict(self) -> dict:
        c = self.compiler
        return {
            **task_to_dict(c, self.hyperparams),
            "slots": [
                {
                    "predicate": [pred.name, pred.arity],
                    "slot": k,
                    "clauses": [format_clause(x) for x in clauses],
                    "raw_weights": [float(w) for w in vec],
                    "probabilities": [float(p) for p in probs],
                }
                for ((pred, k), clauses), vec, probs
                in zip(c.pools, self.weights, self.probabilities())
            ],
            "loss_trace": [float(x) for x in self.loss_trace],
        }

    @staticmethod
    def from_dict(d: dict) -> "TrainedModel":
        """The file's task (:func:`task_from_dict`) with the slot weights
        and loss trace; the slot clause lists must equal the task's pools."""
        compiler, hp = task_from_dict(d)

        def slot(s: dict) -> tuple[tuple[Predicate, int], tuple[Clause, ...], np.ndarray]:
            if type(s["slot"]) is not int:
                raise ValueError(f"'slot' must be a JSON integer, not {s['slot']!r}")
            key = (Predicate(*s["predicate"]), s["slot"])
            clauses = tuple(parse_clause(t) for t in s["clauses"])
            vec = np.asarray(s["raw_weights"], dtype=np.float64)
            if vec.shape != (len(clauses),):
                raise ValueError(f"{key[0]} slot {key[1]}: {len(clauses)} clauses "
                                 f"but raw_weights of shape {vec.shape}")
            if not np.isfinite(vec).all():
                raise ValueError(f"{key[0]} slot {key[1]}: raw_weights must be finite numbers")
            return key, clauses, vec

        slots = _read_field(d, "slots", lambda ss: [slot(s) for s in ss])
        loss_trace = _read_field(d, "loss_trace", lambda xs: [float(x) for x in xs])
        if [(key, clauses) for key, clauses, _ in slots] != [
            (key, tuple(cs)) for key, cs in compiler.pools
        ]:
            raise ValueError("model field 'slots': the clause lists differ from the pools "
                             "its template, frame and background pool generate")
        return TrainedModel(
            compiler=compiler,
            weights=[vec for _, _, vec in slots],
            loss_trace=loss_trace,
            hyperparams=hp,
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)
            f.write("\n")

    @staticmethod
    def load(path) -> "TrainedModel":
        with open(path) as f:
            return TrainedModel.from_dict(json.load(f))


def train_task(task: tuple[ModelCompiler, Hyperparams], samples: Sequence[Sample]) -> TrainedModel:
    """Full-batch gradient descent on a task's compiler with its
    hyperparameters, per-parameter accumulated-square step scaling;
    deterministic given the seed."""
    compiler, hp = task
    weights = compiler.init_weights(hp.seed, hp.init_scale)
    acc = [np.zeros_like(v) for v in weights]
    trace: list[float] = []
    batches = _prepare_batches(compiler, samples, hp)
    for step_i in range(hp.training_steps):
        value, grads = loss_and_grad(compiler, weights, samples, hp, batches)
        if not math.isfinite(value):
            raise TrainingDiverged(step_i, value)
        trace.append(value)
        if hp.stop_loss is not None and value < hp.stop_loss:
            break
        for v, g, a in zip(weights, grads, acc):
            if hp.accumulator_decay is None:
                a += g * g
            else:
                a *= hp.accumulator_decay
                a += (1.0 - hp.accumulator_decay) * g * g
            v -= hp.learning_rate * g / (np.sqrt(a) + 1e-8)
    trace.append(loss(compiler, weights, samples, hp, batches))
    return TrainedModel(compiler, weights, trace, hp)


def train(
    frame: LanguageFrame,
    samples: Sequence[Sample],
    template: ProgramTemplate,
    hp: Hyperparams,
    background: Sequence[Clause] = (),
    background_pool: Sequence[Predicate] = (),
) -> TrainedModel:
    """:func:`train_task` on the task these parts build: the form the
    benchmark (``perfbench/``) calls."""
    return train_task((ModelCompiler(frame, template, background, background_pool), hp), samples)
