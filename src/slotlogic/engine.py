"""Differentiable forward chaining with trainable clause weights.

The model grounds every candidate clause over a sample's constants and
chains truth values through a fixed number of steps. Per step and per
clause, a ground head's contribution is the max over that clause's
groundings of the product of its two body values; a slot mixes its
clauses by softmax weight; a predicate with two slots combines them by
probabilistic sum; the step result is folded into the valuation with an
element-wise max (or, for the ablation variant, a probabilistic sum),
capped at one. Background clauses carry no parameters; a background
head takes the max over the groundings of all its clauses.

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
background clauses included, with the step count, amalgamation and cap
of the weighted steps, up to the step where they stop changing
(``_fixed_valuations``), and their range and monotonicity are checked
there, once. A ``_Chain`` lays the table out as (sample, segment) cells,
sample after sample and each sample's in table order. A *fixed* cell's
segment reads no slot head, so its value at every distinct step is
computed once too. A step writes its state, the (samples, heads) array,
in front of the fixed values the *dependent* cells' rows read and the
fixed cells' values, gathers two factors per cell from that in one
``take`` (a fixed cell's are its value and 1), multiplies them, takes
the max over the rows of the few multi-row dependent cells, weighs every
cell and sums the cells into the heads with one ``bincount`` (so each
head of a sample sums its segments in the same order as over the whole
table), and amalgamates and caps the head values. The gathered factors
and values go into work arrays the chain owns, so no cell-sized array
of a training call outlives its step. A chain keeps every step's head
values and checks their range and monotonicity once, after its last
step. The backward step takes a cell's value as its winning row's
product, scatters every cell's segment-weight gradient into the segments
with one ``bincount`` (each segment's samples in order), and scatters
each factor's gradient into the heads with one more (and two per block
of multi-row cells); a factor outside the heads scatters into a cell
that is dropped. Step 0 scatters nothing
into the heads: the start values are fixed. A step's trace keeps its
input, its factors, the winners of multi-row cells, every cell's value
and the head values.

Training batches drop the cells that cannot fire (``_prepare_batches``).
The chaining with every clause enabled, run through the same table on
boolean valuations (where its product is an AND and its max an OR),
marks the atoms that can become non-zero in each sample; any other atom
is exactly 0 under every weight, since each step is monotone and a
product with 0 stays 0. A batch's chain keeps the dependent cells live
in their own sample (a multi-row cell goes only when all its rows are
dead, so ties still pick the same row) and the fixed cells non-zero at
some step. A dropped cell is 0 at every step of its sample, so it would
add +0.0 to every sum and ±0 to every gradient, and loss and gradients
equal those of the full table bit for bit. ``ModelCompiler.compile``,
``infer`` and extraction keep every cell.

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
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .logic import (
    MAX_CLAUSE_VARS,
    Atom,
    Clause,
    GroundIndex,
    LanguageFrame,
    Predicate,
    Term,
    build_ground_index,
    format_atom,
    format_clause,
    parse_atom,
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
            raise ValueError(f"atoms both positive and negative: {both}")
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

    def to_dict(self) -> dict:
        return {
            "background": [format_atom(a) for a in self.background],
            "positive": [format_atom(a) for a in self.positive],
            "negative": [format_atom(a) for a in self.negative],
            "constants": list(self.constants),
        }

    @staticmethod
    def from_dict(d: dict, parse: Callable[[str], Atom] = parse_atom) -> "Sample":
        for key in ("background", "positive", "negative", "constants"):
            if not (isinstance(d, dict) and isinstance(d.get(key), list)
                    and all(isinstance(x, str) for x in d[key])):
                raise ValueError(f"a sample must be a JSON object, {key!r} a list of strings")
        return Sample.make(
            map(parse, d["background"]), map(parse, d["positive"]), map(parse, d["negative"]),
            d["constants"],
        )


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
        for name in ("learning_rate", "reg_lambda", "init_scale", "stop_loss"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be non-negative")
        if self.training_steps < 0:
            raise ValueError("training_steps must be non-negative")
        if self.reg_kind not in ("none", "l1", "l2"):
            raise ValueError(f"unknown reg_kind {self.reg_kind!r}")
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

    def values(
        self, a: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Segment values (S, segments) of the valuations ``a``; per block,
        the flat row (into its arrays) attaining each segment's max, the
        first one on ties; and the two body values (S, one-row segments)
        of the one-row segments."""
        one = (a.take(self.b1, axis=1), a.take(self.b2, axis=1))
        parts = [one[0] * one[1]]
        winners = []
        for b1, b2 in self.blocks:
            prod = a.take(b1, axis=1)
            prod *= a.take(b2, axis=1)
            winners.append(prod.argmax(axis=2) + np.arange(0, b1.size, b1.shape[1]))
            parts.append(prod.max(axis=2))
        return np.concatenate(parts, axis=1) if winners else parts[0], winners, one

    def subset(self, keep: np.ndarray) -> "_Table":
        """The segments ``keep`` selects, in order; a block loses a segment
        only as a whole, so every kept segment keeps its rows in order."""
        n1 = self.b1.size
        blocks, lo = [], n1
        for b1, b2 in self.blocks:
            sel = keep[lo : lo + b1.shape[0]]
            lo += b1.shape[0]
            if sel.any():
                blocks.append((b1[sel], b2[sel]))
        return _Table(self.b1[keep[:n1]], self.b2[keep[:n1]], tuple(blocks), self.key[keep])


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
    amalgamation: str
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
        amalgamation: str = "max",
        pools: Sequence[tuple[tuple[Predicate, int], Sequence[Clause]]] | None = None,
    ):
        if amalgamation not in AMALGAMATIONS:
            raise ValueError(f"unknown amalgamation {amalgamation!r}")
        self.frame = frame
        self.template = template
        self.background = tuple(background)
        self.background_pool = tuple(background_pool)
        self.amalgamation = amalgamation
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
        # the weights (_fixed_valuations), so it must not read a slot head.
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
            amalgamation=self.amalgamation,
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
    at once; the error names the first step that fails."""
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
    if left[t]:
        raise ValuationInvariantError(f"valuation left [0,1] at step {t}: min={lo[t]} max={hi[t]}")
    raise ValuationInvariantError(f"valuation decreased at step {t}")


def _amalgamate(kind: str, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold a step's derivations ``b`` into ``a``, capped at one; also
    returns where the cap bit."""
    a_new = np.maximum(a, b) if kind == "max" else a + b - a * b
    return np.minimum(a_new, 1.0), a_new > 1.0


def _fixed_valuations(model: CompiledModel, a0: np.ndarray, steps: int) -> np.ndarray:
    """Valuations (n, S, atoms) of the atoms no weight reaches, before
    each step from ``a0`` on: the background clauses chained with the
    step's amalgamation and cap, every other atom at its start value (a
    slot head's entries are its start value too; the kernel reads the
    heads from its state). Chaining stops at the background's fixpoint:
    entry ``min(t, n - 1)`` holds the valuations before step ``t``, for
    every ``t`` up to ``steps``. Checked for range and monotonicity here,
    once."""
    out = [a0]
    cols = model.static.key
    for _ in range(steps):
        old = out[-1][:, cols]
        new = _amalgamate(model.amalgamation, old, model.static.values(out[-1])[0])[0]
        if np.array_equal(new, old):
            break
        out.append(out[-1].copy())
        out[-1][:, cols] = new
    fixed = np.stack(out)
    _check_range(fixed[1:], fixed[:-1])
    return fixed


def _out_cells(model: CompiledModel, S: int) -> np.ndarray:
    """The output cell of each table segment in a flattened (S, outputs)
    array, sample after sample."""
    n_out = model.single_cols.size + 2 * model.pair_cols.size
    return (model.seg_out + n_out * np.arange(S)[:, None]).ravel()


@dataclass(frozen=True)
class _Chain:
    """A batch's chaining laid out as (sample, segment) cells.

    The step state is the values (S, H) of ``heads``, the only atoms a
    weight reaches; ``fixed`` holds the valuations of all other atoms (see
    :func:`_fixed_valuations`). A cell is a table segment in one sample;
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

    ``z``, ``x`` and ``values`` are work arrays: each chaining writes its
    steps' head values, factors and cell values into them, so no
    cell-sized array of a call outlives its step, and a step's trace
    holds until the next chaining.
    """

    model: CompiledModel
    steps: int
    heads: np.ndarray  # model.heads
    fixed: np.ndarray  # (n, S, atoms) see _fixed_valuations
    z: np.ndarray  # (steps, S * H + reads)
    rows: np.ndarray  # (2, cells)
    x: np.ndarray  # (steps, 2, cells) each step's factors, rows read from z
    values: np.ndarray  # (steps, cells) each step's cell values
    multi: _Table
    segments: np.ndarray  # the table positions of the segments with a cell
    cells: np.ndarray  # (cells,) the flat (S, segments) cell
    seg: np.ndarray  # (cells,) the cell's position in segments
    out_cells: np.ndarray  # (cells,) the flat (S, outputs) output
    # (2 * cells,) the flat cell of (2, S * H + 1) that a gradient reaches
    # from each of ``rows``: its entry of the heads, or S * H for the
    # others, in the first row for the first factor and in the second for
    # the second.
    to_heads: np.ndarray

    @staticmethod
    def build(
        model: CompiledModel, fixed: np.ndarray, steps: int, live: np.ndarray | None = None
    ) -> "_Chain":
        """The chain of ``model`` over ``steps`` steps and the fixed
        valuations ``fixed``. With ``live`` (S, segments) it keeps only the
        dependent cells ``live`` marks and the fixed cells that are non-zero
        at some step; without, every cell."""
        S, g = fixed.shape[1:]
        n = min(len(fixed), steps)
        table, heads = model.table, model.heads
        H = heads.size
        head_col = np.full(g, H)
        head_col[heads] = np.arange(H)
        is_head = head_col < H
        dep_blocks = [(is_head[b1] | is_head[b2]).any(axis=1) for b1, b2 in table.blocks]
        dep = np.concatenate([is_head[table.b1] | is_head[table.b2], *dep_blocks])
        keep = np.ones((S, dep.size), dtype=bool) if live is None else live.copy()

        fix = ~dep & keep.any(axis=0)
        seg_values = table.subset(fix).values(fixed[:n].reshape(n * S, g))[0].reshape(n, S, -1)
        if live is not None:
            keep[:, fix] = seg_values.any(axis=0)
        cells = np.flatnonzero(keep)
        sample, seg = np.divmod(cells, dep.size)
        fixed_cells = np.flatnonzero(~dep[seg])
        fixed_values = seg_values[:, sample[fixed_cells], np.cumsum(fix)[seg[fixed_cells]] - 1]

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
        return _Chain(
            model=model,
            steps=steps,
            heads=heads,
            fixed=fixed,
            z=np.concatenate((np.zeros((steps, S * H)), reads[np.minimum(np.arange(steps), n - 1)]),
                             axis=1),
            rows=rows,
            x=np.empty((steps, *rows.shape)),
            values=np.empty((steps, cells.size)),
            multi=_Table(no_rows, no_rows, blocks, multi_cells),
            segments=segments,
            cells=cells,
            seg=local,
            out_cells=_out_cells(model, S)[cells],
            to_heads=(np.minimum(rows, S * H) + [[0], [S * H + 1]]).ravel(),
        )

    def weigh(self, seg_w: np.ndarray) -> np.ndarray:
        """Each cell's weight, of the table segment weights ``seg_w``."""
        return seg_w.take(self.segments).take(self.seg)

    def valuation(self, t: int, a: np.ndarray) -> np.ndarray:
        """The whole valuation (S, atoms) before step ``t`` (after the last
        step if ``t`` is the step count) when the heads hold ``a``."""
        x = self.fixed[min(t, len(self.fixed) - 1)].copy()
        x[:, self.heads] = a
        return x


@dataclass
class _StepTrace:
    a: np.ndarray  # the step's input head values
    z: np.ndarray  # and what its cells read
    x: np.ndarray  # (2, cells) the factors of each cell's value
    winners: list[np.ndarray]  # per block of multi-row cells, each one's winning row
    values: np.ndarray  # every cell's value
    out: np.ndarray
    b: np.ndarray
    over_one: np.ndarray


def _segment_weights(model: CompiledModel, probs: Sequence[np.ndarray]) -> np.ndarray:
    """Each table segment's clause probability."""
    return np.concatenate([np.zeros(0), *probs])[model.seg_weight]


def _step(
    chain: _Chain, w: np.ndarray, t: int, a: np.ndarray
) -> tuple[np.ndarray, _StepTrace]:
    """Step ``t`` from the head values ``a``, with the cell weights ``w``."""
    model = chain.model
    S = a.shape[0]
    z = chain.z[t]
    z[: a.size] = a.ravel()
    x = z.take(chain.rows, out=chain.x[t], mode="clip")
    values = np.multiply(x[0], x[1], out=chain.values[t])
    winners = []
    if chain.multi.blocks:
        v, winners = chain.multi.values(z[None])[:2]
        values[chain.multi.key] = v.ravel()
    n1, n2 = model.single_cols.size, model.pair_cols.size
    n_out = n1 + 2 * n2
    out = np.bincount(chain.out_cells, weights=values * w, minlength=S * n_out).reshape(S, n_out)
    b = out
    if n2:
        s0, s1 = out[:, n1 : n1 + n2], out[:, n1 + n2 :]
        b = np.concatenate((out[:, :n1], s0 + s1 - s0 * s1), axis=1)
    a_new, over_one = _amalgamate(model.amalgamation, a, b)
    return a_new, _StepTrace(a, z, x, winners, values, out, b, over_one)


def _chain(
    chain: _Chain, w: np.ndarray, traces: list[_StepTrace] | None = None
) -> np.ndarray:
    """Chain every step from the start values with the cell weights ``w``;
    returns the whole valuation after the last step and appends each
    step's trace to ``traces`` if given. The head values of every step are
    checked for range and monotonicity once, after the last step."""
    global VALUATION_CHECKS
    steps = chain.steps
    states = np.empty((steps + 1, chain.fixed.shape[1], chain.heads.size))
    states[0] = chain.fixed[0][:, chain.heads]
    for t in range(steps):
        states[t + 1], trace = _step(chain, w, t, states[t])
        if traces is not None:
            traces.append(trace)
    _check_range(states[1:], states[:-1])
    VALUATION_CHECKS += steps
    return chain.valuation(steps, states[steps])


def _backward_step(
    chain: _Chain,
    w: np.ndarray,
    trace: _StepTrace,
    da_new: np.ndarray,
    dseg: np.ndarray,
    heads: bool = True,
) -> np.ndarray | None:
    """Gradient w.r.t. a step's input head values (None unless ``heads``);
    adds each of ``chain.segments``' d(loss)/d(segment weight) into
    ``dseg``. ``w`` holds the cell weights."""
    model = chain.model
    a, b = trace.a, trace.b
    S = a.shape[0]
    n1, n2 = model.single_cols.size, model.pair_cols.size
    H = n1 + n2
    da_new = np.where(trace.over_one, 0.0, da_new)
    if model.amalgamation == "max":
        take_b = b > a
        db = np.where(take_b, da_new, 0.0)
        da = np.where(take_b, 0.0, da_new)
    else:
        db = da_new * (1.0 - a)
        da = da_new * (1.0 - b)
    dout = db
    if n2:
        dy, pair = db[:, n1:], trace.out[:, n1:]
        dout = np.concatenate((db[:, :n1], dy * (1.0 - pair[:, n2:]), dy * (1.0 - pair[:, :n2])),
                              axis=1)
    dv = dout.take(chain.out_cells)
    # A cell's value is its winning row's x1 * x2, so (x1 * x2) * dv comes
    # first, and clauses whose rows read the same values in either order
    # get bit-equal sums.
    dseg += np.bincount(chain.seg, weights=trace.values * dv, minlength=dseg.size)
    if not heads:
        return None
    dv *= w
    # Each factor's gradient is the other factor times dv; a factor
    # outside the heads scatters into a cell that is dropped.
    SH = S * H
    d = np.bincount(chain.to_heads, weights=(trace.x[::-1] * dv).ravel(), minlength=2 * SH + 2)
    da += d[:SH].reshape(S, H)
    da += d[SH + 1 : 2 * SH + 1].reshape(S, H)
    lo = 0
    for (b1, b2), won in zip(chain.multi.blocks, trace.winners):
        c1, c2 = b1.take(won).ravel(), b2.take(won).ravel()
        hi = lo + c1.size
        dvw = dv.take(chain.multi.key[lo:hi])
        da += np.bincount(np.minimum(c1, SH), weights=trace.z.take(c2) * dvw,
                          minlength=SH + 1)[:SH].reshape(S, H)
        da += np.bincount(np.minimum(c2, SH), weights=trace.z.take(c1) * dvw,
                          minlength=SH + 1)[:SH].reshape(S, H)
        lo = hi
    return da


def _clause_grads(chain: _Chain, dseg: np.ndarray) -> np.ndarray:
    """Sum the gradients of ``chain.segments`` per clause over the dense
    (clause, head) layout, so clauses equal on the data get bit-equal
    gradients."""
    model = chain.model
    dense = np.bincount(model.table.key[chain.segments], weights=dseg, minlength=model.n_dense)
    if not model.clause_starts.size:
        return np.zeros(0)
    return np.add.reduceat(dense, model.clause_starts)


def _infer(model: CompiledModel, seg_w: np.ndarray, a0: np.ndarray, steps: int) -> np.ndarray:
    """The valuations (S, atoms) ``steps`` chained steps after ``a0``."""
    chain = _Chain.build(model, _fixed_valuations(model, a0, steps), steps)
    return _chain(chain, chain.weigh(seg_w))


def infer(model: CompiledModel, weights: Sequence[np.ndarray], sample: Sample) -> np.ndarray:
    """The valuation over ``model.index`` after ``forward_steps`` chained
    deduction steps from the background (entry 0 stays 0)."""
    if tuple(sample.constants) != model.index.constants:
        raise ValueError(
            "sample constants do not match this compiled model; "
            "compile it with ModelCompiler.compile(sample.constants)"
        )
    seg_w = _segment_weights(model, probabilities(weights))
    return _infer(model, seg_w, _start_values(model, [sample]), model.forward_steps)[0]


# ---------------------------------------------------------------------------
# Loss and gradient.

@dataclass(frozen=True)
class _Batch:
    chain: _Chain
    rows: np.ndarray  # per labeled atom: its sample,
    cells: np.ndarray  # its atom,
    positive: np.ndarray  # whether it is positive,
    scale: np.ndarray  # and its loss weight


def _live_segments(model: CompiledModel, fixed: np.ndarray) -> np.ndarray:
    """Which table segments (S, segments) some weight can make non-zero in
    each sample.

    The chaining with every clause enabled, on boolean valuations: an atom
    is reachable if it starts above zero, if a segment into it has a row
    whose two body atoms are reachable (``_Table.values`` on booleans;
    two slots combine by OR), or, for an atom no weight reaches, if its
    fixed valuation is above zero. The segments live under the valuation
    that enters the last step are returned; the pass stops early once
    reachability no longer changes and covers every fixed valuation still
    to come.
    """
    steps, S = model.forward_steps, fixed.shape[1]
    n1, n2 = model.single_cols.size, model.pair_cols.size
    flat_out = _out_cells(model, S)
    known = fixed > 0
    last = known[min(steps - 1, len(known) - 1)]
    reach = known[0]
    live = model.table.values(reach)[0]
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
        live = model.table.values(reach)[0]
    return live


def _batch(
    model: CompiledModel, group: Sequence[Sample], fixed: np.ndarray, n_samples: int,
    live: np.ndarray | None = None,
) -> _Batch:
    """The batch of ``group`` on ``model``, over the fixed valuations
    ``fixed`` and, if given, only the cells ``live`` keeps (see
    :meth:`_Chain.build`); each sample's labels share a weight of
    1 / ``n_samples``."""
    labels = [
        (si, model.index.index_of(a), positive,
         1.0 / ((len(s.positive) + len(s.negative)) * n_samples))
        for si, s in enumerate(group)
        for positive, atoms in ((True, s.positive), (False, s.negative))
        for a in atoms
    ]
    rows, cells, positive, scale = map(np.asarray, zip(*labels))
    chain = _Chain.build(model, fixed, model.forward_steps, live)
    return _Batch(chain, rows, cells, positive, scale)


def _prepare_batches(compiler: ModelCompiler, samples: Sequence[Sample]) -> list[_Batch]:
    groups: dict[tuple[str, ...], list[Sample]] = {}
    for s in samples:
        if not s.positive and not s.negative:
            raise ValueError("sample has no positive or negative atoms")
        groups.setdefault(tuple(s.constants), []).append(s)
    batches = []
    for consts, group in groups.items():
        model = compiler.compile(consts)
        fixed = _fixed_valuations(model, _start_values(model, group), model.forward_steps)
        batches.append(_batch(model, group, fixed, len(samples), _live_segments(model, fixed)))
    return batches


def _data_loss(batch: _Batch, xT: np.ndarray) -> float:
    x = np.clip(xT[batch.rows, batch.cells], LOG_EPS, 1.0 - LOG_EPS)
    return float(-(batch.scale * np.where(batch.positive, np.log(x), np.log1p(-x))).sum())


def _data_loss_backward(batch: _Batch, xT: np.ndarray) -> np.ndarray:
    x = xT[batch.rows, batch.cells]
    inside = (x > LOG_EPS) & (x < 1.0 - LOG_EPS)
    # -s/x on a positive, s/(1-x) on a negative; (-s)/x has the bits of
    # -(s/x). Sample.make keeps a sample's labeled atoms distinct and its
    # positives and negatives disjoint, so no cell is assigned twice.
    dx = np.zeros_like(xT)
    dx[batch.rows, batch.cells] = np.where(
        inside,
        np.where(batch.positive, -batch.scale, batch.scale)
        / np.clip(np.where(batch.positive, x, 1.0 - x), LOG_EPS, None),
        0.0,
    )
    return dx


def _reg_value(weights: Sequence[np.ndarray], hp: Hyperparams) -> float:
    if hp.reg_kind == "none" or hp.reg_lambda == 0.0:
        return 0.0
    total = 0.0
    for v in weights:
        total += float(np.abs(v).sum() if hp.reg_kind == "l1" else (v * v).sum())
    return hp.reg_lambda * total


def _reg_grad(weights: Sequence[np.ndarray], hp: Hyperparams) -> list[np.ndarray]:
    if hp.reg_kind == "none" or hp.reg_lambda == 0.0:
        return [np.zeros_like(v) for v in weights]
    if hp.reg_kind == "l1":
        return [hp.reg_lambda * np.sign(v) for v in weights]
    return [2.0 * hp.reg_lambda * v for v in weights]


def loss(
    compiler: ModelCompiler,
    weights: Sequence[np.ndarray],
    samples: Sequence[Sample],
    hp: Hyperparams,
    batches: Sequence[_Batch] | None = None,
) -> float:
    """Mean per-sample normalized cross-entropy plus the weight penalty."""
    probs = probabilities(weights)
    total = 0.0
    for batch in batches or _prepare_batches(compiler, samples):
        chain = batch.chain
        total += _data_loss(batch, _chain(chain, chain.weigh(_segment_weights(chain.model, probs))))
    return total + _reg_value(weights, hp)


def loss_and_grad(
    compiler: ModelCompiler,
    weights: Sequence[np.ndarray],
    samples: Sequence[Sample],
    hp: Hyperparams,
    batches: Sequence[_Batch] | None = None,
) -> tuple[float, list[np.ndarray]]:
    """:func:`loss` and its exact reverse-mode gradient w.r.t. raw weights."""
    probs = probabilities(weights)
    dclause = np.zeros(sum(p.size for p in probs))
    total = 0.0
    for batch in batches or _prepare_batches(compiler, samples):
        chain = batch.chain
        w = chain.weigh(_segment_weights(chain.model, probs))
        traces: list[_StepTrace] = []
        x = _chain(chain, w, traces)
        total += _data_loss(batch, x)
        da = _data_loss_backward(batch, x)[:, chain.heads]
        dseg = np.zeros(chain.segments.size)
        # Step 0's input gradient is not needed: the start values are fixed.
        for t in reversed(range(len(traces))):
            da = _backward_step(chain, w, traces[t], da, dseg, heads=t > 0)
        dclause += _clause_grads(chain, dseg)
    dprobs = np.split(dclause, np.cumsum([p.size for p in probs])[:-1])
    grads = [
        _softmax_backward(p, dp) for p, dp in zip(probs, dprobs)
    ]
    reg = _reg_grad(weights, hp)
    grads = [g + r for g, r in zip(grads, reg)]
    return total + _reg_value(weights, hp), grads


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
    batches = _prepare_batches(compiler, samples)
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
            "frame": {
                "targets": [[p.name, p.arity] for p in c.frame.targets],
                "extensional": [[p.name, p.arity] for p in c.frame.extensional],
            },
            "template": template_to_dict(c.template),
            "background": [format_clause(x) for x in c.background],
            "background_pool": [[p.name, p.arity] for p in c.background_pool],
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
            "hyperparams": self.hyperparams.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "TrainedModel":
        """The model a file's fields describe: its compiler is rebuilt from
        the frame, template, background, background pool and amalgamation,
        and the slot clause lists must equal that compiler's pools. A
        ``ValueError`` names the first missing or malformed field."""
        if not isinstance(d, dict):
            raise ValueError("a model must be a JSON object")

        def read(name: str, parse: Callable, *default):
            if name not in d and not default:
                raise ValueError(f"model lacks field {name!r}")
            try:
                return parse(d.get(name, *default))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"model field {name!r}: {type(exc).__name__}: {exc}") from exc

        def predicates(pairs) -> tuple[Predicate, ...]:
            return tuple(Predicate(n, a) for n, a in pairs)

        def slot(s: dict) -> tuple[tuple[Predicate, int], tuple[Clause, ...], np.ndarray]:
            if type(s["slot"]) is not int:
                raise ValueError(f"'slot' must be a JSON integer, not {s['slot']!r}")
            key = (Predicate(*s["predicate"]), s["slot"])
            clauses = tuple(parse_clause(t) for t in s["clauses"])
            vec = np.asarray(s["raw_weights"], dtype=np.float64)
            if vec.shape != (len(clauses),):
                raise ValueError(f"{key[0]} slot {key[1]}: {len(clauses)} clauses "
                                 f"but raw_weights of shape {vec.shape}")
            return key, clauses, vec

        frame = read("frame", lambda f: LanguageFrame(
            targets=predicates(f["targets"]), extensional=predicates(f["extensional"])))
        slots = read("slots", lambda ss: [slot(s) for s in ss])
        template = read("template", template_from_dict)
        background = read("background", lambda cs: tuple(parse_clause(t) for t in cs))
        pool = read("background_pool", predicates, [])
        loss_trace = read("loss_trace", lambda xs: [float(x) for x in xs])
        hp = read("hyperparams", Hyperparams.from_dict)
        try:
            compiler = ModelCompiler(frame, template, background, pool, hp.amalgamation)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"model fields do not describe a model: {exc}") from exc
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


def train(
    frame: LanguageFrame,
    samples: Sequence[Sample],
    template: ProgramTemplate,
    hp: Hyperparams,
    background: Sequence[Clause] = (),
    background_pool: Sequence[Predicate] = (),
) -> TrainedModel:
    """Full-batch gradient descent with per-parameter accumulated-square
    step scaling; deterministic given the seed."""
    if not samples:
        raise ValueError("no samples")
    targets = set(frame.targets)
    for s in samples:
        for a in (*s.positive, *s.negative):
            if a.predicate not in targets:
                raise ValueError(
                    f"labeled atom {format_atom(a)} is not a target predicate"
                )
    compiler = ModelCompiler(
        frame,
        template,
        background,
        background_pool,
        amalgamation=hp.amalgamation,
    )
    weights = compiler.init_weights(hp.seed, hp.init_scale)
    acc = [np.zeros_like(v) for v in weights]
    trace: list[float] = []
    batches = _prepare_batches(compiler, samples)
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
