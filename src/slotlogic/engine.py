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
head atom) cell of a slot. A table holds its rows segment after segment
and each segment's first row (``_Table``), so a forward step is one
gather-multiply over the rows, one ``maximum.reduceat`` over the
segments, and one weighted ``bincount`` into the head atoms.

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
takes a cell's value as its winning row's product, adds every cell's
clause-weight gradient into its clause with one ``bincount`` (each
clause's cells in chain order), and scatters each factor's gradient into
the heads with one more (and two more for the multi-row cells); a factor
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
clauses in order, and ``_Table.winners`` returns the first row that
reaches the max). A clause's gradient is the sum of its cells' terms,
step by step from the last and each step's in chain order, so clauses
that agree on the data sum equal sequences and stay exactly tied.
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


def probabilities(w: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Each clause's probability: the softmax of the raw weights ``w`` over
    its pool, ``pool`` the pool numbers (``ModelCompiler.pool``)."""
    # fmax passes over a NaN weight, which still makes its pool NaN below.
    top = np.full(pool[-1] + 1 if pool.size else 0, -np.inf)
    np.fmax.at(top, pool, w)
    z = np.exp(w - top[pool])
    return z / np.bincount(pool, weights=z)[pool]


def _softmax_backward(p: np.ndarray, dp: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """The gradient w.r.t. the raw weights, from the gradient ``dp`` w.r.t.
    the probabilities ``p`` (:func:`probabilities` over ``pool``)."""
    pdp = p * dp
    return pdp - p * np.bincount(pool, weights=pdp)[pool]


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
    """Grounding rows grouped into max-segments.

    A segment's value is the max over its rows of ``a[b1] * a[b2]``, where
    ``b1``/``b2`` are a row's body atom indices. Rows run segment after
    segment, in order of the segments' ``key``; segment ``i``'s rows run
    from ``starts[i]`` to the next segment's start.
    """

    b1: np.ndarray
    b2: np.ndarray
    starts: np.ndarray
    key: np.ndarray

    @staticmethod
    def build(key: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> "_Table":
        """One segment per distinct key; rows keep their order within it."""
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(first)
        return _Table(b1[order], b2[order], starts, key[starts])

    def values(self, a: np.ndarray) -> np.ndarray:
        """Segment values (..., segments) of the valuations ``a`` (..., atoms)."""
        return np.maximum.reduceat(a.take(self.b1, axis=-1) * a.take(self.b2, axis=-1),
                                   self.starts, axis=-1)

    def winners(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`values`, and each segment's first row attaining its max
        (in a NaN segment, its first NaN row)."""
        prod = a.take(self.b1, axis=-1) * a.take(self.b2, axis=-1)
        top = np.maximum.reduceat(prod, self.starts, axis=-1)
        won = prod == top.repeat(np.diff(self.starts, append=prod.shape[-1]), axis=-1)
        won |= np.isnan(prod)
        rows = np.where(won, np.arange(prod.shape[-1]), prod.shape[-1])
        return top, np.minimum.reduceat(rows, self.starts, axis=-1)


@dataclass(frozen=True)
class CompiledModel:
    """Grounded clause tables for one constant list; immutable.

    ``table`` holds the grounding rows of the slot clauses. Segment ``i``
    is the (clause, head atom) pair ``divmod(table.key[i], len(index))``,
    so segments run clause after clause, each clause's in head order,
    whatever their row counts; it adds its value, times the
    probability of clause ``seg_weight[i]``, into output ``seg_out[i]``.
    The outputs are the head atoms ``single_cols``, then the head atoms
    ``pair_cols`` once per slot of a two-slot predicate, merged by
    probabilistic sum. ``static`` holds every background row, one segment
    per head atom: background reads only extensional atoms and background
    heads, so it is chained once per batch. ``pool`` is ``ModelCompiler.pool``.
    """

    index: GroundIndex
    slot_groups: tuple[_Slot, ...]
    pool: np.ndarray
    forward_steps: int
    table: _Table
    seg_out: np.ndarray
    seg_weight: np.ndarray
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
        self._slots_of: dict[Predicate, list[int]] = {}  # each predicate's pools
        for j, ((p, k), _) in enumerate(self.pools):
            self._slots_of.setdefault(p, []).append(j)
            if len(self._slots_of[p]) > 2 or (p, k) in [key for key, _ in self.pools[:j]]:
                raise ValueError(f"pools give {p} slot {k} twice or a third slot")
        #: each clause's pool number; clauses run pool after pool
        self.pool = np.repeat(np.arange(len(self.pools)), [len(cs) for _, cs in self.pools])
        if self.pool.size > CLAUSE_BUDGET:
            raise ClauseBudgetError(self.pool.size, CLAUSE_BUDGET)

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

    def init_weights(self, seed: int = 0, scale: float = 0.1) -> np.ndarray:
        """Raw weights, one per clause: ``scale`` times standard normal draws."""
        return np.random.default_rng(seed).standard_normal(self.pool.size) * scale

    def per_pool(self, v: np.ndarray) -> list[np.ndarray]:
        """A per-clause vector ``v`` cut into one slice per pool."""
        return np.split(v, np.cumsum([len(cs) for _, cs in self.pools])[:-1])

    def compile(self, constants: Sequence[str]) -> CompiledModel:
        key = tuple(constants)
        if key in self._cache:
            return self._cache[key]
        index = build_ground_index(self.predicates, key)

        def span(p: Predicate) -> np.ndarray:
            return np.arange(*index.ranges[p], dtype=np.int64)

        # Outputs: the head atoms of one-slot predicates, then those of
        # two-slot predicates once per slot.
        singles = [p for p, js in self._slots_of.items() if len(js) == 1]
        pairs = [p for p, js in self._slots_of.items() if len(js) == 2]
        out_start: dict[tuple[Predicate, int], int] = {}
        n_out = 0
        for p, which in [(p, 0) for p in singles] + [
            (p, which) for which in (0, 1) for p in pairs
        ]:
            out_start[p, which] = n_out
            n_out += span(p).size

        # A row's key is its (clause, head atom) pair, clause * len(index)
        # + head, so segments run clause after clause; a pool's out_shift
        # takes its clauses' head atoms to its outputs.
        no_cells = np.zeros(0, dtype=np.int64)
        out_shift = np.array([out_start[p, self._slots_of[p].index(j)] - index.ranges[p][0]
                              for j, ((p, _), _) in enumerate(self.pools)], dtype=np.int64)
        rows, counts = self._slot_shapes.ground(index)
        table = _Table.build(np.repeat(np.arange(counts.size), counts) * len(index) + rows[:, 0],
                             rows[:, 1], rows[:, 2])
        clause, head = np.divmod(table.key, len(index))
        static = self._background_shapes.ground(index)[0]
        model = CompiledModel(
            index=index,
            slot_groups=tuple(_Slot(pred, tuple(cs)) for (pred, _), cs in self.pools),
            pool=self.pool,
            forward_steps=self.template.forward_steps,
            table=table,
            seg_out=out_shift[self.pool[clause]] + head,
            seg_weight=clause,
            single_cols=np.concatenate([no_cells, *map(span, singles)]),
            pair_cols=np.concatenate([no_cells, *map(span, pairs)]),
            static=_Table.build(static[:, 0], static[:, 1], static[:, 2]),
        )
        self._cache[key] = model
        return model


# ---------------------------------------------------------------------------
# Forward pass.

def _start_values(model: CompiledModel, samples: Sequence[Sample]) -> np.ndarray:
    """Start valuations (S, atoms): background atoms 1, everything else 0.
    A background atom of a predicate the model does not declare raises
    ``ValueError``."""
    a0 = np.zeros((len(samples), len(model.index)))
    for si, s in enumerate(samples):
        for a in s.background:
            if a.predicate not in model.index.ranges:
                raise ValueError(f"background atom {format_atom(a)}: {a.predicate} is "
                                 "not a declared predicate of the model")
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
        live = model.table.values(reach)
        if len(seg_values) < len(fixed):
            seg_values.append(live)
        hit = np.zeros(S * (n1 + 2 * n2), dtype=bool)
        hit[flat_out[live.ravel()]] = True
        hit = hit.reshape(S, -1)
        b = reach.copy()
        b[:, cols] |= model.static.values(reach)
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
    the whole table, and the backward step's sum into a clause adds its
    cells in the order of the whole table's (sample, segment) cells.

    Step ``t``'s cells read ``z[t]``: the step's head values, flattened,
    then the fixed atom values the dependent cells' rows read, the value
    of every fixed cell, 1 and 0. A *fixed* cell's segment reads no head,
    so its value is the same under every weight and is computed once, for
    each distinct step input. A cell's value is the product of the two
    entries of ``z[t]`` that ``rows`` names: a one-row dependent cell's
    body values, a fixed cell's value and 1, or, for a multi-row
    dependent cell, 0 and 0; the max over the rows of those is taken by
    ``multi``, one table over ``z[t]`` of every multi-row dependent cell's
    rows, whatever their count, whose ``key`` holds the cells' positions
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
    out_cells: np.ndarray  # (cells,) the flat (S, outputs) output
    # (2 * cells,) the flat cell of (2, S * H + 1) that a gradient reaches
    # from each of ``rows``: its entry of the heads, or S * H for the
    # others, in the first row for the first factor and in the second for
    # the second.
    to_heads: np.ndarray
    z: np.ndarray  # (steps + 1, S * H + reads)
    states: np.ndarray  # (steps + 1, S, H) a view of z's head values
    x: np.ndarray  # (steps, 2, cells) the factors, rows read from z
    winners: np.ndarray  # (steps, multi cells) each one's winning row of multi
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
        dep = np.logical_or.reduceat(is_head[table.b1] | is_head[table.b2], table.starts)
        sizes = np.diff(table.starts, append=table.b1.size)
        cells = np.flatnonzero(live)
        sample, seg = np.divmod(cells, dep.size)
        fixed_cells = np.flatnonzero(~dep[seg])
        fixed_values = seg_values[:, sample[fixed_cells], seg[fixed_cells]]

        # The dependent cells' rows: a one-row cell's, and every multi-row
        # cell's rows, cell after cell, in ``multi``.
        one = np.flatnonzero(dep[seg] & (sizes[seg] == 1))
        r = table.starts[seg[one]]
        s, b1, b2 = sample[one], table.b1[r], table.b2[r]
        multi_cells = np.flatnonzero(dep[seg] & (sizes[seg] > 1))
        m_sizes = sizes[seg[multi_cells]]
        m_starts = np.cumsum(m_sizes) - m_sizes
        r = np.repeat(table.starts[seg[multi_cells]] - m_starts, m_sizes) + np.arange(m_sizes.sum())
        ms, m1, m2 = np.repeat(sample[multi_cells], m_sizes), table.b1[r], table.b2[r]
        read = np.unique(np.concatenate([(x * g + b)[~is_head[b]]
                                         for x, b in ((s, b1), (s, b2), (ms, m1), (ms, m2))]))

        def z(s, b):
            return np.where(is_head[b], s * H + head_col[b],
                            S * H + np.searchsorted(read, s * g + b))

        # Fixed cells read their value and 1, multi-row ones 0 and 0.
        rows = np.empty((2, cells.size), dtype=np.int64)
        one_at = S * H + read.size + fixed_cells.size
        rows[0, fixed_cells] = S * H + read.size + np.arange(fixed_cells.size)
        rows[1, fixed_cells] = one_at
        rows[:, multi_cells] = one_at + 1
        rows[:, one] = z(s, b1), z(s, b2)
        multi = _Table(z(ms, m1), z(ms, m2), m_starts, multi_cells)
        reads = np.concatenate((fixed[:n].reshape(n, S * g)[:, read], fixed_values,
                                np.ones((n, 1)), np.zeros((n, 1))), axis=1)
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
            multi=multi,
            cells=cells,
            clause=model.seg_weight[seg],
            out_cells=_out_cells(model, S)[cells],
            to_heads=(np.minimum(rows, S * H) + [[0], [S * H + 1]]).ravel(),
            z=z,
            states=states,
            x=np.empty((steps, *rows.shape)),
            winners=np.empty((steps, multi_cells.size), dtype=np.int64),
            values=np.empty((steps, cells.size)),
            out=out,
            b=np.empty((steps, S, H)) if model.pair_cols.size else out,
            over_one=np.empty((steps, S, H), dtype=bool),
        )

    def weigh(self, probs: np.ndarray) -> np.ndarray:
        """Each cell's weight: its clause's probability in ``probs``."""
        return probs.take(self.clause)

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
    if chain.multi.key.size:
        values[chain.multi.key], chain.winners[t] = chain.multi.winners(z)
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
    chain: _Chain, w: np.ndarray, t: int, da_new: np.ndarray, dclause: np.ndarray
) -> np.ndarray | None:
    """Gradient w.r.t. step ``t``'s input head values, from its record in
    ``chain`` (None for step 0, whose input is the fixed start values);
    adds the step's d(loss)/d(clause probability) into ``dclause``, each
    clause's cells in chain order. ``w`` holds the cell weights."""
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
    dclause += np.bincount(chain.clause, weights=chain.values[t] * dv, minlength=dclause.size)
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
    if chain.multi.key.size:
        z, multi, won = chain.z[t], chain.multi, chain.winners[t]
        c1, c2 = multi.b1.take(won), multi.b2.take(won)
        dvw = dv.take(multi.key)
        da += np.bincount(np.minimum(c1, SH), weights=z.take(c2) * dvw,
                          minlength=SH + 1)[:SH].reshape(S, H)
        da += np.bincount(np.minimum(c2, SH), weights=z.take(c1) * dvw,
                          minlength=SH + 1)[:SH].reshape(S, H)
    return da


def _chain_for(model: CompiledModel, a0: np.ndarray, amalgamation: str) -> _Chain:
    """The chain of ``model`` from the start valuations ``a0`` under
    ``amalgamation``, keeping the cells some weight can make non-zero."""
    return _Chain.build(model, *_reachable(model, a0), amalgamation)


def infer(model: CompiledModel, weights: np.ndarray, sample: Sample, hp: Hyperparams) -> np.ndarray:
    """The valuation over ``model.index`` after ``forward_steps`` chained
    deduction steps from the background (entry 0 stays 0), under the
    hyperparameters ``hp`` the weights were trained with (for a trained
    model, its ``hyperparams``)."""
    if tuple(sample.constants) != model.index.constants:
        raise ValueError("sample constants do not match this compiled model; "
                         "compile it with ModelCompiler.compile(sample.constants)")
    chain = _chain_for(model, _start_values(model, [sample]), hp.amalgamation)
    return _chain(chain, chain.weigh(probabilities(weights, model.pool)))[0]


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


def _penalty(w: np.ndarray, hp: Hyperparams) -> tuple[float, np.ndarray | float]:
    """The weight penalty and its gradient (0.0 when there is none)."""
    if hp.reg_lambda == 0.0:
        return 0.0, 0.0
    if hp.reg_kind == "l1":
        return hp.reg_lambda * float(np.abs(w).sum()), hp.reg_lambda * np.sign(w)
    return hp.reg_lambda * float((w * w).sum()), 2.0 * hp.reg_lambda * w


def _loss_pass(
    compiler: ModelCompiler,
    weights: np.ndarray,
    samples: Sequence[Sample],
    hp: Hyperparams,
    batches: Sequence[_Batch] | None,
    grad: bool,
) -> tuple[float, np.ndarray | None]:
    """:func:`loss` over ``batches`` (prepared from ``samples`` when None)
    and, if ``grad``, its reverse-mode gradient w.r.t. the raw weights."""
    probs = probabilities(weights, compiler.pool)
    dclause = np.zeros(probs.size)
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
        for t in reversed(range(chain.model.forward_steps)):
            da = _backward_step(chain, w, t, da, dclause)
    penalty, dpenalty = _penalty(weights, hp)
    if not grad:
        return total + penalty, None
    return total + penalty, _softmax_backward(probs, dclause, compiler.pool) + dpenalty


def loss(
    compiler: ModelCompiler,
    weights: np.ndarray,
    samples: Sequence[Sample],
    hp: Hyperparams,
    batches: Sequence[_Batch] | None = None,
) -> float:
    """Mean per-sample normalized cross-entropy plus the weight penalty."""
    return _loss_pass(compiler, weights, samples, hp, batches, grad=False)[0]


def loss_and_grad(
    compiler: ModelCompiler,
    weights: np.ndarray,
    samples: Sequence[Sample],
    hp: Hyperparams,
    batches: Sequence[_Batch] | None = None,
) -> tuple[float, np.ndarray]:
    """:func:`loss` and its exact reverse-mode gradient w.r.t. raw weights."""
    return _loss_pass(compiler, weights, samples, hp, batches, grad=True)


def finite_difference_grad(
    compiler: ModelCompiler,
    weights: np.ndarray,
    samples: Sequence[Sample],
    hp: Hyperparams,
    h: float = 1e-4,
) -> np.ndarray:
    """Central finite differences of :func:`loss`; the gradient oracle."""
    w = np.array(weights, dtype=np.float64)
    grad = np.zeros_like(w)
    batches = _prepare_batches(compiler, samples, hp)
    for i, x in enumerate(w.tolist()):
        w[i] = x + h
        up = loss(compiler, w, samples, hp, batches)
        w[i] = x - h
        down = loss(compiler, w, samples, hp, batches)
        w[i] = x
        grad[i] = (up - down) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# Task files: a compiler and the hyperparameters to train it with.

def _read_field(d: dict, name: str, parse: Callable, *default):
    if name not in d and not default:
        raise ValueError(f"model lacks field {name!r}")
    try:
        return parse(d.get(name, *default))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"model field {name!r}: {type(exc).__name__}: {exc}") from exc


def _numbers(xs, what: str) -> list[float]:
    if isinstance(xs, list) and all(type(x) in (int, float) for x in xs):  # not bool
        return [float(x) for x in xs]
    raise ValueError(f"{what} must be a list of JSON numbers")


def task_to_dict(compiler: ModelCompiler, hp: Hyperparams) -> dict:
    """The fields that :func:`task_from_dict` reads. A compiler whose pools
    are not those its template, frame and background pool generate raises
    ``ValueError``: no task file describes it."""
    if compiler.pools != slot_clause_pools(compiler.template, compiler.frame,
                                           compiler.background_pool):
        raise ValueError("the compiler's clause pools are not those its template, frame "
                         "and background pool generate, so no task file describes it")
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
    """A compiler and its raw weights, one per clause (``compiler.pool``)."""

    compiler: ModelCompiler
    weights: np.ndarray
    loss_trace: list[float]
    hyperparams: Hyperparams

    @property
    def final_loss(self) -> float:
        return self.loss_trace[-1] if self.loss_trace else math.inf

    def probabilities(self) -> np.ndarray:
        return probabilities(self.weights, self.compiler.pool)

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
                in zip(c.pools, c.per_pool(self.weights), c.per_pool(self.probabilities()))
            ],
            "loss_trace": [float(x) for x in self.loss_trace],
        }

    @staticmethod
    def from_dict(d: dict) -> "TrainedModel":
        """The file's task (:func:`task_from_dict`) with the slot weights
        and loss trace; the slot clause lists must equal the task's pools."""
        compiler, hp = task_from_dict(d)

        def slot(s: dict) -> tuple[tuple[Predicate, int], tuple[Clause, ...], list[float]]:
            if type(s["slot"]) is not int:
                raise ValueError(f"'slot' must be a JSON integer, not {s['slot']!r}")
            key = (Predicate(*s["predicate"]), s["slot"])
            clauses = tuple(parse_clause(t) for t in s["clauses"])
            vec = _numbers(s["raw_weights"], f"{key[0]} slot {key[1]}: raw_weights")
            if len(vec) != len(clauses):
                raise ValueError(f"{key[0]} slot {key[1]}: {len(clauses)} clauses "
                                 f"but {len(vec)} raw_weights")
            if not all(map(math.isfinite, vec)):
                raise ValueError(f"{key[0]} slot {key[1]}: raw_weights must be finite numbers")
            return key, clauses, vec

        slots = _read_field(d, "slots", lambda ss: [slot(s) for s in ss])
        loss_trace = _read_field(d, "loss_trace", lambda xs: _numbers(xs, "loss_trace"))
        if [(key, clauses) for key, clauses, _ in slots] != [
            (key, tuple(cs)) for key, cs in compiler.pools
        ]:
            raise ValueError("model field 'slots': the clause lists differ from the pools "
                             "its template, frame and background pool generate")
        return TrainedModel(
            compiler=compiler,
            weights=np.array([w for _, _, vec in slots for w in vec], dtype=np.float64),
            loss_trace=loss_trace,
            hyperparams=hp,
        )

    def save(self, path) -> None:
        d = self.to_dict()
        with open(path, "w") as f:
            json.dump(d, f, indent=1, sort_keys=True)
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
    acc = np.zeros_like(weights)
    trace: list[float] = []
    batches = _prepare_batches(compiler, samples, hp)
    for step_i in range(hp.training_steps):
        value, grads = loss_and_grad(compiler, weights, samples, hp, batches)
        if not math.isfinite(value):
            raise TrainingDiverged(step_i, value)
        trace.append(value)
        if hp.stop_loss is not None and value < hp.stop_loss:
            break
        if hp.accumulator_decay is None:
            acc += grads * grads
        else:
            acc *= hp.accumulator_decay
            acc += (1.0 - hp.accumulator_decay) * grads * grads
        weights -= hp.learning_rate * grads / (np.sqrt(acc) + 1e-8)
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
