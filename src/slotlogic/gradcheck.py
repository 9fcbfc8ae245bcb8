"""Finite-difference verification of the reverse-mode gradients.

Draws small random problems (few constants, few clauses, shallow
chaining), compares the analytic gradient against central differences
coordinate by coordinate, and reports the worst relative error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    Hyperparams,
    ModelCompiler,
    Sample,
    finite_difference_grad,
    loss_and_grad,
)
from .logic import LanguageFrame, Predicate, ground_atoms
from .templates import ProgramTemplate, RuleTemplate, generate_clauses

REL_FLOOR = 1e-3


@dataclass
class GradcheckReport:
    instances: int
    parameters: int
    max_rel_error: float
    worst_instance: int

    def ok(self, tolerance: float = 1e-4) -> bool:
        return self.max_rel_error <= tolerance


def _random_instance(rng: np.random.Generator):
    n_const = int(rng.integers(2, 6))
    constants = tuple(f"c{i}" for i in range(n_const))
    ext = [
        Predicate(f"e{i}", int(rng.integers(0, 3)))
        for i in range(int(rng.integers(2, 4)))
    ]
    target = Predicate("t", int(rng.integers(0, 3)))
    frame = LanguageFrame(targets=(target,), extensional=tuple(ext))
    use_aux = bool(rng.integers(0, 2))
    aux = (Predicate("h", int(rng.integers(0, 3))),) if use_aux else ()
    learnable = (target,) + aux
    n_slots = {p: int(rng.integers(1, 3)) for p in learnable}

    slots = tuple(
        (p, tuple(RuleTemplate(0, True) for _ in range(n_slots[p])))
        for p in learnable
    )
    template = ProgramTemplate(
        slots=slots, auxiliary=aux, forward_steps=int(rng.integers(1, 5))
    )

    pools = []
    budget = 8
    for p in learnable:
        full = generate_clauses(
            p, RuleTemplate(int(rng.integers(0, 2)), True), ext, list(learnable)
        )
        for k in range(n_slots[p]):
            if not full:
                pools.append(((p, k), []))
                continue
            take = min(len(full), max(1, int(rng.integers(1, 4))))
            take = min(take, budget) or 1
            picked = sorted(
                rng.choice(len(full), size=take, replace=False).tolist()
            )
            budget = max(0, budget - take)
            pools.append(((p, k), [full[i] for i in picked]))

    amalgamation = "max" if rng.random() < 0.7 else "sum"
    compiler = ModelCompiler(frame, template, pools=pools)

    background = [a for a in ground_atoms(ext, constants) if rng.random() < 0.5]
    labeled = ground_atoms([target], constants)
    flags = rng.integers(0, 3, size=len(labeled))
    positive = [a for a, f in zip(labeled, flags) if f == 1]
    negative = [a for a, f in zip(labeled, flags) if f == 2]
    if not positive and not negative:
        positive = [labeled[0]]
    sample = Sample.make(background, positive, negative, constants)

    weights = [rng.standard_normal(len(cs)) for _, cs in compiler.pools]
    reg = ("none", "l1", "l2")[int(rng.integers(0, 3))]
    hp = Hyperparams(
        reg_kind=reg,
        reg_lambda=0.01 if reg != "none" else 0.0,
        amalgamation=amalgamation,
    )
    return compiler, weights, [sample], hp


def run_gradcheck(seed: int = 0, instances: int = 100, h: float = 1e-4) -> GradcheckReport:
    if instances < 1:
        raise ValueError(f"instances must be at least 1, not {instances}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_i = -1
    n_params = 0
    for i in range(instances):
        compiler, weights, samples, hp = _random_instance(rng)
        _, analytic = loss_and_grad(compiler, weights, samples, hp)
        numeric = finite_difference_grad(compiler, weights, samples, hp, h=h)
        for g, fd in zip(analytic, numeric):
            n_params += g.size
            if g.size == 0:
                continue
            denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), REL_FLOOR)
            err = float(np.max(np.abs(g - fd) / denom))
            if err > worst:
                worst, worst_i = err, i
    return GradcheckReport(instances, n_params, worst, worst_i)
