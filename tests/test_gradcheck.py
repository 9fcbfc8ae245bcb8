import itertools
import json

import numpy as np
import pytest

from slotlogic import (
    Atom,
    Hyperparams,
    LanguageFrame,
    ModelCompiler,
    Predicate,
    ProgramTemplate,
    RuleTemplate,
    Sample,
    Term,
    finite_difference_grad,
    generate_clauses,
    parse_clause,
)
from slotlogic.cli import run_pipeline
from slotlogic.engine import loss, loss_and_grad
from slotlogic.gradcheck import REL_FLOOR, _random_instance, run_gradcheck


def test_thirty_instances_quick():
    report = run_gradcheck(seed=3, instances=30)
    assert report.parameters > 50
    assert report.max_rel_error <= 1e-4, f"max rel error {report.max_rel_error}"


@pytest.mark.parametrize("flags, code, want", [
    (["--instances", "-1"], 2, "instances must be at least 1, not -1"),
    (["--instances", "0"], 2, "instances must be at least 1, not 0"),
    (["--tolerance", "nan"], 2, "tolerance must be finite and non-negative, not nan"),
    (["--tolerance", "-1"], 2, "tolerance must be finite and non-negative, not -1.0"),
    # Central differences are not exact, so no check passes at tolerance 0.
    (["--instances", "2", "--tolerance", "0"], 3, "exceeds tolerance 0"),
], ids=["negative-instances", "zero-instances", "nan-tolerance", "negative-tolerance",
        "failed-check"])
def test_cli_exit_contract(capsys, flags, code, want):
    assert run_pipeline(["gradcheck", *flags]) == code
    [line] = capsys.readouterr().err.splitlines()
    assert want in json.loads(line)["message"]


def test_deterministic():
    a = run_gradcheck(seed=5, instances=10)
    b = run_gradcheck(seed=5, instances=10)
    assert a.max_rel_error == b.max_rel_error
    assert a.worst_instance == b.worst_instance


def test_finite_differences_equal_those_of_unprepared_losses():
    # finite_difference_grad prepares the batches once; every difference
    # must equal, bit for bit, one taken through loss's own preparation.
    rng = np.random.default_rng(0)
    h = 1e-4
    for _ in range(20):
        compiler, weights, samples, hp = _random_instance(rng)
        fd = finite_difference_grad(compiler, weights, samples, hp, h=h)
        for k, v in enumerate(weights):
            expected = np.zeros(v.size)
            for i in range(v.size):
                w = [np.array(x, dtype=np.float64) for x in weights]
                w[k][i] = v[i] + h
                up = loss(compiler, w, samples, hp)
                w[k][i] = v[i] - h
                expected[i] = (up - loss(compiler, w, samples, hp)) / (2.0 * h)
            assert fd[k].tobytes() == expected.tobytes()


E, F = Predicate("e", 2), Predicate("f", 1)
T = Predicate("t", 1)
# A static clause (extensional body) and a recursive static pair.
BACKGROUND = tuple(
    parse_clause(c)
    for c in (
        "s(V0) <- e(V0, V1), f(V1)",
        "reach(V0, V1) <- e(V0, V1)",
        "reach(V0, V1) <- e(V0, V2), reach(V2, V1)",
    )
)
BODY_POOL = (Predicate("s", 1), Predicate("reach", 2))


def _background_instance(rng, amalgamation):
    constants = tuple(f"c{i}" for i in range(int(rng.integers(2, 5))))
    frame = LanguageFrame(targets=(T,), extensional=(E, F))
    full = generate_clauses(T, RuleTemplate(int(rng.integers(0, 2)), True), [E, F, *BODY_POOL], [T])
    pools = []
    n_slots = int(rng.integers(1, 3))
    for k in range(n_slots):
        picked = sorted(rng.choice(len(full), size=int(rng.integers(2, 5)), replace=False))
        pools.append(((T, k), [full[i] for i in picked]))
    template = ProgramTemplate(
        slots=((T, tuple(RuleTemplate(0, True) for _ in range(n_slots))),),
        forward_steps=int(rng.integers(2, 6)),
    )
    compiler = ModelCompiler(frame, template, BACKGROUND, BODY_POOL, pools=pools)
    atoms_of = lambda p: [
        Atom(p, tuple(Term.const(c) for c in combo))
        for combo in itertools.product(constants, repeat=p.arity)
    ]
    background = [a for a in atoms_of(E) + atoms_of(F) if rng.random() < 0.4]
    flags = rng.integers(0, 3, size=len(constants))
    labeled = atoms_of(T)
    positive = [a for a, f in zip(labeled, flags) if f == 1] or [labeled[0]]
    negative = [a for a, f in zip(labeled, flags) if f == 2 and a not in positive]
    sample = Sample.make(background, positive, negative, constants)
    weights = [rng.standard_normal(len(cs)) for _, cs in pools]
    return compiler, weights, [sample], Hyperparams(amalgamation=amalgamation)


@pytest.mark.parametrize("amalgamation", ["max", "sum"])
def test_background_clauses_match_finite_differences(amalgamation):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        compiler, weights, samples, hp = _background_instance(rng, amalgamation)
        _, analytic = loss_and_grad(compiler, weights, samples, hp)
        numeric = finite_difference_grad(compiler, weights, samples, hp)
        for g, fd in zip(analytic, numeric):
            denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), REL_FLOOR)
            worst = max(worst, float(np.max(np.abs(g - fd) / denom)))
    assert worst <= 1e-4, f"max rel error {worst}"
