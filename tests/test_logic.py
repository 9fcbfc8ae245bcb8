import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slotlogic import (
    Atom,
    ParseError,
    Predicate,
    Term,
    UnsafeClauseError,
    atom,
    build_ground_index,
    format_atom,
    format_clause,
    parse_atom,
    parse_clause,
)
from slotlogic.engine import _ClauseShapes

from .oracles import ground_clause, ground_clause_rows


class TestParseAtom:
    def test_simple(self):
        a = parse_atom("known(loc)")
        assert a.predicate == Predicate("known", 1)
        assert a.args == (Term.const("loc"),)

    def test_zero_ary(self):
        a = parse_atom("nooffer()")
        assert a.predicate == Predicate("nooffer", 0)
        assert a.args == ()

    def test_variables_uppercase(self):
        a = parse_atom("succ(V0, V1)")
        assert all(t.is_variable for t in a.args)

    def test_roundtrip(self):
        for text in [
            "known(loc)",
            "nooffer()",
            "succ(usr_slot, food_pref)",
            "sys_request(food_pref)",
            "member(V0, V1)",
        ]:
            assert format_atom(parse_atom(text)) == text

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_atom("known(")
        assert exc.value.offset == 6

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_atom("   ")

    def test_trailing(self):
        with pytest.raises(ParseError):
            parse_atom("known(loc) extra")


@pytest.mark.parametrize("arity", [0.5, 1.0, True, "1", -1, 99])
def test_predicate_rejects_bad_arity(arity):
    with pytest.raises(ValueError, match="is not an integer in 0.."):
        Predicate("true", arity)


class TestParseClause:
    def test_two_atom_body(self):
        c = parse_clause("all(V0) <- true(V0), pred1(V0, V1)")
        assert c.head == parse_atom("all(V0)")
        assert set(c.body) == {parse_atom("true(V0)"), parse_atom("pred1(V0, V1)")}

    def test_single_body_padded(self):
        c = parse_clause("p(V0) <- q(V0)")
        assert len(c.body) == 2
        assert c.body[0] == c.body[1]
        assert format_clause(c) == "p(V0) <- q(V0)"

    def test_unsafe(self):
        with pytest.raises(UnsafeClauseError):
            parse_clause("p(V0) <- q(V1), q(V1)")

    def test_missing_separator(self):
        with pytest.raises(ParseError):
            parse_clause("p(V0), q(V0)")

    def test_too_wide(self):
        with pytest.raises(ValueError):
            parse_clause("p(V0) <- q(V0), q(V0), q(V0)")

    @pytest.mark.parametrize("text, offset", [
        ("p(X) <- q(", 10),
        ("p(X) <- q(X),", 13),
        ("p(X) <- (X)", 8),
        ("p(X) <- q(X) r", 13),
    ])
    def test_body_error_offset_is_in_the_whole_text(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse_clause(text)
        assert exc.value.offset == offset

    def test_canonical_idempotent(self):
        texts = [
            "all(V0) <- true(V0), pred1(V0, V1)",
            "pred1(V0, V1) <- succ(V0, V1), terminal(V1)",
            "pred1(V0, V1) <- succ(V0, V1), all(V1)",
            "sys_request(V0) <- member_usr(V0), unknown(V0)",
            "sys_inform(V0) <- kb_return(V0)",
            "sys_query(V0) <- request(V0), pred3(V0)",
            "pred2() <- all(V0), usr_slots(V0)",
            "pred3(V0) <- pred2(), unknown(V0)",
        ]
        for t in texts:
            c = parse_clause(t)
            assert parse_clause(format_clause(c)) == c

    def test_body_order_equivalence(self):
        a = parse_clause("p(V0) <- q(V0), r(V0)")
        b = parse_clause("p(V0) <- r(V0), q(V0)")
        assert a == b

    def test_variable_renaming_equivalence(self):
        a = parse_clause("p(X) <- q(X, Y), r(Y)")
        b = parse_clause("p(V5) <- r(W), q(V5, W)")
        assert a == b

    def test_ground_head_allowed(self):
        c = parse_clause("pred2() <- all(V0), usr_slots(V0)")
        assert c.head.predicate.arity == 0


class TestGroundIndex:
    def test_counts_small(self):
        idx = build_ground_index([Predicate("r", 1), Predicate("q", 1)], ["a", "b"])
        assert len(idx) == 5  # sentinel + 2 + 2

    def test_zero_ary(self):
        idx = build_ground_index([Predicate("nooffer", 0)], ["x"])
        assert len(idx) == 2

    def test_binary(self):
        idx = build_ground_index([Predicate("succ", 2)], ["a", "b"])
        assert len(idx) == 5

    def test_closed_form_exhaustive(self):
        names = ["p", "q", "r"]
        for n_preds in range(1, 4):
            for arities in itertools.product(range(3), repeat=n_preds):
                preds = [Predicate(names[i], a) for i, a in enumerate(arities)]
                for n_const in range(1, 6):
                    consts = [f"c{i}" for i in range(n_const)]
                    idx = build_ground_index(preds, consts)
                    expected = 1 + sum(n_const**a for a in arities)
                    assert len(idx) == expected

    def test_sentinel_is_index_zero(self):
        idx = build_ground_index([Predicate("q", 1)], ["a"])
        assert idx.atoms[0].predicate.name == "false"
        assert idx.index_of(atom("q", "a")) == 1

    def test_lookup_bijection(self):
        idx = build_ground_index([Predicate("q", 1), Predicate("s", 2)], ["a", "b"])
        assert sorted(idx.lookup.values()) == list(range(1, len(idx)))

    def test_empty_constants_rejected(self):
        with pytest.raises(ValueError):
            build_ground_index([Predicate("q", 1)], [])

    def test_duplicate_constants_rejected(self):
        with pytest.raises(ValueError):
            build_ground_index([Predicate("q", 1)], ["a", "a"])

    def test_deterministic(self):
        preds = [Predicate("q", 1), Predicate("s", 2)]
        a = build_ground_index(preds, ["x", "y"])
        b = build_ground_index(preds, ["x", "y"])
        assert a.atoms == b.atoms


def ground_clauses(clauses, idx):
    return _ClauseShapes.of(clauses, idx.predicates).ground(idx)


def ground(clause, idx):
    rows, counts = ground_clauses([clause], idx)
    assert counts.tolist() == [len(rows)]
    return rows


def random_clauses(rng, preds, constants, n):
    """``n`` random clauses over ``preds``: arguments drawn from three
    variables and from ``constants`` (one of which is outside the index)."""
    terms = ["V0", "V1", "V2", *constants]
    clauses = []
    while len(clauses) < n:
        head, b1, b2 = (preds[int(rng.integers(len(preds)))] for _ in range(3))
        args = [[str(rng.choice(terms)) for _ in range(p.arity)] for p in (head, b1, b2)]
        try:
            clauses.append(parse_clause(
                f"{head.name}({', '.join(args[0])}) <- {b1.name}({', '.join(args[1])}), "
                f"{b2.name}({', '.join(args[2])})"))
        except ValueError:
            continue
    return clauses


class TestGroundClause:
    def test_two_variable_count(self):
        idx = build_ground_index(
            [Predicate("confirm", 1), Predicate("user_request", 2),
             Predicate("not_confident", 1)],
            ["contact", "calling"],
        )
        clause = parse_clause(
            "confirm(S) <- user_request(S, T), not_confident(S)"
        )
        rows = ground(clause, idx)
        assert len(rows) == 4
        head_idx = idx.index_of(atom("confirm", "contact"))
        ur = idx.index_of(atom("user_request", "contact", "calling"))
        nc = idx.index_of(atom("not_confident", "contact"))
        bodies = {frozenset((b1, b2)) for h, b1, b2 in rows.tolist() if h == head_idx}
        assert frozenset((ur, nc)) in bodies

    def test_variable_free(self):
        idx = build_ground_index(
            [Predicate("p", 0), Predicate("q", 0)], ["a", "b", "c"]
        )
        clause = parse_clause("p() <- q(), q()")
        assert len(ground(clause, idx)) == 1

    def test_duplicated_body(self):
        idx = build_ground_index([Predicate("p", 1), Predicate("q", 1)], ["a", "b", "c"])
        clause = parse_clause("p(X) <- q(X), q(X)")
        assert len(ground(clause, idx)) == 3

    def test_free_variable_count(self):
        idx = build_ground_index([Predicate("p", 1), Predicate("q", 2)], ["a", "b", "c"])
        clause = parse_clause("p(X) <- q(X, Y), q(Y, Z)")
        assert len(ground(clause, idx)) == 27

    def test_renaming_equivariance(self):
        preds = [Predicate("p", 1), Predicate("q", 2)]
        clause = parse_clause("p(X) <- q(X, Y), q(Y, X)")
        c1 = ["a", "b", "c"]
        c2 = ["z", "x", "y"]  # bijection a->z, b->x, c->y by position
        idx1 = build_ground_index(preds, c1)
        idx2 = build_ground_index(preds, c2)
        assert np.array_equal(ground(clause, idx1), ground(clause, idx2))


    def test_predicate_outside_index_named(self):
        idx = build_ground_index([Predicate("p", 1), Predicate("q", 1)], ["a"])
        with pytest.raises(ValueError, match="mystery/2"):
            ground(parse_clause("p(X) <- q(X), mystery(X, Y)"), idx)

    def test_constant_outside_index_has_no_grounding(self):
        idx = build_ground_index([Predicate("p", 1), Predicate("q", 2)], ["a", "b"])
        rows = ground(parse_clause("p(X) <- q(X, zz)"), idx)
        assert rows.shape == (0, 3)
        assert ground_clause_rows(parse_clause("p(X) <- q(X, zz)"), idx) == []

    def test_simdial_clauses_match_substitution_oracle(self):
        from slotlogic import ModelCompiler, build_ground_index
        from slotlogic.pipeline import simdial_background, simdial_frame, simdial_template

        background, pool = simdial_background()
        compiler = ModelCompiler(simdial_frame(), simdial_template(), background, pool)
        idx = build_ground_index(compiler.predicates, ("c0", "c1", "c2", "c3", "c4"))
        clauses = [c for _, cs in compiler.pools for c in cs] + list(background)
        assert len(clauses) > 400
        for clause in clauses:
            assert ground(clause, idx).tolist() == [
                list(r) for r in ground_clause_rows(clause, idx)
            ], format_clause(clause)

    @staticmethod
    def assert_rows_equal_one_clause_at_a_time(clauses, idx):
        rows, counts = ground_clauses(clauses, idx)
        reference = [ground_clause(c, idx) for c in clauses]
        assert counts.tolist() == [len(r) for r in reference]
        assert rows.dtype == np.int64
        assert np.array_equal(rows, np.concatenate([np.zeros((0, 3), np.int64), *reference]))

    def test_restaurant_pools_match_clause_at_a_time(self):
        from slotlogic import ModelCompiler, pipeline
        from slotlogic.simulator import representative_dialog

        background, pool = pipeline.simdial_background()
        compiler = ModelCompiler(pipeline.simdial_frame(), pipeline.simdial_template(),
                                 background, pool)
        [sample, *_] = pipeline.training_samples(
            pipeline.convert_corpus([representative_dialog("restaurant")]))
        idx = compiler.compile(sample.constants).index
        self.assert_rows_equal_one_clause_at_a_time(
            [c for _, cs in compiler.pools for c in cs], idx)
        self.assert_rows_equal_one_clause_at_a_time(list(background), idx)

    def test_random_clauses_match_clause_at_a_time(self):
        rng = np.random.default_rng(0)
        preds = [Predicate(f"p{a}", a) for a in range(4)] + [Predicate("q", 2)]
        for _ in range(60):
            constants = [f"c{i}" for i in range(int(rng.integers(1, 5)))]
            idx = build_ground_index(preds, constants)
            clauses = random_clauses(rng, preds, [*constants, "zz"], int(rng.integers(0, 12)))
            self.assert_rows_equal_one_clause_at_a_time(clauses, idx)


@given(
    name=st.sampled_from(["p", "q", "rel", "sys_request"]),
    args=st.lists(
        st.sampled_from(["a", "b", "loc", "V0", "V1", "Xy"]),
        min_size=0,
        max_size=3,
    ),
)
def test_atom_roundtrip_property(name, args):
    a = atom(name, *args)
    assert parse_atom(format_atom(a)) == a


def _old_format_atom(a):
    """The atom text as it was computed before atoms cached it."""
    return f"{a.predicate.name}({', '.join(t.label for t in a.args)})"


_labels = st.from_regex(r"[a-z][a-z0-9_]{0,6}|[A-Z][A-Za-z0-9_]{0,6}", fullmatch=True)


@given(name=st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
       args=st.lists(_labels, max_size=3))
def test_interned_atom_text_and_hash(name, args):
    a = atom(name, *args)
    built = Atom(Predicate(name, len(args)), tuple(
        Term(x, x[0].isupper()) for x in args))  # not through the caches
    parsed = parse_atom(format_atom(a))
    assert parsed == a == built
    assert hash(parsed) == hash(a) == hash(built) == hash((a.predicate, a.args))
    assert format_atom(a) == a.text == str(a) == _old_format_atom(built)
    assert atom(name, *args) is a
    assert pickle.loads(pickle.dumps(a)) == a


@given(st.lists(st.tuples(st.sampled_from(["p", "p_q", "pq", "q"]),
                          st.lists(st.sampled_from(["a", "a_b", "ab", "b"]), max_size=2))))
def test_sort_by_format_atom_unchanged(specs):
    atoms = [atom(name, *args) for name, args in specs]
    assert sorted(atoms, key=format_atom) == sorted(atoms, key=_old_format_atom)


def test_caches_are_bounded():
    for cached in (Term.const, atom):
        assert cached.cache_info().maxsize is not None
