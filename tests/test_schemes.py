import pytest

from tpc import (
    Axiom,
    Dot,
    Star,
    UNIT,
    build_scheme,
    coerce_index,
    enumerate_indices,
    instantiate,
    load_theory,
    parse_scheme,
    parse_term,
    print_scheme,
    reduce_specific,
    shape_of,
)
from tpc.errors import ShapeError
from tpc.paths import split_axiom
from tpc.schemes import Choice, ListOf, TupleShape, UNIT_SHAPE, parse_index
from tpc.terms import Clause

AB_STAR = parse_scheme("(a*.b)*.a*")


class TestShapes:
    def test_nested_scheme_shape(self):
        assert shape_of(AB_STAR) == TupleShape((ListOf(ListOf(UNIT_SHAPE)), ListOf(UNIT_SHAPE)))

    def test_axiom_is_unit(self):
        assert shape_of(Axiom("a")) == UNIT_SHAPE

    def test_alt_is_choice(self):
        assert shape_of(parse_scheme("a|b")) == Choice((UNIT_SHAPE, UNIT_SHAPE))


class TestCoerce:
    def test_nat_index_canonicalizes(self):
        got = coerce_index(AB_STAR, parse_index("{{2, 0, 1}, 3}"))
        assert got == (((UNIT, UNIT), (), (UNIT,)), (UNIT, UNIT, UNIT))

    def test_nat_becomes_unit_list(self):
        assert coerce_index(parse_scheme("a*"), 0) == ()
        assert coerce_index(parse_scheme("a*"), 3) == (UNIT, UNIT, UNIT)

    def test_choice_needs_two_components(self):
        with pytest.raises(ShapeError):
            coerce_index(parse_scheme("a|b"), (5,))

    def test_idempotent_on_canonical(self):
        for scheme, raw in [(AB_STAR, parse_index("{{2, 0, 1}, 3}")), (parse_scheme("a*"), 4)]:
            once = coerce_index(scheme, raw)
            assert coerce_index(scheme, once) == once


class TestInstantiate:
    def test_worked_sequence(self):
        got = instantiate(AB_STAR, parse_index("{{2, 0, 1}, 3}"))
        assert got == ["a", "a", "b", "b", "a", "b", "a", "a", "a"]

    def test_star_at_zero_is_epsilon(self):
        assert instantiate(parse_scheme("a*"), 0) == []

    def test_leading_axioms_consume_nothing(self):
        assert instantiate(parse_scheme("a.b.a*.b"), 2) == ["a", "b", "a", "a", "b"]

    def test_alt_branch_selection(self):
        e = parse_scheme("a*|b")
        assert instantiate(e, (1, 2)) == ["a", "a"]
        assert instantiate(e, (2, UNIT)) == ["b"]


class TestBuildScheme:
    def test_three_axioms(self):
        assert print_scheme(build_scheme(["a", "b", "c"])) == "((a*.b)*.a*.c)*.(a*.b)*.a*"

    def test_one_axiom(self):
        assert build_scheme(["a"]) == Star(Axiom("a"))

    def test_two_axioms(self):
        assert print_scheme(build_scheme(["a", "b"])) == "(a*.b)*.a*"


class TestEnumerate:
    def test_single_star(self):
        got = enumerate_indices(parse_scheme("a*"), 2)
        assert got == [(), (UNIT,), (UNIT, UNIT)]

    def test_alt(self):
        got = enumerate_indices(parse_scheme("a|b"), 1)
        assert got == [(1, UNIT), (2, UNIT)]

    def test_nested_star_instantiations(self):
        e = parse_scheme("(a*.b)*")
        seqs = {tuple(instantiate(e, idx)) for idx in enumerate_indices(e, 2)}
        assert seqs == {(), ("b",), ("b", "b"), ("a", "b")}

    def test_each_index_once(self):
        idxs = enumerate_indices(AB_STAR, 4)
        assert len(idxs) == len(set(idxs))

    def test_build_scheme_covers_all_sequences(self):
        # the (alpha.a_n)*.alpha construction spans the whole proof space
        for axioms in (["a"], ["a", "b"], ["a", "b", "c"]):
            scheme = build_scheme(axioms)
            for budget in range(4 if len(axioms) < 3 else 3):
                got = {
                    tuple(instantiate(scheme, idx))
                    for idx in enumerate_indices(scheme, budget)
                }
                want = set()
                seq = [()]
                for _ in range(budget + 1):
                    want.update(seq)
                    seq = [s + (a,) for s in seq for a in axioms]
                assert got == want


class TestReduceSpecific:
    def test_fg_sequence(self):
        th = load_theory("fg")
        got = reduce_specific(th, ["b", "a"])
        want = Clause("", parse_term("P(x, y)"), parse_term("P(F(F(F(x))), G(G(y)))"))
        assert got.same_relation(want)
        assert got.same_relation(reduce_specific(th, ["a", "b"]))

    def test_empty_sequence_is_identity(self):
        th = load_theory("fg")
        got = reduce_specific(th, [])
        assert got.same_relation(Clause("", parse_term("x"), parse_term("x")))

    def test_l1_twice(self):
        th = load_theory("ancestor")
        got = reduce_specific(th, ["l1", "l1"])
        assert got.same_relation(Clause("", parse_term("And(And(x, y), z)"), parse_term("x")))

    def test_shared_prefix_state_matches_fresh_folds(self):
        th = load_theory("ancestor")
        long = ("p3", "a1", "p2", "a2", "p1", "a2", "l1")
        calls = [
            long,
            long[:4],  # a proper prefix
            long[:3] + ("p1", "l2", "l2"),  # diverges mid-way
            (),
            ("a1", "a1"),  # the empty relation
            ("a1", "a1", "a2"),
        ]
        state = []
        for seq in calls:
            got = reduce_specific(th, seq, state)
            want = reduce_specific(th, seq)
            if want is None:
                assert got is None
            else:
                assert got.same_relation(want)
            assert len(state) <= len(seq)
        assert reduce_specific(th, ("a1", "a1")) is None
        assert reduce_specific(th, long, state).same_relation(
            Clause("", parse_term("x"), parse_term("Ancestor(Adam, Olga)"))
        )
        assert len(state) == len(long)

    def test_deep_chain_is_iterative(self):
        # far past the recursion limit: composing, renaming and splitting
        # all walk the clause iteratively
        got = reduce_specific(load_theory("chain"), ["a"] * 3000)
        assert got.rhs.size == 3002
        assert got == got.canonical()
        assert str(split_axiom(got)) == "EqualsLR([P(x)->x], [P(x)->x].[F(x)->x]^3000)"


class TestSyntax:
    def test_round_trip(self):
        for text in ("a*", "(a*.b)*.a*", "a|b.c*", "eps", "((a*.b)*.a*.c)*.(a*.b)*.a*"):
            e = parse_scheme(text)
            assert parse_scheme(print_scheme(e)) == e

    def test_dot_flattens(self):
        e = parse_scheme("a.(b.c)")
        assert isinstance(e, Dot) and len(e.parts) == 3

    def test_eps_in_dot_vanishes(self):
        assert parse_scheme("a.eps.b") == parse_scheme("a.b")
