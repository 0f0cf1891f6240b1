import pytest

from tpc import (
    App,
    Clause,
    Proof,
    Var,
    apply_clause,
    check_proof,
    compose_clauses,
    horn_to_tpc,
    load_theory,
    parse_term,
    parse_theory,
    print_term,
    print_theory,
)
from tpc.errors import (
    ArityMismatch,
    FreeRhsVariable,
    InvalidProofStep,
    NonGroundStart,
    TheorySyntaxError,
)
from tpc.terms import IDENTITY, substitute


def t(text):
    return parse_term(text)


def clause(name, lhs, rhs):
    return Clause(name, parse_term(lhs), parse_term(rhs))


class TestParsing:
    def test_ancestor_theory_shape(self):
        th = load_theory("ancestor")
        assert len(th.axioms) == 7
        assert th.start == App("S")
        assert th.goal == t("Ancestor(Adam, Olga)")

    def test_start_only(self):
        th = parse_theory("start: S\n")
        assert th.axioms == ()

    def test_free_rhs_variable_rejected(self):
        with pytest.raises(FreeRhsVariable) as e:
            parse_theory("start: S\na: P(x) -> P(F(y))\n")
        assert e.value.variable == "y"

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse_theory("start: P(Z)\na: P(x, y) -> P(x, y)\n")

    def test_non_ground_start(self):
        with pytest.raises(NonGroundStart):
            parse_theory("start: P(x)\n")

    def test_syntax_error_carries_position(self):
        with pytest.raises(TheorySyntaxError) as e:
            parse_theory("start: S\na: P(x -> P(x)\n")
        assert e.value.line == 2

    def test_round_trip(self):
        for name in ("ancestor", "fg", "rotate3"):
            th = load_theory(name)
            assert parse_theory(print_theory(th)) == th

    def test_deep_chain_parses_iteratively(self):
        n = 5000
        text = "P(" + "F(" * n + "Z" + ")" * n + ")"
        tree = parse_term(text)
        assert tree.size == n + 2
        assert print_term(tree) == text


class TestApply:
    def test_ancestor_a1(self):
        th = load_theory("ancestor")
        tree = t("And(Parent(Peter, Olga), S)")
        assert apply_clause(th.axiom("a1"), tree) == t("And(Ancestor(Peter, Olga), S)")

    def test_root_functor_mismatch(self):
        l1 = clause("l1", "And(x, y)", "x")
        assert apply_clause(l1, t("Ancestor(Adam, Olga)")) is None

    def test_fact_axiom(self):
        p1 = Clause("p1", Var("x"), App("And", (t("Parent(Adam, John)"), Var("x"))))
        assert apply_clause(p1, App("S")) == t("And(Parent(Adam, John), S)")

    def test_nonlinear_pattern_requires_equal_subtrees(self):
        c = clause("c", "P(x, x)", "x")
        assert apply_clause(c, t("P(F(Z), F(Z))")) == t("F(Z)")
        assert apply_clause(c, t("P(F(Z), Z)")) is None


def _rebuild(pattern, binding):
    # structural substitution that rebuilds every App node
    if isinstance(pattern, Var):
        return binding.get(pattern.name, pattern)
    return App(pattern.functor, tuple(_rebuild(c, binding) for c in pattern.children))


class TestSubstitute:
    def test_ground_pattern_is_returned_as_is(self):
        ground = t("And(Parent(Adam, John), S)")
        assert substitute(ground, {"x": t("Z")}) is ground

    def test_ground_subtrees_are_shared(self):
        pattern = t("And(Parent(Adam, John), And(x, F(y, G(Z))))")
        binding = {"x": t("Q(Z)"), "y": Var("w")}
        got = substitute(pattern, binding)
        assert got == _rebuild(pattern, binding) == t("And(Parent(Adam, John), And(Q(Z), F(w, G(Z))))")
        assert got.children[0] is pattern.children[0]
        assert got.children[1].children[1].children[1] is pattern.children[1].children[1].children[1]


class TestCompose:
    def test_projection_composition(self):
        c1 = clause("", "P(x, y)", "x")
        c2 = clause("", "R(x, y)", "y")
        got = compose_clauses(c1, c2)
        assert got.same_relation(clause("", "P(R(x, y), z)", "y"))

    def test_fg_composition_commutes(self):
        a = clause("a", "P(x, y)", "P(F(F(x)), G(y))")
        b = clause("b", "P(x, y)", "P(F(x), G(y))")
        expected = clause("", "P(x, y)", "P(F(F(F(x))), G(G(y)))")
        assert compose_clauses(a, b).same_relation(expected)
        assert compose_clauses(b, a).same_relation(expected)

    def test_identity_is_neutral(self):
        c = clause("c", "P(R(x, z), y)", "P(x, R(y, z))")
        assert compose_clauses(IDENTITY, c).same_relation(c)
        assert compose_clauses(c, IDENTITY).same_relation(c)

    def test_empty_composition(self):
        c1 = clause("", "P(x)", "Q(x)")
        c2 = clause("", "R(x)", "P(x)")
        assert compose_clauses(c1, c2) is None


class TestProofs:
    def test_seven_step_proof(self):
        th = load_theory("ancestor")
        proof = Proof(("p3", "a1", "p2", "a2", "p1", "a2", "l1"))
        assert check_proof(th, proof) == t("Ancestor(Adam, Olga)")

    def test_empty_proof(self):
        th = load_theory("ancestor")
        assert check_proof(th, Proof(())) == th.start

    def test_invalid_at_one(self):
        th = load_theory("ancestor")
        with pytest.raises(InvalidProofStep) as e:
            check_proof(th, Proof(("l1",)))
        assert e.value.index == 1


class TestHornToTpc:
    def test_family_program(self):
        facts = [t("Parent(Adam, John)"), t("Parent(John, Peter)"), t("Parent(Peter, Olga)")]
        rules = [
            ([t("Parent(p, c)")], t("Ancestor(p, c)")),
            ([t("Parent(p, a)"), t("Ancestor(a, o)")], t("Ancestor(p, o)")),
        ]
        th = horn_to_tpc(facts, rules, t("Ancestor(Adam, Olga)"))
        assert print_theory(th) == print_theory(load_theory("ancestor"))

    def test_empty_program(self):
        th = horn_to_tpc([], [], App("S"))
        assert [ax.name for ax in th.axioms] == ["l1", "l2"]

    def test_single_fact(self):
        th = horn_to_tpc([t("Q(A)")], [], None)
        assert str(th.axioms[0]) == "x -> And(Q(A), x)"
        assert [ax.name for ax in th.axioms] == ["p1", "l1", "l2"]
