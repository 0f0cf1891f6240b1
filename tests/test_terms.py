import pytest
from hypothesis import example, given, settings, strategies as st

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
from tpc.terms import IDENTITY, free_vars, substitute, unify


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


def _reference_canonical(name, lhs, rhs):
    # variables renamed v0, v1, ... in recursive DFS order over lhs then rhs
    mapping = {}

    def visit(t):
        if isinstance(t, Var):
            if t.name not in mapping:
                mapping[t.name] = Var(f"v{len(mapping)}")
        else:
            for c in t.children:
                visit(c)

    visit(lhs)
    visit(rhs)
    return Clause(name, substitute(lhs, mapping), substitute(rhs, mapping))


def _reference_compose(c1, c2):
    # rename both clauses apart, unify, resolve recursively, canonicalise
    def rename(c, suffix):
        mapping = {v: Var(v + suffix) for v in free_vars(c.lhs) | free_vars(c.rhs)}
        return substitute(c.lhs, mapping), substitute(c.rhs, mapping)

    def resolve(t):
        while isinstance(t, Var) and t.name in subst:
            t = subst[t.name]
        if isinstance(t, Var):
            return t
        return App(t.functor, tuple(resolve(c) for c in t.children))

    lhs1, rhs1 = rename(c1, "_1")
    lhs2, rhs2 = rename(c2, "_2")
    subst = unify(rhs1, lhs2)
    if subst is None:
        return None
    name = f"{c1.name}.{c2.name}" if c1.name and c2.name else (c1.name or c2.name)
    return _reference_canonical(name, resolve(lhs1), resolve(rhs2))


# both clauses draw from one pool, so they share names, some of which carry
# the suffixes renaming apart once used, and some are canonical names
_NAMES = ("x", "y", "z", "x_1", "y_2", "x_2", "v0", "v1")


_TERMS = st.recursive(
    st.sampled_from([Var(n) for n in _NAMES] + [App("Z")]),
    lambda kids: st.one_of(
        st.builds(lambda a: App("F", (a,)), kids),
        st.builds(lambda a, b: App("G", (a, b)), kids, kids),
    ),
    max_leaves=6,
)


@st.composite
def _clauses(draw):
    lhs, rhs = draw(_TERMS), draw(_TERMS)
    # point each rhs variable the lhs lacks at one it has, or at Z
    have = sorted(free_vars(lhs))
    lacks = sorted(free_vars(rhs) - set(have))
    fix = {v: Var(have[i % len(have)]) if have else App("Z") for i, v in enumerate(lacks)}
    return Clause(draw(st.sampled_from(("", "a", "b"))), lhs, substitute(rhs, fix))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_clauses(), _clauses())
@example(clause("a", "F(x)", "F(x)"), clause("b", "G(x, y)", "y"))  # no unifier
@example(clause("a", "G(x, y)", "G(x, x)"), clause("b", "G(y, F(y))", "y"))  # occurs check
@example(clause("a", "G(x_2, x)", "G(x, x_2)"), clause("", "G(x, x_1)", "F(x_1)"))
def test_compose_matches_rename_both_reference(c1, c2):
    got = compose_clauses(c1, c2)
    want = _reference_compose(c1, c2)
    if want is None:
        assert got is None
    else:
        assert (got.name, got.lhs, got.rhs) == (want.name, want.lhs, want.rhs)
    assert c1.canonical() == _reference_canonical(c1.name, c1.lhs, c1.rhs)


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
