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
    UnsupportedRule,
)
from tpc.oracle import SearchBudget, find_proof, reachable_set
from tpc.terms import IDENTITY, Theory, free_vars, term_size, unify

from conftest import match, same_relation, substitute


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

    def test_goal_arity_mismatch_names_the_goal(self):
        with pytest.raises(ArityMismatch, match="^functor 'P' used with arity 2 in 'goal' but previously with arity 1$"):
            parse_theory("start: P(Z)\ngoal: P(Z, Z)\n")

    def test_hash_is_that_of_the_compared_fields(self):
        th = load_theory("fg")
        assert hash(th) == hash((th.start, th.axioms, th.goal))
        assert hash(parse_theory(print_theory(th))) == hash(th)

    def test_non_ground_start(self):
        with pytest.raises(NonGroundStart):
            parse_theory("start: P(x)\n")

    def test_syntax_error_carries_position(self):
        with pytest.raises(TheorySyntaxError) as e:
            parse_theory("start: S\na: P(x -> P(x)\n")
        assert e.value.line == 2

    @pytest.mark.parametrize("text,message,column", [
        ("P(Z) $", "unexpected character '$'", 6),
        ("   ", "empty term", None),
        ("P(x(Z))", "variable 'x' cannot take arguments", 3),
        ("P(Z) Q", "unexpected 'Q'", 6),
        ("P(Z Z)", "expected ',' or ')', got 'Z'", 5),
        (")", "unexpected ')'", 1),
        ("P(Z", "unexpected end of term", 3),
        ("P(Z,", "unexpected end of term", None),
    ])
    def test_term_errors(self, text, message, column):
        with pytest.raises(TheorySyntaxError) as e:
            parse_term(text, line=3)
        assert (e.value.line, e.value.column) == (3, column)
        loc = "(line 3" + ("" if column is None else f", col {column}") + ")"
        assert str(e.value) == f"{message} {loc}"

    @pytest.mark.parametrize("text,message,line", [
        ("start: S\n1a: P(x) -> P(x)\n", "bad declaration name '1a'", 2),
        ("start: S\n\na: P(x)\n", "axiom 'a' needs 'lhs -> rhs'", 3),
        ("start: S\nnonsense\n", "expected 'name: declaration'", 2),
        ("# no start\na: P(x) -> P(x)\n", "missing 'start:' declaration", None),
        ("start: P(Z)\na: P(x) -> P(x)\na: P(x) -> P(F(x))\n", "duplicate axiom name 'a'", None),
    ])
    def test_theory_errors(self, text, message, line):
        with pytest.raises(TheorySyntaxError) as e:
            parse_theory(text)
        assert e.value.line == line
        assert str(e.value) == message + ("" if line is None else f" (line {line})")

    def test_round_trip(self):
        for name in ("ancestor", "fg", "rotate3"):
            th = load_theory(name)
            assert parse_theory(print_theory(th)) == th

    def test_the_axiom_table_is_built_from_the_axioms(self):
        # a table passed in would answer names the theory has no axiom for
        a = parse_theory("start: P(Z)\na: P(x) -> P(F(x))\n").axiom("a")
        with pytest.raises(TypeError):
            Theory(parse_term("P(Z)"), (), None, {"a": a})

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

    def test_open_trees_apply_as_under_match(self):
        # a variable in the tree is matched only by a variable of the lhs
        c = clause("c", "F(G(x), y)", "H(y, x)")
        assert apply_clause(c, Var("z")) is None and match(c.lhs, Var("z")) is None
        assert apply_clause(c, t("F(z, Z)")) is None and match(c.lhs, t("F(z, Z)")) is None
        assert apply_clause(c, t("F(G(z), w)")) == t("H(w, z)")

    def test_deep_axiom_applies(self):
        # compiled code is flat, so depth is no limit
        lhs, rhs, tree = Var("x"), Var("x"), App("Z")
        for _ in range(300):
            lhs, rhs, tree = App("F", (lhs,)), App("G", (rhs,)), App("F", (tree,))
        c = Clause("deep", lhs, rhs)
        for u in (tree, tree.children[0], App("F", (tree,))):
            binding = match(lhs, u)
            assert apply_clause(c, u) == (None if binding is None else substitute(rhs, binding))
        got = apply_clause(c, tree)
        assert got.size == 301 and apply_clause(Clause("back", rhs, lhs), got) == tree
        assert apply_clause(c, tree.children[0]) is None

    def test_names_that_look_like_code_apply_as_under_match(self):
        # functors and variables named like the identifiers of the compiled
        # code, or like Python constants, are data to it
        def node(f, *children):
            return App(f, children)

        x, y, k0, none = Var("t0"), Var("k0"), node("k0"), node("None")
        th = Theory(
            start=node("App", k0, none),
            axioms=(
                Clause("a", node("App", x, none), node("t", node("n1", x), k0)),
                Clause("b", node("t", x, y), node("App", y, none)),
                Clause("c", node("t", x, y), node("App", x, none)),
                Clause("d", node("App", x, y), node("t", y, y)),
                Clause("e", node("t", x, x), node("App", node("n1", x), node("App", k0, none))),
            ),
        )
        trees = reachable_set(th, th.start, SearchBudget(max_depth=6))
        assert node("App", node("n1", none), node("App", k0, none)) in trees
        for tree in trees:
            for ax in th.axioms:
                binding = match(ax.lhs, tree)
                assert apply_clause(ax, tree) == (None if binding is None else substitute(ax.rhs, binding))
        assert apply_clause(th.axiom("e"), node("t", k0, none)) is None


# functors used at several arities, so a pattern can fail on arity alone;
# names of several characters, which parsing does not share between terms
_FUNCTORS = st.sampled_from(("F", "Go", "Hop"))
_PATTERNS = st.recursive(
    st.sampled_from([Var("x"), Var("y"), App("Z"), App("Hop")]),
    lambda kids: st.builds(lambda f, cs: App(f, tuple(cs)), _FUNCTORS, st.lists(kids, max_size=3)),
    max_leaves=8,
)
_GROUND = st.recursive(
    st.sampled_from([App("Z"), App("Hop")]),
    lambda kids: st.builds(lambda f, cs: App(f, tuple(cs)), _FUNCTORS, st.lists(kids, max_size=3)),
    max_leaves=6,
)


@st.composite
def _applications(draw):
    """A clause and a tree: an instance of its lhs, in which each occurrence
    of a variable is its binding, an equal copy of it or another tree, or
    else any ground tree; either of them may be parsed from its text."""
    lhs, rhs = draw(_PATTERNS), draw(_PATTERNS)
    have = sorted(free_vars(lhs))
    fix = {v: Var(have[i % len(have)]) if have else App("Z") for i, v in enumerate(sorted(free_vars(rhs) - set(have)))}
    c = Clause("c", lhs, substitute(rhs, fix))
    if draw(st.booleans()):
        tree = draw(_GROUND)
        return c, parse_term(print_term(tree)) if draw(st.booleans()) else tree
    binding = {v: draw(_GROUND) for v in have}

    def instance(p):
        if isinstance(p, App):
            return App(p.functor, tuple(map(instance, p.children)))
        how = draw(st.sampled_from(("same", "copy", "other")))
        bound = binding[p.name]
        return bound if how == "same" else parse_term(print_term(bound)) if how == "copy" else draw(_GROUND)

    tree = instance(lhs)
    return c, parse_term(print_term(tree)) if draw(st.booleans()) else tree


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_applications())
@example((clause("c", "Go(x, x)", "F(x)"), t("Go(Hop(Z), Hop(Z))")))  # a repeated variable
@example((clause("c", "Go(x, x)", "F(x)"), t("Go(Hop(Z), Hop(Hop))")))
@example((clause("c", "x", "Go(x, F(Z))"), t("Hop")))  # a variable lhs, a ground rhs subtree
@example((clause("c", "Go(x, y)", "y"), t("Go(Z, F(Hop))")))  # a variable rhs
@example((clause("c", "F(Z)", "Hop"), t("F(Z)")))  # constants on both sides
@example((clause("c", "F(x, Z)", "x"), t("F(Z)")))  # an arity mismatch
@example((clause("c", "F(x, Z)", "x"), t("F(Z, Hop)")))  # a functor mismatch
def test_compiled_application_matches_match_and_substitute(application):
    c, tree = application
    binding = match(c.lhs, tree)
    want = None if binding is None else substitute(c.rhs, binding)
    got = apply_clause(c, tree)
    if want is None:
        assert got is None
    else:
        assert got == want
        assert (got.size, got.is_ground, hash(got)) == (want.size, want.is_ground, hash(want))


def _rebuild(pattern, binding):
    # structural substitution that rebuilds every App node
    if isinstance(pattern, Var):
        return binding.get(pattern.name, pattern)
    return App(pattern.functor, tuple(_rebuild(c, binding) for c in pattern.children))


def _reference_fields(t):
    # (size, is_ground, hash) of a node by the generator formulas App was
    # first written with, computed recursively from the leaves
    if isinstance(t, Var):
        return 1, False, hash(("var", t.name))
    fields = [_reference_fields(c) for c in t.children]
    return (
        1 + sum(f[0] for f in fields),
        all(f[1] for f in fields),
        hash(("app", t.functor, tuple(f[2] for f in fields))),
    )


_OPEN_TERMS = st.recursive(
    st.sampled_from([Var("x"), Var("y"), App("Z"), App("A")]),
    lambda kids: st.builds(lambda f, cs: App(f, cs), st.sampled_from("FG"), st.lists(kids, max_size=3)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_OPEN_TERMS)
@example(App("F", [App("Z"), Var("x")]))  # a list of children, one of them a variable
@example(App("F", (App("G", (Var("x"),)), App("Z"))))  # a variable below a child
def test_app_fields_match_the_generator_formulas(term):
    todo = [term]
    while todo:
        node = todo.pop()
        if isinstance(node, App):
            assert type(node.children) is tuple
            assert (node.size, node.is_ground, hash(node)) == _reference_fields(node)
            todo.extend(node.children)


@st.composite
def _shared_terms(draw):
    """Terms built bottom-up from a pool of nodes, so subtree objects are
    shared within and between terms, in a drawn order."""
    pool = [Var("x"), Var("y")]
    for _ in range(draw(st.integers(1, 12))):
        kids = draw(st.lists(st.integers(0, len(pool) - 1), max_size=3))
        pool.append(App(draw(st.sampled_from("FG")), tuple(pool[i] for i in kids)))
    return draw(st.permutations(pool))


_X = Var("x")
_FX = App("F", (_X,))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_shared_terms())
@example([App("G", (_FX, _FX, App("F", (Var("x"),)))), _FX, _X])  # one subtree twice in a tree, an equal copy
@example([App("F"), App("F", (App("F"),)), App("F", (App("F"), App("F")))])  # one functor at arities 0-2
def test_memoised_print_matches_print_term(terms):
    memo = {}
    assert [print_term(u, memo) for u in terms] == [print_term(u) for u in terms]
    plain = sorted(terms, key=lambda u: (term_size(u), print_term(u)))
    memo = {}
    memoised = sorted(terms, key=lambda u: (term_size(u), print_term(u, memo)))
    assert [id(u) for u in memoised] == [id(u) for u in plain]
    # reachable_set's form: by text, then a stable sort by size
    two_pass = sorted(terms, key=lambda u: print_term(u, memo))
    two_pass.sort(key=term_size)
    assert [id(u) for u in two_pass] == [id(u) for u in plain]


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
        assert same_relation(got, clause("", "P(R(x, y), z)", "y"))

    def test_fg_composition_commutes(self):
        a = clause("a", "P(x, y)", "P(F(F(x)), G(y))")
        b = clause("b", "P(x, y)", "P(F(x), G(y))")
        expected = clause("", "P(x, y)", "P(F(F(F(x))), G(G(y)))")
        assert same_relation(compose_clauses(a, b), expected)
        assert same_relation(compose_clauses(b, a), expected)

    def test_identity_is_neutral(self):
        c = clause("c", "P(R(x, z), y)", "P(x, R(y, z))")
        assert same_relation(compose_clauses(IDENTITY, c), c)
        assert same_relation(compose_clauses(c, IDENTITY), c)

    def test_occurs_check_follows_older_bindings_once_an_older_variable_is_bound(self):
        # x'0 := G(y'2) binds a variable that is not fresh, so the check of
        # y'2 := K(c'1) must follow c'1 := H(x'0), made before
        subst = {"a'1": Var("x'0"), "c'1": App("H", (Var("x'0"),))}
        trail = []
        rhs = App("F", (App("K", (Var("c'1"),)), Var("a'1")))
        lhs = App("F", (Var("y'2"), App("G", (Var("y'2"),))))
        assert unify(rhs, lhs, subst, {"y'2"}, trail) is None
        assert trail == ["x'0"]

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


def _reference_unify(a, b):
    # unification with a full occurs check, as it was before the fold kept
    # one substitution
    subst = {}

    def walk(t):
        while isinstance(t, Var) and t.name in subst:
            t = subst[t.name]
        return t

    def occurs(name, t):
        t = walk(t)
        if isinstance(t, Var):
            return t.name == name
        return any(occurs(name, c) for c in t.children)

    stack = [(a, b)]
    while stack:
        x, y = map(walk, stack.pop())
        if x == y:
            continue
        if isinstance(y, Var):
            x, y = y, x
        if isinstance(x, Var):
            if occurs(x.name, y):
                return None
            subst[x.name] = y
        elif x.functor != y.functor or len(x.children) != len(y.children):
            return None
        else:
            stack.extend(zip(x.children, y.children))
    return subst


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
    subst = _reference_unify(rhs1, lhs2)
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
    # the fold of one clause is that clause renamed canonically
    assert compose_clauses(c1) == _reference_canonical(c1.name, c1.lhs, c1.rhs)


def _reference_fold(clauses):
    first = clauses[0]
    folded = _reference_canonical(first.name, first.lhs, first.rhs)
    for c in clauses[1:]:
        folded = _reference_compose(folded, c)
        if folded is None:
            return None
    return folded


def _same_fold(got, want):
    if want is None:
        return got is None
    return (got.name, got.lhs, got.rhs) == (want.name, want.lhs, want.rhs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_clauses(), min_size=1, max_size=5), st.lists(_clauses(), max_size=3), st.integers(0, 5))
@example(  # the second step unifies x with G(y), then y with G(y)
    [clause("d", "x", "F(x, x)"), clause("e", "F(G(y), y)", "y")], [], 1
)
@example(  # the last step binds x to G(y), then y to K(c) with c bound to H(x) a step before
    [clause("q", "x", "Q(x, H(x))"), clause("f", "Q(a, c)", "F(K(c), a)"), clause("e", "F(y, G(y))", "y")], [], 2
)
def test_fold_matches_stepwise_reference(clauses, other, keep):
    """One fold over one substitution equals a composition per step, also
    when it resumes from a shared state: after a prefix, after the full
    list, after a list that diverges from it."""
    assert _same_fold(compose_clauses(*clauses), _reference_fold(clauses))
    state = []
    keep = min(keep, len(clauses))
    for call in (clauses[:keep] or clauses, clauses, clauses[:keep] + other or clauses):
        assert _same_fold(compose_clauses(*call, state=state), _reference_fold(call))
        assert len(state) <= len(call)


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

    @pytest.mark.parametrize("facts, rules, message", [
        (["Parent(Adam, c)"], [], "fact Parent(Adam, c) is not ground"),
        ([], [([], "Q(A)")], "rule a1 has an empty body"),
        ([], [(["Parent(p, c)", "b"], "Q(p)")], "rule a1 has a non-atomic body element"),
    ], ids=["non-ground-fact", "empty-body", "variable-body-element"])
    def test_unsupported_rule(self, facts, rules, message):
        rules = [([t(b) for b in body], t(head)) for body, head in rules]
        with pytest.raises(UnsupportedRule) as exc:
            horn_to_tpc([t(f) for f in facts], rules, None)
        assert str(exc.value) == message

    def test_a_rule_variable_named_x_is_not_captured(self):
        fact = t("Parent(Adam, John)")
        goal = t("Ancestor(Adam, John)")
        proofs = []
        for a, b in (("x", "y"), ("u", "v"), ("x", "x1")):
            rule = ([t(f"Parent({a}, {b})")], t(f"Ancestor({a}, {b})"))
            th = horn_to_tpc([fact], [rule], goal)
            proofs.append(find_proof(th, goal, SearchBudget()).steps)
        assert proofs == [("p1", "a1", "l1")] * 3
        assert str(th.axioms[1]) == "And(Parent(x, x1), x2) -> And(Ancestor(x, x1), x2)"
