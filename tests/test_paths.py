"""Path composition identities, clause splitting, and atom evaluation."""

import pytest
from hypothesis import example, given, settings, strategies as st

from tpc.affine import ONE, AffineExpr
from tpc.inclusion import _align
from tpc.paths import (
    EqualsLR,
    GroundL,
    GroundR,
    IDENTITY_PATH,
    IterGroup,
    Segment,
    Step,
    SymbolicPath,
    embed,
    eval_atomset,
    _unit_step,
    apply_segments,
    split_axiom,
    unroll,
)
from tpc import load_theory
from tpc.schemes import reduce_specific
from tpc.terms import App, Clause, Var, compose_clauses, free_vars, parse_term, print_term

from conftest import (
    ComposedPath,
    compose_paths,
    concrete,
    matched,
    power_path,
    step_clause,
    step_key,
    step_notation,
    substitute,
    symbolic_path,
)


def step(lhs, var):
    return _unit_step(*step_key(lhs, var))


def merged(p):
    """*p* as one canonical clause, so that equal relations compare equal."""
    return compose_paths(p, IDENTITY_PATH)


class TestSteps:
    def test_apply_extracts_subtree(self):
        s = step("P(x, y)", "x")
        assert s.apply(parse_term("P(A, B)")) == parse_term("A")

    def test_apply_mismatch(self):
        s = step("P(x, y)", "x")
        assert s.apply(parse_term("Q(A, B)")) is None

    def test_canonical_names(self):
        assert step("P(a, b)", "b") is step("P(x, y)", "y")

    def test_str(self):
        assert str(step("P(a, b)", "b")) == "[P(x, y)->y]"

    @pytest.mark.parametrize("arity", range(1, 13))
    def test_str_is_the_clause_rendering(self, arity):
        # the rendering of the clause f(s0, ..., hole, ...) -> hole, named
        # canonically, as steps were printed when each carried that clause
        for child in range(arity):
            lhs = App("F", tuple(Var("hole") if i == child else Var(f"s{i}") for i in range(arity)))
            assert str(_unit_step("F", arity, child)) == step_notation(compose_clauses(Clause("", lhs, Var("hole"))))

    def test_repr_orders_as_the_clause_repr(self):
        # sigma's _merge_keys sorts family keys by their text, which holds
        # each step's repr; the clause's repr ordered children as decimal
        # text, v10 before v2, and so does child=10 before child=2
        def clause_repr(s):
            c = step_clause(s)
            return f"Step(lhs={c.lhs!r}, var={c.rhs.name!r})"

        steps = [_unit_step(f, a, c) for f, a in (("F", 1), ("G", 12), ("FG", 3), ("And", 2), ("P", 11)) for c in range(a)]
        assert sorted(steps, key=repr) == sorted(steps, key=clause_repr)


def _subtrees(tree):
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(node.children)


# ground trees whose functors F and G each come with arities 1 to 3
_GROUND = st.recursive(
    st.sampled_from([App("A"), App("B")]),
    lambda kids: st.builds(lambda f, cs: App(f, tuple(cs)), st.sampled_from("FG"), st.lists(kids, min_size=1, max_size=3)),
    max_leaves=8,
)
_UNIT_KEYS = st.tuples(st.sampled_from("FGA"), st.integers(1, 3)).flatmap(
    lambda fa: st.tuples(st.just(fa[0]), st.just(fa[1]), st.integers(0, fa[1] - 1))
)


@st.composite
def _steps_and_trees(draw):
    """A unit step and a ground tree: any one, or an instance of the
    step's lhs; it may be re-parsed from its text, so that equal subtrees
    are not the same object."""
    s = _unit_step(*draw(_UNIT_KEYS))
    if draw(st.booleans()):
        tree = draw(_GROUND)
    else:
        lhs = step_clause(s).lhs
        tree = substitute(lhs, {v: draw(_GROUND) for v in sorted(free_vars(lhs))})
    return s, parse_term(print_term(tree)) if draw(st.booleans()) else tree


class TestUnitSteps:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_steps_and_trees())
    @example((_unit_step("F", 1, 0), App("F", (App("A"), App("B")))))  # right functor, wrong arity
    @example((_unit_step("F", 2, 1), App("F", (App("A"),))))  # a child past the tree's arity
    @example((_unit_step("A", 1, 0), App("A")))  # a constant
    @example((_unit_step("G", 2, 0), App("F", (App("A"), App("B")))))  # wrong functor
    def test_descent_matches_match(self, case):
        s, tree = case
        for node in _subtrees(tree):
            assert s.apply(node) is matched(s, node)

    def test_every_distinct_variable_lhs_descends(self):
        # written as a clause, built directly, by split_axiom and composed
        # by compose_paths alike
        s = step("F(a, b, c)", "b")
        assert s is _unit_step("F", 3, 1) and s == Step("F", 3, 1) and hash(s) == hash(Step("F", 3, 1))
        assert compose_paths(IDENTITY_PATH, concrete((s,))) == ComposedPath.of("F(a, b, c)", "b")
        (atom,) = split_axiom(Clause("", parse_term("P(x, F(y))"), parse_term("y")))
        assert [seg.step for seg in atom.left.segments] == [_unit_step("P", 2, 1), _unit_step("F", 1, 0)]
        for text in ("F(A, B, C)", "F(A, B)", "G(A, B, C)", "A"):
            tree = parse_term(text)
            assert s.apply(tree) is matched(s, tree)


class TestComposition:
    def test_projection_pair(self):
        # [P(x,y)->x].[R(x,y)->y] = [P(R(x,y),z)->y]
        p = concrete((step("P(x, y)", "x"), step("R(x, y)", "y")))
        assert merged(p) == ComposedPath.of("P(R(x, y), z)", "y")

    def test_power_of_strip(self):
        p = power_path(concrete((step("F(x)", "x"),)), 4)
        assert p == ComposedPath.of("F(F(F(F(x))))", "x")

    def test_identity_is_neutral(self):
        p = concrete((step("F(x)", "x"),))
        assert compose_paths(IDENTITY_PATH, p) == compose_paths(p, IDENTITY_PATH) == ComposedPath.of("F(x)", "x")
        assert str(compose_paths(IDENTITY_PATH, p)) == str(p)

    def test_power_zero(self):
        p = concrete((step("F(x)", "x"),))
        assert str(power_path(p, 0)) == str(IDENTITY_PATH)

    def test_compose_deepens_pattern(self):
        p = concrete((step("F(x)", "x"),))
        q = concrete((step("P(x, y)", "x"),))
        assert compose_paths(p, q) == ComposedPath.of("F(P(x, y))", "x")

    def test_symbolic_expand_and_apply(self):
        f = step("F(x)", "x")
        p = SymbolicPath((Segment(f, AffineExpr.var("n")),))
        tree = parse_term("F(F(F(Z)))")
        assert apply_segments(p.segments, tree, {"n": 2}) == parse_term("F(Z)")
        assert apply_segments(p.segments, tree, {"n": 5}) is None
        assert apply_segments(p.segments, tree, {"n": -1}) is None
        assert p.expand({"n": -1}) is None

    def test_str_forms(self):
        f = step("F(x)", "x")
        n = AffineExpr.var("n")
        p = SymbolicPath((Segment(step("P(x, y)", "x")), Segment(f, n + n)))
        assert str(p) == "[P(x, y)->x].[F(x)->x]^{2n}"
        assert str(IDENTITY_PATH) == "[x->x]"


def merged_unit_path(steps):
    return symbolic_path(*(Segment(s, ONE) for s in steps))


class TestConcrete:
    """concrete() counts runs of equal steps directly; it gives what
    merging unit segments one at a time gives."""

    F, PX, PY = ("F(x)", "x"), ("P(x, y)", "x"), ("P(x, y)", "y")

    @pytest.mark.parametrize(
        "pattern",
        [(), (F,), (F, PX, F, PX, F), (PX, PY) * 3, (F,) * 500, (PX,) + (F,) * 40 + (PY, PY)],
        ids=["empty", "single", "alternating", "alternating-pair", "long-run", "runs"],
    )
    def test_equals_merged_unit_segments(self, pattern):
        # a fresh Step per element: runs are found by equality, not identity
        steps = [Step(*step_key(*s)) for s in pattern]
        assert concrete(steps) == merged_unit_path(steps)

    def test_empty_is_identity(self):
        assert concrete(()) == IDENTITY_PATH

    def test_long_run_is_one_segment(self):
        (seg,) = concrete([step("F(x)", "x")] * 500).segments
        assert seg.count == AffineExpr.const_(500)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([F, PX, PY]), max_size=30))
    def test_any_sequence(self, pattern):
        steps = [Step(*step_key(*s)) for s in pattern]
        assert concrete(steps) == merged_unit_path(steps)


# The split as it was before it built run-length paths during its walk:
# one walk collects positions, and each position's unit steps are rebuilt
# from the root, then merged into runs.


def _unit_steps(t, pos):
    steps = []
    node = t
    for child_idx in pos:
        steps.append(_unit_step(node.functor, len(node.children), child_idx))
        node = node.children[child_idx]
    return tuple(steps)


def _reference_positions(t):
    var_at = {}
    ground = []
    todo = [((), t)]
    while todo:
        at, node = todo.pop()
        if isinstance(node, Var):
            var_at.setdefault(node.name, []).append(at)
        elif node.is_ground:
            ground.append((at, node))
        else:
            todo.extend((at + (i,), c) for i, c in reversed(tuple(enumerate(node.children))))
    return var_at, ground


def _reference_split(c):
    lhs_vars, lhs_ground = _reference_positions(c.lhs)
    rhs_vars, rhs_ground = _reference_positions(c.rhs)

    def path(t, pos):
        return concrete(_unit_steps(t, pos))

    atoms = [
        EqualsLR(path(c.lhs, lpos), path(c.rhs, rpos))
        for v, rposs in rhs_vars.items()
        for rpos in rposs
        for lpos in lhs_vars[v]
    ]
    atoms += [GroundL(path(c.lhs, pos), sub) for pos, sub in lhs_ground]
    atoms += [GroundR(path(c.rhs, pos), sub) for pos, sub in rhs_ground]
    return tuple(atoms)


# nodes whose steps repeat (F/1, the left of G/2, the right of And/2) and
# whose steps alternate, with repeated variables and ground leaves
_SPLIT_TERMS = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Var("z"), App("Z"), App("A")]),
    lambda kids: st.one_of(
        st.builds(lambda a: App("F", (a,)), kids),
        st.builds(lambda a, b: App("G", (a, b)), kids, kids),
        st.builds(lambda a, b: App("And", (a, b)), kids, kids),
    ),
    max_leaves=12,
)

_ANCESTOR = load_theory("ancestor")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SPLIT_TERMS, _SPLIT_TERMS)
@example(  # ancestor's And spine, where each leaf's path has two runs
    reduce_specific(_ANCESTOR, ("p3", "p2", "p1", "p3", "p2", "l2", "l2")).lhs,
    reduce_specific(_ANCESTOR, ("p3", "p2", "p1", "p3", "p2", "l2", "l2")).rhs,
)
@example(parse_term("F(F(F(G(F(F(x)), y))))"), parse_term("G(F(F(y)), F(x))"))
def test_split_matches_per_position_reference(lhs, rhs):
    # rhs variables the lhs lacks are dropped to Z, so the clause is valid
    rhs = substitute(rhs, {v: App("Z") for v in free_vars(rhs) - free_vars(lhs)})
    c = Clause("", lhs, rhs)
    assert split_axiom(c) == _reference_split(c)


class TestSplit:
    def test_rotation_clause_three_atoms(self):
        # P(R(x,z),y) -> P(x,R(y,z)) splits into three variable links.
        c = Clause("b", parse_term("P(R(x, z), y)"), parse_term("P(x, R(y, z))"))
        s = split_axiom(c)
        assert len(s) == 3
        got = {(str(a.left), str(a.right)) for a in s}
        assert got == {
            ("[P(x, y)->x].[R(x, y)->x]", "[P(x, y)->x]"),
            ("[P(x, y)->y]", "[P(x, y)->y].[R(x, y)->x]"),
            ("[P(x, y)->x].[R(x, y)->y]", "[P(x, y)->y].[R(x, y)->y]"),
        }

    def test_rotation_clause_atoms_are_built_from_shared_steps(self):
        c = Clause("b", parse_term("P(R(x, z), y)"), parse_term("P(x, R(y, z))"))
        px, py = step("P(x, y)", "x"), step("P(x, y)", "y")
        rx, ry = step("R(x, y)", "x"), step("R(x, y)", "y")
        first = split_axiom(c)
        assert first == (
            EqualsLR(concrete((px, rx)), concrete((px,))),
            EqualsLR(concrete((py,)), concrete((py, rx))),
            EqualsLR(concrete((px, ry)), concrete((py, ry))),
        )
        for a, b in zip(first, split_axiom(c)):
            for p, q in ((a.left, b.left), (a.right, b.right)):
                assert all(s.step is u.step for s, u in zip(p.segments, q.segments))

    def test_unit_steps_are_reused(self):
        tree = parse_term("P(R(R(x, D1), D2), y)")
        first = _unit_steps(tree, (0, 0, 1))
        second = _unit_steps(tree, (0, 0, 1))
        assert first == (step("P(x, y)", "x"), step("R(x, y)", "x"), step("R(x, y)", "y"))
        assert all(a is b for a, b in zip(first, second))
        assert first[1] is _unit_steps(parse_term("R(u, v)"), (0,))[0]

    def test_ground_fact_clause(self):
        c = Clause("p3", parse_term("x"), parse_term("And(Parent(Adam, John), x)"))
        s = split_axiom(c)
        kinds = [type(a).__name__ for a in s]
        assert kinds == ["EqualsLR", "GroundR"]
        eq, gr = s
        assert str(eq.left) == "[x->x]"
        assert str(eq.right) == "[And(x, y)->y]"
        assert gr.template == parse_term("Parent(Adam, John)")
        assert str(gr.path) == "[And(x, y)->x]"

    def test_identity_clause(self):
        s = split_axiom(Clause("", parse_term("x"), parse_term("x")))
        assert len(s) == 1
        a = s[0]
        assert isinstance(a, EqualsLR)
        assert a.left == IDENTITY_PATH and a.right == IDENTITY_PATH

    def test_dropped_lhs_variable_emits_nothing(self):
        c = Clause("l1", parse_term("And(x, y)"), parse_term("x"))
        s = split_axiom(c)
        assert len(s) == 1
        assert str(s[0]) == "EqualsLR([And(x, y)->x], [x->x])"

    def test_nonlinear_rhs_variable(self):
        c = Clause("", parse_term("F(x)"), parse_term("Pair(x, x)"))
        s = split_axiom(c)
        assert len(s) == 2


def _matches_clause(c, t, d):
    from tpc.terms import apply_clause

    return apply_clause(c, t) == d


CLAUSES = [
    Clause("a", parse_term("P(x, y)"), parse_term("P(F(F(x)), G(y))")),
    Clause("b", parse_term("P(R(x, z), y)"), parse_term("P(x, R(y, z))")),
    Clause("c", parse_term("x"), parse_term("And(Parent(Adam, John), x)")),
    Clause("d", parse_term("And(x, y)"), parse_term("x")),
]

TREES = [
    parse_term(s)
    for s in [
        "P(A, B)",
        "P(F(A), G(B))",
        "P(R(A, B), C)",
        "P(R(R(A, B), C), D)",
        "And(Parent(Adam, John), S)",
        "And(A, B)",
        "A",
        "S",
        "Parent(Adam, John)",
        "P(F(F(A)), G(B))",
        "P(A, R(B, C))",
    ]
]


class TestSplitSemantics:
    @pytest.mark.parametrize("c", CLAUSES, ids=lambda c: c.name)
    def test_split_matches_root_application(self, c):
        """The atom set holds on (t, d) exactly when c rewrites t to d,
        except where the clause drops information (then the atoms are the
        projection of the relation, still implied by it)."""
        s = split_axiom(c)
        drops = bool(
            {v for v in _clause_vars(c.lhs)} - {v for v in _clause_vars(c.rhs)}
        )
        for t in TREES:
            for d in TREES:
                holds = eval_atomset(s, {}, t, d)
                rewrites = _matches_clause(c, t, d)
                if rewrites:
                    assert holds
                elif not drops:
                    assert not holds


def _clause_vars(t):
    from tpc.terms import free_vars

    return free_vars(t)


class TestEval:
    def test_itergroup(self):
        f = step("F(x)", "x")
        i = AffineExpr.var("i")
        atom = EqualsLR(SymbolicPath((Segment(f, i),)), SymbolicPath((Segment(f, i),)))
        g = IterGroup("i", AffineExpr.var("m"), atom)
        t = parse_term("F(F(F(Z)))")
        assert eval_atomset((g,), {"m": 3}, t, t)
        assert not eval_atomset((g,), {"m": 4}, t, t)
        assert eval_atomset((g,), {"m": 0}, t, parse_term("Z"))
        assert str(g) == "IterIntersect(lambda i:N. EqualsLR([F(x)->x]^{i}, [F(x)->x]^{i}), 1, m)"

    def test_multiindex_element_selector(self):
        f = step("F(x)", "x")
        a = EqualsLR(
            SymbolicPath((Segment(f, AffineExpr.element("m", AffineExpr.const_(1))),)),
            IDENTITY_PATH,
        )
        t = parse_term("F(F(Z))")
        assert eval_atomset((a,), {"m": (2, 5)}, t, parse_term("Z"))
        # out-of-range selector is simply false, not an error
        assert not eval_atomset((a,), {"m": ()}, t, parse_term("Z"))

    def test_a_selector_on_a_count_is_false(self):
        # n[1] with n a count, not a multi-index: there is no element to read
        selected = AffineExpr.element("n", AffineExpr.const_(1))
        with pytest.raises(KeyError) as info:
            selected.evaluate({"n": 2})
        assert info.value.args == ("n has no elements to select from",)
        a = EqualsLR(SymbolicPath((Segment(step("F(x)", "x"), selected),)), IDENTITY_PATH)
        assert not eval_atomset((a,), {"n": 2}, parse_term("F(F(Z))"), parse_term("Z"))


class TestSides:
    PX = concrete((step("P(x, y)", "x"),))
    T, D = parse_term("P(A, B)"), parse_term("P(B, A)")

    def test_ground_atoms_read_their_own_side(self):
        a, b = parse_term("A"), parse_term("B")
        assert eval_atomset((GroundL(self.PX, a),), {}, self.T, self.D)
        assert not eval_atomset((GroundR(self.PX, a),), {}, self.T, self.D)
        assert eval_atomset((GroundR(self.PX, b),), {}, self.T, self.D)
        assert GroundR(self.PX, b).sides(self.T, self.D) == ((self.PX, self.D), (IDENTITY_PATH, b))

    def test_with_paths_rebuilds_from_sides(self):
        py = concrete((step("P(x, y)", "y"),))
        a = parse_term("A")
        for atom in (EqualsLR(self.PX, py), GroundL(self.PX, a), GroundR(self.PX, a)):
            assert atom.with_paths(*(path for path, _ in atom.sides())) == atom
            assert atom.with_paths(py, IDENTITY_PATH).sides()[0][0] == py


# The three leftmost embeddings ``embed`` replaced, as they were: sigma's
# subsequence test and run-count placement, and inclusion's run alignment.


def _old_sub_skeleton(a, b):
    it = iter(b)
    return all(step in it for step in a)


def _old_embed(path, skeleton):
    out = [0] * len(skeleton)
    si = 0
    for seg in path.segments:
        while si < len(skeleton) and skeleton[si] != seg.step:
            si += 1
        if si == len(skeleton):
            return None
        out[si] = seg.count.const
        si += 1
    return out


def _old_align(p, q):
    a = [(seg.step, seg.count) for seg in p.segments]
    b = [(seg.step, seg.count) for seg in q.segments]
    if len(a) < len(b):
        a, b = b, a
    out = []
    bi = 0
    for step, count in a:
        if bi < len(b) and b[bi][0] == step:
            out.append((count, b[bi][1]))
            bi += 1
        else:
            out.append((count, AffineExpr.const_(0)))
    if bi != len(b):
        return None
    return out


EMBED_STEPS = (_unit_step("F", 1, 0), _unit_step("G", 1, 0), _unit_step("P", 2, 0), _unit_step("P", 2, 1))
EMBED_COUNTS = (ONE, AffineExpr.const_(3), AffineExpr.var("n"), AffineExpr.var("n") + 1)
_run_lists = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=7)


def _path_of_runs(runs, counts=EMBED_COUNTS):
    # runs are not merged: the walks never assume adjacent steps differ
    return SymbolicPath(tuple(Segment(EMBED_STEPS[s], counts[c]) for s, c in runs))


class TestEmbed:
    def test_leftmost_slots(self):
        f, g = EMBED_STEPS[:2]
        assert embed((f,), (g, f, f)) == [1]
        assert embed((f, f), (f, g, f)) == [0, 2]
        assert embed((), (f,)) == [] and embed((), ()) == []
        assert embed((g, f), (f, g)) is None and embed((f,), ()) is None

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_run_lists, _run_lists)
    @example([(0, 0)], [(1, 0), (0, 1), (0, 2)])
    @example([(0, 0), (1, 0)], [(1, 0), (0, 0)])
    @example([], [])
    def test_embed_matches_the_walks_it_replaced(self, a, b):
        consts = tuple(AffineExpr.const_(c) for c in range(1, 5))
        p, skeleton = _path_of_runs(a, consts), _path_of_runs(b).steps()
        slots = embed(p.steps(), skeleton)
        assert (slots is not None) == _old_sub_skeleton(p.steps(), skeleton)
        if slots is None:
            assert _old_embed(p, skeleton) is None
        else:
            placed = dict(zip(slots, (seg.count.const for seg in p.segments)))
            assert [placed.get(i, 0) for i in range(len(skeleton))] == _old_embed(p, skeleton)
        p, q = _path_of_runs(a), _path_of_runs(b)
        assert _align(p, q) == _old_align(p, q)
        assert _align(q, p) == _old_align(q, p)


def test_unroll_reads_a_group_at_each_value_of_its_variable():
    f = step("F(x)", "x")
    plain = EqualsLR(IDENTITY_PATH, IDENTITY_PATH)
    inner = EqualsLR(SymbolicPath((Segment(f, AffineExpr.var("i")),)), IDENTITY_PATH)
    group = IterGroup("i", AffineExpr.var("m"), inner)
    assert list(unroll((plain, group), {"m": 2})) == [
        (plain, {"m": 2}),
        (inner, {"m": 2, "i": 1}),
        (inner, {"m": 2, "i": 2}),
    ]
    assert list(unroll((group,), {"m": 0, "i": 7})) == []
    # lazy: the bound is evaluated when the iteration reaches the group
    lazy = unroll((plain, group), {})
    assert next(lazy) == (plain, {})
    with pytest.raises(KeyError):
        next(lazy)
    # a bound that cannot be evaluated makes the conjunction false
    t = parse_term("F(Z)")
    assert eval_atomset((group,), {"m": 1}, t, parse_term("Z"))
    assert not eval_atomset((group,), {}, t, parse_term("Z"))
    assert not eval_atomset((plain, group), {}, t, t)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_power_compose_coherence(a, b):
    f = concrete((step("F(x)", "x"),))
    lhs = power_path(f, a + b)
    rhs = compose_paths(power_path(f, a), power_path(f, b))
    assert lhs == rhs
    if a + b == 0:
        assert lhs == ComposedPath.of("x", "x")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CLAUSES), st.sampled_from(TREES))
def test_split_apply_equivalence(c, t):
    from tpc.terms import apply_clause

    d = apply_clause(c, t)
    if d is not None:
        assert eval_atomset(split_axiom(c), {}, t, d)
