"""Index tuning, the decision procedure, and proof extraction."""

import pytest
from hypothesis import example, given, settings, strategies as st

from tpc import load_theory
from tpc.errors import Ambiguous
from tpc.final import _COUNT_CAP, TuneResult, _count_equation, _solve_some, decide, extract_proof, tune
from tpc.affine import AffineExpr
from tpc.mathsolver import Equation, solve_concrete
from tpc.oracle import SearchBudget, reachable_set
from tpc.paths import AtomSet, EqualsLR, GroundL, IterGroup, Segment, Step, SymbolicPath, VarDecl, _unit_step
from tpc.pipeline import pipeline
from tpc.schemes import parse_scheme
from tpc.sigma import Branch, SymbolicCharFn, sigma
from tpc.terms import App, Proof, check_proof, match, parse_term, parse_theory, replay


class TestScalarTuning:
    def test_single_chain(self):
        th = load_theory("chain")
        fn = sigma(th, parse_scheme("a*"))
        t = parse_term("P(F(Z))")
        d = parse_term("P(F(F(F(F(Z)))))")
        result = tune(fn, t, d)
        assert result == TuneResult(0, {"n": 3})

    def test_two_variables(self):
        th = load_theory("fg")
        fn = sigma(th, parse_scheme("b*.a*"))
        d = parse_term("P(F(F(F(F(F(F(F(F(Z)))))))), G(G(G(G(G(Z))))))")
        result = tune(fn, th.start, d)
        assert result.assignment == {"n": 2, "k": 3}

    def test_no_solution_wrong_parity(self):
        th = load_theory("mod2")
        fn = sigma(th, parse_scheme("b*"))
        # b adds F twice per application, so an odd count is unreachable
        assert tune(fn, th.start, parse_term("P(F(Z))")) is None
        assert tune(fn, th.start, parse_term("P(F(F(Z)))")).assignment == {"n": 1}

    def test_mismatched_shape(self):
        th = load_theory("chain")
        fn = sigma(th, parse_scheme("a*"))
        assert tune(fn, th.start, parse_term("Q(Z)")) is None

    def test_unconstrained_index_picks_a_witness(self):
        th = parse_theory("start: P(Z)\na: P(x) -> P(x)\n")
        fn = sigma(th, parse_scheme("a*"))
        assert tune(fn, th.start, th.start).assignment == {"n": 0}

    def test_underdetermined_sum(self):
        # two interchangeable axioms: any split of the F-count works
        th = load_theory("mod2")
        fn = sigma(th, parse_scheme("b*.a*"))
        d = parse_term("P(F(F(F(Z))))")
        result = tune(fn, th.start, d)
        n, k = result.assignment["n"], result.assignment["k"]
        assert k + 2 * n == 3

    def test_two_unknown_runs_is_ambiguous(self):
        left = SymbolicPath.of(
            Segment(Step(parse_term("P(x, y)"), "x"), AffineExpr.var("n"))
        )
        right = SymbolicPath.of(
            Segment(Step(parse_term("P(x, y)"), "y"), AffineExpr.var("k"))
        )
        decls = (VarDecl("n", "scalar"), VarDecl("k", "scalar"))
        atoms = AtomSet((EqualsLR(left, right),))
        branch = Branch(parse_scheme("a*"), decls, atoms)
        fn = SymbolicCharFn(parse_scheme("a*"), (branch,))
        t = parse_term("P(Z, Z)")
        with pytest.raises(Ambiguous):
            tune(fn, t, t)

    def test_two_unknown_runs_on_one_side_is_ambiguous(self):
        # built without SymbolicPath.of, which would merge the two F runs
        p, f = Step(parse_term("P(x)"), "x"), Step(parse_term("F(x)"), "x")
        left = SymbolicPath((Segment(p), Segment(f, AffineExpr.var("n")), Segment(f, AffineExpr.var("k"))))
        decls = (VarDecl("n", "scalar"), VarDecl("k", "scalar"))
        fn = _one_branch(decls, EqualsLR(left, SymbolicPath((Segment(p),))))
        t = parse_term("P(F(Z))")
        with pytest.raises(Ambiguous, match="^an atom has two undetermined counts on one side$"):
            tune(fn, t, t)

    def test_known_side_that_does_not_apply_gives_none(self):
        p, f = Step(parse_term("P(x)"), "x"), Step(parse_term("F(x)"), "x")
        left = SymbolicPath((Segment(p), Segment(f, AffineExpr.var("n"))))
        fn = _one_branch((VarDecl("n", "scalar"),), EqualsLR(left, SymbolicPath((Segment(p),))))
        assert tune(fn, parse_term("P(F(Z))"), parse_term("Q(Z)")) is None

    def test_group_atom_that_cannot_hold_gives_none(self):
        # the length m = 1 is solved, then F^{m[1]} cannot reach G(Z) from F(Z)
        fn = _one_branch_over_m(parse_term("G(Z)"), AffineExpr.element("m", AffineExpr.var("k")))
        t = parse_term("P(F(Z))")
        assert tune(fn, t, t) is None

    def test_group_atom_with_no_natural_element_gives_none(self):
        # the group reads 2 m[1] = 1
        fn = _one_branch_over_m(parse_term("Z"), AffineExpr.element("m", AffineExpr.var("k")) * 2)
        t = parse_term("P(F(Z))")
        assert tune(fn, t, t) is None

    def test_group_scope_keeps_runs_apart(self):
        # k = 1 zeroes the middle run; merging the runs around it would read
        # F^{2 m[1]}, one count
        mk = AffineExpr.element("m", AffineExpr.var("k"))
        fn = _one_branch_over_m(parse_term("Z"), mk, AffineExpr.var("k") - 1, mk)
        t = parse_term("P(F(Z))")
        with pytest.raises(Ambiguous, match="^an atom has two undetermined counts on one side$"):
            tune(fn, t, t)

    def test_branch_without_indexes_tunes_to_empty_assignment(self):
        th = load_theory("fg")
        fn = sigma(th, parse_scheme("a.b"))
        got = tune(fn, parse_term("P(Z, Z)"), parse_term("P(F(F(F(Z))), G(G(Z)))"))
        assert got == TuneResult(0, {})

    def test_identity_axiom_pins_only_free_counts(self, monkeypatch):
        # a is the identity, so every a* count in the scheme is free; pinning
        # each in turn, determined or not, took over 100 000 solves for one
        # decide here
        calls = []

        def fresh_tune(*args):
            calls.clear()
            return tune(*args)

        def counted(eqs, unknowns):
            calls.append(1)
            if len(calls) > 1000:
                raise AssertionError("one tune called solve_concrete over 1000 times")
            return solve_concrete(eqs, unknowns)

        monkeypatch.setattr("tpc.final.tune", fresh_tune)
        monkeypatch.setattr("tpc.final.solve_concrete", counted)
        th = parse_theory("start: P(Z)\na: P(x) -> P(x)\nb: P(x) -> P(F(x))\nc: P(x) -> P(F(F(x)))")
        proc = pipeline(th)
        assert proc.decide(parse_term("P(Z)"))
        goal = parse_term("P(F(F(F(F(F(Z))))))")
        assert replay(th, th.start, proc.prove(goal).steps) == goal

    def test_infeasible_branches_are_not_pinned(self, monkeypatch):
        # the first two branches leave equations such as j + 2n + n2 + 4 = 0,
        # which no naturals satisfy; pinning their free counts anyway took
        # 292 solves for this decide
        th = parse_theory("start: P(Z)\na: P(x) -> P(x)\nb: P(x) -> P(F(x))\nc: P(x) -> P(F(F(x)))")
        proc = pipeline(th, selfcheck=False)
        calls = []
        monkeypatch.setattr("tpc.final.solve_concrete", lambda *args: calls.append(1) or solve_concrete(*args))
        assert proc.decide(parse_term("P(Z)"))
        assert len(calls) <= 8

    def test_free_count_pinned_from_its_least_value(self):
        # k = n - 10, so every pin of n below 10 makes k negative
        n, k = AffineExpr.var("n"), AffineExpr.var("k")
        assert _solve_some([Equation(n - k, AffineExpr.const_(10))], ["n", "k"]) == {"n": 10, "k": 0}

    def test_free_count_no_pin_settles_is_ambiguous_with_it(self):
        # 10k = n + 1 needs n = 9, past the pins 0..8 that are tried
        n, k = AffineExpr.var("n"), AffineExpr.var("k")
        with pytest.raises(Ambiguous) as exc:
            _solve_some([Equation(k * 10, n + 1)], ["n", "k"])
        assert (str(exc.value), exc.value.free, exc.value.least) == ("n is not determined", "n", 0)


def _one_branch(decls, *atoms):
    return SymbolicCharFn(parse_scheme("a*"), (Branch(parse_scheme("a*"), decls, AtomSet(atoms)),))


def _one_branch_over_m(template, *counts):
    """A multi-index m whose length t's F run fixes, and a group that
    reads one F run per count from t's child into *template* for each k
    in 1..m."""
    p, f = Step(parse_term("P(x)"), "x"), Step(parse_term("F(x)"), "x")
    length = GroundL(SymbolicPath((Segment(p), Segment(f, AffineExpr.var("m")))), parse_term("Z"))
    body = GroundL(SymbolicPath((Segment(p), *(Segment(f, count) for count in counts))), template)
    group = IterGroup("k", AffineExpr.const_(1), AffineExpr.var("m"), (body,))
    return _one_branch((VarDecl("m", "multi"),), length, group)


class TestMultiIndexTuning:
    def test_rotation_elements(self):
        th = load_theory("rotate")
        fn = sigma(th, parse_scheme("(a*.b)*"))
        steps = ["a", "b", "a", "b", "a", "a", "b"]
        d = replay(th, th.start, steps)
        assert d is not None
        result = tune(fn, th.start, d)
        assert result.assignment == {"m": (1, 1, 2)}

    def test_rotation_proof_roundtrip(self):
        th = load_theory("rotate")
        fn = sigma(th, parse_scheme("(a*.b)*"))
        steps = ("a", "b", "a", "b", "a", "a", "b")
        d = replay(th, th.start, steps)
        proof = extract_proof(th, fn, th.start, d)
        assert proof.steps == steps

    def test_unrotated_pair(self):
        th = load_theory("rotate")
        fn = sigma(th, parse_scheme("(a*.b)*"))
        result = tune(fn, th.start, th.start)
        assert result.assignment == {"m": ()}


class TestDecideAgainstOracle:
    def test_two_chain_theory(self):
        th = load_theory("fg")
        fn = sigma(th, parse_scheme("b*.a*"))
        budget = SearchBudget(max_depth=8, max_tree_size=40)
        reachable = reachable_set(th, th.start, budget)

        def tree(i, j):
            return parse_term("P(" + "F(" * i + "Z" + ")" * i + ", " + "G(" * j + "Z" + ")" * j + ")")

        mismatches = []
        for i in range(0, 13):
            for j in range(0, 8):
                t = tree(i, j)
                got = decide(fn, th.start, t)
                want = t in reachable
                if got != want:
                    mismatches.append((i, j, got, want))
        assert mismatches == []

    def test_single_chain_theory(self):
        th = load_theory("chain")
        fn = sigma(th, parse_scheme("a*"))
        for j in range(0, 12):
            d = parse_term("P(" + "F(" * j + "Z" + ")" * j + ")")
            assert decide(fn, th.start, d)
        assert not decide(fn, th.start, parse_term("F(Z)"))


class TestProofExtraction:
    def test_chain_proof(self):
        th = load_theory("chain")
        fn = sigma(th, parse_scheme("a*"))
        d = parse_term("P(F(F(F(F(Z)))))")
        proof = extract_proof(th, fn, th.start, d)
        assert proof.steps == ("a", "a", "a", "a")

    def test_two_chain_proof(self):
        th = load_theory("fg")
        fn = sigma(th, parse_scheme("b*.a*"))
        d = parse_term("P(F(F(F(F(F(F(F(F(Z)))))))), G(G(G(G(G(Z))))))")
        proof = extract_proof(th, fn, th.start, d)
        assert proof.steps == ("b", "b", "a", "a", "a")
        assert replay(th, th.start, proof.steps) == d

    def test_unreachable_gives_none(self):
        th = load_theory("fg")
        fn = sigma(th, parse_scheme("b*.a*"))
        assert extract_proof(th, fn, th.start, parse_term("P(Z, G(Z))")) is None


# The counting walk as it was before it skipped an empty suffix and cut
# off at the target's size, with every step applied by matching its lhs.


def _matched(step, tree):
    binding = match(step.lhs, tree)
    return None if binding is None else binding[step.var]


def _reference_apply(segments, tree, env):
    for seg in segments:
        n = seg.count.evaluate(env)
        if n < 0:
            return None
        for _ in range(n):
            tree = _matched(seg.step, tree)
            if tree is None:
                return None
    return tree


def _reference_is_known(expr, env):
    try:
        expr.evaluate(env)
        return True
    except (KeyError, IndexError):
        return False


def _reference_count(segments, base, target, env):
    idx = next(i for i, s in enumerate(segments) if not _reference_is_known(s.count, env))
    tree = _reference_apply(segments[:idx], base, env)
    if tree is None:
        return None
    step = segments[idx].step
    suffix = segments[idx + 1:]
    j = 0
    while tree is not None and j <= _COUNT_CAP:
        if _reference_apply(suffix, tree, env) == target:
            return segments[idx].count, j
        tree = _matched(step, tree)
        j += 1
    return None


# a spine node is (functor, arity, child the spine goes on in); siblings
# are constants, so F and G each come with arity 1 and 2 along a spine
_SPINE_NODES = st.tuples(st.sampled_from("FG"), st.integers(1, 2)).flatmap(
    lambda fa: st.tuples(st.just(fa[0]), st.just(fa[1]), st.integers(0, fa[1] - 1))
)
_COUNTS = st.one_of(st.integers(0, 3).map(AffineExpr.const_), st.just(AffineExpr.var("k")))


def _spine(nodes):
    """The spine's tree and every subtree along it, root first."""
    trees = [App("Z")]
    for functor, arity, child in reversed(nodes):
        kids = tuple(trees[-1] if i == child else App("A") for i in range(arity))
        trees.append(App(functor, kids))
    return trees[::-1]


@st.composite
def _count_cases(draw):
    nodes = draw(st.lists(_SPINE_NODES, max_size=12))
    keys = draw(st.lists(_SPINE_NODES, min_size=1, max_size=3))
    segments = [Segment(_unit_step(*key), draw(_COUNTS)) for key in keys]
    unknown = draw(st.integers(0, len(segments) - 1))
    segments[unknown] = Segment(segments[unknown].step, AffineExpr.var("n") * draw(st.integers(1, 2)))
    trees = _spine(nodes)
    target = draw(st.sampled_from(trees + [App("A"), App("F", (App("A"),))]))
    return tuple(segments), trees[0], target


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_count_cases(), st.integers(0, 2))
@example(  # F(A, _) has the step's functor but not its arity
    ((Segment(_unit_step("F", 1, 0), AffineExpr.var("n")),), _spine([("F", 1, 0), ("F", 2, 0), ("F", 1, 0)])[0], App("Z")), 0
)
@example(  # a known suffix after the unknown run
    (
        (Segment(_unit_step("G", 1, 0), AffineExpr.var("n")), Segment(_unit_step("F", 2, 1), AffineExpr.var("k"))),
        _spine([("G", 1, 0), ("G", 1, 0), ("F", 2, 1), ("F", 2, 1)])[0],
        App("Z"),
    ),
    2,
)
def test_count_equation_matches_the_stepwise_walk(case, k):
    segments, base, target = case
    known = tuple(Segment(s.step, s.count.substitute({"k": AffineExpr.const_(k)})) for s in segments)
    assert _count_equation(known, base, target) == _reference_count(segments, base, target, {"k": k})


class TestLargeTrees:
    def test_prove_replays_a_20k_node_tree(self):
        fg = load_theory("fg")
        proc = pipeline(fg)
        fs, gs = App("Z"), App("Z")
        for _ in range(12_000):
            fs = App("F", (fs,))
        for _ in range(8_000):
            gs = App("G", (gs,))
        tree = App("P", (fs, gs))
        assert tree.size == 20_003
        proof = proc.prove(tree)
        assert isinstance(proof, Proof) and len(proof.steps) == 8_000
        assert check_proof(fg, proof) == tree
        assert proc.prove(App("P", (App("F", (fs,)), gs))) is not None
        assert proc.prove(App("P", (fs, App("G", (gs,))))) is not None
        assert proc.prove(App("P", (gs, fs))) is None
