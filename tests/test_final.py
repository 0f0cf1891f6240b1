"""Index tuning, the decision procedure, and proof extraction."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from tpc import final, load_theory
from tpc.errors import Ambiguous, InternalMismatch, TpcError
from tpc.final import TuneResult, _count_equation, _plan, decide, extract_proof, reaches, tune
from tpc.affine import AffineExpr
from tpc.mathsolver import LinearSystem, reduce_rows
from tpc.oracle import SearchBudget, decide_oracle, reachable_set
from tpc.paths import EqualsLR, GroundL, GroundR, IterGroup, Segment, SymbolicPath, VarDecl, _unit_step
from tpc.pipeline import pipeline
from tpc.schemes import instantiate, parse_scheme
from tpc.sigma import Branch, SymbolicCharFn, sigma
from tpc.terms import App, Proof, check_proof, parse_term, parse_theory, replay, undo

from conftest import matched
from test_delta import _linear_theories
from test_fingerprint import tuning


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
        left = SymbolicPath((Segment(_unit_step("P", 2, 0), AffineExpr.var("n")),))
        right = SymbolicPath((Segment(_unit_step("P", 2, 1), AffineExpr.var("k")),))
        decls = (VarDecl("n", "scalar"), VarDecl("k", "scalar"))
        atoms = (EqualsLR(left, right),)
        branch = Branch(parse_scheme("a*"), decls, atoms)
        fn = SymbolicCharFn(parse_scheme("a*"), (branch,))
        t = parse_term("P(Z, Z)")
        with pytest.raises(Ambiguous):
            tune(fn, t, t)

    def test_two_unknown_runs_on_one_side_is_ambiguous(self):
        # two adjacent F runs, each with its own unknown count
        p, f = _unit_step("P", 1, 0), _unit_step("F", 1, 0)
        left = SymbolicPath((Segment(p), Segment(f, AffineExpr.var("n")), Segment(f, AffineExpr.var("k"))))
        decls = (VarDecl("n", "scalar"), VarDecl("k", "scalar"))
        fn = _one_branch(decls, EqualsLR(left, SymbolicPath((Segment(p),))))
        t = parse_term("P(F(Z))")
        with pytest.raises(Ambiguous, match="^an atom has two undetermined counts on one side$"):
            tune(fn, t, t)

    def test_a_count_that_can_match_at_two_depths_is_ambiguous(self):
        # the atom [P(x, y)->x].[R(x, y)->x]^{n}.[R(x, y)->y] = [P(x, y)->x].[R(x, y)->y]
        # matches at n = 1, on the inner T, and at n = 2, the count a.a needs
        th = parse_theory("start: P(R(R(R(A, B), C), D), Z)\na: P(R(R(x, y), v), z) -> P(R(x, y), v)\n")
        t, d = parse_term("P(R(R(R(A, T), T), V), Z)"), parse_term("P(R(A, T), T)")
        assert replay(th, t, ["a", "a"]) == d
        fn = sigma(th, parse_scheme("a*"))
        with pytest.raises(Ambiguous, match="^an atom's count can match at two depths of its run$"):
            tune(fn, t, d)

    def test_known_side_that_does_not_apply_gives_none(self):
        p, f = _unit_step("P", 1, 0), _unit_step("F", 1, 0)
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

    def test_group_element_left_free_is_pinned(self):
        # the group reads F^{1} for m[1], which no count mentions; the
        # element stage pins it as the scalar stage pins a free count
        fn = _one_branch_over_m(parse_term("Z"), AffineExpr.const_(1))
        assert tune(fn, parse_term("P(F(Z))"), parse_term("P(Z)")) == TuneResult(0, {"m": (0,)})

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
        # decide here; each pin the solve tries counts as a solve too
        calls = []

        def fresh_tune(*args):
            calls.clear()
            return tune(*args)

        def counted(method):
            def call(*args):
                calls.append(1)
                if len(calls) > 1000:
                    raise AssertionError("one tune solved a linear system over 1000 times")
                return method(*args)

            return call

        monkeypatch.setattr("tpc.final.tune", fresh_tune)
        monkeypatch.setattr(LinearSystem, "solve", counted(LinearSystem.solve))
        monkeypatch.setattr(LinearSystem, "_pinned", counted(LinearSystem._pinned))
        th = parse_theory("start: P(Z)\na: P(x) -> P(x)\nb: P(x) -> P(F(x))\nc: P(x) -> P(F(F(x)))")
        proc = pipeline(th)
        calls.clear()
        assert proc.decide(parse_term("P(F(Z))"))
        assert calls
        goal = parse_term("P(F(F(F(F(F(Z))))))")
        assert replay(th, th.start, proc.prove(goal).steps) == goal

    def test_infeasible_branches_are_not_pinned(self, monkeypatch):
        # the first two branches leave equations such as j + 2n + n2 + 4 = 0,
        # which no naturals satisfy; pinning their free counts anyway took
        # 292 solves for a decide here; each pin the solve tries counts
        th = parse_theory("start: P(Z)\na: P(x) -> P(x)\nb: P(x) -> P(F(x))\nc: P(x) -> P(F(F(x)))")
        proc = pipeline(th, selfcheck=False)
        calls = []
        solve, pinned = LinearSystem.solve, LinearSystem._pinned
        monkeypatch.setattr(LinearSystem, "solve", lambda *args: calls.append(1) or solve(*args))
        monkeypatch.setattr(LinearSystem, "_pinned", lambda *args: calls.append(1) or pinned(*args))
        assert proc.decide(parse_term("P(F(Z))"))
        assert 0 < len(calls) <= 8

    def test_fg_decides_reduce_their_index_system_once(self, monkeypatch):
        # the branch's system is reduced on its first tune; every later
        # decide only evaluates it at the observed counts
        th = load_theory("fg")
        fn = sigma(th, parse_scheme("b*.a*"))
        calls = []
        monkeypatch.setattr("tpc.mathsolver.reduce_rows", lambda *args: calls.append(1) or reduce_rows(*args))
        f, g = "F({})".format, "G({})".format
        answers = []
        for i in range(200):
            x, y = "Z", "Z"
            for _ in range(i % 23):
                x = f(x)
            for _ in range(i % 11):
                y = g(y)
            answers.append(decide(fn, th.start, parse_term(f"P({x}, {y})")))
        assert len(calls) == 1
        assert answers.count(True) == sum(i % 11 <= i % 23 <= 2 * (i % 11) for i in range(200))

    def test_mod2_decides_pin_their_free_count_without_an_exception(self, monkeypatch):
        # b*.a*'s one equation k + 2n = j leaves n free on every query; the
        # solve pins it from the rows already evaluated, with no exception
        # on the way; the first decide, of the start
        # itself, is zero steps and solves nothing
        proc = pipeline(load_theory("mod2"))
        solves, raised = [], []
        solve, init = LinearSystem.solve, Ambiguous.__init__
        monkeypatch.setattr(LinearSystem, "solve", lambda *args: solves.append(1) or solve(*args))
        monkeypatch.setattr(Ambiguous, "__init__", lambda exc, *args: raised.append(args) or init(exc, *args))
        tree = "Z"
        for _ in range(17):
            assert proc.decide(parse_term(f"P({tree})"))
            tree = f"F({tree})"
        assert (len(solves), raised) == (16, [])

    def test_free_count_pinned_from_its_least_value(self):
        # k = n - 10, so every pin of n below 10 makes k negative
        n, k = AffineExpr.var("n"), AffineExpr.var("k")
        assert LinearSystem([n - k], ["n", "k"]).solve([10]) == {"n": 10, "k": 0}

    def test_free_count_no_pin_settles_is_ambiguous_with_it(self):
        # 10k = n + 1 needs n = 9, past the pins 0..8 that are tried
        n, k = AffineExpr.var("n"), AffineExpr.var("k")
        with pytest.raises(Ambiguous) as exc:
            LinearSystem([k * 10 - n], ["n", "k"]).solve([1])
        assert (str(exc.value), exc.value.free, exc.value.least) == ("n is not determined", "n", 0)


def test_the_tune_guard_never_rejects_a_tuned_assignment(monkeypatch):
    # _observed checks every atom without an unknown count, of every branch,
    # each counted atom matched at its observed count, and a solve returns
    # only assignments that satisfy every count equation, so eval_atomset
    # in tune re-reads what tuning solved; chain's a.a has no index
    # variables, and its negatives are rejected before the guard
    verdicts = []
    guard = final.eval_atomset
    monkeypatch.setattr(final, "eval_atomset", lambda *args: verdicts.append(guard(*args)) or verdicts[-1])
    tuning()
    fn = sigma(load_theory("chain"), parse_scheme("a.a"))
    for text in ("P(Z)", "P(F(Z))", "P(F(F(Z)))", "P(F(F(F(Z))))"):
        tune(fn, parse_term("P(Z)"), parse_term(text))
    assert verdicts and False not in verdicts


def _one_branch(decls, *atoms):
    return SymbolicCharFn(parse_scheme("a*"), (Branch(parse_scheme("a*"), decls, atoms),))


def _one_branch_over_m(template, *counts):
    """A multi-index m whose length t's F run fixes, and a group that
    reads one F run per count from t's child into *template* for each k
    in 1..m."""
    p, f = _unit_step("P", 1, 0), _unit_step("F", 1, 0)
    length = GroundL(SymbolicPath((Segment(p), Segment(f, AffineExpr.var("m")))), parse_term("Z"))
    body = GroundL(SymbolicPath((Segment(p), *(Segment(f, count) for count in counts))), template)
    group = IterGroup("k", AffineExpr.var("m"), body)
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

    def test_rotation_round_trips_at_every_small_index(self):
        # every multi-index of length <= 3 with elements <= 3, the empty
        # one and zero elements included: the groups unrolled at each
        # length and the element stage must find a proof of the instance
        th = load_theory("rotate")
        fn = sigma(th, parse_scheme("(a*.b)*"))
        (branch,) = fn.branches
        indexes = [m for k in range(4) for m in itertools.product(range(4), repeat=k)]
        assert len(indexes) == 85
        for m in indexes:
            d = replay(th, th.start, instantiate(branch.scheme, branch.index_of({"m": m})))
            proof = extract_proof(th, fn, th.start, d)
            assert proof is not None and replay(th, th.start, proof.steps) == d, m


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


# a: P(x, y) -> P(Z, G(y)) drops x, so it cannot be undone
ERASING = "start: P(Z, Z)\na: P(x, y) -> P(Z, G(y))\n"


def _signature(th):
    """Functor to arity over the start sentence and the axioms of *th*."""
    arities, todo = {}, [th.start] + [side for ax in th.axioms for side in (ax.lhs, ax.rhs)]
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            arities[t.functor] = len(t.children)
            todo.extend(t.children)
    return arities


def _ground_trees(arities, size):
    """Every ground tree over *arities*, functor to arity, with at most
    *size* nodes."""
    trees = {1: [App(f) for f, k in arities.items() if not k]}
    for n in range(2, size + 1):
        trees[n] = [
            App(f, kids)
            for f, k in arities.items() if k
            for sizes in itertools.product(range(1, n), repeat=k) if sum(sizes) == n - 1
            for kids in itertools.product(*(trees[s] for s in sizes))
        ]
    return [t for level in trees.values() for t in level]


class TestZeroSteps:
    """Zero steps rewrite a tree to itself, also where a decider's forms,
    fitted from nonempty instances, do not hold."""

    @pytest.mark.parametrize("name, tree", [
        ("chain", "Z"), ("chain", "F(Z)"),
        ("fg", "Z"), ("fg", "P(Z)"), ("fg", "Q(Z, Z)"),
        ("mod2", "Z"), ("mod2", "G(Z)"),
    ])
    def test_a_tree_no_axiom_matches_reaches_itself(self, name, tree):
        proc = pipeline(load_theory(name))
        t = parse_term(tree)
        assert tune(proc.charfn, t, t) is None  # the forms alone say no
        assert proc.decide(t, t)
        assert proc.prove(t, t) == Proof(())

    @pytest.mark.parametrize("tree", ["P(F(Z), Z)", "P(F(Z), G(Z))", "P(R(Z, Z), F(R(Z, Z)))"])
    def test_erasing_theory(self, tree):
        proc = pipeline(parse_theory(ERASING))
        t = parse_term(tree)
        assert proc.decide(t, t)
        assert proc.prove(t, t) == Proof(())
        assert not proc.decide(t, parse_term("P(Z, Z)"))

    @pytest.mark.parametrize("name, count", [("chain", 63), ("fg", 196), ("mod2", 63)])
    def test_every_small_tree_of_the_signature_reaches_itself(self, name, count):
        th = load_theory(name)
        proc = pipeline(th)
        trees = _ground_trees(_signature(th), 6)
        assert len(trees) == count
        assert [t for t in trees if not proc.decide(t, t)] == []
        assert [t for t in trees if proc.prove(t, t) != Proof(())] == []

    # a tree outside the theory's signature, with a functor it does not
    # have or one of another arity, is answered as the oracle answers it,
    # as is Z: no axiom applies to it, so it reaches itself and nothing else
    @pytest.mark.parametrize("name, t, d, want", [
        ("fg", "P(Z)", "P(Z)", True),
        ("fg", "P(Z)", "P(F(Z))", False),
        ("fg", "Q(Z, Z)", "Q(Z, Z)", True),
        ("fg", "Q(Z, Z)", "P(Z, Z)", False),
        ("fg", "Z", "P(Z, Z)", False),
        ("chain", "Q(Z)", "Q(Z)", True),
        ("chain", "Z", "F(Z)", False),
    ])
    def test_a_tree_outside_the_signature_is_answered_as_the_oracle_answers(self, name, t, d, want):
        th = load_theory(name)
        proc = pipeline(th)
        t, d = parse_term(t), parse_term(d)
        assert decide_oracle(th, t, d, SearchBudget(max_depth=4)) == want
        assert proc.decide(d, t) == want
        assert proc.prove(d, t) == (Proof(()) if want else None)

    def test_zero_steps_answer_where_tuning_is_ambiguous(self, undecidable_procedure):
        t = parse_term("P(Z)")
        with pytest.raises(Ambiguous, match="both sides of an atom have undetermined counts"):
            tune(undecidable_procedure.charfn, t, t)
        assert undecidable_procedure.decide(t, t)
        assert undecidable_procedure.prove(t, t) == Proof(())

    def test_a_scheme_without_the_empty_instance_does_not_reach_itself(self):
        th = load_theory("chain")
        fn = sigma(th, parse_scheme("a.a*"))
        t = parse_term("Z")
        assert not decide(fn, t, t) and extract_proof(th, fn, t, t) is None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_linear_theories())
# synthesizes, and its form read alone says no for Z -> Z
@example("start: P(Z)\na: P(x0) -> P(F(x0))")
def test_generated_deciders_accept_every_tree_paired_with_itself(text):
    """Each generated theory that synthesizes: every tree of a small
    reachable window, and a few trees outside it, reach themselves in zero
    steps."""
    th = parse_theory(text)
    try:
        proc = pipeline(th, selfcheck=False)
    except TpcError:
        return
    window = reachable_set(th, th.start, SearchBudget(max_depth=2, max_tree_size=24))
    for t in window + [parse_term(tree) for tree in ("Z", "F(Z)", "R(Z, Z)")]:
        assert proc.decide(t, t), t
        assert proc.prove(t, t) == Proof(()), t


def _off_by_one(scheme, decls, *atoms):
    return SymbolicCharFn(parse_scheme(scheme), (Branch(parse_scheme(scheme), decls, atoms),))


class TestCertificate:
    """A fitted form that tuning and its guard accept but whose index does
    not rewrite t to d is caught before a proof is returned."""

    def test_a_count_off_by_one_is_caught(self):
        # chain's form reads d.P.F^n = t.P; this one reads F^{n + 1}
        p, f = _unit_step("P", 1, 0), _unit_step("F", 1, 0)
        n = AffineExpr.var("n")
        fn = _off_by_one("a*", (VarDecl("n", "scalar"),),
                         EqualsLR(SymbolicPath((Segment(p),)), SymbolicPath((Segment(p), Segment(f, n + AffineExpr.const_(1))))))
        th = load_theory("chain")
        d = parse_term("P(F(F(F(Z))))")
        assert tune(fn, th.start, d) == TuneResult(0, {"n": 2})
        with pytest.raises(InternalMismatch, match=r"^tuned index 2 does not replay to the goal$"):
            extract_proof(th, fn, th.start, d)

    def test_a_count_off_by_one_is_caught_after_an_erasing_step(self):
        # the erasing theory's form reads d.P.y = t.P.y.G^n and d.P.x = Z
        p0, p1, g = _unit_step("P", 2, 0), _unit_step("P", 2, 1), _unit_step("G", 1, 0)
        n = AffineExpr.var("n")
        fn = _off_by_one("a*", (VarDecl("n", "scalar"),),
                         EqualsLR(SymbolicPath((Segment(p1),)), SymbolicPath((Segment(p1), Segment(g, n + AffineExpr.const_(1))))),
                         GroundR(SymbolicPath((Segment(p0),)), parse_term("Z")))
        th = parse_theory(ERASING)
        d = parse_term("P(Z, G(G(G(Z))))")
        with pytest.raises(InternalMismatch, match=r"^tuned index 2 does not replay to the goal$"):
            extract_proof(th, fn, th.start, d)


# theories whose steps the certificate undoes, replays, or both: the six
# bundled ones, an erasing one, and non-linear sides, with a repeated
# variable in an rhs (undone by checking both copies equal) and in an lhs
CERTIFIED = {name: load_theory(name) for name in ("chain", "fg", "mod2", "rotate", "rotate3", "ancestor")}
CERTIFIED["erasing"] = parse_theory(ERASING + "b: P(x, y) -> P(F(x), y)\n")
CERTIFIED["nonlinear"] = parse_theory(
    "start: P(Z)\na: P(x) -> P(D(x, x))\nb: P(x) -> P(F(x))\nc: P(D(x, x)) -> P(G(x))\n"
)


def _leaves(tree):
    """The paths (child indexes from the root) to *tree*'s leaves."""
    if not tree.children:
        return [()]
    return [(i, *rest) for i, c in enumerate(tree.children) for rest in _leaves(c)]


def _with_leaf(tree, path, leaf):
    if not path:
        return leaf
    i, *rest = path
    kids = list(tree.children)
    kids[i] = _with_leaf(kids[i], rest, leaf)
    return App(tree.functor, tuple(kids))


@st.composite
def _certificate_cases(draw):
    """A theory, a start, steps and a goal: the goal the steps replay to,
    or that goal with a leaf changed, or the steps with one dropped or two
    swapped."""
    name = draw(st.sampled_from(sorted(CERTIFIED)))
    th = CERTIFIED[name]
    names = [ax.name for ax in th.axioms]
    t = th.start
    steps = []
    tree = t
    for _ in range(draw(st.integers(0, 8))):
        # mostly a step that applies, so that most sequences reach a goal
        fits = [a for a in names if replay(th, tree, (a,)) is not None]
        a = draw(st.sampled_from(fits or names)) if draw(st.integers(0, 9)) else draw(st.sampled_from(names))
        steps.append(a)
        tree = replay(th, tree, (a,))
        if tree is None:
            break
    d = replay(th, t, steps) or th.start
    change = draw(st.sampled_from(["none", "leaf", "drop", "swap"]))
    if change == "leaf":
        d = _with_leaf(d, draw(st.sampled_from(_leaves(d))), App(draw(st.sampled_from(["Z", "Y0", "Adam", "W"]))))
    elif change == "drop" and steps:
        del steps[draw(st.integers(0, len(steps) - 1))]
    elif change == "swap" and len(steps) > 1:
        i, j = draw(st.lists(st.integers(0, len(steps) - 1), min_size=2, max_size=2, unique=True))
        steps[i], steps[j] = steps[j], steps[i]
    return name, t, tuple(steps), d


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_certificate_cases())
# l2 in the middle, l1 then l2 at the end, and the seven-step proof
@example(("ancestor", CERTIFIED["ancestor"].start, ("p1", "p2", "l2", "p3", "a1"),
          parse_term("And(Ancestor(Peter, Olga), And(Parent(Adam, John), S))")))
@example(("ancestor", CERTIFIED["ancestor"].start, ("p1", "p2", "l1", "p3", "a1", "l2"),
          replay(CERTIFIED["ancestor"], CERTIFIED["ancestor"].start, ("p1", "p2", "l1", "p3", "a1", "l2"))))
@example(("ancestor", CERTIFIED["ancestor"].start, ("p3", "a1", "p2", "a2", "p1", "a2", "l1"),
          parse_term("Ancestor(Adam, Olga)")))
@example(("ancestor", CERTIFIED["ancestor"].start, ("p3", "a1", "p2", "a2", "p1", "a2", "l1"),
          parse_term("Ancestor(Adam, Peter)")))
@example(("nonlinear", CERTIFIED["nonlinear"].start, ("b", "a", "c"), parse_term("P(G(F(Z)))")))
@example(("erasing", CERTIFIED["erasing"].start, ("b", "a", "b", "b"), parse_term("P(F(F(Z)), G(Z))")))
def test_certificate_agrees_with_forward_replay(case):
    name, t, steps, d = case
    th = CERTIFIED[name]
    assert reaches(th, t, steps, d) == (replay(th, t, steps) == d)


class TestUndo:
    def test_undoes_every_step_of_an_invertible_theory(self):
        th = load_theory("chain")
        assert undo(th, parse_term("P(F(F(Z)))"), ("a", "a")) == (0, th.start)
        assert undo(th, parse_term("P(F(Z))"), ("a", "a")) == (1, None)

    def test_stops_after_the_last_erasing_step(self):
        th = load_theory("ancestor")
        steps = ("p1", "l2", "p2", "p3")
        assert undo(th, replay(th, th.start, steps), steps) == (2, th.start)
        assert undo(th, th.start, ("p1", "l1")) == (2, th.start)


# The counting walk as a search: the suffix applied at every depth of the
# run, with every step applied by matching its lhs.


def _reference_apply(segments, tree, env):
    for seg in segments:
        n = seg.count.evaluate(env)
        if n < 0:
            return None
        for _ in range(n):
            tree = matched(seg.step, tree)
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
    """Every depth j of the unknown run at which the suffix, applied to
    the run's j-th tree, gives *target*."""
    idx = next(i for i, s in enumerate(segments) if not _reference_is_known(s.count, env))
    tree = _reference_apply(segments[:idx], base, env)
    depths = set()
    j = 0
    while tree is not None:
        if _reference_apply(segments[idx + 1:], tree, env) == target:
            depths.add(j)
        tree = matched(segments[idx].step, tree)
        j += 1
    return depths


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
@example(  # a suffix that starts with the run's functor and arity: A is read at depths 0 and 1
    (
        (Segment(_unit_step("F", 2, 1), AffineExpr.var("n")), Segment(_unit_step("F", 2, 0))),
        _spine([("F", 2, 1), ("F", 2, 1)])[0],
        App("A"),
    ),
    0,
)
def test_count_equation_matches_the_stepwise_walk(case, k):
    segments, base, target = case
    known = tuple(Segment(s.step, s.count.substitute({"k": AffineExpr.const_(k)})) for s in segments)
    depths = _reference_count(segments, base, target, {"k": k})
    [(_, how)] = _plan([GroundL(SymbolicPath(known), target)])
    # two matching depths are only ever met by the plan's give-up
    if isinstance(how, str):
        assert how == "an atom's count can match at two depths of its run"
    else:
        assert len(depths) <= 1
        assert _count_equation(known, how[1], base, target) == next(iter(depths), None)


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
