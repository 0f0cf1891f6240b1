"""Characteristic-function synthesis: worked forms and oracle agreement."""

import dataclasses
import itertools

import pytest

from tpc import load_theory
from tpc.affine import AffineExpr
from tpc.errors import NotLinearizable
from tpc.oracle import SearchBudget, reachable_set
from tpc.paths import AtomSet, EqualsLR, GroundL, GroundR, IterGroup, Segment, SymbolicPath
from tpc.schemes import build_scheme, instantiate, parse_scheme, reduce_specific
from tpc.sigma import _MAX_VERIFY_SAMPLES, _MULTI_VERIFY, _SCALAR_VERIFY, _sample_grid, _verify_branch, sigma
from tpc.terms import apply_clause


def atoms_of(fn, branch=0):
    return fn.branches[branch].atoms.conjuncts


class TestWorkedForms:
    def test_single_strip_axiom(self):
        fn = sigma(load_theory("chain"), parse_scheme("a*"))
        assert len(fn.branches) == 1
        assert [d.kind for d in fn.branches[0].decls] == ["scalar"]
        assert str(fn) == "lambda n:N.EqualsLR([P(x)->x], [P(x)->x].[F(x)->x]^{n})"

    def test_double_strip_axiom(self):
        fn = sigma(load_theory("mod2"), parse_scheme("b*"))
        (atom,) = atoms_of(fn)
        n = AffineExpr.var("n")
        assert atom.right.segments[-1].count == n * 2

    def test_fixed_scheme_exponents(self):
        fn = sigma(load_theory("fg"), parse_scheme("a.b.a*.b"))
        a1, a2 = atoms_of(fn)
        n = AffineExpr.var("n")
        assert a1.right.segments[-1].count == n * 2 + 4
        assert a2.right.segments[-1].count == n + 3

    def test_two_star_scheme_exponents(self):
        fn = sigma(load_theory("fg"), parse_scheme("b*.a*"))
        a1, a2 = atoms_of(fn)
        n, k = AffineExpr.var("n"), AffineExpr.var("k")
        assert a1.right.segments[-1].count == n + k * 2
        assert a2.right.segments[-1].count == n + k

    def test_rotation_closure(self):
        fn = sigma(load_theory("rotate"), parse_scheme("(a*.b)*"))
        conj = atoms_of(fn)
        assert [type(a).__name__ for a in conj] == ["EqualsLR", "EqualsLR", "IterGroup"]
        fixed1, fixed2, group = conj
        assert str(fixed1) == "EqualsLR([P(x, y)->x].[R(x, y)->x]^{m}, [P(x, y)->x])"
        assert str(fixed2) == "EqualsLR([P(x, y)->y], [P(x, y)->y].[R(x, y)->x]^{m})"
        assert group.itervar == "i"
        assert (group.lower, group.upper) == (AffineExpr.const_(1), AffineExpr.var("m"))
        (body,) = group.body
        assert str(body.left) == "[P(x, y)->x].[R(x, y)->x]^{i - 1}.[R(x, y)->y]"
        m, i = AffineExpr.var("m"), AffineExpr.var("i")
        assert body.right.segments[1].count == m - i
        assert body.right.segments[-1].count == AffineExpr.element("m", i)

    def test_empty_scheme(self):
        fn = sigma(load_theory("chain"), parse_scheme("eps"))
        (atom,) = atoms_of(fn)
        assert isinstance(atom, EqualsLR)
        assert not atom.left.segments and not atom.right.segments

    def test_alternative_splits_into_branches(self):
        fn = sigma(load_theory("fg"), parse_scheme("b*.a*|a*"))
        assert len(fn.branches) == 2
        assert [d.name for d in fn.branches[0].decls] == ["n", "k"]
        assert [d.name for d in fn.branches[1].decls] == ["n"]

    def test_ground_producing_axioms(self):
        # p3: x -> And(Parent(Adam, John), x); its closure stacks one
        # ground left child per application
        anc = load_theory("ancestor")
        fn = sigma(anc, parse_scheme("p3*"))
        kinds = [type(a).__name__ for a in atoms_of(fn)]
        assert "IterGroup" in kinds


class TestNotLinearizable:
    def test_deep_nesting_rejected(self):
        anc = load_theory("ancestor")
        scheme = build_scheme([c.name for c in anc.axioms])
        with pytest.raises(NotLinearizable):
            sigma(anc, scheme)

    def test_sum_coupled_exponent_rejected(self):
        # (a*.b)* over the fg axioms needs the F exponent to track the sum
        # of all elements of the multi-index, which no affine feature gives
        fg = load_theory("fg")
        with pytest.raises(NotLinearizable):
            sigma(fg, parse_scheme("(a*.b)*"))


class TestHeldOutVerification:
    """Held-out verification rejects a form that differs from the samples
    in a single count or a single atom class."""

    @staticmethod
    def verify(theory, branch, conjuncts):
        envs = _sample_grid(branch.decls, _SCALAR_VERIFY, _MULTI_VERIFY, _MAX_VERIFY_SAMPLES)
        changed = dataclasses.replace(branch, atoms=AtomSet(tuple(conjuncts), branch.atoms.free_vars))
        _verify_branch(theory, changed, envs, [])

    def test_off_by_one_count_is_rejected(self):
        fg = load_theory("fg")
        (branch,) = sigma(fg, parse_scheme("a*")).branches
        first, second = branch.atoms.conjuncts
        *head, last = first.right.segments
        assert last.count == AffineExpr.var("n") * 2
        self.verify(fg, branch, (first, second))
        wrong = SymbolicPath.of(*head, Segment(last.step, last.count + 1))
        with pytest.raises(NotLinearizable, match="held-out"):
            self.verify(fg, branch, (first.with_paths(first.left, wrong), second))

    def test_ground_side_is_checked(self):
        anc = load_theory("ancestor")
        (branch,) = sigma(anc, parse_scheme("p3*")).branches
        conj = list(branch.atoms.conjuncts)
        assert [type(a) for a in conj] == [EqualsLR, GroundR, IterGroup]
        self.verify(anc, branch, conj)
        conj[1] = GroundL(conj[1].path, conj[1].template)
        with pytest.raises(NotLinearizable, match="held-out"):
            self.verify(anc, branch, conj)


def env_grid(decls, scalars, multis):
    pools = [scalars if d.kind == "scalar" else multis for d in decls]
    for combo in itertools.product(*pools):
        yield dict(zip((d.name for d in decls), combo))


# the last case samples scalars from 1 up: the trailing star of
# (a*.b)*.a* changes the split skeleton at zero applications (no R node is
# demanded), so the synthesized family is the continuation from counts >= 1
AGREEMENT_CASES = [
    ("chain", "a*", (0, 1, 2)),
    ("mod2", "a*.b", (0, 1, 2)),
    ("fg", "b*.a*", (0, 1, 2)),
    ("fg", "a.b.a*.b", (0, 1, 2)),
    ("rotate", "(a*.b)*", (0, 1, 2)),
    ("rotate", "(a*.b)*.a*", (1, 2)),
]


@pytest.mark.parametrize("theory_name,scheme_text,scalars", AGREEMENT_CASES, ids=lambda v: str(v))
def test_charfn_agrees_with_reduction(theory_name, scheme_text, scalars):
    """On every sampled index, the atoms hold for (t, d) exactly when the
    reduced instance clause rewrites t to d, for all reachable t and
    candidate d."""
    th = load_theory(theory_name)
    scheme = parse_scheme(scheme_text)
    fn = sigma(th, scheme)
    (branch,) = fn.branches
    trees = reachable_set(th, th.start, SearchBudget(max_depth=4, max_tree_size=24))
    envs = list(env_grid(branch.decls, scalars, ((), (2,), (1, 2), (2, 0, 1))))
    mismatches = 0
    for env in envs:
        clause = reduce_specific(th, instantiate(scheme, branch.index_of(env)))
        for t in trees:
            d = apply_clause(clause, t) if clause is not None else None
            for cand in trees:
                holds = branch.holds(env, t, cand)
                rewrites = d is not None and cand == d
                if holds != rewrites:
                    mismatches += 1
    assert mismatches == 0
