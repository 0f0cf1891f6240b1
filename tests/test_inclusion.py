"""Inclusion regions for the worked scheme pairs."""

import itertools

import pytest

from tpc import load_theory
from tpc.affine import AffineExpr
from tpc.errors import Unsupported
from tpc.inclusion import _atom_equations, includes
from tpc.mathsolver import Congruence
from tpc.oracle import SearchBudget, reachable_set
from tpc.paths import GroundL, GroundR, Segment, SymbolicPath, _unit_step
from tpc.schemes import instantiate, parse_scheme, reduce_specific
from tpc.sigma import sigma
from tpc.terms import apply_clause, parse_term

from conftest import eval_region


@pytest.fixture(scope="module")
def fg():
    return load_theory("fg")


class TestWorkedQueries:
    def test_absorption_query_is_universal(self, fg):
        f = sigma(fg, parse_scheme("a.b.a*.b"))
        g = sigma(fg, parse_scheme("b.a*.b"))
        res = includes(f, g)
        assert res.universal
        assert res.system.existentials == ("k",)
        # the witness k = n + 1 leaves its nonnegativity residue in the
        # raw trace before subsumption discharges it
        assert any(str(c) == "n + 1 >= 0" for c in res.region.raw)

    def test_reversed_query_needs_one_application(self, fg):
        f = sigma(fg, parse_scheme("b.a*.b"))
        g = sigma(fg, parse_scheme("a.b.a*.b"))
        res = includes(f, g)
        assert not res.universal
        assert eval_region(res.region, {"n": 1})
        assert not eval_region(res.region, {"n": 0})

    def test_parity_query(self):
        mod2 = load_theory("mod2")
        f = sigma(mod2, parse_scheme("a*"))
        g = sigma(mod2, parse_scheme("b*"))
        res = includes(f, g)
        assert res.region.kind == "conditional"
        (cond,) = res.region.conditions
        assert isinstance(cond, Congruence) and cond.modulus == 2
        assert eval_region(res.region, {"n": 6})
        assert not eval_region(res.region, {"n": 5})

    def test_reflexive(self, fg):
        f = sigma(fg, parse_scheme("b*.a*"))
        assert includes(f, f).universal

    def test_unalignable_raises(self, fg):
        rot = load_theory("rotate")
        f = sigma(fg, parse_scheme("a*"))
        g = sigma(rot, parse_scheme("a*"))
        with pytest.raises(Unsupported):
            includes(f, g)

    def test_alternatives_are_unsupported(self, fg):
        with pytest.raises(Unsupported, match="^inclusion queries need single-alternative functions$"):
            includes(sigma(fg, parse_scheme("a|b")), sigma(fg, parse_scheme("a")))


@pytest.mark.parametrize(
    "ftext, gtext, existentials",
    [
        ("a*.b*", "b*.a*", ("j", "l")),
        ("a*.b*.a*.b*", "a*.b*", ("n2", "n3")),
        ("a*.b*.a*.b*.a*", "a*.b*", ("n3", "n4")),
    ],
)
def test_clashing_names_are_renamed_fresh(fg, ftext, gtext, existentials):
    res = includes(sigma(fg, parse_scheme(ftext)), sigma(fg, parse_scheme(gtext)))
    assert res.system.existentials == existentials
    assert res.universal


class TestAtomEquations:
    PATH = SymbolicPath((Segment(_unit_step("And", 2, 1), AffineExpr.var("n")),))
    ADAM = parse_term("Parent(Adam, John)")

    def test_same_ground_atoms_align(self):
        eqs = _atom_equations(GroundR(self.PATH, self.ADAM), GroundR(self.PATH, self.ADAM))
        assert eqs == []

    def test_ground_sides_must_agree(self):
        assert _atom_equations(GroundL(self.PATH, self.ADAM), GroundR(self.PATH, self.ADAM)) is None

    def test_templates_must_agree(self):
        other = parse_term("Parent(Peter, Olga)")
        assert _atom_equations(GroundR(self.PATH, self.ADAM), GroundR(self.PATH, other)) is None


SOUNDNESS_CASES = [
    ("fg", "a.b.a*.b", "b.a*.b"),
    ("fg", "b.a*.b", "a.b.a*.b"),
    ("mod2", "a*", "b*"),
    ("mod2", "b*", "a*"),
    ("chain", "a.a*", "a*"),
]


@pytest.mark.parametrize("theory_name,ftext,gtext", SOUNDNESS_CASES, ids=str)
def test_region_soundness(theory_name, ftext, gtext):
    """Wherever the region claims inclusion, every pair produced by the f
    instance is produced by some g instance (checked by enumeration)."""
    th = load_theory(theory_name)
    fs, gs = parse_scheme(ftext), parse_scheme(gtext)
    f, g = sigma(th, fs), sigma(th, gs)
    res = includes(f, g)
    (fb,), (gb,) = f.branches, g.branches
    trees = reachable_set(th, th.start, SearchBudget(max_depth=5, max_tree_size=32))
    checked = 0
    for fv in range(0, 5):
        env = {d.name: fv for d in fb.decls}
        if not eval_region(res.region, env):
            continue
        fclause = reduce_specific(th, instantiate(fs, fb.index_of(env)))
        for t in trees:
            d = apply_clause(fclause, t) if fclause else None
            if d is None:
                continue
            covered = False
            for gv in itertools.product(range(0, 12), repeat=len(gb.decls)):
                genv = dict(zip((x.name for x in gb.decls), gv))
                gclause = reduce_specific(th, instantiate(gs, gb.index_of(genv)))
                if gclause and apply_clause(gclause, t) == d:
                    covered = True
                    break
            assert covered, (env, t, d)
            checked += 1
    assert checked >= 25
