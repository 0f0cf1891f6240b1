"""Scheme reduction, normalization identities, and axiom ordering."""

import warnings

import pytest

from tpc import load_theory
from tpc.delta import (
    Attempt,
    normalize,
    order_axioms,
    reduce_scheme,
    check_absorption,
    check_commutation,
)
from tpc.errors import WeakOrderWarning
from tpc.oracle import SearchBudget, reachable_set
from tpc.schemes import (
    Axiom,
    EPS,
    Star,
    alt,
    dot,
    enumerate_indices,
    instantiate,
    parse_scheme,
    print_scheme,
    reduce_specific,
)
from tpc.terms import apply_clause

pytestmark = pytest.mark.filterwarnings("error::tpc.errors.WeakOrderWarning")


@pytest.fixture(scope="module")
def fg():
    return load_theory("fg")


class TestNormalize:
    def test_distributes_alternatives(self):
        e = dot(alt(Axiom("a"), Axiom("b")), Axiom("c"))
        assert print_scheme(normalize(e)) == "a.c|b.c"

    def test_merges_adjacent_stars(self):
        e = dot(Star(Axiom("a")), Star(Axiom("a")))
        assert normalize(e) == Star(Axiom("a"))

    def test_absorbs_star_prefix_against_rest(self):
        a, b = Axiom("a"), Axiom("b")
        e = alt(dot(Star(b), b, Star(a)), Star(a))
        assert print_scheme(normalize(e)) == "b*.a*"

    def test_absorbs_star_prefix_against_eps(self):
        b = Axiom("b")
        assert normalize(alt(dot(Star(b), b), EPS)) == Star(b)

    def test_compound_star_body_prefix(self):
        a, b, c = Axiom("a"), Axiom("b"), Axiom("c")
        e = alt(dot(Star(dot(a, b)), a, b, c), c)
        assert print_scheme(normalize(e)) == "(a.b)*.c"

    def test_identity_on_plain_schemes(self):
        e = parse_scheme("(a*.b)*.a*")
        assert normalize(e) == e


class TestSolverTests:
    def test_absorption_holds_for_fg(self, fg):
        assert check_absorption(fg, Axiom("a"), Axiom("b"))

    def test_absorption_fails_for_rotation(self):
        rot = load_theory("rotate")
        assert not check_absorption(rot, Axiom("a"), Axiom("b"))

    def test_commutation_holds_for_fg(self, fg):
        assert check_commutation(fg, Axiom("a"), Axiom("b"))

    def test_commutation_fails_for_rotation(self):
        rot = load_theory("rotate")
        assert not check_commutation(rot, Axiom("a"), Axiom("b"))


class TestReduce:
    def test_fg_full_chain(self, fg):
        red, trace = reduce_scheme(fg, parse_scheme("(a*.b)*.a*"))
        assert print_scheme(red) == "b*.a*"
        assert [s.rule for s in trace.steps] == [
            "absorption",
            "normalize",
            "commutation",
            "normalize",
        ]
        assert print_scheme(trace.steps[0].after) == "(b*.a*.b|eps).a*"
        assert trace.replay() == red

    def test_doubling_waits_for_commutation(self, fg):
        # doubling would also fire here; it is tried only when neither
        # absorption nor commutation does
        red, trace = reduce_scheme(fg, parse_scheme("(a.a*.b)*"))
        assert [str(s) for s in trace.steps] == ["commutation: (a.a*.b)* => (a.b.a*)*"]
        assert print_scheme(red) == "(a.b.a*)*"

    def test_rotation_is_irreducible(self):
        rot = load_theory("rotate")
        scheme = parse_scheme("(a*.b)*.a*")
        red, trace = reduce_scheme(rot, scheme)
        assert red == scheme
        assert not trace.steps

    def test_idempotent(self, fg):
        red, _ = reduce_scheme(fg, parse_scheme("(a*.b)*.a*"))
        again, trace = reduce_scheme(fg, red)
        assert again == red and not trace.steps

    def test_blocked_attempts_are_recorded(self):
        rot3 = load_theory("rotate3")
        scheme = parse_scheme("((a*.b)*.a*.c)*.(a*.b)*.a*")
        red, trace = reduce_scheme(rot3, scheme)
        assert red == scheme
        assert trace.attempts
        assert all(isinstance(a, Attempt) for a in trace.attempts)
        assert any("(a*.b)*.a*.c.(a*.b)*.a*.c" in a.query for a in trace.attempts)

    def test_reduction_preserves_relation(self, fg):
        """Original and reduced schemes generate the same goal sets from
        every reachable start, for instances up to length 6."""
        original = parse_scheme("(a*.b)*.a*")
        reduced, _ = reduce_scheme(fg, original)
        trees = reachable_set(fg, fg.start, SearchBudget(max_depth=3, max_tree_size=24))

        def closure(scheme, t):
            out = set()
            for idx in enumerate_indices(scheme, 6):
                clause = reduce_specific(fg, instantiate(scheme, idx))
                if clause is not None:
                    d = apply_clause(clause, t)
                    if d is not None:
                        out.add(d)
            return out

        for t in trees:
            assert closure(original, t) == closure(reduced, t)


class TestOrdering:
    def test_commuting_axioms_keep_declared_order(self, fg):
        assert order_axioms(fg) == ["a", "b"]

    def test_non_commuting_axioms_still_ordered(self):
        rot = load_theory("rotate")
        assert order_axioms(rot) == ["a", "b"]

    def test_many_axioms(self):
        anc = load_theory("ancestor")
        names = [c.name for c in anc.axioms]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakOrderWarning)
            assert order_axioms(anc) == names
