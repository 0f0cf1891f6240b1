"""Scheme reduction, normalization identities, and axiom ordering."""

import pytest
from hypothesis import example, given, settings, strategies as st

from tpc import delta, load_theory
from tpc.delta import (
    Attempt,
    normalize,
    order_axioms,
    reduce_scheme,
    check_absorption,
    check_commutation,
)
from tpc.errors import NotLinearizable
from tpc.oracle import SearchBudget, reachable_set
from tpc.pipeline import pipeline
from tpc.schemes import (
    Axiom,
    EPS,
    Star,
    alt,
    dot,
    parse_scheme,
    print_scheme,
    reduce_specific,
)
from tpc.sigma import sigma
from tpc.terms import apply_clause, parse_theory

from conftest import sequences


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


def _chained(trace):
    """The scheme *trace*'s steps lead to, each step checked to start from
    the scheme the one before it left."""
    current = trace.start
    for step in trace.steps:
        assert step.before == current, f"trace broken at {step}"
        current = step.after
    return current


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
        assert _chained(trace) == red

    def test_doubling_waits_for_commutation(self, fg):
        # absorption does not apply to a star whose body starts with a
        # single axiom, so commutation fires, inside the star
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
        assert ("absorption", "INCLUDES(a*.b.a*.c.(a*.b)*.a*.c, a*.c.(a*.b)*.a*.c)") in [
            (a.rule, a.query) for a in trace.attempts
        ]

    def test_absorption_is_checked_at_zero(self):
        # a erases, so b.a*.b ends in F(R(Z, Z)) for n >= 1 only; a form
        # fitted from those samples made x.y.x*.y look included in y.x*.y
        th = parse_theory("start: P(Z)\na: P(x) -> P(R(Z, Z))\nb: P(x) -> P(F(x))")
        scheme = parse_scheme("(a*.b)*.a*")
        red, trace = reduce_scheme(th, scheme)
        assert red == scheme
        assert [str(a) for a in trace.attempts] == [
            "absorption blocked at (a*.b)*: INCLUDES(a.b.a*.b, b.a*.b)"
            " (fitted form failed held-out verification: a.b.a*.b)",
            "commutation blocked at a*.b: INCLUDES(a.b, b.a)"
            " (no aligned atom for GroundR([x->x], P(R(Z, Z))))",
        ]

    def test_blocked_commutation_is_recorded(self):
        # a.b has no affine form here, so the commutation query cannot be
        # answered; it is recorded like a blocked absorption
        th = parse_theory("start: P(Z)\na: P(x) -> P(G(R(x, x)))\nb: P(x) -> P(R(F(x), x))")
        scheme = parse_scheme("a*.b.a*")
        red, trace = reduce_scheme(th, scheme)
        assert red == scheme
        (attempt,) = trace.attempts
        assert str(attempt).startswith(
            "commutation blocked at a*.b.a*: INCLUDES(a.b, b.a) (no aligned atom for "
        )

    def test_sigma_give_ups_are_memoised(self, monkeypatch):
        # ancestor's pipeline asks sigma for p1.p2.p1*.p2 three times, and it
        # gives up every time; the memo answers the second and third asks,
        # with the same blocked attempts as asking sigma each time
        th = load_theory("ancestor")
        cached = delta._sigma_cached

        def run(sigma_cached):
            asked, traces = [], []
            monkeypatch.setattr("tpc.delta.sigma", lambda th, s: asked.append(print_scheme(s)) or sigma(th, s))
            monkeypatch.setattr(
                "tpc.pipeline.reduce_scheme", lambda th, s: traces.append(reduce_scheme(th, s)) or traces[-1]
            )
            monkeypatch.setattr("tpc.delta._sigma_cached", sigma_cached)
            cached.cache_clear()
            with pytest.raises(NotLinearizable):
                pipeline(th)
            return asked.count("p1.p2.p1*.p2"), [trace.attempts for _, trace in traces]

        memoised, attempts = run(cached)
        assert memoised == 1
        assert run(cached.__wrapped__) == (3, attempts)
        assert any("p1.p2.p1*.p2" in a.reason for steps in attempts for a in steps)

    def test_reduction_preserves_relation(self, fg):
        """Original and reduced schemes generate the same goal sets from
        every reachable start, for instances up to length 6."""
        original = parse_scheme("(a*.b)*.a*")
        reduced, _ = reduce_scheme(fg, original)
        trees = reachable_set(fg, fg.start, SearchBudget(max_depth=3, max_tree_size=24))

        def closure(scheme, t):
            out = set()
            for seq in sequences(scheme, 6):
                clause = reduce_specific(fg, seq)
                if clause is not None:
                    d = apply_clause(clause, t)
                    if d is not None:
                        out.add(d)
            return out

        for t in trees:
            assert closure(original, t) == closure(reduced, t)


def _term(draw, depth, leaf):
    kind = draw(st.sampled_from(("leaf", "F", "G", "R") if depth else ("leaf",)))
    if kind == "leaf":
        return leaf()
    kids = [_term(draw, depth - 1, leaf) for _ in range(2 if kind == "R" else 1)]
    return f"{kind}({', '.join(kids)})"


@st.composite
def _linear_theories(draw):
    """Theory text with 1-3 axioms a, b, c over P of arity 1 or 2, unary F
    and G, binary R and the constant Z.  Each side of an axiom is linear:
    no variable occurs twice in it.  A left-hand side is at most one deep
    below P and a leaf of it is Z one time in four, so that most axioms
    compose and sigma has forms to fit; starts and right-hand sides are up
    to two deep."""
    arity = draw(st.integers(1, 2))

    def sentence(leaf, depth=2):
        return f"P({', '.join(_term(draw, depth, leaf) for _ in range(arity))})"

    lines = [f"start: {sentence(lambda: 'Z')}"]
    for name in "abc"[: draw(st.integers(1, 3))]:
        fresh = []

        def lhs_leaf():
            if draw(st.integers(0, 3)) == 0:
                return "Z"
            fresh.append(f"x{len(fresh)}")
            return fresh[-1]

        lhs = sentence(lhs_leaf, draw(st.integers(0, 1)))
        unused = list(fresh)

        def rhs_leaf():
            i = draw(st.integers(0, len(unused)))
            return unused.pop(i) if i < len(unused) else "Z"

        lines.append(f"{name}: {lhs} -> {sentence(rhs_leaf)}")
    return "\n".join(lines)


def _goals(th, scheme, t, budget, clauses):
    """The trees that the instances of *scheme* of length <= budget take
    *t* to; *clauses* caches reduce_specific by axiom sequence."""
    out = set()
    for seq in sequences(scheme, budget):
        if seq not in clauses:
            clauses[seq] = reduce_specific(th, seq)
        d = None if clauses[seq] is None else apply_clause(clauses[seq], t)
        if d is not None:
            out.add(d)
    return out


def _template_schemes(th, templates=("({a}.{b})*", "({a}*.{b})*.{a}*", "({b}.{a})*", "({a}.{a}*.{b})*")):
    """*templates* over the first two axioms a and b of *th*; b is a when a
    is alone.  By default, the schemes a generated theory is reduced from."""
    names = [c.name for c in th.axioms]
    a, b = names[0], names[min(1, len(names) - 1)]
    return [parse_scheme(template.format(a=a, b=b)) for template in templates]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_linear_theories())
# (a.b)* never reaches P(F(G(Z))), which b*.a.b* reaches in one step
@example("start: P(Z)\na: P(x0) -> P(F(G(x0)))\nb: P(x0) -> P(Z)")
# a form of a.b.a*.b fitted from n >= 1 is wrong at n = 0; absorbing on it
# loses a.b.b.b
@example("start: P(Z)\na: P(x0) -> P(R(Z, Z))\nb: P(x0) -> P(F(x0))")
def test_reduction_preserves_relation_on_generated_theories(text):
    """Each reduced scheme relates every start to the same goals as the
    input: an input instance of length <= 4 is matched by a reduced
    instance of length <= 6, and the other way round."""
    th = parse_theory(text)
    starts = reachable_set(th, th.start, SearchBudget(max_depth=2, max_tree_size=24))[:3]
    clauses = {}
    for scheme in _template_schemes(th):
        reduced, trace = reduce_scheme(th, scheme)
        for t in starts:
            assert _goals(th, scheme, t, 4, clauses) <= _goals(th, reduced, t, 6, clauses), trace.steps
            assert _goals(th, reduced, t, 4, clauses) <= _goals(th, scheme, t, 6, clauses), trace.steps


class TestOrdering:
    def test_commuting_axioms_keep_declared_order(self, fg):
        assert order_axioms(fg) == ["a", "b"]

    def test_non_commuting_axioms_still_ordered(self):
        rot = load_theory("rotate")
        assert order_axioms(rot) == ["a", "b"]

    def test_many_axioms(self):
        anc = load_theory("ancestor")
        names = [c.name for c in anc.axioms]
        assert order_axioms(anc) == names
