"""Existential elimination and concrete solving, and the paper's
seven-condition multi-index system solved the way tuning solves one."""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from tpc.affine import AffineExpr, IndexTerm, ZERO
from tpc.errors import Ambiguous, Unsupported
from tpc.mathsolver import (
    _FREE_BOUND,
    Congruence,
    ConditionSystem,
    Equation,
    Ineq,
    LinearSystem,
    _row_of,
    eliminate,
    reduce_rows,
    solve_concrete,
)

from conftest import eval_condition, eval_region, index_terms

n = AffineExpr.var("n")
k = AffineExpr.var("k")
one = AffineExpr.const_(1)
two = AffineExpr.const_(2)


def elem(name, sel):
    return AffineExpr.element(name, sel)


class TestEliminate:
    def test_overdetermined_consistent_universal(self):
        # 2n + 4 = 2k + 2 and n + 3 = k + 2 have the natural solution
        # k = n + 1 for every n, so the region is everything.
        sys = ConditionSystem(
            existentials=("k",),
            conditions=(
                Equation(n * 2 + 4, k * 2 + 2),
                Equation(n + 3, k + 2),
            ),
        )
        r = eliminate(sys)
        assert r.kind == "universal"
        # the raw trace still shows the nonneg residue that got discharged
        assert any(isinstance(c, Ineq) for c in r.raw)

    def test_reversed_query_gives_lower_bound(self):
        sys = ConditionSystem(
            existentials=("n",),
            conditions=(
                Equation(k * 2 + 2, n * 2 + 4),
                Equation(k + 2, n + 3),
            ),
        )
        r = eliminate(sys)
        assert r.kind == "conditional"
        assert [str(c) for c in r.conditions] == ["k - 1 >= 0"]
        assert eval_region(r, {"k": 1}) and not eval_region(r, {"k": 0})

    def test_parity_congruence(self):
        sys = ConditionSystem(("k",), (Equation(n, k * 2),))
        r = eliminate(sys)
        assert r.kind == "conditional"
        assert len(r.conditions) == 1
        c = r.conditions[0]
        assert isinstance(c, Congruence) and c.modulus == 2
        assert eval_region(r, {"n": 4}) and not eval_region(r, {"n": 3})

    def test_inconsistent(self):
        sys = ConditionSystem(("k",), (Equation(k, one), Equation(k, two)))
        assert eliminate(sys).kind == "unsat"

    def test_constant_contradiction(self):
        assert eliminate(ConditionSystem((), (Equation(one, two),))).kind == "unsat"

    def test_unconstrained_existential(self):
        sys = ConditionSystem(("k",), (Equation(n, n),))
        assert eliminate(sys).kind == "universal"

    def test_residual_equation_on_parameters(self):
        m = AffineExpr.var("m")
        sys = ConditionSystem(("k",), (Equation(k, n), Equation(n, m + 1)))
        r = eliminate(sys)
        assert r.kind == "conditional"
        assert any(isinstance(c, Equation) for c in r.conditions)
        assert eval_region(r, {"n": 3, "m": 2})
        assert not eval_region(r, {"n": 3, "m": 3})

    def test_implied_inequality_is_dropped(self):
        # 2n - 2 = 2 * (n - 1), so n - 1 >= 0 implies 2n - 2 >= 0
        j = AffineExpr.var("j")
        sys = ConditionSystem(("k", "j"), (Equation(k, n - 1), Equation(j, n * 2 - 2)))
        r = eliminate(sys)
        assert [str(c) for c in r.conditions] == ["n - 1 >= 0"]
        assert [str(c) for c in r.raw] == ["n - 1 >= 0", "2n - 2 >= 0"]

    def test_inequality_not_implied_is_kept(self):
        # n = 1 meets n - 1 >= 0 but not 2n - 3 >= 0
        j = AffineExpr.var("j")
        sys = ConditionSystem(("k", "j"), (Equation(k, n - 1), Equation(j, n * 2 - 3)))
        r = eliminate(sys)
        assert [str(c) for c in r.conditions] == ["n - 1 >= 0", "2n - 3 >= 0"]
        assert r.raw == r.conditions

    def test_only_equations_eliminate(self):
        for cond in (Ineq(n, one), Congruence(n, 2)):
            sys = ConditionSystem(("k",), (cond, Equation(k + 1, n)))
            with pytest.raises(Unsupported, match=type(cond).__name__):
                eliminate(sys)


    def test_existential_depending_on_another_is_unsupported(self):
        j = AffineExpr.var("j")
        sys = ConditionSystem(("k", "j"), (Equation(k + j, n),))
        with pytest.raises(Unsupported, match="^existential k not isolated: depends on j$"):
            eliminate(sys)


class TestEliminateSoundness:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(-3, 3), st.integers(-3, 3), st.integers(-4, 4),
        st.integers(-3, 3), st.integers(-3, 3), st.integers(-4, 4),
    )
    def test_region_matches_bruteforce(self, a1, b1, c1, a2, b2, c2):
        """For random 2-equation systems in one parameter and one
        existential, the region agrees with brute-force search."""
        eqs = (
            Equation(n * a1 + c1, k * b1),
            Equation(n * a2 + c2, k * b2),
        )
        sys = ConditionSystem(("k",), eqs)
        try:
            r = eliminate(sys)
        except Unsupported:
            return
        for nv in range(0, 9):
            brute = any(
                all(eval_condition(e, {"n": nv, "k": kv}) for e in eqs)
                for kv in range(0, 40)
            )
            claimed = eval_region(r, {"n": nv})
            # the brute bound 40 covers every solution the region can
            # claim for n <= 8 with coefficients this small
            assert claimed == brute, (r, nv)


class TestSolveConcrete:
    def test_two_by_two(self):
        eqs = (Equation(n + k * 2, AffineExpr.const_(8)),
               Equation(n + k, AffineExpr.const_(5)))
        assert solve_concrete(eqs, ("n", "k")) == {"n": 2, "k": 3}

    def test_single(self):
        assert solve_concrete((Equation(k, AffineExpr.const_(3)),), ("k",)) == {"k": 3}

    def test_inconsistent_returns_none(self):
        eqs = (Equation(k, one), Equation(k, two))
        assert solve_concrete(eqs, ("k",)) is None

    def test_negative_returns_none(self):
        assert solve_concrete((Equation(k + 2, one),), ("k",)) is None

    def test_fractional_returns_none(self):
        assert solve_concrete((Equation(k * 2, one),), ("k",)) is None

    def test_underdetermined(self):
        # k is pivoted first, so n is the one left free, and pinned to 0
        assert solve_concrete((Equation(n + k, two),), ("n", "k")) == {"n": 0, "k": 2}

    def test_hopeless_with_free_unknowns_returns_none(self):
        # n2 = -j - 2n - 4 is negative whatever naturals j and n take, and
        # n = 3 contradicts n = 4 whatever k is, so no pin of the free
        # counts can help
        j = AffineExpr.var("j")
        eqs = (Equation(j + n * 2 + AffineExpr.var("n2") + 4, AffineExpr.const_(0)),)
        assert solve_concrete(eqs, ("n", "j", "n2")) is None
        eqs = (Equation(n, AffineExpr.const_(3)), Equation(n, AffineExpr.const_(4)), Equation(k + j, n))
        assert solve_concrete(eqs, ("n", "k", "j")) is None

    def test_underdetermined_carries_the_least_free_value(self):
        # k = n - 10 needs n >= 10, so n is pinned from 10; k + 2n = 7
        # leaves n free with k = 7 - 2n, which bounds n only from above
        assert solve_concrete((Equation(n - k, AffineExpr.const_(10)),), ("n", "k")) == {"n": 10, "k": 0}
        assert solve_concrete((Equation(k + n * 2, AffineExpr.const_(7)),), ("n", "k")) == {"n": 0, "k": 7}
        # 10k = n + 1 needs n = 9, past the pins 0..8 that are tried
        with pytest.raises(Ambiguous) as exc:
            solve_concrete((Equation(k * 10 - n, one),), ("n", "k"))
        assert (str(exc.value), exc.value.free, exc.value.least) == ("n is not determined", "n", 0)

    def test_element_unknowns(self):
        # m[1] and m[2] are fixed jointly: one equation mentions both
        m1, m2 = IndexTerm("m", (one,)), IndexTerm("m", (two,))
        eqs = (Equation(elem("m", one) + elem("m", two), AffineExpr.const_(5)),
               Equation(elem("m", two), AffineExpr.const_(3)))
        assert solve_concrete(eqs, (m1, m2)) == {m1: 2, m2: 3}

    def test_names_and_elements_keyed_as_given(self):
        m1 = IndexTerm("m", (one,))
        eqs = (Equation(n, elem("m", one) + one), Equation(elem("m", one), two))
        assert solve_concrete(eqs, ("n", m1)) == {"n": 3, m1: 2}

    def test_inconsistent_constant_equation_returns_none(self):
        assert solve_concrete((Equation(k, two), Equation(one, two)), ("k",)) is None



class TestCompiledSystem:
    def test_free_count_is_reported_as_data(self):
        # k + 2n = j: k is pivoted first, so n is left free, and k = j - 2n
        # bounds n only from above: the solve pins n from 0
        system = LinearSystem([k + n * 2], ["n", "k"])
        assert (system.free, system.uses, system.bounds) == ([0], {0: [(0, -2)]}, {0: []})
        assert system.solve([7]) == {"n": 0, "k": 7}
        # n - k = j bounds n from below by j, so the first pin is n = j
        system = LinearSystem([n - k], ["n", "k"])
        assert (system.free, system.bounds) == ([0], {0: [(0, 1)]})
        assert system.solve([10]) == {"n": 10, "k": 0}

    def test_integer_unknowns_may_be_negative(self):
        # k = -1 - 2n is negative for every natural n; a free integer
        # unknown is 0, and the solved one may be negative
        assert LinearSystem([k + n * 2], ["n", "k"]).solve([-1]) is None
        assert LinearSystem([k + n * 2], ["n", "k"], natural=False).solve([-1]) == {"n": 0, "k": -1}
        assert LinearSystem([k + n * 2], ["n", "k"], natural=False).solve([7]) == {"n": 0, "k": 7}


def _reference_solve_concrete(equations, unknowns):
    """solve_concrete as it was before the compiled system: one row
    reduction per call, each row read as Fractions."""
    keys = {u if isinstance(u, IndexTerm) else IndexTerm(u): u for u in unknowns}
    solved, rows = reduce_rows([_row_of(eq.diff) for eq in equations], reversed(keys))
    rows = [{k: Fraction(v, d) for k, v in nums.items()} for nums, d in rows]
    solved = {key: {k: Fraction(v, d) for k, v in nums.items()} for key, (nums, d) in solved.items()}
    if any(len(r) == 1 and r[None] for r in rows) or any(
        sol[None] < 0 and all(v <= 0 for v in sol.values()) for sol in solved.values()
    ):
        return None
    missing = next((key for key in keys if key not in solved), None)
    if missing is not None:
        least = max([0] + [
            ceil(-sol[None] / sol[missing])
            for sol in solved.values()
            if sol.keys() == {None, missing} and sol[missing] > 0
        ])
        raise Ambiguous(f"{missing} is not determined", keys[missing], least)
    if any(len(r) > 1 for r in rows) or any(len(sol) > 1 for sol in solved.values()):
        raise Ambiguous("equations mention index terms that are not unknowns")
    out = {}
    for key, u in keys.items():
        v = solved[key][None]
        if v.denominator != 1 or v < 0:
            return None
        out[u] = v.numerator
    return out


def _reference_solve_some(eqs, unknowns):
    """The pin rule by Fractions: each free unknown pinned by one more
    equation, and the whole system solved again."""
    try:
        return _reference_solve_concrete(eqs, unknowns)
    except Ambiguous as exc:
        if exc.free is None:
            raise
        failure = exc
    free = IndexTerm(failure.free)
    mentioned = any(free in index_terms(eq.diff) for eq in eqs)
    for v in range(failure.least, failure.least + _FREE_BOUND + 1) if mentioned else (0,):
        pin = Equation(AffineExpr.var(failure.free), AffineExpr.const_(v))
        try:
            sol = _reference_solve_some(eqs + [pin], unknowns)
        except Ambiguous:
            continue
        if sol is not None:
            return sol
    raise failure


def _outcome(solve, *args):
    try:
        got = solve(*args)
    except Ambiguous as exc:
        return "Ambiguous", str(exc), exc.free, exc.least
    return got if got is None else list(got.items())


_NAMES = ("n", "k", "m")


@st.composite
def _systems(draw):
    """1-4 equations over 1-3 of n, k and m, declared as unknowns in a
    random order, with coefficients -2..3 and values 0..12.  Now and then
    an equation also mentions a name that is not an unknown, and most
    values are those of a natural solution, where it gives one in 0..12."""
    unknowns = draw(st.permutations(_NAMES))[: draw(st.integers(1, 3))]
    others = [name for name in _NAMES if name not in unknowns and draw(st.integers(0, 3)) == 0]
    coeff = st.integers(-2, 3)
    exprs = [
        AffineExpr.of(draw(coeff), *((draw(coeff), IndexTerm(name)) for name in [*unknowns, *others]))
        for _ in range(draw(st.integers(1, 4)))
    ]
    planted = {name: draw(st.integers(0, 4)) for name in _NAMES}
    values = []
    for e in exprs:
        v = e.evaluate(planted)
        values.append(v if 0 <= v <= 12 and draw(st.booleans()) else draw(st.integers(0, 12)))
    return exprs, unknowns, values


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_systems())
def test_compiled_system_agrees_with_the_fraction_solver(system):
    # the compiled rows, evaluated at the values and at every pin the
    # solve tries, give what one Fraction reduction per pin gave: the same
    # assignment in the same key order, None, or the same Ambiguous
    exprs, unknowns, values = system
    eqs = [Equation(e, AffineExpr.const_(v)) for e, v in zip(exprs, values)]
    expected = _outcome(_reference_solve_some, eqs, unknowns)
    assert _outcome(LinearSystem(exprs, unknowns).solve, values) == expected
    assert _outcome(solve_concrete, eqs, unknowns) == expected


@dataclass(frozen=True)
class Family:
    """One equation for each value of itervar from lower to upper."""

    itervar: str
    lower: AffineExpr
    upper: AffineExpr
    body: Equation


def _unroll(conditions, env):
    """Each condition with the env it is read in: a family gives its body
    once per value of its variable, anything else itself in *env*."""
    for cond in conditions:
        if isinstance(cond, Family):
            lo, hi = cond.lower.evaluate(env), cond.upper.evaluate(env)
            yield from ((cond.body, {**env, cond.itervar: i}) for i in range(lo, hi + 1))
        else:
            yield cond, env


def holds(conditions, env) -> bool:
    return all(eval_condition(cond, scope) for cond, scope in _unroll(conditions, env))


def _bind(e: AffineExpr, env) -> AffineExpr:
    """*e* with every term of a variable *env* binds evaluated, and every
    other term's selectors made constant."""
    out = AffineExpr.const_(e.const)
    for c, it in e.terms:
        if it.var in env:
            out += AffineExpr(0, ((c, it),)).evaluate(env)
        else:
            sel = tuple(AffineExpr.const_(s.evaluate(env)) for s in it.sel)
            out += AffineExpr(0, ((c, IndexTerm(it.var, sel)),))
    return out


def solve_u(conditions, m):
    """u solved as tuning solves a multi-index: m's values bound into
    every equation, the length u solved first, then the elements
    u[1..len] in one call.  None when no natural u exists."""
    bound = [
        Equation(_bind(cond.diff, scope), ZERO)
        for cond, scope in _unroll(conditions, {"m": m})
        if isinstance(cond, Equation)
    ]
    lengths = [eq for eq in bound if not any(it.sel for _, it in eq.lhs.terms)]
    sol = solve_concrete(lengths, ["u"])
    if sol is None:
        return None
    elements = [IndexTerm("u", (AffineExpr.const_(i),)) for i in range(1, sol["u"] + 1)]
    sol = solve_concrete([eq for eq in bound if eq not in lengths], elements)
    return None if sol is None else tuple(sol[e] for e in elements)


def seven_conditions():
    m1 = elem("m", one)           # length of m[1] in scalar position
    m2 = elem("m", two)
    u = AffineExpr.var("u")
    i = AffineExpr.var("i")

    def nested(first, sel):
        return AffineExpr(0, ((1, IndexTerm("m", (first, sel))),))

    def uel(sel):
        return AffineExpr(0, ((1, IndexTerm("u", (sel,))),))

    return (
        Ineq(m1, one),
        Ineq(m2, one),
        Equation(m1 + m2 - u - 2, ZERO),
        Family("i", one, m1 - 2, Equation(nested(one, i) - uel(i), ZERO)),
        Equation(nested(one, m1 - 1) + nested(two, one) - uel(m1 - 1), ZERO),
        Equation(nested(one, m1) + nested(two, two) - uel(m1), ZERO),
        Family("i", one, m2 - 2, Equation(nested(two, i + 2) - uel(m1 + i), ZERO)),
    )


class TestMultiIndex:
    M = ((4, 1, 2), (5, 2, 0, 1))
    U = (4, 6, 4, 0, 1)

    def test_system_holds_on_worked_pair(self):
        conds = seven_conditions()
        assert holds(conds, {"m": self.M, "u": self.U})
        assert not holds(conds, {"m": self.M, "u": (4, 6, 4, 0, 2)})
        assert not holds(conds, {"m": self.M, "u": (4, 6, 4, 0)})

    def test_length_solves_first(self):
        # bound to M, the length equation mentions no element
        length = _bind(seven_conditions()[2].diff, {"m": self.M})
        assert str(length) == "-u + 5"
        assert solve_concrete([Equation(length, ZERO)], ["u"]) == {"u": 5}

    def test_solve_reconstructs_u(self):
        assert solve_u(seven_conditions(), self.M) == self.U

    def test_solve_matches_system_on_samples(self):
        conds = seven_conditions()
        shapes = [
            ((2, 2), (1, 1)),
            ((0, 3, 3), (2, 2)),
            ((1, 1, 1, 1), (1, 1, 1)),
            ((5,) * 4, (0, 0, 0, 0)),
        ]
        for m in shapes:
            u = solve_u(conds, m)
            assert holds(conds, {"m": m, "u": u}), (m, u)
