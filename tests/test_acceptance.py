"""Acceptance gate: one check per contract item, reported line by line.

Each criterion prints a PASS or FAIL line directly to the terminal (past
pytest's capture) so the gate can be read off a plain `pytest -v` run.
Criterion 11 is a stretch item: it reports how far the rewriting got and
what blocked it, without failing the build.
"""

import functools
import sys
import time

from tpc import load_theory
from tpc.delta import reduce_scheme
from tpc.errors import TpcError
from tpc.final import decide, extract_proof, tune
from tpc.inclusion import includes
from tpc.mathsolver import Congruence
from tpc.oracle import SearchBudget, find_proof, reachable_set
from tpc.paths import _unit_step, eval_atomset, split_axiom
from tpc.schemes import build_scheme, instantiate, parse_scheme, print_scheme, reduce_specific
from tpc.sigma import sigma
from tpc.terms import (
    App,
    Clause,
    Proof,
    apply_clause,
    check_proof,
    parse_term,
    print_term,
    replay,
)

from conftest import compose_paths, concrete, eval_region, power_path, sequences
from test_mathsolver import holds, seven_conditions, solve_u


REPORT = []


def _say(line: str) -> None:
    REPORT.append(line)
    print(line, file=sys.__stdout__, flush=True)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            try:
                fn(*a, **k)
            except BaseException:
                _say(f"criterion {num:2d}: FAIL - {desc}")
                raise
            _say(f"criterion {num:2d}: PASS - {desc}")

        return wrapper

    return deco


def _chain_tree(j):
    t = App("Z", ())
    for _ in range(j):
        t = App("F", (t,))
    return App("P", (t,))


def _fg_tree(i, j):
    x = App("Z", ())
    for _ in range(i):
        x = App("F", (x,))
    y = App("Z", ())
    for _ in range(j):
        y = App("G", (y,))
    return App("P", (x, y))


@criterion(1, "ancestor goal proved by search; known seven-step sequence validates")
def test_ancestor_end_to_end():
    th = load_theory("ancestor")
    proof = find_proof(th, th.goal, SearchBudget(max_depth=8, max_tree_size=64))
    assert proof is not None and len(proof.steps) == 7
    assert check_proof(th, proof) == th.goal
    known = Proof(("p3", "a1", "p2", "a2", "p1", "a2", "l1"))
    assert check_proof(th, known) == th.goal


@criterion(2, "multi-index instantiation reproduces the worked sequence")
def test_instantiation():
    scheme = parse_scheme("(a*.b)*.a*")
    got = instantiate(scheme, ((2, 0, 1), 3))
    assert got == ["a", "a", "b", "b", "a", "b", "a", "a", "a"]


@criterion(3, "path composition identities and the three-atom axiom split")
def test_path_algebra():
    p = concrete((_unit_step("P", 2, 0),))
    q = concrete((_unit_step("R", 2, 1),))
    assert str(compose_paths(p, q)) == "[P(R(x, y), z)->y]"
    f = concrete((_unit_step("F", 1, 0),))
    assert str(power_path(f, 4)) == "[F(F(F(F(x))))->x]"
    axiom = Clause("b", parse_term("P(R(x, z), y)"), parse_term("P(x, R(y, z))"))
    atoms = split_axiom(axiom)
    assert {str(a) for a in atoms} == {
        "EqualsLR([P(x, y)->x].[R(x, y)->x], [P(x, y)->x])",
        "EqualsLR([P(x, y)->y], [P(x, y)->y].[R(x, y)->x])",
        "EqualsLR([P(x, y)->x].[R(x, y)->y], [P(x, y)->y].[R(x, y)->y])",
    }


@criterion(4, "characteristic functions match their expected forms and the oracle")
def test_sigma_forms_and_agreement():
    chain = load_theory("chain")
    fn = sigma(chain, parse_scheme("a*"))
    assert str(fn) == "lambda n:N.EqualsLR([P(x)->x], [P(x)->x].[F(x)->x]^{n})"

    rotate = load_theory("rotate")
    rfn = sigma(rotate, parse_scheme("(a*.b)*"))
    (branch,) = rfn.branches
    names = [type(a).__name__ for a in branch.atoms]
    assert names == ["EqualsLR", "EqualsLR", "IterGroup"]
    group = branch.atoms[2]
    assert "m[i]" in str(group) and "-i + m" in str(group)

    # agreement: for sampled indexes (instantiated length <= 6) the atoms
    # accept exactly the goal the specific expression produces
    cases = (
        (chain, "a*", [{"n": v} for v in range(7)]),
        (load_theory("fg"), "b*.a*", [{"n": n, "k": k} for n in range(4) for k in range(3)]),
        (rotate, "(a*.b)*", [{"m": m} for m in ((), (2,), (1, 2), (2, 0, 1), (1, 1, 1))]),
    )
    for th, scheme, assigns in cases:
        expr = parse_scheme(scheme)
        (b,) = sigma(th, expr).branches
        trees = reachable_set(th, th.start, SearchBudget(max_depth=3, max_tree_size=14))
        for assign in assigns:
            names = instantiate(expr, b.index_of(assign))
            assert len(names) <= 6
            clause = reduce_specific(th, names)
            for t in trees:
                want = apply_clause(clause, t) if clause is not None else None
                for d in list(trees) + ([want] if want is not None else []):
                    assert eval_atomset(b.atoms, assign, t, d) == (want is not None and d == want)


@criterion(5, "inclusion query is universal forward, conditional reversed")
def test_inclusion_queries():
    fg = load_theory("fg")
    res = includes(sigma(fg, parse_scheme("a.b.a*.b")), sigma(fg, parse_scheme("b.a*.b")))
    assert res.universal
    # the solved witness is k = n + 1; its nonnegativity residue survives
    # in the raw region before subsumption
    assert res.system.existentials == ("k",)
    assert any(str(c) == "n + 1 >= 0" for c in res.region.raw)

    rev = includes(sigma(fg, parse_scheme("b.a*.b")), sigma(fg, parse_scheme("a.b.a*.b")))
    assert not rev.universal and rev.region.kind != "unsat"
    assert not eval_region(rev.region, {"n": 0})
    assert all(eval_region(rev.region, {"n": n}) for n in range(1, 8))


@criterion(6, "double-step inclusion yields the mod-2 congruence")
def test_modular_inclusion():
    th = load_theory("mod2")
    res = includes(sigma(th, parse_scheme("a*")), sigma(th, parse_scheme("b*")))
    assert not res.universal
    congruences = [c for c in res.region.conditions if isinstance(c, Congruence)]
    assert len(congruences) == 1 and congruences[0].modulus == 2
    assert str(congruences[0]) == "n mod 2 = 0"


@criterion(7, "scheme reduction reaches b*.a* and preserves the relation")
def test_delta_reduction():
    fg = load_theory("fg")
    original = parse_scheme("(a*.b)*.a*")
    reduced, trace = reduce_scheme(fg, original)
    assert print_scheme(reduced) == "b*.a*"
    assert "absorption" in [s.rule for s in trace.steps]

    def closure(scheme, t):
        out = set()
        for seq in sequences(scheme, 6):
            clause = reduce_specific(fg, seq)
            if clause is not None:
                d = apply_clause(clause, t)
                if d is not None:
                    out.add(d)
        return out

    for t in reachable_set(fg, fg.start, SearchBudget(max_depth=3, max_tree_size=24)):
        assert closure(original, t) == closure(reduced, t)


@criterion(8, "tuning reproduces the worked indexes; decide matches the oracle")
def test_final_tuning_and_decide():
    chain = load_theory("chain")
    cfn = sigma(chain, parse_scheme("a*"))
    assert tune(cfn, parse_term("P(F(Z))"), parse_term("P(F(F(F(F(Z)))))")).assignment == {"n": 3}

    fg = load_theory("fg")
    ffn = sigma(fg, parse_scheme("b*.a*"))
    goal = _fg_tree(8, 5)
    assert tune(ffn, fg.start, goal).assignment == {"n": 2, "k": 3}

    # chain: every tree of size <= 14 within depth 8, plus shape negatives
    reachable = set(reachable_set(chain, chain.start, SearchBudget(max_depth=8, max_tree_size=14)))
    for t in reachable:
        assert decide(cfn, chain.start, t)
    assert not decide(cfn, chain.start, parse_term("F(Z)"))
    assert not decide(cfn, chain.start, parse_term("P(G(Z))"))

    # fg: the full grid of F/G profiles up to size 14, zero mismatches
    reachable = set(reachable_set(fg, fg.start, SearchBudget(max_depth=8, max_tree_size=14)))
    mismatches = 0
    for i in range(0, 12):
        for j in range(0, 12 - i):
            d = _fg_tree(i, j)
            if decide(ffn, fg.start, d) != (d in reachable):
                mismatches += 1
    assert mismatches == 0

    # every extracted proof replays to its goal
    for d in sorted(reachable, key=print_term):
        proof = extract_proof(fg, ffn, fg.start, d)
        assert proof is not None and replay(fg, fg.start, proof.steps) == d


@criterion(9, "seven-condition multi-index system solves to the expected closed form")
def test_multiindex_system():
    conditions = seven_conditions()
    m = ((4, 1, 2), (5, 2, 0, 1))
    assert holds(conditions, {"m": m, "u": (4, 6, 4, 0, 1)})
    assert solve_u(conditions, m) == (4, 6, 4, 0, 1)
    import random

    rng = random.Random(7)
    for _ in range(50):
        m1, m2 = (
            tuple(rng.randrange(0, 6) for _ in range(rng.randrange(2, 5))),
            tuple(rng.randrange(0, 6) for _ in range(rng.randrange(2, 5))),
        )
        # solve_u returns only a unique solution; otherwise solve_concrete
        # raises Ambiguous, which carries the free unknown as free and its
        # least value as least
        u = solve_u(conditions, (m1, m2))
        assert u == m1[:-2] + (m1[-2] + m2[0], m1[-1] + m2[1]) + m2[2:]
        assert len(u) == len(m1) + len(m2) - 2
        assert holds(conditions, {"m": (m1, m2), "u": u})


@criterion(10, "decide cost grows subquadratically with chain length")
def test_scaling():
    chain = load_theory("chain")
    fn = sigma(chain, parse_scheme("a*"))

    def measure(n):
        d = _chain_tree(n)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            assert decide(fn, chain.start, d)
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = measure(1000), measure(4000)
    ratio = large / small
    _say(f"  decide timing: N=1000 {small * 1000:.1f}ms, N=4000 {large * 1000:.1f}ms, ratio {ratio:.1f}")
    # brute-force search at these sizes would enumerate thousands of
    # frontier states per depth level and is infeasible beyond small
    # depths; documented here rather than timed
    assert ratio <= 8


def test_stretch_three_axiom_reduction():
    """Stretch item: reduction of the three-axiom rotation system toward a
    c*-bracketed form. Reported, never failed."""
    th = load_theory("rotate3")
    scheme = build_scheme(["a", "b", "c"])
    try:
        reduced, trace = reduce_scheme(th, scheme)
    except TpcError as exc:
        _say(f"criterion 11: FAIL (stretch) - reduction aborted: {exc}")
        return
    parts = print_scheme(reduced)
    if parts.startswith("c*.") and parts.endswith(".c*"):
        _say(f"criterion 11: PASS (stretch) - reduced to {parts}")
        return
    _say("criterion 11: FAIL (stretch) - three-axiom system not reduced to a c*-bracketed form")
    _say(f"  furthest rewrite reached: {parts}")
    for attempt in trace.attempts[:2]:
        _say(f"  blocking query ({attempt.rule}): {attempt.query} [{attempt.reason}]")
    if not trace.attempts:
        _say("  no rewrite rule produced a candidate query")
