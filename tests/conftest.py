import itertools
import sys
from dataclasses import dataclass

import pytest

from tpc import load_theory, parse_scheme
from tpc.affine import ZERO, AffineExpr
from tpc.mathsolver import Congruence, Equation, Ineq
from tpc.paths import Segment, Step, SymbolicPath, VarDecl
from tpc.pipeline import DecisionProcedure
from tpc.schemes import Alt, Axiom, Dot, Eps
from tpc.sigma import Branch, SymbolicCharFn, sigma
from tpc.terms import IDENTITY, App, Clause, Var, apply_clause, compose_clauses, free_vars, parse_term, print_term


def sequences(e, budget):
    """The distinct axiom sequences of length <= *budget* that instances of
    the scheme *e* select, read off the scheme with no index layout."""
    if isinstance(e, Axiom):
        return {(e.name,)} if budget >= 1 else set()
    if isinstance(e, Eps):
        return {()}
    if isinstance(e, Alt):
        return set().union(*(sequences(p, budget) for p in e.parts))
    if isinstance(e, Dot):
        out = {()}
        for part in (sequences(p, budget) for p in e.parts):
            out = {s + t for s in out for t in part if len(s) + len(t) <= budget}
        return out
    # a star: the least set holding eps and closed under appending its body
    body = sequences(e.body, budget)
    out = frontier = {()}
    while frontier:
        frontier = {s + t for s in frontier for t in body if len(s) + len(t) <= budget} - out
        out |= frontier
    return out


def same_relation(a, b) -> bool:
    """Whether clauses *a* and *b* are the same relation: equal once each
    has its variables renamed in order of first occurrence."""
    a, b = compose_clauses(a), compose_clauses(b)
    return a.lhs == b.lhs and a.rhs == b.rhs


def match(pattern, tree, binding=None):
    """Match *pattern* against ground *tree* at the root.  Repeated
    variables require equal subtrees.  Returns the binding dict or None:
    the reference that compiled root application is checked against."""
    if binding is None:
        binding = {}
    stack = [(pattern, tree)]
    while stack:
        p, t = stack.pop()
        if isinstance(p, Var):
            seen = binding.get(p.name)
            if seen is None:
                binding[p.name] = t
            elif seen != t:
                return None
            continue
        if not isinstance(t, App) or t.functor != p.functor or len(t.children) != len(p.children):
            return None
        stack.extend(zip(p.children, t.children))
    return binding


def stepwise_undo(th, goal, steps) -> tuple:
    """*steps* undone from *goal* one at a time, last first, each by
    applying its axiom's inverse ``rhs -> lhs``, back to the last step
    whose axiom drops a variable or is unknown: (k, s) as ``terms.undo``
    gives it, the reference that undoes a pumping run in one walk."""
    inverses = {ax.name: Clause(ax.name, ax.rhs, ax.lhs) for ax in th.axioms if free_vars(ax.lhs) <= free_vars(ax.rhs)}
    k = len(steps)
    current = goal
    while k:
        inverse = inverses.get(steps[k - 1])
        if inverse is None:
            break
        current = apply_clause(inverse, current)
        if current is None:
            break
        k -= 1
    return k, current


def step_key(lhs: str, var: str) -> tuple:
    """The arguments of ``paths._unit_step`` for the step written as the
    clause *lhs* -> *var*, whose lhs is one node over distinct variables:
    ``"P(x, y)", "y"`` gives ``("P", 2, 1)``."""
    node = parse_term(lhs)
    names = [child.name for child in node.children]
    assert len(set(names)) == len(names), f"{lhs} is not a unit step"
    return node.functor, len(names), names.index(var)


def step_clause(step: Step) -> Clause:
    """The clause *step* applies at a tree's root, ``f(v0, ..., v{a-1}) ->
    v{child}``, canonically named."""
    names = tuple(Var(f"v{i}") for i in range(step.arity))
    return Clause("", App(step.functor, names), names[step.child])


def matched(step: Step, tree):
    """*step* applied the general way, by matching its clause's lhs at the
    root of *tree*: the reference ``Step.apply`` is checked against."""
    c = step_clause(step)
    binding = match(c.lhs, tree)
    return None if binding is None else binding[c.rhs.name]


def substitute(pattern, binding: dict):
    """*pattern* with each variable bound in *binding* replaced, recursively;
    ground subtrees are returned as they are.  The reference substitution
    of the tests (the library renames and resolves with ``terms._rebuild``)."""
    if isinstance(pattern, Var):
        return binding.get(pattern.name, pattern)
    if pattern.is_ground:
        return pattern
    return App(pattern.functor, tuple(substitute(c, binding) for c in pattern.children))


def step_notation(c: Clause) -> str:
    """The canonical clause *c*, ``lhs -> var``, printed the way a step is:
    ``[F(x, y)->y]``, variables v0 to v8 shown as x, y, z, w, p, q, r, s, t."""
    names = {f"v{i}": Var(n) for i, n in enumerate("xyzwpqrst")}
    return f"[{print_term(substitute(c.lhs, names))}->{print_term(substitute(c.rhs, names))}]"


def concrete(steps) -> SymbolicPath:
    """The path of a unit-step sequence: one segment per run of equal
    steps, counted directly."""
    return SymbolicPath(tuple(
        Segment(step, AffineExpr.const_(sum(1 for _ in run))) for step, run in itertools.groupby(steps)
    ))


def symbolic_path(*segments) -> SymbolicPath:
    """The path of *segments* normalised: adjacent runs of one step merged,
    zero-count runs dropped.  A builder for hand-written paths."""
    merged = []
    for seg in segments:
        if seg.count == ZERO:
            continue
        if merged and merged[-1].step == seg.step:
            merged[-1] = Segment(seg.step, merged[-1].count + seg.count)
        else:
            merged.append(seg)
    return SymbolicPath(tuple(merged))


@dataclass(frozen=True)
class ComposedPath:
    """A path composed into the one clause ``lhs -> var``, canonically
    named, such as ``[P(R(x, y), z)->y]``: a step that projects more than
    one node, which ``Step`` does not express."""

    lhs: object
    var: str

    @staticmethod
    def of(lhs: str, var: str) -> "ComposedPath":
        c = compose_clauses(Clause("", parse_term(lhs), Var(var)))
        return ComposedPath(c.lhs, c.rhs.name)

    def clause(self) -> Clause:
        return Clause("", self.lhs, Var(self.var))

    def __str__(self):
        return step_notation(self.clause())


def compose_paths(p, q) -> ComposedPath:
    """The path applying p then q, each a SymbolicPath without unknown
    counts or a ComposedPath; None if they do not compose."""
    clause = compose_clauses(IDENTITY, *_clauses(p), *_clauses(q))
    return None if clause is None else ComposedPath(clause.lhs, clause.rhs.name)


def _clauses(p) -> list:
    return [p.clause()] if isinstance(p, ComposedPath) else [step_clause(s) for s in p.expand({})]


def power_path(p, n: int) -> ComposedPath:
    out = ComposedPath(Var("v0"), "v0")
    for _ in range(n):
        out = compose_paths(out, p)
        if out is None:
            return None
    return out


def index_terms(e: AffineExpr) -> set:
    """Every index term *e* mentions, those in selectors included."""
    out = set()
    for _, it in e.terms:
        out.add(it)
        for s in it.sel:
            out |= index_terms(s)
    return out


def eval_condition(cond, env: dict) -> bool:
    """Whether a condition of a Region holds at *env*: false where a term
    cannot be evaluated."""
    try:
        if isinstance(cond, Equation):
            return cond.lhs.evaluate(env) == cond.rhs.evaluate(env)
        if isinstance(cond, Ineq):
            return cond.lhs.evaluate(env) >= cond.rhs.evaluate(env)
        if isinstance(cond, Congruence):
            return cond.expr.evaluate(env) % cond.modulus == 0
    except (IndexError, KeyError):
        return False
    raise TypeError(f"not a condition: {cond!r}")


def eval_region(region, env: dict) -> bool:
    """Whether *env* lies in *region*: the reference semantics that
    eliminate's regions are checked against."""
    if region.kind == "universal":
        return True
    if region.kind == "unsat":
        return False
    return all(eval_condition(c, env) for c in region.conditions)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Prints the acceptance criterion report collected during the run."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORT", None) if module else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)


@pytest.fixture
def rejecting_procedure():
    """chain's decider for a.a*, which leaves out the empty sequence, so it
    rejects the start sentence that every theory reaches."""
    chain, scheme = load_theory("chain"), parse_scheme("a.a*")
    return DecisionProcedure(chain, scheme, sigma(chain, scheme))


@pytest.fixture
def undecidable_procedure():
    """A decider for chain's a*.a* whose one atom has an unknown count on
    each side, F^k(x) = F^n(x), so tuning is Ambiguous on every pair; a
    pair (t, t) is answered by zero steps before any tuning."""
    chain, scheme = load_theory("chain"), parse_scheme("a*.a*")
    (branch,) = sigma(chain, parse_scheme("a*")).branches
    (atom,) = branch.atoms
    run = atom.right.segments[-1]
    left = symbolic_path(*atom.left.segments, Segment(run.step, AffineExpr.var("k")))
    decls = (VarDecl("n", "scalar"), VarDecl("k", "scalar"))
    charfn = SymbolicCharFn(scheme, (Branch(scheme, decls, (atom.with_paths(left, atom.right),)),))
    return DecisionProcedure(chain, scheme, charfn)
