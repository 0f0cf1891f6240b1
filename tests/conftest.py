import sys

import pytest

from tpc import load_theory, parse_scheme
from tpc.affine import AffineExpr
from tpc.paths import AtomSet, Segment, SymbolicPath, VarDecl
from tpc.pipeline import DecisionProcedure
from tpc.schemes import Alt, Axiom, Dot, Eps
from tpc.sigma import Branch, SymbolicCharFn, sigma


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
    each side, F^k(x) = F^n(x), so tuning is Ambiguous on every pair."""
    chain, scheme = load_theory("chain"), parse_scheme("a*.a*")
    (branch,) = sigma(chain, parse_scheme("a*")).branches
    (atom,) = branch.atoms.conjuncts
    run = atom.right.segments[-1]
    left = SymbolicPath.of(*atom.left.segments, Segment(run.step, AffineExpr.var("k")))
    decls = (VarDecl("n", "scalar"), VarDecl("k", "scalar"))
    charfn = SymbolicCharFn(scheme, (Branch(scheme, decls, AtomSet((atom.with_paths(left, atom.right),))),))
    return DecisionProcedure(chain, scheme, charfn)
