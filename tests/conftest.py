import sys

import pytest

from tpc import load_theory, parse_scheme
from tpc.affine import AffineExpr
from tpc.paths import AtomSet, Segment, SymbolicPath, VarDecl
from tpc.pipeline import DecisionProcedure
from tpc.sigma import Branch, SymbolicCharFn, sigma


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
