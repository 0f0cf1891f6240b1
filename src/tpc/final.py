"""Turning a symbolic characteristic function into a decision procedure.

Tuning pins the index variables down for one concrete tree pair.  Every
atom whose paths contain exactly one unknown repetition count can be
counted greedily: apply the known side to get the target subtree, walk
the unknown run step by step, and stop at the unique depth where the
known suffix reproduces the target.  The counting walk reads tree sizes,
which strictly decrease along a run: it gives up once the run's tree is
smaller than the target, and when no suffix follows the run, it compares
trees only at the target's size.  Each count contributes one linear
equation, and ``solve_concrete`` solves every system exactly.  The
scalars and multi-index lengths come first; a count that system leaves
free is pinned to its least value that works, 0 if no equation mentions
it.  The iterated groups are then unrolled (their bounds are now
concrete), and the equations of all their scopes are solved as one
system over the elements of the multi-indexes.  A final full evaluation
of the atom set guards against any bad fit, and every proof is replayed
to its goal before it is returned.  Tuning gives up with ``Ambiguous``;
when a system leaves a count free that no pin settles, the exception
carries that count as ``free`` and its least value as ``least``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .affine import AffineExpr, IndexTerm, scopes
from .errors import Ambiguous, InternalMismatch
from .mathsolver import Equation, solve_concrete
from .paths import IterGroup, apply_segments, eval_atomset
from .schemes import instantiate
from .sigma import Branch, SymbolicCharFn
from .terms import Proof, Term, replay, term_size

_COUNT_CAP = 10_000_000
_FREE_BOUND = 8


def _solve_some(eqs, unknowns):
    """solve_concrete, with each unknown it reports free pinned to its
    least value that works: 0 for an unknown no equation mentions, else
    least..least + _FREE_BOUND, where least is the smallest value the
    solved unknowns allow it (any witness will do; the caller verifies the
    full atom set afterwards).  Ambiguous, with the free unknown as
    ``free``, when every pin fails."""
    try:
        return solve_concrete(eqs, unknowns)
    except Ambiguous as exc:
        if exc.free is None:
            raise
        failure = exc
    free = IndexTerm(failure.free)
    mentioned = any(free in eq.diff.index_terms() for eq in eqs)
    for v in range(failure.least, failure.least + _FREE_BOUND + 1) if mentioned else (0,):
        pin = Equation(AffineExpr.var(failure.free), AffineExpr.const_(v))
        try:
            sol = _solve_some(eqs + [pin], unknowns)
        except Ambiguous:
            continue
        if sol is not None:
            return sol
    raise failure


@dataclass(frozen=True)
class TuneResult:
    branch: int
    assignment: dict  # scalars to ints, multi-indexes to tuples of ints


def _is_known(expr: AffineExpr, env) -> bool:
    try:
        expr.evaluate(env)
        return True
    except (KeyError, IndexError):
        return False


def _count_equation(segments, base: Term, target: Term, env):
    """segments applied to *base* must yield *target*; exactly one segment
    count is unknown.  Returns (count expression, observed count) or None
    when no count matches."""
    idx = next(i for i, s in enumerate(segments) if not _is_known(s.count, env))
    tree = apply_segments(segments[:idx], base, env)
    if tree is None:
        return None
    step = segments[idx].step
    suffix = segments[idx + 1:]
    size = term_size(target)
    j = 0
    # sizes strictly decrease along the run, and the suffix only descends,
    # so the first match is the only one, and none can follow once the
    # run's tree is smaller than the target; with no suffix, only the tree
    # of the target's size can match
    while tree is not None and j <= _COUNT_CAP:
        n = term_size(tree)
        if n < size:
            return None
        if suffix:
            if apply_segments(suffix, tree, env) == target:
                return segments[idx].count, j
        elif n == size:
            return (segments[idx].count, j) if tree == target else None
        tree = step.apply(tree)
        j += 1
    return None


def _tune_atom(atom, t, d, env, equations) -> bool:
    """Extracts one equation (or a consistency check) from a non-iterated
    atom; False when the atom cannot hold."""
    sides = [(path.segments, tree) for path, tree in atom.sides(t, d)]
    unknown = [
        i
        for i, (segs, _) in enumerate(sides)
        if any(not _is_known(s.count, env) for s in segs)
    ]
    if not unknown:
        vals = [apply_segments(segs, base, env) for segs, base in sides]
        return vals[0] is not None and vals[0] == vals[1]
    if len(unknown) != 1:
        raise Ambiguous("both sides of an atom have undetermined counts")
    (usegs, ubase) = sides[unknown[0]]
    (ksegs, kbase) = sides[1 - unknown[0]]
    if sum(1 for s in usegs if not _is_known(s.count, env)) != 1:
        raise Ambiguous("an atom has two undetermined counts on one side")
    target = apply_segments(ksegs, kbase, env)
    if target is None:
        return False
    got = _count_equation(usegs, ubase, target, env)
    if got is None:
        return False
    expr, j = got
    equations.append((expr, j))
    return True


def _solve_scalar_stage(branch: Branch, t, d):
    """Counts all non-iterated atoms, treating multi-index lengths as
    scalars; returns the partial env or None."""
    unknowns = [v.name for v in branch.decls]
    if not unknowns:
        return {}
    equations = []
    for atom in branch.atoms.conjuncts:
        if isinstance(atom, IterGroup):
            continue
        if not _tune_atom(atom, t, d, {}, equations):
            return None
    eqs = [Equation(expr, AffineExpr.const_(j)) for expr, j in equations]
    return _solve_some(eqs, unknowns)


def _unroll_groups(branch: Branch, t, d, env):
    """Tunes the multi-index elements inside the iterated groups, whose
    bounds *env* makes concrete: the equations of every group scope, scope
    scalars substituted, are solved as one system over the elements
    m[1..len]; replaces solved lengths by concrete tuples."""
    eqs = []
    for group in branch.atoms.conjuncts:
        if not isinstance(group, IterGroup):
            continue
        for scope in scopes(group, env):
            mapping = {k: AffineExpr.const_(v) for k, v in scope.items() if isinstance(v, int)}
            equations = []
            for atom in group.body:
                if not _tune_atom(atom, t, d, scope, equations):
                    return None
            eqs += [Equation(expr.substitute(mapping), AffineExpr.const_(j)) for expr, j in equations]
    elements = {
        v.name: [IndexTerm(v.name, (AffineExpr.const_(i),)) for i in range(1, env[v.name] + 1)]
        for v in branch.decls
        if v.kind == "multi"
    }
    if not (eqs or elements):
        return env
    sol = solve_concrete(eqs, [e for es in elements.values() for e in es])
    if sol is None:
        return None
    return {**env, **{m: tuple(sol[e] for e in es) for m, es in elements.items()}}


def tune(fn: SymbolicCharFn, t: Term, d: Term) -> TuneResult:
    """The index assignment (per branch) under which the atoms hold for
    (t, d); None when no branch admits one."""
    ambiguous = None
    for bi, branch in enumerate(fn.branches):
        try:
            env = _solve_scalar_stage(branch, t, d)
            if env is None:
                continue
            full = _unroll_groups(branch, t, d, env)
        except Ambiguous as exc:
            ambiguous = exc
            continue
        if full is None:
            continue
        if eval_atomset(branch.atoms, full, t, d):
            return TuneResult(bi, full)
    if ambiguous is not None:
        raise ambiguous
    return None


def decide(fn: SymbolicCharFn, t: Term, d: Term) -> bool:
    return tune(fn, t, d) is not None


def extract_proof(theory, fn: SymbolicCharFn, t: Term, d: Term) -> Proof:
    """A replayed axiom sequence rewriting t to d, or None."""
    result = tune(fn, t, d)
    if result is None:
        return None
    branch = fn.branches[result.branch]
    index = branch.index_of(result.assignment)
    steps = tuple(instantiate(branch.scheme, index))
    if replay(theory, t, steps) != d:
        raise InternalMismatch(f"tuned index {index} does not replay to the goal")
    return Proof(steps)
