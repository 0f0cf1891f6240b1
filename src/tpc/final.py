"""Turning a symbolic characteristic function into a decision procedure.

Tuning pins the index variables down for one concrete tree pair.  A
repetition count is unknown when it is not a constant.  Every atom whose
paths contain exactly one unknown count can be counted greedily: apply
the known side to get the target subtree, walk the unknown run step by
step, and stop at the unique depth where the known suffix reproduces the
target.  The counting walk reads tree sizes, which strictly decrease
along a run: it gives up once the run's tree is smaller than the target,
and when no suffix follows the run, it compares trees only at the
target's size.  Each count contributes one linear equation, and
``solve_concrete`` solves every system exactly.  The atoms outside the
iterated groups give the first system, over the scalars and multi-index
lengths; a count it leaves free is pinned to its least value that works,
0 if no equation mentions it.  Each group then unrolls into ordinary
atoms, its body once per scope with the scope's ints (the iteration
variable, the scalars and the solved lengths) substituted into the
counts, so that only the elements of the multi-indexes stay unknown; the
same counting gives the second system, over those elements.  A final
full evaluation of the atom set guards against any bad fit, and every
proof is replayed to its goal before it is returned.  Tuning gives up
with ``Ambiguous``; when a system leaves a count free that no pin
settles, the exception carries that count as ``free`` and its least
value as ``least``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .affine import AffineExpr, IndexTerm, scopes
from .errors import Ambiguous, InternalMismatch
from .mathsolver import Equation, solve_concrete
from .paths import IterGroup, Segment, SymbolicPath, apply_segments, eval_atomset
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


def _count_equation(segments, base: Term, target: Term):
    """segments applied to *base* must yield *target*; exactly one segment
    count is unknown, that is, not a constant.  Returns (count expression,
    observed count) or None when no count matches."""
    idx = next(i for i, s in enumerate(segments) if not s.count.is_const)
    tree = apply_segments(segments[:idx], base, {})
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
            if apply_segments(suffix, tree, {}) == target:
                return segments[idx].count, j
        elif n == size:
            return (segments[idx].count, j) if tree == target else None
        tree = step.apply(tree)
        j += 1
    return None


def _equations(atoms, t, d):
    """One equation per atom with an unknown count, read off (t, d); an
    atom without one is checked instead.  None when an atom cannot hold."""
    eqs = []
    for atom in atoms:
        sides = [(path.segments, tree) for path, tree in atom.sides(t, d)]
        unknown = [i for i, (segs, _) in enumerate(sides) if not all(s.count.is_const for s in segs)]
        if not unknown:
            vals = [apply_segments(segs, base, {}) for segs, base in sides]
            if vals[0] is None or vals[0] != vals[1]:
                return None
            continue
        if len(unknown) != 1:
            raise Ambiguous("both sides of an atom have undetermined counts")
        (usegs, ubase) = sides[unknown[0]]
        (ksegs, kbase) = sides[1 - unknown[0]]
        if sum(1 for s in usegs if not s.count.is_const) != 1:
            raise Ambiguous("an atom has two undetermined counts on one side")
        target = apply_segments(ksegs, kbase, {})
        got = None if target is None else _count_equation(usegs, ubase, target)
        if got is None:
            return None
        eqs.append(Equation(got[0], AffineExpr.const_(got[1])))
    return eqs


def _unrolled(branch: Branch, env):
    """The body atoms of every iterated group, once per scope, with the
    scope's ints substituted into their counts, segment for segment: only
    the elements of the multi-indexes stay unknown."""
    for group in branch.atoms.conjuncts:
        if not isinstance(group, IterGroup):
            continue
        for scope in scopes(group, env):
            mapping = {k: AffineExpr.const_(v) for k, v in scope.items()}
            for atom in group.body:
                yield atom.with_paths(*(
                    SymbolicPath(tuple(Segment(s.step, s.count.substitute(mapping)) for s in path.segments))
                    for path, _ in atom.sides()
                ))


def _assignment(branch: Branch, t, d):
    """The index assignment the atoms of *branch* give for (t, d): the
    scalars and lengths from the atoms outside the groups, then the
    elements from the unrolled groups; None when an atom cannot hold."""
    unknowns = [v.name for v in branch.decls]
    env = {}
    if unknowns:
        eqs = _equations((a for a in branch.atoms.conjuncts if not isinstance(a, IterGroup)), t, d)
        env = None if eqs is None else _solve_some(eqs, unknowns)
        if env is None:
            return None
    eqs = _equations(_unrolled(branch, env), t, d)
    if eqs is None:
        return None
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
            full = _assignment(branch, t, d)
        except Ambiguous as exc:
            ambiguous = exc
            continue
        if full is not None and eval_atomset(branch.atoms, full, t, d):
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
