"""Turning a symbolic characteristic function into a decision procedure.

Tuning pins the index variables down for one concrete tree pair.  A
repetition count is unknown when it is not a constant.  An atom whose
paths contain exactly one unknown count is counted: apply the known side
to get the target subtree, walk the unknown run, and compare once, at the
one tree of the run that can match.  Sizes strictly decrease along a run,
so with no suffix after the run that is the tree of the target's size;
with a suffix, the tree where the run ends, since the plan (``_plan``)
gives up on a suffix that starts with the run's functor and arity, which
could match at two depths.  Each count gives one linear equation.  The atoms
outside the iterated groups give the first system, over the scalars and
multi-index lengths.  Which atoms it counts, and their count expressions,
depend on the branch alone, so a branch compiles that system once
(``Branch.scalar_stage``), and each tune solves it at the observed counts
in integers; the solve pins a count it leaves free by the rule in
``mathsolver``.  The groups then unroll into ordinary
atoms (``paths.unroll``), each group's atom once per value of its
variable, with the env's ints (the iteration variable, the scalars and the
solved lengths) substituted into the counts (``paths.substitute_counts``),
so that only the elements of the multi-indexes stay unknown;
the same counting gives the second system, over those elements, which
``solve_concrete`` solves by the same rule, since its shape follows the
lengths.  A final evaluation of the branch's atoms (``eval_atomset``)
re-reads the atoms that tuning solved, so it cannot see a wrong fit: only
``reaches`` (prove) and the pipeline's self-check test the fit.  Tuning
gives up with ``Ambiguous``; when a system leaves a count free that no
pin settles, the exception carries that count as ``free`` and its least
value as ``least``.  Zero steps rewrite a tree to itself, so for (t, t)
the first branch whose scheme holds the empty sequence answers with its
all-zero index before any tuning, even where tuning would be Ambiguous.

Every proof is certified from its goal before it is returned
(``reaches``, which the CLI also runs on every proof it prints).  Its steps
are undone from d, last first (``terms.undo``), back to the last step
whose axiom drops a variable; the steps up to that one are replayed from
t, and the two walks must meet in equal trees.  With no such step the
undoing walk must land exactly on t, which is small, so a large proof
costs one pass down from d and no rebuilt d to compare node by node.
Undoing a step is a forward step checked, so nothing of the composed
clauses or of sigma's fit is trusted.  A run of n steps of one pumping
axiom, ``C[z1, ...] -> C[D1[z1], ...]`` with the context C shared by its
sides and each Di a one-hole context whose other subtrees are ground, is
undone in one walk: its last step as above, then each Di stripped n - 1
more times off its hole, each strip testing every node of Di, and C built
once.  That trusts one more thing, a lemma checked per axiom on its syntax
(``terms._holes``): n steps of such an axiom rewrite ``C[t1, ...]`` to
``C[D1^n[t1], ...]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .affine import AffineExpr, IndexTerm
from .errors import Ambiguous, InternalMismatch
from .mathsolver import Equation, LinearSystem, solve_concrete
from .paths import IterGroup, apply_segments, eval_atom, eval_atomset, substitute_counts, unroll
from .schemes import instantiate
from .terms import Proof, Term, replay, term_size, undo

if TYPE_CHECKING:  # sigma imports this module, for Branch.scalar_stage
    from .sigma import Branch, SymbolicCharFn

@dataclass(frozen=True)
class TuneResult:
    branch: int
    assignment: dict  # scalars to ints, multi-indexes to tuples of ints


def _count_equation(segments, idx: int, base: Term, target: Term):
    """The count of the run segments[idx], every other count a constant,
    at which the segments rewrite *base* to *target*, or None.  Only one
    tree of the run can match (see the module docstring): the walk stops
    there, at the target's size or where the run ends, and compares once."""
    tree = apply_segments(segments[:idx], base, {})
    if tree is None:
        return None
    step = segments[idx].step
    size = term_size(target)
    j = 0
    while term_size(tree) > size and (child := step.apply(tree)) is not None:
        tree = child
        j += 1
    return j if apply_segments(segments[idx + 1:], tree, {}) == target else None


def _plan(atoms):
    """What tuning reads off each atom, which its paths alone fix, as
    (atom, how) pairs: how is None for an atom without an unknown count,
    which is checked; (side, segment index) for the one unknown count,
    which is counted; or the message of the Ambiguous the atom gives up
    with."""
    for atom in atoms:
        paths = [path for path, _ in atom.sides()]
        unknown = [
            (side, i) for side, path in enumerate(paths) for i, s in enumerate(path.segments) if not s.count.is_const
        ]
        if not unknown:
            yield atom, None
        elif len({side for side, _ in unknown}) != 1:
            yield atom, "both sides of an atom have undetermined counts"
        elif len(unknown) != 1:
            yield atom, "an atom has two undetermined counts on one side"
        else:
            side, idx = unknown[0]
            run, *suffix = paths[side].segments[idx:]
            first = next((s.step for s in suffix if s.count.const > 0), None)
            if first is not None and (first.functor, first.arity) == (run.step.functor, run.step.arity):
                yield atom, "an atom's count can match at two depths of its run"
            else:
                yield atom, unknown[0]


def _observed(plan, t, d):
    """One (count expression, observed count) pair per counted atom of
    *plan*, read off (t, d), in order; None when an atom cannot hold."""
    out = []
    for atom, how in plan:
        if how is None:
            if not eval_atom(atom, {}, t, d):
                return None
            continue
        if isinstance(how, str):
            raise Ambiguous(how)
        side, idx = how
        sides = atom.sides(t, d)
        (upath, ubase), (kpath, kbase) = sides[side], sides[1 - side]
        target = apply_segments(kpath.segments, kbase, {})
        j = None if target is None else _count_equation(upath.segments, idx, ubase, target)
        if j is None:
            return None
        out.append((upath.segments[idx].count, j))
    return out


def compile_scalar_stage(branch: Branch):
    """The first stage of tuning *branch*, fixed by its paths: the plan of
    the atoms outside the iterated groups, and the linear system of their
    unknown counts over the scalars and lengths, reduced once.  Each
    tune reads the observed counts off its trees and solves the system
    at them."""
    plan = list(_plan(a for a in branch.atoms if not isinstance(a, IterGroup)))
    counts = [atom.sides()[how[0]][0].segments[how[1]].count for atom, how in plan if isinstance(how, tuple)]
    return plan, LinearSystem(counts, [v.name for v in branch.decls])


def _unrolled(branch: Branch, env):
    """The atom of every iterated group, once per value of its variable,
    with that scope's ints substituted into its counts: only the elements
    of the multi-indexes stay unknown."""
    groups = [a for a in branch.atoms if isinstance(a, IterGroup)]
    for atom, scope in unroll(groups, env):
        yield substitute_counts(atom, {k: AffineExpr.const_(v) for k, v in scope.items()})


def _assignment(branch: Branch, t, d):
    """The index assignment the atoms of *branch* give for (t, d): the
    scalars and lengths from the branch's compiled scalar stage, then the
    elements from the unrolled groups; None when an atom cannot hold."""
    plan, system = branch.scalar_stage
    got = _observed(plan, t, d)
    env = None if got is None else system.solve([j for _, j in got])
    if env is None:
        return None
    got = _observed(_plan(_unrolled(branch, env)), t, d)
    if got is None:
        return None
    elements = {
        v.name: [IndexTerm(v.name, (AffineExpr.const_(i),)) for i in range(1, env[v.name] + 1)]
        for v in branch.decls
        if v.kind == "multi"
    }
    if not (got or elements):
        return env
    eqs = [Equation(count, AffineExpr.const_(j)) for count, j in got]
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


def _tuned(fn: SymbolicCharFn, t: Term, d: Term) -> TuneResult:
    """When t equals d, the all-zero assignment of the first branch whose
    scheme it instantiates to no step: zero steps rewrite a tree to itself,
    whether or not the atoms hold there.  Else, or when no branch has one,
    tune(fn, t, d)."""
    if t == d:
        for bi, branch in enumerate(fn.branches):
            zero = {v.name: () if v.kind == "multi" else 0 for v in branch.decls}
            if not instantiate(branch.scheme, branch.index_of(zero)):
                return TuneResult(bi, zero)
    return tune(fn, t, d)


def decide(fn: SymbolicCharFn, t: Term, d: Term) -> bool:
    return _tuned(fn, t, d) is not None


def extract_proof(theory, fn: SymbolicCharFn, t: Term, d: Term) -> Proof:
    """A certified axiom sequence rewriting t to d, or None."""
    result = _tuned(fn, t, d)
    if result is None:
        return None
    branch = fn.branches[result.branch]
    index = branch.index_of(result.assignment)
    steps = tuple(instantiate(branch.scheme, index))
    if not reaches(theory, t, steps, d):
        raise InternalMismatch(f"tuned index {index} does not replay to the goal")
    return Proof(steps)


def reaches(theory, t: Term, steps: tuple, d: Term) -> bool:
    """Whether *steps* rewrite t to d, checked from both ends: the steps
    after the last one that drops a variable are undone from d, and the
    rest replayed from t must meet the tree that gives."""
    k, middle = undo(theory, d, steps)
    return middle is not None and replay(theory, t, steps[:k]) == middle
