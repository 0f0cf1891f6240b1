"""Paths (subtree extractors), symbolic paths with affine exponents and
atoms.

A path step projects a tree into one child of its root, a node of one
functor and arity; it is printed as the clause it applies, as in
``[F(x, y)->y]``.  A symbolic path is a step sequence where runs of one
step carry an affine repetition count.  A path holds its segments as it
is built: ``split_axiom`` reads maximal runs off a clause, sigma rebuilds
a fitted path run for run, and ``substitute_counts`` substitutes segment
for segment, so nothing merges runs or drops zero counts.  A tuple of
path-equality atoms, read as their conjunction, characterizes a clause
(or a whole iterative scheme) as a relation on tree pairs; an iterated
group stands for one atom at each value 1..upper of its index variable.

Symbolic paths are walked one way each.  ``embed`` places one step
sequence into another, each step at its leftmost free slot; sigma uses it
to group atoms into families and to read their run counts, and inclusion
to align two paths run by run.  ``unroll`` is the one expansion of a
group: every evaluation, verification and tuning of atoms reads each atom
with the env it yields.  ``substitute_counts`` is the one substitution
into an atom's counts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .affine import AffineExpr, ONE
from .terms import App, Term, Var, print_term


# ---------------------------------------------------------------------------
# steps and paths


@dataclass(frozen=True, slots=True)
class Step:
    """The projection into child *child* of a node with functor *functor*
    and *arity* children: the clause ``f(x0, ..., x{arity-1}) -> x{child}``
    applied at a tree's root, printed as ``[F(x, y, z)->y]``."""

    functor: str
    arity: int
    child: int

    def apply(self, t: Term):
        """The child of *t* the step projects into; None when *t* is not a
        node of the step's functor and arity."""
        if t.__class__ is App and t.functor == self.functor and len(t.children) == self.arity:
            return t.children[self.child]
        return None

    def __str__(self):
        names = [_DISPLAY_NAMES[i] if i < len(_DISPLAY_NAMES) else f"v{i}" for i in range(self.arity)]
        return f"[{self.functor}({', '.join(names)})->{names[self.child]}]"


_DISPLAY_NAMES = "xyzwpqrst"


@dataclass(frozen=True, slots=True)
class Segment:
    step: Step
    count: AffineExpr = ONE


@dataclass(frozen=True, slots=True)
class SymbolicPath:
    """A step sequence with affine repetition counts; () is the identity."""

    segments: tuple = ()

    def expand(self, env: dict):
        """Unit-step tuple under *env*; None when a count is negative."""
        out = []
        for seg in self.segments:
            n = seg.count.evaluate(env)
            if n < 0:
                return None
            out.extend([seg.step] * n)
        return tuple(out)

    def steps(self) -> tuple:
        """The step of each run: the path's skeleton."""
        return tuple([seg.step for seg in self.segments])

    def __str__(self):
        if not self.segments:
            return "[x->x]"
        parts = []
        for seg in self.segments:
            if seg.count == ONE:
                parts.append(str(seg.step))
            elif seg.count.is_const:
                parts.append(f"{seg.step}^{seg.count.const}")
            else:
                parts.append(f"{seg.step}^{{{seg.count}}}")
        return ".".join(parts)


IDENTITY_PATH = SymbolicPath(())


def apply_segments(segments, tree: Term, env: dict):
    """Walks *tree* down the segments under *env*; None when a count is
    negative or a step does not match."""
    for seg in segments:
        n = seg.count.evaluate(env)
        if n < 0:
            return None
        for _ in range(n):
            tree = seg.step.apply(tree)
            if tree is None:
                return None
    return tree


def embed(steps, skeleton):
    """The slot of *skeleton* each of *steps* takes when each is placed
    at the leftmost slot after the one before it; None when *steps* is not
    a subsequence of *skeleton*."""
    slots = []
    at = 0
    for step in steps:
        try:
            at = skeleton.index(step, at) + 1
        except ValueError:
            return None
        slots.append(at - 1)
    return slots


# ---------------------------------------------------------------------------
# atoms


# Every atom compares what its two sides read: ``sides(t, d)`` gives each
# side as (path, tree it reads), and ``with_paths`` rebuilds the atom with
# new paths for those sides.  A ground atom's second side is the identity
# path on its template.  Called without trees, ``sides`` puts None where a
# side reads t or d, so the second tree is the template or None.


@dataclass(frozen=True, slots=True)
class EqualsLR:
    left: SymbolicPath
    right: SymbolicPath

    def sides(self, t: Term = None, d: Term = None):
        return (self.left, t), (self.right, d)

    def with_paths(self, left: SymbolicPath, right: SymbolicPath) -> "EqualsLR":
        return EqualsLR(left, right)

    def __str__(self):
        return f"EqualsLR({self.left}, {self.right})"


@dataclass(frozen=True, slots=True)
class GroundL:
    path: SymbolicPath
    template: Term

    def sides(self, t: Term = None, d: Term = None):
        return (self.path, t), (IDENTITY_PATH, self.template)

    def with_paths(self, path: SymbolicPath, _identity: SymbolicPath = None) -> "GroundL":
        return GroundL(path, self.template)

    def __str__(self):
        return f"GroundL({self.path}, {print_term(self.template)})"


@dataclass(frozen=True, slots=True)
class GroundR:
    path: SymbolicPath
    template: Term

    def sides(self, t: Term = None, d: Term = None):
        return (self.path, d), (IDENTITY_PATH, self.template)

    def with_paths(self, path: SymbolicPath, _identity: SymbolicPath = None) -> "GroundR":
        return GroundR(path, self.template)

    def __str__(self):
        return f"GroundR({self.path}, {print_term(self.template)})"


@dataclass(frozen=True)
class IterGroup:
    """The atom *atom* at each value 1..upper of itervar, conjoined."""

    itervar: str
    upper: AffineExpr
    atom: object

    def __str__(self):
        return f"IterIntersect(lambda {self.itervar}:N. {self.atom}, 1, {self.upper})"


@dataclass(frozen=True)
class VarDecl:
    name: str
    kind: str  # "scalar" | "multi"


# ---------------------------------------------------------------------------
# splitting clauses into atoms


@functools.lru_cache(maxsize=1024)
def _unit_step(functor: str, arity: int, child_idx: int) -> Step:
    """The step into child *child_idx* of a *functor* node, interned: equal
    steps are one object, so comparing step tuples and searching them stop
    at the identity test.  Depends on nothing but its arguments, so one
    table serves every theory."""
    return Step(functor, arity, child_idx)


def _paths(t: Term):
    """One walk over *t*: the path to each occurrence of each variable,
    keyed in order of first occurrence, and each maximal ground subterm
    with its path, all in left-to-right order.  Each path is carried down
    the walk as a linked list of runs ``(runs before, step key, step,
    count)``, where a step key is the argument tuple of ``_unit_step``, so
    a leaf's path costs its number of runs, not its depth.  Iterative."""
    var_at = {}
    ground = []
    todo = [(t, None)]
    while todo:
        node, runs = todo.pop()
        if isinstance(node, Var):
            var_at.setdefault(node.name, []).append(_runs_path(runs))
        elif node.is_ground:
            ground.append((_runs_path(runs), node))
        else:
            arity = len(node.children)
            for i in range(arity - 1, -1, -1):
                key = (node.functor, arity, i)
                if runs is not None and runs[1] == key:
                    todo.append((node.children[i], (runs[0], key, runs[2], runs[3] + 1)))
                else:
                    todo.append((node.children[i], (runs, key, _unit_step(*key), 1)))
    return var_at, ground


def _runs_path(runs) -> SymbolicPath:
    segments = []
    while runs is not None:
        runs, _, step, n = runs
        segments.append(Segment(step, AffineExpr.const_(n)))
    return SymbolicPath(tuple(reversed(segments)))


def split_axiom(c) -> tuple:
    """The atoms whose conjunction is equivalent to root application of the
    clause *c*: one EqualsLR per (lhs occurrence, rhs occurrence) pair of
    each rhs variable, plus GroundL/GroundR atoms for maximal ground
    subterms."""
    lhs_vars, lhs_ground = _paths(c.lhs)
    rhs_vars, rhs_ground = _paths(c.rhs)
    atoms = [EqualsLR(lpath, rpath) for v, rpaths in rhs_vars.items() for rpath in rpaths for lpath in lhs_vars[v]]
    atoms += [GroundL(path, sub) for path, sub in lhs_ground]
    atoms += [GroundR(path, sub) for path, sub in rhs_ground]
    return tuple(atoms)


# ---------------------------------------------------------------------------
# expansion and evaluation


def unroll(atoms, env: dict):
    """Each plain atom of *atoms* with the env it is read under: *env*
    itself, or for the atom of an iterated group ``{**env, itervar: i}``
    for each i from 1 to the group's upper bound under *env*.  Lazy, so a
    bound that cannot be evaluated raises during the iteration."""
    for atom in atoms:
        if atom.__class__ is IterGroup:
            for i in range(1, atom.upper.evaluate(env) + 1):
                yield atom.atom, {**env, atom.itervar: i}
        else:
            yield atom, env


def substitute_counts(atom, mapping: dict):
    """*atom* with *mapping* substituted into every count of its paths,
    segment for segment (``AffineExpr.substitute``): no run is merged or
    dropped."""
    return atom.with_paths(*(
        SymbolicPath(tuple([Segment(s.step, s.count.substitute(mapping)) for s in path.segments]))
        for path, _ in atom.sides()
    ))


def eval_atom(atom, env: dict, t: Term, d: Term) -> bool:
    """Whether the plain *atom* holds for (t, d) under *env*."""
    (lp, lt), (rp, rt) = atom.sides(t, d)
    lv = apply_segments(lp.segments, lt, env)
    return lv is not None and lv == apply_segments(rp.segments, rt, env)


def eval_atomset(atoms, assign: dict, t: Term, d: Term) -> bool:
    """Conjunction semantics of the tuple *atoms*; *assign* maps index
    variable names to ints (scalars) or tuples of ints (multi-indexes as
    element-length lists).  False when a group bound or a selector cannot
    be evaluated under *assign*."""
    try:
        return all(eval_atom(a, scope, t, d) for a, scope in unroll(atoms, assign or {}))
    except (IndexError, KeyError):
        return False
