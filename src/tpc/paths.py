"""Paths (subtree extractors), symbolic paths with affine exponents, atoms
and atom sets.

A path step is a clause ``[p -> v]`` whose right side is a single variable
of ``p``; applying it to a ground tree extracts the matched subtree.  A
symbolic path is a step sequence where runs of one step carry an affine
repetition count.  An atom set is the conjunction of path-equality atoms
that characterizes a clause (or a whole iterative scheme) as a relation on
tree pairs.

Symbolic paths are walked one way each.  ``embed`` places one step
sequence into another, each step at its leftmost free slot; sigma uses it
to group atoms into families and to read their run counts, and inclusion
to align two paths run by run.  The scopes of an iterated group, one env
per value of its index variable, come from ``affine.scopes`` wherever a
group is evaluated, expanded or tuned.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .affine import AffineExpr, ONE, ZERO, scopes
from .errors import FreeRhsVariable
from .terms import App, Clause, Term, Var, compile_apply, print_term, substitute


# ---------------------------------------------------------------------------
# steps and paths


@dataclass(frozen=True, slots=True)
class Step:
    """One projection clause [p -> v]; variables canonically renamed.

    ``apply`` is the clause's root application, compiled once when the
    step is made (``terms.compile_apply``): a class, functor and arity test
    per lhs node, a ``!=`` test per repeated variable, and the target's
    slot returned.  A unit step, ``f(v0, ..., v{a-1})`` with distinct
    variables, compiles to one test and one unpacking; nested lhs, repeated
    variables and ground subterms run the same kind of code.  It is derived
    from the lhs, so it takes no part in equality, hashing or the repr."""

    lhs: Term
    var: str
    apply: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # so that apply returns a proper subterm, and a run of steps ends
        if not isinstance(self.lhs, App):
            raise ValueError(f"step lhs {print_term(self.lhs)} is not an application")
        try:
            c = Clause("", self.lhs, Var(self.var)).canonical()
        except FreeRhsVariable:
            raise ValueError(f"step target {self.var!r} does not occur in {print_term(self.lhs)}") from None
        object.__setattr__(self, "lhs", c.lhs)
        object.__setattr__(self, "var", c.rhs.name)
        object.__setattr__(self, "apply", compile_apply(c))

    def __str__(self):
        var = _DISPLAY_VARS.get(self.var, self.var)
        return f"[{print_term(substitute(self.lhs, _DISPLAY_VARS))}->{var}]"


_DISPLAY_VARS = {f"v{i}": Var(n) for i, n in enumerate("xyzwpqrst")}


@dataclass(frozen=True, slots=True)
class Segment:
    step: Step
    count: AffineExpr = ONE


@dataclass(frozen=True, slots=True)
class SymbolicPath:
    """A step sequence with affine repetition counts; () is the identity."""

    segments: tuple = ()

    @staticmethod
    def of(*segments) -> "SymbolicPath":
        """Normalizing constructor: merges adjacent equal steps, drops
        zero-count segments."""
        merged = []
        for seg in segments:
            if seg.count == ZERO:
                continue
            if merged and merged[-1].step == seg.step:
                merged[-1] = Segment(seg.step, merged[-1].count + seg.count)
            else:
                merged.append(seg)
        return SymbolicPath(tuple(merged))

    @staticmethod
    def concrete(steps) -> "SymbolicPath":
        """The path of a unit-step sequence: one segment per run of equal
        steps, counted directly."""
        return SymbolicPath(tuple(
            Segment(step, AffineExpr.const_(sum(1 for _ in run))) for step, run in itertools.groupby(steps)
        ))

    def expand(self, env: dict):
        """Unit-step tuple under *env*; None when a count is negative."""
        out = []
        for seg in self.segments:
            n = seg.count.evaluate(env)
            if n < 0:
                return None
            out.extend([seg.step] * n)
        return tuple(out)

    def apply(self, tree: Term, env: dict = None):
        return apply_segments(self.segments, tree, env or {})

    def steps(self) -> tuple:
        """The step of each run: the path's skeleton."""
        return tuple([seg.step for seg in self.segments])

    def substitute(self, mapping) -> "SymbolicPath":
        return SymbolicPath.of(*(Segment(s.step, s.count.substitute(mapping)) for s in self.segments))

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
    """Intersection of the body atoms over itervar in [lower, upper]."""

    itervar: str
    lower: AffineExpr
    upper: AffineExpr
    body: tuple

    def __str__(self):
        inner = ", ".join(str(a) for a in self.body)
        return f"IterIntersect(lambda {self.itervar}:N. {inner}, {self.lower}, {self.upper})"


@dataclass(frozen=True)
class VarDecl:
    name: str
    kind: str  # "scalar" | "multi"


@dataclass(frozen=True)
class AtomSet:
    conjuncts: tuple = ()

    def __str__(self):
        if len(self.conjuncts) == 1:
            return str(self.conjuncts[0])
        return "Intersect(" + ", ".join(str(a) for a in self.conjuncts) + ")"


# ---------------------------------------------------------------------------
# splitting clauses into atoms


@functools.lru_cache(maxsize=1024)
def _unit_step(functor: str, arity: int, child_idx: int) -> Step:
    """The step into child *child_idx* of a *functor* node; every sibling
    is pruned to a fresh variable.  Depends on nothing but its arguments,
    so one table serves every theory."""
    children = tuple(Var("hole") if i == child_idx else Var(f"s{i}") for i in range(arity))
    return Step(App(functor, children), "hole")


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


def split_axiom(c: Clause) -> AtomSet:
    """The conjunction of atoms equivalent to root application of *c*:
    one EqualsLR per (lhs occurrence, rhs occurrence) pair of each rhs
    variable, plus GroundL/GroundR atoms for maximal ground subterms."""
    lhs_vars, lhs_ground = _paths(c.lhs)
    rhs_vars, rhs_ground = _paths(c.rhs)
    atoms = [EqualsLR(lpath, rpath) for v, rpaths in rhs_vars.items() for rpath in rpaths for lpath in lhs_vars[v]]
    atoms += [GroundL(path, sub) for path, sub in lhs_ground]
    atoms += [GroundR(path, sub) for path, sub in rhs_ground]
    return AtomSet(tuple(atoms))


# ---------------------------------------------------------------------------
# evaluation


def _eval_atom(atom, env: dict, t: Term, d: Term) -> bool:
    if isinstance(atom, IterGroup):
        try:
            inner = scopes(atom, env)
        except (IndexError, KeyError):
            return False
        return all(_eval_atom(a, scope, t, d) for scope in inner for a in atom.body)
    (lp, lt), (rp, rt) = atom.sides(t, d)
    lv = lp.apply(lt, env)
    return lv is not None and lv == rp.apply(rt, env)


def eval_atomset(s: AtomSet, assign: dict, t: Term, d: Term) -> bool:
    """Conjunction semantics; *assign* maps index variable names to ints
    (scalars) or tuples of ints (multi-indexes as element-length lists)."""
    env = dict(assign or {})
    try:
        return all(_eval_atom(a, env, t, d) for a in s.conjuncts)
    except IndexError:
        return False
