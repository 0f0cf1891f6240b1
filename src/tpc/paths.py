"""Paths (subtree extractors), symbolic paths with affine exponents, atoms
and atom sets.

A path step is a clause ``[p -> v]`` whose right side is a single variable
of ``p``; applying it to a ground tree extracts the matched subtree.  A
symbolic path is a step sequence where runs of one step carry an affine
repetition count.  An atom set is the conjunction of path-equality atoms
that characterizes a clause (or a whole iterative scheme) as a relation on
tree pairs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .affine import AffineExpr, ONE, ZERO
from .errors import FreeRhsVariable
from .terms import IDENTITY, App, Clause, Term, Var, compose_clauses, match, print_term, substitute


# ---------------------------------------------------------------------------
# steps and paths


@dataclass(frozen=True, slots=True)
class Step:
    """One projection clause [p -> v]; variables canonically renamed."""

    lhs: Term
    var: str

    def __post_init__(self):
        try:
            c = Clause("", self.lhs, Var(self.var)).canonical()
        except FreeRhsVariable:
            raise ValueError(f"step target {self.var!r} does not occur in {print_term(self.lhs)}") from None
        object.__setattr__(self, "lhs", c.lhs)
        object.__setattr__(self, "var", c.rhs.name)

    def apply(self, tree: Term):
        binding = match(self.lhs, tree)
        return None if binding is None else binding[self.var]

    def as_clause(self) -> Clause:
        return Clause("", self.lhs, Var(self.var))

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
        return SymbolicPath.of(*(Segment(s, ONE) for s in steps))

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

    def to_clause(self) -> Clause:
        """Concrete paths only: the single merged projection clause."""
        clause = _fold_steps(self.expand({}))
        if clause is None:
            raise ValueError("path steps do not compose")
        return clause

    def substitute(self, mapping) -> "SymbolicPath":
        return SymbolicPath.of(*(Segment(s.step, s.count.substitute(mapping)) for s in self.segments))

    def variables(self) -> set:
        out = set()
        for seg in self.segments:
            out |= seg.count.variables()
        return out

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


def path_of_steps(*steps) -> SymbolicPath:
    return SymbolicPath.concrete(steps)


def same_path(p: SymbolicPath, q: SymbolicPath) -> bool:
    """Semantic equality of concrete paths (merged-clause comparison)."""
    return p.to_clause().same_relation(q.to_clause())


def _fold_steps(steps):
    """The clause applying *steps* in order; None if they do not compose."""
    clause = IDENTITY
    for step in steps:
        clause = compose_clauses(clause, step.as_clause())
        if clause is None:
            return None
    return clause


def compose_paths(p: SymbolicPath, q: SymbolicPath) -> SymbolicPath:
    """Single-step path equal to applying p then q; None if they do not
    compose."""
    clause = _fold_steps(p.expand({}) + q.expand({}))
    if clause is None:
        return None
    if isinstance(clause.lhs, Var):
        return IDENTITY_PATH
    return SymbolicPath.concrete((Step(clause.lhs, clause.rhs.name),))


def power_path(p: SymbolicPath, n: int) -> SymbolicPath:
    out = IDENTITY_PATH
    for _ in range(n):
        out = compose_paths(out, p)
        if out is None:
            return None
    return out


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
    free_vars: tuple = ()

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


def _unit_steps(t: Term, pos) -> tuple:
    """Unit steps from the root of *t* to the node at *pos*."""
    steps = []
    node = t
    for child_idx in pos:
        steps.append(_unit_step(node.functor, len(node.children), child_idx))
        node = node.children[child_idx]
    return tuple(steps)


def _positions(t: Term):
    """One walk over *t*: the positions of each variable, keyed in order of
    first occurrence, and each maximal ground subterm with its position,
    all in left-to-right order.  Iterative."""
    var_at = {}
    ground = []
    todo = [((), t)]
    while todo:
        at, node = todo.pop()
        if isinstance(node, Var):
            var_at.setdefault(node.name, []).append(at)
        elif node.is_ground:
            ground.append((at, node))
        else:
            todo.extend((at + (i,), c) for i, c in reversed(tuple(enumerate(node.children))))
    return var_at, ground


def split_axiom(c: Clause) -> AtomSet:
    """The conjunction of atoms equivalent to root application of *c*:
    one EqualsLR per (lhs occurrence, rhs occurrence) pair of each rhs
    variable, plus GroundL/GroundR atoms for maximal ground subterms."""
    lhs_vars, lhs_ground = _positions(c.lhs)
    rhs_vars, rhs_ground = _positions(c.rhs)

    def path(t, pos):
        return SymbolicPath.concrete(_unit_steps(t, pos))

    atoms = [
        EqualsLR(path(c.lhs, lpos), path(c.rhs, rpos))
        for v, rposs in rhs_vars.items()
        for rpos in rposs
        for lpos in lhs_vars[v]
    ]
    atoms += [GroundL(path(c.lhs, pos), sub) for pos, sub in lhs_ground]
    atoms += [GroundR(path(c.rhs, pos), sub) for pos, sub in rhs_ground]
    return AtomSet(tuple(atoms), ())


# ---------------------------------------------------------------------------
# evaluation


def _eval_atom(atom, env: dict, t: Term, d: Term) -> bool:
    if isinstance(atom, IterGroup):
        try:
            lo = atom.lower.evaluate(env)
            hi = atom.upper.evaluate(env)
        except (IndexError, KeyError):
            return False
        for i in range(lo, hi + 1):
            inner = dict(env)
            inner[atom.itervar] = i
            for a in atom.body:
                if not _eval_atom(a, inner, t, d):
                    return False
        return True
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
