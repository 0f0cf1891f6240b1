"""Inclusion queries between symbolic characteristic functions.

``includes(f, g)`` answers: for which parameter values of f does every
tree pair satisfying f's atoms also satisfy g's atoms for SOME value of
g's index variables?  Matching atoms pairwise and aligning their paths
run by run turns the question into a linear equation system, which the
math solver projects down to a region over f's variables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .affine import ZERO, AffineExpr
from .errors import Unsupported
from .mathsolver import ConditionSystem, Equation, Region, eliminate
from .paths import IterGroup, SymbolicPath, embed
from .sigma import Branch, SymbolicCharFn, fresh_name


@dataclass(frozen=True)
class InclusionResult:
    system: ConditionSystem
    region: Region

    @property
    def universal(self) -> bool:
        return self.region.is_universal


def _align(p: SymbolicPath, q: SymbolicPath):
    """Pairs of counts that must be equal for the two paths to extract
    the same subtree on all trees; None if the step patterns differ."""
    if len(p.segments) < len(q.segments):
        p, q = q, p
    # embed the shorter run list into the longer one (missing runs are 0)
    slots = embed(q.steps(), p.steps())
    if slots is None:
        return None
    counts = dict(zip(slots, (seg.count for seg in q.segments)))
    return [(seg.count, counts.get(i, ZERO)) for i, seg in enumerate(p.segments)]


def _atom_equations(fa, ga):
    """Equations forcing the g atom on every pair satisfying the f atom;
    None when the atoms are not of the same shape."""
    if type(fa) is not type(ga):
        return None
    pairs = []
    for (fp, ftree), (gp, gtree) in zip(fa.sides(), ga.sides()):
        if ftree != gtree:
            return None
        aligned = _align(fp, gp)
        if aligned is None:
            return None
        pairs.extend(aligned)
    return [Equation(fc, gc) for fc, gc in pairs if fc != gc]


def _single_branch(fn: SymbolicCharFn) -> Branch:
    if len(fn.branches) != 1:
        raise Unsupported("inclusion queries need single-alternative functions")
    return fn.branches[0]


def includes(f, g) -> InclusionResult:
    """The region of f's index variables on which f's relation is a
    subset of g's (witnessed by matching each g atom to an f atom)."""
    fb, gb = _single_branch(f), _single_branch(g)

    taken = {d.name for d in fb.decls}
    mapping = {}
    for d in gb.decls:
        name = d.name
        if name in taken:
            name = fresh_name(taken, d.kind)
        taken.add(name)
        mapping[d.name] = name
    # element selectors occur only inside iterated groups, which are
    # rejected, so renaming the scalar terms renames every variable
    renamed = {old: AffineExpr.var(new) for old, new in mapping.items()}

    equations = []
    for ga in gb.atoms.conjuncts:
        if isinstance(ga, IterGroup):
            raise Unsupported("iterated atom groups are not alignable")
        ga = ga.with_paths(*(path.substitute(renamed) for path, _ in ga.sides()))
        matched = None
        for fa in fb.atoms.conjuncts:
            eqs = _atom_equations(fa, ga)
            if eqs is not None:
                matched = eqs
                break
        if matched is None:
            raise Unsupported(f"no aligned atom for {ga}")
        equations.extend(matched)

    system = ConditionSystem(
        existentials=tuple(mapping[d.name] for d in gb.decls),
        conditions=tuple(equations),
    )
    return InclusionResult(system, eliminate(system))
