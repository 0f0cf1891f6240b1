"""Inclusion queries between symbolic characteristic functions.

``includes(f, g)`` answers: for which parameter values of f does every
tree pair satisfying f's atoms also satisfy g's atoms for SOME value of
g's index variables?  Matching atoms pairwise and aligning their paths
run by run turns the question into a linear equation system, which the
math solver projects down to a region over f's variables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .affine import AffineExpr, IndexTerm
from .errors import Unsupported
from .mathsolver import ConditionSystem, Equation, Region, eliminate
from .paths import IterGroup, Segment, SymbolicPath
from .sigma import Branch, SymbolicCharFn


@dataclass(frozen=True)
class InclusionResult:
    system: ConditionSystem
    region: Region

    @property
    def universal(self) -> bool:
        return self.region.is_universal


def _rename_expr(e: AffineExpr, mapping: dict) -> AffineExpr:
    terms = []
    for c, it in e.terms:
        sel = tuple(_rename_expr(s, mapping) for s in it.sel)
        terms.append((c, IndexTerm(mapping.get(it.var, it.var), sel)))
    return AffineExpr.of(e.const, *terms)


def _rename_path(p: SymbolicPath, mapping: dict) -> SymbolicPath:
    return SymbolicPath.of(
        *(Segment(seg.step, _rename_expr(seg.count, mapping)) for seg in p.segments)
    )


def _runs(p: SymbolicPath):
    return [(seg.step, seg.count) for seg in p.segments]


def _align(p: SymbolicPath, q: SymbolicPath):
    """Pairs of counts that must be equal for the two paths to extract
    the same subtree on all trees; None if the step patterns differ."""
    a, b = _runs(p), _runs(q)
    if len(a) < len(b):
        a, b = b, a
    # embed the shorter run list into the longer one (missing runs are 0)
    out = []
    bi = 0
    for step, count in a:
        if bi < len(b) and b[bi][0] == step:
            out.append((count, b[bi][1]))
            bi += 1
        else:
            out.append((count, AffineExpr.const_(0)))
    if bi != len(b):
        return None
    return out


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


def _single_branch(fn) -> Branch:
    if isinstance(fn, Branch):
        return fn
    if isinstance(fn, SymbolicCharFn):
        if len(fn.branches) != 1:
            raise Unsupported("inclusion queries need single-alternative functions")
        return fn.branches[0]
    raise TypeError(fn)


def includes(f, g) -> InclusionResult:
    """The region of f's index variables on which f's relation is a
    subset of g's (witnessed by matching each g atom to an f atom)."""
    fb, gb = _single_branch(f), _single_branch(g)

    taken = {d.name for d in fb.decls}
    mapping = {}
    for d in gb.decls:
        name = d.name
        if name in taken or name in mapping.values():
            pool = "nkjl" if d.kind == "scalar" else "muw"
            name = next(
                c for c in list(pool) + [f"{pool[0]}{i}" for i in range(2, 99)]
                if c not in taken and c not in mapping.values()
            )
        mapping[d.name] = name

    equations = []
    for ga in gb.atoms.conjuncts:
        ga = _rename_atom(ga, mapping)
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
        parameters=tuple(d.name for d in fb.decls),
        existentials=tuple(mapping[d.name] for d in gb.decls),
        conditions=tuple(equations),
    )
    return InclusionResult(system, eliminate(system))


def _rename_atom(atom, mapping):
    if isinstance(atom, IterGroup):
        raise Unsupported("iterated atom groups are not alignable")
    return atom.with_paths(*(_rename_path(path, mapping) for path, _ in atom.sides()))
