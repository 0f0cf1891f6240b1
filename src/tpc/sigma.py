"""Symbolic characteristic functions for iterative schemes.

``sigma`` turns a scheme into a function of its index variables whose
value is a tuple of atoms: a pair of trees is related by some instance of
the scheme exactly when the atoms hold under the corresponding
assignment.  An iterated family is fitted as one ``IterGroup``: one atom,
read at each value 1..upper of its position variable.

The construction samples the scheme at small concrete indexes (every
combination of pool values, or an evenly strided subset that still
varies every variable), reduces each instance to a single clause, splits
it into path atoms, aligns the atoms across samples into families, fits
every repetition count as an affine expression in the index features
(constants, scalar counts, multi-index lengths, and inside iterated
families the position i and the element value m[i]), and then verifies
the fitted form against held-out samples and at the zero boundary, which
no fit sample reaches.  Each design, the feature matrix of one list of
sample envs, is reduced once; every count fitted over it is solved from
the basis rows and checked on all rows in integers.  Verification
unrolls the fitted atoms at each held-out index (``paths.unroll``),
expands each to unit steps and compares them, as a multiset, with the
atoms split from that sample: each atom is compared by
its class, the unit steps of each side and its template.  A scheme that
fails to lay out, fit or verify ends in a ``GiveUp`` record, which
``sigma`` raises as NotLinearizable.

When the fit grid lists every combination and has more than twice as
many samples as a sub-grid of ``_PROBE_FIT_SAMPLES``, strided the same
way, the fit runs first on that sub-grid, in the same loop as the full
fit grid.  A decisive give-up there, one that no larger grid can undo,
is final: an empty instance, a feature that cannot be evaluated, or a
fit whose design has full column rank, so that the counts have at most
one affine form.  A rank-deficient give-up, or a fit that passes, goes
on to the full fit grid, so every form accepted is fitted and verified
as without the sub-grid.

The samples of a branch share one ``reduce_specific`` state and are
composed in sorted order of their axiom sequences, so each resumes from
the longest prefix any earlier one left.  Fitting stops at the first
instance that composes to the empty relation; everything else, the
samples, the families and every check, keeps the order of the grid, so
the first failure reported is the same whatever the composition order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod

from .affine import AffineExpr, IndexTerm, ONE
from .errors import NotLinearizable
from .final import compile_scalar_stage
from .mathsolver import LinearSystem
from .paths import IterGroup, Segment, SymbolicPath, VarDecl, embed, split_axiom, unroll
from .schemes import (
    Alt,
    Axiom,
    Dot,
    Eps,
    IterExpr,
    Star,
    index_from_stars,
    instantiate,
    reduce_specific,
    star_kind,
)

_NAMES = {"scalar": ("n", "k", "j", "l"), "multi": ("m", "u", "w"), "iter": ("i", "i2", "i3")}

_SCALAR_FIT = (1, 2, 3)
_SCALAR_VERIFY = (4, 5)
_MULTI_FIT = (
    (1,), (2,),
    (1, 1), (2, 1), (1, 2), (2, 2),
    (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (3, 2, 1),
)
_MULTI_VERIFY = ((3,), (1, 3), (4, 1, 2), (2, 1, 3, 2))
# the zero boundary, which no pool above reaches: counts of 0, empty multi-indexes
_SCALAR_EDGE = (0, 1)
_MULTI_EDGE = ((), (0,), (0, 1), (1, 0))

_MAX_FIT_SAMPLES = 400
# the sub-grid a branch is fitted on first: the least cap at which every
# variable of a layout of up to five still takes every value of its pool
_PROBE_FIT_SAMPLES = 40
_MAX_VERIFY_SAMPLES = 64


@dataclass(frozen=True)
class GiveUp:
    """Why a scheme has no verified form: the message and scheme, if any,
    of the NotLinearizable it stands for, and whether it holds for every
    list of fit envs holding the ones it was found on, so that no larger
    grid could undo it; only a failed fit can be indecisive."""

    message: str
    scheme: IterExpr = None
    decisive: bool = True

    def error(self) -> NotLinearizable:
        return NotLinearizable(self.message, self.scheme)


# ---------------------------------------------------------------------------
# variable layout


def _layout(e: IterExpr, decls: list):
    """Appends one VarDecl per star of *e*, left to right, in the order
    ``index_from_stars`` takes their values, of the kind ``star_kind``
    gives: a scalar for a star that takes a count, a multi-index for one
    that takes a tuple of counts.  Returns None, or the give-up of the
    first part of *e* that has no flat layout."""
    if isinstance(e, Star):
        kind = star_kind(e)
        if kind is None:
            return GiveUp("index nesting too deep to lay out", e)
        decls.append(VarDecl(fresh_name({d.name for d in decls}, kind), kind))
    elif isinstance(e, Dot):
        for p in e.parts:
            failure = _layout(p, decls)
            if failure is not None:
                return failure
    elif isinstance(e, Alt):
        return GiveUp("alternatives must be at the top level", e)
    elif not isinstance(e, (Axiom, Eps)):
        raise TypeError(e)
    return None


def fresh_name(taken, kind: str) -> str:
    """A name for a variable of *kind* ("scalar", "multi" or "iter", an
    iteration variable) not in *taken*: the first of the kind's names,
    then the first name + "2", "3", ..."""
    names = _NAMES[kind]
    for name in names:
        if name not in taken:
            return name
    i = 2
    while f"{names[0]}{i}" in taken:
        i += 1
    return f"{names[0]}{i}"


def _sample_grid(decls, scalar_pool, multi_pool, cap):
    """Every combination of pool values, or *cap* of them when there are
    more: combos[i * stride mod len] for i < cap, with stride the least
    integer >= len / cap that is coprime to len.  They are distinct, and
    the innermost variable, whose pool size divides len, takes every
    value; a stride sharing a factor with that size would freeze it.  The
    tests check that every variable takes every value in each layout of
    up to five variables on the fit pools, at both fit caps, and six on
    the verify pools.

    combos is the ``itertools.product`` of the pools, but it is never
    listed: each kept index is decoded in mixed radix, last variable
    fastest, so the cost is that of the kept samples."""
    pools = [scalar_pool if d.kind == "scalar" else multi_pool for d in decls]
    size = prod(len(p) for p in pools)
    stride = 1
    if size > cap:
        stride = -(-size // cap)
        while gcd(stride, size) != 1:
            stride += 1
    envs = []
    for i in range(min(size, cap)):
        k = i * stride % size
        values = []
        for pool in reversed(pools):
            k, r = divmod(k, len(pool))
            values.append(pool[r])
        envs.append(dict(zip((d.name for d in decls), reversed(values))))
    return envs


# ---------------------------------------------------------------------------
# concrete atoms of the samples


def _sample_atoms(theory, scheme, decls, envs, prefix):
    """Yields (position in *envs*, atoms or None when empty) of each env's
    instance.  The instances are composed in sorted order of their axiom
    sequences, so that each resumes from the longest prefix the
    reduce_specific state *prefix*, shared by the samples of one branch,
    can offer: the state acts as a trie."""
    seqs = [instantiate(scheme, index_from_stars(scheme, [env[d.name] for d in decls])) for env in envs]
    for i in sorted(range(len(seqs)), key=seqs.__getitem__):
        clause = reduce_specific(theory, seqs[i], prefix)
        yield i, None if clause is None else split_axiom(clause)


def _family_key(atom):
    """Class, step skeleton of each side and template (None for EqualsLR)
    of a concrete atom."""
    (left, _), (right, template) = atom.sides()
    return (type(atom), left.steps(), right.steps(), template)


# ---------------------------------------------------------------------------
# affine fitting


def _design(envs, features):
    """(fit, decisive) of one list of sample envs.  ``fit`` takes a count
    per env to the fitted AffineExpr, or None when no integral fit exists.
    It solves a ``LinearSystem`` over the feature coefficients, one
    equation per distinct row of the feature matrix, and requires the
    count of a repeated row to equal that of its first.  The pivots are
    the features independent of the ones before them, and a free
    coefficient is 0: a consistent system's free-zero solution depends
    only on the row space, so this is what reducing each count's system
    gives.

    ``decisive`` tells whether counts with no fit here have none over any
    list of envs that holds these either: the features are independent on
    these envs, so a fit is unique where one exists, or a feature cannot
    be evaluated on them."""
    try:
        rows = [tuple(f.evaluate(env) for f in features) for env in envs]
    except (IndexError, KeyError):
        return (lambda counts: None), True
    first = {}
    for i, row in enumerate(rows):
        first.setdefault(row, i)
    repeats = [(i, first[row]) for i, row in enumerate(rows) if first[row] != i]
    coeffs = [IndexTerm(str(col)) for col in range(len(features))]
    # declared last first, since the system pivots the last-declared first
    exprs = [AffineExpr(0, tuple((v, b) for v, b in zip(row, coeffs) if v)) for row in first]
    system = LinearSystem(exprs, coeffs[::-1], natural=False)

    def fit(counts):
        if repeats:
            if any(counts[i] != counts[j] for i, j in repeats):
                return None
            counts = [counts[i] for i in first.values()]
        sol = system.solve(counts)
        if sol is None:
            return None
        const, terms = 0, []
        for f, b in zip(features, reversed(sol.values())):
            if b:
                const += f.const * b
                terms += [(c * b, it) for c, it in f.terms]
        return AffineExpr.of(const, *terms)

    return fit, not system.free


# ---------------------------------------------------------------------------
# family alignment


def _merge_keys(keys):
    """Partition compatible keys around maximal skeletons.  Two keys are
    compatible when they share class and template and both step tuples of
    one embed into the other's."""
    merged = {}  # representative key -> list of member keys
    for key in sorted(keys, key=lambda k: (-len(k[1]) - len(k[2]), str(k))):
        home = None
        for rep in merged:
            if (
                key[0] == rep[0]
                and key[3] == rep[3]
                and embed(key[1], rep[1]) is not None
                and embed(key[2], rep[2]) is not None
            ):
                home = rep
                break
        if home is None:
            merged[key] = [key]
        else:
            merged[home].append(key)
    return merged


# ---------------------------------------------------------------------------
# per-branch synthesis


@dataclass(frozen=True)
class Branch:
    """One alternative of the characteristic function: its scheme, the
    declared index variables, one per star in order, and the tuple of
    atoms, plain ones and iterated groups, whose conjunction it is."""

    scheme: IterExpr
    decls: tuple
    atoms: tuple

    def index_of(self, assign: dict):
        return index_from_stars(self.scheme, [assign[d.name] for d in self.decls])

    @cached_property
    def scalar_stage(self):
        """Tuning's first stage for this branch, compiled on its first
        tune (``final.compile_scalar_stage``)."""
        return compile_scalar_stage(self)

    def __str__(self):
        lam = "".join(
            f"lambda {d.name}:{'M' if d.kind == 'multi' else 'N'}." for d in self.decls
        )
        if len(self.atoms) == 1:
            return lam + str(self.atoms[0])
        return lam + "Intersect(" + ", ".join(map(str, self.atoms)) + ")"


@dataclass(frozen=True)
class SymbolicCharFn:
    scheme: IterExpr
    branches: tuple

    def __str__(self):
        return " | ".join(str(b) for b in self.branches)


def _family_atom(member, key, fitted):
    """*member*, one atom of the family *key*, rebuilt with the fitted
    paths, one segment per run of key's skeletons.  The paths need no
    normalising: a skeleton is the runs of an atom ``split_axiom`` made,
    so no two adjacent runs share a step, and each run counts at least 1
    in the sample whose atom is *member*, so no fitted count is 0."""
    return member.with_paths(
        *(SymbolicPath(tuple(map(Segment, skel, exprs))) for skel, exprs in zip(key[1:3], fitted))
    )


def _fit_family_runs(key, atoms, fit):
    """*atoms*, one per env of the design *fit* belongs to, have steps
    embedding in key's skeletons.  Fits one expression per run on each
    side; a run an atom's path leaves out counts 0."""
    fitted = []
    for side, skel in enumerate(key[1:3]):
        counts = []
        for atom in atoms:
            path = atom.sides()[side][0]
            row = [0] * len(skel)
            for slot, seg in zip(embed(path.steps(), skel), path.segments):
                row[slot] = seg.count.const
            counts.append(row)
        exprs = [fit([row[ri] for row in counts]) for ri in range(len(skel))]
        if None in exprs:
            return None
        fitted.append(exprs)
    return fitted


def _synthesize_branch(theory, scheme):
    """The verified Branch of *scheme*, one alternative, or the GiveUp of
    its layout, its fit or its verification."""
    decls = []
    failure = _layout(scheme, decls)
    if failure is not None:
        return failure
    decls = tuple(decls)
    prefix = []
    fit_envs = _sample_grid(decls, _SCALAR_FIT, _MULTI_FIT, _MAX_FIT_SAMPLES)
    grids = [fit_envs]
    # a fit grid under its cap lists every combination, so it holds the
    # sub-grid's samples, and a decisive give-up there is one here too; the
    # sub-grid's instances stay composed in prefix for the full fit
    if 2 * _PROBE_FIT_SAMPLES < len(fit_envs) < _MAX_FIT_SAMPLES:
        grids.insert(0, _sample_grid(decls, _SCALAR_FIT, _MULTI_FIT, _PROBE_FIT_SAMPLES))
    for envs in grids:
        branch = _fit_branch(theory, scheme, decls, envs, prefix)
        if isinstance(branch, GiveUp) and (branch.decisive or envs is fit_envs):
            return branch
    # the held-out grid, then the zero boundary less any empty instance:
    # its clause v0 -> v0 relates every tree, and no fitted form splits
    # like it
    verify_envs = _sample_grid(decls, _SCALAR_VERIFY, _MULTI_VERIFY, _MAX_VERIFY_SAMPLES) + [
        env
        for env in _sample_grid(decls, _SCALAR_EDGE, _MULTI_EDGE, _MAX_VERIFY_SAMPLES)
        if any(not v or isinstance(v, tuple) and 0 in v for v in env.values())
        and instantiate(scheme, branch.index_of(env))
    ]
    return _verify_branch(theory, branch, verify_envs, prefix) or branch


def _fit_branch(theory, scheme, decls, fit_envs, prefix):
    """The Branch of the atoms fitted over *fit_envs*, not yet verified,
    or the GiveUp; *prefix* is the branch's reduce_specific state.  An
    empty instance gives up decisively, a failed fit only when the base
    design, whose fits decide which atoms form iterated families, and,
    for such a family, every design it tried are decisive (``_design``)."""
    fit_atoms = [None] * len(fit_envs)
    for i, atoms in _sample_atoms(theory, scheme, decls, fit_envs, prefix):
        if atoms is None:
            return GiveUp("an instance composes to the empty relation", scheme)
        fit_atoms[i] = atoms
    samples = list(zip(fit_envs, fit_atoms))

    # group occurrences by exact key; first_atom holds the keys in order
    # of appearance, each with the atom a fitted family is rebuilt from
    first_atom = {}
    groups = {}
    for si, (env, atoms) in enumerate(samples):
        for pos, atom in enumerate(atoms):
            key = _family_key(atom)
            if key not in groups:
                groups[key] = [[] for _ in samples]
                first_atom[key] = atom
            groups[key][si].append((pos, atom))

    # a multi-index name in scalar position means its length
    base = [ONE] + [AffineExpr.var(d.name) for d in decls]
    base_fit, base_decisive = _design([env for env, _ in samples], base)
    multis = [d.name for d in decls if d.kind == "multi"]
    conjuncts = {}  # key -> symbolic atom, placed at the key's first appearance
    failing = []

    for key, per_sample in groups.items():
        if all(len(lst) == 1 for lst in per_sample):
            fitted = _fit_family_runs(key, [lst[0][1] for lst in per_sample], base_fit)
            if fitted is not None:
                conjuncts[key] = _family_atom(first_atom[key], key, fitted)
                continue
        failing.append(key)

    merged = _merge_keys(failing)
    rep_of = {key: rep for rep, members in merged.items() for key in members}
    itervar = fresh_name({d.name for d in decls}, "iter")
    for rep, members in merged.items():
        # per sample, the member occurrences in original atom order
        occ = [
            [atom for _, atom in sorted(occurrence for key in members for occurrence in groups[key][si])]
            for si in range(len(samples))
        ]
        # group size must be affine in the base features
        upper = base_fit([len(o) for o in occ])
        if upper is None:
            return GiveUp("family size is not affine in the index", scheme, base_decisive)
        fitted = _fit_iterated(scheme, rep, samples, occ, base, multis, itervar, base_decisive)
        if isinstance(fitted, GiveUp):
            return fitted
        conjuncts[rep] = IterGroup(itervar, upper, _family_atom(first_atom[rep], rep, fitted))

    order = dict.fromkeys(rep_of.get(key, key) for key in first_atom)
    return Branch(scheme, decls, tuple(conjuncts[key] for key in order))


def _fit_iterated(scheme, key, samples, occ, base, multis, itervar, decisive):
    """Fit run counts over base features extended with the occurrence
    position and, per multi-index, the element at that position (tried
    both from the front and from the back).  Returns the fitted runs, or
    the GiveUp, decisive when *decisive*, the base design's, and every
    design tried are."""
    pos = AffineExpr.var(itervar)
    choices = [
        (AffineExpr.element(w, pos), AffineExpr.element(w, AffineExpr.var(w) + 1 - pos)) for w in multis
    ]
    envs = [{**env, itervar: i} for (env, _), o in zip(samples, occ) for i in range(1, len(o) + 1)]
    atoms = [atom for o in occ for atom in o]
    for sels in itertools.product(*choices):
        fit, exact = _design(envs, base + [pos] + list(sels))
        fitted = _fit_family_runs(key, atoms, fit)
        if fitted is not None:
            return fitted
        decisive = decisive and exact
    return GiveUp("repetition counts are not affine in the index", scheme, decisive)


# ---------------------------------------------------------------------------
# verification


def _unit_forms(atoms, env, out: Counter) -> bool:
    """Counts in *out* the unit form of each atom *atoms* unroll to at
    *env*: its class, the unit steps of each side and its template (None
    for EqualsLR).  False, and stops, at the first negative count."""
    for atom, scope in unroll(atoms, env):
        (left, _), (right, template) = atom.sides()
        form = (type(atom), left.expand(scope), right.expand(scope), template)
        if None in form[1:3]:
            return False
        out[form] += 1
    return True


def _check_held_out(branch: Branch, env, atoms):
    """None when the fitted atoms expand at *env* to exactly the multiset
    of the held-out sample's *atoms*, else the GiveUp.  A step is a unit
    step, compared as its functor, arity and child, so a side's step
    sequence and the clause it composes to determine each other, and
    comparing the sequences needs no clause composition."""
    if atoms is None:
        return GiveUp("a held-out instance composes to the empty relation", branch.scheme)
    got, want = Counter(), Counter()
    if not _unit_forms(branch.atoms, env, got):
        return GiveUp("a fitted count went negative during verification")
    _unit_forms(atoms, {}, want)
    if got != want:
        return GiveUp("fitted form failed held-out verification", branch.scheme)
    return None


def _verify_branch(theory, branch: Branch, envs, prefix):
    """The GiveUp of the first held-out sample, in grid order, that
    *branch* fails, or None.  Checks each sample as it is composed, and
    holds none after its check; skips those after a known failure."""
    at, first = len(envs), None  # the first failure in grid order so far
    for i, atoms in _sample_atoms(theory, branch.scheme, branch.decls, envs, prefix):
        failure = _check_held_out(branch, envs[i], atoms) if i < at else None
        if failure is not None:
            at, first = i, failure
    return first


# ---------------------------------------------------------------------------
# entry point


def check_layout(scheme: IterExpr) -> None:
    """Raises NotLinearizable when *scheme* has no flat index layout;
    cheap (no sampling), usable as an early feasibility probe."""
    tops = scheme.parts if isinstance(scheme, Alt) else (scheme,)
    for part in tops:
        failure = _layout(part, [])
        if failure is not None:
            raise failure.error()


def sigma(theory, scheme: IterExpr) -> SymbolicCharFn:
    """The symbolic characteristic function of *scheme* over *theory*.
    Each branch's form must hold at every held-out index and at the zero
    boundary (counts of 0, empty multi-indexes, zero elements), except
    where the instance is empty; otherwise NotLinearizable is raised here,
    from the first branch's give-up, so its traceback holds this frame
    alone: a caller that keeps the exception does not keep the samples,
    their states and the fitted forms alive, nor a cycle that only the
    collector could free."""
    tops = scheme.parts if isinstance(scheme, Alt) else (scheme,)
    branches = []
    for part in tops:
        branch = _synthesize_branch(theory, part)
        if isinstance(branch, GiveUp):
            del branches  # a kept exception keeps this frame, and so no branch
            raise branch.error()
        branches.append(branch)
    return SymbolicCharFn(scheme, tuple(branches))
