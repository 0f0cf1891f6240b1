"""Symbolic characteristic functions for iterative schemes.

``sigma`` turns a scheme into a function of its index variables whose
value is an atom set: a pair of trees is related by some instance of the
scheme exactly when the atoms hold under the corresponding assignment.

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
expands the fitted atoms at each held-out index and compares them, as a
multiset, with the atoms split from that sample: each atom is compared by
its class, the unit steps of each side and its template.  Anything that
fails to fit or verify raises NotLinearizable.

The samples of a branch share one ``reduce_specific`` state and are
composed in sorted order of their axiom sequences, so each resumes from
the longest prefix any earlier one left.  Fitting stops at the first
instance that composes to the empty relation; everything else, the
samples, the families and every check, keeps the order of the grid, so
the first failure reported is the same whatever the composition order.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .affine import AffineExpr, ONE, scopes
from .errors import NotLinearizable
from .mathsolver import reduce_rows
from .paths import (
    AtomSet,
    IterGroup,
    Segment,
    SymbolicPath,
    VarDecl,
    embed,
    split_axiom,
)
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
_MAX_VERIFY_SAMPLES = 64


# ---------------------------------------------------------------------------
# variable layout


def _layout(e: IterExpr, decls: list) -> None:
    """Appends one VarDecl per star of *e*, left to right, in the order
    ``index_from_stars`` takes their values, of the kind ``star_kind``
    gives: a scalar for a star that takes a count, a multi-index for one
    that takes a tuple of counts."""
    if isinstance(e, Star):
        kind = star_kind(e)
        if kind is None:
            raise NotLinearizable("index nesting too deep to lay out", e)
        decls.append(VarDecl(fresh_name({d.name for d in decls}, kind), kind))
    elif isinstance(e, Dot):
        for p in e.parts:
            _layout(p, decls)
    elif isinstance(e, Alt):
        raise NotLinearizable("alternatives must be at the top level", e)
    elif not isinstance(e, (Axiom, Eps)):
        raise TypeError(e)


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
    up to five variables on the fit pools and six on the verify pools.

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
        yield i, None if clause is None else split_axiom(clause).conjuncts


def _family_key(atom):
    """Class, step skeleton of each side and template (None for EqualsLR)
    of a concrete atom."""
    (left, _), (right, template) = atom.sides()
    return (type(atom), left.steps(), right.steps(), template)


# ---------------------------------------------------------------------------
# affine fitting


def _design(envs, features):
    """Reduces the feature matrix of one list of sample envs once and
    returns its ``fit``: a count per env to the fitted AffineExpr, or None
    when no integral fit exists.  The pivots are the features independent
    of the ones before them.  ``fit`` solves their coefficients from the
    basis rows, free coefficients zero, and checks them on every row in
    integers.  A consistent system's free-zero solution depends only on
    the row space, so this is what reducing each count's system gives."""
    try:
        rows = [tuple(f.evaluate(env) for f in features) for env in envs]
    except (IndexError, KeyError):
        return lambda counts: None
    # row i reads "row . coeffs + t_i = 0" with t_i = -count_i, so a solved
    # pivot gives its coefficient over the counts; a repeated row adds
    # nothing to the row space and is left out
    first = {}
    for i, row in enumerate(rows):
        first.setdefault(row, i)
    tagged = [
        {col: Fraction(v) for col, v in enumerate(row) if v} | {("t", i): Fraction(1)}
        for row, i in first.items()
    ]
    solved, _ = reduce_rows(tagged, range(len(features)))
    denom = lcm(*(v.denominator for sol in solved.values() for v in sol.values()))
    solution = [
        [(k[1], int(-v * denom)) for k, v in sol.items() if isinstance(k, tuple)] for sol in solved.values()
    ]
    pivot_rows = [tuple(row[col] for col in solved) for row in rows]

    def fit(counts):
        # rounded down; only the exact solution, if integral, holds on the
        # basis rows
        coeffs = [sum(a * counts[i] for i, a in combo) // denom for combo in solution]
        for row, count in zip(pivot_rows, counts):
            if sum(map(operator.mul, row, coeffs)) != count:
                return None
        expr = AffineExpr.const_(0)
        for col, b in zip(solved, coeffs):
            if b:
                expr = expr + features[col] * b
        return expr

    return fit


def _base_features(decls):
    # a multi-index name in scalar position means its length
    return [ONE] + [AffineExpr.var(d.name) for d in decls]


# ---------------------------------------------------------------------------
# family alignment


def _merge_keys(keys):
    """Partition compatible keys around maximal skeletons.  Two keys are
    compatible when they share class and template and both step tuples of
    one embed into the other's."""
    keys = list(keys)
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


def _path_from(skeleton, exprs) -> SymbolicPath:
    return SymbolicPath.of(*(Segment(s, e) for s, e in zip(skeleton, exprs)))


# ---------------------------------------------------------------------------
# per-branch synthesis


@dataclass(frozen=True)
class Branch:
    """One alternative of the characteristic function: its scheme, the
    declared index variables, one per star in order, and the atoms."""

    scheme: IterExpr
    decls: tuple
    atoms: AtomSet

    def index_of(self, assign: dict):
        return index_from_stars(self.scheme, [assign[d.name] for d in self.decls])

    def __str__(self):
        lam = "".join(
            f"lambda {d.name}:{'M' if d.kind == 'multi' else 'N'}." for d in self.decls
        )
        return lam + str(self.atoms)


@dataclass(frozen=True)
class SymbolicCharFn:
    scheme: IterExpr
    branches: tuple

    def __str__(self):
        return " | ".join(str(b) for b in self.branches)


def _family_atom(member, key, fitted):
    """*member*, one atom of the family *key*, rebuilt with the fitted
    paths."""
    return member.with_paths(*(_path_from(skel, exprs) for skel, exprs in zip(key[1:3], fitted)))


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


def _synthesize_branch(theory, scheme) -> Branch:
    decls = []
    _layout(scheme, decls)
    decls = tuple(decls)
    # fitted in its own frame, so that a give-up in verification does not
    # keep the fit samples alive through its traceback
    prefix = []
    branch = _fit_branch(theory, scheme, decls, prefix)
    # the held-out grid, then the zero boundary less any empty instance:
    # its clause v0 -> v0 relates every tree, and no fitted form splits
    # like it
    verify_envs = _sample_grid(decls, _SCALAR_VERIFY, _MULTI_VERIFY, _MAX_VERIFY_SAMPLES) + [
        env
        for env in _sample_grid(decls, _SCALAR_EDGE, _MULTI_EDGE, _MAX_VERIFY_SAMPLES)
        if any(not v or isinstance(v, tuple) and 0 in v for v in env.values())
        and instantiate(scheme, index_from_stars(scheme, [env[d.name] for d in decls]))
    ]
    _verify_branch(theory, branch, verify_envs, prefix)
    return branch


def _fit_branch(theory, scheme, decls, prefix) -> Branch:
    """The atoms fitted over the fit grid, not yet verified; *prefix* is
    the branch's reduce_specific state."""
    fit_envs = _sample_grid(decls, _SCALAR_FIT, _MULTI_FIT, _MAX_FIT_SAMPLES)
    fit_atoms = [None] * len(fit_envs)
    for i, atoms in _sample_atoms(theory, scheme, decls, fit_envs, prefix):
        if atoms is None:
            raise NotLinearizable("an instance composes to the empty relation", scheme)
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

    base = _base_features(decls)
    base_fit = _design([env for env, _ in samples], base)
    multis = [d.name for d in decls if d.kind == "multi"]
    conjuncts = {}  # key -> list of symbolic atoms (placed at first appearance)
    failing = []

    for key in first_atom:
        per_sample = groups[key]
        counts = {len(lst) for lst in per_sample}
        if counts == {1}:
            fitted = _fit_family_runs(key, [lst[0][1] for lst in per_sample], base_fit)
            if fitted is not None:
                conjuncts[key] = [_family_atom(first_atom[key], key, fitted)]
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
            raise NotLinearizable("family size is not affine in the index", scheme)
        fitted = _fit_iterated(rep, samples, occ, base, multis, itervar)
        if fitted is None:
            raise NotLinearizable("repetition counts are not affine in the index", scheme)
        body = _family_atom(first_atom[rep], rep, fitted)
        conjuncts[rep] = [IterGroup(itervar, ONE, upper, (body,))]

    ordered = []
    for key in dict.fromkeys(rep_of.get(key, key) for key in first_atom):
        ordered.extend(conjuncts[key])

    return Branch(scheme, decls, AtomSet(tuple(ordered)))


def _fit_iterated(key, samples, occ, base, multis, itervar):
    """Fit run counts over base features extended with the occurrence
    position and, per multi-index, the element at that position (tried
    both from the front and from the back)."""
    pos = AffineExpr.var(itervar)
    choices = [
        (AffineExpr.element(w, pos), AffineExpr.element(w, AffineExpr.var(w) + 1 - pos)) for w in multis
    ]
    envs = [{**env, itervar: i} for (env, _), o in zip(samples, occ) for i in range(1, len(o) + 1)]
    atoms = [atom for o in occ for atom in o]
    for sels in itertools.product(*choices):
        fitted = _fit_family_runs(key, atoms, _design(envs, base + [pos] + list(sels)))
        if fitted is not None:
            return fitted
    return None


# ---------------------------------------------------------------------------
# verification


def _unit_form(atom, env):
    """Class, unit steps of each side under *env*, and template (None for
    EqualsLR) of a non-iterated atom."""
    (left, _), (right, template) = atom.sides()
    form = (type(atom), left.expand(env), right.expand(env), template)
    if None in form[1:3]:
        raise NotLinearizable("a fitted count went negative during verification")
    return form


def _expand_symbolic(atoms, env, out: Counter):
    for atom in atoms:
        if isinstance(atom, IterGroup):
            for scope in scopes(atom, env):
                _expand_symbolic(atom.body, scope, out)
        else:
            out[_unit_form(atom, env)] += 1


def _check_held_out(branch: Branch, env, atoms):
    """The fitted atoms must expand at *env* to exactly the multiset of
    the held-out sample's *atoms*.  Every step comes from
    ``paths._unit_step``, so a side's unit-step sequence and the clause it
    composes to determine each other, and comparing steps needs no clause
    composition."""
    if atoms is None:
        raise NotLinearizable("a held-out instance composes to the empty relation", branch.scheme)
    got = Counter()
    _expand_symbolic(branch.atoms.conjuncts, env, got)
    if got != Counter(_unit_form(a, {}) for a in atoms):
        raise NotLinearizable("fitted form failed held-out verification", branch.scheme)


def _verify_branch(theory, branch: Branch, envs, prefix):
    """Checks every held-out sample as it is composed, holding none after
    its check, and raises the failure that comes first in grid order."""
    first = None  # (position in envs, NotLinearizable)
    for i, atoms in _sample_atoms(theory, branch.scheme, branch.decls, envs, prefix):
        if first is None or i < first[0]:
            try:
                _check_held_out(branch, envs[i], atoms)
            except NotLinearizable as exc:
                first = (i, exc)
    if first is not None:
        raise first[1]


# ---------------------------------------------------------------------------
# entry point


def check_layout(scheme: IterExpr) -> None:
    """Raises NotLinearizable when *scheme* has no flat index layout;
    cheap (no sampling), usable as an early feasibility probe."""
    tops = scheme.parts if isinstance(scheme, Alt) else (scheme,)
    for part in tops:
        _layout(part, [])


def sigma(theory, scheme: IterExpr) -> SymbolicCharFn:
    """The symbolic characteristic function of *scheme* over *theory*.
    Each branch's form must hold at every held-out index and at the zero
    boundary (counts of 0, empty multi-indexes, zero elements), except
    where the instance is empty; otherwise NotLinearizable is raised."""
    tops = scheme.parts if isinstance(scheme, Alt) else (scheme,)
    branches = tuple(_synthesize_branch(theory, part) for part in tops)
    return SymbolicCharFn(scheme, branches)
